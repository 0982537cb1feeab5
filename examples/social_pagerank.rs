//! Social-network PageRank — the workload the paper's introduction
//! motivates: a skewed follower graph where a handful of celebrity accounts
//! (in-hubs) receive most of the edges and wreck pull-traversal locality.
//!
//! Compares every served engine (pull, iHTL, PB, hybrid) on a Twitter-like
//! graph and shows where the edges (and the time) go.
//!
//! ```text
//! cargo run --release --example social_pagerank
//! ```

use ihtl_apps::engine::{build_engine, EngineKind};
use ihtl_apps::pagerank::pagerank;
use ihtl_core::{IhtlConfig, IhtlGraph};
use ihtl_gen::suite;
use ihtl_graph::stats::{degree_stats, edge_fraction_to_top_k};

fn main() {
    // The Twitter MPI stand-in from the evaluation suite.
    let spec = suite().into_iter().find(|s| s.key == "twtr_mpi").unwrap();
    println!("building {} ({})…", spec.key, spec.paper_name);
    let graph = spec.build();
    let s = degree_stats(&graph);
    println!(
        "|V| = {}, |E| = {}, max in-degree = {} ({}× the mean)",
        s.n_vertices,
        s.n_edges,
        s.max_in_degree,
        (s.max_in_degree as f64 / s.mean_degree) as u64
    );
    let k = s.n_vertices / 100;
    println!(
        "top 1% of vertices by in-degree receive {:.1}% of all edges",
        100.0 * edge_fraction_to_top_k(&graph, k)
    );

    let cfg = IhtlConfig::default();
    let ihtl = IhtlGraph::build(&graph, &cfg);
    println!(
        "iHTL: {} flipped blocks, {:.1}% of vertices are VWEH, flipped blocks hold {:.1}% of edges",
        ihtl.n_blocks(),
        100.0 * ihtl.stats().vweh_fraction(),
        100.0 * ihtl.stats().fb_edge_fraction()
    );

    println!("\nPageRank, 10 iterations, every served engine:");
    let mut baseline_ranks: Option<Vec<f64>> = None;
    for kind in EngineKind::all() {
        let mut engine = build_engine(kind, &graph, &cfg);
        let run = pagerank(engine.as_mut(), 10);
        println!("  {:<16} {:>8.2} ms/iteration", engine.label(), run.mean_iter_seconds() * 1e3);
        match &baseline_ranks {
            None => baseline_ranks = Some(run.ranks),
            Some(r) => {
                let max_diff =
                    r.iter().zip(&run.ranks).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
                assert!(max_diff < 1e-10, "{:?} diverged from the reference by {max_diff}", kind);
            }
        }
    }
    println!("\nall four engines agree on the ranks to within 1e-10 ✓");
}
