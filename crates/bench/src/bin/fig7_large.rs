//! Figure 7 at memory-bound scale — the wall-clock demonstration of the
//! headline claim.
//!
//! The regular suite is sized for the *scaled* cache model, which means its
//! working sets fit inside this machine's (huge) last-level cache and the
//! pull baseline never pays a memory miss — muting wall-clock gaps that the
//! simulated hierarchy (Fig. 1, Table 3) still shows. This binary builds
//! one Twitter-like graph big enough that the randomly-read vertex data
//! exceeds the real LLC, then times pull vs push vs iHTL for real.
//!
//! Vertex data is 8·2^S bytes (scale 24 → 134 MB, 25 → 268 MB): pick the
//! smallest scale whose vertex data exceeds the LLC. Dwarfing the LLC by
//! the paper's 18× would take tens of GB, so expect the iHTL/pull gap to be
//! directionally right but smaller than the paper's 1.5–2.4×.
//!
//! Runs several minutes; `IHTL_LARGE_SCALE=N` picks the scale (default 25).

use std::time::Instant;

use ihtl_apps::engine::{build_engine, EngineKind};
use ihtl_apps::pagerank::pagerank;
use ihtl_bench::baselines::Column;
use ihtl_core::IhtlConfig;
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_gen::shuffle_vertex_ids;
use ihtl_graph::Graph;

fn main() {
    let scale: u32 =
        std::env::var("IHTL_LARGE_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(25);
    let n = 1usize << scale;
    let target_edges = n * 4; // sparse enough to generate quickly
    eprintln!("[fig7_large] generating R-MAT scale {scale} (~{target_edges} edges)…");
    let t = Instant::now();
    let mut edges = rmat_edges(scale, target_edges, RmatParams::social(), 71);
    shuffle_vertex_ids(n, &mut edges, 71);
    let graph = Graph::from_edges(n, &edges);
    drop(edges);
    eprintln!(
        "[fig7_large] |V|={} |E|={} built in {:.0}s (vertex data {} MB)",
        graph.n_vertices(),
        graph.n_edges(),
        t.elapsed().as_secs_f64(),
        (graph.n_vertices() * 8) >> 20
    );

    // Hub buffer sized to half the real L2 (2 MiB here): H = 131072, the
    // same H the paper derives from its 1 MB L2.
    let cfg = IhtlConfig { cache_budget_bytes: 1 << 20, ..IhtlConfig::default() };

    println!("## Figure 7 (memory-bound scale) — PageRank ms/iteration\n");
    for column in [
        Column::PushGraphIt,
        Column::Engine(EngineKind::PullGraphGrind),
        Column::PullGalois,
        Column::Engine(EngineKind::Ihtl),
    ] {
        let t = Instant::now();
        let mut engine = column.build(&graph, &cfg);
        let preproc = t.elapsed().as_secs_f64();
        let run = pagerank(engine.as_mut(), 4);
        println!(
            "| {:<16} | {:>10.0} ms/iter | preprocessing {:>6.1} s |",
            engine.label(),
            run.mean_iter_seconds() * 1e3,
            preproc
        );
    }

    // Table 6 against the *real* hierarchy (48 KiB L1d / 2 MiB L2 on this
    // container): at memory-bound scale the paper's conclusion — size the
    // hub buffer to L2 — is testable in wall clock.
    println!("\n## Table 6 (memory-bound scale) — hub-buffer budget vs real caches\n");
    for (label, bytes) in [
        ("L1d (48 KiB)", 48usize << 10),
        ("L2/2 (1 MiB)", 1 << 20),
        ("L2 (2 MiB)", 2 << 20),
        ("2·L2 (4 MiB)", 4 << 20),
        ("8·L2 (16 MiB)", 16 << 20),
    ] {
        let sweep_cfg = IhtlConfig { cache_budget_bytes: bytes, ..IhtlConfig::default() };
        let mut engine = build_engine(EngineKind::Ihtl, &graph, &sweep_cfg);
        let run = pagerank(engine.as_mut(), 3);
        println!("| {:<14} | {:>10.0} ms/iter |", label, run.mean_iter_seconds() * 1e3);
    }
}
