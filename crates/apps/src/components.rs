//! Connected components by min-label propagation — one of the analytics
//! the paper's §6 names as a future target for the irregular-traversal
//! idea ("Connected Components").
//!
//! Weakly connected components of a directed graph: symmetrize, then
//! iterate `label[v] ← min(label[v], min_{u ∈ N⁻(v)} label[u])` to a
//! fixpoint. Each step is a min-SpMV, so every engine (including iHTL)
//! runs it unchanged.

use ihtl_graph::Graph;

use crate::engine::SpmvEngine;
use crate::rows::{relax_rows, Improved};

/// Result of a components run.
#[derive(Clone, Debug)]
pub struct ComponentsRun {
    /// Component label per vertex (the smallest original vertex ID in the
    /// component), in original order.
    pub labels: Vec<u32>,
    /// Number of propagation rounds until fixpoint.
    pub rounds: usize,
}

/// Builds the symmetrized version of `g` (needed for *weakly* connected
/// components; min-label over a directed graph computes reachability
/// minima instead).
pub fn symmetrize(g: &Graph) -> Graph {
    let mut edges = Vec::with_capacity(g.n_edges() * 2);
    for (u, outs) in g.csr().iter_rows() {
        for &v in outs {
            edges.push((u, v));
            edges.push((v, u));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    Graph::from_edges(g.n_vertices(), &edges)
}

/// Runs min-label propagation on `engine` (which must already be built over
/// a symmetrized graph for weak components). `max_rounds` bounds runaway
/// iteration; the propagation otherwise stops at the first unchanged round.
pub fn propagate_components(engine: &mut dyn SpmvEngine, max_rounds: usize) -> ComponentsRun {
    let n = engine.n_vertices();
    let init = ihtl_trace::span("driver_init");
    let mut labels = {
        let own: Vec<f64> = (0..n).map(|v| v as f64).collect();
        engine.from_original_order(&own)
    };
    let mut incoming = vec![0.0f64; n];
    let improved = Improved::new(1);
    drop(init);
    let mut rounds = 0;
    while rounds < max_rounds {
        engine.spmv_min(&labels, &mut incoming);
        relax_rows::<1>(&mut labels, &incoming, |l| l, &improved);
        rounds += 1;
        if !improved.take(0) {
            break;
        }
    }
    let _out = ihtl_trace::span("driver_output");
    let labels = engine.to_original_order(&labels).into_iter().map(|l| l as u32).collect();
    ComponentsRun { labels, rounds }
}

/// Counts distinct components in a label assignment.
pub fn count_components(labels: &[u32]) -> usize {
    let mut distinct: Vec<u32> = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    distinct.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineKind};
    use ihtl_core::IhtlConfig;
    use ihtl_graph::graph::paper_example_graph;

    fn cfg() -> IhtlConfig {
        IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() }
    }

    #[test]
    fn two_separate_cycles() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        let sym = symmetrize(&g);
        let mut e = build_engine(EngineKind::PullGraphGrind, &sym, &cfg());
        let run = propagate_components(e.as_mut(), 100);
        assert_eq!(run.labels[..3], [0, 0, 0]);
        assert_eq!(run.labels[3..], [3, 3, 3]);
        assert_eq!(count_components(&run.labels), 2);
    }

    #[test]
    fn paper_example_is_weakly_connected() {
        let g = paper_example_graph();
        let sym = symmetrize(&g);
        for kind in [EngineKind::PullGraphGrind, EngineKind::Ihtl, EngineKind::Pb] {
            let mut e = build_engine(kind, &sym, &cfg());
            let run = propagate_components(e.as_mut(), 100);
            assert_eq!(count_components(&run.labels), 1, "{kind:?}");
            assert!(run.labels.iter().all(|&l| l == 0), "{kind:?}");
        }
    }

    #[test]
    fn ihtl_matches_pull_labels() {
        let g = Graph::from_edges(
            10,
            &[(0, 1), (2, 1), (3, 2), (5, 4), (6, 5), (7, 8), (8, 9), (9, 7)],
        );
        let sym = symmetrize(&g);
        let mut pull = build_engine(EngineKind::PullGraphGrind, &sym, &cfg());
        let mut ihtl = build_engine(EngineKind::Ihtl, &sym, &cfg());
        let a = propagate_components(pull.as_mut(), 100);
        let b = propagate_components(ihtl.as_mut(), 100);
        assert_eq!(a.labels, b.labels);
        assert_eq!(count_components(&a.labels), 3);
    }

    #[test]
    fn isolated_vertices_keep_own_label() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let sym = symmetrize(&g);
        let mut e = build_engine(EngineKind::PullGraphGrind, &sym, &cfg());
        let run = propagate_components(e.as_mut(), 10);
        assert_eq!(run.labels, vec![0, 0, 2, 3]);
    }

    #[test]
    fn symmetrize_doubles_one_way_edges_only() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (1, 2)]);
        let sym = symmetrize(&g);
        assert_eq!(sym.n_edges(), 4); // (0,1),(1,0) kept; (1,2)+(2,1) added
    }
}
