//! Unweighted single-source shortest paths (Bellman–Ford over min-plus
//! SpMV) — another §6 analytic ("Single Source Shortest Path").
//!
//! `dist_i[v] = min(dist_{i-1}[v], min_{u ∈ N⁻(v)} dist_{i-1}[u] + 1)`
//!
//! The inner `min` is a min-SpMV, so the kernel is shared with components
//! and PageRank across all engines. It runs over `dist` itself: rounding is
//! monotone (`a ≤ b` implies `fl(a + 1) ≤ fl(b + 1)`), so
//! `min_u fl(dist[u] + 1) = fl((min_u dist[u]) + 1)` bit for bit — `+∞`, the
//! Min identity of a vertex without in-neighbours, included — and the edge
//! length is added once per vertex inside the relax pass instead of once
//! per vertex into a bumped copy of `dist` before every sweep.

use crate::engine::SpmvEngine;
use crate::multi::sssp_columns;

/// Result of an SSSP run.
#[derive(Clone, Debug)]
pub struct SsspRun {
    /// Distance from the source per vertex (original order); `f64::INFINITY`
    /// for unreachable vertices.
    pub dist: Vec<f64>,
    /// Relaxation rounds executed.
    pub rounds: usize,
}

/// Runs Bellman–Ford from `source` (original vertex ID): the K = 1 case of
/// [`crate::multi::sssp_multi`]'s driver. Stops at the first round with no
/// improvement or after `max_rounds`.
pub fn sssp(engine: &mut dyn SpmvEngine, source: u32, max_rounds: usize) -> SsspRun {
    let (dist, rounds) = sssp_columns::<1>(engine, &[source], max_rounds).remove(0);
    SsspRun { dist, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineKind};
    use ihtl_core::IhtlConfig;
    use ihtl_graph::graph::paper_example_graph;
    use ihtl_graph::Graph;

    fn cfg() -> IhtlConfig {
        IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() }
    }

    #[test]
    fn path_graph_distances() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = sssp(e.as_mut(), 0, 100);
        assert_eq!(run.dist, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn unreachable_stays_infinite() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = sssp(e.as_mut(), 0, 100);
        assert_eq!(run.dist[1], 1.0);
        assert!(run.dist[2].is_infinite());
        assert!(run.dist[3].is_infinite());
    }

    #[test]
    fn engines_agree_on_paper_example() {
        let g = paper_example_graph();
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let run = sssp(e.as_mut(), 5, 100);
            match &reference {
                None => reference = Some(run.dist),
                Some(r) => assert_eq!(r, &run.dist, "{kind:?}"),
            }
        }
    }

    #[test]
    fn respects_directionality() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let run = sssp(e.as_mut(), 2, 100);
        // Nothing is reachable *from* vertex 2.
        assert_eq!(run.dist[2], 0.0);
        assert!(run.dist[0].is_infinite());
        assert!(run.dist[1].is_infinite());
    }

    #[test]
    fn terminates_early_on_fixpoint() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = sssp(e.as_mut(), 0, 1000);
        assert!(run.rounds <= 4, "rounds {}", run.rounds);
    }
}
