//! PageRank — the paper's evaluation application (§4.1):
//!
//! `PR_i[v] = 0.15/n + 0.85 · Σ_{u ∈ N⁻(v)} PR_{i-1}[u] / |N⁺(u)|`
//!
//! Each iteration is one sum-SpMV over contributions `x[u] = PR[u]/deg⁺(u)`,
//! which is exactly what Figures 7/8 time per iteration.

use crate::engine::SpmvEngine;
use crate::multi::pagerank_columns;

/// Damping factor used throughout the paper's evaluation.
pub const DAMPING: f64 = 0.85;

/// Result of a PageRank run.
#[derive(Clone, Debug)]
pub struct PageRankRun {
    /// Final ranks in *original* vertex order.
    pub ranks: Vec<f64>,
    /// Wall-clock seconds of each SpMV iteration (contribution scaling and
    /// rank update included — they are part of every framework's iteration).
    pub iter_seconds: Vec<f64>,
}

impl PageRankRun {
    /// Mean per-iteration time, skipping the first (warm-up) iteration when
    /// more than one was run — matching the paper's per-iteration metric.
    pub fn mean_iter_seconds(&self) -> f64 {
        let timed: &[f64] =
            if self.iter_seconds.len() > 1 { &self.iter_seconds[1..] } else { &self.iter_seconds };
        timed.iter().sum::<f64>() / timed.len().max(1) as f64
    }
}

/// Runs `iters` PageRank iterations on `engine`: the K = 1 case of
/// [`crate::multi::pagerank_multi`]'s driver. Dangling vertices contribute
/// 0 (the paper's formula divides by |N⁺|, which only appears for vertices
/// that have out-edges).
pub fn pagerank(engine: &mut dyn SpmvEngine, iters: usize) -> PageRankRun {
    let (mut ranks, iter_seconds) = pagerank_columns::<1>(engine, iters, &[None]);
    PageRankRun { ranks: ranks.pop().unwrap_or_default(), iter_seconds }
}

/// Personalised PageRank: [`pagerank`] with an optional teleport seed (and
/// start vector) at original vertex `seed` — one column of the same driver
/// as the batched queries, so solo and batched replies agree by
/// construction.
pub fn pagerank_seeded(engine: &mut dyn SpmvEngine, iters: usize, seed: Option<u32>) -> Vec<f64> {
    pagerank_columns::<1>(engine, iters, &[seed]).0.pop().unwrap_or_default()
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
    fn ranks_sum_below_one_and_positive() {
        // With dangling losses ranks sum to <= 1 but every rank >= base.
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = pagerank(e.as_mut(), 20);
        let total: f64 = run.ranks.iter().sum();
        assert!(total <= 1.0 + 1e-9, "sum {total}");
        assert!(run.ranks.iter().all(|&r| r >= (1.0 - DAMPING) / 8.0 - 1e-12));
    }

    #[test]
    fn all_engines_compute_identical_ranks() {
        let g = paper_example_graph();
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let run = pagerank(e.as_mut(), 15);
            match &reference {
                None => reference = Some(run.ranks),
                Some(r) => {
                    for (v, (a, b)) in r.iter().zip(&run.ranks).enumerate() {
                        assert!((a - b).abs() < 1e-12, "{kind:?} vertex {v}: {a} vs {b}");
                    }
                }
            }
        }
    }

    #[test]
    fn hub_outranks_fringe() {
        // The in-hub (vertex 2) must end with more rank than a fringe
        // vertex with a single in-edge.
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let run = pagerank(e.as_mut(), 30);
        assert!(run.ranks[2] > run.ranks[0]);
        assert!(run.ranks[2] > run.ranks[3]);
    }

    #[test]
    fn converges_on_a_cycle_to_uniform() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = pagerank(e.as_mut(), 50);
        for &r in &run.ranks {
            assert!((r - 0.25).abs() < 1e-10, "rank {r}");
        }
    }

    #[test]
    fn iteration_times_recorded() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = pagerank(e.as_mut(), 5);
        assert_eq!(run.iter_seconds.len(), 5);
        assert!(run.mean_iter_seconds() >= 0.0);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::from_edges(0, &[]);
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = pagerank(e.as_mut(), 3);
        assert!(run.ranks.is_empty());
    }
}
