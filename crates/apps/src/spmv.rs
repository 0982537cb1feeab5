//! Bare SpMV application — the microbenchmark of the paper's §2.2
//! ("SpMV multiplication that iteratively calculates the new data of a
//! vertex as summation of previous data of its in-neighbours":
//! `u_i[v] = Σ_{u ∈ N⁻(v)} u_{i-1}[u]`).

use crate::engine::SpmvEngine;
use crate::multi::{spmv_columns, sum_start, Timed};

/// Result of iterated SpMV.
#[derive(Clone, Debug)]
pub struct SpmvRun {
    /// Final vector in original vertex order.
    pub values: Vec<f64>,
    /// Per-iteration wall-clock seconds.
    pub iter_seconds: Vec<f64>,
}

fn solo((mut values, iter_seconds): Timed) -> SpmvRun {
    SpmvRun { values: values.pop().unwrap_or_default(), iter_seconds }
}

/// Runs `iters` sum-SpMV iterations starting from `x0` (original order).
/// Values are renormalised each iteration to keep them finite on graphs
/// whose spectral radius exceeds 1 (any graph with a vertex of in-degree
/// > 1 would otherwise overflow in a few hundred iterations).
pub fn spmv_iterations(engine: &mut dyn SpmvEngine, x0: &[f64], iters: usize) -> SpmvRun {
    assert_eq!(x0.len(), engine.n_vertices());
    solo(spmv_columns::<1>(engine, iters, 1, |e| e.from_original_order(x0)))
}

/// [`spmv_iterations`] from all ones (`source == None`, the same in any
/// vertex order) or from an indicator at original vertex `source` (one
/// element): the K = 1 case of [`crate::multi::spmv_sum_multi`].
pub fn spmv_sum(engine: &mut dyn SpmvEngine, iters: usize, source: Option<u32>) -> SpmvRun {
    solo(spmv_columns::<1>(engine, iters, 1, |e| sum_start(e, &[source])))
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
    fn one_iteration_matches_manual_sum() {
        let g = paper_example_graph();
        let x0: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let run = spmv_iterations(e.as_mut(), &x0, 1);
        // Hub 2's in-neighbours: {1,4,5,6,7} → 2+5+6+7+8.
        assert_eq!(run.values[2], 28.0);
        // Vertex 7 has no in-edges → 0.
        assert_eq!(run.values[7], 0.0);
    }

    #[test]
    fn engines_agree_after_three_iterations() {
        let g = paper_example_graph();
        let x0: Vec<f64> = (0..8).map(|i| 1.0 + (i as f64) * 0.25).collect();
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let run = spmv_iterations(e.as_mut(), &x0, 3);
            match &reference {
                None => reference = Some(run.values),
                Some(r) => {
                    for (a, b) in r.iter().zip(&run.values) {
                        assert!((a - b).abs() < 1e-9, "{kind:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn renormalisation_keeps_values_finite() {
        let g = paper_example_graph();
        let x0 = vec![1e90; 8];
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let run = spmv_iterations(e.as_mut(), &x0, 50);
        assert!(run.values.iter().all(|v| v.is_finite()));
    }
}
