//! Job dispatch: one entry point for every analytic this crate implements.
//!
//! Callers (the serving layer, harness binaries) describe work as a
//! [`JobSpec`] value and run it against any `dyn SpmvEngine` — replacing
//! the per-binary glue that used to call each analytic's function directly.
//! The output is uniform (a value vector in original vertex order, a round
//! count, compute seconds), which is what a wire protocol or a results
//! table needs regardless of the analytic.

use std::time::Instant;

use ihtl_graph::Graph;

use crate::bfs::bfs;
use crate::components::propagate_components;
use crate::engine::SpmvEngine;
use crate::multi::{pagerank_multi, spmv_sum_multi, sssp_multi};

/// A description of one analytics job, independent of the engine that will
/// run it.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpec {
    /// PageRank for a fixed number of iterations (the paper's §4.1
    /// evaluation application). `seed: Some(s)` personalises the teleport
    /// (and the start vector) to vertex `s`; `None` is classic uniform
    /// PageRank.
    PageRank { iters: usize, seed: Option<u32> },
    /// Bare iterated sum-SpMV (§2.2's microbenchmark) from `x0 = 1`
    /// (`source: None`) or an indicator at `source` (`Some`).
    SpmvSum { iters: usize, source: Option<u32> },
    /// Unweighted Bellman–Ford from `source`.
    Sssp { source: u32, max_rounds: usize },
    /// Min-label propagation. The engine must have been built over a
    /// symmetrized graph for weakly-connected-component semantics.
    Components { max_rounds: usize },
    /// Direction-optimizing BFS from `source` — runs on the raw graph, not
    /// an SpMV engine.
    Bfs { source: u32 },
}

impl JobSpec {
    /// Stable lowercase name (wire protocol, cache keys, reports).
    pub fn name(&self) -> &'static str {
        match self {
            JobSpec::PageRank { .. } => "pagerank",
            JobSpec::SpmvSum { .. } => "spmv",
            JobSpec::Sssp { .. } => "sssp",
            JobSpec::Components { .. } => "cc",
            JobSpec::Bfs { .. } => "bfs",
        }
    }

    /// Canonical parameter string: equal specs produce equal strings, so it
    /// can key a result cache. Optional parameters only appear when set, so
    /// pre-existing cache keys stay valid.
    pub fn canonical(&self) -> String {
        match self {
            JobSpec::PageRank { iters, seed: None } => format!("pagerank:iters={iters}"),
            JobSpec::PageRank { iters, seed: Some(s) } => {
                format!("pagerank:iters={iters}:seed={s}")
            }
            JobSpec::SpmvSum { iters, source: None } => format!("spmv:iters={iters}"),
            JobSpec::SpmvSum { iters, source: Some(s) } => {
                format!("spmv:iters={iters}:source={s}")
            }
            JobSpec::Sssp { source, max_rounds } => {
                format!("sssp:source={source}:max_rounds={max_rounds}")
            }
            JobSpec::Components { max_rounds } => format!("cc:max_rounds={max_rounds}"),
            JobSpec::Bfs { source } => format!("bfs:source={source}"),
        }
    }

    /// Coalescing key: two queued jobs whose group keys are equal (and
    /// `Some`) can share one SpMM edge sweep — they are the same analytic
    /// with the same iteration budget, differing only in the per-column
    /// parameter (seed / source). `None` means the job cannot be batched.
    pub fn batch_group_key(&self) -> Option<String> {
        match self {
            JobSpec::PageRank { iters, .. } => Some(format!("pagerank:iters={iters}")),
            JobSpec::SpmvSum { iters, .. } => Some(format!("spmv:iters={iters}")),
            JobSpec::Sssp { max_rounds, .. } => Some(format!("sssp:max_rounds={max_rounds}")),
            JobSpec::Components { .. } | JobSpec::Bfs { .. } => None,
        }
    }

    /// Parameter validation, shared by the solo and batched paths. Runs
    /// *before* any compute timer or trace span starts, so a rejected job
    /// reports no compute time and emits no span.
    pub fn validate(&self, n: usize, graph: Option<&Graph>) -> Result<(), String> {
        let check_source = |s: u32| {
            if (s as usize) < n {
                Ok(())
            } else {
                Err(format!("source vertex {s} out of range (n = {n})"))
            }
        };
        match *self {
            JobSpec::PageRank { seed: Some(s), .. } => check_source(s),
            JobSpec::PageRank { seed: None, .. } => Ok(()),
            JobSpec::SpmvSum { source: Some(s), .. } => check_source(s),
            JobSpec::SpmvSum { source: None, .. } => Ok(()),
            JobSpec::Sssp { source, .. } => check_source(source),
            JobSpec::Components { .. } => Ok(()),
            JobSpec::Bfs { source } => {
                if graph.is_none() {
                    return Err(
                        "bfs requires the raw graph (unavailable for this dataset)".to_string()
                    );
                }
                check_source(source)
            }
        }
    }

    /// Whether this job must run on an engine built over the symmetrized
    /// graph (weak connectivity) rather than the directed one.
    pub fn needs_symmetrized(&self) -> bool {
        matches!(self, JobSpec::Components { .. })
    }

    /// Whether this job runs on the raw [`Graph`] rather than an engine.
    pub fn needs_raw_graph(&self) -> bool {
        matches!(self, JobSpec::Bfs { .. })
    }
}

/// Uniform result of a dispatched job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutput {
    /// Per-vertex result in *original* vertex order: ranks (PageRank), SpMV
    /// values, distances (SSSP; unreachable = +∞), component labels, or BFS
    /// levels (unreachable = +∞).
    pub values: Vec<f64>,
    /// Iterations / propagation rounds / BFS levels executed.
    pub rounds: usize,
    /// Compute wall-clock seconds (excludes queueing; the caller measures
    /// end-to-end latency separately).
    pub seconds: f64,
}

/// Runs `spec` on `engine` (and `graph` for raw-graph jobs). Errors are
/// returned as strings suitable for a wire-protocol `error` field.
pub fn run_job(
    engine: &mut dyn SpmvEngine,
    graph: Option<&Graph>,
    spec: &JobSpec,
) -> Result<JobOutput, String> {
    let n = engine.n_vertices();
    // Reject bad parameters before the timer and span start: a rejected job
    // must report zero compute seconds and leave no trace span behind.
    spec.validate(n, graph)?;
    // lint:allow(R4): wall-clock feeds the reported job timing, not values
    let t = Instant::now();
    // Span name is the analytic's stable wire name.
    let _job_span = ihtl_trace::span(spec.name());
    let (values, rounds) = match *spec {
        JobSpec::Components { max_rounds } => {
            let run = propagate_components(engine, max_rounds);
            (run.labels.iter().map(|&l| l as f64).collect(), run.rounds)
        }
        JobSpec::Bfs { source } => {
            let g = graph.ok_or("bfs requires the raw graph (unavailable for this dataset)")?;
            let run = bfs(g, source);
            let levels = run.level.iter();
            (
                levels.map(|&l| if l == u32::MAX { f64::INFINITY } else { l as f64 }).collect(),
                run.bottom_up_levels.len(),
            )
        }
        _ => run_columns(engine, &[spec]).remove(0),
    };
    Ok(JobOutput { values, rounds, seconds: t.elapsed().as_secs_f64() })
}

/// The batchable analytics' one dispatch, shared by [`run_job`] (one
/// member) and [`run_job_multi`]: runs `members` — validated, non-empty, one
/// [`JobSpec::batch_group_key`] — through their analytic's K-column driver
/// and returns each member's values and rounds, in order.
fn run_columns(engine: &mut dyn SpmvEngine, members: &[&JobSpec]) -> Vec<(Vec<f64>, usize)> {
    // The per-column parameter a batch varies: seed or source.
    let params: Vec<Option<u32>> = members
        .iter()
        .map(|spec| match **spec {
            JobSpec::PageRank { seed: param, .. } | JobSpec::SpmvSum { source: param, .. } => param,
            JobSpec::Sssp { source, .. } => Some(source),
            JobSpec::Components { .. } | JobSpec::Bfs { .. } => None,
        })
        .collect();
    match *members[0] {
        JobSpec::PageRank { iters, .. } => {
            // Rounds actually executed: the empty graph runs none.
            let rounds = if engine.n_vertices() == 0 { 0 } else { iters };
            pagerank_multi(engine, iters, &params).into_iter().map(|c| (c, rounds)).collect()
        }
        JobSpec::SpmvSum { iters, .. } => {
            spmv_sum_multi(engine, iters, &params).into_iter().map(|c| (c, iters)).collect()
        }
        JobSpec::Sssp { max_rounds, .. } => {
            let sources: Vec<u32> = params.into_iter().flatten().collect();
            sssp_multi(engine, &sources, max_rounds)
        }
        JobSpec::Components { .. } | JobSpec::Bfs { .. } => {
            unreachable!("{} jobs have no K-column driver", members[0].name())
        }
    }
}

/// Runs a coalesced batch of jobs sharing one [`JobSpec::batch_group_key`]
/// in a single SpMM edge sweep (K value columns per sweep), returning one
/// result per input spec in order.
///
/// Failure isolation: members that fail validation, are unbatchable, or
/// don't share the batch's group key get their own `Err` and are excluded
/// *before* any compute runs — the surviving columns execute and succeed
/// normally. Each successful member's `seconds` is its amortized share of
/// the batch's compute wall-clock (the batch total divided by the number of
/// executed columns), so summing members recovers the sweep cost.
///
/// Each result column is bitwise identical to the corresponding solo
/// [`run_job`] wherever solo runs are themselves schedule independent (see
/// `crate::multi`).
pub fn run_job_multi(
    engine: &mut dyn SpmvEngine,
    specs: &[JobSpec],
) -> Vec<Result<JobOutput, String>> {
    let n = engine.n_vertices();
    let mut results: Vec<Option<Result<JobOutput, String>>> = specs.iter().map(|_| None).collect();
    let group = specs.iter().find_map(JobSpec::batch_group_key);
    let mut live: Vec<usize> = Vec::new();
    for (i, spec) in specs.iter().enumerate() {
        match (spec.batch_group_key(), spec.validate(n, None)) {
            (None, _) => {
                results[i] = Some(Err(format!("{} jobs cannot be batched", spec.name())));
            }
            (_, Err(e)) => results[i] = Some(Err(e)),
            (Some(g), Ok(())) if Some(&g) != group.as_ref() => {
                results[i] = Some(Err(format!(
                    "batch group mismatch: {g} does not match {}",
                    group.as_deref().unwrap_or("?")
                )));
            }
            _ => live.push(i),
        }
    }
    if !live.is_empty() {
        let k = live.len();
        // lint:allow(R4): wall-clock feeds the reported job timing, not values
        let t = Instant::now();
        let _job_span = ihtl_trace::span(specs[live[0]].name()).with_arg(k as u64);
        let members: Vec<&JobSpec> = live.iter().map(|&i| &specs[i]).collect();
        let cols = run_columns(engine, &members);
        let secs = t.elapsed().as_secs_f64() / k as f64;
        for (&i, (values, rounds)) in live.iter().zip(cols) {
            results[i] = Some(Ok(JobOutput { values, rounds, seconds: secs }));
        }
    }
    results.into_iter().map(|r| r.unwrap_or_else(|| Err("empty batch".to_string()))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::symmetrize;
    use crate::engine::{build_engine, EngineKind};
    use ihtl_core::IhtlConfig;
    use ihtl_graph::graph::paper_example_graph;

    fn cfg() -> IhtlConfig {
        IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() }
    }

    #[test]
    fn dispatch_matches_direct_calls() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let direct = crate::pagerank::pagerank(e.as_mut(), 10).ranks;
        let mut e2 = build_engine(EngineKind::Ihtl, &g, &cfg());
        let out =
            run_job(e2.as_mut(), Some(&g), &JobSpec::PageRank { iters: 10, seed: None }).unwrap();
        assert_eq!(direct, out.values);
        assert_eq!(out.rounds, 10);
    }

    #[test]
    fn every_spec_runs_on_every_engine() {
        let g = paper_example_graph();
        let sym = symmetrize(&g);
        let specs = [
            JobSpec::PageRank { iters: 5, seed: None },
            JobSpec::PageRank { iters: 5, seed: Some(2) },
            JobSpec::SpmvSum { iters: 3, source: None },
            JobSpec::SpmvSum { iters: 3, source: Some(1) },
            JobSpec::Sssp { source: 0, max_rounds: 16 },
            JobSpec::Components { max_rounds: 16 },
            JobSpec::Bfs { source: 0 },
        ];
        for kind in EngineKind::all() {
            for spec in &specs {
                let base = if spec.needs_symmetrized() { &sym } else { &g };
                let mut e = build_engine(kind, base, &cfg());
                let out = run_job(e.as_mut(), Some(base), spec).unwrap();
                assert_eq!(out.values.len(), base.n_vertices(), "{spec:?} on {kind:?}");
            }
        }
    }

    #[test]
    fn bfs_without_graph_errors() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        assert!(run_job(e.as_mut(), None, &JobSpec::Bfs { source: 0 }).is_err());
    }

    #[test]
    fn out_of_range_source_errors() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let r = run_job(e.as_mut(), Some(&g), &JobSpec::Sssp { source: 999, max_rounds: 4 });
        assert!(r.is_err());
    }

    #[test]
    fn canonical_strings_are_distinct_and_stable() {
        let a = JobSpec::PageRank { iters: 20, seed: None }.canonical();
        let b = JobSpec::PageRank { iters: 21, seed: None }.canonical();
        assert_ne!(a, b);
        assert_eq!(a, "pagerank:iters=20");
        let c = JobSpec::PageRank { iters: 20, seed: Some(3) }.canonical();
        assert_eq!(c, "pagerank:iters=20:seed=3");
        assert_eq!(JobSpec::SpmvSum { iters: 4, source: None }.canonical(), "spmv:iters=4");
        assert_eq!(
            JobSpec::SpmvSum { iters: 4, source: Some(7) }.canonical(),
            "spmv:iters=4:source=7"
        );
    }

    #[test]
    fn batch_group_keys_ignore_per_column_parameters() {
        let a = JobSpec::Sssp { source: 0, max_rounds: 16 }.batch_group_key();
        let b = JobSpec::Sssp { source: 5, max_rounds: 16 }.batch_group_key();
        let c = JobSpec::Sssp { source: 0, max_rounds: 17 }.batch_group_key();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(JobSpec::Bfs { source: 0 }.batch_group_key().is_none());
        assert!(JobSpec::Components { max_rounds: 8 }.batch_group_key().is_none());
        assert_eq!(
            JobSpec::PageRank { iters: 9, seed: Some(1) }.batch_group_key(),
            JobSpec::PageRank { iters: 9, seed: None }.batch_group_key()
        );
    }

    #[test]
    fn rejected_jobs_report_zero_seconds() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        for spec in [
            JobSpec::Sssp { source: 999, max_rounds: 4 },
            JobSpec::PageRank { iters: 4, seed: Some(999) },
            JobSpec::SpmvSum { iters: 4, source: Some(999) },
        ] {
            let r = run_job(e.as_mut(), Some(&g), &spec);
            assert!(r.is_err(), "{spec:?} must be rejected");
        }
    }

    #[test]
    fn pagerank_reports_executed_rounds() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let out =
            run_job(e.as_mut(), Some(&g), &JobSpec::PageRank { iters: 7, seed: None }).unwrap();
        assert_eq!(out.rounds, 7);
    }

    #[test]
    fn run_job_multi_matches_solo_runs_bitwise() {
        let g = paper_example_graph();
        let empty = Graph::from_edges(0, &[]);
        let sssp: Vec<JobSpec> =
            [5u32, 0, 2, 6].iter().map(|&s| JobSpec::Sssp { source: s, max_rounds: 32 }).collect();
        let pr = |seed| JobSpec::PageRank { iters: 8, seed };
        let sum = |source| JobSpec::SpmvSum { iters: 3, source };
        let inputs = [
            (&g, sssp),
            (&g, vec![pr(None), pr(Some(2)), pr(Some(5)), pr(None)]),
            (&g, vec![sum(None), sum(Some(1)), sum(Some(6)), sum(None)]),
            (&g, vec![pr(Some(3))]),
            (&g, vec![pr(None)]),
            (&g, vec![sum(Some(2))]),
            (&g, vec![sum(None)]),
            (&empty, vec![pr(None), pr(None)]),
            (&empty, vec![pr(None)]),
            (&empty, vec![sum(None), sum(None)]),
            (&empty, vec![sum(None)]),
        ];
        for (graph, specs) in &inputs {
            let mut e = build_engine(EngineKind::Ihtl, graph, &cfg());
            let batched = run_job_multi(e.as_mut(), specs);
            for (spec, out) in specs.iter().zip(&batched) {
                let out = out.as_ref().unwrap();
                let solo = run_job(e.as_mut(), Some(graph), spec).unwrap();
                assert_eq!(out.rounds, solo.rounds, "{spec:?}");
                assert_eq!(out.values.len(), solo.values.len(), "{spec:?}");
                for (a, b) in out.values.iter().zip(&solo.values) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{spec:?}");
                }
            }
        }
    }

    #[test]
    fn run_job_multi_isolates_failures() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let specs = vec![
            JobSpec::Sssp { source: 5, max_rounds: 32 },
            JobSpec::Sssp { source: 999, max_rounds: 32 },
            JobSpec::Bfs { source: 0 },
            JobSpec::Sssp { source: 0, max_rounds: 32 },
        ];
        let batched = run_job_multi(e.as_mut(), &specs);
        assert!(batched[0].is_ok());
        assert!(batched[1].as_ref().unwrap_err().contains("out of range"));
        assert!(batched[2].as_ref().unwrap_err().contains("cannot be batched"));
        assert!(batched[3].is_ok());
        let solo = run_job(e.as_mut(), Some(&g), &specs[3]).unwrap();
        for (a, b) in batched[3].as_ref().unwrap().values.iter().zip(&solo.values) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn bad_seed_in_a_batch_is_one_members_error_not_a_panic() {
        // `pagerank_multi` asserts its seeds are in range; validation runs
        // first, so the assert is unreachable from a batch and the other
        // columns run as if the bad member had never been queued.
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let specs = vec![
            JobSpec::PageRank { iters: 6, seed: Some(2) },
            JobSpec::PageRank { iters: 6, seed: Some(999) },
            JobSpec::PageRank { iters: 6, seed: None },
        ];
        let batched = run_job_multi(e.as_mut(), &specs);
        assert!(batched[1].as_ref().unwrap_err().contains("out of range"));
        for i in [0, 2] {
            let solo = run_job(e.as_mut(), Some(&g), &specs[i]).unwrap();
            let out = batched[i].as_ref().unwrap();
            assert_eq!(out.rounds, 6);
            for (a, b) in out.values.iter().zip(&solo.values) {
                assert!((a - b).abs() < 1e-12, "member {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn run_job_multi_rejects_group_mismatch() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let specs = vec![
            JobSpec::Sssp { source: 5, max_rounds: 32 },
            JobSpec::Sssp { source: 0, max_rounds: 16 },
        ];
        let batched = run_job_multi(e.as_mut(), &specs);
        assert!(batched[0].is_ok());
        assert!(batched[1].as_ref().unwrap_err().contains("group mismatch"));
    }
}
