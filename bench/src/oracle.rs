//! Correctness oracle: every timed result is compared with an in-process
//! `pull` reference.
//!
//! Order-preserving engines (`pull_*`, `pb`, the router's ownership merge)
//! fold each row in CSC order, so their results must equal the reference
//! *bitwise* — compared through the same FNV-1a checksum the wire carries.
//! `ihtl` and `hybrid` re-associate the floating-point sums, so they get a
//! checksum of their own per (dataset, job) — computed in-process by the
//! same engine at the same pool width, which is why the ledger pins its own
//! `IHTL_THREADS` to the servers' — and that in-process result must lie
//! within 1e-9 (max abs diff) of the reference.

use std::collections::BTreeMap;
use std::sync::Arc;

use ihtl_apps::{build_engine_shared, run_job, run_job_multi, EngineKind, JobSpec, SpmvEngine};
use ihtl_core::IhtlConfig;
use ihtl_graph::Graph;

/// Largest tolerated |engine − reference| for re-associating engines.
pub const MAX_ABS_DIFF: f64 = 1e-9;

/// FNV-1a over the f64 bit patterns, as 16 hex digits (the wire checksum).
pub fn checksum(values: &[f64]) -> String {
    ihtl_serve::fnv1a_checksum(values)
}

/// Largest absolute difference; equal infinities (unreachable vertices)
/// differ by 0, an infinity against a finite value by infinity.
pub fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).map(|(&x, &y)| if x == y { 0.0 } else { (x - y).abs() }).fold(0.0, |m, d| {
        if d > m || d.is_nan() {
            d
        } else {
            m
        }
    })
}

/// Which comparison an engine's results get.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Bitwise equal to the pull reference.
    Exact,
    Ihtl,
    Hybrid,
}

impl Class {
    /// From the `engine_selected` a reply reports (or a wire engine name).
    pub fn of_engine(name: &str) -> Class {
        match name {
            "ihtl" => Class::Ihtl,
            "hybrid" => Class::Hybrid,
            _ => Class::Exact,
        }
    }

    pub fn of_kind(kind: EngineKind) -> Class {
        match kind {
            EngineKind::Ihtl => Class::Ihtl,
            EngineKind::Hybrid => Class::Hybrid,
            _ => Class::Exact,
        }
    }
}

/// Per-dataset oracle: lazily built engines plus memoised expectations.
pub struct Oracle {
    graph: Arc<Graph>,
    cfg: IhtlConfig,
    engines: BTreeMap<Class, Box<dyn SpmvEngine + Send>>,
    reference: BTreeMap<String, Arc<Vec<f64>>>,
    expected: BTreeMap<(String, Class), String>,
}

impl Oracle {
    pub fn new(graph: Arc<Graph>) -> Oracle {
        Oracle {
            graph,
            cfg: IhtlConfig::default(),
            engines: BTreeMap::new(),
            reference: BTreeMap::new(),
            expected: BTreeMap::new(),
        }
    }

    fn run(&mut self, class: Class, spec: &JobSpec) -> Result<Vec<f64>, String> {
        let kind = match class {
            Class::Exact => EngineKind::PullGraphGrind,
            Class::Ihtl => EngineKind::Ihtl,
            Class::Hybrid => EngineKind::Hybrid,
        };
        let (graph, cfg) = (&self.graph, &self.cfg);
        let engine = self
            .engines
            .entry(class)
            .or_insert_with(|| build_engine_shared(kind, Arc::clone(graph), cfg));
        run_job(engine.as_mut(), Some(graph), spec).map(|out| out.values)
    }

    /// The pull reference vector for `spec`.
    pub fn reference(&mut self, spec: &JobSpec) -> Result<Arc<Vec<f64>>, String> {
        let key = spec.canonical();
        if let Some(v) = self.reference.get(&key) {
            return Ok(Arc::clone(v));
        }
        let v = Arc::new(self.run(Class::Exact, spec)?);
        self.reference.insert(key, Arc::clone(&v));
        Ok(v)
    }

    /// Computes the pull references of `specs` eight columns per sweep
    /// (`run_job_multi` columns are bitwise equal to solo runs), so a run
    /// with hundreds of distinct jobs spends its time measuring, not
    /// verifying. Jobs that cannot be batched fall back to solo runs later.
    pub fn prime(&mut self, specs: &[JobSpec]) {
        let mut groups: BTreeMap<String, Vec<JobSpec>> = BTreeMap::new();
        for spec in specs {
            let Some(group) = spec.batch_group_key() else { continue };
            let members = groups.entry(group).or_default();
            if !self.reference.contains_key(&spec.canonical()) && !members.contains(spec) {
                members.push(spec.clone());
            }
        }
        let (graph, cfg) = (&self.graph, &self.cfg);
        let engine = self.engines.entry(Class::Exact).or_insert_with(|| {
            build_engine_shared(EngineKind::PullGraphGrind, Arc::clone(graph), cfg)
        });
        for members in groups.values() {
            for chunk in members.chunks(8) {
                for (spec, out) in chunk.iter().zip(run_job_multi(engine.as_mut(), chunk)) {
                    if let Ok(out) = out {
                        self.reference.insert(spec.canonical(), Arc::new(out.values));
                    }
                }
            }
        }
    }

    /// The checksum a correct `class` engine must report for `spec`.
    /// For re-associating classes the in-process result is itself held to
    /// [`MAX_ABS_DIFF`] against the reference before it becomes the
    /// expectation.
    pub fn expected_checksum(&mut self, spec: &JobSpec, class: Class) -> Result<String, String> {
        let key = (spec.canonical(), class);
        if let Some(sum) = self.expected.get(&key) {
            return Ok(sum.clone());
        }
        let reference = self.reference(spec)?;
        let sum = if class == Class::Exact {
            checksum(&reference)
        } else {
            let values = self.run(class, spec)?;
            let diff = max_abs_diff(&values, &reference);
            if diff > MAX_ABS_DIFF || diff.is_nan() {
                return Err(format!(
                    "in-process {class:?} result for {} differs from the pull reference by {diff:e}",
                    key.0
                ));
            }
            checksum(&values)
        };
        self.expected.insert(key, sum.clone());
        Ok(sum)
    }

    /// Checks in-process `values` of a `class` engine against the reference:
    /// bitwise for [`Class::Exact`], [`MAX_ABS_DIFF`] otherwise.
    pub fn check_values(
        &mut self,
        spec: &JobSpec,
        class: Class,
        values: &[f64],
    ) -> Result<(), String> {
        let reference = self.reference(spec)?;
        if class == Class::Exact {
            if checksum(values) != checksum(&reference) {
                return Err(format!("{} is not bitwise equal to pull", spec.canonical()));
            }
        } else {
            let diff = max_abs_diff(values, &reference);
            if diff > MAX_ABS_DIFF || diff.is_nan() {
                return Err(format!("{} differs from pull by {diff:e}", spec.canonical()));
            }
        }
        Ok(())
    }
}

/// Running tally of oracle verdicts for one run.
#[derive(Default, Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    pub fn pass(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.first_failure.is_none() {
            crate::note!("FAILED: {why}");
            self.first_failure = Some(why);
        }
    }

    pub fn record(&mut self, verdict: Result<(), String>) {
        match verdict {
            Ok(()) => self.pass(),
            Err(why) => self.fail(why),
        }
    }
}
