//! The ledger: the repo's layered benchmark (see `bench/README.md`).
//!
//! Four workloads — `sweep_thrash`, `sweep_resident`, `serve_mixed`,
//! `router_shards` — each measured from outside the crates under test: by
//! timing calls into their public functions, by reading the fields and the
//! `stats` op the wire already exposes, and by collecting the spans the
//! crates already emit. One invocation runs one workload in one mode:
//! tracing off prints the end-to-end metrics, tracing on the per-layer ones.

pub mod compare;
pub mod drive;
pub mod gen;
pub mod host;
pub mod metrics;
pub mod oracle;
pub mod proc;
pub mod router;
pub mod schedule;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod util;

use std::path::PathBuf;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use oracle::Tally;

/// Arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `bench/out`: traces, scratch stores, generated inputs.
    pub out: PathBuf,
    /// Where `ihtl-serve` and `ihtl-router` were built.
    pub bin_dir: PathBuf,
}

/// What one run measured.
pub struct Outcome {
    pub metrics: Metrics,
    pub tally: Tally,
}

/// The width of the ledger's own `ihtl-parallel` pool for `workload`: two
/// for the in-process sweeps (the workload is sized for two cores), one for
/// the subprocess workloads, whose servers run one sweep thread each — the
/// oracle must re-associate floating-point sums exactly as they do.
pub fn pool_width(workload: &str) -> usize {
    if workload.starts_with("sweep_") {
        2
    } else {
        1
    }
}

/// Runs one workload; the caller has already pinned `IHTL_THREADS`.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "sweep_thrash" => sweep::run(args, true),
        "sweep_resident" => sweep::run(args, false),
        "serve_mixed" => serve::run(args),
        "router_shards" => router::run(args),
        other => Err(format!("unknown workload '{other}' (valid: {:?})", metrics::WORKLOADS)),
    }
}

/// Renders the single result line the contract asks for.
pub fn result_line(outcome: &Outcome, trace: bool) -> Result<String, String> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    let metrics = outcome.metrics.render(list, !trace)?;
    let t = &outcome.tally;
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        metrics
    ))
}
