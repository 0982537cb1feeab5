//! `ledger compare a.json b.json`: the parent-vs-change (or run-vs-rerun)
//! table. Per workload × end-to-end metric it prints both medians, the
//! delta, the bound and a verdict:
//!
//! * `unresolved` — either side's spread (IQR ÷ median over its runs) is
//!   wider than the bound, so the data cannot tell a regression from noise;
//! * `worse` — `b`'s median is worse than `a`'s by more than the bound;
//! * `ok` — otherwise.
//!
//! Exact per-layer counts are compared for equality run by run.

use std::collections::BTreeMap;

use ihtl_serve::Json;

use crate::metrics::{Decl, END_TO_END, WORKLOADS};
use crate::stats::{median, spread};

/// Per-layer counts that must repeat bit-for-bit for the same seed.
pub const EXACT: &[&str] = &[
    "core.n_blocks",
    "core.n_hubs",
    "core.fb_edge_frac",
    "apps.sssp_rounds",
    "graph.shard_edge_imbalance",
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the table.
#[derive(Clone, Debug)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative =
    /// better), already oriented by the metric's `better` direction.
    pub worse_by: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Judges one metric from the two sides' per-run values.
pub fn judge(decl: &Decl, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let change = if median_a == 0.0 { 0.0 } else { (median_b - median_a) / median_a.abs() };
    let worse_by = if decl.better == "higher" { -change } else { change };
    let spread = spread(a).max(spread(b));
    let verdict = if spread > decl.bound {
        Verdict::Unresolved
    } else if worse_by > decl.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    Row { median_a, median_b, worse_by, spread, verdict }
}

/// `(workload, trace, seed) → metric → value` of one suite file.
type Runs = BTreeMap<(String, bool, u64), BTreeMap<String, f64>>;

/// Parses a suite file written by `ledger suite`.
pub fn parse_suite(text: &str) -> Result<Runs, String> {
    let v = Json::parse(text).map_err(|e| format!("suite file: {e}"))?;
    let runs = v.get("runs").and_then(Json::as_arr).ok_or("suite file has no 'runs' array")?;
    let mut out = Runs::new();
    for run in runs {
        let workload = run.get("workload").and_then(Json::as_str).ok_or("run without workload")?;
        let trace = run.get("trace").and_then(Json::as_u64).unwrap_or(0) == 1;
        let seed = run.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let metrics =
            run.get("result").and_then(|r| r.get("metrics")).ok_or("run without result.metrics")?;
        let Json::Obj(pairs) = metrics else {
            return Err("result.metrics is not an object".to_string());
        };
        let values = pairs
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value").and_then(Json::as_f64)?)))
            .collect();
        out.insert((workload.to_string(), trace, seed), values);
    }
    Ok(out)
}

/// Renders the comparison; the bool is true when every row is `ok` and
/// every exact count repeats.
pub fn compare(a: &Runs, b: &Runs) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    let values = |runs: &Runs, workload: &str, name: &str| -> Vec<f64> {
        runs.iter()
            .filter(|((w, trace, _), _)| w == workload && !trace)
            .filter_map(|(_, m)| m.get(name).copied())
            .collect()
    };
    out.push_str(&format!(
        "{:<15} {:<30} {:>12} {:>12} {:>8} {:>7} {:>7}  {}\n",
        "workload", "metric", "median a", "median b", "worse%", "spread%", "bound%", "verdict"
    ));
    for workload in WORKLOADS {
        for decl in END_TO_END {
            let (va, vb) = (values(a, workload, decl.name), values(b, workload, decl.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let row = judge(decl, &va, &vb);
            all_ok &= row.verdict == Verdict::Ok;
            out.push_str(&format!(
                "{:<15} {:<30} {:>12.4} {:>12.4} {:>8.2} {:>7.2} {:>7.1}  {} (n={}/{})\n",
                workload,
                decl.name,
                row.median_a,
                row.median_b,
                row.worse_by * 100.0,
                row.spread * 100.0,
                decl.bound * 100.0,
                row.verdict.label(),
                va.len(),
                vb.len()
            ));
        }
    }
    for ((workload, trace, seed), ma) in a.iter().filter(|((_, trace, _), _)| *trace) {
        let Some(mb) = b.get(&(workload.clone(), *trace, *seed)) else { continue };
        let mut names: Vec<&str> = EXACT.to_vec();
        if workload == "serve_mixed" {
            // Only the open-loop workload sends a schedule-determined count.
            names.push("client.sent");
        }
        for name in names {
            let (x, y) =
                (ma.get(name).copied().unwrap_or(0.0), mb.get(name).copied().unwrap_or(0.0));
            if x != y {
                all_ok = false;
                out.push_str(&format!(
                    "{workload} seed {seed}: exact count {name} differs: {x} vs {y}\n"
                ));
            }
        }
    }
    out.push_str(if all_ok { "all ok\n" } else { "NOT all ok\n" });
    (out, all_ok)
}
