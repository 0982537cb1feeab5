//! The metric vocabulary: every name the ledger may print, with its unit.
//!
//! `BENCHMARK.json` declares the same two lists; `tests/ledger.rs` fails if
//! the sets ever differ, so a metric cannot be added, dropped or renamed
//! silently. Every workload prints every name of the requested list: a
//! per-layer metric a workload does not measure prints 0 (see the
//! interaction table in `bench/README.md` for which workload measures what).

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Decl {
    Decl { name, unit, better, bound }
}

const fn lo(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: "lower", bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> Decl {
    Decl { name, unit, better: "higher", bound: 0.0 }
}

/// End-to-end metrics: measured with tracing off, on every workload, and
/// gated by a bound.
pub const END_TO_END: &[Decl] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.05),
    e2e("pagerank_ns_per_edge", "ns/edge", "lower", 0.10),
    e2e("sssp_ns_per_edge", "ns/edge", "lower", 0.10),
    e2e("pagerank_k8_ns_per_edge_query", "ns/edge/query", "lower", 0.10),
    e2e("cold_first_reply_s", "s", "lower", 0.15),
    e2e("reboot_first_reply_s", "s", "lower", 0.15),
    e2e("capacity_jobs_per_s", "1/s", "higher", 0.15),
];

/// Per-layer metrics: printed by the traced run, never gated.
pub const PER_LAYER: &[Decl] = &[
    // host: the ledger's own microkernels, context for every ratio.
    hi("host.nproc", "count"),
    hi("host.l2_bytes", "bytes"),
    hi("host.llc_bytes", "bytes"),
    lo("host.stream_ns_per_byte", "ns/B"),
    lo("host.gather_ns_per_access", "ns"),
    // gen / graph
    hi("gen.rmat_edges_per_s", "1/s"),
    lo("graph.from_edges_s", "s"),
    lo("graph.symmetrize_s", "s"),
    lo("graph.shard_extract_s", "s"),
    lo("graph.shard_edge_imbalance", "x"),
    // parallel
    lo("parallel.region_launch_us", "us"),
    hi("parallel.pull_speedup_2t", "x"),
    // traversal
    lo("traversal.pull_serial_ns_per_edge", "ns/edge"),
    lo("traversal.pull_ns_per_edge", "ns/edge"),
    lo("traversal.pull_min_ns_per_edge", "ns/edge"),
    lo("traversal.pull_k8_ns_per_edge_query", "ns/edge/query"),
    lo("traversal.pull_x_floor", "x"),
    lo("traversal.pb_build_s", "s"),
    lo("traversal.pb_ns_per_edge", "ns/edge"),
    lo("traversal.pb_k8_ns_per_edge_query", "ns/edge/query"),
    lo("traversal.pb_x_pull", "x"),
    lo("traversal.pb_bin_frac", "frac"),
    lo("traversal.pb_merge_frac", "frac"),
    // core
    lo("core.build_s", "s"),
    hi("core.build_edges_per_s", "1/s"),
    hi("core.n_blocks", "count"),
    hi("core.n_hubs", "count"),
    hi("core.fb_edge_frac", "frac"),
    lo("core.topology_bytes", "bytes"),
    lo("core.ihtl_ns_per_edge", "ns/edge"),
    lo("core.ihtl_min_ns_per_edge", "ns/edge"),
    lo("core.ihtl_k8_ns_per_edge_query", "ns/edge/query"),
    lo("core.ihtl_x_pull", "x"),
    lo("core.ihtl_x_floor", "x"),
    lo("core.fb_push_frac", "frac"),
    lo("core.fb_merge_frac", "frac"),
    lo("core.sparse_pull_frac", "frac"),
    lo("core.hybrid_ns_per_edge", "ns/edge"),
    lo("core.hybrid_x_pull", "x"),
    lo("core.break_even_sweeps", "count"),
    // apps
    lo("apps.driver_overhead_frac", "frac"),
    lo("apps.permute_frac", "frac"),
    lo("apps.sssp_rounds", "count"),
    hi("apps.k8_amortization_x", "x"),
    lo("apps.auto_gap_pct", "%"),
    // store
    lo("store.save_ihtl_s", "s"),
    lo("store.load_ihtl_s", "s"),
    hi("store.load_mb_per_s", "MiB/s"),
    lo("store.load_x_build", "x"),
    hi("store.hits", "count"),
    lo("store.misses", "count"),
    lo("store.writes", "count"),
    lo("store.quarantined", "count"),
    // serve
    lo("serve.ping_rtt_us", "us"),
    lo("serve.parse_us_per_req", "us"),
    hi("serve.parse_sweep_mb_per_s", "MiB/s"),
    lo("serve.encode_us_per_reply", "us"),
    lo("serve.wire_ms_p50", "ms"),
    lo("serve.wait_ms_p50_hi", "ms"),
    lo("serve.wait_ms_p95_hi", "ms"),
    lo("serve.compute_ms_p50", "ms"),
    hi("serve.cache_hit_frac", "frac"),
    lo("serve.cache_hit_rtt_us", "us"),
    hi("serve.batch_k_mean", "x"),
    hi("serve.batch_runs", "count"),
    lo("serve.sched_roundtrip_us", "us"),
    lo("serve.register_s", "s"),
    lo("serve.checkout_warm_us", "us"),
    lo("serve.checkout_store_ms", "ms"),
    lo("serve.checkout_build_ms", "ms"),
    lo("serve.evictions", "count"),
    lo("serve.resident_artifact_mb", "MiB"),
    lo("serve.rejected_overloaded", "count"),
    lo("serve.deadline_missed", "count"),
    lo("serve.auto_gap_pct", "%"),
    lo("serve.ns_per_edge_pull", "ns/edge"),
    lo("serve.ns_per_edge_ihtl", "ns/edge"),
    lo("serve.ns_per_edge_pb", "ns/edge"),
    // router
    lo("router.register_s", "s"),
    lo("router.round_ms_p50", "ms"),
    lo("router.sweep_line_bytes", "bytes"),
    lo("router.worker_sweep_rtt_ms", "ms"),
    lo("router.shard_kernel_ms", "ms"),
    lo("router.overhead_x", "x"),
    lo("router.x_single_node", "x"),
    lo("router.boundary_source_frac", "frac"),
    lo("router.unreachable_workers", "count"),
    // trace: the cost of looking
    lo("trace.overhead_pct", "%"),
    lo("trace.spans_per_job", "count"),
    hi("trace.coverage_frac", "frac"),
    // client: generator health
    hi("client.sent", "count"),
    hi("client.ok", "count"),
    lo("client.failed", "count"),
    hi("client.samples", "count"),
    lo("client.lateness_ms_p95", "ms"),
    lo("client.job_p99_ms_hi", "ms"),
    // Latency-distribution metrics the issue lists as end-to-end. They are
    // reported here, ungated: they exist on one or two workloads only (an
    // end-to-end metric must be measured, and non-zero, on all four) and
    // `failed_frac` / `slo_met_frac_hi` are constants on a healthy run.
    lo("failed_frac", "frac"),
    lo("job_p50_ms_lo", "ms"),
    lo("job_p50_ms_hi", "ms"),
    lo("job_p95_ms_hi", "ms"),
    hi("slo_met_frac_hi", "frac"),
    lo("job_p50_ms", "ms"),
    lo("job_p95_ms", "ms"),
];

/// The four workload names, in suite order.
pub const WORKLOADS: &[&str] = &["sweep_thrash", "sweep_resident", "serve_mixed", "router_shards"];

/// Values measured by one run, keyed by declared name.
#[derive(Default, Debug, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `value` under `name`, which must be declared in one of the
    /// two lists (a typo must not become a silently missing metric).
    pub fn set(&mut self, name: &str, value: f64) {
        let decl = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not declared in metrics.rs"));
        self.0.insert(decl.name, value);
    }

    /// Renders the `metrics` object for `list`. End-to-end metrics must all
    /// have been measured and be non-zero finite numbers; an unmeasured
    /// per-layer metric prints 0.
    pub fn render(&self, list: &[Decl], require_all: bool) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, d) in list.iter().enumerate() {
            let v = match self.0.get(d.name) {
                Some(&v) if v.is_finite() => v,
                Some(&v) => return Err(format!("metric '{}' is not finite ({v})", d.name)),
                None if require_all => return Err(format!("metric '{}' was not measured", d.name)),
                None => 0.0,
            };
            if require_all && v == 0.0 {
                return Err(format!("end-to-end metric '{}' measured exactly 0", d.name));
            }
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", d.name, d.unit));
        }
        out.push('}');
        Ok(out)
    }
}
