//! End-to-end tests of the `ihtl-trace` layer against the real engines.
//!
//! Everything lives in one test function: the trace enable switch and the
//! thread registry are process-global, so the disabled-tracing check is
//! only deterministic before any `enable()` in this process, and the
//! overhead A/B needs exclusive use of the machine's pool workers.

use ihtl_apps::engine::{build_engine, EngineKind};
use ihtl_apps::pagerank::pagerank;
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_graph::Graph;
use ihtl_serve::Json;
use std::time::Instant;

fn rmat_graph(scale: u32, target_edges: usize, seed: u64) -> Graph {
    let edges = rmat_edges(scale, target_edges, RmatParams::social(), seed);
    Graph::from_edges(1usize << scale, &edges)
}

fn cfg() -> ihtl_core::IhtlConfig {
    ihtl_core::IhtlConfig { cache_budget_bytes: 256, ..ihtl_core::IhtlConfig::default() }
}

fn names(capture: &ihtl_trace::Capture) -> Vec<&'static str> {
    capture
        .local
        .spans
        .iter()
        .chain(capture.remote.iter().flat_map(|t| t.spans.iter()))
        .map(|s| s.name)
        .collect()
}

#[test]
fn tracing_end_to_end() {
    let g = rmat_graph(10, 8_000, 7);

    // 1. Compiled in but idle: probes must record nothing at all.
    let m = ihtl_trace::mark();
    let mut engine = build_engine(EngineKind::Ihtl, &g, &cfg());
    let _ = pagerank(engine.as_mut(), 3);
    let idle = m.collect();
    assert!(
        idle.local.spans.is_empty() && idle.remote.is_empty(),
        "disabled tracing recorded spans: {idle:?}"
    );

    // 2. Enabled: the build and the kernel must produce the documented
    // span taxonomy, nested correctly.
    let on = ihtl_trace::enable();
    let m = ihtl_trace::mark();
    let mut engine = build_engine(EngineKind::Ihtl, &g, &cfg());
    let _ = pagerank(engine.as_mut(), 3);
    let cap = m.collect();
    let seen = names(&cap);
    for expected in ["ihtl_build", "relabel", "flipped_blocks", "ihtl_spmv", "fb_push", "fb_merge"]
    {
        assert!(seen.contains(&expected), "missing span '{expected}' in {seen:?}");
    }
    let build =
        cap.local.spans.iter().find(|s| s.name == "ihtl_build").expect("build span is local");
    let relabel = cap.local.spans.iter().find(|s| s.name == "relabel").expect("relabel span");
    assert_eq!(relabel.parent, build.id, "build phases must nest under ihtl_build");
    assert!(
        relabel.start_ns >= build.start_ns && relabel.end_ns <= build.end_ns,
        "phase window must sit inside the build window"
    );
    let spmv_spans: Vec<_> = cap.local.spans.iter().filter(|s| s.name == "ihtl_spmv").collect();
    assert_eq!(spmv_spans.len(), 3, "one kernel span per PageRank iteration");
    for phase in cap.local.spans.iter().filter(|s| s.name == "fb_push") {
        assert!(
            spmv_spans.iter().any(|k| phase.parent == k.id),
            "fb_push must be a child of some ihtl_spmv span"
        );
    }

    // 3. The Chrome exporter emits one JSON object Perfetto can load:
    // traceEvents with metadata + complete events, microsecond timestamps.
    let chrome = ihtl_trace::chrome::export(&ihtl_trace::snapshot());
    let parsed = Json::parse(&chrome).expect("chrome export must be valid JSON");
    assert_eq!(parsed.get("displayTimeUnit").and_then(Json::as_str), Some("ms"));
    let events = parsed.get("traceEvents").and_then(Json::as_arr).expect("traceEvents");
    assert!(
        events.iter().any(|e| e.get("ph").and_then(Json::as_str) == Some("M")),
        "expected thread_name metadata events"
    );
    let complete: Vec<_> =
        events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
    assert!(complete.len() >= seen.len(), "every recorded span must export");
    for e in complete.iter().take(16) {
        assert!(e.get("ts").and_then(Json::as_f64).is_some(), "X events carry ts: {e}");
        assert!(e.get("dur").and_then(Json::as_f64).is_some(), "X events carry dur: {e}");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "X events carry name: {e}");
    }
    drop(on);

    // 4. Overhead A/B on the live kernel. The real cost is measured over
    // many samples by the ledger's `trace.overhead_pct` (`bench/`); a unit
    // test gets one noisy sample on a loaded CI box, so it only guards
    // against catastrophic regressions (enabled tracing an order of
    // magnitude slower would indicate the hot path took a lock).
    let mut engine = build_engine(EngineKind::Ihtl, &g, &cfg());
    let time_iters = |e: &mut dyn ihtl_apps::engine::SpmvEngine| {
        let t = Instant::now();
        let _ = pagerank(e, 10);
        t.elapsed().as_secs_f64()
    };
    let _ = time_iters(engine.as_mut()); // warm-up
    let off = (0..3).map(|_| time_iters(engine.as_mut())).fold(f64::MAX, f64::min);
    let on = ihtl_trace::enable();
    let traced = (0..3).map(|_| time_iters(engine.as_mut())).fold(f64::MAX, f64::min);
    drop(on);
    assert!(
        traced < off * 3.0 + 0.05,
        "tracing overhead is pathological: {off:.4}s untraced vs {traced:.4}s traced"
    );
}
