//! Serving counters for the `stats` endpoint.
//!
//! Everything is atomics — recorded from connection and executor threads
//! without taking the scheduler's lock. Latency is kept as a log2
//! histogram of end-to-end microseconds (admission to reply), and each
//! engine accumulates (seconds, edges, runs) so `stats` can report ns/edge
//! per traversal strategy — the paper's Figure 7 metric, measured live on
//! served traffic instead of a benchmark loop.

use std::sync::atomic::{AtomicU64, Ordering};

use ihtl_apps::EngineKind;

use crate::json::Json;
use crate::proto::engine_wire_name;

/// Number of log2 latency buckets: bucket `i` holds latencies in
/// `[2^i, 2^{i+1})` µs; the last bucket is open-ended (≥ ~34 s).
const LATENCY_BUCKETS: usize = 26;

/// Number of batch-occupancy buckets: bucket `k-1` counts coalesced SpMM
/// chunks that executed exactly `k` queries; the last bucket is open-ended.
const BATCH_BUCKETS: usize = 16;

/// One engine's accumulated serving work.
#[derive(Default)]
struct EngineAccum {
    /// Compute nanoseconds (scheduler-measured, excludes queueing).
    nanos: AtomicU64,
    /// Edges traversed (iterations × graph edges).
    edges: AtomicU64,
    runs: AtomicU64,
}

/// All serving counters. One instance per server, shared by `Arc`.
#[derive(Default)]
pub struct ServeStats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub failed: AtomicU64,
    pub rejected_overloaded: AtomicU64,
    pub deadline_missed: AtomicU64,
    /// Connections closed because the client sent nothing for the
    /// configured idle timeout.
    pub idle_disconnects: AtomicU64,
    latency: [AtomicU64; LATENCY_BUCKETS],
    engines: [EngineAccum; 4],
    /// Coalesced SpMM chunks executed (one count per edge sweep).
    batch_runs: AtomicU64,
    /// Queries served by those chunks (Σ occupancy).
    batch_jobs: AtomicU64,
    occupancy: [AtomicU64; BATCH_BUCKETS],
}

/// Adds `by` to a monitoring counter — the one way serve-tier and router
/// code counts an event.
pub fn bump(counter: &AtomicU64, by: u64) {
    // ORDERING: Relaxed — a monotonic counter read only by a stats
    // endpoint; no data is published through it.
    counter.fetch_add(by, Ordering::Relaxed);
}

/// The accumulator slot of `kind`: its index in `EngineKind::all()`.
fn engine_slot(kind: EngineKind) -> usize {
    match kind {
        EngineKind::Ihtl => 0,
        EngineKind::PullGraphGrind => 1,
        EngineKind::Pb => 2,
        EngineKind::Hybrid => 3,
    }
}

impl ServeStats {
    /// Records one end-to-end job latency.
    pub fn record_latency(&self, seconds: f64) {
        let micros = (seconds * 1e6).max(0.0) as u64;
        let bucket = (64 - micros.max(1).leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
        // ORDERING: Relaxed — all ServeStats cells are monotonic counters
        // read only by the stats endpoint; no data is published through
        // them, so no synchronization is needed (holds file-wide).
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Records compute work attributed to an engine: `seconds` of SpMV over
    /// `edges` traversed edges.
    pub fn record_engine(&self, kind: EngineKind, seconds: f64, edges: u64) {
        let a = &self.engines[engine_slot(kind)];
        // ORDERING: Relaxed — monotonic stats counters; see record_latency.
        a.nanos.fetch_add((seconds * 1e9) as u64, Ordering::Relaxed);
        a.edges.fetch_add(edges, Ordering::Relaxed);
        a.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one coalesced SpMM chunk that served `k` queries in a single
    /// edge sweep. Pair with [`ServeStats::record_engine`] over the chunk's
    /// total work so per-engine ns/edge stays amortized per query.
    pub fn record_batch(&self, k: usize) {
        // ORDERING: Relaxed — monotonic stats counters; see record_latency.
        self.batch_runs.fetch_add(1, Ordering::Relaxed);
        self.batch_jobs.fetch_add(k as u64, Ordering::Relaxed);
        let bucket = k.clamp(1, BATCH_BUCKETS) - 1;
        // ORDERING: Relaxed — stats counter; see record_latency.
        self.occupancy[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Renders everything as the `stats` reply body. `queue_depth` and the
    /// cache numbers come from the scheduler and cache at call time.
    pub fn to_json(&self, queue_depth: usize, cache: (u64, u64, usize)) -> Json {
        // ORDERING: Relaxed — stats reads; a momentarily torn view across
        // counters is fine for a monitoring endpoint.
        let load = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
        let (cache_hits, cache_misses, cache_len) = cache;
        let mut latency = Vec::new();
        for (i, b) in self.latency.iter().enumerate() {
            // ORDERING: Relaxed — stats read; see above.
            let count = b.load(Ordering::Relaxed);
            if count > 0 {
                latency.push(Json::obj([
                    ("le_us", Json::from(1u64 << (i + 1))),
                    ("count", Json::from(count)),
                ]));
            }
        }
        let mut engines = Vec::new();
        for kind in EngineKind::all() {
            let a = &self.engines[engine_slot(kind)];
            // ORDERING: Relaxed — stats reads; see above.
            let runs = a.runs.load(Ordering::Relaxed);
            if runs == 0 {
                continue;
            }
            // ORDERING: Relaxed — stats reads; see above.
            let nanos = a.nanos.load(Ordering::Relaxed);
            let edges = a.edges.load(Ordering::Relaxed);
            let ns_per_edge = if edges > 0 { nanos as f64 / edges as f64 } else { f64::NAN };
            engines.push(Json::obj([
                ("engine", Json::from(engine_wire_name(kind))),
                ("runs", Json::from(runs)),
                ("edges", Json::from(edges)),
                ("ns_per_edge", Json::Num(ns_per_edge)),
            ]));
        }
        let mut occupancy = Vec::new();
        for (i, b) in self.occupancy.iter().enumerate() {
            // ORDERING: Relaxed — stats read; see above.
            let count = b.load(Ordering::Relaxed);
            if count > 0 {
                occupancy.push(Json::obj([
                    ("k", Json::from(i as u64 + 1)),
                    ("count", Json::from(count)),
                ]));
            }
        }
        Json::obj([
            ("submitted", load(&self.submitted)),
            ("completed", load(&self.completed)),
            ("failed", load(&self.failed)),
            ("rejected_overloaded", load(&self.rejected_overloaded)),
            ("deadline_missed", load(&self.deadline_missed)),
            ("idle_disconnects", load(&self.idle_disconnects)),
            ("queue_depth", Json::from(queue_depth)),
            ("cache_hits", Json::from(cache_hits)),
            ("cache_misses", Json::from(cache_misses)),
            ("cache_entries", Json::from(cache_len)),
            ("latency_us_histogram", Json::Arr(latency)),
            ("engines", Json::Arr(engines)),
            ("batch_runs", load(&self.batch_runs)),
            ("batch_jobs", load(&self.batch_jobs)),
            ("batch_occupancy", Json::Arr(occupancy)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log2_micros() {
        let s = ServeStats::default();
        s.record_latency(0.000_003); // 3 µs → bucket [2,4)
        s.record_latency(0.001); // 1000 µs → bucket [512,1024)... le 1024
        s.record_latency(10_000.0); // clamps into the last bucket
        let j = s.to_json(0, (0, 0, 0));
        let hist = j.get("latency_us_histogram").unwrap().as_arr().unwrap();
        assert_eq!(hist.len(), 3);
        assert_eq!(hist[0].get("le_us").unwrap().as_u64(), Some(4));
        assert_eq!(hist[1].get("le_us").unwrap().as_u64(), Some(1024));
    }

    #[test]
    fn engine_ns_per_edge() {
        let s = ServeStats::default();
        s.record_engine(EngineKind::Ihtl, 1.0, 500_000_000);
        s.record_engine(EngineKind::Ihtl, 1.0, 500_000_000);
        let j = s.to_json(2, (1, 2, 3));
        let engines = j.get("engines").unwrap().as_arr().unwrap();
        assert_eq!(engines.len(), 1);
        let e = &engines[0];
        assert_eq!(e.get("engine").unwrap().as_str(), Some("ihtl"));
        assert_eq!(e.get("runs").unwrap().as_u64(), Some(2));
        let nspe = e.get("ns_per_edge").unwrap().as_f64().unwrap();
        assert!((nspe - 2.0).abs() < 1e-9, "{nspe}");
        assert_eq!(j.get("queue_depth").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("cache_hits").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn every_engine_kind_has_a_distinct_slot() {
        // Regression guard: the slots must follow `EngineKind::all()`
        // one to one (two kinds sharing a slot would merge their numbers).
        let s = ServeStats::default();
        for (i, &kind) in EngineKind::all().iter().enumerate() {
            assert_eq!(engine_slot(kind), i);
            s.record_engine(kind, 0.001, 1_000);
        }
        let j = s.to_json(0, (0, 0, 0));
        let engines = j.get("engines").unwrap().as_arr().unwrap();
        assert_eq!(engines.len(), EngineKind::all().len());
    }

    #[test]
    fn batch_occupancy_histogram() {
        let s = ServeStats::default();
        s.record_batch(4);
        s.record_batch(4);
        s.record_batch(1);
        s.record_batch(999); // clamps into the open-ended last bucket
        let j = s.to_json(0, (0, 0, 0));
        assert_eq!(j.get("batch_runs").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("batch_jobs").unwrap().as_u64(), Some(4 + 4 + 1 + 999));
        let occ = j.get("batch_occupancy").unwrap().as_arr().unwrap();
        assert_eq!(occ.len(), 3);
        assert_eq!(occ[0].get("k").unwrap().as_u64(), Some(1));
        assert_eq!(occ[0].get("count").unwrap().as_u64(), Some(1));
        assert_eq!(occ[1].get("k").unwrap().as_u64(), Some(4));
        assert_eq!(occ[1].get("count").unwrap().as_u64(), Some(2));
        assert_eq!(occ[2].get("k").unwrap().as_u64(), Some(16));
    }

    #[test]
    fn zero_latency_goes_to_first_bucket() {
        let s = ServeStats::default();
        s.record_latency(0.0);
        let j = s.to_json(0, (0, 0, 0));
        let hist = j.get("latency_us_histogram").unwrap().as_arr().unwrap();
        assert_eq!(hist.len(), 1);
        assert_eq!(hist[0].get("le_us").unwrap().as_u64(), Some(2));
    }
}
