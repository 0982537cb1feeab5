//! Offline validation of the `auto` engine's scoring rule (DESIGN.md §11).
//!
//! The scoring rule in `ihtl_graph::stats` predicts the cheapest engine
//! from structural features alone. The cache simulator replays the exact
//! access stream of each engine, so every *term* of the cost model is
//! anchored here to a replayed phenomenon:
//!
//! * the pull term (`miss = 1 - resident`) — pull's random source reads
//!   miss when the data outgrows the cache and hit when it fits;
//! * the iHTL term (`(1-h)·miss + h·…`) — the flipped blocks really do
//!   keep hub updates cache-resident on skewed graphs;
//! * the PB term (flat `PB_STREAM_COST`) — the binned sweep's random
//!   stream stays resident even with no skew at all, where pull thrashes.
//!
//! Full cross-engine cost rankings are graded only between pull and PB,
//! summarising a replay as
//!
//! `random_misses + STREAM_MISS_COST × stream_misses + ACCESS_COST × accesses`
//!
//! (streamed, prefetchable misses cost about a third of a random miss; a
//! cache hit ~1/50th). The simulator is deliberately *not* trusted to rank
//! the blocked engines against PB: it has no prefetcher or bandwidth
//! model, so re-reading the whole source array once per flipped block is
//! nearly free in replay — on uniform graphs the §3.3 acceptance rule
//! degenerates into blocking ~80% of all vertices across a dozen blocks,
//! which the replay scores as a win while real hardware pays one full
//! memory sweep per block. The scoring rule's skew gate exists precisely
//! to refuse that configuration; the authoritative cross-engine ranking
//! is measured by the ledger (`bench/`): `apps.auto_gap_pct` and
//! `serve.auto_gap_pct` report `auto` against the best fixed engine, and
//! `traversal.pb_x_pull` / `core.hybrid_x_pull` report the binned engines
//! against pull. Those numbers are reported, not gated.

use ihtl_cachesim::{replay_ihtl, replay_pb, replay_pull, CacheConfig, ReplayMode, ReplayReport};
use ihtl_core::{IhtlConfig, IhtlGraph};
use ihtl_gen::{er, weblike};
use ihtl_graph::stats::{engine_costs, engine_features, pick_engine, EnginePick, SKEW_MIN};
use ihtl_graph::Graph;

/// Relative cost of one access vs one random L3 miss.
const ACCESS_COST: f64 = 0.02;
/// Relative cost of one sequential (prefetchable) L3 miss.
const STREAM_MISS_COST: f64 = 1.0 / 3.0;

/// Vertex-data bytes (IhtlConfig default) and the default simulated LLC.
const VDB: usize = 8;

fn replay_cost(full: &ReplayReport, random: &ReplayReport) -> f64 {
    let stream_misses = full.counters.l3_misses.saturating_sub(random.counters.l3_misses);
    random.counters.l3_misses as f64
        + STREAM_MISS_COST * stream_misses as f64
        + ACCESS_COST * full.counters.accesses as f64
}

/// A flat er graph twice the simulated LLC (512 KiB of vertex data vs
/// 256 KiB of L3) and 16× the engine budget.
fn flat_thrashing() -> (Graph, usize) {
    let n = 1 << 16;
    let edges = er::er_edges(n, 8 * n, 0xA0704);
    (Graph::from_edges(n, &edges), n * VDB / 16)
}

/// A hub-concentrated web graph of the same thrashing size.
fn skewed_thrashing() -> (Graph, usize) {
    let n = 1 << 16;
    let edges = weblike::web_edges(n, 6 * n, &weblike::WebParams::concentrated(), 0xA0703);
    (Graph::from_edges(n, &edges), 8 << 10)
}

#[test]
fn pull_term_matches_replay_on_resident_graph() {
    // 16 KiB of vertex data in a 256 KiB LLC: the rule scores pull at ~0
    // misses and picks it; the replay sees compulsory misses only.
    let edges = er::er_edges(2_000, 12_000, 0xA0701);
    let g = Graph::from_edges(2_000, &edges);
    let f = engine_features(&g, 1 << 20, VDB);
    assert!(f.data_cache_ratio <= 1.0);
    assert_eq!(pick_engine(&f, 1), EnginePick::Pull);
    let rep = replay_pull(&g, &CacheConfig::default(), ReplayMode::RandomOnly);
    assert!(rep.profile.overall_miss_rate() < 0.05);
}

#[test]
fn pull_term_matches_replay_on_thrashing_graph() {
    // Data past the LLC: the rule's miss term goes high and the replayed
    // pull miss rate follows.
    let (g, budget) = flat_thrashing();
    let f = engine_features(&g, budget, VDB);
    let [(_, pull_cost), ..] = engine_costs(&f, 1);
    assert!(pull_cost > 0.5);
    let rep = replay_pull(&g, &CacheConfig::default(), ReplayMode::RandomOnly);
    assert!(rep.profile.overall_miss_rate() > 0.4);
}

#[test]
fn hub_term_matches_replay_on_skewed_graph() {
    // On a hub-concentrated graph the rule scores iHTL under pull, and the
    // replay confirms why: the flipped blocks soak up the hub updates, so
    // iHTL's random miss rate collapses versus pull's.
    let (g, budget) = skewed_thrashing();
    let f = engine_features(&g, budget, VDB);
    assert!(f.degree_skew >= SKEW_MIN);
    let [(_, pull_cost), (_, ihtl_cost), ..] = engine_costs(&f, 1);
    assert!(ihtl_cost < pull_cost);
    assert_ne!(pick_engine(&f, 1), EnginePick::Pull);

    let cfg = CacheConfig::default();
    let icfg = IhtlConfig { cache_budget_bytes: budget, ..IhtlConfig::default() };
    let ih = IhtlGraph::build(&g, &icfg);
    let pull = replay_pull(&g, &cfg, ReplayMode::RandomOnly);
    let ihtl = replay_ihtl(&ih, &g, &cfg, ReplayMode::RandomOnly);
    assert!(ihtl.profile.overall_miss_rate() < pull.profile.overall_miss_rate() / 3.0);
}

#[test]
fn pb_term_matches_replay_on_flat_graph() {
    // No skew for a hub engine to exploit, yet PB's binned stream still
    // stays resident — the flat PB_STREAM_COST needs no structural help.
    let (g, budget) = flat_thrashing();
    let f = engine_features(&g, budget, VDB);
    assert!(f.degree_skew < SKEW_MIN, "er graph must stay below the skew gate");
    let [(_, pull_cost), _, (_, pb_cost), _] = engine_costs(&f, 1);
    assert!(pb_cost < pull_cost);

    let cfg = CacheConfig::default();
    let pull = replay_pull(&g, &cfg, ReplayMode::RandomOnly);
    let pb = replay_pb(&g, budget / VDB, &cfg, ReplayMode::RandomOnly);
    assert!(pb.profile.overall_miss_rate() < pull.profile.overall_miss_rate() / 3.0);
}

#[test]
fn pull_vs_pb_ranking_agrees_with_replay() {
    // The two ends the simulator *is* trusted on: pull wins outright when
    // the data is resident (PB only adds traffic), PB wins outright when a
    // flat graph thrashes. The rule must land on the replay's side of both.
    let cfg = CacheConfig::default();

    let edges = er::er_edges(2_000, 12_000, 0xA0701);
    let small = Graph::from_edges(2_000, &edges);
    let pull_cost = replay_cost(
        &replay_pull(&small, &cfg, ReplayMode::Full),
        &replay_pull(&small, &cfg, ReplayMode::RandomOnly),
    );
    let pb_cost = replay_cost(
        &replay_pb(&small, 1 << 17, &cfg, ReplayMode::Full),
        &replay_pb(&small, 1 << 17, &cfg, ReplayMode::RandomOnly),
    );
    assert!(pull_cost < pb_cost, "resident: replay must favour pull ({pull_cost} vs {pb_cost})");
    assert_eq!(pick_engine(&engine_features(&small, 1 << 20, VDB), 1), EnginePick::Pull);

    let (big, budget) = flat_thrashing();
    let pull_cost = replay_cost(
        &replay_pull(&big, &cfg, ReplayMode::Full),
        &replay_pull(&big, &cfg, ReplayMode::RandomOnly),
    );
    let pb_cost = replay_cost(
        &replay_pb(&big, budget / VDB, &cfg, ReplayMode::Full),
        &replay_pb(&big, budget / VDB, &cfg, ReplayMode::RandomOnly),
    );
    assert!(
        pb_cost * 1.25 < pull_cost,
        "thrashing: replay must favour pb decisively ({pb_cost} vs {pull_cost})"
    );
    assert_eq!(pick_engine(&engine_features(&big, budget, VDB), 1), EnginePick::Pb);
}
