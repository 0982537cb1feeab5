//! Pins the drivers' arithmetic: the passes around each sweep may be
//! reorganised (row-wise, fused, engine-order starts, one-pass output) but
//! every result bit must stay where it was.
//!
//! Hermetic and seeded: one R-MAT from `ihtl-gen`, `Pcg64` streams for the
//! random vectors. The graph is large enough (8192 vertices) that the
//! row-wise passes split into several chunks, so the pooled path runs
//! whenever more than one thread is configured.

use ihtl_apps::components::{propagate_components, symmetrize};
use ihtl_apps::engine::{build_engine, EngineKind};
use ihtl_apps::spmv::spmv_iterations;
use ihtl_apps::sssp::sssp;
use ihtl_apps::{pagerank, pagerank_multi, pagerank_seeded, spmv_sum_multi, sssp_multi};
use ihtl_core::{IhtlConfig, IhtlGraph};
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_gen::Pcg64;
use ihtl_graph::io::Fnv1a;
use ihtl_graph::Graph;

const SCALE: u32 = 13;

fn rmat() -> Graph {
    let edges = rmat_edges(SCALE, 40_000, RmatParams::social(), 0x1d_2026);
    Graph::from_edges(1 << SCALE, &edges)
}

/// Small cache budget: several flipped blocks and a real hub/sparse split.
fn cfg() -> IhtlConfig {
    IhtlConfig { cache_budget_bytes: 4096, ..IhtlConfig::default() }
}

/// The in-hub with the most in-edges (lowest ID on ties).
fn top_hub(g: &Graph) -> u32 {
    (0..g.n_vertices() as u32).max_by_key(|&v| (g.in_degree(v), std::cmp::Reverse(v))).unwrap()
}

/// A vertex with in-edges but no out-edges: its rank never leaves it.
fn dangling(g: &Graph) -> u32 {
    (0..g.n_vertices() as u32).find(|&v| g.out_degree(v) == 0 && g.in_degree(v) > 0).unwrap()
}

/// The vertex with the most out-edges: an SSSP source that reaches far.
fn top_source(g: &Graph) -> u32 {
    (0..g.n_vertices() as u32).max_by_key(|&v| (g.out_degree(v), std::cmp::Reverse(v))).unwrap()
}

fn fnv(values: &[f64]) -> u64 {
    let mut h = Fnv1a::new();
    for v in values {
        h.write(&v.to_bits().to_le_bytes());
    }
    h.finish()
}

fn assert_bitwise(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: index {i}: {x} vs {y}");
    }
}

// ---------------------------------------------------------------------------
// (a) min-plus: bumping after the min equals the min of the bumped values
// ---------------------------------------------------------------------------

/// Random f64s from the ranges a distance vector can hold and the ones
/// where `+ 1.0` rounds: small integers, values around 2^53 (where the ulp
/// reaches 2 and ties appear), subnormals, and `+∞`.
fn awkward_f64(rng: &mut Pcg64) -> f64 {
    match rng.gen_index(6) {
        0 => f64::INFINITY,
        1 => f64::from_bits(rng.gen_index(1 << 20) as u64), // subnormals and +0
        2 => (1u64 << 53) as f64 + (rng.gen_index(64) as f64 - 32.0),
        3 => f64::from_bits(((1u64 << 53) as f64).to_bits() - 16 + rng.gen_index(32) as u64),
        4 => rng.gen_index(300) as f64,
        _ => rng.next_f64() * 1e6,
    }
}

#[test]
fn bump_after_min_equals_min_of_bumped() {
    let mut rng = Pcg64::seed_from_u64(0xa1_2026);
    for case in 0..20_000 {
        let len = rng.gen_index(9); // 0 = a vertex without in-neighbours
        let xs: Vec<f64> = (0..len).map(|_| awkward_f64(&mut rng)).collect();
        // The Min monoid: identity +∞, combine `f64::min`.
        let min = |it: &mut dyn Iterator<Item = f64>| it.fold(f64::INFINITY, f64::min);
        let old = min(&mut xs.iter().map(|&d| d + 1.0));
        let new = min(&mut xs.iter().copied()) + 1.0;
        assert_eq!(old.to_bits(), new.to_bits(), "case {case}: {xs:?}");
    }
}

// ---------------------------------------------------------------------------
// (b) K-wide drivers equal their solo counterparts, bitwise
// ---------------------------------------------------------------------------

const WIDTHS: [usize; 6] = [1, 2, 3, 7, 8, 9];

/// Column parameters cycling through the awkward cases: the top hub, a
/// dangling vertex, the uniform query, the hub again (a duplicate), then
/// ordinary vertices.
fn seeds(g: &Graph, k: usize) -> Vec<Option<u32>> {
    let (hub, sink) = (top_hub(g), dangling(g));
    (0..k)
        .map(|j| match j % 5 {
            0 => Some(hub),
            1 => Some(sink),
            2 => None,
            3 => Some(hub),
            _ => Some((j as u32 * 977) % g.n_vertices() as u32),
        })
        .collect()
}

#[test]
fn pagerank_multi_equals_solo_on_every_engine() {
    let g = rmat();
    for kind in EngineKind::all() {
        let mut e = build_engine(kind, &g, &cfg());
        for iters in [0usize, 1, 5] {
            for k in WIDTHS {
                let seeds = seeds(&g, k);
                let cols = pagerank_multi(e.as_mut(), iters, &seeds);
                assert_eq!(cols.len(), k);
                for (j, seed) in seeds.iter().enumerate() {
                    let solo = match seed {
                        None => pagerank(e.as_mut(), iters).ranks,
                        Some(_) => pagerank_seeded(e.as_mut(), iters, *seed),
                    };
                    let label = format!("{kind:?} iters={iters} k={k} col {j} seed {seed:?}");
                    assert_bitwise(&cols[j], &solo, &label);
                }
            }
        }
    }
}

#[test]
fn sssp_multi_equals_solo_on_every_engine() {
    let g = rmat();
    for kind in EngineKind::all() {
        let mut e = build_engine(kind, &g, &cfg());
        for max_rounds in [0usize, 1, 5, 64] {
            for k in WIDTHS {
                let mut sources: Vec<u32> =
                    seeds(&g, k).iter().map(|s| s.unwrap_or(top_source(&g))).collect();
                sources[0] = top_source(&g);
                let cols = sssp_multi(e.as_mut(), &sources, max_rounds);
                for (j, &s) in sources.iter().enumerate() {
                    let solo = sssp(e.as_mut(), s, max_rounds);
                    let label = format!("{kind:?} max_rounds={max_rounds} k={k} col {j} src {s}");
                    assert_bitwise(&cols[j].0, &solo.dist, &label);
                    assert_eq!(cols[j].1, solo.rounds, "rounds: {label}");
                }
            }
        }
    }
}

#[test]
fn spmv_sum_multi_equals_solo_on_every_engine() {
    // Ones and indicators stay integer-valued, so Add is exact on every
    // engine whatever its combine order.
    let g = rmat();
    let n = g.n_vertices();
    for kind in EngineKind::all() {
        let mut e = build_engine(kind, &g, &cfg());
        for iters in [0usize, 1, 5] {
            for k in WIDTHS {
                let sources = seeds(&g, k);
                let cols = spmv_sum_multi(e.as_mut(), iters, &sources);
                for (j, src) in sources.iter().enumerate() {
                    let mut x0 = vec![if src.is_none() { 1.0 } else { 0.0 }; n];
                    if let Some(s) = *src {
                        x0[s as usize] = 1.0;
                    }
                    let solo = spmv_iterations(e.as_mut(), &x0, iters);
                    let label = format!("{kind:?} iters={iters} k={k} col {j} src {src:?}");
                    assert_bitwise(&cols[j], &solo.values, &label);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// (c) golden checksums, captured from the commit before the rewrite
// ---------------------------------------------------------------------------

/// FNV-1a (the wire checksum) of every solo driver's result on the fixture
/// graph. `pull_grind` and `pb` fold in CSC order at any pool width, so all
/// their results are pinned; `ihtl` and `hybrid` re-associate sums by width,
/// so only their width-independent results are (min-plus, and Add over
/// integer values).
const GOLDEN: &[(&str, u64)] = &[
    ("pagerank/pull_grind", 0xaab3895a0d5eb5f1),
    ("pagerank_seeded/pull_grind", 0x34ce0a655307e696),
    ("spmv_renorm/pull_grind", 0x72a9267581cc5230),
    ("pagerank/pb", 0xaab3895a0d5eb5f1),
    ("pagerank_seeded/pb", 0x34ce0a655307e696),
    ("spmv_renorm/pb", 0x72a9267581cc5230),
    ("sssp/pull_grind", 0x035bf445306f7a63),
    ("spmv/pull_grind", 0xcafc60ae2e0bf3b2),
    ("cc/pull_grind", 0x3fe3124f6bed38e5),
    ("sssp/pb", 0x035bf445306f7a63),
    ("spmv/pb", 0xcafc60ae2e0bf3b2),
    ("cc/pb", 0x3fe3124f6bed38e5),
    ("sssp/ihtl", 0x035bf445306f7a63),
    ("spmv/ihtl", 0xcafc60ae2e0bf3b2),
    ("cc/ihtl", 0x3fe3124f6bed38e5),
    ("sssp/hybrid", 0x035bf445306f7a63),
    ("spmv/hybrid", 0xcafc60ae2e0bf3b2),
    ("cc/hybrid", 0x3fe3124f6bed38e5),
];

/// Fold every row in CSC order at any pool width.
const ORDER_PRESERVING: [(&str, EngineKind); 2] =
    [("pull_grind", EngineKind::PullGraphGrind), ("pb", EngineKind::Pb)];
/// Re-associate sums by pool width.
const RELABELLING: [(&str, EngineKind); 2] =
    [("ihtl", EngineKind::Ihtl), ("hybrid", EngineKind::Hybrid)];

#[test]
fn solo_drivers_match_the_checksums_of_the_previous_commit() {
    let g = rmat();
    let sym = symmetrize(&g);
    let n = g.n_vertices();
    let (hub, src) = (top_hub(&g), top_source(&g));
    let mut got: Vec<(String, u64)> = Vec::new();
    // Non-integer sums: order-preserving engines only.
    for (name, kind) in ORDER_PRESERVING {
        let mut e = build_engine(kind, &g, &cfg());
        got.push((format!("pagerank/{name}"), fnv(&pagerank(e.as_mut(), 10).ranks)));
        got.push((
            format!("pagerank_seeded/{name}"),
            fnv(&pagerank_seeded(e.as_mut(), 10, Some(hub))),
        ));
        // Starts at 1e99 per vertex, so the 1e100 renormalisation fires.
        let big = spmv_iterations(e.as_mut(), &vec![1e99; n], 6);
        got.push((format!("spmv_renorm/{name}"), fnv(&big.values)));
    }
    for (name, kind) in ORDER_PRESERVING.into_iter().chain(RELABELLING) {
        let mut e = build_engine(kind, &g, &cfg());
        let run = sssp(e.as_mut(), src, 64);
        got.push((format!("sssp/{name}"), fnv(&run.dist) ^ run.rounds as u64));
        let ones = spmv_iterations(e.as_mut(), &vec![1.0; n], 4);
        got.push((format!("spmv/{name}"), fnv(&ones.values)));
        let mut e = build_engine(kind, &sym, &cfg());
        let cc = propagate_components(e.as_mut(), 64);
        let labels: Vec<f64> = cc.labels.iter().map(|&l| l as f64).collect();
        got.push((format!("cc/{name}"), fnv(&labels) ^ cc.rounds as u64));
    }
    let table: String = got.iter().map(|(k, v)| format!("    (\"{k}\", {v:#018x}),\n")).collect();
    assert_eq!(got.len(), GOLDEN.len(), "golden table out of date; computed:\n{table}");
    for ((key, sum), (gkey, gsum)) in got.iter().zip(GOLDEN) {
        assert_eq!(key, gkey, "golden table order; computed:\n{table}");
        assert_eq!(sum, gsum, "{key}: arithmetic changed; computed:\n{table}");
    }
}

// ---------------------------------------------------------------------------
// (d) the parallel gather permutations equal the serial scatter
// ---------------------------------------------------------------------------

#[test]
fn gather_permutations_equal_the_serial_scatter() {
    let ih = IhtlGraph::build(&rmat(), &cfg());
    let n = ih.n_vertices();
    let new_to_old = ih.new_to_old();
    let mut rng = Pcg64::seed_from_u64(0xd4_2026);
    for k in [1usize, 3, 8] {
        let v: Vec<f64> = (0..n * k).map(|_| awkward_f64(&mut rng)).collect();
        // The scatter the gathers replace: row `new` goes to row `old`.
        let mut to_old = vec![f64::NAN; n * k];
        let mut to_new = vec![f64::NAN; n * k];
        for (new, &old) in new_to_old.iter().enumerate() {
            let (new, old) = (new * k, old as usize * k);
            to_old[old..old + k].copy_from_slice(&v[new..new + k]);
            to_new[new..new + k].copy_from_slice(&v[old..old + k]);
        }
        assert_bitwise(&ih.to_old_order_multi(&v, k), &to_old, &format!("to_old k={k}"));
        assert_bitwise(&ih.to_new_order_multi(&v, k), &to_new, &format!("to_new k={k}"));
        if k == 1 {
            assert_bitwise(&ih.to_old_order(&v), &to_old, "to_old solo");
            assert_bitwise(&ih.to_new_order(&v), &to_new, "to_new solo");
        }
    }
}
