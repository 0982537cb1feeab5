//! Cross-engine agreement: every served engine — GraphGrind pull, iHTL, PB
//! and the hybrid — must compute identical analytics on arbitrary graphs.
//! Figure 7's other framework baselines are checked against pull in
//! `ihtl-bench` (`baselines.rs`).

mod common;

use common::{assert_close, hubby_graph, random_graph, run_cases};
use ihtl_apps::components::{propagate_components, symmetrize};
use ihtl_apps::engine::{build_engine, EngineKind};
use ihtl_apps::pagerank::pagerank;
use ihtl_apps::sssp::sssp;
use ihtl_core::IhtlConfig;
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_gen::{er, weblike};
use ihtl_graph::Graph;

const CASES: usize = 32;

fn cfg() -> IhtlConfig {
    IhtlConfig { cache_budget_bytes: 24, ..IhtlConfig::default() }
}

#[test]
fn spmv_add_agrees() {
    run_cases(CASES, 0x59A11, |rng, _case| {
        let g = random_graph(rng, 50, 250);
        let n = g.n_vertices();
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64 + 0.5).collect();
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let xe = e.from_original_order(&x);
            let mut y = vec![0.0; n];
            e.spmv_add(&xe, &mut y);
            let yo = e.to_original_order(&y);
            match &reference {
                None => reference = Some(yo),
                Some(r) => assert_close(r, &yo, 1e-9, e.label()),
            }
        }
    });
}

#[test]
fn pagerank_agrees() {
    run_cases(CASES, 0x3A6E, |rng, _case| {
        let g = hubby_graph(rng);
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let run = pagerank(e.as_mut(), 8);
            match &reference {
                None => reference = Some(run.ranks),
                Some(r) => assert_close(r, &run.ranks, 1e-10, e.label()),
            }
        }
    });
}

#[test]
fn sssp_agrees() {
    run_cases(CASES, 0x555A, |rng, case| {
        let g = random_graph(rng, 40, 200);
        let n = g.n_vertices() as u32;
        let src = rng.gen_index(n as usize) as u32;
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let run = sssp(e.as_mut(), src, 100);
            match &reference {
                None => reference = Some(run.dist),
                Some(r) => {
                    assert_eq!(r, &run.dist, "case {case}: {}", e.label());
                }
            }
        }
    });
}

/// The three generator families at small scale, seeded.
fn generated_graphs() -> Vec<(&'static str, Graph)> {
    let rmat = rmat_edges(10, 6_000, RmatParams::social(), 0xE16);
    let erg = er::er_edges(900, 5_400, 0xE17);
    let web = weblike::web_edges(2_000, 10_000, &weblike::WebParams::concentrated(), 0xE18);
    vec![
        ("rmat", Graph::from_edges(1usize << 10, &rmat)),
        ("er", Graph::from_edges(900, &erg)),
        ("weblike", Graph::from_edges(2_000, &web)),
    ]
}

fn assert_bitwise(a: &[f64], b: &[f64], label: &str) {
    assert_eq!(a.len(), b.len(), "{label}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: vertex {i}: {x} vs {y}");
    }
}

/// The PB engine bins each edge into a fixed slot and replays every
/// destination's contributions in ascending-source order — exactly pull's
/// reduction order — so it is bitwise-identical to pull for *arbitrary*
/// (non-integer) float values, a strictly stronger claim than the
/// tolerance-based agreement above.
#[test]
fn pb_is_bitwise_pull_on_generated_graphs() {
    for (name, g) in generated_graphs() {
        let n = g.n_vertices();
        let x: Vec<f64> = (0..n).map(|i| 0.1 + ((i * 31) % 97) as f64 / 7.0).collect();
        let spmv = |kind: EngineKind| {
            let mut e = build_engine(kind, &g, &cfg());
            let xe = e.from_original_order(&x);
            let mut y = vec![0.0; n];
            e.spmv_add(&xe, &mut y);
            e.to_original_order(&y)
        };
        assert_bitwise(
            &spmv(EngineKind::PullGraphGrind),
            &spmv(EngineKind::Pb),
            &format!("{name}: pb spmv"),
        );
        let ranks = |kind: EngineKind| {
            let mut e = build_engine(kind, &g, &cfg());
            pagerank(e.as_mut(), 10).ranks
        };
        assert_bitwise(
            &ranks(EngineKind::PullGraphGrind),
            &ranks(EngineKind::Pb),
            &format!("{name}: pb pagerank"),
        );
    }
}

/// The hybrid engine reduces hub contributions in *relabeled* source order
/// (the flipped blocks' compacted rows), so it carries the iHTL
/// determinism doctrine: bitwise-identical to pull wherever the monoid is
/// exact (integer-valued sums here; `min` is covered by `sssp_agrees`),
/// tolerance-close plus bitwise-*reproducible* for non-integer floats.
#[test]
fn hybrid_is_bitwise_pull_on_exact_sums_and_reproducible_on_floats() {
    for (name, g) in generated_graphs() {
        let n = g.n_vertices();
        // Integer-valued input: f64 addition is exact, so any reduction
        // order must land on identical bits.
        let x_int: Vec<f64> = (0..n).map(|i| ((i * 13) % 31) as f64).collect();
        let spmv = |kind: EngineKind| {
            let mut e = build_engine(kind, &g, &cfg());
            let xe = e.from_original_order(&x_int);
            let mut y = vec![0.0; n];
            e.spmv_add(&xe, &mut y);
            e.to_original_order(&y)
        };
        assert_bitwise(
            &spmv(EngineKind::PullGraphGrind),
            &spmv(EngineKind::Hybrid),
            &format!("{name}: hybrid integer spmv"),
        );
        // Non-integer floats: close to pull, and bitwise-stable across
        // repeat runs (the binned merge is schedule-independent).
        let ranks = |kind: EngineKind| {
            let mut e = build_engine(kind, &g, &cfg());
            pagerank(e.as_mut(), 10).ranks
        };
        let pull = ranks(EngineKind::PullGraphGrind);
        let a = ranks(EngineKind::Hybrid);
        let b = ranks(EngineKind::Hybrid);
        assert_close(&pull, &a, 1e-10, &format!("{name}: hybrid pagerank"));
        assert_bitwise(&a, &b, &format!("{name}: hybrid pagerank reproducibility"));
    }
}

#[test]
fn components_agree_and_are_correct() {
    run_cases(CASES, 0xC03A, |rng, case| {
        let g = random_graph(rng, 40, 120);
        let sym = symmetrize(&g);
        let mut reference: Option<Vec<u32>> = None;
        for kind in [EngineKind::PullGraphGrind, EngineKind::Pb, EngineKind::Ihtl] {
            let mut e = build_engine(kind, &sym, &cfg());
            let run = propagate_components(e.as_mut(), 200);
            // Labels are component minima: every vertex's label is ≤ its
            // own ID and shared with all neighbours.
            for v in 0..sym.n_vertices() as u32 {
                assert!(run.labels[v as usize] <= v, "case {case}");
                for &u in sym.csr().neighbours(v) {
                    assert_eq!(run.labels[v as usize], run.labels[u as usize], "case {case}");
                }
            }
            match &reference {
                None => reference = Some(run.labels),
                Some(r) => assert_eq!(r, &run.labels, "case {case}: {kind:?}"),
            }
        }
    });
}
