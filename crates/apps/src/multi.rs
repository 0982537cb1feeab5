//! The one driver of each batchable analytic: K independent queries per
//! edge sweep, with the solo run as the K = 1 case.
//!
//! Under serving load every queued job re-streams the entire edge array to
//! produce one value vector, yet the edge stream is the expensive part —
//! the in-hub temporal locality that makes one sweep cache-efficient
//! amortises even better when the sweep feeds K queries at once. The
//! drivers here run K parameter-variants of one analytic (multi-seed
//! PageRank, multi-source SSSP, batched SpMV sums) over
//! [`SpmvEngine::spmm_add`]/[`SpmvEngine::spmm_min`], with all vectors in
//! the row-major `[vertex][k]` layout so one vertex's K values share a
//! cache line.
//!
//! **One body per analytic.** Each driver body is generic over
//! `const K: usize` like the sweeps it calls (`K == 0` = the runtime `k`,
//! [`ihtl_traversal::width`]). The `*_multi` entry points dispatch once per
//! call, `match k { 1 => ::<1>, _ => ::<0> }`, and the solo entry points
//! (`pagerank`, `pagerank_seeded`, `sssp`, `spmv_sum`, `spmv_iterations`)
//! are K = 1 calls into the same bodies: a solo run is a one-column batch
//! whose column loops the constant folds away.
//!
//! **Determinism contract.** Each column performs, element for element, the
//! same floating-point expressions as every other width, and the SpMM
//! kernels fold each column in the K = 1 combine order. Batched results
//! are therefore bitwise identical to K solo runs wherever the solo runs
//! themselves are schedule independent (pull engines on any input; every
//! engine under the exact-arithmetic discipline of `tests/determinism.rs`).

use std::time::Instant;

use ihtl_traversal::width;

use crate::engine::SpmvEngine;
use crate::pagerank::DAMPING;
use crate::rows::{
    engine_row, into_original_columns, original_columns, par_row_blocks, relax_rows, Improved,
};

/// Result columns (original order) and per-iteration wall-clock seconds.
pub(crate) type Timed = (Vec<Vec<f64>>, Vec<f64>);

/// PageRank's fused contribution pass over a `[vertex][k]` matrix:
/// `contrib = (c[j] + d·sums[idx]) / out-degree`, or `c[j] / out-degree` on
/// the first iteration (`sums == None`), the degree read once per row.
/// Dangling rows are skipped, not zero-filled: `contrib` is allocated zeroed
/// and no pass ever writes them, so their lines (and the sums feeding them)
/// cost no traffic — on a graph with many sinks, most of the pass.
fn scale_rows<const K: usize>(contrib: &mut [f64], degs: &[u32], c: &[f64], sums: Option<&[f64]>) {
    par_row_blocks::<K>(contrib, c.len(), |first_row, block| {
        let k = width::<K>(c.len());
        let c = &c[..k];
        for (r, out) in block.chunks_exact_mut(k).enumerate() {
            let row = first_row + r;
            let d = degs[row];
            if d > 0 {
                for (j, x) in out.iter_mut().enumerate() {
                    let rank = sums.map_or(c[j], |sums| c[j] + DAMPING * sums[row * k + j]);
                    *x = rank / d as f64;
                }
            }
        }
    });
}

/// PageRank's one driver (§4.1): column `j` runs `iters` iterations with
/// teleport seed `seeds[j]` — `None` is the classic uniform teleport,
/// `Some(s)` personalises the teleport (and the initial ranks) to vertex
/// `s` in original order.
///
/// A column's start rank and teleport are one constant on every row but
/// its seed's — `1/n` and `(1 - d)/n` for a uniform column, `0` for a
/// seeded one — so no dense teleport vector exists: each pass applies the
/// per-column constants and then patches the at most K seed elements.
/// Each iteration's contribution pass fuses the previous rank update
/// `base + d·sums`, and the last update is fused into the way out, so ranks
/// are only ever materialised as the result columns.
pub(crate) fn pagerank_columns<const K: usize>(
    engine: &mut dyn SpmvEngine,
    iters: usize,
    seeds: &[Option<u32>],
) -> Timed {
    let k = width::<K>(seeds.len());
    assert!(k >= 1, "pagerank needs at least one column");
    let n = engine.n_vertices();
    if n == 0 {
        return (vec![Vec::new(); k], Vec::new());
    }
    let init = ihtl_trace::span("driver_init");
    let off_seed = |uniform: f64| -> Vec<f64> {
        seeds.iter().map(|seed| if seed.is_some() { 0.0 } else { uniform }).collect()
    };
    let (start, base) = (off_seed(1.0 / n as f64), off_seed((1.0 - DAMPING) / n as f64));
    // A seed's own rank entering an iteration, from its column's sum there.
    let seed_rank =
        |first: bool, sum: f64| if first { 1.0 } else { (1.0 - DAMPING) + DAMPING * sum };
    // `contrib` must start zeroed (dangling rows stay so); every sweep
    // overwrites `sums` in full.
    let mut contrib = vec![0.0f64; n * k];
    let mut sums = vec![0.0f64; n * k];
    let mut iter_seconds = Vec::with_capacity(iters);
    drop(init);
    for it in 0..iters {
        // lint:allow(R4): per-iteration timing for the Figure 7 / Table 2 reports
        let t = Instant::now();
        let degs = engine.out_degrees();
        {
            let _pass = ihtl_trace::span("driver_pass");
            let sums = &sums[..];
            if it == 0 {
                scale_rows::<K>(&mut contrib, degs, &start, None);
            } else {
                scale_rows::<K>(&mut contrib, degs, &base, Some(sums));
            }
            for (j, seed) in seeds.iter().enumerate() {
                if let Some(s) = *seed {
                    let row = engine_row(engine, s);
                    let (idx, d) = (row * k + j, degs[row]);
                    if d > 0 {
                        contrib[idx] = seed_rank(it == 0, sums[idx]) / d as f64;
                    }
                }
            }
        }
        engine.spmm_add(&contrib, &mut sums, k);
        iter_seconds.push(t.elapsed().as_secs_f64());
    }
    let sums = &sums[..];
    let mut ranks = if iters == 0 {
        original_columns::<K>(engine, k, |_, j| start[j])
    } else {
        original_columns::<K>(engine, k, |idx, j| base[j] + DAMPING * sums[idx])
    };
    for (j, seed) in seeds.iter().enumerate() {
        if let Some(s) = *seed {
            let row = engine_row(engine, s);
            ranks[j][s as usize] = seed_rank(iters == 0, sums[row * k + j]);
        }
    }
    (ranks, iter_seconds)
}

/// K PageRank queries in one sweep ([`pagerank_columns`]); returns one rank
/// vector (original order) per seed.
pub fn pagerank_multi(
    engine: &mut dyn SpmvEngine,
    iters: usize,
    seeds: &[Option<u32>],
) -> Vec<Vec<f64>> {
    match seeds.len() {
        1 => pagerank_columns::<1>(engine, iters, seeds).0,
        _ => pagerank_columns::<0>(engine, iters, seeds).0,
    }
}

/// Bellman–Ford's one driver: column `j` relaxes from `sources[j]`
/// (original ID). Returns `(distances, rounds)` per column; `rounds` is the
/// first round with no improvement for that column (inclusive), capped at
/// `max_rounds`. Columns already at fixpoint keep relaxing without change
/// (min is idempotent), so late columns never perturb early ones.
///
/// The sweep runs over `dist` itself and the relax pass adds the edge
/// length afterwards — see [`crate::sssp`].
pub(crate) fn sssp_columns<const K: usize>(
    engine: &mut dyn SpmvEngine,
    sources: &[u32],
    max_rounds: usize,
) -> Vec<(Vec<f64>, usize)> {
    let k = width::<K>(sources.len());
    assert!(k >= 1, "sssp needs at least one column");
    let n = engine.n_vertices();
    let init = ihtl_trace::span("driver_init");
    let mut dist = vec![f64::INFINITY; n * k];
    for (j, &s) in sources.iter().enumerate() {
        dist[engine_row(engine, s) * k + j] = 0.0;
    }
    let mut relaxed = vec![0.0f64; n * k];
    let improved = Improved::new(k);
    let mut col_rounds = vec![max_rounds; k];
    let mut done = vec![false; k];
    drop(init);
    let mut rounds = 0;
    while rounds < max_rounds && done.iter().any(|d| !d) {
        engine.spmm_min(&dist, &mut relaxed, k);
        relax_rows::<K>(&mut dist, &relaxed, |r| r + 1.0, &improved);
        rounds += 1;
        for j in 0..k {
            if !improved.take(j) && !done[j] {
                done[j] = true;
                col_rounds[j] = rounds;
            }
        }
    }
    into_original_columns::<K>(engine, k, dist).into_iter().zip(col_rounds).collect()
}

/// K Bellman–Ford queries in one sweep ([`sssp_columns`]).
pub fn sssp_multi(
    engine: &mut dyn SpmvEngine,
    sources: &[u32],
    max_rounds: usize,
) -> Vec<(Vec<f64>, usize)> {
    match sources.len() {
        1 => sssp_columns::<1>(engine, sources, max_rounds),
        _ => sssp_columns::<0>(engine, sources, max_rounds),
    }
}

/// The engine-order start of K SpMV-sum columns: all ones
/// (`sources[j] == None`, the classic §2.2 microbenchmark) or an indicator
/// at the given original-order vertex.
pub(crate) fn sum_start(engine: &dyn SpmvEngine, sources: &[Option<u32>]) -> Vec<f64> {
    let k = sources.len();
    let ones: Vec<f64> = sources.iter().map(|s| if s.is_none() { 1.0 } else { 0.0 }).collect();
    let mut x = ones.repeat(engine.n_vertices());
    for (j, src) in sources.iter().enumerate() {
        if let Some(s) = *src {
            x[engine_row(engine, s) * k + j] = 1.0;
        }
    }
    x
}

/// Iterated sum-SpMV's one driver, `k` columns from the engine-order
/// `[vertex][k]` matrix `start` builds. Per-column renormalisation keeps
/// values finite on graphs whose spectral radius exceeds 1: the 1-norm is
/// a serial fold in ascending rows, and a column whose norm exceeds `1e100`
/// is rescaled by `1/norm`. The fold is serial on purpose — re-associating
/// it would change the rescaled bits — and it runs over at most eight
/// columns at a time with the running sums in a local array: a running sum
/// in a heap slot costs a store and a reload per element on the add chain.
pub(crate) fn spmv_columns<const K: usize>(
    engine: &mut dyn SpmvEngine,
    iters: usize,
    k: usize,
    start: impl FnOnce(&dyn SpmvEngine) -> Vec<f64>,
) -> Timed {
    let k = width::<K>(k);
    assert!(k >= 1, "spmv needs at least one column");
    let init = ihtl_trace::span("driver_init");
    let mut x = start(engine);
    assert_eq!(x.len(), engine.n_vertices() * k);
    let mut y = vec![0.0f64; x.len()];
    let mut norms = vec![0.0f64; k];
    let mut iter_seconds = Vec::with_capacity(iters);
    drop(init);
    for _ in 0..iters {
        // lint:allow(R4): per-iteration timing for the Table 2 report
        let t = Instant::now();
        engine.spmm_add(&x, &mut y, k);
        std::mem::swap(&mut x, &mut y);
        iter_seconds.push(t.elapsed().as_secs_f64());
        let _pass = ihtl_trace::span("driver_pass");
        for first in (0..k).step_by(8) {
            let w = (k - first).min(8);
            let mut acc = [0.0f64; 8];
            for row in x.chunks_exact(k) {
                for (a, v) in acc[..w].iter_mut().zip(&row[first..first + w]) {
                    *a += v.abs();
                }
            }
            norms[first..first + w].copy_from_slice(&acc[..w]);
        }
        if norms.iter().any(|&norm| norm > 1e100) {
            let norms = &norms[..];
            par_row_blocks::<K>(&mut x, k, |_, block| {
                for row in block.chunks_exact_mut(width::<K>(k)) {
                    for (v, &norm) in row.iter_mut().zip(norms) {
                        if norm > 1e100 {
                            *v *= 1.0 / norm;
                        }
                    }
                }
            });
        }
    }
    (into_original_columns::<K>(engine, k, x), iter_seconds)
}

/// K iterated sum-SpMV queries in one sweep ([`spmv_columns`] from
/// [`sum_start`]).
pub fn spmv_sum_multi(
    engine: &mut dyn SpmvEngine,
    iters: usize,
    sources: &[Option<u32>],
) -> Vec<Vec<f64>> {
    match sources.len() {
        1 => spmv_columns::<1>(engine, iters, 1, |e| sum_start(e, sources)).0,
        k => spmv_columns::<0>(engine, iters, k, |e| sum_start(e, sources)).0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{build_engine, EngineKind};
    use crate::pagerank::{pagerank, pagerank_seeded};
    use crate::spmv::spmv_iterations;
    use crate::sssp::sssp;
    use ihtl_core::IhtlConfig;
    use ihtl_graph::graph::paper_example_graph;

    fn cfg() -> IhtlConfig {
        IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() }
    }

    fn assert_bitwise(a: &[f64], b: &[f64], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: length mismatch");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn uniform_pagerank_multi_matches_solo_bitwise() {
        // Pull engine: schedule independent, so bitwise identity must hold
        // on arbitrary (non-integer) rank values.
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let solo = pagerank(e.as_mut(), 12).ranks;
        for k in [1usize, 4, 8] {
            let seeds = vec![None; k];
            let cols = pagerank_multi(e.as_mut(), 12, &seeds);
            for (j, col) in cols.iter().enumerate() {
                assert_bitwise(col, &solo, &format!("k={k} column {j}"));
            }
        }
    }

    #[test]
    fn seeded_pagerank_multi_matches_seeded_solo_bitwise() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::PullGraphGrind, &g, &cfg());
        let seeds = [Some(2u32), None, Some(5u32), Some(0u32)];
        let cols = pagerank_multi(e.as_mut(), 10, &seeds);
        for (j, seed) in seeds.iter().enumerate() {
            let solo = pagerank_seeded(e.as_mut(), 10, *seed);
            assert_bitwise(&cols[j], &solo, &format!("seed {seed:?}"));
        }
        // A seeded column concentrates rank around its seed's reach.
        let seeded = &cols[0];
        assert!(seeded[2] > seeded[3], "seed vertex outranks non-seed");
    }

    #[test]
    fn sssp_multi_matches_solo_bitwise_on_every_engine() {
        // Min is exact on any values: bitwise identity holds on every
        // engine, batch against independent solo runs.
        let g = paper_example_graph();
        let sources = [5u32, 0, 2, 5, 1, 6, 3, 4];
        for kind in EngineKind::all() {
            for k in [1usize, 4, 8] {
                let mut e = build_engine(kind, &g, &cfg());
                let cols = sssp_multi(e.as_mut(), &sources[..k], 64);
                for (j, &s) in sources[..k].iter().enumerate() {
                    let solo = sssp(e.as_mut(), s, 64);
                    assert_bitwise(&cols[j].0, &solo.dist, &format!("{kind:?} k={k} src {s}"));
                    assert_eq!(cols[j].1, solo.rounds, "{kind:?} k={k} src {s} rounds");
                }
            }
        }
    }

    #[test]
    fn spmv_sum_multi_matches_solo_bitwise() {
        // Integer-valued inputs (ones / indicators): exact Add, bitwise on
        // every engine.
        let g = paper_example_graph();
        let n = g.n_vertices();
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg());
            let sources = [None, Some(2u32), Some(5u32), None];
            let cols = spmv_sum_multi(e.as_mut(), 3, &sources);
            for (j, src) in sources.iter().enumerate() {
                let mut x0 = vec![0.0; n];
                match *src {
                    None => x0.iter_mut().for_each(|v| *v = 1.0),
                    Some(s) => x0[s as usize] = 1.0,
                }
                let solo = spmv_iterations(e.as_mut(), &x0, 3);
                assert_bitwise(&cols[j], &solo.values, &format!("{kind:?} src {src:?}"));
            }
        }
    }

    #[test]
    fn sssp_multi_rounds_respect_max_rounds_cap() {
        let g = paper_example_graph();
        let mut e = build_engine(EngineKind::Ihtl, &g, &cfg());
        let cols = sssp_multi(e.as_mut(), &[5, 0], 2);
        for (j, &(_, rounds)) in cols.iter().enumerate() {
            let solo = sssp(e.as_mut(), [5u32, 0][j], 2);
            assert_eq!(rounds, solo.rounds);
            assert!(rounds <= 2);
        }
    }
}
