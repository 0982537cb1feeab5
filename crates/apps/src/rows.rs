//! Row-wise building blocks of the drivers.
//!
//! Around every sweep a driver does O(n·K) streaming work — build the start
//! vectors, scale or relax between sweeps, hand the results back in
//! original order. On sparse graphs that work is as large as the sweep
//! itself, so it follows the same rules: every pass is parallel over whole
//! `[vertex][k]` rows (no per-element `idx / k`), nothing dense is built in
//! original order only to be permuted, and the way back to original order
//! is the pass that produces the result. Each pass takes the driver's
//! compile-time width `K` (`K == 0` = the runtime `k`, see
//! [`ihtl_traversal::width`]), so at K = 1 the column loops fold away.

use std::sync::atomic::{AtomicBool, Ordering};

use ihtl_traversal::width;

use crate::engine::SpmvEngine;

/// Elements per task of a driver pass.
const PASS_GRAIN: usize = 4096;

fn rows_per_task(k: usize) -> usize {
    (PASS_GRAIN / k).max(1)
}

/// Engine-order row of original vertex `v` — where a driver puts a seed or
/// a source. Out-of-range vertices are a caller bug (`JobSpec::validate`
/// rejects them at the wire).
pub(crate) fn engine_row(engine: &dyn SpmvEngine, v: u32) -> usize {
    assert!((v as usize) < engine.n_vertices(), "vertex {v} out of range");
    engine.engine_rows().map_or(v as usize, |rows| rows[v as usize] as usize)
}

/// Calls `f(first_row, block)` on consecutive blocks of whole `k`-wide rows
/// of `m`, in parallel. The pool calls `f` through dynamic dispatch, so `f`
/// re-derives `k = width::<K>(k)` at its top rather than load a captured `k`.
pub(crate) fn par_row_blocks<const K: usize>(
    m: &mut [f64],
    k: usize,
    f: impl Fn(usize, &mut [f64]) + Sync,
) {
    let k = width::<K>(k);
    let rows = rows_per_task(k);
    ihtl_parallel::par_chunks_mut(m, rows * k, |ci, block| f(ci * rows, block));
}

/// Per-column "some row got smaller this round" flags: raised inside
/// [`relax_rows`], taken (read and cleared) by the driver after it.
pub(crate) struct Improved(Vec<AtomicBool>);

impl Improved {
    pub(crate) fn new(k: usize) -> Improved {
        Improved((0..k).map(|_| AtomicBool::new(false)).collect())
    }

    pub(crate) fn take(&self, j: usize) -> bool {
        // ORDERING: Relaxed — the flag publishes nothing but itself, and the
        // pass that raised it has been joined before the driver asks.
        self.0[j].swap(false, Ordering::Relaxed)
    }
}

/// The fused relax pass of the min-propagation drivers, over a
/// `[vertex][k]` matrix in parallel: `cur = min(cur, cand(incoming))`
/// element by element, raising `improved` for every column that got smaller.
pub(crate) fn relax_rows<const K: usize>(
    cur: &mut [f64],
    incoming: &[f64],
    cand: impl Fn(f64) -> f64 + Sync,
    improved: &Improved,
) {
    let _span = ihtl_trace::span("driver_pass");
    let k = improved.0.len();
    par_row_blocks::<K>(cur, k, |first_row, block| {
        let k = width::<K>(k);
        let incoming = &incoming[first_row * k..][..block.len()];
        // Blocks start on a row boundary: the column is a counter, not a
        // remainder.
        let mut j = 0;
        for (c, &inc) in block.iter_mut().zip(incoming) {
            let r = cand(inc);
            if r < *c {
                *c = r;
                // ORDERING: Relaxed — a flag only; the region join orders it
                // before `take`. Tested first so that a column already
                // raised costs a shared read, not a contended write.
                if !improved.0[j].load(Ordering::Relaxed) {
                    improved.0[j].store(true, Ordering::Relaxed);
                }
            }
            j += 1;
            if j == k {
                j = 0;
            }
        }
    });
}

/// The drivers' way back to original order, as the pass that produces the
/// results: `k` vectors whose element `o` of column `j` is `value(idx, j)`,
/// `idx = row * k + j` at the engine-order row of original vertex `o`. A
/// parallel gather — one row fetch feeds all `k` columns, and every output
/// is written sequentially, exactly once.
pub(crate) fn original_columns<const K: usize>(
    engine: &dyn SpmvEngine,
    k: usize,
    value: impl Fn(usize, usize) -> f64 + Sync,
) -> Vec<Vec<f64>> {
    let _span = ihtl_trace::span("driver_output");
    let k = width::<K>(k);
    let (n, grain) = (engine.n_vertices(), rows_per_task(k));
    match engine.engine_rows() {
        None => ihtl_parallel::par_map_columns(n, k, grain, |o, j| value(o * width::<K>(k) + j, j)),
        Some(rows) => ihtl_parallel::par_map_columns(n, k, grain, |o, j| {
            value(rows[o] as usize * width::<K>(k) + j, j)
        }),
    }
}

/// [`original_columns`] of a plain `[vertex][k]` matrix, consumed: one
/// column in original order already is the result, so it moves out uncopied.
pub(crate) fn into_original_columns<const K: usize>(
    engine: &dyn SpmvEngine,
    k: usize,
    m: Vec<f64>,
) -> Vec<Vec<f64>> {
    if width::<K>(k) == 1 && engine.engine_rows().is_none() {
        return vec![m];
    }
    original_columns::<K>(engine, k, |idx, _| m[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relax_rows_takes_the_minimum_and_flags_the_columns_that_moved() {
        // More rows than one task holds, so several blocks run.
        let (n, k) = (3000usize, 3usize);
        let mut cur: Vec<f64> = (0..n * k).map(|i| (i % 7) as f64).collect();
        let incoming: Vec<f64> =
            (0..n * k).map(|i| if i % k == 1 { 100.0 } else { (i % 5) as f64 }).collect();
        let expect: Vec<f64> = cur.iter().zip(&incoming).map(|(&c, &i)| c.min(i + 1.0)).collect();
        let improved = Improved::new(k);
        relax_rows::<0>(&mut cur, &incoming, |r| r + 1.0, &improved);
        assert_eq!(cur, expect);
        assert_eq!([improved.take(0), improved.take(1), improved.take(2)], [true, false, true]);
        // Taking clears; a second pass over the fixpoint raises nothing.
        relax_rows::<0>(&mut cur, &incoming, |r| r + 1.0, &improved);
        assert!(!(0..k).any(|j| improved.take(j)));
    }
}
