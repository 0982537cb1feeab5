//! Commutative monoids over `f64` vertex data.
//!
//! The paper fixes vertex data at 8 bytes (§4.1); every analytic in the
//! evaluation reduces incoming values with a commutative, associative
//! operator — `+` for SpMV/PageRank, `min` for components and shortest
//! paths. Abstracting the operator lets one traversal implementation serve
//! all of them (including iHTL's flipped-block buffers, whose merge step
//! relies on the same associativity).

use std::sync::atomic::{AtomicU64, Ordering};

use ihtl_graph::VertexId;

/// A commutative monoid over `f64`.
///
/// Implementations must satisfy, for all `a`, `b`, `c`:
/// * `combine(a, b) == combine(b, a)`;
/// * `combine(a, combine(b, c)) == combine(combine(a, b), c)` (up to fp
///   rounding for [`Add`]);
/// * `combine(a, identity()) == a`.
pub trait Monoid: Copy + Send + Sync + 'static {
    /// The neutral element.
    fn identity() -> f64;

    /// The reduction operator.
    fn combine(a: f64, b: f64) -> f64;

    /// Folds `x[u]` over every `u` in `ns` into `acc`, in list order — the
    /// inner loop of the serial reference and segmented pulls, hoisted into
    /// the trait so [`Add`] can override it with an unrolled
    /// multi-accumulator version.
    ///
    /// # Safety
    /// Every id in `ns` must be `< x.len()`. Kernels obtain this from the
    /// CSR construction invariant (`target < n_cols`) plus an entry assert
    /// that `x` spans the column universe; debug builds re-check per access.
    #[inline]
    unsafe fn fold_neighbours(acc: f64, ns: &[VertexId], x: &[f64]) -> f64 {
        let mut acc = acc;
        for &u in ns {
            debug_assert!((u as usize) < x.len());
            acc = Self::combine(acc, *x.get_unchecked(u as usize));
        }
        acc
    }

    /// Atomically folds `val` into the `f64` stored (bitwise) in `slot`.
    /// Used by the atomic push baseline; a CAS loop over the bit pattern.
    #[inline]
    fn combine_atomic(slot: &AtomicU64, val: f64) {
        // ORDERING: Relaxed — the CAS loop only needs atomicity of each
        // combine; cross-thread visibility of the final values is
        // published by the parallel-region join, not by these ops.
        let mut cur = slot.load(Ordering::Relaxed);
        loop {
            let new = Self::combine(f64::from_bits(cur), val).to_bits();
            if new == cur {
                return; // no-op update; avoid a write
            }
            // ORDERING: Relaxed — see the load above.
            match slot.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Addition with identity `0.0` — SpMV and PageRank.
#[derive(Clone, Copy, Debug, Default)]
pub struct Add;

impl Monoid for Add {
    #[inline]
    fn identity() -> f64 {
        0.0
    }
    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        a + b
    }

    // The default in-order `fold_neighbours` is kept deliberately: adjacency
    // lists average only a handful of edges on the benchmarked graphs, so
    // multi-accumulator unrolling (tried, measured) loses more to remainder
    // handling and extra combines than it gains in add-latency overlap, and
    // the loads — the real bottleneck — already overlap out of order.
}

/// Minimum with identity `+∞` — connected components, SSSP.
#[derive(Clone, Copy, Debug, Default)]
pub struct Min;

impl Monoid for Min {
    #[inline]
    fn identity() -> f64 {
        f64::INFINITY
    }
    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        a.min(b)
    }
}

/// Maximum with identity `-∞` — widest-label propagation.
#[derive(Clone, Copy, Debug, Default)]
pub struct Max;

impl Monoid for Max {
    #[inline]
    fn identity() -> f64 {
        f64::NEG_INFINITY
    }
    #[inline]
    fn combine(a: f64, b: f64) -> f64 {
        a.max(b)
    }
}

/// Reinterprets a mutable `f64` slice as atomic 64-bit slots.
///
/// # Safety rationale
/// `AtomicU64` has the same size and alignment as `u64`/`f64`; the caller
/// holds the unique `&mut`, so constructing a shared atomic view cannot race
/// with non-atomic accesses for the lifetime of the borrow.
pub fn as_atomic_slice(data: &mut [f64]) -> &[AtomicU64] {
    unsafe { &*(data as *mut [f64] as *const [AtomicU64]) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(Add::combine(3.5, Add::identity()), 3.5);
        assert_eq!(Min::combine(3.5, Min::identity()), 3.5);
        assert_eq!(Max::combine(3.5, Max::identity()), 3.5);
    }

    #[test]
    fn combine_semantics() {
        assert_eq!(Add::combine(2.0, 3.0), 5.0);
        assert_eq!(Min::combine(2.0, 3.0), 2.0);
        assert_eq!(Max::combine(2.0, 3.0), 3.0);
    }

    #[test]
    fn atomic_combine_add() {
        let mut data = vec![0.0f64; 1];
        let atomics = as_atomic_slice(&mut data);
        for _ in 0..100 {
            Add::combine_atomic(&atomics[0], 1.0);
        }
        assert_eq!(data[0], 100.0);
    }

    #[test]
    fn atomic_combine_min_no_op_short_circuits() {
        let mut data = vec![5.0f64; 1];
        let atomics = as_atomic_slice(&mut data);
        Min::combine_atomic(&atomics[0], 7.0); // no-op branch
        Min::combine_atomic(&atomics[0], 3.0);
        assert_eq!(data[0], 3.0);
    }

    #[test]
    fn atomic_combine_parallel_sum() {
        let mut data = vec![0.0f64; 4];
        {
            let atomics = as_atomic_slice(&mut data);
            ihtl_parallel::par_for_chunks(0..10_000, 64, |r| {
                for i in r {
                    Add::combine_atomic(&atomics[i % 4], 1.0);
                }
            });
        }
        assert_eq!(data.iter().sum::<f64>(), 10_000.0);
    }
}
