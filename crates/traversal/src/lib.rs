//! Push and pull SpMV traversal baselines.
//!
//! The paper evaluates iHTL against the pull and push traversals of three
//! frameworks (Figure 7). Each framework is really a *traversal strategy*;
//! this crate reimplements those strategies faithfully:
//!
//! | paper column        | here |
//! |---------------------|------|
//! | GraphGrind pull     | [`pull::spmv_pull`] — edge-balanced contiguous partitions |
//! | GraphIt pull        | [`pull::SegmentedCsc`] + [`pull::spmv_pull_segmented`] — Cagra-style horizontal source blocking |
//! | Galois pull         | [`pull::spmv_pull_chunked`] — fine-grained dynamically scheduled chunks |
//! | GraphGrind push     | [`push::DstPartitionedCsr`] + [`push::spmv_push_partitioned`] — vertical destination blocking (race-free) |
//! | GraphIt push        | [`push::spmv_push_atomic`] — CAS-based concurrent updates |
//! | (X-Stream buffering)| [`push::spmv_push_buffered`] — per-thread full-width buffers, merged |
//! | (propagation blocking) | [`pb::PbGraph`] — two-phase binned push, destinations merged segment-by-segment |
//!
//! All kernels compute the same SpMV: `y[v] = ⊕_{u ∈ N⁻(v)} x[u]` for a
//! commutative monoid `⊕` (see [`monoid`]). PageRank, components and SSSP
//! are layered on top in `ihtl-apps`.

pub mod monoid;
pub mod pb;
pub mod pull;
pub mod push;

pub use monoid::{Add, Max, Min, Monoid};

/// The column count a sweep body generic over `const K: usize` runs at:
/// the compile-time width `K`, or the runtime `k` when `K == 0`.
///
/// Every K-column kernel is one body instantiated twice: `K = 1` for the
/// solo SpMV, where the constant folds the column loops away, and `K = 0`
/// for any other batch width. Callers dispatch once per sweep with
/// `match k { 1 => body::<M, 1>(..), _ => body::<M, 0>(..) }`.
///
/// A parallel task closure re-derives `k = width::<K>(k)` at its top when
/// it loops over columns: the pool calls it through dynamic dispatch, so a
/// captured `k` is a load there and every `0..k` loop stays a runtime loop,
/// while `K` is a constant in every instance.
#[inline(always)]
pub fn width<const K: usize>(k: usize) -> usize {
    if K == 0 {
        k
    } else {
        debug_assert_eq!(k, K, "compile-time width disagrees with the runtime k");
        K
    }
}

/// Splits a mutable slice into the disjoint sub-slices described by
/// contiguous vertex ranges, so the parallel runtime can hand each range to
/// a worker without aliasing.
pub(crate) fn split_by_ranges<'a>(
    mut data: &'a mut [f64],
    ranges: &[ihtl_graph::partition::VertexRange],
) -> Vec<&'a mut [f64]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut consumed = 0u32;
    for r in ranges {
        debug_assert_eq!(r.start, consumed, "ranges must be contiguous from 0");
        let (head, tail) = data.split_at_mut((r.end - r.start) as usize);
        out.push(head);
        data = tail;
        consumed = r.end;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihtl_graph::partition::VertexRange;

    #[test]
    fn split_covers_disjointly() {
        let mut v = vec![0.0f64; 10];
        let ranges = vec![
            VertexRange { start: 0, end: 3 },
            VertexRange { start: 3, end: 3 },
            VertexRange { start: 3, end: 10 },
        ];
        let parts = split_by_ranges(&mut v, &ranges);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 3);
        assert_eq!(parts[1].len(), 0);
        assert_eq!(parts[2].len(), 7);
    }
}
