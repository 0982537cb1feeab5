//! Propagation-blocking push SpMV (PAPERS.md: Balaji & Lucia,
//! arXiv:2011.08451).
//!
//! Push traversals scatter tiny read-modify-writes across the whole
//! destination vector; once vertex data outgrows the cache those writes
//! miss constantly. Propagation blocking splits the traversal into two
//! streaming phases:
//!
//! 1. **bin** — sweep the out-edges in source order and append each
//!    contribution `x[src]` to the bin of its destination *segment* (a
//!    cache-budget-sized contiguous id range). Every write is a sequential
//!    append into a bin, so the random-access footprint shrinks from the
//!    whole output vector to one cache line per open bin.
//! 2. **merge** — per segment, replay the bins that target it and reduce
//!    into the output slice, which is cache-resident by construction.
//!
//! Determinism: bins are keyed by `(source range, segment)` with ranges
//! ascending in source id, sources swept ascending within a range, and a
//! destination's contributions replayed range-by-range in ascending range
//! order. That visits each destination's in-edges in exactly
//! ascending-source order — the same order [`crate::pull`] folds them (CSC
//! rows come from a stable transpose) — so PB results are **bitwise
//! identical to pull for any monoid, any thread count and any partition
//! count**. The slot each edge writes is fixed at build time
//! ([`PbGraph::edge_pos`]), making the bin phase itself
//! schedule-independent: no matter which worker runs a range, the bytes
//! land in the same places.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use ihtl_graph::io::Cursor;
use ihtl_graph::partition::{edge_balanced_ranges, VertexRange};
use ihtl_graph::{EdgeIndex, Graph, VertexId};

use crate::monoid::{as_atomic_slice, Monoid};
use crate::split_by_ranges;

/// The prepared propagation-blocking layout: edge-balanced source ranges,
/// per-`(range, segment)` bin extents, and the precomputed (topology-only)
/// bin slot + binned destination of every edge. Only the contribution
/// values are (re)written per traversal.
pub struct PbGraph {
    n: usize,
    m: usize,
    /// log2 of the segment length in vertices.
    seg_shift: u32,
    n_segments: usize,
    /// Edge-balanced contiguous source ranges (ascending), the bin-phase
    /// parallel work units.
    ranges: Vec<VertexRange>,
    /// Copy of the CSR offsets, so a traversal needs no `Graph` borrow.
    src_offsets: Vec<EdgeIndex>,
    /// Prefix sums of per-`(range, segment)` edge counts, range-major:
    /// bin `(r, s)` spans `bin_offsets[r * n_segments + s] ..
    /// bin_offsets[r * n_segments + s + 1]` of the value/destination
    /// arrays. Range `r`'s bins are therefore contiguous.
    bin_offsets: Vec<EdgeIndex>,
    /// `binned_dst[p]` = destination vertex of the edge binned at slot `p`.
    binned_dst: Vec<VertexId>,
    /// `edge_pos[e]` = bin slot of CSR edge `e` (edges in CSR order).
    edge_pos: Vec<u32>,
}

impl PbGraph {
    /// Prepares the layout with segments sized so `segment_len *
    /// vertex_data_bytes <= cache_budget_bytes` (rounded up to a power of
    /// two so the segment of a destination is a shift) and the default
    /// partition count.
    pub fn new(g: &Graph, cache_budget_bytes: usize, vertex_data_bytes: usize) -> Self {
        Self::with_parts(g, cache_budget_bytes, vertex_data_bytes, crate::pull::default_parts())
    }

    /// [`PbGraph::new`] with an explicit source partition count.
    pub fn with_parts(
        g: &Graph,
        cache_budget_bytes: usize,
        vertex_data_bytes: usize,
        parts: usize,
    ) -> Self {
        let n = g.n_vertices();
        let m = g.n_edges();
        assert!(vertex_data_bytes > 0);
        assert!(m <= u32::MAX as usize, "edge slots must fit u32");
        let seg_len = (cache_budget_bytes / vertex_data_bytes).max(1).next_power_of_two();
        let seg_shift = seg_len.trailing_zeros();
        let n_segments = n.div_ceil(seg_len).max(1);
        let ranges = edge_balanced_ranges(g.csr(), parts);
        let src_offsets = g.csr().offsets().to_vec();
        let targets = g.csr().targets();

        // Count edges per (range, segment), then prefix-sum into extents.
        let mut bin_offsets = vec![0 as EdgeIndex; ranges.len() * n_segments + 1];
        for (r, range) in ranges.iter().enumerate() {
            let base = r * n_segments;
            let s = src_offsets[range.start as usize] as usize;
            let e = src_offsets[range.end as usize] as usize;
            for &dst in &targets[s..e] {
                bin_offsets[base + (dst >> seg_shift) as usize + 1] += 1;
            }
        }
        for i in 1..bin_offsets.len() {
            bin_offsets[i] += bin_offsets[i - 1];
        }

        // Fix every edge's bin slot: sweep ranges ascending, sources
        // ascending within a range, CSR list order within a source — the
        // replay order that reproduces pull's fold order per destination.
        let mut cursors = bin_offsets[..bin_offsets.len() - 1].to_vec();
        let mut binned_dst = vec![0 as VertexId; m];
        let mut edge_pos = vec![0u32; m];
        for (r, range) in ranges.iter().enumerate() {
            let base = r * n_segments;
            let s = src_offsets[range.start as usize] as usize;
            let e = src_offsets[range.end as usize] as usize;
            for (i, &dst) in targets[s..e].iter().enumerate() {
                let cur = &mut cursors[base + (dst >> seg_shift) as usize];
                let p = *cur as usize;
                *cur += 1;
                binned_dst[p] = dst;
                edge_pos[s + i] = p as u32;
            }
        }

        Self { n, m, seg_shift, n_segments, ranges, src_offsets, bin_offsets, binned_dst, edge_pos }
    }

    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.m
    }

    /// Number of destination segments.
    pub fn n_segments(&self) -> usize {
        self.n_segments
    }

    /// Destination vertices per segment (a power of two).
    pub fn segment_len(&self) -> usize {
        1usize << self.seg_shift
    }

    /// Topology bytes of the PB layout beyond the CSR it was built from:
    /// the bin slot and binned destination of every edge plus the bin
    /// extents — the "propagation blocking duplicates the edge stream"
    /// cost.
    pub fn topology_bytes(&self) -> u64 {
        (self.binned_dst.len() * 4
            + self.edge_pos.len() * 4
            + self.bin_offsets.len() * 8
            + self.src_offsets.len() * 8) as u64
    }

    /// The contiguous destination ranges of the segments, tiling `0..n`.
    fn segment_ranges(&self) -> Vec<VertexRange> {
        let seg_len = self.segment_len();
        (0..self.n_segments)
            .map(|s| VertexRange {
                start: (s * seg_len) as VertexId,
                end: ((s + 1) * seg_len).min(self.n) as VertexId,
            })
            .collect()
    }

    /// Two-phase PB SpMV: `y[v] = ⊕_{u ∈ N⁻(v)} x[u]`. `values` is the
    /// caller-owned contribution scratch (resized to one slot per edge) so
    /// iterated traversals allocate nothing.
    pub fn spmv<M: Monoid>(&self, x: &[f64], y: &mut [f64], values: &mut Vec<f64>) {
        self.spmm::<M>(x, y, 1, values);
    }

    /// K-column PB SpMM over interleaved columns (`x[u * k + j]` = vertex
    /// `u`, column `j`). Column `j` is bitwise identical to a solo
    /// [`PbGraph::spmv`] over column `j`: every edge's slot is fixed, and
    /// the merge replays each column in the same order.
    pub fn spmm<M: Monoid>(&self, x: &[f64], y: &mut [f64], k: usize, values: &mut Vec<f64>) {
        match k {
            1 => self.sweep::<M, 1>(x, y, 1, values),
            _ => self.sweep::<M, 0>(x, y, k, values),
        }
    }

    /// The one PB sweep body behind [`PbGraph::spmv`] and [`PbGraph::spmm`],
    /// at width `K` (`k` when `K == 0`, see [`crate::width`]).
    fn sweep<M: Monoid, const K: usize>(
        &self,
        x: &[f64],
        y: &mut [f64],
        k: usize,
        values: &mut Vec<f64>,
    ) {
        let k = crate::width::<K>(k);
        assert!(k >= 1);
        assert_eq!(x.len(), self.n * k);
        assert_eq!(y.len(), self.n * k);
        let _span = ihtl_trace::span("pb_spmv").with_arg(k as u64);
        // The bin phase overwrites every slot, so reuse needs no reset —
        // resizing only when `k` changes avoids an O(m·k) memset per call.
        if values.len() != self.m * k {
            values.clear();
            values.resize(self.m * k, 0.0);
        }

        // --- Bin phase: stream the out-edges, appending contributions. ---
        {
            let _bin = ihtl_trace::span("pb_bin");
            // Each edge owns the distinct slot range `edge_pos[e] * k ..+k`,
            // so the scattered stores are race-free; the atomic view only
            // provides the unsynchronised shared mutability (plain relaxed
            // stores, no CAS), exactly as in `pull::spmv_pull_segmented`.
            let slots = as_atomic_slice(values);
            let offsets = &self.src_offsets;
            let edge_pos = &self.edge_pos;
            ihtl_parallel::par_for_each(&self.ranges, 1, |_, range| {
                // A constant at K = 1, unlike the captured `k` (see `width`).
                let k = crate::width::<K>(k);
                let _t = ihtl_trace::span("bin_task");
                let mut s = offsets[range.start as usize] as usize;
                for u in range.iter() {
                    // SAFETY: `u + 1 <= range.end <= n` and offsets are
                    // monotone ending at `m`; `x` spans `n * k` (asserted
                    // above); `edge_pos[e] < m` by construction, so every
                    // slot strip ends at or below `m * k == slots.len()`.
                    unsafe {
                        let e = *offsets.get_unchecked(u as usize + 1) as usize;
                        let u = u as usize;
                        bin_row::<K>(
                            slots,
                            x.get_unchecked(u * k..u * k + k),
                            edge_pos.get_unchecked(s..e).iter().map(|&p| p as usize),
                            k,
                        );
                        s = e;
                    }
                }
            });
        }

        // --- Merge phase: per segment, replay bins in range order. ---
        let _merge = ihtl_trace::span("pb_merge");
        let seg_ranges = self.segment_ranges();
        let scaled: Vec<VertexRange> = seg_ranges
            .iter()
            .map(|r| VertexRange { start: r.start * k as u32, end: r.end * k as u32 })
            .collect();
        let mut out_slices = split_by_ranges(y, &scaled);
        let values = &values[..];
        ihtl_parallel::par_for_each_mut(&mut out_slices, 1, |si, out| {
            let k = crate::width::<K>(k);
            let _t = ihtl_trace::span("merge_task");
            for slot in out.iter_mut() {
                *slot = M::identity();
            }
            let seg_base = seg_ranges[si].start as usize * k;
            for r in 0..self.ranges.len() {
                let lo = self.bin_offsets[r * self.n_segments + si] as usize;
                let hi = self.bin_offsets[r * self.n_segments + si + 1] as usize;
                // SAFETY: bin `(r, si)` holds only destinations of segment
                // `si`, so `dst * k - seg_base + j < out.len()`; slot
                // indices are `< m * k == values.len()` (construction).
                unsafe {
                    for (p, &dst) in self.binned_dst.get_unchecked(lo..hi).iter().enumerate() {
                        let ob = dst as usize * k - seg_base;
                        let vb = (lo + p) * k;
                        for j in 0..k {
                            let slot = out.get_unchecked_mut(ob + j);
                            *slot = M::combine(*slot, *values.get_unchecked(vb + j));
                        }
                    }
                }
            }
        });
    }
}

/// Stores the source strip `xs` (`k` values, `K` when `K != 0`) into the
/// `k`-wide slot strip of every bin slot in `slots_at` — the bin phase of
/// both binned sweeps ([`PbGraph::spmm`] and iHTL's hybrid executor).
///
/// `xs` arrives as its own borrow on purpose: the atomic stores go through
/// shared cells the optimiser cannot tell apart from `x`, so with the loop
/// written inline it reloads the source value on every edge. As a function
/// argument `xs` is known not to change, and stays in registers.
///
/// # Safety
/// `xs.len() == k`, `p * k + k <= slots.len()` for every `p` in `slots_at`,
/// and no other thread stores to those strips during the call.
#[inline]
pub unsafe fn bin_row<const K: usize>(
    slots: &[AtomicU64],
    xs: &[f64],
    slots_at: impl Iterator<Item = usize>,
    k: usize,
) {
    let k = crate::width::<K>(k);
    debug_assert_eq!(xs.len(), k);
    for p in slots_at {
        debug_assert!(p * k + k <= slots.len());
        for (slot, &v) in slots.get_unchecked(p * k..p * k + k).iter().zip(xs) {
            // ORDERING: Relaxed — each slot has one writer (disjoint
            // strips); the parallel region's join publishes the buffer.
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Binary persistence (`IHTLPBG1`) — the PB layout joins the workspace's
// binary format family (see `ihtl_graph::io` for the shared doctrine:
// atomic writes, checksum trailer, one bounds-checked cursor). The loader
// re-validates every invariant the unsafe traversal kernels rely on, so a
// corrupted or adversarial image can only ever produce `InvalidData`.
// ---------------------------------------------------------------------------

const PB_MAGIC: &[u8; 8] = b"IHTLPBG1";

fn pb_invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Streams the `IHTLPBG1` payload (no trailer) to `w`.
pub fn write_pb(pb: &PbGraph, w: &mut dyn Write) -> io::Result<()> {
    w.write_all(PB_MAGIC)?;
    for v in [
        pb.n as u64,
        pb.m as u64,
        pb.seg_shift as u64,
        pb.n_segments as u64,
        pb.ranges.len() as u64,
    ] {
        w.write_all(&v.to_le_bytes())?;
    }
    for r in &pb.ranges {
        w.write_all(&r.start.to_le_bytes())?;
        w.write_all(&r.end.to_le_bytes())?;
    }
    for &o in &pb.src_offsets {
        w.write_all(&o.to_le_bytes())?;
    }
    for &o in &pb.bin_offsets {
        w.write_all(&o.to_le_bytes())?;
    }
    for &d in &pb.binned_dst {
        w.write_all(&d.to_le_bytes())?;
    }
    for &p in &pb.edge_pos {
        w.write_all(&p.to_le_bytes())?;
    }
    w.flush()
}

/// Writes the PB layout to `path`: atomically (sibling temp + rename) and
/// with an FNV-1a-64 checksum trailer (see `ihtl_graph::io::save_atomic`).
pub fn save_pb(pb: &PbGraph, path: &Path) -> io::Result<()> {
    ihtl_graph::io::save_atomic(path, |w| write_pb(pb, w))
}

/// Reads a PB layout previously written by [`save_pb`].
pub fn load_pb(path: &Path) -> io::Result<PbGraph> {
    load_pb_bytes(&std::fs::read(path)?)
}

/// Parses an `IHTLPBG1` image from memory, re-validating every invariant
/// the unsafe [`PbGraph::spmm`] kernels rely on: ranges tiling `0..n`
/// ascending, monotone offset arrays spanning the edge set, bin contents
/// confined to their segment, and `edge_pos` a *permutation* of `0..m`
/// (the scratch-reuse optimisation requires every slot to be overwritten
/// each sweep). Corrupted input yields `InvalidData`, never a panic.
pub fn load_pb_bytes(data: &[u8]) -> io::Result<PbGraph> {
    let mut r = Cursor::new(ihtl_graph::io::verify_trailer(data)?);
    if r.take(8, "magic")? != PB_MAGIC {
        return Err(pb_invalid("bad magic (not an IHTLPBG1 image)"));
    }
    let n = usize::try_from(r.u64("n_vertices")?).map_err(|_| pb_invalid("n_vertices"))?;
    let m = usize::try_from(r.u64("n_edges")?).map_err(|_| pb_invalid("n_edges"))?;
    if n > u32::MAX as usize || m > u32::MAX as usize {
        return Err(pb_invalid("vertex/edge count exceeds u32"));
    }
    let seg_shift_raw = r.u64("seg_shift")?;
    if seg_shift_raw >= usize::BITS as u64 {
        return Err(pb_invalid("seg_shift out of range"));
    }
    let seg_shift = seg_shift_raw as u32;
    let seg_len = 1usize << seg_shift;
    let n_segments = usize::try_from(r.u64("n_segments")?).map_err(|_| pb_invalid("n_segments"))?;
    if n_segments != n.div_ceil(seg_len).max(1) {
        return Err(pb_invalid("n_segments inconsistent with n and seg_shift"));
    }
    let n_ranges = r.len(8, "n_ranges")?;
    if n_ranges == 0 {
        return Err(pb_invalid("no source ranges"));
    }
    let range_words = r.u32s(n_ranges * 2, "ranges")?;
    let mut ranges = Vec::with_capacity(n_ranges);
    let mut words = range_words.iter();
    while let (Some(&start), Some(&end)) = (words.next(), words.next()) {
        ranges.push(VertexRange { start, end });
    }
    let mut expect_start = 0u32;
    for range in &ranges {
        if range.start != expect_start || range.end < range.start {
            return Err(pb_invalid("ranges do not tile 0..n ascending"));
        }
        expect_start = range.end;
    }
    if expect_start as usize != n {
        return Err(pb_invalid("ranges do not end at n"));
    }
    let src_offsets: Vec<EdgeIndex> = r.u64s(n + 1, "src_offsets")?;
    if src_offsets.first() != Some(&0) || src_offsets.last() != Some(&(m as EdgeIndex)) {
        return Err(pb_invalid("src_offsets do not span the edge array"));
    }
    if src_offsets.iter().zip(src_offsets.iter().skip(1)).any(|(a, b)| a > b) {
        return Err(pb_invalid("src_offsets not monotone"));
    }
    let n_bins = n_ranges
        .checked_mul(n_segments)
        .and_then(|b| b.checked_add(1))
        .ok_or_else(|| pb_invalid("bin count overflow"))?;
    let bin_offsets: Vec<EdgeIndex> = r.u64s(n_bins, "bin_offsets")?;
    if bin_offsets.first() != Some(&0) || bin_offsets.last() != Some(&(m as EdgeIndex)) {
        return Err(pb_invalid("bin_offsets do not span the edge slots"));
    }
    if bin_offsets.iter().zip(bin_offsets.iter().skip(1)).any(|(a, b)| a > b) {
        return Err(pb_invalid("bin_offsets not monotone"));
    }
    let binned_dst: Vec<VertexId> = r.u32s(m, "binned_dst")?;
    // Every destination in bin (r, s) must lie inside segment s — the merge
    // kernel subtracts the segment base without checking.
    for (b, (&lo, &hi)) in bin_offsets.iter().zip(bin_offsets.iter().skip(1)).enumerate() {
        let s = b % n_segments;
        let (lo, hi) = (lo as usize, hi as usize);
        for &dst in &binned_dst[lo..hi] {
            if dst as usize >= n || (dst as usize) >> seg_shift != s {
                return Err(pb_invalid("binned destination outside its segment"));
            }
        }
    }
    let edge_pos: Vec<u32> = r.u32s(m, "edge_pos")?;
    let mut seen = vec![false; m];
    for &p in &edge_pos {
        let p = p as usize;
        if p >= m || std::mem::replace(&mut seen[p], true) {
            return Err(pb_invalid("edge_pos is not a permutation of the edge slots"));
        }
    }
    if r.remaining() != 0 {
        return Err(pb_invalid("trailing bytes after edge_pos"));
    }
    Ok(PbGraph {
        n,
        m,
        seg_shift,
        n_segments,
        ranges,
        src_offsets,
        bin_offsets,
        binned_dst,
        edge_pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monoid::{Add, Max, Min};
    use crate::pull::{spmv_pull, spmv_pull_serial};
    use ihtl_gen::prng::Pcg64;

    fn x_for(n: usize) -> Vec<f64> {
        // Non-integer values: PB must match pull bitwise on arbitrary
        // floats, not just where addition is exact.
        (0..n).map(|i| (i * i + 1) as f64 * 0.73 + 0.11).collect()
    }

    fn random_graph(rng: &mut Pcg64, n: usize, m: usize) -> Graph {
        let edges: Vec<(u32, u32)> =
            (0..m).map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32)).collect();
        Graph::from_edges(n, &edges)
    }

    fn assert_bitwise(a: &[f64], b: &[f64], label: &str) {
        assert_eq!(a.len(), b.len(), "{label}");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn matches_pull_bitwise_on_paper_example() {
        let g = ihtl_graph::graph::paper_example_graph();
        let x = x_for(8);
        let mut reference = vec![0.0; 8];
        spmv_pull_serial::<Add>(&g, &x, &mut reference);
        for (budget, parts) in [(8, 1), (8, 3), (16, 2), (1024, 5)] {
            let pb = PbGraph::with_parts(&g, budget, 8, parts);
            assert_eq!(pb.n_edges(), g.n_edges());
            let mut y = vec![f64::NAN; 8];
            let mut scratch = Vec::new();
            pb.spmv::<Add>(&x, &mut y, &mut scratch);
            assert_bitwise(&y, &reference, &format!("budget {budget} parts {parts}"));
        }
    }

    #[test]
    fn matches_pull_bitwise_on_random_graphs_every_monoid() {
        let mut rng = Pcg64::seed_from_u64(0x7b_2026);
        for case in 0..24 {
            let n = 2 + rng.gen_index(120);
            let m = rng.gen_index(4 * n + 1);
            let g = random_graph(&mut rng, n, m);
            let x = x_for(n);
            let budget = 8 << rng.gen_index(5); // 1..16 vertices per segment
            let parts = 1 + rng.gen_index(7);
            let pb = PbGraph::with_parts(&g, budget, 8, parts);
            let mut reference = vec![0.0; n];
            let mut y = vec![f64::NAN; n];
            let mut scratch = Vec::new();
            spmv_pull::<Add>(&g, &x, &mut reference);
            pb.spmv::<Add>(&x, &mut y, &mut scratch);
            assert_bitwise(&y, &reference, &format!("case {case} add"));
            spmv_pull::<Min>(&g, &x, &mut reference);
            pb.spmv::<Min>(&x, &mut y, &mut scratch);
            assert_bitwise(&y, &reference, &format!("case {case} min"));
            spmv_pull::<Max>(&g, &x, &mut reference);
            pb.spmv::<Max>(&x, &mut y, &mut scratch);
            assert_bitwise(&y, &reference, &format!("case {case} max"));
        }
    }

    #[test]
    fn spmm_columns_match_solo_bitwise() {
        let mut rng = Pcg64::seed_from_u64(0x7b_51);
        let g = random_graph(&mut rng, 64, 300);
        let n = g.n_vertices();
        let pb = PbGraph::with_parts(&g, 64, 8, 3);
        for k in [1usize, 3, 4, 8] {
            let cols: Vec<Vec<f64>> = (0..k)
                .map(|j| (0..n).map(|i| (i * (j + 2)) as f64 * 0.37 + 0.1).collect())
                .collect();
            let mut x_m = vec![0.0; n * k];
            for (j, col) in cols.iter().enumerate() {
                for (i, &v) in col.iter().enumerate() {
                    x_m[i * k + j] = v;
                }
            }
            let mut y_m = vec![f64::NAN; n * k];
            let mut scratch = Vec::new();
            pb.spmm::<Add>(&x_m, &mut y_m, k, &mut scratch);
            for (j, col) in cols.iter().enumerate() {
                let mut solo = vec![f64::NAN; n];
                pb.spmv::<Add>(col, &mut solo, &mut scratch);
                for i in 0..n {
                    assert_eq!(y_m[i * k + j].to_bits(), solo[i].to_bits(), "k={k} col {j} v {i}");
                }
            }
        }
    }

    #[test]
    fn vertices_without_in_edges_hold_identity() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 1)]);
        let pb = PbGraph::new(&g, 32, 8);
        let mut y = vec![0.0; 4];
        let mut scratch = Vec::new();
        pb.spmv::<Min>(&[1.0, 2.0, 3.0, 4.0], &mut y, &mut scratch);
        assert_eq!(y[0], f64::INFINITY);
        assert_eq!(y[3], f64::INFINITY);
        assert_eq!(y[1], 1.0);
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = Graph::from_edges(3, &[]);
        let pb = PbGraph::new(&g, 32, 8);
        let mut y = vec![1.0; 3];
        let mut scratch = Vec::new();
        pb.spmv::<Add>(&[0.0; 3], &mut y, &mut scratch);
        assert_eq!(y, vec![0.0; 3]);
    }

    /// The payload `write_pb` streams, before the trailer.
    fn payload_of(pb: &PbGraph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_pb(pb, &mut buf).unwrap();
        buf
    }

    /// A payload under its checksum trailer — a loadable image.
    fn sealed(mut payload: Vec<u8>) -> Vec<u8> {
        ihtl_graph::io::append_trailer(&mut payload);
        payload
    }

    fn assert_invalid(result: io::Result<PbGraph>, label: &str) {
        match result {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{label}"),
            Ok(_) => panic!("{label}: accepted"),
        }
    }

    #[test]
    fn persistence_roundtrip_is_bitwise() {
        let mut rng = Pcg64::seed_from_u64(0x7b_60);
        let dir = std::env::temp_dir().join(format!("ihtl_pb_io_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for case in 0..8 {
            let n = 2 + rng.gen_index(90);
            let m = rng.gen_index(4 * n + 1);
            let g = random_graph(&mut rng, n, m);
            let pb = PbGraph::with_parts(&g, 8 << rng.gen_index(5), 8, 1 + rng.gen_index(6));
            let path = dir.join(format!("case{case}.pb"));
            save_pb(&pb, &path).unwrap();
            let re = load_pb(&path).unwrap();
            // The loaded layout must be field-for-field identical...
            assert_eq!(re.n, pb.n);
            assert_eq!(re.m, pb.m);
            assert_eq!(re.seg_shift, pb.seg_shift);
            assert_eq!(re.n_segments, pb.n_segments);
            assert_eq!(re.ranges, pb.ranges);
            assert_eq!(re.src_offsets, pb.src_offsets);
            assert_eq!(re.bin_offsets, pb.bin_offsets);
            assert_eq!(re.binned_dst, pb.binned_dst);
            assert_eq!(re.edge_pos, pb.edge_pos);
            // ...and traverse bitwise-identically.
            let x = x_for(n);
            let (mut a, mut b) = (vec![f64::NAN; n], vec![f64::NAN; n]);
            let mut scratch = Vec::new();
            pb.spmv::<Add>(&x, &mut a, &mut scratch);
            let mut scratch2 = Vec::new();
            re.spmv::<Add>(&x, &mut b, &mut scratch2);
            assert_bitwise(&a, &b, &format!("case {case}"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_truncation_at_every_prefix() {
        let g = ihtl_graph::graph::paper_example_graph();
        let pb = PbGraph::with_parts(&g, 16, 8, 3);
        let payload = payload_of(&pb);
        let full = sealed(payload.clone());
        assert!(load_pb_bytes(&full).is_ok());
        assert_invalid(load_pb_bytes(&payload), "trailer-less image");
        for cut in 0..full.len() {
            assert_invalid(load_pb_bytes(&full[..cut]), &format!("cut at {cut}"));
        }
        // Truncated payloads under a trailer of their own: the checksum
        // passes, so the cursor's bounds checks are what rejects them.
        for cut in 0..payload.len() {
            assert_invalid(
                load_pb_bytes(&sealed(payload[..cut].to_vec())),
                &format!("sealed cut at {cut}"),
            );
        }
    }

    #[test]
    fn load_rejects_broken_kernel_invariants() {
        let g = ihtl_graph::graph::paper_example_graph();
        let pb = PbGraph::with_parts(&g, 16, 8, 2);
        let base = payload_of(&pb);
        assert!(load_pb_bytes(&sealed(base.clone())).is_ok());
        // Each mutation breaks one invariant the unsafe kernels rely on,
        // under a recomputed trailer: the checksum passes, so the structural
        // checks are the only line of defence.
        let m = pb.m;
        // edge_pos duplicate: two edges sharing a slot breaks scratch reuse.
        let mut img = base.clone();
        let ep_off = img.len() - m * 4;
        img.copy_within(ep_off..ep_off + 4, ep_off + 4);
        assert_invalid(load_pb_bytes(&sealed(img)), "duplicate edge_pos");
        // Out-of-segment destination.
        let mut img = base.clone();
        let bd_off = img.len() - 2 * m * 4;
        img[bd_off] ^= 0x07;
        assert_invalid(load_pb_bytes(&sealed(img)), "out-of-segment destination");
        // Non-monotone src_offsets: corrupt the second offset to be huge.
        let mut img = base.clone();
        let so_off = 48 + pb.ranges.len() * 8 + 8;
        img[so_off + 7] = 0xff;
        assert_invalid(load_pb_bytes(&sealed(img)), "non-monotone src_offsets");
        // Wrong n_segments for the stored seg_shift.
        let mut img = base.clone();
        img[24] ^= 0x01;
        assert_invalid(load_pb_bytes(&sealed(img)), "inconsistent n_segments");
        // Counts larger than the bytes that follow must not size anything.
        for off in [8, 16, 40] {
            let mut img = base.clone();
            img[off..off + 8].copy_from_slice(&(1u64 << 31).to_le_bytes());
            assert_invalid(load_pb_bytes(&sealed(img)), &format!("huge count at {off}"));
        }
    }

    #[test]
    fn layout_accounting_is_consistent() {
        let mut rng = Pcg64::seed_from_u64(0x7b_52);
        let g = random_graph(&mut rng, 100, 400);
        let pb = PbGraph::with_parts(&g, 64, 8, 4);
        assert_eq!(pb.segment_len(), 8);
        assert_eq!(pb.n_segments(), 100usize.div_ceil(8));
        // Bin extents must tile the edge slots exactly.
        assert_eq!(*pb.bin_offsets.last().unwrap() as usize, pb.n_edges());
        assert!(pb.topology_bytes() > 0);
    }
}
