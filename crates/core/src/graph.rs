//! The iHTL graph structure (paper §3.1, Figure 3).
//!
//! After relabeling, the adjacency matrix decomposes into:
//!
//! * **flipped blocks** — the in-edges of in-hubs, stored row-major over the
//!   *sources* (push direction), with block-local hub indices as targets;
//! * a **sparse block** — the in-edges of non-hubs, stored column-major over
//!   the *destinations* (pull direction);
//! * a **zero block** — fringe vertices have no edges to hubs, so the rows
//!   of the flipped blocks only span `hubs ∪ VWEH` (the ∅ region of
//!   Figure 3).

use ihtl_graph::partition::VertexRange;
use ihtl_graph::{Csr, VertexId, NEIGHBOUR_BYTES};

use crate::stats::BuildStats;

/// Classification of a vertex in the iHTL ordering (paper §3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VertexClass {
    /// An in-hub: its incoming edges live in a flipped block.
    Hub,
    /// A vertex with at least one edge to an in-hub.
    Vweh,
    /// A fringe vertex: no edges to in-hubs.
    Fringe,
}

/// One flipped block: the incoming edges of `H` consecutive hubs, stored in
/// push direction.
///
/// Rows are *compacted*: only sources with at least one edge into this
/// block's hubs get a row, and `srcs[row]` names the source (a new ID in
/// `0..n_active`, strictly ascending). On skewed graphs most active
/// vertices feed only a few blocks, so without compaction the push phase
/// would scan `n_active × #FB` rows per iteration just to skip the empty
/// ones — the dominant fraction of flipped-block time once the edge loops
/// themselves are tight.
#[derive(Clone, Debug)]
pub struct FlippedBlock {
    /// New-ID range `[hub_start, hub_end)` of this block's hubs.
    pub hub_start: VertexId,
    pub hub_end: VertexId,
    /// `srcs[row]` = new source ID of compacted row `row`; strictly
    /// ascending, every listed source has ≥ 1 edge in this block.
    pub srcs: Vec<VertexId>,
    /// Row `row` (indexing `srcs`) lists *block-local* hub indices
    /// (`new_dst - hub_start`) — u32 offsets into the per-thread buffer.
    pub edges: Csr,
}

impl FlippedBlock {
    /// Number of hubs in the block.
    pub fn n_hubs(&self) -> usize {
        (self.hub_end - self.hub_start) as usize
    }

    /// Number of edges in the block.
    pub fn n_edges(&self) -> usize {
        self.edges.n_edges()
    }

    /// Number of compacted rows (= distinct sources feeding this block).
    pub fn n_srcs(&self) -> usize {
        self.srcs.len()
    }
}

/// The preprocessed iHTL graph (paper Figure 3): relabeling + flipped
/// blocks + sparse block, ready for [`IhtlGraph::spmv`].
#[derive(Clone, Debug)]
pub struct IhtlGraph {
    pub(crate) n: usize,
    pub(crate) n_hubs: usize,
    pub(crate) n_vweh: usize,
    /// `new_to_old[new] = old` — the relabeling array of Figure 4.
    pub(crate) new_to_old: Vec<VertexId>,
    /// `old_to_new[old] = new`.
    pub(crate) old_to_new: Vec<VertexId>,
    pub(crate) blocks: Vec<FlippedBlock>,
    /// CSC over new IDs, rows indexed by `new_dst - n_hubs` (destinations
    /// `n_hubs..n`), targets are new source IDs.
    pub(crate) sparse: Csr,
    /// Original out-degree of each vertex, indexed by NEW id (PageRank needs
    /// it and relabeling must not recompute it per iteration).
    pub(crate) out_degree_new: Vec<u32>,
    /// Precomputed (block, source-chunk) push tasks, edge-balanced within
    /// each block, so iterations allocate nothing.
    pub(crate) push_tasks: Vec<(u32, VertexRange)>,
    /// Precomputed (block, hub-range) merge tasks: chunks clipped at block
    /// boundaries, contiguously tiling `0..n_hubs`, so the merge phase can
    /// consult per-(worker × block) dirty stamps without per-iteration
    /// bookkeeping.
    pub(crate) merge_tasks: Vec<(u32, VertexRange)>,
    /// Precomputed edge-balanced destination ranges of the sparse block
    /// (pull phase), contiguously tiling `0..n - n_hubs`.
    pub(crate) sparse_tasks: Vec<VertexRange>,
    pub(crate) stats: BuildStats,
}

impl IhtlGraph {
    /// Number of vertices.
    pub fn n_vertices(&self) -> usize {
        self.n
    }

    /// Total number of edges (flipped + sparse).
    pub fn n_edges(&self) -> usize {
        self.stats.fb_edges + self.stats.sparse_edges
    }

    /// Number of flipped blocks (#FB).
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of in-hubs.
    pub fn n_hubs(&self) -> usize {
        self.n_hubs
    }

    /// Number of VWEH vertices.
    pub fn n_vweh(&self) -> usize {
        self.n_vweh
    }

    /// Number of fringe vertices.
    pub fn n_fringe(&self) -> usize {
        self.n - self.n_hubs - self.n_vweh
    }

    /// Number of *active* rows of the flipped blocks (`hubs ∪ VWEH`).
    pub fn n_active(&self) -> usize {
        self.n_hubs + self.n_vweh
    }

    /// The flipped blocks.
    pub fn blocks(&self) -> &[FlippedBlock] {
        &self.blocks
    }

    /// The sparse block (CSC rows indexed by `new_dst - n_hubs`).
    pub fn sparse(&self) -> &Csr {
        &self.sparse
    }

    /// Construction statistics (Table 5 left half).
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }

    /// The relabeling array: `new_to_old[new] = old` (Figure 4).
    pub fn new_to_old(&self) -> &[VertexId] {
        &self.new_to_old
    }

    /// Inverse relabeling: `old_to_new[old] = new`.
    pub fn old_to_new(&self) -> &[VertexId] {
        &self.old_to_new
    }

    /// Original out-degrees, indexed by new ID.
    pub fn out_degree_new(&self) -> &[u32] {
        &self.out_degree_new
    }

    /// Classification of a vertex by NEW id.
    pub fn class_of_new(&self, new: VertexId) -> VertexClass {
        let v = new as usize;
        if v < self.n_hubs {
            VertexClass::Hub
        } else if v < self.n_hubs + self.n_vweh {
            VertexClass::Vweh
        } else {
            VertexClass::Fringe
        }
    }

    /// Permutes a vector from old-ID indexing to new-ID indexing.
    pub fn to_new_order(&self, old: &[f64]) -> Vec<f64> {
        assert_eq!(old.len(), self.n);
        ihtl_parallel::par_map(&self.new_to_old, PERMUTE_GRAIN, |&o| old[o as usize])
    }

    /// Permutes a vector from new-ID indexing back to old-ID indexing — a
    /// gather through the inverse relabeling, so the output is written
    /// sequentially (and in parallel) like [`IhtlGraph::to_new_order`]'s.
    pub fn to_old_order(&self, new: &[f64]) -> Vec<f64> {
        assert_eq!(new.len(), self.n);
        ihtl_parallel::par_map(&self.old_to_new, PERMUTE_GRAIN, |&v| new[v as usize])
    }

    /// [`IhtlGraph::to_new_order`] for `k` interleaved columns per vertex
    /// (`v * k + j` holds vertex `v`, column `j`). A pure permutation of
    /// whole `k`-wide rows — bitwise equal to permuting each column solo.
    pub fn to_new_order_multi(&self, old: &[f64], k: usize) -> Vec<f64> {
        gather_rows(&self.new_to_old, old, k)
    }

    /// [`IhtlGraph::to_old_order`] for `k` interleaved columns per vertex.
    pub fn to_old_order_multi(&self, new: &[f64], k: usize) -> Vec<f64> {
        gather_rows(&self.old_to_new, new, k)
    }

    /// Topology bytes of the iHTL representation (Table 4): per-block CSR
    /// index + targets + source map, the sparse block, and the relabeling
    /// arrays. The growth over plain CSC "results from replication of the
    /// index array for each block" (§4.4) — row compaction bounds that
    /// replication by the sources actually feeding each block.
    pub fn topology_bytes(&self) -> u64 {
        let blocks: u64 = self
            .blocks
            .iter()
            .map(|b| b.edges.topology_bytes() + (b.srcs.len() * NEIGHBOUR_BYTES) as u64)
            .sum();
        let sparse = self.sparse.topology_bytes();
        let relabel = (2 * self.n * NEIGHBOUR_BYTES) as u64;
        blocks + sparse + relabel
    }
}

/// Elements per task of the permutation gathers.
const PERMUTE_GRAIN: usize = 4096;

/// `out` row `r` is `v` row `from[r]`, `k` values per row: a parallel gather
/// whose output is written sequentially.
fn gather_rows(from: &[VertexId], v: &[f64], k: usize) -> Vec<f64> {
    assert!(k >= 1);
    assert_eq!(v.len(), from.len() * k);
    let rows_per_task = (PERMUTE_GRAIN / k).max(1);
    let mut out = vec![0.0; v.len()];
    ihtl_parallel::par_chunks_mut(&mut out, rows_per_task * k, |ci, chunk| {
        let from = &from[ci * rows_per_task..];
        for (row, &src) in chunk.chunks_exact_mut(k).zip(from) {
            row.copy_from_slice(&v[src as usize * k..src as usize * k + k]);
        }
    });
    out
}
