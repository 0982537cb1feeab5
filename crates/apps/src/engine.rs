//! The engine abstraction: one SpMV implementation per served strategy —
//! GraphGrind pull, iHTL, propagation blocking and the iHTL+PB hybrid.
//!
//! An engine owns whatever preprocessed structure its strategy needs (the
//! iHTL graph, the PB bins) plus reusable scratch, and exposes object-safe
//! `spmv_add` / `spmv_min` so the analytic layer can iterate over
//! `dyn SpmvEngine`s uniformly — mirroring how the paper runs the same
//! PageRank in every framework.
//!
//! Engines that keep the input graph around are generic over
//! `Borrow<Graph>`: batch callers pass `&Graph` ([`build_engine`]) and pay
//! no refcount, while long-lived services pass `Arc<Graph>`
//! ([`build_engine_shared`]) so one immutable graph snapshot serves many
//! concurrent engine instances. The expensive iHTL preprocessing is shared
//! the same way: [`ihtl_engine_from_shared`] wraps an existing
//! `Arc<IhtlGraph>` with fresh per-engine scratch buffers.

use std::borrow::Borrow;
use std::sync::Arc;

use ihtl_core::{HybridPlan, IhtlConfig, IhtlGraph, ThreadBuffers};
use ihtl_graph::Graph;
use ihtl_traversal::pb::PbGraph;
use ihtl_traversal::pull::{spmv_pull, spmv_pull_multi};
use ihtl_traversal::{Add, Min};

/// The served traversal strategies: the paper's pull baseline, iHTL, and
/// the propagation-blocking additions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// GraphGrind pull: edge-balanced contiguous partitions.
    PullGraphGrind,
    /// The paper's contribution.
    Ihtl,
    /// Propagation-blocking push: contributions binned by destination
    /// segment, merged segment-by-segment (Balaji & Lucia).
    Pb,
    /// iHTL's blocking with the flipped-block push replaced by the binned
    /// sweep; the sparse pull phase is kept.
    Hybrid,
}

impl EngineKind {
    /// Human-readable label used in harness tables.
    pub fn label(&self) -> &'static str {
        match self {
            EngineKind::PullGraphGrind => "pull/GraphGrind",
            EngineKind::Ihtl => "iHTL",
            EngineKind::Pb => "push/PB",
            EngineKind::Hybrid => "iHTL+PB",
        }
    }

    /// All kinds, in the order the wire vocabulary lists them.
    pub fn all() -> [EngineKind; 4] {
        [EngineKind::Ihtl, EngineKind::PullGraphGrind, EngineKind::Pb, EngineKind::Hybrid]
    }
}

/// An SpMV engine: computes `y[v] = ⊕ x[u]` over in-neighbours, in the
/// engine's own vertex order.
pub trait SpmvEngine {
    /// Number of vertices.
    fn n_vertices(&self) -> usize;

    /// Strategy label for reports.
    fn label(&self) -> &'static str;

    /// Original out-degrees in the engine's vertex order (PageRank divides
    /// contributions by them).
    fn out_degrees(&self) -> &[u32];

    /// `y = A^T ⊕_add x` — one sum-SpMV iteration.
    fn spmv_add(&mut self, x: &[f64], y: &mut [f64]);

    /// `y = A^T ⊕_min x` — one min-SpMV iteration.
    fn spmv_min(&mut self, x: &[f64], y: &mut [f64]);

    /// Maps a vector from the engine's order back to original vertex IDs
    /// (identity for pull and PB).
    fn to_original_order(&self, v: &[f64]) -> Vec<f64> {
        v.to_vec()
    }

    /// Maps a vector from original vertex IDs into the engine's order.
    /// (Takes `&self` deliberately: this is a conversion the engine
    /// performs, not a constructor — hence the lint allow.)
    #[allow(clippy::wrong_self_convention)]
    fn from_original_order(&self, v: &[f64]) -> Vec<f64> {
        v.to_vec()
    }

    /// `Y = A^T ⊕_add X` over `k` interleaved columns per vertex (row-major
    /// `[vertex][k]`, so one vertex's `k` values share a cache line) — one
    /// call serves `k` independent queries. The default de-interleaves into
    /// `k` solo sweeps, which is bitwise identical to `k` separate
    /// [`SpmvEngine::spmv_add`] calls by construction. All four
    /// [`EngineKind`] engines (pull, iHTL, PB, hybrid) have native SpMM
    /// kernels and override it so the `k` queries share a single edge sweep.
    fn spmm_add(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        let n = self.n_vertices();
        spmm_by_columns(n, x, y, k, |xj, yj| self.spmv_add(xj, yj));
    }

    /// `Y = A^T ⊕_min X` over `k` interleaved columns per vertex (see
    /// [`SpmvEngine::spmm_add`] for the layout and the fallback contract).
    fn spmm_min(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        let n = self.n_vertices();
        spmm_by_columns(n, x, y, k, |xj, yj| self.spmv_min(xj, yj));
    }

    /// Engine-order row of every original vertex (`rows[original]`), or
    /// `None` when the engine works in original order (pull and PB). With it
    /// a driver writes a seed or source straight into an engine-order vector
    /// and gathers results back in the pass that produces them, instead of
    /// permuting dense temporaries.
    fn engine_rows(&self) -> Option<&[u32]> {
        None
    }
}

/// The de-interleaving SpMM fallback: runs `solo` on each of the `k`
/// columns of `x`/`y` in turn. Column `j`'s sweep sees exactly the vector a
/// solo run would, so the fallback is bitwise identical to `k` solo runs.
/// At `k = 1` the matrix *is* the column: `solo` runs on it directly, with
/// no copies, so the K = 1 drivers cost these engines nothing extra.
fn spmm_by_columns(
    n: usize,
    x: &[f64],
    y: &mut [f64],
    k: usize,
    mut solo: impl FnMut(&[f64], &mut [f64]),
) {
    assert!(k >= 1, "spmm needs at least one column");
    assert_eq!(x.len(), n * k);
    assert_eq!(y.len(), n * k);
    if k == 1 {
        return solo(x, y);
    }
    let mut xj = vec![0.0; n];
    let mut yj = vec![0.0; n];
    for j in 0..k {
        for (i, slot) in xj.iter_mut().enumerate() {
            *slot = x[i * k + j];
        }
        solo(&xj, &mut yj);
        for (i, &v) in yj.iter().enumerate() {
            y[i * k + j] = v;
        }
    }
}

/// Builds the engine of the given kind over `g`, generic in how the graph
/// is held (`&Graph` or `Arc<Graph>`). The construction cost is the
/// engine's preprocessing (what Table 2 prices for iHTL; PB pays for its
/// bin layout the same way).
fn build_engine_over<'g, G>(
    kind: EngineKind,
    g: G,
    ihtl_cfg: &IhtlConfig,
) -> Box<dyn SpmvEngine + Send + 'g>
where
    G: Borrow<Graph> + Send + 'g,
{
    let gr = g.borrow();
    let out_degrees: Vec<u32> =
        (0..gr.n_vertices() as u32).map(|v| gr.out_degree(v) as u32).collect();
    match kind {
        EngineKind::PullGraphGrind => Box::new(PullGraphGrind { g, out_degrees }),
        EngineKind::Ihtl => {
            let ih = Arc::new(IhtlGraph::build(gr, ihtl_cfg));
            Box::new(ihtl_engine_from_shared(ih))
        }
        EngineKind::Pb => {
            let pb = PbGraph::new(gr, ihtl_cfg.cache_budget_bytes, ihtl_cfg.vertex_data_bytes);
            Box::new(pb_engine_from_shared(Arc::new(pb), out_degrees))
        }
        EngineKind::Hybrid => {
            let ih = Arc::new(IhtlGraph::build(gr, ihtl_cfg));
            Box::new(hybrid_engine_from_shared(ih))
        }
    }
}

/// Builds the engine of the given kind borrowing `g` for the engine's
/// lifetime — the batch/bench entry point.
pub fn build_engine<'g>(
    kind: EngineKind,
    g: &'g Graph,
    ihtl_cfg: &IhtlConfig,
) -> Box<dyn SpmvEngine + Send + 'g> {
    build_engine_over(kind, g, ihtl_cfg)
}

/// Builds an engine that co-owns the graph through an `Arc`, so the result
/// is `'static` and can be pooled in a long-lived service while the same
/// immutable snapshot backs other engines and direct readers.
pub fn build_engine_shared(
    kind: EngineKind,
    g: Arc<Graph>,
    ihtl_cfg: &IhtlConfig,
) -> Box<dyn SpmvEngine + Send> {
    build_engine_over(kind, g, ihtl_cfg)
}

struct PullGraphGrind<G> {
    g: G,
    out_degrees: Vec<u32>,
}

impl<G: Borrow<Graph> + Send> SpmvEngine for PullGraphGrind<G> {
    fn n_vertices(&self) -> usize {
        self.g.borrow().n_vertices()
    }
    fn label(&self) -> &'static str {
        EngineKind::PullGraphGrind.label()
    }
    fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
    fn spmv_add(&mut self, x: &[f64], y: &mut [f64]) {
        spmv_pull::<Add>(self.g.borrow(), x, y);
    }
    fn spmv_min(&mut self, x: &[f64], y: &mut [f64]) {
        spmv_pull::<Min>(self.g.borrow(), x, y);
    }
    // Native SpMM: one edge sweep for all k columns. Pull folds are
    // schedule independent, so each column stays bitwise equal to a solo
    // sweep on any inputs.
    fn spmm_add(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        spmv_pull_multi::<Add>(self.g.borrow(), x, y, k);
    }
    fn spmm_min(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        spmv_pull_multi::<Min>(self.g.borrow(), x, y, k);
    }
}

/// The iHTL engine. `x`/`y` live in the iHTL (new) vertex order; the
/// `to/from_original_order` hooks translate at the analytic boundary.
///
/// The preprocessed graph is held behind an `Arc` so the one-time
/// flipped-block construction (the cost the paper's §4.2 amortises) is
/// shared by every engine instance serving it; only the per-thread hub
/// buffers are private per engine.
pub struct Ihtl {
    pub ih: Arc<IhtlGraph>,
    /// Hub buffers per column count, allocated on first use and reused
    /// across sweeps of the same width (a serving engine sees the same few
    /// K values over and over); the K = 1 buffers exist from construction.
    bufs: Vec<(usize, ThreadBuffers)>,
    out_degrees: Vec<u32>,
}

impl Ihtl {
    /// Access to the underlying iHTL graph (stats, breakdowns).
    pub fn graph(&self) -> &IhtlGraph {
        &self.ih
    }

    /// Runs one SpMV and returns the phase breakdown (Table 5's right
    /// half needs it; the trait method discards it).
    pub fn spmv_add_with_breakdown(
        &mut self,
        x: &[f64],
        y: &mut [f64],
    ) -> ihtl_core::ExecBreakdown {
        self.ih.spmm::<Add>(x, y, 1, buffers(&mut self.bufs, &self.ih, 1))
    }
}

/// The `k`-column buffers in `cache`, allocated for `ih` on first use.
fn buffers<'a>(
    cache: &'a mut Vec<(usize, ThreadBuffers)>,
    ih: &IhtlGraph,
    k: usize,
) -> &'a mut ThreadBuffers {
    let i = match cache.iter().position(|(kk, _)| *kk == k) {
        Some(i) => i,
        None => {
            cache.push((k, ih.new_buffers_multi(k)));
            cache.len() - 1
        }
    };
    &mut cache[i].1
}

impl SpmvEngine for Ihtl {
    fn n_vertices(&self) -> usize {
        self.ih.n_vertices()
    }
    fn label(&self) -> &'static str {
        EngineKind::Ihtl.label()
    }
    fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
    fn spmv_add(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmm_add(x, y, 1);
    }
    fn spmv_min(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmm_min(x, y, 1);
    }
    fn to_original_order(&self, v: &[f64]) -> Vec<f64> {
        self.ih.to_old_order(v)
    }
    fn from_original_order(&self, v: &[f64]) -> Vec<f64> {
        self.ih.to_new_order(v)
    }
    // Native SpMM: the flipped-block push, merge and sparse pull all run
    // k columns wide over one edge sweep (`IhtlGraph::spmm`).
    fn spmm_add(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        self.ih.spmm::<Add>(x, y, k, buffers(&mut self.bufs, &self.ih, k));
    }
    fn spmm_min(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        self.ih.spmm::<Min>(x, y, k, buffers(&mut self.bufs, &self.ih, k));
    }
    fn engine_rows(&self) -> Option<&[u32]> {
        Some(self.ih.old_to_new())
    }
}

/// The propagation-blocking push engine: contributions are binned by
/// destination cache segment during the source sweep, then merged
/// segment-by-segment ([`PbGraph`]). Works in original vertex order, and —
/// unlike an atomic push — is bitwise identical to pull for any monoid and
/// inputs (every edge's bin slot is fixed at build time).
pub struct Pb {
    /// Shared so a disk-loaded layout can back many pooled engines (and
    /// stay resident across engine rebuilds) without copying the bins.
    pb: Arc<PbGraph>,
    /// Per-edge contribution scratch, reused across traversals.
    values: Vec<f64>,
    out_degrees: Vec<u32>,
}

impl SpmvEngine for Pb {
    fn n_vertices(&self) -> usize {
        self.pb.n_vertices()
    }
    fn label(&self) -> &'static str {
        EngineKind::Pb.label()
    }
    fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
    fn spmv_add(&mut self, x: &[f64], y: &mut [f64]) {
        self.pb.spmv::<Add>(x, y, &mut self.values);
    }
    fn spmv_min(&mut self, x: &[f64], y: &mut [f64]) {
        self.pb.spmv::<Min>(x, y, &mut self.values);
    }
    // Native SpMM: bin and merge run k columns wide over one edge sweep;
    // slots are fixed per edge, so each column stays bitwise equal to a
    // solo sweep on any inputs.
    fn spmm_add(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        self.pb.spmm::<Add>(x, y, k, &mut self.values);
    }
    fn spmm_min(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        self.pb.spmm::<Min>(x, y, k, &mut self.values);
    }
}

/// The hybrid engine: iHTL's blocking and sparse pull with the buffered
/// flipped-block push replaced by the binned sweep
/// ([`IhtlGraph::spmv_hybrid`]). Shares the preprocessed graph exactly like
/// [`Ihtl`]; only the per-engine plan values are private.
pub struct Hybrid {
    ih: Arc<IhtlGraph>,
    plan: HybridPlan,
    out_degrees: Vec<u32>,
}

impl SpmvEngine for Hybrid {
    fn n_vertices(&self) -> usize {
        self.ih.n_vertices()
    }
    fn label(&self) -> &'static str {
        EngineKind::Hybrid.label()
    }
    fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
    fn spmv_add(&mut self, x: &[f64], y: &mut [f64]) {
        self.ih.spmv_hybrid::<Add>(x, y, &mut self.plan);
    }
    fn spmv_min(&mut self, x: &[f64], y: &mut [f64]) {
        self.ih.spmv_hybrid::<Min>(x, y, &mut self.plan);
    }
    fn to_original_order(&self, v: &[f64]) -> Vec<f64> {
        self.ih.to_old_order(v)
    }
    fn from_original_order(&self, v: &[f64]) -> Vec<f64> {
        self.ih.to_new_order(v)
    }
    // Native SpMM: the binned push and the sparse pull both run k columns
    // wide over one edge sweep (`IhtlGraph::spmm_hybrid`).
    fn spmm_add(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        self.ih.spmm_hybrid::<Add>(x, y, k, &mut self.plan);
    }
    fn spmm_min(&mut self, x: &[f64], y: &mut [f64], k: usize) {
        self.ih.spmm_hybrid::<Min>(x, y, k, &mut self.plan);
    }
    fn engine_rows(&self) -> Option<&[u32]> {
        Some(self.ih.old_to_new())
    }
}

/// Builds the iHTL engine concretely (callers needing breakdown access).
pub fn build_ihtl_engine(g: &Graph, cfg: &IhtlConfig) -> Ihtl {
    ihtl_engine_from_shared(Arc::new(IhtlGraph::build(g, cfg)))
}

/// Wraps an already-built (possibly disk-loaded) propagation-blocking
/// layout in an engine with fresh contribution scratch. `out_degrees` must
/// be the out-degrees of the graph the layout was built from (the PB image
/// stores topology only; degree data travels with the dataset).
pub fn pb_engine_from_shared(pb: Arc<PbGraph>, out_degrees: Vec<u32>) -> Pb {
    Pb { pb, values: Vec::new(), out_degrees }
}

/// Wraps an already-preprocessed iHTL graph in a hybrid engine with a fresh
/// propagation-blocking plan, sharing the blocked graph like
/// [`ihtl_engine_from_shared`].
pub fn hybrid_engine_from_shared(ih: Arc<IhtlGraph>) -> Hybrid {
    let plan = ih.new_hybrid_plan();
    let out_degrees = ih.out_degree_new().to_vec();
    Hybrid { ih, plan, out_degrees }
}

/// Wraps an already-preprocessed (possibly disk-loaded) iHTL graph in an
/// engine with fresh scratch buffers. Many engines can share one
/// `Arc<IhtlGraph>`, paying the paper's Table 2 preprocessing cost once per
/// dataset rather than once per request.
pub fn ihtl_engine_from_shared(ih: Arc<IhtlGraph>) -> Ihtl {
    let bufs = vec![(1, ih.new_buffers())];
    let out_degrees = ih.out_degree_new().to_vec();
    Ihtl { ih, bufs, out_degrees }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihtl_graph::graph::paper_example_graph;

    #[test]
    fn all_engines_agree_on_spmv_add() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let x: Vec<f64> = (0..8).map(|i| (i + 1) as f64).collect();
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg);
            let xe = e.from_original_order(&x);
            let mut y = vec![0.0; 8];
            e.spmv_add(&xe, &mut y);
            let yo = e.to_original_order(&y);
            match &reference {
                None => reference = Some(yo),
                Some(r) => {
                    for (a, b) in r.iter().zip(&yo) {
                        assert!((a - b).abs() < 1e-9, "{} disagrees", e.label());
                    }
                }
            }
        }
    }

    #[test]
    fn all_engines_agree_on_spmv_min() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let x: Vec<f64> = (0..8).map(|i| ((i * 5) % 7) as f64).collect();
        let mut reference: Option<Vec<f64>> = None;
        for kind in EngineKind::all() {
            let mut e = build_engine(kind, &g, &cfg);
            let xe = e.from_original_order(&x);
            let mut y = vec![0.0; 8];
            e.spmv_min(&xe, &mut y);
            let yo = e.to_original_order(&y);
            match &reference {
                None => reference = Some(yo),
                Some(r) => assert_eq!(r, &yo, "{} disagrees", e.label()),
            }
        }
    }

    #[test]
    fn spmm_matches_solo_spmv_per_column_on_every_engine() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let n = 8;
        for kind in EngineKind::all() {
            for k in [1usize, 4, 8] {
                let mut e = build_engine(kind, &g, &cfg);
                // Columns live in engine order throughout: the kernels
                // never see original IDs. Integer-valued for Add (exact
                // under any combine grouping, so bitwise on every engine);
                // Min is exact on any values, so its inputs are not.
                let add_cols: Vec<Vec<f64>> = (0..k)
                    .map(|j| (0..n).map(|i| ((i * 3 + j * 5) % 11) as f64).collect())
                    .collect();
                let min_cols: Vec<Vec<f64>> = (0..k)
                    .map(|j| (0..n).map(|i| ((i * k + j) as f64) * 0.37 + 0.25).collect())
                    .collect();
                for (cols, add) in [(&add_cols, true), (&min_cols, false)] {
                    let mut x_m = vec![0.0; n * k];
                    for (j, col) in cols.iter().enumerate() {
                        for (i, &v) in col.iter().enumerate() {
                            x_m[i * k + j] = v;
                        }
                    }
                    let mut y_m = vec![f64::NAN; n * k];
                    if add {
                        e.spmm_add(&x_m, &mut y_m, k);
                    } else {
                        e.spmm_min(&x_m, &mut y_m, k);
                    }
                    for (j, col) in cols.iter().enumerate() {
                        let mut solo = vec![f64::NAN; n];
                        if add {
                            e.spmv_add(col, &mut solo);
                        } else {
                            e.spmv_min(col, &mut solo);
                        }
                        for v in 0..n {
                            assert_eq!(
                                y_m[v * k + j].to_bits(),
                                solo[v].to_bits(),
                                "{} add={add} k={k} column {j} vertex {v}",
                                e.label()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn engine_rows_agree_with_the_permutation_hooks() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let v: Vec<f64> = (0..8).map(|i| (i * i) as f64 + 0.5).collect();
        for kind in EngineKind::all() {
            let e = build_engine(kind, &g, &cfg);
            let relabels = matches!(kind, EngineKind::Ihtl | EngineKind::Hybrid);
            assert_eq!(e.engine_rows().is_some(), relabels, "{kind:?}");
            let ve = e.from_original_order(&v);
            for (o, &x) in v.iter().enumerate() {
                let row = e.engine_rows().map_or(o, |rows| rows[o] as usize);
                assert_eq!(ve[row], x, "{kind:?} vertex {o}");
            }
            assert_eq!(e.to_original_order(&ve), v, "{kind:?}");
        }
    }

    #[test]
    fn out_degrees_follow_engine_order() {
        let g = paper_example_graph();
        let cfg = IhtlConfig { cache_budget_bytes: 16, ..IhtlConfig::default() };
        let e = build_ihtl_engine(&g, &cfg);
        // New ID 0 is old vertex 2 with out-degree 1.
        assert_eq!(e.out_degrees()[0], 1);
        // New ID 4 is old vertex 5 with out-degree 4.
        assert_eq!(e.out_degrees()[4], 4);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            EngineKind::all().iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), 4);
    }
}
