//! Figure 7's framework baselines — push (GraphGrind, GraphIt) and pull
//! (GraphIt, Galois) — as one `SpmvEngine` adapter over the traversal
//! kernels. Nothing serves them; the adapter lets every figure column run
//! the same PageRank driver as the served engines.

use ihtl_apps::engine::{build_engine, EngineKind, SpmvEngine};
use ihtl_core::IhtlConfig;
use ihtl_graph::Graph;
use ihtl_traversal::pull::{default_parts, spmv_pull_chunked, spmv_pull_segmented, SegmentedCsc};
use ihtl_traversal::push::{spmv_push_atomic, spmv_push_partitioned, DstPartitionedCsr};
use ihtl_traversal::{Add, Min, Monoid};

/// One Figure 7 column: a framework baseline or a served engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Column {
    /// GraphGrind push: destination-partitioned, race-free.
    PushGraphGrind,
    /// GraphIt push: atomic CAS updates.
    PushGraphIt,
    /// GraphIt pull: Cagra-style source-segmented CSC.
    PullGraphIt,
    /// Galois pull: fine-grained chunked scheduling.
    PullGalois,
    /// A served engine (GraphGrind pull, iHTL, PB, the hybrid).
    Engine(EngineKind),
}

impl Column {
    /// Figure 7's columns in the paper's order, with the
    /// propagation-blocking additions appended.
    pub const FIG7: [Column; 8] = [
        Column::PushGraphGrind,
        Column::PushGraphIt,
        Column::Engine(EngineKind::PullGraphGrind),
        Column::PullGraphIt,
        Column::PullGalois,
        Column::Engine(EngineKind::Ihtl),
        Column::Engine(EngineKind::Pb),
        Column::Engine(EngineKind::Hybrid),
    ];

    /// Human-readable label used in harness tables.
    pub fn label(self) -> &'static str {
        match self {
            Column::PushGraphGrind => "push/GraphGrind",
            Column::PushGraphIt => "push/GraphIt",
            Column::PullGraphIt => "pull/GraphIt",
            Column::PullGalois => "pull/Galois",
            Column::Engine(kind) => kind.label(),
        }
    }

    /// Builds the column's engine over `g`. The construction cost is the
    /// strategy's preprocessing (what Table 2 prices for iHTL).
    pub fn build<'g>(self, g: &'g Graph, cfg: &IhtlConfig) -> Box<dyn SpmvEngine + Send + 'g> {
        let kernel = match self {
            Column::Engine(kind) => return build_engine(kind, g, cfg),
            Column::PushGraphGrind => {
                Kernel::Partitioned(DstPartitionedCsr::new(g, default_parts()))
            }
            Column::PushGraphIt => Kernel::Atomic(g),
            // Segment width sized so a segment's source data fits the same
            // cache budget iHTL uses (Cagra's sizing rule).
            Column::PullGraphIt => Kernel::Segmented(SegmentedCsc::new(
                g,
                (cfg.cache_budget_bytes / cfg.vertex_data_bytes).max(1),
            )),
            Column::PullGalois => Kernel::Chunked(g),
        };
        let out_degrees = (0..g.n_vertices() as u32).map(|v| g.out_degree(v) as u32).collect();
        Box::new(Baseline { label: self.label(), kernel, out_degrees })
    }
}

/// The traversal kernel of each framework baseline, with its layout.
enum Kernel<'g> {
    Partitioned(DstPartitionedCsr),
    Atomic(&'g Graph),
    Segmented(SegmentedCsc),
    Chunked(&'g Graph),
}

/// A framework baseline as an engine: works in original vertex order.
struct Baseline<'g> {
    label: &'static str,
    kernel: Kernel<'g>,
    out_degrees: Vec<u32>,
}

impl Baseline<'_> {
    fn run<M: Monoid>(&self, x: &[f64], y: &mut [f64]) {
        match &self.kernel {
            Kernel::Partitioned(part) => spmv_push_partitioned::<M>(part, x, y),
            Kernel::Atomic(g) => spmv_push_atomic::<M>(g, x, y),
            Kernel::Segmented(seg) => spmv_pull_segmented::<M>(seg, x, y),
            Kernel::Chunked(g) => spmv_pull_chunked::<M>(g, x, y, 256), // vertices per chunk
        }
    }
}

impl SpmvEngine for Baseline<'_> {
    fn n_vertices(&self) -> usize {
        self.out_degrees.len()
    }
    fn label(&self) -> &'static str {
        self.label
    }
    fn out_degrees(&self) -> &[u32] {
        &self.out_degrees
    }
    fn spmv_add(&mut self, x: &[f64], y: &mut [f64]) {
        self.run::<Add>(x, y);
    }
    fn spmv_min(&mut self, x: &[f64], y: &mut [f64]) {
        self.run::<Min>(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihtl_apps::pagerank::pagerank;
    use ihtl_apps::sssp::sssp;
    use ihtl_gen::rmat::{rmat_edges, RmatParams};
    use ihtl_graph::graph::paper_example_graph;

    #[test]
    fn baselines_match_pull_on_pagerank_and_sssp() {
        let cfg = IhtlConfig { cache_budget_bytes: 24, ..IhtlConfig::default() };
        let rmat = rmat_edges(10, 6_000, RmatParams::social(), 0xB45E);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for g in [paper_example_graph(), Graph::from_edges(1 << 10, &rmat)] {
            let mut pull = build_engine(EngineKind::PullGraphGrind, &g, &cfg);
            let (ranks, dist) =
                (pagerank(pull.as_mut(), 10).ranks, sssp(pull.as_mut(), 0, 100).dist);
            for column in Column::FIG7.into_iter().filter(|c| !matches!(c, Column::Engine(_))) {
                let mut e = column.build(&g, &cfg);
                let r = pagerank(e.as_mut(), 10).ranks;
                assert_eq!(r.len(), ranks.len(), "{column:?}");
                assert!(ranks.iter().zip(&r).all(|(a, b)| (a - b).abs() <= 1e-10), "{column:?}");
                assert_eq!(bits(&sssp(e.as_mut(), 0, 100).dist), bits(&dist), "{column:?}");
            }
        }
    }

    #[test]
    fn fig7_columns_keep_the_paper_order() {
        let labels = Column::FIG7.map(Column::label);
        assert_eq!(
            labels[..4],
            ["push/GraphGrind", "push/GraphIt", "pull/GraphGrind", "pull/GraphIt"]
        );
        assert_eq!(labels[4..], ["pull/Galois", "iHTL", "push/PB", "iHTL+PB"]);
    }
}
