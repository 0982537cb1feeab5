//! Input generation: every graph is an `ihtl-gen` output whose seed derives
//! from the run's single `--seed`. The programs under test only ever see
//! the generated graphs (as `IHTLGRPH` images on disk), never the seed.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ihtl_gen::er::er_edges;
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_gen::weblike::{web_edges, WebParams};
use ihtl_graph::{EdgeList, Graph};

use crate::util::{derive_seed, timed};

/// One generated dataset.
pub struct Input {
    pub name: String,
    pub graph: Arc<Graph>,
    /// FNV-1a of the CSR (the store's dataset address) — printed so two
    /// seeds can be seen to produce different content.
    pub content_hash: u64,
    /// Where [`Input::save`] wrote the image.
    pub image: PathBuf,
}

impl Input {
    fn new(name: &str, graph: Graph) -> Input {
        let content_hash = ihtl_store::dataset_content_hash(&graph);
        Input {
            name: name.to_string(),
            graph: Arc::new(graph),
            content_hash,
            image: PathBuf::new(),
        }
    }

    /// Writes the graph image under `dir` (what `register` is pointed at).
    pub fn save(&mut self, dir: &Path) -> std::io::Result<()> {
        self.image = dir.join(format!("{}.grph", self.name));
        ihtl_graph::io::save_graph(&self.graph, &self.image)
    }

    pub fn n_edges(&self) -> usize {
        self.graph.n_edges()
    }
}

/// Social R-MAT edges generated as two half-size `rmat_edges` samples on two
/// threads (distinct derived seeds), merged and de-duplicated: the union of
/// two R-MAT samples is an R-MAT sample, and the single-threaded generator
/// would otherwise be the longest step of a run. Returns the edges and the
/// per-thread generation rate (edges per second of one `rmat_edges` call).
pub fn rmat_social_2t(scale: u32, target_edges: usize, seed: u64) -> (Vec<(u32, u32)>, f64) {
    let half = target_edges / 2;
    let halves: Vec<(f64, Vec<(u32, u32)>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let sd = derive_seed(seed, &format!("rmat-half-{i}"));
                s.spawn(move || timed(|| rmat_edges(scale, half, RmatParams::social(), sd)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let rate = halves.iter().map(|(secs, e)| e.len() as f64 / secs.max(1e-9)).sum::<f64>() / 2.0;
    let mut edges: Vec<(u32, u32)> = halves.into_iter().flat_map(|(_, e)| e).collect();
    edges.sort_unstable();
    edges.dedup();
    (edges, rate)
}

/// Result of generating a workload's inputs.
pub struct Generated {
    pub inputs: Vec<Input>,
    /// `gen.rmat_edges_per_s` (0 when no R-MAT graph was generated).
    pub rmat_edges_per_s: f64,
    /// `graph.from_edges_s`, summed over the inputs.
    pub from_edges_s: f64,
}

/// `sweep_thrash`: social R-MAT over the full `2^scale` vertex space (no
/// zero-degree compaction — the vertex-data array is the point).
pub const THRASH_SCALE: u32 = 21;
pub const THRASH_EDGES: usize = 1 << 22;

pub fn sweep_thrash(seed: u64) -> Generated {
    let (edges, rate) = rmat_social_2t(THRASH_SCALE, THRASH_EDGES, derive_seed(seed, "thrash"));
    let (secs, g) = timed(|| Graph::from_edges(1 << THRASH_SCALE, &edges));
    Generated { inputs: vec![Input::new("rmat21", g)], rmat_edges_per_s: rate, from_edges_s: secs }
}

/// `sweep_resident`: a hub-free uniform graph and a web-like graph with
/// strong initial locality, both cache-resident.
pub fn sweep_resident(seed: u64) -> Generated {
    let (er, web) = std::thread::scope(|s| {
        let a = s.spawn(|| er_edges(1 << 19, 1 << 21, derive_seed(seed, "er19")));
        let b = s.spawn(|| {
            web_edges(1 << 18, 6 << 18, &WebParams::concentrated(), derive_seed(seed, "web18"))
        });
        (a.join().expect("er generator panicked"), b.join().expect("web generator panicked"))
    });
    let (t1, g1) = timed(|| Graph::from_edges(1 << 19, &er));
    let (t2, g2) = timed(|| Graph::from_edges(1 << 18, &web));
    Generated {
        inputs: vec![Input::new("er19", g1), Input::new("web18", g2)],
        rmat_edges_per_s: 0.0,
        from_edges_s: t1 + t2,
    }
}

/// A compacted social R-MAT graph, built the way the server's own `rmat`
/// source builds one (zero-degree vertices dropped).
fn compact_rmat(scale: u32, edges: usize, seed: u64) -> (Graph, f64, f64) {
    let (gen_s, raw) = timed(|| rmat_edges(scale, edges, RmatParams::social(), seed));
    let rate = raw.len() as f64 / gen_s.max(1e-9);
    let (build_s, g) = timed(|| {
        let mut el = EdgeList::from_edges(1usize << scale, raw);
        el.compact_zero_degree();
        Graph::from_edge_list(&el)
    });
    (g, rate, build_s)
}

/// `serve_mixed`: six social R-MAT datasets, scales 14–17, ten edges per
/// vertex slot (largest ≈ 1.3 M edges). Listed in Zipf popularity order —
/// rank 0 is requested most — with sizes interleaved so both the head and
/// the tail of the popularity curve hold small and large graphs.
pub const SERVE_SCALES: [u32; 6] = [15, 16, 14, 17, 16, 15];

pub fn serve_mixed(seed: u64) -> Generated {
    let built: Vec<(Graph, f64, f64)> = std::thread::scope(|s| {
        // Two generator threads, datasets dealt alternately.
        let handles: Vec<_> = (0..2)
            .map(|t| {
                s.spawn(move || {
                    (t..SERVE_SCALES.len())
                        .step_by(2)
                        .map(|i| {
                            let sc = SERVE_SCALES[i];
                            (
                                i,
                                compact_rmat(
                                    sc,
                                    10 << sc,
                                    derive_seed(seed, &format!("serve-{i}")),
                                ),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(usize, (Graph, f64, f64))> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread panicked"))
            .collect();
        all.sort_by_key(|(i, _)| *i);
        all.into_iter().map(|(_, b)| b).collect()
    });
    let n = built.len() as f64;
    let rate = built.iter().map(|b| b.1).sum::<f64>() / n;
    let from_edges_s = built.iter().map(|b| b.2).sum();
    let inputs = built
        .into_iter()
        .enumerate()
        .map(|(i, (g, _, _))| Input::new(&format!("d{i}s{}", SERVE_SCALES[i]), g))
        .collect();
    Generated { inputs, rmat_edges_per_s: rate, from_edges_s }
}

/// `router_shards`: one social R-MAT dataset, scale 15, 320 k target edges
/// (≈ 21 k vertices after compaction: a `sweep` line is ≈ 0.4 MiB, under
/// the workers' 1 MiB request-line cap).
pub fn router_shards(seed: u64) -> Generated {
    let (g, rate, build_s) = compact_rmat(15, 320_000, derive_seed(seed, "router"));
    Generated {
        inputs: vec![Input::new("shardset", g)],
        rmat_edges_per_s: rate,
        from_edges_s: build_s,
    }
}
