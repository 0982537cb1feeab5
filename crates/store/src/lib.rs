//! # ihtl-store — durable content-addressed artifact store
//!
//! The paper amortises iHTL preprocessing by keeping the transformed graph
//! on disk in its binary format (§4.2, Table 2: preprocessing costs several
//! full SpMV sweeps). This crate is the workspace's durable tier for that
//! amortisation: a content-addressed on-disk store for *preprocessed*
//! artifacts — `IhtlGraph` images (`IHTLBLK2`) and `PbGraph` layouts
//! (`IHTLPBG1`) — shared by the serve registry, the CLI, and the benches.
//!
//! ## Addressing
//!
//! An artifact is keyed by `(dataset content hash, artifact kind,
//! config key, format version)` and stored at
//!
//! ```text
//! <root>/<kind>/<dataset_hash:016x>-<config_key:016x>-v<version>.blk
//! ```
//!
//! * The **dataset content hash** is the FNV-1a-64 of the graph's CSR
//!   (vertex count, edge count, offsets, targets). Two registrations of
//!   bitwise-identical topology share artifacts no matter how they were
//!   named or produced; a reordered copy of the same graph hashes
//!   differently — as it must, since preprocessed images bake the
//!   permutation in (PAPERS.md: Faldu et al., arXiv:2001.08448).
//! * The **config key** hashes every construction parameter that changes
//!   the artifact's bytes. For iHTL images the partition count is
//!   *excluded* (tasks are rebuilt at load; the blocked structure is
//!   parts-independent); for PB layouts it is *included* (the bin layout
//!   depends on the source ranges, and the default partition count is
//!   machine-dependent).
//! * The **format version** tracks the on-disk magic, so a format bump
//!   simply misses instead of mis-parsing.
//!
//! ## Doctrine
//!
//! Writes are atomic and checksum-trailered (`ihtl_graph::io::save_atomic`
//! — sibling temp + rename, FNV-1a-64 trailer). Loads verify the trailer
//! and then full structural validation via the hardened `load_ihtl` /
//! `load_pb` / `load_graph` paths. A file that fails either check is **quarantined** —
//! renamed to `<name>.corrupt` — and reported as a miss, so the caller
//! rebuilds and the store heals by write-back; serving never fails on a
//! bad image. I/O errors on write-back are returned to the caller but are
//! safe to ignore (the store is a cache, not the source of truth).
//!
//! Counters (`hits`/`misses`/`writes`/`quarantined`) are plain atomics
//! surfaced by the serve `stats` endpoint; `store_load` / `store_write`
//! spans bracket the disk work (the trace crate owns the clock — this
//! crate takes no timestamps of its own).

#![forbid(unsafe_code)]

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use ihtl_core::config::IhtlConfig;
use ihtl_core::graph::IhtlGraph;
use ihtl_graph::io::Fnv1a;
use ihtl_graph::Graph;
use ihtl_traversal::pb::PbGraph;

/// Artifact kinds the store can hold. The wire name doubles as the
/// subdirectory name under the store root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactKind {
    /// A preprocessed iHTL graph (`IHTLBLK2`).
    Ihtl,
    /// A propagation-blocking layout (`IHTLPBG1`).
    Pb,
    /// A destination-range shard graph (`IHTLGRPH`), extracted for one
    /// worker of a sharded deployment.
    Shard,
}

impl ArtifactKind {
    fn dir(self) -> &'static str {
        match self {
            ArtifactKind::Ihtl => "ihtl",
            ArtifactKind::Pb => "pb",
            ArtifactKind::Shard => "shard",
        }
    }

    /// On-disk format version; bump alongside the format magic so stale
    /// images miss instead of mis-parsing.
    fn version(self) -> u32 {
        match self {
            ArtifactKind::Ihtl => 2,  // IHTLBLK2
            ArtifactKind::Pb => 1,    // IHTLPBG1
            ArtifactKind::Shard => 1, // IHTLGRPH
        }
    }
}

/// A fully resolved artifact address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoreKey {
    pub kind: ArtifactKind,
    pub dataset_hash: u64,
    pub config_key: u64,
}

impl StoreKey {
    fn file_name(&self) -> String {
        format!("{:016x}-{:016x}-v{}.blk", self.dataset_hash, self.config_key, self.kind.version())
    }
}

/// Snapshot of the store's lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreCounters {
    pub hits: u64,
    pub misses: u64,
    pub writes: u64,
    pub quarantined: u64,
}

/// Content-addressed on-disk store for preprocessed graph artifacts.
pub struct BlockStore {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
}

impl BlockStore {
    /// Opens (creating if needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<BlockStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(BlockStore {
            root,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        })
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The on-disk path an artifact with `key` would occupy.
    pub fn path_for(&self, key: StoreKey) -> PathBuf {
        self.root.join(key.kind.dir()).join(key.file_name())
    }

    /// Lifetime counters since open.
    pub fn counters(&self) -> StoreCounters {
        StoreCounters {
            // ORDERING: Relaxed — all four are monotonic stats counters
            // read for reporting; no data is published through them
            // (holds for every counter op in this file).
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed), // ORDERING: as above
        }
    }

    /// Loads and validates the artifact at `key`, or `None` on a miss.
    /// A present-but-invalid file (torn write survivor, bit rot, stale
    /// format) is quarantined — renamed to `<name>.corrupt` — and counts
    /// as a miss, so the caller rebuilds and write-back heals the store.
    fn load_bytes(&self, key: StoreKey) -> Option<Vec<u8>> {
        let path = self.path_for(key);
        match std::fs::read(&path) {
            Ok(data) => Some(data),
            Err(_) => {
                // ORDERING: Relaxed — stats counter; see counters().
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn quarantine(&self, key: StoreKey) {
        let path = self.path_for(key);
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        // Best-effort: if the rename fails too, the next load re-detects
        // the corruption and retries; never fail the caller over it.
        let _ = std::fs::rename(&path, PathBuf::from(corrupt));
        // ORDERING: Relaxed — stats counters; see counters().
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Loads a preprocessed iHTL graph, or `None` (miss or quarantined).
    pub fn load_ihtl(&self, dataset_hash: u64, cfg: &IhtlConfig) -> Option<IhtlGraph> {
        let key = ihtl_key(dataset_hash, cfg);
        let _span = ihtl_trace::span("store_load").with_arg(key.config_key);
        let data = self.load_bytes(key)?;
        match ihtl_core::io::load_ihtl_bytes(&data) {
            Ok(ih) => {
                // ORDERING: Relaxed — stats counter; see counters().
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(ih)
            }
            Err(_) => {
                self.quarantine(key);
                None
            }
        }
    }

    /// Write-back of a freshly built iHTL graph (atomic + trailered).
    pub fn save_ihtl(&self, dataset_hash: u64, cfg: &IhtlConfig, ih: &IhtlGraph) -> io::Result<()> {
        let key = ihtl_key(dataset_hash, cfg);
        let _span = ihtl_trace::span("store_write").with_arg(key.config_key);
        let path = self.path_for(key);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        ihtl_core::io::save_ihtl(ih, &path)?;
        // ORDERING: Relaxed — stats counter; see counters().
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads a PB layout built with `parts` partitions, or `None`.
    pub fn load_pb(&self, dataset_hash: u64, cfg: &IhtlConfig, parts: usize) -> Option<PbGraph> {
        let key = pb_key(dataset_hash, cfg, parts);
        let _span = ihtl_trace::span("store_load").with_arg(key.config_key);
        let data = self.load_bytes(key)?;
        match ihtl_traversal::pb::load_pb_bytes(&data) {
            Ok(pb) => {
                // ORDERING: Relaxed — stats counter; see counters().
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(pb)
            }
            Err(_) => {
                self.quarantine(key);
                None
            }
        }
    }

    /// Write-back of a freshly built PB layout (atomic + trailered).
    pub fn save_pb(
        &self,
        dataset_hash: u64,
        cfg: &IhtlConfig,
        parts: usize,
        pb: &PbGraph,
    ) -> io::Result<()> {
        let key = pb_key(dataset_hash, cfg, parts);
        let _span = ihtl_trace::span("store_write").with_arg(key.config_key);
        let path = self.path_for(key);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        ihtl_traversal::pb::save_pb(pb, &path)?;
        // ORDERING: Relaxed — stats counter; see counters().
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Loads a destination-range shard graph (`sym` selects the shard of
    /// the symmetrized base), or `None` (miss or quarantined). Keyed by
    /// the *base* graph's content hash plus `(index, count, sym)` — the
    /// shard's own hash isn't known until after extraction, which is
    /// exactly the work the store amortises.
    pub fn load_shard_graph(
        &self,
        base_hash: u64,
        index: usize,
        count: usize,
        sym: bool,
    ) -> Option<Graph> {
        let key = shard_key(base_hash, index, count, sym);
        let _span = ihtl_trace::span("store_load").with_arg(key.config_key);
        let data = self.load_bytes(key)?;
        match ihtl_graph::io::load_graph_bytes(&data) {
            Ok(g) => {
                // ORDERING: Relaxed — stats counter; see counters().
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(g)
            }
            Err(_) => {
                self.quarantine(key);
                None
            }
        }
    }

    /// Write-back of a freshly extracted shard (atomic + trailered).
    pub fn save_shard_graph(
        &self,
        base_hash: u64,
        index: usize,
        count: usize,
        sym: bool,
        g: &Graph,
    ) -> io::Result<()> {
        let key = shard_key(base_hash, index, count, sym);
        let _span = ihtl_trace::span("store_write").with_arg(key.config_key);
        let path = self.path_for(key);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        ihtl_graph::io::save_graph(g, &path)?;
        // ORDERING: Relaxed — stats counter; see counters().
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// FNV-1a-64 over the graph's CSR: vertex count, edge count, offsets,
/// targets. Identical topology ⇒ identical hash, independent of how the
/// graph was produced or named; any permutation or edit changes it.
pub fn dataset_content_hash(g: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&(g.n_vertices() as u64).to_le_bytes());
    h.write(&(g.n_edges() as u64).to_le_bytes());
    for &o in g.csr().offsets() {
        h.write(&o.to_le_bytes());
    }
    for &t in g.csr().targets() {
        h.write(&t.to_le_bytes());
    }
    h.finish()
}

/// Config key for iHTL images: every parameter that changes the blocked
/// structure's bytes. `parts` is deliberately excluded — the per-phase
/// task lists are rebuilt at load time for the loading machine.
pub fn ihtl_config_key(cfg: &IhtlConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"ihtl-cfg-v1");
    h.write(&(cfg.cache_budget_bytes as u64).to_le_bytes());
    h.write(&(cfg.vertex_data_bytes as u64).to_le_bytes());
    h.write(&cfg.acceptance_ratio.to_bits().to_le_bytes());
    match cfg.max_blocks {
        None => h.write(&[0]),
        Some(mb) => {
            h.write(&[1]);
            h.write(&(mb as u64).to_le_bytes());
        }
    }
    h.write(&[cfg.separate_fringe as u8]);
    match cfg.block_count {
        ihtl_core::config::BlockCountMode::Exact => h.write(&[0]),
        ihtl_core::config::BlockCountMode::SinglePass { max_blocks } => {
            h.write(&[1]);
            h.write(&(max_blocks as u64).to_le_bytes());
        }
    }
    h.finish()
}

/// Config key for PB layouts. Unlike iHTL, the partition count is part of
/// the artifact (bin extents are per source range), and the *default*
/// partition count is machine-dependent — so it must be in the key or
/// artifacts would silently alias across machines and thread counts.
pub fn pb_config_key(cfg: &IhtlConfig, parts: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"pb-cfg-v1");
    h.write(&(cfg.cache_budget_bytes as u64).to_le_bytes());
    h.write(&(cfg.vertex_data_bytes as u64).to_le_bytes());
    h.write(&(parts as u64).to_le_bytes());
    h.finish()
}

/// Config key for shard graphs: the partition coordinates and which view
/// (raw or symmetrized base) was sharded. The partition itself is a pure
/// function of the base graph, which the dataset hash already pins.
pub fn shard_config_key(index: usize, count: usize, sym: bool) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"shard-cfg-v1");
    h.write(&(index as u64).to_le_bytes());
    h.write(&(count as u64).to_le_bytes());
    h.write(&[sym as u8]);
    h.finish()
}

fn shard_key(base_hash: u64, index: usize, count: usize, sym: bool) -> StoreKey {
    StoreKey {
        kind: ArtifactKind::Shard,
        dataset_hash: base_hash,
        config_key: shard_config_key(index, count, sym),
    }
}

fn ihtl_key(dataset_hash: u64, cfg: &IhtlConfig) -> StoreKey {
    StoreKey { kind: ArtifactKind::Ihtl, dataset_hash, config_key: ihtl_config_key(cfg) }
}

fn pb_key(dataset_hash: u64, cfg: &IhtlConfig, parts: usize) -> StoreKey {
    StoreKey { kind: ArtifactKind::Pb, dataset_hash, config_key: pb_config_key(cfg, parts) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihtl_gen::prng::Pcg64;

    fn temp_store(tag: &str) -> BlockStore {
        let dir = std::env::temp_dir().join(format!("ihtl_store_{}_{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        BlockStore::open(dir).unwrap()
    }

    fn random_graph(rng: &mut Pcg64, n: usize, m: usize) -> Graph {
        let edges: Vec<(u32, u32)> =
            (0..m).map(|_| (rng.gen_index(n) as u32, rng.gen_index(n) as u32)).collect();
        Graph::from_edges(n, &edges)
    }

    fn spmv_values(ih: &IhtlGraph) -> Vec<f64> {
        // One SpMV sweep: enough to make any structural difference in the
        // loaded image visible bitwise.
        let n = ih.n_vertices();
        let x: Vec<f64> = (0..n).map(|i| (i + 1) as f64 * 0.37).collect();
        let x_new = ih.to_new_order(&x);
        let mut y_new = vec![0.0; n];
        let mut bufs = ih.new_buffers();
        ih.spmv::<ihtl_traversal::Add>(&x_new, &mut y_new, &mut bufs);
        ih.to_old_order(&y_new)
    }

    #[test]
    fn ihtl_roundtrip_is_bitwise_and_counted() {
        let store = temp_store("ihtl_rt");
        let mut rng = Pcg64::seed_from_u64(0x57_01);
        let cfg = IhtlConfig { cache_budget_bytes: 64, ..IhtlConfig::default() };
        for case in 0..4 {
            let n = 16 + rng.gen_index(80);
            let g = random_graph(&mut rng, n, 6 * n);
            let h = dataset_content_hash(&g);
            assert!(store.load_ihtl(h, &cfg).is_none(), "case {case}: cold load must miss");
            let built = IhtlGraph::build(&g, &cfg);
            store.save_ihtl(h, &cfg, &built).unwrap();
            let loaded = store.load_ihtl(h, &cfg).expect("warm load must hit");
            assert_eq!(loaded.new_to_old(), built.new_to_old());
            let a = spmv_values(&built);
            let b = spmv_values(&loaded);
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case} vertex {i}");
            }
        }
        let c = store.counters();
        assert_eq!((c.hits, c.misses, c.writes, c.quarantined), (4, 4, 4, 0));
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn pb_roundtrip_is_bitwise() {
        let store = temp_store("pb_rt");
        let mut rng = Pcg64::seed_from_u64(0x57_02);
        let cfg = IhtlConfig { cache_budget_bytes: 64, ..IhtlConfig::default() };
        let g = random_graph(&mut rng, 100, 500);
        let h = dataset_content_hash(&g);
        let parts = 3;
        assert!(store.load_pb(h, &cfg, parts).is_none());
        let built = PbGraph::with_parts(&g, cfg.cache_budget_bytes, cfg.vertex_data_bytes, parts);
        store.save_pb(h, &cfg, parts, &built).unwrap();
        let loaded = store.load_pb(h, &cfg, parts).expect("warm load must hit");
        let x: Vec<f64> = (0..100).map(|i| (i * i + 1) as f64 * 0.73).collect();
        let (mut a, mut b) = (vec![f64::NAN; 100], vec![f64::NAN; 100]);
        let (mut s1, mut s2) = (Vec::new(), Vec::new());
        built.spmv::<ihtl_traversal::Add>(&x, &mut a, &mut s1);
        loaded.spmv::<ihtl_traversal::Add>(&x, &mut b, &mut s2);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "vertex {i}");
        }
        // A different partition count is a different artifact.
        assert!(store.load_pb(h, &cfg, parts + 1).is_none());
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn corruption_quarantines_and_rebuild_heals() {
        let store = temp_store("quarantine");
        let mut rng = Pcg64::seed_from_u64(0x57_03);
        let cfg = IhtlConfig { cache_budget_bytes: 64, ..IhtlConfig::default() };
        let g = random_graph(&mut rng, 60, 300);
        let h = dataset_content_hash(&g);
        let built = IhtlGraph::build(&g, &cfg);
        store.save_ihtl(h, &cfg, &built).unwrap();
        let path = store.path_for(ihtl_key(h, &cfg));

        // Corrupt every byte position in turn? Too slow for the full file —
        // flip a prefix sample plus the trailer region, seeded-loop style.
        let pristine = std::fs::read(&path).unwrap();
        let mut positions: Vec<usize> = (0..pristine.len().min(64)).collect();
        positions.extend(pristine.len() - 16..pristine.len());
        for (round, &pos) in positions.iter().enumerate() {
            let mut bad = pristine.clone();
            bad[pos] ^= 0x20;
            std::fs::write(&path, &bad).unwrap();
            assert!(
                store.load_ihtl(h, &cfg).is_none(),
                "round {round}: corrupted byte {pos} loaded"
            );
            // The bad file is quarantined, not left in place...
            assert!(!path.exists(), "round {round}: corrupt file not quarantined");
            // ...and rebuild + write-back heals the store.
            store.save_ihtl(h, &cfg, &built).unwrap();
            assert!(store.load_ihtl(h, &cfg).is_some(), "round {round}: heal failed");
        }
        let c = store.counters();
        assert_eq!(c.quarantined as usize, positions.len());
        // Truncations quarantine too (torn writes can't survive rename,
        // but external truncation can).
        for cut in [0, 1, pristine.len() / 2, pristine.len() - 1] {
            std::fs::write(&path, &pristine[..cut]).unwrap();
            assert!(store.load_ihtl(h, &cfg).is_none(), "truncation at {cut} loaded");
            store.save_ihtl(h, &cfg, &built).unwrap();
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn shard_roundtrip_is_exact_and_quarantines() {
        let store = temp_store("shard_rt");
        let mut rng = Pcg64::seed_from_u64(0x57_05);
        let g = random_graph(&mut rng, 80, 400);
        let h = dataset_content_hash(&g);
        let ranges = ihtl_graph::shard::shard_ranges(&g, 3);
        for (i, &r) in ranges.iter().enumerate() {
            let shard = ihtl_graph::shard::extract_shard(&g, r);
            assert!(store.load_shard_graph(h, i, 3, false).is_none(), "cold load must miss");
            store.save_shard_graph(h, i, 3, false, &shard).unwrap();
            let loaded = store.load_shard_graph(h, i, 3, false).expect("warm load must hit");
            assert_eq!(loaded.csr(), shard.csr());
            assert_eq!(loaded.csc(), shard.csc());
            // The raw and sym views of the same coordinates are distinct
            // artifacts, as are neighbouring shard indices.
            assert!(store.load_shard_graph(h, i, 3, true).is_none());
        }
        assert_ne!(shard_config_key(0, 3, false), shard_config_key(1, 3, false));
        assert_ne!(shard_config_key(0, 3, false), shard_config_key(0, 4, false));
        assert_ne!(shard_config_key(0, 3, false), shard_config_key(0, 3, true));
        // Corruption quarantines instead of loading.
        let path = store.path_for(shard_key(h, 0, 3, false));
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load_shard_graph(h, 0, 3, false).is_none(), "corrupt shard loaded");
        assert!(!path.exists(), "corrupt shard not quarantined");
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn structurally_bad_shard_image_is_quarantined_and_rebuilt() {
        // A shard image whose checksum is *right* and whose contents are
        // not a graph: before `load_graph_bytes` validated what it read,
        // this panicked inside `Csr::from_parts` instead of quarantining.
        let store = temp_store("shard_bad");
        let mut rng = Pcg64::seed_from_u64(0x57_06);
        let g = random_graph(&mut rng, 40, 160);
        let h = dataset_content_hash(&g);
        let range = ihtl_graph::shard::shard_ranges(&g, 2)[0];
        let shard = ihtl_graph::shard::extract_shard(&g, range);
        store.save_shard_graph(h, 0, 2, false, &shard).unwrap();
        let path = store.path_for(shard_key(h, 0, 2, false));
        let pristine = std::fs::read(&path).unwrap();
        let payload = &pristine[..pristine.len() - ihtl_graph::io::TRAILER_LEN];
        // n_vertices = 2^60 (must not size an allocation); a second offset
        // far past the edge array (non-monotone); a last target naming a
        // vertex beyond n.
        let last_target = payload.len() - 4;
        let edits = [
            (12, (1u64 << 60).to_le_bytes().to_vec()),
            (36, (u64::MAX >> 1).to_le_bytes().to_vec()),
            (last_target, u32::MAX.to_le_bytes().to_vec()),
        ];
        for (round, (at, bytes)) in edits.iter().enumerate() {
            let mut bad = payload.to_vec();
            bad[*at..*at + bytes.len()].copy_from_slice(bytes);
            ihtl_graph::io::append_trailer(&mut bad);
            std::fs::write(&path, &bad).unwrap();
            assert!(store.load_shard_graph(h, 0, 2, false).is_none(), "round {round}: loaded");
            assert!(!path.exists(), "round {round}: bad shard not quarantined");
            assert_eq!(store.counters().quarantined as usize, round + 1);
            // The caller's rebuild + write-back heals the store.
            store.save_shard_graph(h, 0, 2, false, &shard).unwrap();
            let healed = store.load_shard_graph(h, 0, 2, false).expect("heal failed");
            assert_eq!(healed.csr(), shard.csr());
        }
        std::fs::remove_dir_all(store.root()).ok();
    }

    #[test]
    fn keys_separate_datasets_configs_and_kinds() {
        let mut rng = Pcg64::seed_from_u64(0x57_04);
        let g1 = random_graph(&mut rng, 50, 200);
        let g2 = random_graph(&mut rng, 50, 200);
        assert_ne!(dataset_content_hash(&g1), dataset_content_hash(&g2));
        assert_eq!(dataset_content_hash(&g1), dataset_content_hash(&g1));
        let base = IhtlConfig::default();
        let bigger = IhtlConfig { cache_budget_bytes: base.cache_budget_bytes * 2, ..base.clone() };
        assert_ne!(ihtl_config_key(&base), ihtl_config_key(&bigger));
        assert_ne!(pb_config_key(&base, 4), pb_config_key(&base, 8));
        // Same dataset+config, different kind → different path.
        let store = temp_store("keys");
        let h = dataset_content_hash(&g1);
        let a = store.path_for(ihtl_key(h, &base));
        let b = store.path_for(pb_key(h, &base, 4));
        assert_ne!(a, b);
        std::fs::remove_dir_all(store.root()).ok();
    }
}
