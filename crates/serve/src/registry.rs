//! Graph registry: named datasets, loaded once, served with a warm/cold
//! artifact tier.
//!
//! Each dataset is loaded or generated exactly once and then held as an
//! immutable `Arc<Graph>` snapshot. The expensive derived structures are
//! built lazily and memoised per dataset:
//!
//! * the preprocessed [`IhtlGraph`] (the paper's Table 2 preprocessing cost
//!   — paid once per dataset, amortised over every subsequent request, the
//!   §4.2 argument applied to serving) and the [`PbGraph`] binned layout;
//! * the symmetrized graph (for weakly-connected components);
//! * a checkout pool of ready engines per (engine kind, symmetrized) pair,
//!   so concurrent requests reuse scratch buffers instead of re-running
//!   engine preprocessing per call.
//!
//! ## Warm/cold tiering (DESIGN.md §12)
//!
//! The big derived artifacts — the iHTL image and the PB layout — live in
//! per-dataset **warm slots** (`Mutex<Option<Arc<…>>>`). With a durable
//! [`BlockStore`] attached, a cold slot first tries a checksum-verified
//! disk load (keyed by the dataset's content hash and the build config)
//! before rebuilding, and every fresh build is written back — the paper's
//! §4.2 amortisation, across process restarts. With a memory budget
//! configured (`--mem-budget-mb`), the registry accounts the topology bytes
//! of all warm artifacts after each checkout and **demotes** the
//! least-recently-used datasets until under budget: the warm `Arc` is
//! dropped (the store key is enough to get it back), the engine pool is
//! cleared, and a generation bump stops in-flight engines from re-pooling.
//! The next checkout transparently reloads from the store (or rebuilds).
//! Results are bitwise identical across demotion because the on-disk images
//! reproduce the in-memory structures exactly (property-tested in
//! `ihtl-store` and `tests/store_tiering.rs`).
//!
//! Datasets registered from an `IHTLBLK2` image have *no* raw graph — only
//! the iHTL engine can serve them, jobs needing the raw or symmetrized
//! graph (BFS, CC) or a baseline engine report a clear error, and they are
//! never demoted (with no raw graph there is no rebuild path).

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use ihtl_apps::{
    build_engine_shared, ihtl_engine_from_shared, pb_engine_from_shared, EngineKind, SpmvEngine,
};
use ihtl_core::io::load_ihtl;
use ihtl_core::{IhtlConfig, IhtlGraph};
use ihtl_gen::rmat::{rmat_edges, RmatParams};
use ihtl_gen::{suite, suite_small};
use ihtl_graph::shard::{extract_shard, shard_info, shard_ranges, ShardInfo};
use ihtl_graph::stats::{engine_features_llc, pick_engine, EnginePick};
use ihtl_graph::{EdgeList, Graph};
use ihtl_store::{dataset_content_hash, BlockStore, StoreCounters};
use ihtl_traversal::pb::PbGraph;

use crate::proto::GraphSource;

/// Engine pool key: which strategy, and whether it runs over the
/// symmetrized graph.
type EngineKey = (&'static str, bool);

fn engine_key(kind: EngineKind, symmetrized: bool) -> EngineKey {
    (crate::proto::engine_wire_name(kind), symmetrized)
}

/// Placement metadata of a shard-registered dataset: which slice of the
/// base graph's destination space this worker owns. Reported in the
/// `register` reply so the router can build its placement table without a
/// second round-trip.
#[derive(Clone, Copy, Debug)]
pub struct ShardMeta {
    /// Shard index in `0..count`.
    pub index: usize,
    /// Total shard count the base graph was split into.
    pub count: usize,
    /// Owned range, edge count, and boundary-source count.
    pub info: ShardInfo,
}

/// One registered dataset and its memoised derived structures.
pub struct Dataset {
    pub name: String,
    pub source_desc: String,
    /// `None` for datasets restored from a preprocessed iHTL image.
    graph: Option<Arc<Graph>>,
    /// Warm slot for the preprocessed iHTL graph; `None` = cold (rebuilt
    /// or store-loaded on next checkout). Pre-filled and pinned for
    /// image-registered datasets.
    ihtl: Mutex<Option<Arc<IhtlGraph>>>,
    /// Warm slot for the propagation-blocking layout.
    pb: Mutex<Option<Arc<PbGraph>>>,
    sym: OnceLock<Arc<Graph>>,
    engines: Mutex<HashMap<EngineKey, Vec<Box<dyn SpmvEngine + Send>>>>,
    /// Memoised `auto` engine decision, indexed by `symmetrized as usize`.
    /// The structural features don't change (datasets are immutable), so
    /// the scoring rule runs at most once per (dataset, symmetrized).
    auto_choice: [OnceLock<EngineKind>; 2],
    pub n_vertices: usize,
    pub n_edges: usize,
    /// Wall-clock seconds spent loading/generating at registration.
    pub load_seconds: f64,
    /// Content hash of the raw graph's CSR — the store address component.
    /// `None` for image-registered datasets: nothing to hash, no rebuild
    /// path, so the store is bypassed and the warm iHTL slot is pinned.
    dataset_hash: Option<u64>,
    /// Registry LRU clock value at the last engine checkout.
    last_used: AtomicU64,
    /// Bumped by demotion; an engine checked out under an older generation
    /// is dropped instead of re-pooled, so demoted pools can't resurrect
    /// the big structures they hold through their `Arc`s.
    generation: AtomicU64,
    /// `Some` when this dataset is one destination-range shard of a larger
    /// base graph (registered through a `shard` source).
    shard: Option<ShardMeta>,
}

impl Dataset {
    /// The raw graph, when this dataset has one.
    pub fn graph(&self) -> Option<Arc<Graph>> {
        self.graph.clone()
    }

    /// Shard placement metadata, when this dataset is a shard.
    pub fn shard(&self) -> Option<ShardMeta> {
        self.shard
    }

    /// Whether any demotable artifact is currently warm.
    pub fn warm(&self) -> bool {
        crate::lock_ok(&self.ihtl).is_some() || crate::lock_ok(&self.pb).is_some()
    }

    /// Topology bytes of the warm (demotable) artifacts — what the memory
    /// budget meters. The raw `Arc<Graph>` snapshot is excluded: it is the
    /// rebuild source, not a demotable artifact.
    fn resident_artifact_bytes(&self) -> u64 {
        let mut bytes = 0;
        if let Some(ih) = crate::lock_ok(&self.ihtl).as_ref() {
            bytes += ih.topology_bytes();
        }
        if let Some(pb) = crate::lock_ok(&self.pb).as_ref() {
            bytes += pb.topology_bytes();
        }
        bytes
    }

    /// Drops the warm artifacts and the engine pool (demotion to cold).
    /// Callers guarantee a rebuild path exists (`dataset_hash.is_some()`).
    /// The generation bump comes first so an engine in flight observes it
    /// and declines to re-pool.
    fn demote(&self) {
        let _span = ihtl_trace::span("evict");
        // ORDERING: Release — pairs with the Acquire loads in with_engine;
        // an engine that observes the bumped generation also observes the
        // cleared slots and must not re-pool demoted artifacts.
        self.generation.fetch_add(1, Ordering::Release);
        crate::lock_ok(&self.engines).clear();
        *crate::lock_ok(&self.ihtl) = None;
        *crate::lock_ok(&self.pb) = None;
    }

    /// The preprocessed iHTL graph: warm slot, else store load (verified;
    /// corruption quarantines and falls through), else build + write-back.
    /// The slot mutex is held across the whole miss path so concurrent
    /// checkouts build once, like the `OnceLock` this slot replaces.
    fn ihtl_graph(&self, reg: &Registry) -> Result<Arc<IhtlGraph>, String> {
        let mut slot = crate::lock_ok(&self.ihtl);
        if let Some(ih) = slot.as_ref() {
            return Ok(Arc::clone(ih));
        }
        let Some(g) = &self.graph else {
            return Err(format!(
                "dataset '{}' has no graph and no iHTL image (internal inconsistency)",
                self.name
            ));
        };
        let cfg = reg.cfg();
        if let (Some(store), Some(hash)) = (reg.store(), self.dataset_hash) {
            // The ihtl slot is deliberately held across store I/O so
            // concurrent checkouts build/load once (see doc comment above).
            // lint:allow(R6): build-once slot guard; no locks taken under it
            if let Some(ih) = store.load_ihtl(hash, cfg) {
                let ih = Arc::new(ih);
                *slot = Some(Arc::clone(&ih));
                return Ok(ih);
            }
        }
        let ih = Arc::new(IhtlGraph::build(g, cfg));
        if let (Some(store), Some(hash)) = (reg.store(), self.dataset_hash) {
            // Write-back is best-effort: the store is a cache, and serving
            // must not fail over a full or read-only disk.
            // lint:allow(R6): same build-once rationale as the load above.
            let _ = store.save_ihtl(hash, cfg, &ih);
        }
        *slot = Some(Arc::clone(&ih));
        Ok(ih)
    }

    /// The propagation-blocking layout, tiered exactly like
    /// [`Dataset::ihtl_graph`]. The partition count is part of the store
    /// key: the default is machine-dependent, and the bin layout bakes the
    /// source ranges in.
    fn pb_graph(&self, reg: &Registry) -> Result<Arc<PbGraph>, String> {
        let mut slot = crate::lock_ok(&self.pb);
        if let Some(pb) = slot.as_ref() {
            return Ok(Arc::clone(pb));
        }
        let Some(g) = &self.graph else {
            return Err(format!(
                "dataset '{}' was registered from an iHTL image; only the 'ihtl' engine can \
                 serve it",
                self.name
            ));
        };
        let cfg = reg.cfg();
        let parts = ihtl_traversal::pull::default_parts();
        if let (Some(store), Some(hash)) = (reg.store(), self.dataset_hash) {
            // The pb slot is held across store I/O so concurrent
            // checkouts build/load once, like the ihtl slot.
            // lint:allow(R6): build-once slot guard; no locks taken under it
            if let Some(pb) = store.load_pb(hash, cfg, parts) {
                let pb = Arc::new(pb);
                *slot = Some(Arc::clone(&pb));
                return Ok(pb);
            }
        }
        let pb =
            Arc::new(PbGraph::with_parts(g, cfg.cache_budget_bytes, cfg.vertex_data_bytes, parts));
        if let (Some(store), Some(hash)) = (reg.store(), self.dataset_hash) {
            // Best-effort write-back under the build-once slot guard.
            // lint:allow(R6): same build-once rationale as the load above.
            let _ = store.save_pb(hash, cfg, parts, &pb);
        }
        *slot = Some(Arc::clone(&pb));
        Ok(pb)
    }

    /// The symmetrized graph (for CC), building it on first use. Shard
    /// datasets arrive with this slot pre-filled: their symmetrized view is
    /// the matching shard of `symmetrize(base)`, which `symmetrize(shard)`
    /// would get wrong (it would drop reverse edges whose destination falls
    /// outside the owned range — they belong to *other* shards).
    pub fn sym_graph(&self) -> Result<Arc<Graph>, String> {
        let g = self.graph.as_ref().ok_or_else(|| {
            format!(
                "dataset '{}' was registered from an iHTL image; the raw graph is unavailable \
                 (symmetrization impossible)",
                self.name
            )
        })?;
        Ok(Arc::clone(self.sym.get_or_init(|| Arc::new(ihtl_apps::components::symmetrize(g)))))
    }

    /// Checks out an engine (reusing a pooled one if available), runs `f`,
    /// returns the engine to the pool, and lets the registry enforce its
    /// memory budget (possibly demoting colder datasets).
    pub fn with_engine<R>(
        &self,
        kind: EngineKind,
        symmetrized: bool,
        reg: &Registry,
        f: impl FnOnce(&mut dyn SpmvEngine) -> R,
    ) -> Result<R, String> {
        // ORDERING: Relaxed — last_used is an LRU heuristic read under no
        // lock; a stale value only perturbs eviction order, never safety.
        self.last_used.store(reg.tick(), Ordering::Relaxed);
        // ORDERING: Acquire — pairs with demote()'s Release bump; observing
        // the old generation here means any demotion that follows will be
        // seen by the second load below, keeping the re-pool check sound.
        let generation = self.generation.load(Ordering::Acquire);
        let key = engine_key(kind, symmetrized);
        let pooled = crate::lock_ok(&self.engines).get_mut(&key).and_then(Vec::pop);
        let mut engine = match pooled {
            Some(e) => e,
            None => self.build_engine(kind, symmetrized, reg)?,
        };
        let out = f(engine.as_mut());
        // Re-pool only if no demotion ran while we held the engine —
        // otherwise the pool entry would keep the demoted artifacts alive
        // through the engine's `Arc`s, defeating the eviction.
        // ORDERING: Acquire — pairs with demote()'s Release; see above.
        if self.generation.load(Ordering::Acquire) == generation {
            crate::lock_ok(&self.engines).entry(key).or_default().push(engine);
        }
        reg.enforce_budget(&self.name);
        Ok(out)
    }

    /// Resolves the `auto` engine choice for this dataset: computes the
    /// structural features once and feeds them through the transparent
    /// scoring rule in `ihtl_graph::stats` (validated offline against the
    /// cache-simulator replays — see DESIGN.md §11). The configured cache
    /// budget sizes the hub buffers; residency is judged against the
    /// machine's detected last-level cache, the same split the bench
    /// matrix uses. Image-only datasets have no raw graph to featurize,
    /// and only the iHTL engine can serve them anyway, so they resolve to
    /// iHTL.
    pub fn auto_engine(&self, symmetrized: bool, cfg: &IhtlConfig) -> Result<EngineKind, String> {
        let cell = &self.auto_choice[usize::from(symmetrized)];
        if let Some(&kind) = cell.get() {
            return Ok(kind);
        }
        let graph = if symmetrized { Some(self.sym_graph()?) } else { self.graph() };
        let kind = *cell.get_or_init(|| {
            let _span = ihtl_trace::span("auto_select");
            let Some(g) = graph else {
                return EngineKind::Ihtl;
            };
            let (_, llc) = ihtl_parallel::cache_sizes();
            let f = engine_features_llc(
                &g,
                cfg.cache_budget_bytes,
                llc.max(cfg.cache_budget_bytes),
                cfg.vertex_data_bytes,
            );
            match pick_engine(&f, ihtl_parallel::num_threads()) {
                EnginePick::Pull => EngineKind::PullGraphGrind,
                EnginePick::Ihtl => EngineKind::Ihtl,
                EnginePick::Pb => EngineKind::Pb,
                EnginePick::Hybrid => EngineKind::Hybrid,
            }
        });
        Ok(kind)
    }

    /// The memoised `auto` decision for (plain, symmetrized), without
    /// forcing a computation — `None` until some job asked for `auto`.
    pub fn auto_decisions(&self) -> [Option<EngineKind>; 2] {
        let [plain, sym] = &self.auto_choice;
        [plain.get().copied(), sym.get().copied()]
    }

    fn build_engine(
        &self,
        kind: EngineKind,
        symmetrized: bool,
        reg: &Registry,
    ) -> Result<Box<dyn SpmvEngine + Send>, String> {
        if symmetrized {
            // iHTL over the symmetrized graph would memoise the wrong
            // IhtlGraph; build through the generic path instead.
            return Ok(build_engine_shared(kind, self.sym_graph()?, reg.cfg()));
        }
        match (kind, &self.graph) {
            // The three engines whose preprocessing dominates build cost go
            // through the tiered (store-backed, demotable) artifact slots;
            // iHTL and hybrid share one warm IhtlGraph.
            (EngineKind::Ihtl, _) => Ok(Box::new(ihtl_engine_from_shared(self.ihtl_graph(reg)?))),
            (EngineKind::Hybrid, Some(_)) => {
                Ok(Box::new(ihtl_apps::engine::hybrid_engine_from_shared(self.ihtl_graph(reg)?)))
            }
            (EngineKind::Pb, Some(g)) => {
                let out_degrees: Vec<u32> =
                    (0..g.n_vertices() as u32).map(|v| g.out_degree(v) as u32).collect();
                Ok(Box::new(pb_engine_from_shared(self.pb_graph(reg)?, out_degrees)))
            }
            (EngineKind::PullGraphGrind, Some(g)) => {
                Ok(build_engine_shared(kind, Arc::clone(g), reg.cfg()))
            }
            (_, None) => Err(format!(
                "dataset '{}' was registered from an iHTL image; only the 'ihtl' engine can \
                 serve it",
                self.name
            )),
        }
    }
}

/// The registry: name → dataset, plus the iHTL configuration every build
/// uses (one config per server keeps cache keys meaningful), the optional
/// durable artifact store, and the optional warm-tier memory budget.
pub struct Registry {
    cfg: IhtlConfig,
    map: RwLock<HashMap<String, Arc<Dataset>>>,
    /// Durable artifact store; `None` = build-only (pre-PR-8 behaviour).
    store: Option<Arc<BlockStore>>,
    /// Warm-artifact byte budget; `None` = never demote.
    mem_budget_bytes: Option<u64>,
    /// Monotone LRU clock, advanced by every engine checkout.
    clock: AtomicU64,
    /// Lifetime demotion count (surfaced by `stats`).
    evictions: AtomicU64,
}

impl Registry {
    pub fn new(cfg: IhtlConfig) -> Registry {
        Registry::with_store(cfg, None, None)
    }

    /// A registry with a durable store and/or a warm-tier memory budget.
    pub fn with_store(
        cfg: IhtlConfig,
        store: Option<Arc<BlockStore>>,
        mem_budget_mb: Option<u64>,
    ) -> Registry {
        Registry {
            cfg,
            map: RwLock::new(HashMap::new()),
            store,
            mem_budget_bytes: mem_budget_mb.map(|mb| mb.saturating_mul(1024 * 1024)),
            clock: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The iHTL configuration used for every engine build.
    pub fn cfg(&self) -> &IhtlConfig {
        &self.cfg
    }

    /// The attached artifact store, if any.
    pub fn store(&self) -> Option<&BlockStore> {
        self.store.as_deref()
    }

    /// Store counters (zeros when no store is attached), for `stats`.
    pub fn store_counters(&self) -> StoreCounters {
        self.store.as_ref().map(|s| s.counters()).unwrap_or_default()
    }

    /// Lifetime demotion count.
    pub fn evictions(&self) -> u64 {
        // ORDERING: Relaxed — monotonic stats counter, no data published.
        self.evictions.load(Ordering::Relaxed)
    }

    /// Total topology bytes of warm (demotable) artifacts across datasets.
    pub fn resident_bytes(&self) -> u64 {
        self.list().iter().map(|d| d.resident_artifact_bytes()).sum()
    }

    /// Advances the LRU clock and returns the new tick.
    fn tick(&self) -> u64 {
        // ORDERING: Relaxed — the clock only orders LRU victims; ties or
        // reordering across threads are harmless to correctness.
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Demotes least-recently-used datasets until the warm tier fits the
    /// budget. `current_name` (the dataset just served) is exempt: it is
    /// the MRU by definition, and demoting it would thrash the next
    /// request on the same dataset. Image-registered datasets are pinned
    /// (no rebuild path). If only pinned/current datasets remain warm, the
    /// tier may stay over budget — correctness over strictness.
    fn enforce_budget(&self, current_name: &str) {
        let Some(budget) = self.mem_budget_bytes else {
            return;
        };
        loop {
            let datasets = self.list();
            let total: u64 = datasets.iter().map(|d| d.resident_artifact_bytes()).sum();
            if total <= budget {
                return;
            }
            let victim = datasets
                .iter()
                .filter(|d| d.dataset_hash.is_some() && d.name != current_name && d.warm())
                // ORDERING: Relaxed — LRU heuristic; see with_engine.
                .min_by_key(|d| d.last_used.load(Ordering::Relaxed));
            let Some(victim) = victim else {
                return;
            };
            victim.demote();
            // ORDERING: Relaxed — stats counter only.
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Looks up a registered dataset.
    pub fn get(&self, name: &str) -> Option<Arc<Dataset>> {
        crate::read_ok(&self.map).get(name).cloned()
    }

    /// All datasets, sorted by name (for `list`).
    pub fn list(&self) -> Vec<Arc<Dataset>> {
        let mut v: Vec<_> = crate::read_ok(&self.map).values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Loads/generates `source` and registers it as `name`. Re-registering
    /// the same name with the same source is an idempotent no-op; with a
    /// different source it is an error (datasets are immutable).
    pub fn register(&self, name: &str, source: &GraphSource) -> Result<Arc<Dataset>, String> {
        let desc = source.describe();
        if let Some(existing) = self.get(name) {
            return if existing.source_desc == desc {
                Ok(existing)
            } else {
                Err(format!(
                    "dataset '{name}' already registered from {} (asked for {desc})",
                    existing.source_desc
                ))
            };
        }
        // Load outside the write lock: generation can take seconds and
        // must not block lookups for running jobs.
        // lint:allow(R4): load_seconds is reported registration metadata
        let t = Instant::now();
        let (loaded, shard_parts) = match source {
            GraphSource::Shard { index, count, base } => {
                let (raw, sym, meta) = self.load_shard(*index, *count, base)?;
                (Loaded::Raw(raw), Some((sym, meta)))
            }
            _ => (load_source(source)?, None),
        };
        let load_seconds = t.elapsed().as_secs_f64();
        let (n_vertices, n_edges) = match &loaded {
            Loaded::Raw(g) => (g.n_vertices(), g.n_edges()),
            Loaded::Image(ih) => (ih.n_vertices(), ih.n_edges()),
        };
        let (graph, ihtl) = match loaded {
            Loaded::Raw(g) => (Some(g), None),
            Loaded::Image(ih) => (None, Some(ih)),
        };
        // The content hash addresses this dataset's artifacts in the store
        // and doubles as the "demotable" marker (image-only datasets have
        // nothing to hash and no rebuild path). A shard hashes its own
        // (extracted) topology, so per-shard iHTL/PB artifacts never alias
        // the base graph's or another shard's.
        let dataset_hash = graph.as_deref().map(dataset_content_hash);
        // Shards pre-fill the sym slot with the shard of symmetrize(base);
        // see `sym_graph` for why lazily symmetrizing the shard is wrong.
        let sym = OnceLock::new();
        if let Some((sym_shard, _)) = &shard_parts {
            let _ = sym.set(Arc::clone(sym_shard));
        }
        let ds = Arc::new(Dataset {
            name: name.to_string(),
            source_desc: desc.clone(),
            graph,
            ihtl: Mutex::new(ihtl),
            pb: Mutex::new(None),
            sym,
            engines: Mutex::new(HashMap::new()),
            auto_choice: [OnceLock::new(), OnceLock::new()],
            n_vertices,
            n_edges,
            load_seconds,
            dataset_hash,
            last_used: AtomicU64::new(0),
            generation: AtomicU64::new(0),
            shard: shard_parts.map(|(_, meta)| meta),
        });
        let mut map = crate::write_ok(&self.map);
        // Two clients may race to register the same name; first wins, and
        // the loser's load is discarded (idempotent if sources matched).
        if let Some(existing) = map.get(name) {
            return if existing.source_desc == desc {
                Ok(Arc::clone(existing))
            } else {
                Err(format!(
                    "dataset '{name}' already registered from {} (asked for {desc})",
                    existing.source_desc
                ))
            };
        }
        map.insert(name.to_string(), Arc::clone(&ds));
        Ok(ds)
    }

    /// Loads the `index`-of-`count` destination-range shard of `base`: the
    /// raw shard plus the matching shard of the *symmetrized* base. Both
    /// are content-addressed store artifacts keyed by the base graph's
    /// hash and `(index, count)`, so a worker restart (or a second worker
    /// assigned the same shard) skips the extraction and symmetrization.
    /// The base graph itself is loaded either way — it is the address —
    /// and dropped once the shards exist.
    fn load_shard(
        &self,
        index: usize,
        count: usize,
        base: &GraphSource,
    ) -> Result<(Arc<Graph>, Arc<Graph>, ShardMeta), String> {
        if count == 0 || index >= count {
            return Err(format!("shard index {index} out of range for count {count}"));
        }
        let base_g = match load_source(base)? {
            Loaded::Raw(g) => g,
            Loaded::Image(_) => {
                return Err("shard sources need a raw base graph, not an iHTL image".to_string())
            }
        };
        // Ranges are a pure function of the base graph's CSC, so every
        // worker (and the router) derives the same partition independently.
        let range = shard_ranges(&base_g, count)[index];
        let info = shard_info(&base_g, range);
        let base_hash = dataset_content_hash(&base_g);
        let raw = self.shard_tier(base_hash, index, count, false, || extract_shard(&base_g, range));
        let sym = self.shard_tier(base_hash, index, count, true, || {
            extract_shard(&ihtl_apps::components::symmetrize(&base_g), range)
        });
        Ok((raw, sym, ShardMeta { index, count, info }))
    }

    /// Store-tiered shard materialisation: verified load, else build +
    /// best-effort write-back (the store is a cache, not the source of
    /// truth — a full disk must not fail registration).
    fn shard_tier(
        &self,
        base_hash: u64,
        index: usize,
        count: usize,
        sym: bool,
        build: impl FnOnce() -> Graph,
    ) -> Arc<Graph> {
        if let Some(g) = self.store().and_then(|s| s.load_shard_graph(base_hash, index, count, sym))
        {
            return Arc::new(g);
        }
        let _span = ihtl_trace::span("shard_extract").with_arg(index as u64);
        let g = Arc::new(build());
        if let Some(store) = self.store() {
            let _ = store.save_shard_graph(base_hash, index, count, sym, &g);
        }
        g
    }
}

/// What loading a source yields: every source produces exactly one of a
/// raw graph or a prebuilt iHTL image — an enum, so `register` cannot see
/// an impossible "neither" state (the panic-free tier bans `unreachable!`).
enum Loaded {
    Raw(Arc<Graph>),
    Image(Arc<IhtlGraph>),
}

/// Loads a graph (or a prebuilt iHTL image) from a source description.
fn load_source(source: &GraphSource) -> Result<Loaded, String> {
    match source {
        GraphSource::Rmat { scale, edges, seed } => {
            let raw = rmat_edges(*scale, *edges, RmatParams::social(), *seed);
            let mut el = EdgeList::from_edges(1usize << scale, raw);
            el.compact_zero_degree();
            Ok(Loaded::Raw(Arc::new(Graph::from_edge_list(&el))))
        }
        GraphSource::Suite { key } => {
            let spec = suite()
                .into_iter()
                .chain(suite_small())
                .find(|s| s.key == key)
                .ok_or_else(|| format!("unknown suite key '{key}'"))?;
            Ok(Loaded::Raw(Arc::new(spec.build())))
        }
        GraphSource::EdgeListFile { path } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading edge list '{path}': {e}"))?;
            Ok(Loaded::Raw(Arc::new(parse_edge_list_text(&text)?)))
        }
        GraphSource::GraphImage { path } => {
            let g = ihtl_graph::io::load_graph(Path::new(path))
                .map_err(|e| format!("loading graph image '{path}': {e}"))?;
            Ok(Loaded::Raw(Arc::new(g)))
        }
        GraphSource::IhtlImage { path } => {
            let ih = load_ihtl(Path::new(path))
                .map_err(|e| format!("loading iHTL image '{path}': {e}"))?;
            Ok(Loaded::Image(Arc::new(ih)))
        }
        // Shard sources are handled by `Registry::load_shard` (they need
        // store access); the wire grammar rejects nested shard bases, so
        // reaching this arm means a programmatic caller nested them.
        GraphSource::Shard { .. } => {
            Err("shard sources cannot nest (the base must be a plain source)".to_string())
        }
    }
}

/// Parses whitespace-separated `src dst` pairs; `#` starts a comment line.
/// Vertex count is `max id + 1`.
fn parse_edge_list_text(text: &str) -> Result<Graph, String> {
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut it = line.split_whitespace();
        let (Some(a), Some(b)) = (it.next(), it.next()) else {
            return Err(format!("line {}: expected 'src dst'", lineno + 1));
        };
        if it.next().is_some() {
            return Err(format!("line {}: trailing tokens after 'src dst'", lineno + 1));
        }
        let src: u32 =
            a.parse().map_err(|_| format!("line {}: bad vertex id '{a}'", lineno + 1))?;
        let dst: u32 =
            b.parse().map_err(|_| format!("line {}: bad vertex id '{b}'", lineno + 1))?;
        max_id = max_id.max(src).max(dst);
        edges.push((src, dst));
    }
    if edges.is_empty() {
        return Err("edge list contains no edges".to_string());
    }
    Ok(Graph::from_edges(max_id as usize + 1, &edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ihtl_apps::{run_job, JobSpec};

    fn cfg() -> IhtlConfig {
        IhtlConfig { cache_budget_bytes: 4096, ..IhtlConfig::default() }
    }

    fn rmat_source() -> GraphSource {
        GraphSource::Rmat { scale: 9, edges: 4_000, seed: 7 }
    }

    #[test]
    fn register_lookup_and_idempotency() {
        let r = Registry::new(cfg());
        let ds = r.register("g", &rmat_source()).unwrap();
        assert!(ds.n_vertices > 0 && ds.n_edges > 0);
        assert!(r.get("g").is_some());
        assert!(r.get("h").is_none());
        // Same source: idempotent. Different source: error.
        assert!(r.register("g", &rmat_source()).is_ok());
        let other = GraphSource::Rmat { scale: 9, edges: 4_000, seed: 8 };
        assert!(r.register("g", &other).is_err());
        assert_eq!(r.list().len(), 1);
    }

    #[test]
    fn engine_pool_reuses_instances() {
        let r = Registry::new(cfg());
        let ds = r.register("g", &rmat_source()).unwrap();
        let n = ds.n_vertices;
        let a = ds
            .with_engine(EngineKind::Ihtl, false, &r, |e| {
                run_job(e, None, &JobSpec::PageRank { iters: 3, seed: None }).unwrap().values
            })
            .unwrap();
        let b = ds
            .with_engine(EngineKind::Ihtl, false, &r, |e| {
                run_job(e, None, &JobSpec::PageRank { iters: 3, seed: None }).unwrap().values
            })
            .unwrap();
        assert_eq!(a.len(), n);
        // Determinism across checkouts (same pooled engine or a rebuild).
        assert_eq!(a, b);
        // The pool holds exactly one engine afterwards.
        assert_eq!(ds.engines.lock().unwrap().values().map(Vec::len).sum::<usize>(), 1);
    }

    fn pagerank(ds: &Dataset, r: &Registry, kind: EngineKind) -> Vec<f64> {
        ds.with_engine(kind, false, r, |e| {
            run_job(e, None, &JobSpec::PageRank { iters: 3, seed: None }).unwrap().values
        })
        .unwrap()
    }

    #[test]
    fn store_amortizes_builds_across_registries() {
        let dir = std::env::temp_dir().join(format!("ihtl_reg_store_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(BlockStore::open(&dir).unwrap());

        // "Boot" 1: cold store — every tiered engine misses, builds, and
        // writes back.
        let r1 = Registry::with_store(cfg(), Some(Arc::clone(&store)), None);
        let ds = r1.register("g", &rmat_source()).unwrap();
        let a_ihtl = pagerank(&ds, &r1, EngineKind::Ihtl);
        let a_pb = pagerank(&ds, &r1, EngineKind::Pb);
        let a_hy = pagerank(&ds, &r1, EngineKind::Hybrid);
        let c1 = store.counters();
        assert_eq!(c1.hits, 0);
        // iHTL image (shared by ihtl + hybrid) and the PB layout.
        assert_eq!(c1.writes, 2);

        // "Boot" 2: a fresh registry over the same store — zero rebuilds
        // means zero new writes, and results stay bitwise identical.
        let r2 = Registry::with_store(cfg(), Some(Arc::clone(&store)), None);
        let ds2 = r2.register("g", &rmat_source()).unwrap();
        let b_ihtl = pagerank(&ds2, &r2, EngineKind::Ihtl);
        let b_pb = pagerank(&ds2, &r2, EngineKind::Pb);
        let b_hy = pagerank(&ds2, &r2, EngineKind::Hybrid);
        let c2 = store.counters();
        assert_eq!(c2.writes, 2, "warm boot must not rebuild anything");
        assert_eq!(c2.hits, 2);
        for (a, b) in [(&a_ihtl, &b_ihtl), (&a_pb, &b_pb), (&a_hy, &b_hy)] {
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiny_budget_demotes_lru_and_results_stay_bitwise() {
        let dir = std::env::temp_dir().join(format!("ihtl_reg_evict_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(BlockStore::open(&dir).unwrap());
        // 0 MiB: any warm artifact is over budget, so every checkout of a
        // second dataset demotes the first.
        let r = Registry::with_store(cfg(), Some(store), Some(0));
        let a = r.register("a", &rmat_source()).unwrap();
        let b = r.register("b", &GraphSource::Rmat { scale: 9, edges: 4_000, seed: 11 }).unwrap();
        let first = pagerank(&a, &r, EngineKind::Ihtl);
        assert!(a.warm());
        // Serving `b` pushes the tier over budget; `a` is the LRU victim.
        let _ = pagerank(&b, &r, EngineKind::Ihtl);
        assert!(!a.warm(), "LRU dataset must be demoted under a zero budget");
        assert!(r.evictions() >= 1);
        // Transparent reload: `a` still serves, bitwise identically.
        let again = pagerank(&a, &r, EngineKind::Ihtl);
        assert_eq!(first.len(), again.len());
        for (x, y) in first.iter().zip(again.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_dir_all(r.store().unwrap().root()).ok();
    }

    #[test]
    fn budget_without_store_rebuilds_instead_of_reloading() {
        // Demotion is legal with no store attached: the rebuild path is the
        // raw graph. Slower, but results must still be bitwise identical.
        let r = Registry::with_store(cfg(), None, Some(0));
        let a = r.register("a", &rmat_source()).unwrap();
        let b = r.register("b", &GraphSource::Rmat { scale: 9, edges: 4_000, seed: 11 }).unwrap();
        let first = pagerank(&a, &r, EngineKind::Ihtl);
        let _ = pagerank(&b, &r, EngineKind::Ihtl);
        assert!(!a.warm());
        let again = pagerank(&a, &r, EngineKind::Ihtl);
        for (x, y) in first.iter().zip(again.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn image_datasets_are_never_demoted() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ihtl_serve_pin_{:?}.blk", std::thread::current().id()));
        {
            let g = ihtl_graph::graph::paper_example_graph();
            let ih = IhtlGraph::build(&g, &IhtlConfig { cache_budget_bytes: 16, ..cfg() });
            ihtl_core::io::save_ihtl(&ih, &path).unwrap();
        }
        let r = Registry::with_store(IhtlConfig { cache_budget_bytes: 16, ..cfg() }, None, Some(0));
        let img = r
            .register("img", &GraphSource::IhtlImage { path: path.display().to_string() })
            .unwrap();
        let other = r.register("g", &rmat_source()).unwrap();
        let _ = pagerank(&img, &r, EngineKind::Ihtl);
        let _ = pagerank(&other, &r, EngineKind::Ihtl);
        // The image dataset has no rebuild path, so it must stay warm even
        // under a zero budget; the rebuildable dataset is the only victim.
        assert!(img.warm());
        let _ = pagerank(&img, &r, EngineKind::Ihtl);
        assert!(!other.warm());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn symmetrized_engines_serve_components() {
        let r = Registry::new(cfg());
        let ds = r.register("g", &rmat_source()).unwrap();
        let labels = ds
            .with_engine(EngineKind::Ihtl, true, &r, |e| {
                run_job(e, None, &JobSpec::Components { max_rounds: 64 }).unwrap().values
            })
            .unwrap();
        assert_eq!(labels.len(), ds.n_vertices);
    }

    #[test]
    fn ihtl_image_dataset_serves_only_ihtl() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ihtl_serve_reg_{:?}.blk", std::thread::current().id()));
        {
            let g = ihtl_graph::graph::paper_example_graph();
            let ih = IhtlGraph::build(&g, &IhtlConfig { cache_budget_bytes: 16, ..cfg() });
            ihtl_core::io::save_ihtl(&ih, &path).unwrap();
        }
        let r = Registry::new(IhtlConfig { cache_budget_bytes: 16, ..cfg() });
        let src = GraphSource::IhtlImage { path: path.display().to_string() };
        let ds = r.register("img", &src).unwrap();
        assert!(ds.graph().is_none());
        let ranks = ds
            .with_engine(EngineKind::Ihtl, false, &r, |e| {
                run_job(e, None, &JobSpec::PageRank { iters: 3, seed: None }).unwrap().values
            })
            .unwrap();
        assert_eq!(ranks.len(), 8);
        // Pull needs the raw graph — clear error, no panic.
        assert!(ds.with_engine(EngineKind::PullGraphGrind, false, &r, |_| ()).is_err());
        assert!(ds.with_engine(EngineKind::Ihtl, true, &r, |_| ()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn auto_engine_is_memoized_and_valid() {
        let r = Registry::new(cfg());
        let ds = r.register("g", &rmat_source()).unwrap();
        assert_eq!(ds.auto_decisions(), [None, None]);
        let kind = ds.auto_engine(false, r.cfg()).unwrap();
        // Memoised: the same answer comes back, and stats can observe it.
        assert_eq!(ds.auto_engine(false, r.cfg()).unwrap(), kind);
        assert_eq!(ds.auto_decisions()[0], Some(kind));
        // The chosen engine actually serves jobs.
        let vals = ds
            .with_engine(kind, false, &r, |e| {
                run_job(e, None, &JobSpec::PageRank { iters: 2, seed: None }).unwrap().values
            })
            .unwrap();
        assert_eq!(vals.len(), ds.n_vertices);
        // The symmetrized decision is tracked independently.
        let sym_kind = ds.auto_engine(true, r.cfg()).unwrap();
        assert_eq!(ds.auto_decisions()[1], Some(sym_kind));
    }

    #[test]
    fn auto_engine_falls_back_to_ihtl_for_image_datasets() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ihtl_serve_auto_{:?}.blk", std::thread::current().id()));
        {
            let g = ihtl_graph::graph::paper_example_graph();
            let ih = IhtlGraph::build(&g, &IhtlConfig { cache_budget_bytes: 16, ..cfg() });
            ihtl_core::io::save_ihtl(&ih, &path).unwrap();
        }
        let r = Registry::new(IhtlConfig { cache_budget_bytes: 16, ..cfg() });
        let src = GraphSource::IhtlImage { path: path.display().to_string() };
        let ds = r.register("img", &src).unwrap();
        assert_eq!(ds.auto_engine(false, r.cfg()).unwrap(), EngineKind::Ihtl);
        // Symmetrized auto needs the raw graph — clean error, no panic.
        assert!(ds.auto_engine(true, r.cfg()).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shard_datasets_register_with_placement_metadata() {
        let r = Registry::new(cfg());
        let full = r.register("full", &rmat_source()).unwrap();
        let base = Box::new(rmat_source());
        let mut raw_edges = 0;
        let mut sym_edges = 0;
        for i in 0..3 {
            let src = GraphSource::Shard { index: i, count: 3, base: base.clone() };
            let ds = r.register(&format!("s{i}"), &src).unwrap();
            let meta = ds.shard().expect("shard dataset must carry placement metadata");
            assert_eq!((meta.index, meta.count), (i, 3));
            assert_eq!(meta.info.n_edges, ds.n_edges);
            // The vertex space stays global; only the edges are sliced.
            assert_eq!(ds.n_vertices, full.n_vertices);
            raw_edges += ds.n_edges;
            // The sym slot is pre-filled with the shard of symmetrize(base).
            sym_edges += ds.sym_graph().unwrap().n_edges();
        }
        assert_eq!(raw_edges, full.n_edges, "shards must partition the base edges");
        assert_eq!(
            sym_edges,
            full.sym_graph().unwrap().n_edges(),
            "sym shards must partition the symmetrized base"
        );
        assert!(full.shard().is_none(), "plain datasets carry no shard metadata");
        // Out-of-range coordinates are rejected with a clean error.
        let bad = GraphSource::Shard { index: 3, count: 3, base };
        assert!(r.register("bad", &bad).is_err());
    }

    #[test]
    fn shard_registration_tiers_through_the_store() {
        let dir = std::env::temp_dir().join(format!("ihtl_reg_shard_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = Arc::new(BlockStore::open(&dir).unwrap());
        let base = Box::new(rmat_source());
        let src = GraphSource::Shard { index: 1, count: 2, base };

        // Cold boot: both shard views (raw + sym) miss, extract, write back.
        let r1 = Registry::with_store(cfg(), Some(Arc::clone(&store)), None);
        let ds1 = r1.register("s1", &src).unwrap();
        let c1 = store.counters();
        assert_eq!(c1.writes, 2, "raw and sym shard artifacts must be written back");
        assert_eq!(c1.hits, 0);

        // Warm boot: a fresh registry loads both from the store, extracting
        // nothing, and the shard topology is bitwise identical.
        let r2 = Registry::with_store(cfg(), Some(Arc::clone(&store)), None);
        let ds2 = r2.register("s1", &src).unwrap();
        let c2 = store.counters();
        assert_eq!(c2.writes, 2, "warm boot must not re-extract");
        assert_eq!(c2.hits, 2);
        assert_eq!(ds1.graph().unwrap().csr(), ds2.graph().unwrap().csr());
        assert_eq!(ds1.sym_graph().unwrap().csr(), ds2.sym_graph().unwrap().csr());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn suite_and_edgelist_sources_load() {
        let r = Registry::new(cfg());
        let ds = r.register("mini", &GraphSource::Suite { key: "mini_social".into() }).unwrap();
        assert!(ds.n_edges > 10_000);
        assert!(r.register("nope", &GraphSource::Suite { key: "zzz".into() }).is_err());

        let dir = std::env::temp_dir();
        let path = dir.join(format!("ihtl_serve_el_{:?}.txt", std::thread::current().id()));
        std::fs::write(&path, "# demo\n0 1\n1 2\n2 0\n").unwrap();
        let ds = r
            .register("el", &GraphSource::EdgeListFile { path: path.display().to_string() })
            .unwrap();
        assert_eq!(ds.n_vertices, 3);
        assert_eq!(ds.n_edges, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn edge_list_parser_rejects_garbage() {
        assert!(parse_edge_list_text("").is_err());
        assert!(parse_edge_list_text("0 x").is_err());
        assert!(parse_edge_list_text("0 1 2").is_err());
        assert!(parse_edge_list_text("0").is_err());
        let g = parse_edge_list_text("#c\n\n 5 3 \n").unwrap();
        assert_eq!(g.n_vertices(), 6);
    }
}
