//! The worker's dispatcher: what each request means, and the glue between
//! registry, scheduler, cache, and stats. The transport — listener,
//! connection loop, reply framing — is [`crate::endpoint`].
//!
//! Connections are thread-per-client over line-delimited JSON. `ping`,
//! `list`, `stats`, and `shutdown` are answered directly on the connection
//! thread; `register` and `job` requests do their heavy work through the
//! registry/scheduler so the admission queue bounds total in-flight
//! compute. Job replies carry an FNV-1a checksum over the result vector's
//! f64 bit patterns, so clients can assert bitwise determinism without
//! shipping the whole vector.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ihtl_apps::{run_job, run_job_multi, EngineKind, JobSpec};
use ihtl_core::IhtlConfig;

use crate::batch::{BatchMember, BatchTicket, BatchedOutput, Coalescer};
use crate::cache::ResultCache;
use crate::endpoint::Endpoint;
use crate::json::Json;
use crate::lock_ok;
use crate::proto::{
    bits_to_json, engine_wire_name, error_reply, ok_reply, push_result_tail, result_reply,
    EngineChoice, GraphSource, GraphView, Monoid, Op, Request, WireJob,
};
use crate::registry::{Dataset, Registry};
use crate::sched::{JobError, Scheduler, SubmitError};
use crate::stats::{bump, ServeStats};

/// Server tunables. `Default` suits tests and the smoke script.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Admission queue capacity; beyond it, jobs are rejected `overloaded`.
    pub queue_capacity: usize,
    /// Executor threads. One is right for CPU-bound SpMV (the parallel
    /// pool is already machine-wide); more helps only for blocking jobs.
    pub executors: usize,
    /// Result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// iHTL build configuration used for every dataset.
    pub ihtl_cfg: IhtlConfig,
    /// Request lines longer than this are rejected (protocol error).
    pub max_line_bytes: usize,
    /// Close a connection whose client sends nothing for this long
    /// (`None` = wait forever). Idle sockets otherwise pin a thread and a
    /// file descriptor each for the life of the client process.
    pub idle_timeout: Option<Duration>,
    /// Largest number of coalesced queries per SpMM edge sweep. Queued
    /// jobs sharing (dataset, engine, analytic, iteration budget) merge
    /// into one K-column execution; `1` disables coalescing.
    pub max_batch: usize,
    /// Root directory of the durable artifact store (`--store-dir`);
    /// `None` disables the store (every preprocessing is rebuilt).
    pub store_dir: Option<String>,
    /// Warm-artifact memory budget in MiB (`--mem-budget-mb`); `None`
    /// keeps every artifact resident forever.
    pub mem_budget_mb: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 16,
            executors: 1,
            cache_capacity: 64,
            ihtl_cfg: IhtlConfig::default(),
            max_line_bytes: 1 << 20,
            idle_timeout: Some(Duration::from_secs(30)),
            max_batch: 8,
            store_dir: None,
            mem_budget_mb: None,
        }
    }
}

/// How many completed job traces the server retains for the `trace` op.
const TRACE_STORE_CAP: usize = 64;

/// Everything the connection handlers share.
struct ServerState {
    registry: Registry,
    scheduler: Scheduler,
    cache: ResultCache,
    coalescer: Coalescer,
    stats: ServeStats,
    cfg: ServerConfig,
    /// Recent traced-job span trees, oldest first, keyed by trace id.
    traces: Mutex<VecDeque<(u64, Json)>>,
    next_trace_id: AtomicU64,
}

/// A bound (not yet running) server: the shared [`Endpoint`] plus the state
/// its dispatcher works on.
pub struct Server {
    endpoint: Endpoint,
    state: Arc<ServerState>,
}

/// Handle to a server running on a background thread. `shutdown` stops the
/// accept loop and the scheduler, then joins them.
pub type ServerHandle = crate::endpoint::Handle;

impl Server {
    /// Binds the listening socket.
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let endpoint =
            Endpoint::bind(&cfg.addr, "ihtl-serve", cfg.max_line_bytes, cfg.idle_timeout)?;
        // Opening the store is fallible (mkdir) and happens before any
        // connection is accepted — a bad --store-dir fails the boot loudly
        // instead of degrading every job quietly.
        let store = match &cfg.store_dir {
            Some(dir) => Some(Arc::new(ihtl_store::BlockStore::open(dir)?)),
            None => None,
        };
        let state = Arc::new(ServerState {
            registry: Registry::with_store(cfg.ihtl_cfg.clone(), store, cfg.mem_budget_mb),
            scheduler: Scheduler::new(cfg.queue_capacity, cfg.executors),
            cache: ResultCache::new(cfg.cache_capacity),
            coalescer: Coalescer::new(),
            stats: ServeStats::default(),
            cfg,
            traces: Mutex::new(VecDeque::new()),
            next_trace_id: AtomicU64::new(1),
        });
        Ok(Server { endpoint, state })
    }

    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Runs the accept loop on the current thread until shutdown, then
    /// stops the scheduler.
    pub fn run(self) {
        let (state, idle) = (Arc::clone(&self.state), Arc::clone(&self.state));
        self.endpoint
            .run(move |req| dispatch(&state, req), move || bump(&idle.stats.idle_disconnects, 1));
        self.state.scheduler.shutdown();
    }

    /// Runs the accept loop on a background thread.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let Server { endpoint, state } = self;
        endpoint.spawn(move |endpoint| Server { endpoint, state }.run())
    }
}

fn dispatch(state: &Arc<ServerState>, req: Request) -> Json {
    let id = req.id;
    match req.op {
        Op::Ping => ok_reply(id, Json::obj([("pong", Json::Bool(true))])),
        Op::Shutdown => ok_reply(id, Json::obj([("bye", Json::Bool(true))])),
        Op::List => {
            let items: Vec<Json> = state
                .registry
                .list()
                .iter()
                .map(|ds| {
                    let mut pairs = vec![
                        ("name".to_string(), Json::from(ds.name.clone())),
                        ("source".to_string(), Json::from(ds.source_desc.clone())),
                        ("n_vertices".to_string(), Json::from(ds.n_vertices)),
                        ("n_edges".to_string(), Json::from(ds.n_edges)),
                        ("load_seconds".to_string(), Json::Num(ds.load_seconds)),
                        ("has_graph".to_string(), Json::Bool(ds.graph().is_some())),
                        ("warm".to_string(), Json::Bool(ds.warm())),
                    ];
                    push_shard_fields(&mut pairs, ds);
                    Json::Obj(pairs)
                })
                .collect();
            ok_reply(id, Json::obj([("datasets", Json::Arr(items))]))
        }
        Op::Stats => {
            let mut body = state.stats.to_json(state.scheduler.queue_depth(), state.cache.stats());
            if let Json::Obj(pairs) = &mut body {
                // Memoised `auto` picks, one entry per dataset that has
                // resolved at least one (datasets never asked for `auto`
                // are omitted rather than forcing a feature computation).
                let autos: Vec<Json> = state
                    .registry
                    .list()
                    .iter()
                    .filter_map(|ds| {
                        let [plain, sym] = ds.auto_decisions();
                        if plain.is_none() && sym.is_none() {
                            return None;
                        }
                        let mut p = vec![("dataset".to_string(), Json::from(ds.name.clone()))];
                        if let Some(k) = plain {
                            p.push((
                                "engine_selected".to_string(),
                                Json::from(engine_wire_name(k)),
                            ));
                        }
                        if let Some(k) = sym {
                            p.push((
                                "engine_selected_symmetrized".to_string(),
                                Json::from(engine_wire_name(k)),
                            ));
                        }
                        Some(Json::Obj(p))
                    })
                    .collect();
                pairs.push(("auto_engines".to_string(), Json::Arr(autos)));
                // Durable-store and warm-tier counters. Always present
                // (zeros without a store) so the wire shape is stable.
                let sc = state.registry.store_counters();
                pairs.push(("store_hits".to_string(), Json::from(sc.hits)));
                pairs.push(("store_misses".to_string(), Json::from(sc.misses)));
                pairs.push(("store_writes".to_string(), Json::from(sc.writes)));
                pairs.push(("store_quarantined".to_string(), Json::from(sc.quarantined)));
                pairs.push(("evictions".to_string(), Json::from(state.registry.evictions())));
                pairs.push((
                    "resident_artifact_bytes".to_string(),
                    Json::from(state.registry.resident_bytes()),
                ));
            }
            ok_reply(id, body)
        }
        Op::Register { name, source } => result_reply(id, handle_register(state, &name, &source)),
        Op::Job { dataset, engine, job, timeout_ms, nocache, top_k, include_values, trace } => {
            let outcome = handle_job(
                state,
                &dataset,
                engine,
                &job,
                timeout_ms,
                nocache,
                top_k,
                include_values,
                trace,
            );
            result_reply(id, outcome)
        }
        Op::Trace { trace_id } => {
            let traces = lock_ok(&state.traces);
            match traces.iter().find(|(tid, _)| *tid == trace_id) {
                Some((_, tree)) => ok_reply(id, tree.clone()),
                None => error_reply(
                    id,
                    &format!("unknown trace_id {trace_id} (expired or never recorded)"),
                ),
            }
        }
        Op::Sweep { dataset, engine, monoid, view, xbits } => {
            result_reply(id, handle_sweep(state, &dataset, engine, monoid, view, xbits))
        }
        Op::Degrees { dataset, view } => result_reply(id, handle_degrees(state, &dataset, view)),
    }
}

/// Appends the shard placement fields to a reply body when the dataset is
/// a destination-range shard — the router builds its placement table from
/// the `register` reply, and `list` mirrors the same fields.
fn push_shard_fields(pairs: &mut Vec<(String, Json)>, ds: &Dataset) {
    let Some(meta) = ds.shard() else {
        return;
    };
    pairs.push(("shard_index".to_string(), Json::from(meta.index)));
    pairs.push(("shard_count".to_string(), Json::from(meta.count)));
    pairs.push(("range_start".to_string(), Json::from(meta.info.range.start)));
    pairs.push(("range_end".to_string(), Json::from(meta.info.range.end)));
    pairs.push(("shard_edges".to_string(), Json::from(meta.info.n_edges)));
    pairs.push(("boundary_sources".to_string(), Json::from(meta.info.boundary_sources)));
}

fn handle_register(
    state: &Arc<ServerState>,
    name: &str,
    source: &GraphSource,
) -> Result<Json, String> {
    let ds = state.registry.register(name, source)?;
    let mut pairs = vec![
        ("name".to_string(), Json::from(ds.name.clone())),
        ("n_vertices".to_string(), Json::from(ds.n_vertices)),
        ("n_edges".to_string(), Json::from(ds.n_edges)),
        ("load_seconds".to_string(), Json::Num(ds.load_seconds)),
    ];
    push_shard_fields(&mut pairs, &ds);
    Ok(Json::Obj(pairs))
}

/// One monoid-typed edge sweep `y = A ⊙ x` — the router's per-round
/// primitive. Vectors travel as f64 *bit patterns* (u64s): JSON has no
/// NaN/∞ literals and SSSP/CC sweeps legitimately carry +∞, and bit
/// patterns exceed 2^53, so the exact-integer `Json` representation is
/// load-bearing here. The sweep runs through the scheduler like any job,
/// so the admission queue still bounds total in-flight compute. Engines
/// run in their internal vertex order; the wire carries original order,
/// converted on both edges — a shard worker therefore folds exactly its
/// shard's CSC rows and returns the monoid identity everywhere else.
fn handle_sweep(
    state: &Arc<ServerState>,
    dataset: &str,
    engine: EngineChoice,
    monoid: Monoid,
    view: GraphView,
    xbits: Vec<u64>,
) -> Result<Json, String> {
    let ds = registered(state, dataset)?;
    let symmetrized = view == GraphView::Sym;
    let engine: EngineKind = match engine {
        EngineChoice::Fixed(kind) => kind,
        EngineChoice::Auto => ds.auto_engine(symmetrized, state.registry.cfg())?,
    };
    if xbits.len() != ds.n_vertices {
        return Err(format!(
            "xbits has {} entries; dataset '{dataset}' has {} vertices",
            xbits.len(),
            ds.n_vertices
        ));
    }
    bump(&state.stats.submitted, 1);
    let state_for_exec = Arc::clone(state);
    let ds_for_exec = Arc::clone(&ds);
    let handle = state
        .scheduler
        .submit(
            None,
            Box::new(move |_cancel| {
                let _span = ihtl_trace::span("sweep").with_arg(xbits.len() as u64);
                let x: Vec<f64> = xbits.iter().map(|&b| f64::from_bits(b)).collect();
                let y = ds_for_exec
                    .with_engine(engine, symmetrized, &state_for_exec.registry, |e| {
                        let xe = e.from_original_order(&x);
                        let mut ye = vec![monoid.identity(); xe.len()];
                        match monoid {
                            Monoid::Add => e.spmv_add(&xe, &mut ye),
                            Monoid::Min => e.spmv_min(&xe, &mut ye),
                        }
                        e.to_original_order(&ye)
                    })
                    .map_err(JobError::Failed)?;
                Ok(Json::obj([("ybits", bits_to_json(&y))]))
            }),
        )
        .map_err(|e| submit_error(state, e))?;
    match handle.wait() {
        Ok(mut body) => {
            bump(&state.stats.completed, 1);
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("dataset".to_string(), Json::from(ds.name.clone())));
                pairs.push(("engine".to_string(), Json::from(engine_wire_name(engine))));
                pairs.push(("monoid".to_string(), Json::from(monoid.wire_name())));
                pairs.push(("view".to_string(), Json::from(view.wire_name())));
                pairs.push(("n_vertices".to_string(), Json::from(ds.n_vertices)));
            }
            Ok(body)
        }
        Err(err) => {
            bump(&state.stats.failed, 1);
            Err(err.message())
        }
    }
}

fn registered(state: &ServerState, dataset: &str) -> Result<Arc<Dataset>, String> {
    state
        .registry
        .get(dataset)
        .ok_or_else(|| format!("unknown dataset '{dataset}' (register it first)"))
}

/// The wire message for a refused submission; overload rejections are
/// counted.
fn submit_error(state: &ServerState, e: SubmitError) -> String {
    match e {
        SubmitError::Overloaded => {
            bump(&state.stats.rejected_overloaded, 1);
            "overloaded".to_string()
        }
        SubmitError::ShuttingDown => "server shutting down".to_string(),
    }
}

/// The dataset's per-vertex out-degree vector. A shard reports only the
/// degrees of edges it kept, so a router sums these across shards to
/// recover the global vector PageRank normalises by — integer addition,
/// hence exact.
fn handle_degrees(
    state: &Arc<ServerState>,
    dataset: &str,
    view: GraphView,
) -> Result<Json, String> {
    let ds = registered(state, dataset)?;
    let g = match view {
        GraphView::Raw => ds.graph().ok_or_else(|| {
            format!(
                "dataset '{dataset}' was registered from an iHTL image; degrees need the raw graph"
            )
        })?,
        GraphView::Sym => ds.sym_graph()?,
    };
    let degrees: Vec<Json> =
        (0..g.n_vertices() as u32).map(|v| Json::from(g.out_degree(v) as u64)).collect();
    Ok(Json::obj([
        ("dataset", Json::from(ds.name.clone())),
        ("view", Json::from(view.wire_name())),
        ("n_vertices", Json::from(g.n_vertices())),
        ("degrees", Json::Arr(degrees)),
    ]))
}

#[allow(clippy::too_many_arguments)]
fn handle_job(
    state: &Arc<ServerState>,
    dataset: &str,
    engine: EngineChoice,
    job: &WireJob,
    timeout_ms: Option<u64>,
    nocache: bool,
    top_k: usize,
    include_values: bool,
    trace: bool,
) -> Result<Json, String> {
    let ds = registered(state, dataset)?;
    // Reject bad job parameters (e.g. an sssp/bfs source beyond the vertex
    // count) at admission — before the submission counter, the latency
    // timer, and the batching path — so the reply is a clear wire error
    // with zero reported seconds, not a failure deep in the executor.
    if let WireJob::Analytic(spec) = job {
        if let Err(msg) = spec.validate(ds.n_vertices, ds.graph().as_deref()) {
            // A rejected job still counts as a failed one for fleet health.
            bump(&state.stats.failed, 1);
            return Err(msg);
        }
    }
    // Resolve `auto` to a concrete engine *before* cache-keying, so an
    // auto request and an explicit request for the engine it picks share
    // one cache entry (and the memoised decision makes this resolution a
    // single atomic load after the first job).
    let engine: EngineKind = match engine {
        EngineChoice::Fixed(kind) => kind,
        EngineChoice::Auto => {
            let symmetrized = match job {
                WireJob::Analytic(spec) => spec.needs_symmetrized(),
                _ => false,
            };
            ds.auto_engine(symmetrized, state.registry.cfg())?
        }
    };
    let cache_key = ResultCache::key(
        dataset,
        engine_wire_name(engine),
        &job.canonical(),
        top_k,
        include_values,
    );
    // A traced request must actually execute (a cached reply has no spans),
    // and its reply must not be cached (the trace_id is call-specific).
    let use_cache = job.cacheable() && !nocache && !trace && state.cfg.cache_capacity > 0;
    if use_cache {
        if let Some(mut body) = state.cache.get(&cache_key) {
            if let Json::Obj(pairs) = &mut body {
                pairs.retain(|(k, _)| k != "cached");
                pairs.push(("cached".to_string(), Json::Bool(true)));
            }
            return Ok(body);
        }
    }

    bump(&state.stats.submitted, 1);
    // lint:allow(R4): admission timestamp feeds the latency histogram only
    let submitted_at = Instant::now();
    let deadline = timeout_ms.map(|ms| submitted_at + Duration::from_millis(ms));
    // Coalescible analytics park on a batch slot instead of a private
    // scheduler job, so queued lookalikes share one SpMM edge sweep.
    // Traced jobs stay solo: their span tree must describe exactly one
    // execution, not whatever batch they landed in.
    let batch_group = match job {
        WireJob::Analytic(spec) if !trace && state.cfg.max_batch > 1 => {
            spec.batch_group_key().map(|group| (spec, group))
        }
        _ => None,
    };
    // Either path yields the reply body plus the one field that describes
    // this call rather than the result (`batch_k` / `trace_id`), which is
    // therefore appended — like `cached` — only after the cache put.
    let outcome = if let Some((spec, group)) = batch_group {
        let key = format!("{dataset}|{}|{group}", engine_wire_name(engine));
        wait_batched(state, &ds, engine, spec, key, deadline)?.map(|b| {
            let body = job_body(&ds, engine, spec, &b.output, top_k, include_values);
            (body, Some(("batch_k", Json::from(b.batch_k))))
        })
    } else {
        // ORDERING: Relaxed — only uniqueness of the trace id matters.
        let trace_id = trace.then(|| state.next_trace_id.fetch_add(1, Ordering::Relaxed));
        let job_for_exec = job.clone();
        let state_for_exec = Arc::clone(state);
        let ds_for_exec = Arc::clone(&ds);
        let handle = state
            .scheduler
            .submit(
                deadline,
                Box::new(move |cancel| {
                    // Tracing turns on for exactly this job's execution window:
                    // the guard + mark are taken on the executor thread, so the
                    // `job` root span and everything `run_job` opens nest under
                    // it, and pool-worker spans land in the collected window.
                    let traced =
                        trace_id.map(|tid| (tid, ihtl_trace::enable(), ihtl_trace::mark()));
                    let root = ihtl_trace::span("job");
                    let result = execute_job(
                        &state_for_exec,
                        &ds_for_exec,
                        engine,
                        &job_for_exec,
                        top_k,
                        include_values,
                        cancel,
                    )
                    .map_err(JobError::Failed);
                    drop(root);
                    if let Some((tid, guard, mark)) = traced {
                        let capture = mark.collect();
                        drop(guard);
                        store_trace(&state_for_exec, tid, &capture);
                    }
                    result
                }),
            )
            .map_err(|e| submit_error(state, e))?;
        handle.wait().map(|body| (body, trace_id.map(|tid| ("trace_id", Json::from(tid)))))
    };
    let latency = submitted_at.elapsed().as_secs_f64();
    state.stats.record_latency(latency);
    match outcome {
        Ok((mut body, call_field)) => {
            bump(&state.stats.completed, 1);
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("latency_seconds".to_string(), Json::Num(latency)));
            }
            if use_cache {
                state.cache.put(cache_key, body.clone());
            }
            if let Json::Obj(pairs) = &mut body {
                pairs.push(("cached".to_string(), Json::Bool(false)));
                pairs.extend(call_field.map(|(k, v)| (k.to_string(), v)));
            }
            Ok(body)
        }
        Err(err) => {
            if err == JobError::DeadlineExceeded {
                bump(&state.stats.deadline_missed, 1);
            }
            bump(&state.stats.failed, 1);
            Err(err.message())
        }
    }
}

/// The batching path of a coalescible job: enlist with the coalescer, lead
/// (submit the one batch closure) if this request opened the group, then
/// park on the member slot until the sweep demuxes this column — or the
/// member's own deadline passes. A refused submission is the outer error.
fn wait_batched(
    state: &Arc<ServerState>,
    ds: &Arc<Dataset>,
    engine: EngineKind,
    spec: &JobSpec,
    key: String,
    deadline: Option<Instant>,
) -> Result<Result<BatchedOutput, JobError>, String> {
    let (slot, ticket) = state.coalescer.enlist(key, spec.clone());
    if let Some(ticket) = ticket {
        let state_for_exec = Arc::clone(state);
        let ds_for_exec = Arc::clone(ds);
        let max_batch = state.cfg.max_batch;
        // The batch closure carries no deadline of its own: each member
        // enforces its deadline on its slot, and a closure purged from the
        // queue would strand every member. On submit failure the dropped
        // ticket fails all enlisted slots, so nobody hangs.
        state
            .scheduler
            .submit(
                None,
                Box::new(move |_cancel| {
                    run_batch(&state_for_exec, &ds_for_exec, engine, ticket, max_batch);
                    Ok(Json::Null)
                }),
            )
            .map_err(|e| submit_error(state, e))?;
    }
    Ok(slot.wait(deadline))
}

/// Executor-side batch driver: claims the group's members, runs them, and
/// guarantees every member slot is filled even if execution panics.
fn run_batch(
    state: &Arc<ServerState>,
    ds: &Dataset,
    engine: EngineKind,
    ticket: BatchTicket,
    max_batch: usize,
) {
    let members = ticket.drain();
    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_batch(state, ds, engine, &members, max_batch);
    }));
    // Backstop (first writer wins, so this is a no-op for filled slots):
    // any slot a panic left unfilled fails instead of hanging its client.
    for m in &members {
        m.fill(Err(JobError::Panicked));
    }
    drop(ran);
}

/// Runs a drained batch in chunks of at most `max_batch` columns, demuxing
/// each chunk's result columns into the members' slots. A member whose
/// parameters are rejected fails alone; the surviving columns still share
/// the sweep.
fn execute_batch(
    state: &ServerState,
    ds: &Dataset,
    engine: EngineKind,
    members: &[BatchMember],
    max_batch: usize,
) {
    let live: Vec<&BatchMember> = members.iter().filter(|m| !m.is_abandoned()).collect();
    for chunk in live.chunks(max_batch.max(1)) {
        let _span = ihtl_trace::span("batch").with_arg(chunk.len() as u64);
        let specs: Vec<JobSpec> = chunk.iter().map(|m| m.spec().clone()).collect();
        let ran = ds.with_engine(engine, false, &state.registry, |e| run_job_multi(e, &specs));
        let results = match ran {
            Ok(results) => results,
            Err(msg) => {
                for m in chunk {
                    m.fill(Err(JobError::Failed(msg.clone())));
                }
                continue;
            }
        };
        // Occupancy counts the columns that actually executed; rejected
        // members consumed no sweep capacity.
        let executed = results.iter().filter(|r| r.is_ok()).count();
        let mut chunk_seconds = 0.0;
        let mut chunk_edges = 0u64;
        for (m, r) in chunk.iter().zip(results) {
            match r {
                Ok(out) => {
                    chunk_seconds += out.seconds;
                    chunk_edges = chunk_edges
                        .saturating_add((ds.n_edges as u64).saturating_mul(out.rounds as u64));
                    m.fill(Ok(BatchedOutput { output: out, batch_k: executed }));
                }
                Err(msg) => m.fill(Err(JobError::Failed(msg))),
            }
        }
        if executed > 0 {
            // One record per sweep over the summed work: per-engine
            // ns/edge in `stats` stays amortized per query.
            state.stats.record_engine(engine, chunk_seconds, chunk_edges);
            state.stats.record_batch(executed);
        }
    }
}

/// Runs the job body on an executor thread.
fn execute_job(
    state: &ServerState,
    ds: &Dataset,
    engine: EngineKind,
    job: &WireJob,
    top_k: usize,
    include_values: bool,
    cancel: &AtomicBool,
) -> Result<Json, String> {
    // ORDERING: Relaxed — advisory cancellation flag: a stale false only
    // wastes compute; the result hand-off is mutex-ordered elsewhere.
    if cancel.load(Ordering::Relaxed) {
        return Err("cancelled".to_string());
    }
    match job {
        WireJob::Sleep { ms } => {
            // Sleep in slices so cancellation/deadline abandonment is cheap.
            // lint:allow(R4): the sleep job is wall-clock by definition
            let end = Instant::now() + Duration::from_millis(*ms);
            // ORDERING: Relaxed — advisory cancellation poll.
            // lint:allow(R4): the sleep job is wall-clock by definition
            while Instant::now() < end && !cancel.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(5.min(*ms).max(1)));
            }
            Ok(Json::obj([("slept_ms", Json::from(*ms))]))
        }
        WireJob::Analytic(spec) => {
            let out = run_analytic(state, ds, engine, spec)?;
            Ok(job_body(ds, engine, spec, &out, top_k, include_values))
        }
        WireJob::Compare { iters } => {
            let spec = JobSpec::PageRank { iters: *iters, seed: None };
            let mut per_engine = Vec::new();
            let mut reference: Option<(EngineKind, Vec<f64>)> = None;
            let mut max_abs_diff = 0.0f64;
            for kind in EngineKind::all() {
                // ORDERING: Relaxed — advisory cancellation poll.
                if cancel.load(Ordering::Relaxed) {
                    return Err("cancelled".to_string());
                }
                if ds.graph().is_none() && kind != EngineKind::Ihtl {
                    continue; // iHTL-image datasets can only run iHTL
                }
                let out = run_analytic(state, ds, kind, &spec)?;
                match &reference {
                    None => reference = Some((kind, out.values.clone())),
                    Some((_, r)) => {
                        for (a, b) in r.iter().zip(&out.values) {
                            max_abs_diff = max_abs_diff.max((a - b).abs());
                        }
                    }
                }
                per_engine.push(Json::obj([
                    ("engine", Json::from(engine_wire_name(kind))),
                    ("seconds", Json::Num(out.seconds)),
                    (
                        "ns_per_edge",
                        Json::Num(out.seconds * 1e9 / (ds.n_edges.max(1) * iters) as f64),
                    ),
                    ("checksum", Json::from(fnv1a_checksum(&out.values))),
                ]));
            }
            Ok(Json::obj([
                ("job", Json::from(spec.canonical())),
                ("engines", Json::Arr(per_engine)),
                ("max_abs_diff", Json::Num(max_abs_diff)),
            ]))
        }
    }
}

/// Renders one thread's flat span list as a forest of
/// `{name, start_ns, dur_ns, arg, children}` nodes, children ordered by
/// start time. Parent links only ever point at earlier ids on the same
/// thread (they come from the tracer's per-thread open-span stack), so the
/// recursion is acyclic and its depth is bounded by the tracer's stack cap.
fn span_forest(spans: &[ihtl_trace::SpanInfo]) -> Json {
    // Sorted (id, index) pairs let children find parents by binary search —
    // no hash map (rule R4a keeps wire-facing files to plain collections).
    let mut by_id: Vec<(u64, usize)> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    by_id.sort_unstable();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match by_id.binary_search_by_key(&s.parent, |&(id, _)| id) {
            Ok(p) if s.parent != 0 && by_id[p].1 != i => children[by_id[p].1].push(i),
            _ => roots.push(i), // orphan: parent span fell out of the ring
        }
    }
    let by_start = |list: &mut Vec<usize>| {
        list.sort_by_key(|&i| spans[i].start_ns);
    };
    by_start(&mut roots);
    for list in &mut children {
        by_start(list);
    }
    fn node(spans: &[ihtl_trace::SpanInfo], children: &[Vec<usize>], i: usize, depth: u32) -> Json {
        let s = &spans[i];
        let kids = if depth > 128 {
            Vec::new() // unreachable with well-formed data; guards the stack
        } else {
            children[i].iter().map(|&c| node(spans, children, c, depth + 1)).collect()
        };
        Json::obj([
            ("name", Json::from(s.name)),
            ("start_ns", Json::from(s.start_ns)),
            ("dur_ns", Json::from(s.dur_ns())),
            ("arg", Json::from(s.arg)),
            ("children", Json::Arr(kids)),
        ])
    }
    Json::Arr(roots.iter().map(|&i| node(spans, &children, i, 0)).collect())
}

/// Renders a job's [`ihtl_trace::Capture`] as the `trace` reply body and
/// files it in the bounded store (oldest traces fall out first).
fn store_trace(state: &ServerState, trace_id: u64, capture: &ihtl_trace::Capture) {
    let mut threads = Vec::with_capacity(1 + capture.remote.len());
    let thread_json = |t: &ihtl_trace::ThreadTrace| {
        Json::obj([
            ("label", Json::from(t.label.clone())),
            ("serial", Json::from(t.serial)),
            ("dropped", Json::from(t.dropped)),
            ("spans", span_forest(&t.spans)),
        ])
    };
    threads.push(thread_json(&capture.local));
    threads.extend(capture.remote.iter().map(thread_json));
    let (start, end) = capture.window_ns;
    let tree = Json::obj([
        ("trace_id", Json::from(trace_id)),
        ("window_ns", Json::Arr(vec![Json::from(start), Json::from(end)])),
        ("threads", Json::Arr(threads)),
    ]);
    let mut traces = lock_ok(&state.traces);
    if traces.len() >= TRACE_STORE_CAP {
        traces.pop_front();
    }
    traces.push_back((trace_id, tree));
}

/// Runs one analytic through the dataset's engine pool, recording engine
/// time into stats.
fn run_analytic(
    state: &ServerState,
    ds: &Dataset,
    engine: EngineKind,
    spec: &JobSpec,
) -> Result<ihtl_apps::JobOutput, String> {
    let graph = ds.graph();
    if spec.needs_raw_graph() && graph.is_none() {
        return Err(format!(
            "job '{}' needs the raw graph, which dataset '{}' (iHTL image) lacks",
            spec.name(),
            ds.name
        ));
    }
    let out = ds.with_engine(engine, spec.needs_symmetrized(), &state.registry, |e| {
        run_job(e, graph.as_deref(), spec)
    })??;
    // Attribute traversal work: each round touches every edge once.
    let edges = (ds.n_edges as u64).saturating_mul(out.rounds as u64);
    state.stats.record_engine(engine, out.seconds, edges);
    Ok(out)
}

/// Renders an analytic's output as the reply body.
fn job_body(
    ds: &Dataset,
    engine: EngineKind,
    spec: &JobSpec,
    out: &ihtl_apps::JobOutput,
    top_k: usize,
    include_values: bool,
) -> Json {
    let mut pairs = vec![
        ("dataset".to_string(), Json::from(ds.name.clone())),
        ("engine".to_string(), Json::from(engine_wire_name(engine))),
        // Always the *resolved* engine: under `engine: "auto"` this is the
        // scoring rule's pick; for a fixed request it echoes the request.
        // Cache-safe because auto resolves before the cache key is formed.
        ("engine_selected".to_string(), Json::from(engine_wire_name(engine))),
        ("job".to_string(), Json::from(spec.canonical())),
        ("n_vertices".to_string(), Json::from(out.values.len())),
        ("rounds".to_string(), Json::from(out.rounds)),
        ("compute_seconds".to_string(), Json::Num(out.seconds)),
        ("checksum".to_string(), Json::from(fnv1a_checksum(&out.values))),
    ];
    push_result_tail(&mut pairs, &out.values, top_k, include_values);
    Json::Obj(pairs)
}

/// FNV-1a over the little-endian bit patterns of the vector, rendered as
/// 16 hex digits. Equal checksums across runs ⇒ bitwise-equal results.
pub fn fnv1a_checksum(values: &[f64]) -> String {
    let mut h = ihtl_graph::io::Fnv1a::new();
    for v in values {
        h.write(&v.to_bits().to_le_bytes());
    }
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_bit_sensitive() {
        let a = fnv1a_checksum(&[1.0, 2.0, 3.0]);
        let b = fnv1a_checksum(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
        assert_ne!(a, fnv1a_checksum(&[1.0, 2.0, 3.0000000000000004]));
        assert_ne!(a, fnv1a_checksum(&[1.0, 2.0]));
        assert_eq!(a.len(), 16);
        // 0.0 and -0.0 differ in bits, so they must differ in checksum.
        assert_ne!(fnv1a_checksum(&[0.0]), fnv1a_checksum(&[-0.0]));
    }
}
