//! Placement router for sharded multi-node serving (DESIGN.md §14).
//!
//! One `ihtl-router` process fronts a fleet of `ihtl-serve` workers. At
//! `register` time the router fans a destination-range shard registration
//! to every worker (shard *k* of *W* over the same base source), records
//! the per-worker vertex ranges the workers report back, and sums their
//! per-shard out-degree contributions into the exact global out-degree
//! vector. At `job` time it runs the ordinary `ihtl-apps` drivers against
//! a [`RouterEngine`] whose per-round edge sweep is a parallel `sweep`
//! fan-out to the owning workers, merged by *ownership selection*.
//!
//! Why selection, not a monoid fold: destination ranges partition the
//! vertices, and a worker holds exactly the monoid identity outside its
//! range, so folding degenerates to picking the owner's entry. Selection
//! also sidesteps the one non-neutral identity case (`+0.0 + -0.0` is
//! `+0.0`, which would destroy a worker-computed `-0.0` bitwise). The
//! merged vector is therefore bitwise-equal to a single-node run for any
//! engine whose row fold matches the full-graph CSC row order
//! (`pull_grind`, `pull_galois`, `pb`), because a shard's owned rows are
//! verbatim slices of the full graph's rows.
//!
//! Locking: the placement table is a leaf `RwLock` and every entry is
//! cloned out before any socket I/O (R6 — no lock is ever held across a
//! `read`/`write` on a worker connection). Worker connections live in
//! per-request [`WorkerLink`]s, never shared across threads.

use std::io::ErrorKind;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use ihtl_apps::{run_job, SpmvEngine};
use ihtl_serve::endpoint::{wire_line, Endpoint, LineClient};
use ihtl_serve::proto::{
    error_reply, ok_reply, push_result_tail, result_reply, sweep_line, u64_array, EngineChoice,
    GraphSource, GraphView, Monoid, Op, Request, WireJob,
};
use ihtl_serve::stats::bump;
use ihtl_serve::{fnv1a_checksum, read_ok, write_ok, Json};

/// Router configuration.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listen address; `127.0.0.1:0` picks an ephemeral port.
    pub addr: String,
    /// Worker addresses, one shard per worker, shard index = position.
    pub workers: Vec<String>,
    /// Connect/read/write timeout for every worker RPC. A worker that dies
    /// mid-job surfaces as a clean `error` reply within this bound.
    pub worker_timeout: Duration,
    /// Maximum request line length accepted from clients.
    pub max_line_bytes: usize,
    /// Idle client connections are closed after this long.
    pub idle_timeout: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: Vec::new(),
            worker_timeout: Duration::from_secs(30),
            max_line_bytes: 64 << 20,
            idle_timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// One dataset's placement: which vertex range each worker owns, plus the
/// global metadata the drivers need. Cloned out of the table before any
/// worker I/O, so it is deliberately cheap to clone (the degree vector is
/// shared).
#[derive(Clone, Debug)]
pub struct PlacementEntry {
    /// Dataset name (the same on the router and on every worker).
    pub name: String,
    /// Base source description (duplicate-registration detection).
    pub source_desc: String,
    /// Global vertex count (every shard reports the same one).
    pub n_vertices: usize,
    /// Total edges across shards (= base graph edges).
    pub n_edges: usize,
    /// Per-worker owned `[start, end)` destination ranges; position =
    /// worker index = shard index. The ranges partition `0..n_vertices`.
    pub ranges: Vec<(u32, u32)>,
    /// Sum of per-shard boundary source counts (cross-shard traffic gauge).
    pub boundary_sources: usize,
    /// Exact global out-degree vector: elementwise integer sum of each
    /// shard's kept-edge degrees. PageRank divides by this.
    pub out_degrees: Arc<Vec<u32>>,
    /// Slowest worker's load time (the fan-out runs in parallel).
    pub load_seconds: f64,
}

/// Router-wide counters (`stats` op).
#[derive(Default)]
struct RouterStats {
    datasets_registered: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    sweeps_fanned: AtomicU64,
    worker_retries: AtomicU64,
}

/// Everything the connection handlers share.
struct RouterState {
    cfg: RouterConfig,
    placements: RwLock<Vec<PlacementEntry>>,
    stats: RouterStats,
}

/// One connection to one worker, used by exactly one thread. `call` opens
/// lazily, retries a failed exchange once on a fresh connection (every
/// router→worker op is idempotent), and reports errors prefixed with the
/// worker address so multi-worker failures are attributable.
struct WorkerLink {
    addr: String,
    timeout: Duration,
    conn: Option<LineClient>,
    /// Incremented on each reconnect-after-failure, drained (and reset) by
    /// the caller into the router-wide counter (the link itself has no
    /// state access).
    retries: u64,
}

impl WorkerLink {
    fn new(addr: &str, timeout: Duration) -> WorkerLink {
        WorkerLink { addr: addr.to_string(), timeout, conn: None, retries: 0 }
    }

    fn connect(&self) -> Result<LineClient, String> {
        LineClient::connect(&self.addr, Some(self.timeout))
            .map_err(|e| format!("worker {}: connect failed: {e}", self.addr))
    }

    /// Sends one pre-rendered request ([`wire_line`]) and returns the
    /// worker's `ok` reply; a worker-side error comes back as `Err` with the
    /// worker's message, prefixed with its address. One retry on a fresh
    /// connection: a worker restart between jobs (or an idle-timeout
    /// disconnect) looks like a dead cached socket, and every op the router
    /// sends is safe to repeat.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        let mut conn = match self.conn.take() {
            Some(c) => c,
            None => self.connect()?,
        };
        let reply = match conn.exchange(line) {
            Ok(r) => r,
            Err(_) => {
                self.retries += 1;
                conn = self.connect()?;
                conn.exchange(line).map_err(|e| format!("worker {}: {e}", self.addr))?
            }
        };
        self.conn = Some(conn);
        let reply =
            Json::parse(&reply).map_err(|e| format!("worker {}: bad reply: {e}", self.addr))?;
        if reply.get("ok").and_then(Json::as_bool) == Some(true) {
            Ok(reply)
        } else {
            let msg = reply.get("error").and_then(Json::as_str).unwrap_or("unspecified failure");
            Err(format!("worker {}: {msg}", self.addr))
        }
    }

    /// `call` for the ops that answer with a whole-graph vector: field
    /// `key` of the reply as exact `u64`s, exactly `n` of them.
    fn call_vector(&mut self, line: &str, key: &str, n: usize) -> Result<Vec<u64>, String> {
        let reply = self.call(line)?;
        let v = u64_array(&reply, key).map_err(|e| format!("worker {}: {e}", self.addr))?;
        if v.len() != n {
            return Err(format!(
                "worker {}: {key} has {} entries, expected {n}",
                self.addr,
                v.len()
            ));
        }
        Ok(v)
    }
}

/// Runs `f(k, link k)` for every worker at once, one scoped thread each, and
/// returns the outcomes in worker order.
fn fan_out<T: Send>(
    links: &mut [WorkerLink],
    f: impl Fn(usize, &mut WorkerLink) -> Result<T, String> + Sync,
) -> Vec<Result<T, String>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = links
            .iter_mut()
            .enumerate()
            .map(|(k, link)| {
                let f = &f;
                s.spawn(move || f(k, link))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("worker fan-out thread panicked".to_string())))
            .collect()
    })
}

/// An [`SpmvEngine`] whose edge sweep is a parallel fan-out of `sweep`
/// RPCs to the shard workers, merged by ownership selection. Identity
/// order conversions: the wire carries original vertex order end to end,
/// so the drivers see the global vertex space directly.
///
/// Failures latch: the first worker error makes every later sweep a no-op
/// (the drivers have no error channel mid-iteration), and the job handler
/// turns the latched message into one clean `error` reply.
struct RouterEngine {
    links: Vec<WorkerLink>,
    ranges: Vec<(u32, u32)>,
    degrees: Arc<Vec<u32>>,
    n: usize,
    /// Fields of the per-round `sweep` request that do not change across
    /// rounds: dataset, forwarded engine choice, view.
    dataset: String,
    engine_wire: &'static str,
    view: GraphView,
    failed: Option<String>,
    sweeps: u64,
}

impl RouterEngine {
    fn sweep(&mut self, monoid: Monoid, x: &[f64], y: &mut [f64]) {
        let identity = monoid.identity();
        y.iter_mut().for_each(|v| *v = identity);
        if self.failed.is_some() {
            return;
        }
        self.sweeps += 1;
        // Every worker receives the identical request (same dataset name,
        // same full-length vector), so render the line once.
        let line = sweep_line(&self.dataset, self.engine_wire, monoid, self.view, x);
        let n = self.n;
        let results = fan_out(&mut self.links, |_, link| link.call_vector(&line, "ybits", n));
        for (k, result) in results.into_iter().enumerate() {
            match result {
                Ok(ybits) => {
                    // Ownership selection: shard k's answer is authoritative
                    // exactly on its destination range; everything outside
                    // is its padding identity and is discarded.
                    let (start, end) = self.ranges[k];
                    for v in start as usize..end as usize {
                        y[v] = f64::from_bits(ybits[v]);
                    }
                }
                Err(e) => {
                    if self.failed.is_none() {
                        self.failed = Some(e);
                    }
                }
            }
        }
        if self.failed.is_some() {
            // Partial merges must not leak: a half-written y would look
            // like a result. Reset to the identity; the handler reports
            // the latched error instead of values.
            y.iter_mut().for_each(|v| *v = identity);
        }
    }
}

impl SpmvEngine for RouterEngine {
    fn n_vertices(&self) -> usize {
        self.n
    }

    fn label(&self) -> &'static str {
        "router"
    }

    fn out_degrees(&self) -> &[u32] {
        &self.degrees
    }

    fn spmv_add(&mut self, x: &[f64], y: &mut [f64]) {
        self.sweep(Monoid::Add, x, y);
    }

    fn spmv_min(&mut self, x: &[f64], y: &mut [f64]) {
        self.sweep(Monoid::Min, x, y);
    }
}

/// A bound (not yet running) router: the shared [`Endpoint`] plus the state
/// its dispatcher works on.
pub struct Router {
    endpoint: Endpoint,
    state: Arc<RouterState>,
}

/// Handle to a router running on a background thread. `shutdown` stops the
/// accept loop and joins it; workers are independent processes and are left
/// running.
pub type RouterHandle = ihtl_serve::endpoint::Handle;

impl Router {
    /// Binds the listening socket. Requires at least one worker: a router
    /// with nobody to route to is a misconfiguration, not a degenerate
    /// deployment.
    pub fn bind(cfg: RouterConfig) -> std::io::Result<Router> {
        if cfg.workers.is_empty() {
            return Err(std::io::Error::new(
                ErrorKind::InvalidInput,
                "router requires at least one --workers address",
            ));
        }
        let endpoint =
            Endpoint::bind(&cfg.addr, "ihtl-router", cfg.max_line_bytes, cfg.idle_timeout)?;
        let state = Arc::new(RouterState {
            cfg,
            placements: RwLock::new(Vec::new()),
            stats: RouterStats::default(),
        });
        Ok(Router { endpoint, state })
    }

    /// The bound address (resolved once at bind time).
    pub fn local_addr(&self) -> SocketAddr {
        self.endpoint.local_addr()
    }

    /// Runs the accept loop on the current thread until shutdown.
    pub fn run(self) {
        let state = self.state;
        self.endpoint.run(move |req| dispatch(&state, req), || {});
    }

    /// Runs the accept loop on a background thread.
    pub fn spawn(self) -> std::io::Result<RouterHandle> {
        let Router { endpoint, state } = self;
        endpoint.spawn(move |endpoint| Router { endpoint, state }.run())
    }
}

fn dispatch(state: &Arc<RouterState>, req: Request) -> Json {
    let id = req.id;
    match req.op {
        Op::Ping => ok_reply(
            id,
            Json::obj([
                ("role", Json::from("router")),
                ("workers", Json::from(state.cfg.workers.len())),
            ]),
        ),
        Op::Shutdown => ok_reply(id, Json::obj([("shutting_down", Json::Bool(true))])),
        Op::Register { name, source } => result_reply(id, handle_register(state, &name, &source)),
        Op::Job { dataset, engine, job, timeout_ms, nocache: _, top_k, include_values, trace } => {
            if trace {
                return error_reply(id, "trace is not supported by the router");
            }
            if timeout_ms.is_some() {
                return error_reply(
                    id,
                    "timeout_ms is not supported by the router (set --worker-timeout-ms instead)",
                );
            }
            result_reply(id, handle_job(state, &dataset, engine, &job, top_k, include_values))
        }
        Op::List => {
            let entries = read_ok(&state.placements).clone();
            let datasets: Vec<Json> = entries
                .iter()
                .map(|e| {
                    Json::obj([
                        ("name", Json::from(e.name.clone())),
                        ("source", Json::from(e.source_desc.clone())),
                        ("n_vertices", Json::from(e.n_vertices)),
                        ("n_edges", Json::from(e.n_edges)),
                        ("shards", Json::from(e.ranges.len())),
                        ("boundary_sources", Json::from(e.boundary_sources)),
                        (
                            "ranges",
                            Json::Arr(
                                e.ranges
                                    .iter()
                                    .map(|&(s, en)| Json::Arr(vec![Json::from(s), Json::from(en)]))
                                    .collect(),
                            ),
                        ),
                        ("load_seconds", Json::Num(e.load_seconds)),
                    ])
                })
                .collect();
            ok_reply(id, Json::obj([("datasets", Json::Arr(datasets))]))
        }
        Op::Stats => ok_reply(id, handle_stats(state)),
        Op::Trace { .. } => error_reply(id, "trace is not supported by the router"),
        Op::Sweep { .. } => {
            error_reply(id, "sweep is a worker-side op; send jobs to the router instead")
        }
        Op::Degrees { .. } => {
            error_reply(id, "degrees is a worker-side op; send jobs to the router instead")
        }
    }
}

fn find_placement(state: &RouterState, dataset: &str) -> Option<PlacementEntry> {
    read_ok(&state.placements).iter().find(|e| e.name == dataset).cloned()
}

fn fresh_links(state: &RouterState) -> Vec<WorkerLink> {
    state.cfg.workers.iter().map(|addr| WorkerLink::new(addr, state.cfg.worker_timeout)).collect()
}

/// Registers `source` as a sharded dataset: shard `k` of `W` goes to
/// worker `k`. Idempotent by (name, source): re-registering the same pair
/// returns the recorded placement; a different source under a taken name
/// is an error.
fn handle_register(
    state: &Arc<RouterState>,
    name: &str,
    source: &GraphSource,
) -> Result<Json, String> {
    if matches!(source, GraphSource::Shard { .. }) {
        return Err("the router assigns shards itself; register a plain source".to_string());
    }
    let source_desc = source.describe();
    if let Some(existing) = find_placement(state, name) {
        return reregister(&existing, &source_desc);
    }
    let count = state.cfg.workers.len();
    let mut links = fresh_links(state);
    let _span = ihtl_trace::span("router_register").with_arg(count as u64);
    // Fan the shard registrations out in parallel: each worker loads (or
    // generates) the base graph and extracts its own shard, so the wall
    // clock is one load, not W of them.
    let replies = fan_out(&mut links, |index, link| {
        let shard = GraphSource::Shard { index, count, base: Box::new(source.clone()) };
        let req = Json::obj([
            ("op", Json::from("register")),
            ("name", Json::from(name)),
            ("source", shard.to_json()),
        ]);
        link.call(&wire_line(&req))
    });
    drain_retries(state, &mut links);
    let mut ranges = vec![(0u32, 0u32); count];
    let mut n_vertices = 0usize;
    let mut n_edges = 0usize;
    let mut boundary_sources = 0usize;
    let mut load_seconds = 0.0f64;
    for (k, reply) in replies.iter().enumerate() {
        let reply = reply.as_ref().map_err(Clone::clone)?;
        let field = |key: &str| {
            reply
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("worker {}: register reply lacks {key}", links[k].addr))
        };
        let nv = field("n_vertices")? as usize;
        if k == 0 {
            n_vertices = nv;
        } else if nv != n_vertices {
            return Err(format!(
                "worker {}: shard reports {nv} vertices, shard 0 reported {n_vertices} \
                 (inconsistent base graphs?)",
                links[k].addr
            ));
        }
        ranges[k] = (field("range_start")? as u32, field("range_end")? as u32);
        n_edges += field("shard_edges")? as usize;
        boundary_sources += field("boundary_sources")? as usize;
        if let Some(s) = reply.get("load_seconds").and_then(Json::as_f64) {
            load_seconds = load_seconds.max(s);
        }
    }
    // Fetch and sum the per-shard out-degree contributions. Integer
    // addition, so the sum is the base graph's exact out-degree vector.
    let degree_req = wire_line(&Json::obj([
        ("op", Json::from("degrees")),
        ("dataset", Json::from(name)),
        ("view", Json::from("raw")),
    ]));
    let shard_degrees =
        fan_out(&mut links, |_, link| link.call_vector(&degree_req, "degrees", n_vertices));
    drain_retries(state, &mut links);
    let mut degrees = vec![0u64; n_vertices];
    for shard in shard_degrees {
        for (acc, d) in degrees.iter_mut().zip(shard?) {
            *acc += d;
        }
    }
    let out_degrees: Vec<u32> = degrees
        .into_iter()
        .map(|d| u32::try_from(d).map_err(|_| "summed out-degree exceeds u32".to_string()))
        .collect::<Result<_, _>>()?;
    let entry = PlacementEntry {
        name: name.to_string(),
        source_desc,
        n_vertices,
        n_edges,
        ranges,
        boundary_sources,
        out_degrees: Arc::new(out_degrees),
        load_seconds,
    };
    // Two clients racing to register the same name: first writer wins, and
    // a same-source loser adopts the winner's entry (idempotent), exactly
    // like the re-registration path above.
    let mut table = write_ok(&state.placements);
    if let Some(existing) = table.iter().find(|e| e.name == name) {
        return reregister(existing, &entry.source_desc);
    }
    let body = register_body(&entry);
    table.push(entry);
    drop(table);
    bump(&state.stats.datasets_registered, 1);
    Ok(body)
}

/// Registering a taken name: idempotent for the same source, an error for
/// a different one.
fn reregister(existing: &PlacementEntry, source_desc: &str) -> Result<Json, String> {
    if existing.source_desc == source_desc {
        Ok(register_body(existing))
    } else {
        Err(format!(
            "dataset '{}' already registered with source {}",
            existing.name, existing.source_desc
        ))
    }
}

fn register_body(entry: &PlacementEntry) -> Json {
    Json::obj([
        ("name", Json::from(entry.name.clone())),
        ("n_vertices", Json::from(entry.n_vertices)),
        ("n_edges", Json::from(entry.n_edges)),
        ("shards", Json::from(entry.ranges.len())),
        ("boundary_sources", Json::from(entry.boundary_sources)),
        ("load_seconds", Json::Num(entry.load_seconds)),
    ])
}

fn handle_job(
    state: &Arc<RouterState>,
    dataset: &str,
    engine: EngineChoice,
    job: &WireJob,
    top_k: usize,
    include_values: bool,
) -> Result<Json, String> {
    let entry = find_placement(state, dataset)
        .ok_or_else(|| format!("unknown dataset '{dataset}' (register it first)"))?;
    let spec = match job {
        WireJob::Analytic(spec) => spec,
        WireJob::Compare { .. } | WireJob::Sleep { .. } => {
            return Err(format!(
                "{} jobs are not supported by the router",
                if matches!(job, WireJob::Compare { .. }) { "compare" } else { "sleep" }
            ));
        }
    };
    if spec.needs_raw_graph() {
        return Err("bfs needs the raw graph; the router serves sweep-based analytics \
                    (pagerank, spmv, sssp, cc)"
            .to_string());
    }
    // Admission validation, same contract as a worker: rejected jobs report
    // no compute seconds, touch no worker, and still count as failed.
    spec.validate(entry.n_vertices, None).inspect_err(|_| {
        bump(&state.stats.jobs_failed, 1);
    })?;
    let view = if spec.needs_symmetrized() { GraphView::Sym } else { GraphView::Raw };
    let mut eng = RouterEngine {
        links: fresh_links(state),
        ranges: entry.ranges.clone(),
        degrees: Arc::clone(&entry.out_degrees),
        n: entry.n_vertices,
        dataset: dataset.to_string(),
        engine_wire: engine.wire_name(),
        view,
        failed: None,
        sweeps: 0,
    };
    let _span = ihtl_trace::span("router_job").with_arg(eng.links.len() as u64);
    let result = run_job(&mut eng, None, spec);
    drain_retries(state, &mut eng.links);
    bump(&state.stats.sweeps_fanned, eng.sweeps);
    if let Some(msg) = eng.failed {
        bump(&state.stats.jobs_failed, 1);
        return Err(msg);
    }
    let out = result.inspect_err(|_| {
        bump(&state.stats.jobs_failed, 1);
    })?;
    bump(&state.stats.jobs_completed, 1);
    let mut pairs = vec![
        ("dataset".to_string(), Json::from(dataset)),
        ("engine".to_string(), Json::from(engine.wire_name())),
        // What each worker resolved the forwarded choice to; the merge is
        // engine-independent, so the router reports its own label.
        ("engine_selected".to_string(), Json::from("router")),
        ("job".to_string(), Json::from(spec.canonical())),
        ("n_vertices".to_string(), Json::from(out.values.len())),
        ("rounds".to_string(), Json::from(out.rounds)),
        ("compute_seconds".to_string(), Json::Num(out.seconds)),
        ("checksum".to_string(), Json::from(fnv1a_checksum(&out.values))),
        ("shards".to_string(), Json::from(entry.ranges.len())),
    ];
    push_result_tail(&mut pairs, &out.values, top_k, include_values);
    Ok(Json::Obj(pairs))
}

/// Moves each link's retry count into the router-wide counter, resetting
/// it, so a link drained more than once counts each retry exactly once.
fn drain_retries(state: &RouterState, links: &mut [WorkerLink]) {
    let total: u64 = links.iter_mut().map(|l| std::mem::take(&mut l.retries)).sum();
    if total > 0 {
        bump(&state.stats.worker_retries, total);
    }
}

fn handle_stats(state: &Arc<RouterState>) -> Json {
    // Ping every worker so `stats` doubles as a fleet health check. Done
    // on fresh links so a wedged worker costs one timeout, not a hang.
    let mut links = fresh_links(state);
    let ping = wire_line(&Json::obj([("op", Json::from("ping"))]));
    let health: Vec<Json> = fan_out(&mut links, |_, link| link.call(&ping))
        .iter()
        .zip(&state.cfg.workers)
        .map(|(pong, addr)| {
            Json::obj([("addr", Json::from(addr.clone())), ("reachable", Json::Bool(pong.is_ok()))])
        })
        .collect();
    let stats = &state.stats;
    // ORDERING: Relaxed — stats reads; a momentarily torn view across
    // counters is fine for a monitoring endpoint.
    let load = |a: &AtomicU64| Json::from(a.load(Ordering::Relaxed));
    Json::obj([
        ("role", Json::from("router")),
        ("datasets", Json::from(read_ok(&state.placements).len())),
        ("datasets_registered", load(&stats.datasets_registered)),
        ("jobs_completed", load(&stats.jobs_completed)),
        ("jobs_failed", load(&stats.jobs_failed)),
        ("sweeps_fanned", load(&stats.sweeps_fanned)),
        ("worker_retries", load(&stats.worker_retries)),
        ("workers", Json::Arr(health)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_retries_counts_each_retry_once() {
        let state = RouterState {
            cfg: RouterConfig::default(),
            placements: RwLock::new(Vec::new()),
            stats: RouterStats::default(),
        };
        let mut links = vec![WorkerLink::new("127.0.0.1:1", Duration::from_secs(1))];
        links[0].retries = 1;
        // `handle_register` drains the same links after each of its two
        // fan-outs; the one retry must not be counted again the second time.
        drain_retries(&state, &mut links);
        drain_retries(&state, &mut links);
        assert_eq!(state.stats.worker_retries.load(Ordering::Relaxed), 1);
    }
}
