//! `router_shards`: `ihtl-router` in front of two `ihtl-serve` shard
//! workers, four client connections, closed loop.
//!
//! Fan-out → slowest shard → ownership merge, on a graph small enough that
//! the edge sweep does almost none of the work: rendering and parsing the
//! decimal-text `xbits` vectors and the per-round RPC dominate. The full
//! graph is also registered on worker 0 as the single-node reference.

use std::sync::Arc;
use std::time::Instant;

use ihtl_apps::JobSpec;
use ihtl_graph::shard::{extract_shard, shard_info, shard_ranges};
use ihtl_serve::proto::GraphSource;
use ihtl_serve::Json;
use ihtl_traversal::pull::pull_rows_into;
use ihtl_traversal::Add;

use crate::drive::{self, Quota, Record, Reply};
use crate::gen::{self, Input};
use crate::host;
use crate::metrics::Metrics;
use crate::oracle::{Oracle, Tally};
use crate::proc::{Conn, Fleet};
use crate::schedule::{self, DatasetView, Mix, Request, Stream};
use crate::serve::{parse_sweep_mb_per_s, sweep_line};
use crate::stats::{mean, median, tail_or_zero};
use crate::sweep::{Tracer, SETUP_REPS};
use crate::util::{median_secs, self_hwm_kib, timed, Dirs};
use crate::{note, Outcome, RunArgs};

const SHARDS: usize = 2;
const WARMUP_S: f64 = 0.5;
/// Name of the unsharded copy on worker 0.
const FULL: &str = "full";
/// The order-preserving engines the router is sent, alternately.
const ENGINES: [&str; 2] = ["pull_grind", "pb"];
/// Length of the router mix's fixed pattern (closed loops stop on whole
/// patterns; ten covers both engines on every kind).
const PATTERN: usize = 10;
/// Requests each connection keeps outstanding in the capacity phase: the
/// router answers a connection's requests one after another, so a second
/// queued request is enough to keep it busy while the client waits out the
/// delayed-ACK stall on the first one's reply.
const CAP_WINDOW: usize = 2;
/// Client connections of the capacity phase, each a closed loop of its own.
/// A routed round is a 0.2 ms kernel inside one or two 44 ms stalls (σ ≈ 20
/// ms per round); the router overlaps the rounds of different clients, so
/// four clients put four times the rounds into the same window (11.7 jobs/s
/// against 4.4) and the spread of the per-class numbers fell from 6 % to 2 %.
const CAP_CONNS: usize = 4;

struct Ports {
    router: u16,
    workers: [u16; SHARDS],
}

fn boot(fleet: &mut Fleet, dirs: &Dirs) -> Result<Ports, String> {
    let mut workers = [0u16; SHARDS];
    for (k, port) in workers.iter_mut().enumerate() {
        let store = dirs.scratch.join(format!("store-w{k}"));
        *port = fleet.spawn_serve(&format!("worker{k}"), &store, &[])?;
    }
    Ok(Ports { router: fleet.spawn_router(&workers)?, workers })
}

fn register_line(name: &str, input: &Input) -> String {
    let source = GraphSource::GraphImage { path: input.image.display().to_string() };
    format!("{{\"op\":\"register\",\"name\":\"{name}\",\"source\":{}}}", source.to_json())
}

/// Rounds of the first job. Every router round stalls once or twice on a
/// 44 ms delayed ACK (README, finding 1), so a four-round first job read
/// 0.40 s or 0.53 s by seed; twenty rounds average the quantum out. (Not
/// more: the stall pattern is sticky per job, and a thirty-round job read
/// 2.10 s or 2.55 s.)
const FIRST_JOB_ITERS: usize = 20;

/// Registers the dataset through the router and runs the first job (`pb`,
/// so the workers build — or, after a restart, load — a stored artifact).
/// Returns (Σ client seconds, register seconds, register reply, job record).
fn register_and_first_job(
    conn: &mut Conn,
    input: &Input,
) -> Result<(f64, f64, Json, Record), String> {
    let (reg_s, reply) = timed(|| conn.call(&register_line(&input.name, input)));
    let reply = reply.map_err(|e| format!("register via router: {e}"))?;
    let parsed = Json::parse(&reply).map_err(|e| format!("register reply: {e}"))?;
    if parsed.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("router refused register: {reply}"));
    }
    let first = JobSpec::PageRank { iters: FIRST_JOB_ITERS, seed: None };
    let line = schedule::render_job(&input.name, &first, "pb", "");
    let req = Request { due_ns: 0, conn: 0, dataset: 0, spec: first, engine: "pb", line };
    let rec = drive::exchange(conn, req);
    Ok((reg_s + rec.rtt_s, reg_s, parsed, rec))
}

/// What one repetition of the set-up leaves behind.
struct SetUp {
    /// The router and workers left running.
    ports: Ports,
    /// Wall seconds of the whole repetition.
    secs: f64,
    cold_s: f64,
    reboot_s: f64,
    register_s: f64,
    register_reply: Json,
    /// First replies and warm-up records (for the oracle).
    records: Vec<Record>,
}

/// One repetition of the set-up: empty stores → boot, register through the
/// router, first job (cold); restart all three processes on the populated
/// stores → the same calls (reboot); the single-node reference copy on
/// worker 0; a short warm-up of the mix.
fn set_up(
    fleet: &mut Fleet,
    dirs: &Dirs,
    input: &Input,
    views: &[DatasetView],
    seed: u64,
) -> Result<SetUp, String> {
    for k in 0..SHARDS {
        dirs.fresh(&format!("store-w{k}")).map_err(|e| format!("wiping store: {e}"))?;
    }
    let t0 = Instant::now();
    let ports = boot(fleet, dirs)?;
    let mut conn = Conn::open(ports.router).map_err(|e| e.to_string())?;
    let (cold_s, register_s, register_reply, cold) = register_and_first_job(&mut conn, input)?;
    fleet.stop_all();
    let ports = boot(fleet, dirs)?;
    let mut conn = Conn::open(ports.router).map_err(|e| e.to_string())?;
    let (reboot_s, _, _, reboot) = register_and_first_job(&mut conn, input)?;
    let mut w0 = Conn::open(ports.workers[0]).map_err(|e| e.to_string())?;
    let reply = w0.call(&register_line(FULL, input)).map_err(|e| format!("register full: {e}"))?;
    if !Reply::parse(reply.clone()).ok {
        return Err(format!("worker 0 refused the full copy: {reply}"));
    }
    let streams = vec![Stream::new(seed, "warmup-0", Mix::Router, views)];
    let mut records = vec![cold, reboot];
    records.extend(drive::closed_loop(&mut [conn], streams, WARMUP_S, 1, 1));
    let secs = t0.elapsed().as_secs_f64();
    note!("set-up: {secs:.3}s (cold {cold_s:.3}s, reboot {reboot_s:.3}s)");
    Ok(SetUp { ports, secs, cold_s, reboot_s, register_s, register_reply, records })
}

fn open_conns(port: u16, n: usize) -> Result<Vec<Conn>, String> {
    (0..n).map(|_| Conn::open(port).map_err(|e| format!("connecting to router: {e}"))).collect()
}

/// The run with tracing off: [`SETUP_REPS`] repetitions of the set-up, each
/// followed by its share of the measured window on the processes it left
/// running. Like a server (`serve.rs`), a router with its workers keeps one
/// speed for life — whole runs read 286 or 312 ns/edge, 12.1 or 10.5 jobs/s
/// — so every number is taken on three incarnations: jobs, seconds and
/// edges are summed, the burst passes' medians averaged.
fn untraced(
    args: &RunArgs,
    fleet: &mut Fleet,
    dirs: &Dirs,
    input: &Input,
    views: &[DatasetView],
    m: &mut Metrics,
) -> Result<Vec<Record>, String> {
    let share = args.seconds / SETUP_REPS as f64;
    let edges = [input.n_edges()];
    let (mut setups, mut colds, mut reboots, mut k8) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cap, mut cap_s) = (Vec::new(), 0.0);
    let mut all = Vec::new();
    for rep in 0..SETUP_REPS {
        let set = set_up(fleet, dirs, input, views, args.seed)?;
        let mut conns = open_conns(set.ports.router, CAP_CONNS)?;
        let streams = (0..CAP_CONNS)
            .map(|c| Stream::new(args.seed, &format!("cap-{rep}-{c}"), Mix::Router, views))
            .collect();
        let (secs, jobs) =
            timed(|| drive::closed_loop(&mut conns, streams, share * 0.5, PATTERN, CAP_WINDOW));
        let (bursts, burst_records) = drive::bursts(
            &mut open_conns(set.ports.router, 8)?,
            views,
            &edges,
            &ENGINES,
            Quota { seconds: share * 0.4, at_least: 1 },
        );
        fleet.stop_all();
        note!("closed loop: {} jobs in {secs:.2}s; {} burst passes", jobs.len(), bursts.len());
        setups.push(set.secs);
        colds.push(set.cold_s);
        reboots.push(set.reboot_s);
        k8.push(median(&bursts));
        cap_s += secs;
        cap.extend(jobs);
        all.extend(set.records);
        all.extend(burst_records);
    }
    m.set("setup_s", median(&setups));
    m.set("cold_first_reply_s", median(&colds));
    m.set("reboot_first_reply_s", median(&reboots));
    m.set("capacity_jobs_per_s", cap.iter().filter(|r| r.reply.ok).count() as f64 / cap_s);
    // Every job of the router's mix computes (nothing caches a routed job),
    // so the class numbers pool the closed loops.
    m.set("pagerank_ns_per_edge", drive::ns_per_edge(&cap, "pagerank", &edges));
    m.set("sssp_ns_per_edge", drive::ns_per_edge(&cap, "sssp", &edges));
    m.set("pagerank_k8_ns_per_edge_query", mean(&k8));
    m.set("peak_rss_mb", (self_hwm_kib() + fleet.peak_sum_kib()) as f64 / 1024.0);
    all.extend(cap);
    Ok(all)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let dirs = Dirs::prepare(&args.out, &args.workload)?;
    let mut fleet = Fleet::new(&args.bin_dir, &dirs.scratch)?;
    let mut generated = gen::router_shards(args.seed);
    let data = dirs.fresh("data").map_err(|e| format!("data dir: {e}"))?;
    let input = &mut generated.inputs[0];
    input.save(&data).map_err(|e| format!("saving {}: {e}", input.name))?;
    note!(
        "input {}: {} vertices, {} edges, content hash {:016x}",
        input.name,
        input.graph.n_vertices(),
        input.n_edges(),
        input.content_hash
    );
    let input = &generated.inputs[0];
    let views = vec![DatasetView::of(&input.name, &input.graph)];
    let edges = vec![input.n_edges()];
    let mut oracles = vec![Oracle::new(Arc::clone(&input.graph))];
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let seed = args.seed;

    if !args.trace {
        let records = untraced(args, &mut fleet, &dirs, input, &views, &mut m)?;
        drive::verify(&records, &mut oracles, &mut tally);
        return Ok(Outcome { metrics: m, tally });
    }
    let set = set_up(&mut fleet, &dirs, input, &views, seed)?;
    let mut conns = open_conns(set.ports.router, 1)?;
    let mut all: Vec<Record> = set.records.clone();

    // --- Traced run: per-layer numbers. ---
    m.set("gen.rmat_edges_per_s", generated.rmat_edges_per_s);
    m.set("graph.from_edges_s", generated.from_edges_s);
    host::measure().record(&mut m);
    m.set("router.register_s", set.register_s);
    let g = &*input.graph;
    let n = g.n_vertices();

    // graph.shard_*: the extraction every worker performs at registration.
    let ranges = shard_ranges(g, SHARDS);
    let (extract_s, shards) =
        timed(|| ranges.iter().map(|&r| extract_shard(g, r)).collect::<Vec<_>>());
    m.set("graph.shard_extract_s", extract_s);
    let shard_edges: Vec<f64> = ranges.iter().map(|&r| shard_info(g, r).n_edges as f64).collect();
    let mean = shard_edges.iter().sum::<f64>() / SHARDS as f64;
    m.set(
        "graph.shard_edge_imbalance",
        shard_edges.iter().copied().fold(0.0, f64::max) / mean.max(1.0),
    );
    let boundary = set.register_reply.get("boundary_sources").and_then(Json::as_f64).unwrap_or(0.0);
    m.set("router.boundary_source_frac", boundary / (SHARDS * n) as f64);

    // What one round costs at each level: the bare shard kernel in-process,
    // one `sweep` line sent straight to a worker, a round through the router.
    let x = vec![1.0 / n as f64; n];
    let kernel_s = ranges
        .iter()
        .zip(&shards)
        .map(|(&r, shard)| {
            let mut out = vec![0.0f64; r.len()];
            median_secs(9, || pull_rows_into::<Add>(shard.csc(), &x, r, &mut out))
        })
        .fold(0.0, f64::max);
    m.set("router.shard_kernel_ms", kernel_s * 1e3);
    let line = sweep_line(&input.name, "pull_grind", n);
    m.set("router.sweep_line_bytes", line.len() as f64);
    let mut w0 = Conn::open(set.ports.workers[0]).map_err(|e| e.to_string())?;
    let rtts: Vec<f64> = (0..9).map(|_| timed(|| w0.call(&line)).0 * 1e3).collect();
    m.set("router.worker_sweep_rtt_ms", median(&rtts));
    m.set("serve.parse_sweep_mb_per_s", parse_sweep_mb_per_s(n));

    // Through the router, tracing off.
    let streams = vec![Stream::new(seed, "cap-0", Mix::Router, &views)];
    let (cap_s, cap) =
        timed(|| drive::closed_loop(&mut conns, streams, args.seconds / 2.0, PATTERN, 1));
    let cap_ms = drive::latencies_ms(&cap);
    let rounds_ms: Vec<f64> = cap
        .iter()
        .filter(|r| r.reply.ok && r.reply.rounds > 0)
        .map(|r| r.rtt_s * 1e3 / r.reply.rounds as f64)
        .collect();
    m.set("job_p50_ms", median(&cap_ms));
    m.set("job_p95_ms", tail_or_zero(&cap_ms, 0.95));
    m.set("router.round_ms_p50", median(&rounds_ms));
    m.set("router.overhead_x", median(&rounds_ms) / (kernel_s * 1e3));
    note!("closed loop (untraced): {:.1} jobs/s, {} jobs", cap.len() as f64 / cap_s, cap.len());

    // The same requests on worker 0's full copy (`nocache`: the reference
    // must compute, as the router's workers do every round).
    let full_views = vec![DatasetView { name: FULL.to_string(), ..views[0].clone() }];
    let streams =
        vec![Stream::new(seed, "cap-0", Mix::Router, &full_views).with_extra(",\"nocache\":true")];
    let mut w0_conns = vec![w0];
    let single = drive::closed_loop(&mut w0_conns, streams, args.seconds / 8.0, PATTERN, 1);
    m.set("router.x_single_node", median(&cap_ms) / median(&drive::latencies_ms(&single)));

    // The router refuses `"trace":true` and the `trace` op, so its layers
    // can only be seen from outside: the ledger's own spans around each
    // request are the whole tree (coverage of the router's inside is 0).
    let probe = schedule::render_job(
        &input.name,
        &JobSpec::SpmvSum { iters: 1, source: None },
        "pb",
        ",\"trace\":true",
    );
    let refused = conns[0].call(&probe).map(Reply::parse).map_err(|e| e.to_string())?;
    note!("router trace gap: traced job → ok={} ({})", refused.ok, refused.error);
    let mut tracer = Tracer::default();
    let traced = {
        let _on = ihtl_trace::enable();
        let mut stream = Stream::new(seed, "cap-0", Mix::Router, &views);
        let mut out = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < args.seconds / 4.0 {
            let req = stream.draw();
            let mark = ihtl_trace::mark();
            let root = ihtl_trace::span("ledger_request");
            let root_id = root.id();
            let rec = {
                let _wire = ihtl_trace::span("ledger_roundtrip");
                drive::exchange(&mut conns[0], req)
            };
            drop(root);
            tracer.absorb(mark.collect(), root_id, rec.rtt_s);
            out.push(rec);
        }
        out
    };
    let base = drive::ns_per_edge(&cap, "pagerank", &edges);
    let with = drive::ns_per_edge(&traced, "pagerank", &edges);
    let overhead = if base > 0.0 { (with / base - 1.0) * 100.0 } else { 0.0 };
    if overhead < 0.0 {
        note!("trace.overhead_pct unresolved: measured {overhead:.2}%; reported as 0, never as a saving");
    }
    m.set("trace.overhead_pct", overhead.max(0.0));
    tracer.finish(&dirs, &args.workload, &mut m)?;

    let stats = conns[0].call("{\"op\":\"stats\"}").map_err(|e| format!("router stats: {e}"))?;
    let stats = Json::parse(&stats).map_err(|e| format!("router stats: {e}"))?;
    let unreachable = stats
        .get("workers")
        .and_then(Json::as_arr)
        .map(|ws| {
            ws.iter().filter(|w| w.get("reachable").and_then(Json::as_bool) != Some(true)).count()
        })
        .unwrap_or(SHARDS);
    m.set("router.unreachable_workers", unreachable as f64);
    fleet.stop_all();

    // Worker 0's full copy answers the same requests: its replies go to the
    // oracle under the router's dataset index.
    all.extend(cap);
    all.extend(traced);
    all.extend(single);
    drive::verify(&all, &mut oracles, &mut tally);
    let ok = all.iter().filter(|r| r.reply.ok).count();
    m.set("client.sent", all.len() as f64);
    m.set("client.ok", ok as f64);
    m.set("client.samples", cap_ms.len() as f64);
    m.set("client.failed", tally.failed as f64);
    m.set("failed_frac", tally.failed as f64 / tally.attempted.max(1) as f64);
    Ok(Outcome { metrics: m, tally })
}
