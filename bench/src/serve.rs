//! `serve_mixed`: one `ihtl-serve` subprocess, six social R-MAT datasets,
//! a Zipf traffic mix over two client connections (eight for the K = 8
//! bursts).
//!
//! The request path end to end: wire parse → result cache →
//! admission/queue → coalescing → artifact checkout (warm / store load /
//! build, forced by a memory budget that evicts the Zipf tail) → sweep →
//! reply encode. Set-up boots the server on an empty store (cold), then
//! restarts it on the populated store (reboot), timing register + first
//! `ihtl` job on every dataset both times — the paper's amortisation
//! argument made live.

use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use ihtl_apps::{run_job, EngineKind, JobSpec};
use ihtl_core::IhtlConfig;
use ihtl_serve::proto::{GraphSource, Request as WireRequest};
use ihtl_serve::{Json, Registry, Scheduler};
use ihtl_store::BlockStore;

use crate::drive::{self, Quota, Record, Reply};
use crate::gen::{self, Input};
use crate::host;
use crate::metrics::Metrics;
use crate::oracle::{Oracle, Tally};
use crate::proc::{Conn, Fleet};
use crate::schedule::{self, DatasetView, Mix, Request, Stream};
use crate::spans::SpanNode;
use crate::stats::{mean, median, tail_or_zero};
use crate::sweep::{Tracer, SETUP_REPS};
use crate::util::{median_secs, self_hwm_kib, timed, Dirs};
use crate::{note, Outcome, RunArgs};

/// Warm-artifact budget, MiB: half the six datasets' summed iHTL + PB
/// topology bytes (≈ 70 MiB at the reference seed), frozen so the eviction
/// pressure does not drift with the code under test.
pub const MEM_BUDGET_MB: &str = "35";
/// Open-loop rates, jobs per second: ≈ 30 % and ≈ 65 % of the reference
/// host's closed-loop capacity on this mix (`capacity_jobs_per_s` = 280,
/// the executor saturated), frozen once.
pub const LO_RATE: f64 = 85.0;
pub const HI_RATE: f64 = 180.0;
/// Latency limit of the hi phase: a job meets it when it replies `ok`
/// within this long of its due time.
pub const SLO_MS: f64 = 250.0;
const CONNS: usize = 2;
const WARMUP_S: f64 = 1.0;
/// Requests each connection keeps outstanding in the capacity phase. A
/// synchronous client (window 1) waits out a 44 ms delayed-ACK stall per
/// reply, which caps two connections at 2 / 0.044 = 45 jobs/s whatever the
/// jobs cost; with this many queued behind each reply the executor never
/// runs dry during a stall, so the phase measures the server.
pub const CAP_WINDOW: usize = 32;

const SERVE_FLAGS: [&str; 10] = [
    "--executors",
    "1",
    "--max-batch",
    "8",
    "--cache",
    "64",
    "--queue",
    "64",
    "--mem-budget-mb",
    MEM_BUDGET_MB,
];

fn open_conns(port: u16, n: usize) -> Result<Vec<Conn>, String> {
    (0..n).map(|_| Conn::open(port).map_err(|e| format!("connecting to server: {e}"))).collect()
}

/// Registers every dataset and runs the first `ihtl` job on each. Returns
/// (Σ server-side seconds of all calls — the register reply's
/// `load_seconds`, the job reply's `latency_seconds` — Σ client seconds of
/// the registers, the job records). Client time would add a 44 ms
/// delayed-ACK stall to each of the twelve calls: 0.53 s on top of 0.19 s
/// (cold) or 0.08 s (reboot) of work.
fn register_and_first_job(
    conn: &mut Conn,
    inputs: &[Input],
) -> Result<(f64, f64, Vec<Record>), String> {
    let first = JobSpec::PageRank { iters: 5, seed: None };
    let (mut total, mut registers, mut records) = (0.0, 0.0, Vec::new());
    for (d, input) in inputs.iter().enumerate() {
        let source = GraphSource::GraphImage { path: input.image.display().to_string() };
        let line = format!(
            "{{\"op\":\"register\",\"name\":\"{}\",\"source\":{}}}",
            input.name,
            source.to_json()
        );
        let (secs, reply) = timed(|| conn.call(&line));
        let reply = Reply::parse(reply.map_err(|e| format!("register {}: {e}", input.name))?);
        if !reply.ok {
            return Err(format!("register {} refused: {}", input.name, reply.error));
        }
        total += Json::parse(&reply.line)
            .ok()
            .and_then(|v| v.get("load_seconds").and_then(Json::as_f64))
            .unwrap_or(secs);
        registers += secs;
        let line = schedule::render_job(&input.name, &first, "ihtl", "");
        let req =
            Request { due_ns: 0, conn: 0, dataset: d, spec: first.clone(), engine: "ihtl", line };
        let rec = drive::exchange(conn, req);
        total += rec.reply.server_s();
        records.push(rec);
    }
    Ok((total, registers, records))
}

/// One boot pair of the set-up.
struct Boot {
    /// Port of the server left running (the rebooted one).
    port: u16,
    /// Wall seconds of the whole pair.
    secs: f64,
    cold_s: f64,
    reboot_s: f64,
    /// Σ register client seconds of the cold boot.
    register_s: f64,
    first_replies: Vec<Record>,
}

/// Boots a server on an empty store and asks for the first replies (cold),
/// then restarts it on the populated store and asks again (reboot); that
/// server stays up.
fn boot_pair(fleet: &mut Fleet, dirs: &Dirs, inputs: &[Input]) -> Result<Boot, String> {
    let store = dirs.fresh("store").map_err(|e| format!("wiping store: {e}"))?;
    let t0 = Instant::now();
    let port = fleet.spawn_serve("serve", &store, &SERVE_FLAGS)?;
    let (cold_s, register_s, mut first_replies) =
        register_and_first_job(&mut Conn::open(port).map_err(|e| e.to_string())?, inputs)?;
    fleet.stop_all();
    let port = fleet.spawn_serve("serve", &store, &SERVE_FLAGS)?;
    let (reboot_s, _, recs) =
        register_and_first_job(&mut Conn::open(port).map_err(|e| e.to_string())?, inputs)?;
    first_replies.extend(recs);
    let secs = t0.elapsed().as_secs_f64();
    note!("boot pair: {secs:.3}s (cold {cold_s:.3}s, reboot {reboot_s:.3}s)");
    Ok(Boot { port, secs, cold_s, reboot_s, register_s, first_replies })
}

/// Warm-up, the last step of set-up: a short closed loop of the mix, so
/// caches fill, `auto` decisions memoise and PB layouts build. Returns its
/// seconds and records.
fn warm_up(port: u16, views: &[DatasetView], seed: u64) -> Result<(f64, Vec<Record>), String> {
    let mut conns = open_conns(port, CONNS)?;
    let streams =
        (0..CONNS).map(|c| Stream::new(seed, &format!("warmup-{c}"), Mix::Serve, views)).collect();
    Ok(timed(|| drive::closed_loop(&mut conns, streams, WARMUP_S, 1, CAP_WINDOW)))
}

/// Fetches the server's `stats` reply.
fn stats(conn: &mut Conn) -> Result<Json, String> {
    let line = conn.call("{\"op\":\"stats\"}").map_err(|e| format!("stats: {e}"))?;
    Json::parse(&line).map_err(|e| format!("stats reply: {e}"))
}

fn stat(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn engine_ns_per_edge(v: &Json, engine: &str) -> f64 {
    v.get("engines")
        .and_then(Json::as_arr)
        .and_then(|es| es.iter().find(|e| e.get("engine").and_then(Json::as_str) == Some(engine)))
        .and_then(|e| e.get("ns_per_edge"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// The run with tracing off: [`SETUP_REPS`] repetitions of set-up (boot
/// pair, warm-up) each followed by its share of the measured window on the
/// server it left running. A server process keeps for its lifetime whatever
/// its memory layout happens to make fast or slow — the closed loop of one
/// seed read 291 or 315 jobs/s, a K = 8 burst 1.44 or 1.52 ns/edge/query,
/// steady within a process and different in the next — so every number is
/// taken on three processes and averaged: the median within a process, the
/// mean across them (jobs and seconds are summed).
fn untraced(
    args: &RunArgs,
    fleet: &mut Fleet,
    dirs: &Dirs,
    inputs: &[Input],
    views: &[DatasetView],
    edges: &[usize],
    m: &mut Metrics,
) -> Result<Vec<Record>, String> {
    let share = args.seconds / SETUP_REPS as f64;
    let (mut setups, mut colds, mut reboots) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pagerank, mut sssp, mut k8) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cap_ok, mut cap_s, mut server_kib) = (0usize, 0.0, 0u64);
    let mut all = Vec::new();
    for rep in 0..SETUP_REPS {
        let boot = boot_pair(fleet, dirs, inputs)?;
        let mut conns = open_conns(boot.port, CONNS)?;
        // The probe passes come first: they ask the freshly booted server
        // for the same work in the same order whatever the seed, so its
        // `VmHWM` after them repeats. Later it does not: a burst's
        // seven-column buffers are live once or twice over by a race, and
        // under the mix the top of the never-trimmed heap depends on the
        // order in which artifacts are evicted and rebuilt (128–163 MiB).
        let probes = drive::probe_passes(
            &mut conns[0],
            views,
            edges,
            5,
            &["auto"],
            Quota { seconds: share * 0.2, at_least: 2 },
        );
        server_kib = server_kib.max(fleet.live_hwm_kib());
        let (bursts, burst_records) = drive::bursts(
            &mut open_conns(boot.port, 8)?,
            views,
            edges,
            &["auto"],
            Quota { seconds: share * 0.1, at_least: 1 },
        );
        let (warm_s, warm) = warm_up(boot.port, views, args.seed)?;
        let streams = (0..CONNS)
            .map(|c| Stream::new(args.seed, &format!("cap-{rep}-{c}"), Mix::Serve, views))
            .collect();
        let mut ctl = Conn::open(boot.port).map_err(|e| e.to_string())?;
        let before = stats(&mut ctl)?;
        let (secs, cap) =
            timed(|| drive::closed_loop(&mut conns, streams, share * 0.7, 1, CAP_WINDOW));
        let after = stats(&mut ctl)?;
        fleet.stop_all();
        let delta = |key: &str| stat(&after, key) - stat(&before, key);
        note!(
            "{} probe passes, {} burst passes; closed loop: {} jobs ({} cached) in {secs:.2}s, {} \
             evictions, {} store hits, {} batch runs of {} jobs",
            probes.pagerank.len(),
            bursts.len(),
            cap.len(),
            cap.iter().filter(|r| r.reply.cached).count(),
            delta("evictions"),
            delta("store_hits"),
            delta("batch_runs"),
            delta("batch_jobs")
        );
        setups.push(boot.secs + warm_s);
        colds.push(boot.cold_s);
        reboots.push(boot.reboot_s);
        // The first pass on a fresh server also symmetrizes every graph and
        // memoises `auto`'s picks: it warms, the later ones are samples.
        pagerank.push(median(&probes.pagerank[1..]));
        sssp.push(median(&probes.sssp[1..]));
        k8.push(median(&bursts));
        cap_ok += cap.iter().filter(|r| r.reply.ok).count();
        cap_s += secs;
        all.extend(boot.first_replies);
        all.extend(probes.records);
        all.extend(burst_records);
        all.extend(warm);
        all.extend(cap);
    }
    note!(
        "VmHWM: ledger {} KiB, server {server_kib} KiB after the probe passes, {} KiB at the end",
        self_hwm_kib(),
        fleet.peak_sum_kib()
    );
    m.set("setup_s", median(&setups));
    m.set("cold_first_reply_s", median(&colds));
    m.set("reboot_first_reply_s", median(&reboots));
    m.set("capacity_jobs_per_s", cap_ok as f64 / cap_s);
    m.set("pagerank_ns_per_edge", mean(&pagerank));
    m.set("sssp_ns_per_edge", mean(&sssp));
    m.set("pagerank_k8_ns_per_edge_query", mean(&k8));
    // Read before the oracle pass, whose memoised reference vectors are the
    // benchmark's own and grow with the number of distinct jobs.
    m.set("peak_rss_mb", (self_hwm_kib() + server_kib) as f64 / 1024.0);
    Ok(all)
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let dirs = Dirs::prepare(&args.out, &args.workload)?;
    let mut fleet = Fleet::new(&args.bin_dir, &dirs.scratch)?;
    let (gen_s, mut generated) = timed(|| gen::serve_mixed(args.seed));
    let data = dirs.fresh("data").map_err(|e| format!("data dir: {e}"))?;
    for input in &mut generated.inputs {
        input.save(&data).map_err(|e| format!("saving {}: {e}", input.name))?;
        note!(
            "input {}: {} vertices, {} edges, content hash {:016x}",
            input.name,
            input.graph.n_vertices(),
            input.n_edges(),
            input.content_hash
        );
    }
    note!("inputs generated in {gen_s:.2}s");
    let inputs = &generated.inputs;
    let views: Vec<DatasetView> =
        inputs.iter().map(|i| DatasetView::of(&i.name, &i.graph)).collect();
    let edges: Vec<usize> = inputs.iter().map(Input::n_edges).collect();
    let mut oracles: Vec<Oracle> =
        inputs.iter().map(|i| Oracle::new(Arc::clone(&i.graph))).collect();
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    let seed = args.seed;

    if !args.trace {
        let records = untraced(args, &mut fleet, &dirs, inputs, &views, &edges, &mut m)?;
        drive::verify(&records, &mut oracles, &mut tally);
        return Ok(Outcome { metrics: m, tally });
    }
    let set = boot_pair(&mut fleet, &dirs, inputs)?;
    let mut conns = open_conns(set.port, CONNS)?;
    let mut all: Vec<Record> = set.first_replies.clone();
    all.extend(warm_up(set.port, &views, seed)?.1);

    // --- Traced run: per-layer numbers. ---
    m.set("gen.rmat_edges_per_s", generated.rmat_edges_per_s);
    m.set("graph.from_edges_s", generated.from_edges_s);
    host::measure().record(&mut m);
    m.set("serve.register_s", set.register_s);
    let mut ctl = Conn::open(set.port).map_err(|e| e.to_string())?;

    let pings: Vec<f64> =
        (0..20).map(|_| timed(|| ctl.call("{\"op\":\"ping\"}")).0 * 1e6).collect();
    m.set("serve.ping_rtt_us", median(&pings));

    // Open loop, tracing off: lo then hi, `stats` read around the hi phase.
    let window = args.seconds * 0.6;
    let lo = drive::open_loop(
        open_conns(set.port, CONNS)?,
        schedule::open_loop(seed, "lo", Mix::Serve, &views, LO_RATE, window * 0.35, CONNS),
    );
    let before = stats(&mut ctl)?;
    let hi_schedule =
        schedule::open_loop(seed, "hi", Mix::Serve, &views, HI_RATE, window * 0.65, CONNS);
    note!(
        "hi schedule: {} requests, hash {:016x}",
        hi_schedule.len(),
        schedule::schedule_hash(&hi_schedule)
    );
    let hi = drive::open_loop(open_conns(set.port, CONNS)?, hi_schedule);
    let after = stats(&mut ctl)?;
    open_loop_metrics(&lo, &hi, &before, &after, &mut m);

    // The closed-loop latency distribution of the mix, tracing off.
    let streams =
        (0..CONNS).map(|c| Stream::new(seed, &format!("cap-{c}"), Mix::Serve, &views)).collect();
    let (cap_s, cap) = timed(|| drive::closed_loop(&mut conns, streams, args.seconds * 0.15, 1, 1));
    let cap_ms = drive::latencies_ms(&cap);
    m.set("job_p50_ms", median(&cap_ms));
    m.set("job_p95_ms", tail_or_zero(&cap_ms, 0.95));
    note!("closed loop (untraced): {:.0} jobs/s", cap.len() as f64 / cap_s);

    // The probe passes twice — tracing off, then every job traced — so the
    // overhead is a measured pair over identical work.
    let quota = Quota { seconds: args.seconds / 8.0, at_least: 3 };
    let plain = drive::probe_passes(&mut conns[0], &views, &edges, 5, &["auto"], quota);
    let mut tracer = Tracer::default();
    let (traced_ns, traced) = traced_probe_passes(
        &mut conns[0],
        &mut ctl,
        &views,
        &edges,
        args.seconds / 8.0,
        &mut tracer,
    );
    let (base, with) = (median(&plain.pagerank), median(&traced_ns));
    let overhead = if base > 0.0 { (with / base - 1.0) * 100.0 } else { 0.0 };
    if overhead < 0.0 {
        note!("trace.overhead_pct unresolved: measured {overhead:.2}%; reported as 0, never as a saving");
    }
    m.set("trace.overhead_pct", overhead.max(0.0));
    tracer.finish(&dirs, &args.workload, &mut m)?;

    let end = stats(&mut ctl)?;
    m.set("serve.rejected_overloaded", stat(&end, "rejected_overloaded"));
    m.set("serve.deadline_missed", stat(&end, "deadline_missed"));
    let (pull, ihtl, pb) = (
        engine_ns_per_edge(&end, "pull_grind"),
        engine_ns_per_edge(&end, "ihtl"),
        engine_ns_per_edge(&end, "pb"),
    );
    m.set("serve.ns_per_edge_pull", pull);
    m.set("serve.ns_per_edge_ihtl", ihtl);
    m.set("serve.ns_per_edge_pb", pb);
    // What `auto` resolved to (the first memoised pick; they agree here)
    // against the best engine the server has live numbers for.
    let auto = end
        .get("auto_engines")
        .and_then(Json::as_arr)
        .and_then(|a| a.first())
        .and_then(|a| a.get("engine_selected"))
        .and_then(Json::as_str)
        .unwrap_or("pull_grind");
    let best = [pull, ihtl, pb].into_iter().filter(|&x| x > 0.0).fold(f64::INFINITY, f64::min);
    let auto_ns = engine_ns_per_edge(&end, auto);
    if auto_ns > 0.0 && best.is_finite() {
        m.set("serve.auto_gap_pct", (auto_ns / best - 1.0) * 100.0);
    }
    fleet.stop_all();

    serve_layer_in_process(inputs, &dirs, &hi, &mut m)?;

    // The open-loop schedules fix how many requests are sent: an exact count.
    m.set("client.sent", (lo.len() + hi.len()) as f64);
    all.extend(lo);
    all.extend(hi);
    all.extend(cap);
    all.extend(plain.records);
    all.extend(traced);
    drive::verify(&all, &mut oracles, &mut tally);
    let ok = all.iter().filter(|r| r.reply.ok).count();
    m.set("client.ok", ok as f64);
    m.set("client.failed", tally.failed as f64);
    m.set("failed_frac", tally.failed as f64 / tally.attempted.max(1) as f64);
    Ok(Outcome { metrics: m, tally })
}

/// The latency-distribution and `stats`-delta metrics of the two open-loop
/// phases.
fn open_loop_metrics(lo: &[Record], hi: &[Record], before: &Json, after: &Json, m: &mut Metrics) {
    let lo_ms = drive::latencies_ms(lo);
    let hi_ms = drive::latencies_ms(hi);
    m.set("job_p50_ms_lo", median(&lo_ms));
    m.set("job_p50_ms_hi", median(&hi_ms));
    m.set("job_p95_ms_hi", tail_or_zero(&hi_ms, 0.95));
    m.set("client.job_p99_ms_hi", tail_or_zero(&hi_ms, 0.99));
    m.set("client.samples", hi_ms.len() as f64);
    let met = hi.iter().filter(|r| r.reply.ok && r.latency_s * 1e3 <= SLO_MS).count();
    m.set("slo_met_frac_hi", met as f64 / hi.len().max(1) as f64);
    let late: Vec<f64> = hi.iter().map(|r| r.late_s * 1e3).collect();
    let lateness = tail_or_zero(&late, 0.95);
    m.set("client.lateness_ms_p95", lateness);
    if lateness > 5.0 {
        note!("INVALID RUN: the generator ran {lateness:.2} ms late at p95 (limit 5 ms); the hi-phase numbers measure the client, not the server");
    }

    // A cached reply replays the stored body, `latency_seconds` included,
    // so only computed replies can be split into wire / wait / compute.
    let computed = |rs: &[Record]| -> Vec<Record> {
        rs.iter().filter(|r| r.reply.ok && !r.reply.cached).cloned().collect()
    };
    let wire: Vec<f64> =
        computed(lo).iter().map(|r| (r.rtt_s - r.reply.latency_s).max(0.0) * 1e3).collect();
    m.set("serve.wire_ms_p50", median(&wire));
    let hi_computed = computed(hi);
    let wait: Vec<f64> = hi_computed
        .iter()
        .map(|r| (r.reply.latency_s - r.reply.compute_s).max(0.0) * 1e3)
        .collect();
    m.set("serve.wait_ms_p50_hi", median(&wait));
    m.set("serve.wait_ms_p95_hi", tail_or_zero(&wait, 0.95));
    let compute: Vec<f64> = hi_computed.iter().map(|r| r.reply.compute_s * 1e3).collect();
    m.set("serve.compute_ms_p50", median(&compute));
    let hits: Vec<f64> =
        lo.iter().filter(|r| r.reply.ok && r.reply.cached).map(|r| r.rtt_s * 1e6).collect();
    m.set("serve.cache_hit_rtt_us", median(&hits));
    let hi_ok = hi.iter().filter(|r| r.reply.ok).count();
    let hi_cached = hi.iter().filter(|r| r.reply.ok && r.reply.cached).count();
    m.set("serve.cache_hit_frac", hi_cached as f64 / hi_ok.max(1) as f64);

    let delta = |key: &str| stat(after, key) - stat(before, key);
    let runs = delta("batch_runs");
    m.set("serve.batch_runs", runs);
    m.set("serve.batch_k_mean", if runs > 0.0 { delta("batch_jobs") / runs } else { 0.0 });
    m.set("serve.evictions", delta("evictions"));
    m.set("serve.resident_artifact_mb", stat(after, "resident_artifact_bytes") / (1 << 20) as f64);
    m.set("store.hits", delta("store_hits"));
    m.set("store.misses", delta("store_misses"));
    m.set("store.writes", delta("store_writes"));
    m.set("store.quarantined", delta("store_quarantined"));
}

/// The probe passes again with every job carrying `"trace":true`: the
/// reply names a `trace_id`, the `trace` op returns the server's span tree
/// for it, and the ledger hangs that tree under its own request span.
/// Returns one PageRank ns-per-edge sample per pass and the records.
fn traced_probe_passes(
    conn: &mut Conn,
    ctl: &mut Conn,
    views: &[DatasetView],
    edges: &[usize],
    seconds: f64,
    tracer: &mut Tracer,
) -> (Vec<f64>, Vec<Record>) {
    let _on = ihtl_trace::enable();
    let (mut samples, mut out) = (Vec::new(), Vec::new());
    let start = Instant::now();
    // Pass numbers continue past the untraced ones (fresh vertices).
    let mut pass = 500;
    while pass < 503 || (start.elapsed().as_secs_f64() < seconds && pass < 1000) {
        let first = out.len();
        for req in schedule::probe_pass(views, pass, 5, "auto", ",\"trace\":true") {
            out.push(traced_exchange(conn, ctl, req, tracer));
        }
        samples.push(drive::ns_per_edge(&out[first..], "pagerank", edges));
        pass += 1;
    }
    (samples, out)
}

/// One traced request: the ledger's span around the exchange, the server's
/// tree grafted beneath it.
fn traced_exchange(conn: &mut Conn, ctl: &mut Conn, req: Request, tracer: &mut Tracer) -> Record {
    let mark = ihtl_trace::mark();
    let root = ihtl_trace::span("ledger_request");
    let (root_id, t0) = (root.id(), ihtl_trace::now_ns());
    let rec = drive::exchange(conn, req);
    drop(root);
    let cap = mark.collect();
    let mut tree = crate::spans::from_trace(&cap.local.spans);
    if let Some(tid) = rec.reply.trace_id {
        let fetched = ctl.call(&format!("{{\"op\":\"trace\",\"trace_id\":{tid}}}"));
        if let Some(server) = fetched.ok().and_then(|l| Json::parse(&l).ok()) {
            let rtt_ns = (rec.rtt_s * 1e9) as u64;
            let foreign = graft_server_tree(&server, root_id, t0, rtt_ns, &mut tree);
            tracer.keep_foreign(1_000_000, "ihtl-serve (re-based)", foreign);
        }
    }
    tracer.account(&tree, root_id, rec.rtt_s);
    tracer.keep(cap);
    rec
}

/// Re-bases the server's span forest (its own clock) onto the ledger's
/// timeline, centred inside the client's request span, and appends it to
/// `tree` as children of `root_id`. Returns the spans for the Chrome file.
pub fn graft_server_tree(
    server: &Json,
    root_id: u64,
    client_start_ns: u64,
    client_dur_ns: u64,
    tree: &mut Vec<SpanNode>,
) -> Vec<ihtl_trace::SpanInfo> {
    let window = server.get("window_ns").and_then(Json::as_arr).unwrap_or(&[]);
    let (w0, w1) = (
        window.first().and_then(Json::as_u64).unwrap_or(0),
        window.get(1).and_then(Json::as_u64).unwrap_or(0),
    );
    let slack = client_dur_ns.saturating_sub(w1.saturating_sub(w0));
    let offset = (client_start_ns + slack / 2) as i128 - w0 as i128;
    let mut next_id = root_id.wrapping_add(1 << 32);
    let mut foreign = Vec::new();
    // Only the executor thread's forest (the first) nests under the job; the
    // other threads are pool workers whose spans overlap it.
    let threads = server.get("threads").and_then(Json::as_arr).unwrap_or(&[]);
    for (ti, thread) in threads.iter().enumerate() {
        let roots = thread.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
        let mut stack: Vec<(&Json, u64)> = roots.iter().map(|s| (s, root_id)).collect();
        while let Some((node, parent)) = stack.pop() {
            let start = node.get("start_ns").and_then(Json::as_u64).unwrap_or(0);
            let dur = node.get("dur_ns").and_then(Json::as_u64).unwrap_or(0);
            let name = node.get("name").and_then(Json::as_str).unwrap_or("(unnamed)");
            let start_ns = (start as i128 + offset).max(0) as u64;
            next_id += 1;
            let id = next_id;
            if ti == 0 {
                tree.push(SpanNode {
                    id,
                    parent,
                    name: name.to_string(),
                    start_ns,
                    end_ns: start_ns + dur,
                });
            }
            foreign.push(ihtl_trace::SpanInfo {
                id,
                parent: if ti == 0 { parent } else { 0 },
                name: intern(name),
                start_ns,
                end_ns: start_ns + dur,
                arg: node.get("arg").and_then(Json::as_u64).unwrap_or(0),
            });
            for child in node.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
                stack.push((child, id));
            }
        }
    }
    foreign
}

/// Span names must be `&'static str`; the server's vocabulary is a few
/// dozen names, leaked once each.
fn intern(name: &str) -> &'static str {
    use std::collections::BTreeMap;
    use std::sync::Mutex;
    static NAMES: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut names = NAMES.lock().expect("intern table poisoned");
    if let Some(s) = names.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    names.insert(name.to_string(), leaked);
    leaked
}

/// The serve-tier layers that can be timed in-process through their public
/// functions: request parsing and reply encoding replayed over the recorded
/// lines, the scheduler's round trip, and the three artifact-checkout tiers.
fn serve_layer_in_process(
    inputs: &[Input],
    dirs: &Dirs,
    recorded: &[Record],
    m: &mut Metrics,
) -> Result<(), String> {
    let lines: Vec<&str> = recorded.iter().map(|r| r.req.line.as_str()).collect();
    let parse_s = median_secs(5, || {
        for l in &lines {
            std::hint::black_box(WireRequest::parse(l).is_ok());
        }
    });
    m.set("serve.parse_us_per_req", parse_s * 1e6 / lines.len().max(1) as f64);

    let largest = inputs.iter().max_by_key(|i| i.n_edges()).expect("inputs");
    m.set("serve.parse_sweep_mb_per_s", parse_sweep_mb_per_s(largest.graph.n_vertices()));

    let replies: Vec<Json> =
        recorded.iter().filter_map(|r| Json::parse(&r.reply.line).ok()).collect();
    let encode_s = median_secs(5, || {
        for r in &replies {
            std::hint::black_box(r.to_string().len());
        }
    });
    m.set("serve.encode_us_per_reply", encode_s * 1e6 / replies.len().max(1) as f64);

    let sched = Scheduler::new(16, 1);
    let trips = 2000;
    let sched_s = median_secs(3, || {
        for _ in 0..trips {
            let job = Box::new(|_: &AtomicBool| Ok(Json::Null));
            if let Ok(handle) = sched.submit(None, job) {
                let _ = handle.wait();
            }
        }
    });
    sched.shutdown();
    m.set("serve.sched_roundtrip_us", sched_s * 1e6 / trips as f64);

    // Checkout tiers on the largest dataset: build (empty store), store
    // load (fresh registry, populated store), warm (pooled engine).
    let store_dir = dirs.fresh("store-probe").map_err(|e| format!("probe store: {e}"))?;
    let source = GraphSource::GraphImage { path: largest.image.display().to_string() };
    let noop = JobSpec::SpmvSum { iters: 1, source: None };
    let checkout = |reg: &Registry| -> Result<f64, String> {
        let ds = reg.register(&largest.name, &source)?;
        let (secs, r) = timed(|| ds.with_engine(EngineKind::Ihtl, false, reg, |_| ()));
        r?;
        Ok(secs)
    };
    let open = |dir: &Path| -> Result<Registry, String> {
        let store = BlockStore::open(dir).map_err(|e| format!("probe store: {e}"))?;
        Ok(Registry::with_store(IhtlConfig::default(), Some(Arc::new(store)), None))
    };
    let reg = open(&store_dir)?;
    m.set("serve.checkout_build_ms", checkout(&reg)? * 1e3);
    let ds = reg.register(&largest.name, &source)?;
    let warm: Vec<f64> = (0..200)
        .map(|_| timed(|| ds.with_engine(EngineKind::Ihtl, false, &reg, |_| ())).0 * 1e6)
        .collect();
    m.set("serve.checkout_warm_us", median(&warm));
    // Keep the engine honest: the checked-out engine must actually run.
    ds.with_engine(EngineKind::Ihtl, false, &reg, |e| run_job(e, None, &noop))??;
    drop(reg);
    m.set("serve.checkout_store_ms", checkout(&open(&store_dir)?)? * 1e3);
    Ok(())
}

/// MiB per second `Request::parse` sustains on a `sweep` line carrying an
/// `n`-vertex vector of f64 bit patterns (decimal text, as the router
/// sends it).
pub fn parse_sweep_mb_per_s(n: usize) -> f64 {
    let line = sweep_line("probe", "pull_grind", n);
    let secs = median_secs(3, || {
        std::hint::black_box(WireRequest::parse(&line).is_ok());
    });
    line.len() as f64 / (1 << 20) as f64 / secs
}

/// A `sweep` request line over `n` vertices whose values are PageRank-sized
/// (1/n), rendered exactly as the router renders it.
pub fn sweep_line(dataset: &str, engine: &str, n: usize) -> String {
    let x = 1.0 / n.max(1) as f64;
    Json::obj([
        ("op", Json::from("sweep")),
        ("dataset", Json::from(dataset)),
        ("engine", Json::from(engine)),
        ("monoid", Json::from("add")),
        ("view", Json::from("raw")),
        ("xbits", Json::Arr((0..n).map(|_| Json::from(x.to_bits())).collect())),
    ])
    .to_string()
}
