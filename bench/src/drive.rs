//! Load generation against a live server or router: closed loops, the
//! pipelined open loop, K = 8 bursts, and the oracle pass over every reply.

use std::collections::VecDeque;
use std::io::{BufRead, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ihtl_apps::JobSpec;
use ihtl_serve::Json;

use crate::oracle::{Class, Oracle, Tally};
use crate::proc::Conn;
use crate::schedule::{self, Request, Stream};

/// The fields of a `job` reply the ledger reads.
#[derive(Clone, Debug, Default)]
pub struct Reply {
    pub ok: bool,
    pub error: String,
    pub cached: bool,
    pub engine_selected: String,
    pub checksum: String,
    pub rounds: u64,
    /// Server-side admission-to-completion seconds (`latency_seconds`).
    pub latency_s: f64,
    /// Sweep seconds (`compute_seconds`).
    pub compute_s: f64,
    pub trace_id: Option<u64>,
    /// The raw line (kept for the encode replay).
    pub line: String,
}

impl Reply {
    /// Seconds the job spent inside the process that answered: admission to
    /// completion on a server (`latency_seconds`), the whole routed job on
    /// the router, which reports only `compute_seconds`. Unlike the client's
    /// round trip it holds no delayed-ACK stall between that process and the
    /// ledger, so it moves with the work the job did.
    pub fn server_s(&self) -> f64 {
        if self.latency_s > 0.0 {
            self.latency_s
        } else {
            self.compute_s
        }
    }

    pub fn parse(line: String) -> Reply {
        let Ok(v) = Json::parse(&line) else {
            return Reply { error: "unparseable reply".to_string(), line, ..Reply::default() };
        };
        let s = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_string();
        let f = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        Reply {
            ok: v.get("ok").and_then(Json::as_bool) == Some(true),
            error: s("error"),
            cached: v.get("cached").and_then(Json::as_bool) == Some(true),
            engine_selected: s("engine_selected"),
            checksum: s("checksum"),
            rounds: v.get("rounds").and_then(Json::as_u64).unwrap_or(0),
            latency_s: f("latency_seconds"),
            compute_s: f("compute_seconds"),
            trace_id: v.get("trace_id").and_then(Json::as_u64),
            line,
        }
    }
}

/// One request with what came back and when.
#[derive(Clone, Debug)]
pub struct Record {
    pub req: Request,
    pub reply: Reply,
    /// Reply time minus *due* time (open loop) or send time (closed loop).
    pub latency_s: f64,
    /// Reply time minus actual send time.
    pub rtt_s: f64,
    /// Actual send time minus due time (0 in closed loops).
    pub late_s: f64,
}

/// Runs each stream on its own connection until `seconds` have passed, each
/// connection keeping up to `window` requests outstanding: it sends its
/// next request only when a reply has made room. `window` 1 is the
/// synchronous client (send, wait, send), which on this server waits out a
/// delayed-ACK stall per reply; a deeper window keeps requests queued at the
/// server through the stall, so the server — not the client — sets the
/// pace. A connection stops sending only on a multiple of `granule`
/// requests, so a mix dealt in a fixed pattern is always measured over whole
/// patterns, and returns when everything it sent has been answered.
pub fn closed_loop(
    conns: &mut [Conn],
    streams: Vec<Stream>,
    seconds: f64,
    granule: usize,
    window: usize,
) -> Vec<Record> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(streams)
            .enumerate()
            .map(|(i, (conn, mut stream))| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut in_flight: VecDeque<(Request, Instant)> = VecDeque::new();
                    let mut sent = 0usize;
                    loop {
                        while in_flight.len() < window.max(1)
                            && (Instant::now() < deadline || !sent.is_multiple_of(granule.max(1)))
                        {
                            let mut req = stream.draw();
                            req.conn = i;
                            sent += 1;
                            let t = Instant::now();
                            match conn.send(&req.line) {
                                Ok(()) => in_flight.push_back((req, t)),
                                Err(e) => out.push(record(req, Err(e), 0.0)),
                            }
                        }
                        let Some((req, t)) = in_flight.pop_front() else { break };
                        let reply = conn.recv();
                        out.push(record(req, reply, t.elapsed().as_secs_f64()));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// The record of one closed-loop exchange that took `secs` from the send to
/// the reply, or to the transport error that lost it.
fn record(req: Request, reply: std::io::Result<String>, secs: f64) -> Record {
    let reply = match reply {
        Ok(line) => Reply::parse(line),
        Err(e) => Reply { error: format!("transport: {e}"), ..Reply::default() },
    };
    Record { req, reply, latency_s: secs, rtt_s: secs, late_s: 0.0 }
}

/// One synchronous exchange.
pub fn exchange(conn: &mut Conn, req: Request) -> Record {
    let t = Instant::now();
    let reply = conn.call(&req.line);
    record(req, reply, t.elapsed().as_secs_f64())
}

/// Sleeps until `when`, yielding through the last stretch so the send is
/// not a scheduler quantum late.
fn wait_until(when: Instant) {
    loop {
        let now = Instant::now();
        if now >= when {
            return;
        }
        let left = when - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Open loop: every request is written at its due time whether or not
/// earlier replies have arrived (one sender and one receiver thread per
/// connection; the server answers a connection's requests in order), and
/// its latency is timed from the *due* time, so a stall is charged to every
/// request it delays.
pub fn open_loop(conns: Vec<Conn>, schedule: Vec<Request>) -> Vec<Record> {
    let n_conns = conns.len();
    let mut per_conn: Vec<Vec<Request>> = vec![Vec::new(); n_conns];
    for r in schedule {
        per_conn[r.conn % n_conns].push(r);
    }
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(per_conn)
            .map(|(conn, reqs)| {
                let (mut w, mut r) = conn.split();
                let dues: Arc<Vec<u64>> = Arc::new(reqs.iter().map(|q| q.due_ns).collect());
                let lines: Vec<String> = reqs.iter().map(|q| q.line.clone()).collect();
                let sender = s.spawn(move || {
                    let mut sent_at = Vec::with_capacity(lines.len());
                    for (line, &due) in lines.iter().zip(dues.iter()) {
                        wait_until(start + Duration::from_nanos(due));
                        sent_at.push(Instant::now());
                        let wrote = w.write_all(line.as_bytes()).and_then(|()| w.write_all(b"\n"));
                        if wrote.is_err() {
                            break;
                        }
                    }
                    sent_at
                });
                let n = reqs.len();
                let receiver = s.spawn(move || {
                    let mut got = Vec::with_capacity(n);
                    for _ in 0..n {
                        let mut line = String::new();
                        match r.read_line(&mut line) {
                            Ok(k) if k > 0 => {
                                line.truncate(line.trim_end().len());
                                got.push((Instant::now(), Reply::parse(line)));
                            }
                            _ => break,
                        }
                    }
                    got
                });
                (reqs, sender, receiver)
            })
            .collect();
        let mut out = Vec::new();
        for (reqs, sender, receiver) in handles {
            let sent_at = sender.join().expect("sender thread panicked");
            let mut got = receiver.join().expect("receiver thread panicked").into_iter();
            for (i, req) in reqs.into_iter().enumerate() {
                let due = start + Duration::from_nanos(req.due_ns);
                let sent = sent_at.get(i).copied();
                let (at, reply) = got.next().unwrap_or_else(|| {
                    let lost = Reply { error: "no reply".to_string(), ..Reply::default() };
                    (Instant::now(), lost)
                });
                out.push(Record {
                    req,
                    reply,
                    latency_s: at.saturating_duration_since(due).as_secs_f64(),
                    rtt_s: sent.map_or(0.0, |s| at.saturating_duration_since(s).as_secs_f64()),
                    late_s: sent.map_or(0.0, |s| s.saturating_duration_since(due).as_secs_f64()),
                });
            }
        }
        out
    })
}

/// How long, and at least how often, one kind of class sample is taken.
#[derive(Clone, Copy, Debug)]
pub struct Quota {
    pub seconds: f64,
    pub at_least: usize,
}

impl Quota {
    fn wants_more(&self, done: usize, start: Instant) -> bool {
        done < self.at_least || (start.elapsed().as_secs_f64() < self.seconds && done < 1000)
    }
}

/// What the probe passes of a server workload measured.
#[derive(Default)]
pub struct Probes {
    /// One ns-per-edge sample per pass.
    pub pagerank: Vec<f64>,
    pub sssp: Vec<f64>,
    pub records: Vec<Record>,
}

/// Passes of [`schedule::probe_pass`], one synchronous request after
/// another on `conn`. Unlike the mix, every pass asks for the same work, so
/// the per-class numbers do not move with the seed's draw.
pub fn probe_passes(
    conn: &mut Conn,
    views: &[schedule::DatasetView],
    edges: &[usize],
    iters: usize,
    engines: &[&'static str],
    quota: Quota,
) -> Probes {
    let mut out = Probes::default();
    let start = Instant::now();
    while quota.wants_more(out.pagerank.len(), start) {
        let pass = out.pagerank.len();
        let engine = engines[pass % engines.len()];
        let recs: Vec<Record> = schedule::probe_pass(views, pass, iters, engine, "")
            .into_iter()
            .map(|req| exchange(conn, req))
            .collect();
        out.pagerank.push(ns_per_edge(&recs, "pagerank", edges));
        out.sssp.push(ns_per_edge(&recs, "sssp", edges));
        out.records.extend(recs);
    }
    out
}

/// How long after a burst's first request the other seven are written: long
/// enough for the server's executor to have started the first job, short
/// against the job itself (tens of milliseconds).
const BURST_GAP: Duration = Duration::from_millis(1);

/// Passes of K = 8 bursts ([`schedule::burst`]), one burst on every dataset
/// and every one of `engines` in turn. A burst is eight requests, each on a connection of its own, all
/// written before the first reply is read. The first goes out [`BURST_GAP`]
/// ahead of the rest, so that job always runs alone and the other seven
/// always coalesce into the next sweep; written back to back, whether the
/// executor claimed the group at one member or at eight was a race. Returns
/// one ns-per-edge-per-query sample per pass — Σ over its bursts of the time
/// from the first request's admission to the last completion, by the
/// server's own clocks ([`Reply::server_s`]), over Σ edges × rounds — and
/// the records.
pub fn bursts(
    conns: &mut [Conn],
    views: &[schedule::DatasetView],
    edges: &[usize],
    engines: &[&'static str],
    quota: Quota,
) -> (Vec<f64>, Vec<Record>) {
    let (mut samples, mut records) = (Vec::new(), Vec::new());
    let (start, mut pass) = (Instant::now(), 0);
    while quota.wants_more(pass, start) {
        let (mut secs, mut work) = (0.0, 0.0);
        for (dataset, &n_edges) in edges.iter().enumerate() {
            for (e, engine) in engines.iter().enumerate() {
                let reqs = schedule::burst(views, dataset, pass * engines.len() + e, engine);
                let (server_s, recs) = burst(conns, reqs);
                secs += server_s;
                work += n_edges as f64 * recs.iter().map(|r| r.reply.rounds as f64).sum::<f64>();
                records.extend(recs);
            }
        }
        if work > 0.0 {
            samples.push(secs * 1e9 / work);
        }
        pass += 1;
    }
    (samples, records)
}

/// One burst: its server-side seconds and its records.
fn burst(conns: &mut [Conn], reqs: Vec<Request>) -> (f64, Vec<Record>) {
    assert!(reqs.len() <= conns.len(), "a burst needs a connection per request");
    let t = Instant::now();
    let sent: Vec<_> = reqs
        .iter()
        .zip(conns.iter_mut())
        .enumerate()
        .map(|(i, (req, conn))| {
            if i == 1 {
                wait_until(t + BURST_GAP);
            }
            (t.elapsed().as_secs_f64(), conn.send(&req.line))
        })
        .collect();
    let mut server_s = 0.0f64;
    let recs = reqs
        .into_iter()
        .zip(conns.iter_mut())
        .zip(sent)
        .map(|((req, conn), (offset, sent))| {
            let reply = sent.and_then(|()| conn.recv());
            let rec = record(req, reply, t.elapsed().as_secs_f64() - offset);
            if rec.reply.ok {
                server_s = server_s.max(offset + rec.reply.server_s());
            }
            rec
        })
        .collect();
    (server_s, recs)
}

/// Holds every reply to the oracle: an error, a refusal or a lost reply
/// fails; an `ok` reply's checksum must equal what the same class of
/// engine computes in-process (see `oracle.rs`).
pub fn verify(records: &[Record], oracles: &mut [Oracle], tally: &mut Tally) {
    // Group the distinct jobs per dataset first so the references are
    // computed eight columns at a time.
    for (d, oracle) in oracles.iter_mut().enumerate() {
        let specs: Vec<JobSpec> =
            records.iter().filter(|r| r.req.dataset == d).map(|r| r.req.spec.clone()).collect();
        oracle.prime(&specs);
    }
    for r in records {
        if !r.reply.ok {
            tally.fail(format!("{} → {}", r.req.line, r.reply.error));
            continue;
        }
        // The router reports `engine_selected: "router"`; its merge is
        // order-preserving only for the order-preserving engines it is sent.
        let engine = match r.reply.engine_selected.as_str() {
            "router" | "" => r.req.engine,
            other => other,
        };
        let verdict = oracles[r.req.dataset]
            .expected_checksum(&r.req.spec, Class::of_engine(engine))
            .and_then(|want| {
                if want == r.reply.checksum {
                    Ok(())
                } else {
                    Err(format!("{}: checksum {} ≠ reference {want}", r.req.line, r.reply.checksum))
                }
            });
        tally.record(verdict);
    }
}

/// Client latencies of `records` in milliseconds.
pub fn latencies_ms(records: &[Record]) -> Vec<f64> {
    records.iter().map(|r| r.latency_s * 1e3).collect()
}

/// Σ server-side seconds ([`Reply::server_s`]) ÷ Σ (edges × rounds) over the
/// computed (not cached) `ok` replies of `kind`, in ns per edge. `edges[d]` is dataset `d`'s edge
/// count. 0 when no such reply exists.
pub fn ns_per_edge(records: &[Record], kind: &str, edges: &[usize]) -> f64 {
    let (mut secs, mut work) = (0.0, 0.0);
    for r in records {
        if r.reply.ok && !r.reply.cached && r.req.spec.name() == kind {
            secs += r.reply.server_s();
            work += edges[r.req.dataset] as f64 * r.reply.rounds as f64;
        }
    }
    if work == 0.0 {
        0.0
    } else {
        secs * 1e9 / work
    }
}
