//! End-to-end tests of the serving layer over real loopback TCP.
//!
//! Each test spawns a server on an ephemeral port, speaks the
//! line-delimited JSON protocol through `std::net::TcpStream` like any
//! external client would, and shuts the server down at the end. Covered:
//! bitwise-deterministic results with a cache hit on repeat, N concurrent
//! clients agreeing bitwise, saturation rejecting with `overloaded` (not
//! hanging), deadline expiry, and protocol-level error handling.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use ihtl_serve::{Json, Server, ServerConfig};

/// A test client: one connection, line-in/line-out.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        let writer = stream.try_clone().expect("clone stream");
        Client { writer, reader: BufReader::new(stream) }
    }

    fn roundtrip(&mut self, request: &str) -> Json {
        writeln!(self.writer, "{request}").expect("send request");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read reply");
        assert!(line.ends_with('\n'), "reply must be a full line: {line:?}");
        Json::parse(line.trim()).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}"))
    }

    fn ok(&mut self, request: &str) -> Json {
        let reply = self.roundtrip(request);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok reply for {request}: {reply}"
        );
        reply
    }

    fn err(&mut self, request: &str) -> String {
        let reply = self.roundtrip(request);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(false),
            "expected error reply for {request}: {reply}"
        );
        reply.get("error").and_then(Json::as_str).expect("error field").to_string()
    }
}

fn spawn_server(cfg: ServerConfig) -> ihtl_serve::ServerHandle {
    Server::bind(cfg).expect("bind ephemeral port").spawn().expect("spawn server")
}

const REGISTER: &str = "{\"op\":\"register\",\"name\":\"g\",\"source\":\
                        {\"type\":\"rmat\",\"scale\":9,\"edges\":4000,\"seed\":42}}";
const PAGERANK: &str = "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":10}";

#[test]
fn pagerank_twice_is_bitwise_equal_and_second_hits_cache() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = Client::connect(handle.addr());

    assert_eq!(c.ok("{\"op\":\"ping\",\"id\":1}").get("id").and_then(Json::as_u64), Some(1));
    let reg = c.ok(REGISTER);
    assert!(reg.get("n_vertices").and_then(Json::as_u64).unwrap() > 0);

    let first = c.ok(PAGERANK);
    let second = c.ok(PAGERANK);
    let sum_a = first.get("checksum").and_then(Json::as_str).expect("checksum").to_string();
    let sum_b = second.get("checksum").and_then(Json::as_str).expect("checksum").to_string();
    assert_eq!(sum_a, sum_b, "repeat run must be bitwise identical");
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));

    let stats = c.ok("{\"op\":\"stats\"}");
    assert!(stats.get("cache_hits").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(1), "hit skips the scheduler");

    handle.shutdown();
}

#[test]
fn full_value_vectors_roundtrip_bitwise() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    c.ok(REGISTER);
    let req = "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":5,\
               \"include_values\":true,\"top_k\":3}";
    let a = c.ok(req);
    let b = c.ok(req);
    let values = |r: &Json| -> Vec<u64> {
        r.get("values")
            .and_then(Json::as_arr)
            .expect("values")
            .iter()
            .map(|v| v.as_f64().expect("number").to_bits())
            .collect()
    };
    assert_eq!(values(&a), values(&b), "wire-serialized ranks must round-trip bitwise");
    let top = a.get("top").and_then(Json::as_arr).expect("top");
    assert_eq!(top.len(), 3);
    let t0 = top[0].get("value").unwrap().as_f64().unwrap();
    let t2 = top[2].get("value").unwrap().as_f64().unwrap();
    assert!(t0 >= t2, "top list must be sorted descending");
    handle.shutdown();
}

#[test]
fn concurrent_clients_get_identical_checksums() {
    let handle = spawn_server(ServerConfig {
        // nocache requests below exercise the scheduler on every call.
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    Client::connect(addr).ok(REGISTER);

    let threads: Vec<_> = (0..5)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                // Odd clients bypass the cache so several jobs really
                // compute concurrently; even clients may hit the cache.
                let req = if i % 2 == 1 {
                    "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":10,\
                     \"nocache\":true}"
                } else {
                    PAGERANK
                };
                let reply = c.ok(req);
                let checksum =
                    reply.get("checksum").and_then(Json::as_str).expect("checksum").to_string();
                // Carried into the failure message: which path served each
                // client (cache hit / batch occupancy) is the first question
                // any divergence raises.
                let cached = reply.get("cached").and_then(Json::as_bool).unwrap_or(false);
                let batch_k = reply.get("batch_k").and_then(Json::as_f64).map_or(0, |k| k as usize);
                (checksum, cached, batch_k)
            })
        })
        .collect();
    let replies: Vec<(String, bool, usize)> =
        threads.into_iter().map(|t| t.join().expect("client")).collect();
    assert_eq!(replies.len(), 5);
    assert!(
        replies.iter().all(|(c, _, _)| c == &replies[0].0),
        "all clients must see bitwise-identical results (checksum, cached, batch_k): {replies:?}"
    );
    handle.shutdown();
}

#[test]
fn saturated_queue_rejects_with_overloaded() {
    // One executor, queue of one: a running sleep plus a queued sleep
    // saturate the scheduler deterministically.
    let handle = spawn_server(ServerConfig { queue_capacity: 1, ..ServerConfig::default() });
    let addr = handle.addr();
    Client::connect(addr).ok(REGISTER);

    let sleeper = |ms: u64| {
        std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            c.ok(&format!("{{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":{ms}}}"));
        })
    };
    // Occupy the executor: sleep jobs dequeue within milliseconds of
    // submission, so after a short beat this one is running, not queued.
    let t1 = sleeper(800);
    std::thread::sleep(std::time::Duration::from_millis(150));
    // Fill the single queue slot, observed via `stats` before probing.
    let t2 = sleeper(800);
    let mut c = Client::connect(addr);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        let depth = c
            .ok("{\"op\":\"stats\"}")
            .get("queue_depth")
            .and_then(Json::as_u64)
            .expect("queue_depth");
        if depth >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "second sleep never queued");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // Executor busy + queue full: admission must reject immediately.
    let start = std::time::Instant::now();
    let err = c.err("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":1}");
    assert_eq!(err, "overloaded");
    assert!(
        start.elapsed() < std::time::Duration::from_millis(500),
        "overload rejection must not wait for running jobs: {:?}",
        start.elapsed()
    );
    t1.join().unwrap();
    t2.join().unwrap();

    let stats = Client::connect(addr).ok("{\"op\":\"stats\"}");
    assert!(stats.get("rejected_overloaded").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
}

#[test]
fn deadline_exceeded_fails_cleanly() {
    let handle = spawn_server(ServerConfig { queue_capacity: 8, ..ServerConfig::default() });
    let addr = handle.addr();
    Client::connect(addr).ok(REGISTER);

    // Occupy the executor, then submit a job whose deadline expires in queue.
    let t = std::thread::spawn(move || {
        let mut c = Client::connect(addr);
        c.ok("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":300}");
    });
    std::thread::sleep(std::time::Duration::from_millis(60));
    let mut c = Client::connect(addr);
    let start = std::time::Instant::now();
    let err =
        c.err("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":200,\"timeout_ms\":50}");
    assert_eq!(err, "deadline exceeded");
    assert!(
        start.elapsed() < std::time::Duration::from_millis(280),
        "deadline reply must not wait for the running job: {:?}",
        start.elapsed()
    );
    t.join().unwrap();
    let stats = Client::connect(addr).ok("{\"op\":\"stats\"}");
    assert!(stats.get("deadline_missed").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
}

#[test]
fn protocol_errors_keep_the_connection_usable() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = Client::connect(handle.addr());

    assert!(c.err("this is not json").contains("JSON error"));
    assert!(c.err("{\"op\":\"warp\"}").contains("unknown op"));
    assert!(c
        .err("{\"op\":\"job\",\"dataset\":\"nope\",\"kind\":\"pagerank\"}")
        .contains("unknown dataset"));
    c.ok(REGISTER);
    // Same name, different source: immutable datasets.
    assert!(c
        .err("{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"rmat\",\"scale\":8}}")
        .contains("already registered"));
    // Same name, same source: idempotent.
    c.ok(REGISTER);
    // The connection still works after all those errors.
    c.ok("{\"op\":\"ping\"}");

    // Engine A/B comparison over the wire: every engine agrees.
    let cmp = c.ok("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"compare\",\"iters\":5}");
    let engines = cmp.get("engines").and_then(Json::as_arr).expect("engines");
    assert_eq!(engines.len(), 4, "all four engines (pull, ihtl, pb, hybrid) must report");
    let max_diff = cmp.get("max_abs_diff").and_then(Json::as_f64).expect("max_abs_diff");
    assert!(max_diff < 1e-9, "engines disagree: {max_diff}");

    let list = c.ok("{\"op\":\"list\"}");
    let datasets = list.get("datasets").and_then(Json::as_arr).expect("datasets");
    assert_eq!(datasets.len(), 1);
    assert_eq!(datasets[0].get("name").and_then(Json::as_str), Some("g"));

    handle.shutdown();
}

#[test]
fn unknown_engine_error_lists_the_full_vocabulary() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    c.ok(REGISTER);
    let msg = c.err(
        "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":2,\
         \"engine\":\"gpu\"}",
    );
    assert!(msg.contains("unknown engine 'gpu'"), "{msg}");
    for name in ["ihtl", "pull_grind", "pb", "hybrid", "auto"] {
        assert!(msg.contains(name), "error must list '{name}': {msg}");
    }
    // The connection survives the protocol error.
    c.ok("{\"op\":\"ping\"}");
    handle.shutdown();
}

#[test]
fn auto_engine_resolves_reports_and_shares_the_cache() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    c.ok(REGISTER);

    let auto_req = "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":10,\
                    \"engine\":\"auto\"}";
    let first = c.ok(auto_req);
    let selected =
        first.get("engine_selected").and_then(Json::as_str).expect("engine_selected").to_string();
    assert!(
        ["pull_grind", "ihtl", "pb", "hybrid"].contains(&selected.as_str()),
        "auto must resolve to a scoring-rule candidate, got '{selected}'"
    );
    assert_eq!(first.get("engine").and_then(Json::as_str), Some(selected.as_str()));

    // An explicit request for the engine auto picked hits the same cache
    // entry (auto resolves before the cache key is formed) and agrees
    // bitwise.
    let explicit = c.ok(&format!(
        "{{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":10,\
         \"engine\":\"{selected}\"}}"
    ));
    assert_eq!(explicit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        explicit.get("checksum").and_then(Json::as_str),
        first.get("checksum").and_then(Json::as_str),
    );

    // The memoised decision shows up in stats.
    let stats = c.ok("{\"op\":\"stats\"}");
    let autos = stats.get("auto_engines").and_then(Json::as_arr).expect("auto_engines");
    assert_eq!(autos.len(), 1, "one dataset resolved auto: {stats}");
    assert_eq!(autos[0].get("dataset").and_then(Json::as_str), Some("g"));
    assert_eq!(autos[0].get("engine_selected").and_then(Json::as_str), Some(selected.as_str()));
    handle.shutdown();
}

#[test]
fn idle_socket_is_disconnected_and_counted() {
    let handle = spawn_server(ServerConfig {
        idle_timeout: Some(std::time::Duration::from_millis(100)),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // An active client keeps working long past the idle limit as long as it
    // keeps sending requests.
    let mut active = Client::connect(addr);
    for _ in 0..4 {
        std::thread::sleep(std::time::Duration::from_millis(40));
        active.ok("{\"op\":\"ping\"}");
    }

    // A silent client is told off and then cut off.
    let silent = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(silent);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read idle notice");
    assert!(line.contains("idle timeout"), "expected an idle notice, got {line:?}");
    line.clear();
    let n = reader.read_line(&mut line).unwrap_or(0);
    assert_eq!(n, 0, "idle connection must be closed after the notice: {line:?}");

    let stats = Client::connect(addr).ok("{\"op\":\"stats\"}");
    assert!(stats.get("idle_disconnects").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
}

/// Recursively checks that every child span's window nests inside its
/// parent's and returns the total number of nodes visited.
fn assert_nested(node: &Json) -> usize {
    let start = node.get("start_ns").and_then(Json::as_u64).expect("start_ns");
    let dur = node.get("dur_ns").and_then(Json::as_u64).expect("dur_ns");
    let children = node.get("children").and_then(Json::as_arr).expect("children");
    let mut count = 1;
    for child in children {
        let cs = child.get("start_ns").and_then(Json::as_u64).expect("child start_ns");
        let cd = child.get("dur_ns").and_then(Json::as_u64).expect("child dur_ns");
        assert!(cs >= start, "child starts before parent: {child} in {node}");
        assert!(cs + cd <= start + dur, "child outlives parent: {child} in {node}");
        count += assert_nested(child);
    }
    count
}

/// Depth-first search for a node by name in a span forest.
fn find_span<'a>(forest: &'a [Json], name: &str) -> Option<&'a Json> {
    for node in forest {
        if node.get("name").and_then(Json::as_str) == Some(name) {
            return Some(node);
        }
        if let Some(kids) = node.get("children").and_then(Json::as_arr) {
            if let Some(hit) = find_span(kids, name) {
                return Some(hit);
            }
        }
    }
    None
}

#[test]
fn traced_pagerank_returns_a_nesting_span_tree() {
    let handle = spawn_server(ServerConfig::default());
    let mut c = Client::connect(handle.addr());
    c.ok(REGISTER);

    let reply = c
        .ok("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":10,\"trace\":true}");
    let trace_id = reply.get("trace_id").and_then(Json::as_u64).expect("trace_id in reply");
    let compute_seconds =
        reply.get("compute_seconds").and_then(Json::as_f64).expect("compute_seconds");
    // Traced replies are never served from (or stored in) the cache.
    assert_eq!(reply.get("cached").and_then(Json::as_bool), Some(false));

    let trace = c.ok(&format!("{{\"op\":\"trace\",\"trace_id\":{trace_id}}}"));
    let threads = trace.get("threads").and_then(Json::as_arr).expect("threads");
    assert!(!threads.is_empty(), "trace must cover at least the executor thread");

    // The executor thread is first; its tree roots at the `job` span.
    let spans = threads[0].get("spans").and_then(Json::as_arr).expect("spans");
    let job = find_span(spans, "job").expect("job root span");
    let total_nodes: usize = spans.iter().map(assert_nested).sum();
    assert!(total_nodes >= 12, "expected a real tree, got {total_nodes} spans");

    // The analytic and the per-iteration kernel nest under the job root.
    let pagerank = find_span(spans, "pagerank").expect("pagerank span");
    assert!(find_span(spans, "ihtl_spmv").is_some(), "kernel iterations must be traced");
    assert!(find_span(spans, "fb_push").is_some(), "push phase must be traced");

    // Acceptance: the tree accounts for >=95% of scheduler-measured compute
    // time. The job root wraps run_job, whose own timer is compute_seconds.
    let job_dur = job.get("dur_ns").and_then(Json::as_u64).expect("dur_ns") as f64;
    let pr_dur = pagerank.get("dur_ns").and_then(Json::as_u64).expect("dur_ns") as f64;
    assert!(
        job_dur >= 0.95 * compute_seconds * 1e9,
        "job span ({job_dur} ns) must cover >=95% of compute ({compute_seconds} s)"
    );
    assert!(pr_dur >= 0.95 * compute_seconds * 1e9, "pagerank span must cover the compute");

    // Unknown ids fail without disturbing the connection.
    let msg = c.err("{\"op\":\"trace\",\"trace_id\":999999}");
    assert!(msg.contains("unknown trace_id"));
    c.ok("{\"op\":\"ping\"}");
    handle.shutdown();
}

#[test]
fn coalesced_sssp_batch_matches_solo_bitwise_and_counts_occupancy() {
    let handle = spawn_server(ServerConfig { queue_capacity: 16, ..ServerConfig::default() });
    let addr = handle.addr();
    Client::connect(addr).ok(REGISTER);

    // Pin the single executor with a sleep so the four SSSP queries below
    // all enqueue while the leader's sweep is still waiting — they must
    // coalesce into one K=4 SpMM execution.
    let pin = std::thread::spawn(move || {
        Client::connect(addr)
            .ok("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":800}");
    });
    std::thread::sleep(std::time::Duration::from_millis(150));

    fn sssp_req(src: usize) -> String {
        format!(
            "{{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"source\":{src},\
             \"max_rounds\":16,\"nocache\":true}}"
        )
    }
    let clients: Vec<_> = (0..4)
        .map(|src| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let reply = c.ok(&sssp_req(src));
                let checksum =
                    reply.get("checksum").and_then(Json::as_str).expect("checksum").to_string();
                let batch_k = reply.get("batch_k").and_then(Json::as_u64).expect("batch_k");
                let rounds = reply.get("rounds").and_then(Json::as_u64).expect("rounds");
                (checksum, batch_k, rounds)
            })
        })
        .collect();
    let batched: Vec<_> = clients.into_iter().map(|t| t.join().expect("client")).collect();
    pin.join().unwrap();
    assert!(
        batched.iter().all(|(_, k, _)| *k == 4),
        "all four queries must share one edge sweep: {batched:?}"
    );

    // Sequential reruns each run as a batch of one; the demuxed columns
    // above must be bitwise identical to these solo results.
    let mut c = Client::connect(addr);
    for (src, (checksum, _, rounds)) in batched.iter().enumerate() {
        let solo = c.ok(&sssp_req(src));
        assert_eq!(
            solo.get("checksum").and_then(Json::as_str),
            Some(checksum.as_str()),
            "batched column for source {src} must match its solo run bitwise"
        );
        assert_eq!(solo.get("rounds").and_then(Json::as_u64), Some(*rounds));
        assert_eq!(solo.get("batch_k").and_then(Json::as_u64), Some(1));
    }

    let stats = c.ok("{\"op\":\"stats\"}");
    assert!(stats.get("batch_runs").and_then(Json::as_u64).unwrap() >= 5);
    assert!(stats.get("batch_jobs").and_then(Json::as_u64).unwrap() >= 8);
    let occ = stats.get("batch_occupancy").and_then(Json::as_arr).expect("batch_occupancy");
    assert!(
        occ.iter().any(|b| b.get("k").and_then(Json::as_u64) == Some(4)),
        "occupancy histogram must record the K=4 run: {stats}"
    );
    handle.shutdown();
}

#[test]
fn batched_failure_is_isolated_to_the_bad_query() {
    let handle = spawn_server(ServerConfig { queue_capacity: 16, ..ServerConfig::default() });
    let addr = handle.addr();
    Client::connect(addr).ok(REGISTER); // rmat scale 9: n = 512

    let pin = std::thread::spawn(move || {
        Client::connect(addr)
            .ok("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":800}");
    });
    std::thread::sleep(std::time::Duration::from_millis(150));

    // Sources 0 and 3 are valid; 100000 is out of range for n = 512. All
    // three coalesce, but only the bad column may fail.
    let clients: Vec<_> = [0usize, 100_000, 3]
        .into_iter()
        .map(|src| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                c.roundtrip(&format!(
                    "{{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"source\":{src},\
                     \"max_rounds\":16,\"nocache\":true}}"
                ))
            })
        })
        .collect();
    let replies: Vec<Json> = clients.into_iter().map(|t| t.join().expect("client")).collect();
    pin.join().unwrap();

    assert_eq!(replies[1].get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        replies[1].get("error").and_then(Json::as_str).unwrap().contains("out of range"),
        "bad source must fail with its own validation error: {}",
        replies[1]
    );
    for (i, src) in [(0usize, 0usize), (2, 3)] {
        assert_eq!(
            replies[i].get("ok").and_then(Json::as_bool),
            Some(true),
            "valid source {src} must survive the bad neighbour: {}",
            replies[i]
        );
        // batch_k counts executed columns: the failed one is excluded.
        assert_eq!(replies[i].get("batch_k").and_then(Json::as_u64), Some(2));
        let mut c = Client::connect(addr);
        let solo = c.ok(&format!(
            "{{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"source\":{src},\
             \"max_rounds\":16,\"nocache\":true}}"
        ));
        assert_eq!(
            solo.get("checksum").and_then(Json::as_str),
            replies[i].get("checksum").and_then(Json::as_str),
            "surviving column must still be bitwise identical to a solo run"
        );
    }
    let stats = Client::connect(addr).ok("{\"op\":\"stats\"}");
    assert!(stats.get("failed").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
}

#[test]
fn max_batch_one_disables_coalescing() {
    let handle =
        spawn_server(ServerConfig { max_batch: 1, queue_capacity: 16, ..ServerConfig::default() });
    let addr = handle.addr();
    Client::connect(addr).ok(REGISTER);

    let pin = std::thread::spawn(move || {
        Client::connect(addr)
            .ok("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":400}");
    });
    std::thread::sleep(std::time::Duration::from_millis(100));
    let clients: Vec<_> = (0..2)
        .map(|src| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                c.ok(&format!(
                    "{{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"source\":{src},\
                     \"max_rounds\":16,\"nocache\":true}}"
                ))
            })
        })
        .collect();
    for t in clients {
        let reply = t.join().expect("client");
        assert!(reply.get("batch_k").is_none(), "max_batch=1 must use the solo path: {reply}");
    }
    pin.join().unwrap();
    let stats = Client::connect(addr).ok("{\"op\":\"stats\"}");
    assert_eq!(stats.get("batch_runs").and_then(Json::as_u64), Some(0));
    handle.shutdown();
}

#[test]
fn shutdown_op_stops_the_server() {
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.addr();
    let mut c = Client::connect(addr);
    let reply = c.roundtrip("{\"op\":\"shutdown\"}");
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    // The accept loop exits; joining through the handle must not hang.
    handle.shutdown();
    // New connections are refused or die immediately without a reply.
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut line = String::new();
        let _ = writeln!(&stream, "{{\"op\":\"ping\"}}");
        let n = BufReader::new(stream).read_line(&mut line).unwrap_or(0);
        assert_eq!(n, 0, "post-shutdown connection must not be served: {line:?}");
    }
}
