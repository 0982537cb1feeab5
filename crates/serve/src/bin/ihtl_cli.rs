//! `ihtl-cli`: a one-shot client for the `ihtl-serve` daemon.
//!
//! Builds one request from the command line, sends it as a single JSON
//! line, prints the server's JSON reply to stdout, and exits 0 iff the
//! reply says `"ok": true`.
//!
//! ```text
//! ihtl-cli --addr 127.0.0.1:7411 ping
//! ihtl-cli register NAME --rmat-scale 12 [--edges N] [--seed N]
//! ihtl-cli register NAME --suite KEY | --edgelist PATH | --graph-image PATH | --ihtl-image PATH
//! ihtl-cli job DATASET KIND [--engine E] [--iters N] [--source V] [--timeout-ms N]
//!                           [--top N] [--values] [--nocache] [--trace]
//! ihtl-cli trace TRACE_ID
//! ihtl-cli list | stats | shutdown
//! ```

use ihtl_serve::argv::{parse_or_exit, FlagSpec, ParsedArgs};
use ihtl_serve::endpoint::{wire_line, LineClient};
use ihtl_serve::Json;

const FLAGS: &[FlagSpec] = &[
    FlagSpec {
        name: "addr",
        value: Some("HOST:PORT"),
        help: "server address (default 127.0.0.1:7411)",
    },
    FlagSpec { name: "rmat-scale", value: Some("S"), help: "register: R-MAT scale (n = 2^S)" },
    FlagSpec { name: "edges", value: Some("N"), help: "register: R-MAT target edge count" },
    FlagSpec { name: "seed", value: Some("N"), help: "register: generator seed (default 1)" },
    FlagSpec { name: "suite", value: Some("KEY"), help: "register: generator-suite dataset key" },
    FlagSpec { name: "edgelist", value: Some("PATH"), help: "register: text edge-list file" },
    FlagSpec { name: "graph-image", value: Some("PATH"), help: "register: IHTLGRPH binary image" },
    FlagSpec { name: "ihtl-image", value: Some("PATH"), help: "register: IHTLBLK2 iHTL image" },
    FlagSpec { name: "engine", value: Some("E"), help: "job: ihtl|pull_grind|pb|hybrid|auto" },
    FlagSpec { name: "iters", value: Some("N"), help: "job: iterations (pagerank/spmv/compare)" },
    FlagSpec { name: "source", value: Some("V"), help: "job: source vertex (bfs/sssp)" },
    FlagSpec { name: "max-rounds", value: Some("N"), help: "job: round cap (sssp/cc)" },
    FlagSpec { name: "ms", value: Some("N"), help: "job: sleep milliseconds (kind 'sleep')" },
    FlagSpec { name: "timeout-ms", value: Some("N"), help: "job: admission-to-reply deadline" },
    FlagSpec { name: "top", value: Some("K"), help: "job: include the K top-valued vertices" },
    FlagSpec { name: "values", value: None, help: "job: include the full value vector" },
    FlagSpec { name: "nocache", value: None, help: "job: bypass the result cache" },
    FlagSpec {
        name: "trace",
        value: None,
        help: "job: record a span trace; fetch it with 'trace <trace_id>'",
    },
];

const SYNOPSIS: &str = "[options] <ping|register|job|trace|list|stats|shutdown> [args]";

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn num_field(
    args: &ParsedArgs,
    flag: &str,
    key: &'static str,
    pairs: &mut Vec<(&'static str, Json)>,
) {
    if let Some(v) = args.get(flag) {
        match v.parse::<u64>() {
            Ok(n) => pairs.push((key, Json::from(n))),
            Err(_) => die(&format!("--{flag} expects an integer, got '{v}'")),
        }
    }
}

fn build_request(args: &ParsedArgs) -> Json {
    let pos = args.positionals();
    let Some(command) = pos.first().map(String::as_str) else {
        die("missing command (ping, register, job, list, stats, shutdown)");
    };
    match command {
        "ping" | "list" | "stats" | "shutdown" => Json::obj([("op", Json::from(command))]),
        "register" => {
            let Some(name) = pos.get(1) else {
                die("register needs a dataset name: ihtl-cli register NAME --rmat-scale 12");
            };
            let mut source = Vec::new();
            if args.get("rmat-scale").is_some() {
                source.push(("type", Json::from("rmat")));
                num_field(args, "rmat-scale", "scale", &mut source);
                num_field(args, "edges", "edges", &mut source);
                num_field(args, "seed", "seed", &mut source);
            } else if let Some((kind, operand)) = ["suite", "edgelist", "graph-image", "ihtl-image"]
                .into_iter()
                .find_map(|flag| args.get(flag).map(|v| (flag, v)))
            {
                // The flag names the wire source type; only `suite` calls
                // its operand `key`.
                source.push(("type", Json::from(kind)));
                source.push((if kind == "suite" { "key" } else { "path" }, Json::from(operand)));
            } else {
                die("register needs a source: --rmat-scale, --suite, --edgelist, --graph-image, or --ihtl-image");
            }
            Json::obj([
                ("op", Json::from("register")),
                ("name", Json::from(name.as_str())),
                ("source", Json::obj(source)),
            ])
        }
        "job" => {
            let (Some(dataset), Some(kind)) = (pos.get(1), pos.get(2)) else {
                die("job needs a dataset and kind: ihtl-cli job NAME pagerank");
            };
            let mut pairs = vec![
                ("op", Json::from("job")),
                ("dataset", Json::from(dataset.as_str())),
                ("kind", Json::from(kind.as_str())),
            ];
            if let Some(engine) = args.get("engine") {
                pairs.push(("engine", Json::from(engine)));
            }
            num_field(args, "iters", "iters", &mut pairs);
            num_field(args, "source", "source", &mut pairs);
            num_field(args, "max-rounds", "max_rounds", &mut pairs);
            num_field(args, "ms", "ms", &mut pairs);
            num_field(args, "timeout-ms", "timeout_ms", &mut pairs);
            num_field(args, "top", "top_k", &mut pairs);
            if args.has("values") {
                pairs.push(("include_values", Json::Bool(true)));
            }
            if args.has("nocache") {
                pairs.push(("nocache", Json::Bool(true)));
            }
            if args.has("trace") {
                pairs.push(("trace", Json::Bool(true)));
            }
            Json::obj(pairs)
        }
        "trace" => {
            let Some(tid) = pos.get(1) else {
                die("trace needs the id a traced job returned: ihtl-cli trace 7");
            };
            match tid.parse::<u64>() {
                Ok(n) => Json::obj([("op", Json::from("trace")), ("trace_id", Json::from(n))]),
                Err(_) => die(&format!("trace id must be an integer, got '{tid}'")),
            }
        }
        other => die(&format!("unknown command '{other}'")),
    }
}

fn main() {
    let args = parse_or_exit("ihtl-cli", SYNOPSIS, FLAGS, std::env::args().skip(1));
    let request = build_request(&args);
    let addr = args.get_or("addr", "127.0.0.1:7411");

    // A clean EOF (server closed without replying) and an I/O failure are
    // different diagnoses; `exchange` reports the former as `UnexpectedEof`.
    let reply_line = LineClient::connect(addr, None)
        .and_then(|mut client| client.exchange(&wire_line(&request)))
        .unwrap_or_else(|e| {
            eprintln!("error: {addr}: {e}");
            std::process::exit(1);
        });
    print!("{reply_line}");
    match Json::parse(reply_line.trim()) {
        Ok(reply) if reply.get("ok").and_then(Json::as_bool) == Some(true) => {}
        Ok(_) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: unparseable reply: {e}");
            std::process::exit(1);
        }
    }
}
