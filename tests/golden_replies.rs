//! Golden replies: a fixed request set whose reply *bytes* were captured
//! from the commit before the worker and the router were moved onto the
//! shared `ihtl_serve::endpoint`. The transport refactor (one listener, one
//! connection loop, one reply renderer) must not move a byte: field order,
//! number formatting, error wording and the one-line framing are all part
//! of the wire contract. Wall-clock fields are scrubbed to `T` on both
//! sides; everything else — checksums included — is compared verbatim.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use ihtl_router::{Router, RouterConfig};
use ihtl_serve::{Server, ServerConfig};

/// Replaces the value of every wall-clock field with `T`.
fn scrub(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["\"load_seconds\":", "\"compute_seconds\":", "\"latency_seconds\":"] {
        let mut from = 0;
        while let Some(at) = out[from..].find(key) {
            let start = from + at + key.len();
            let end = start + out[start..].find([',', '}']).unwrap();
            out.replace_range(start..end, "T");
            from = start;
        }
    }
    out
}

/// Sends each request on one connection and checks the scrubbed reply
/// bytes, one line per request.
fn check(addr: SocketAddr, golden: &[(&str, &str)]) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    for (request, expected) in golden {
        writeln!(writer, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.ends_with('\n'), "reply to {request} is not newline-terminated: {line:?}");
        let reply = scrub(line.trim_end_matches('\n'));
        assert!(!reply.contains('\n'), "reply to {request} spans lines: {reply:?}");
        assert_eq!(&reply, expected, "reply to {request}");
    }
}

const SOURCE: &str = "{\"type\":\"rmat\",\"scale\":4,\"edges\":40,\"seed\":5}";

#[test]
fn worker_replies_are_byte_identical_to_the_parent_commit() {
    let server = Server::bind(ServerConfig::default()).unwrap().spawn().unwrap();
    let register =
        format!("{{\"op\":\"register\",\"name\":\"g\",\"source\":{SOURCE},\"id\":\"r\"}}");
    let xbits: Vec<String> = (0..14).map(|i| (i as f64 + 0.5).to_bits().to_string()).collect();
    let sweep = format!(
        "{{\"op\":\"sweep\",\"dataset\":\"g\",\"engine\":\"pull_grind\",\"monoid\":\"add\",\
         \"xbits\":[{}]}}",
        xbits.join(",")
    );
    check(
        server.addr(),
        &[
            ("{\"op\":\"ping\",\"id\":1}", "{\"id\":1,\"ok\":true,\"pong\":true}"),
            ("{\"op\":\"list\"}", "{\"ok\":true,\"datasets\":[]}"),
            ("not json", "{\"ok\":false,\"error\":\"JSON error at byte 0: expected 'null'\"}"),
            ("{\"op\":\"warp\",\"id\":2}", "{\"ok\":false,\"error\":\"unknown op 'warp'\"}"),
            ("{\"id\":[1,\"x\"],\"op\":\"job\",\"dataset\":\"nope\",\"kind\":\"pagerank\"}", "{\"id\":[1,\"x\"],\"ok\":false,\"error\":\"unknown dataset 'nope' (register it first)\"}"),
            (&register, "{\"id\":\"r\",\"ok\":true,\"name\":\"g\",\"n_vertices\":14,\"n_edges\":40,\"load_seconds\":T}"),
            ("{\"op\":\"list\"}", "{\"ok\":true,\"datasets\":[{\"name\":\"g\",\"source\":\"rmat:scale=4:edges=40:seed=5\",\"n_vertices\":14,\"n_edges\":40,\"load_seconds\":T,\"has_graph\":true,\"warm\":false}]}"),
            (
                "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":3,\
                 \"engine\":\"pull_grind\",\"top_k\":2,\"include_values\":true,\"id\":7}",
                "{\"id\":7,\"ok\":true,\"dataset\":\"g\",\"engine\":\"pull_grind\",\"engine_selected\":\"pull_grind\",\"job\":\"pagerank:iters=3\",\"n_vertices\":14,\"rounds\":3,\"compute_seconds\":T,\"checksum\":\"fa6eb24dc2b09abc\",\"top\":[{\"vertex\":2,\"value\":0.16613704536623675},{\"vertex\":0,\"value\":0.12610181663359785}],\"values\":[0.12610181663359785,0.09609100204613095,0.16613704536623675,0.021419800657242066,0.10354962169312168,0.07905349867724867,0.08069163018766534,0.12362389060433202,0.021419800657242066,0.08145337803819444,0.05377908984375,0.010714285714285716,0.025250854166666666,0.010714285714285716],\"latency_seconds\":T,\"cached\":false,\"batch_k\":1}",
            ),
            (
                "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":3,\
                 \"engine\":\"pull_grind\",\"top_k\":2,\"include_values\":true,\"id\":8}",
                "{\"id\":8,\"ok\":true,\"dataset\":\"g\",\"engine\":\"pull_grind\",\"engine_selected\":\"pull_grind\",\"job\":\"pagerank:iters=3\",\"n_vertices\":14,\"rounds\":3,\"compute_seconds\":T,\"checksum\":\"fa6eb24dc2b09abc\",\"top\":[{\"vertex\":2,\"value\":0.16613704536623675},{\"vertex\":0,\"value\":0.12610181663359785}],\"values\":[0.12610181663359785,0.09609100204613095,0.16613704536623675,0.021419800657242066,0.10354962169312168,0.07905349867724867,0.08069163018766534,0.12362389060433202,0.021419800657242066,0.08145337803819444,0.05377908984375,0.010714285714285716,0.025250854166666666,0.010714285714285716],\"latency_seconds\":T,\"cached\":true}",
            ),
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"source\":99}", "{\"ok\":false,\"error\":\"source vertex 99 out of range (n = 14)\"}"),
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":1}", "{\"ok\":true,\"slept_ms\":1,\"latency_seconds\":T,\"cached\":false}"),
            (
                "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"cc\",\"engine\":\"pb\",\"trace\":true}",
                "{\"ok\":true,\"dataset\":\"g\",\"engine\":\"pb\",\"engine_selected\":\"pb\",\"job\":\"cc:max_rounds=256\",\"n_vertices\":14,\"rounds\":3,\"compute_seconds\":T,\"checksum\":\"a4ca53d582377be5\",\"latency_seconds\":T,\"cached\":false,\"trace_id\":1}",
            ),
            (&sweep, "{\"ok\":true,\"ybits\":[4632163322983088128,4628011567076605952,4627307879634829312,4602678819172646912,4629770785681047552,4625196817309499392,4623226492472524800,4624633867356078080,4602678819172646912,4622382067542392832,4619004367821864960,0,4609434218613702656,0],\"dataset\":\"g\",\"engine\":\"pull_grind\",\"monoid\":\"add\",\"view\":\"raw\",\"n_vertices\":14}"),
            ("{\"op\":\"sweep\",\"dataset\":\"g\",\"monoid\":\"min\",\"xbits\":[1,2]}", "{\"ok\":false,\"error\":\"xbits has 2 entries; dataset 'g' has 14 vertices\"}"),
            ("{\"op\":\"degrees\",\"dataset\":\"g\",\"view\":\"sym\"}", "{\"ok\":true,\"dataset\":\"g\",\"view\":\"sym\",\"n_vertices\":14,\"degrees\":[10,5,5,2,6,2,3,4,2,4,3,2,1,1]}"),
            ("{\"op\":\"trace\",\"trace_id\":404}", "{\"ok\":false,\"error\":\"unknown trace_id 404 (expired or never recorded)\"}"),
            ("{\"op\":\"shutdown\",\"id\":\"bye\"}", "{\"id\":\"bye\",\"ok\":true,\"bye\":true}"),
        ],
    );
    server.shutdown();
}

#[test]
fn router_replies_are_byte_identical_to_the_parent_commit() {
    let workers: Vec<_> =
        (0..2).map(|_| Server::bind(ServerConfig::default()).unwrap().spawn().unwrap()).collect();
    let router = Router::bind(RouterConfig {
        workers: workers.iter().map(|w| w.addr().to_string()).collect(),
        ..RouterConfig::default()
    })
    .unwrap()
    .spawn()
    .unwrap();
    let register =
        format!("{{\"op\":\"register\",\"name\":\"g\",\"source\":{SOURCE},\"id\":\"r\"}}");
    let other =
        "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"suite\",\"key\":\"x\"}}";
    check(
        router.addr(),
        &[
            ("{\"op\":\"ping\",\"id\":1}", "{\"id\":1,\"ok\":true,\"role\":\"router\",\"workers\":2}"),
            ("{\"op\":\"list\"}", "{\"ok\":true,\"datasets\":[]}"),
            ("{\"op\":", "{\"ok\":false,\"error\":\"JSON error at byte 6: unexpected end of input\"}"),
            (&register, "{\"id\":\"r\",\"ok\":true,\"name\":\"g\",\"n_vertices\":14,\"n_edges\":40,\"shards\":2,\"boundary_sources\":12,\"load_seconds\":T}"),
            (&register, "{\"id\":\"r\",\"ok\":true,\"name\":\"g\",\"n_vertices\":14,\"n_edges\":40,\"shards\":2,\"boundary_sources\":12,\"load_seconds\":T}"),
            (other, "{\"ok\":false,\"error\":\"dataset 'g' already registered with source rmat:scale=4:edges=40:seed=5\"}"),
            ("{\"op\":\"list\",\"id\":null}", "{\"id\":null,\"ok\":true,\"datasets\":[{\"name\":\"g\",\"source\":\"rmat:scale=4:edges=40:seed=5\",\"n_vertices\":14,\"n_edges\":40,\"shards\":2,\"boundary_sources\":12,\"ranges\":[[0,5],[5,14]],\"load_seconds\":T}]}"),
            (
                "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":3,\
                 \"engine\":\"pull_grind\",\"top_k\":2,\"include_values\":true,\"id\":7}",
                "{\"id\":7,\"ok\":true,\"dataset\":\"g\",\"engine\":\"pull_grind\",\"engine_selected\":\"router\",\"job\":\"pagerank:iters=3\",\"n_vertices\":14,\"rounds\":3,\"compute_seconds\":T,\"checksum\":\"fa6eb24dc2b09abc\",\"shards\":2,\"top\":[{\"vertex\":2,\"value\":0.16613704536623675},{\"vertex\":0,\"value\":0.12610181663359785}],\"values\":[0.12610181663359785,0.09609100204613095,0.16613704536623675,0.021419800657242066,0.10354962169312168,0.07905349867724867,0.08069163018766534,0.12362389060433202,0.021419800657242066,0.08145337803819444,0.05377908984375,0.010714285714285716,0.025250854166666666,0.010714285714285716]}",
            ),
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"engine\":\"pb\"}", "{\"ok\":true,\"dataset\":\"g\",\"engine\":\"pb\",\"engine_selected\":\"router\",\"job\":\"sssp:source=0:max_rounds=256\",\"n_vertices\":14,\"rounds\":3,\"compute_seconds\":T,\"checksum\":\"57ba0ae8c084f8a5\",\"shards\":2}"),
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"bfs\"}", "{\"ok\":false,\"error\":\"bfs needs the raw graph; the router serves sweep-based analytics (pagerank, spmv, sssp, cc)\"}"),
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"trace\":true}", "{\"ok\":false,\"error\":\"trace is not supported by the router\"}"),
            ("{\"op\":\"degrees\",\"dataset\":\"g\"}", "{\"ok\":false,\"error\":\"degrees is a worker-side op; send jobs to the router instead\"}"),
            ("{\"op\":\"shutdown\"}", "{\"ok\":true,\"shutting_down\":true}"),
        ],
    );
    router.shutdown();
    for w in workers {
        w.shutdown();
    }
}
