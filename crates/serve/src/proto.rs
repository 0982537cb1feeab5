//! Wire protocol: request parsing and the request/reply vocabulary.
//!
//! Transport is line-delimited JSON over TCP: one request object per line,
//! one reply object per line, in order. Every request carries an `op`; the
//! optional `id` is echoed verbatim in the reply so clients can match
//! pipelined replies. Replies always carry `"ok": true|false`; failures add
//! `"error"` with a human-readable message and keep the connection open.
//! See DESIGN.md for the full grammar.

use std::fmt::Write as _;

use ihtl_apps::{EngineKind, JobSpec};

use crate::json::Json;

/// Where a registered dataset's graph comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum GraphSource {
    /// Seeded R-MAT (social profile) generated in-process.
    Rmat { scale: u32, edges: usize, seed: u64 },
    /// A named spec from the generator suite (`suite` / `suite_small` keys).
    Suite { key: String },
    /// Whitespace-separated `src dst` text file (`#` comments).
    EdgeListFile { path: String },
    /// A saved `IHTLGRPH` binary graph image.
    GraphImage { path: String },
    /// A saved `IHTLBLK2` preprocessed iHTL image. Only the iHTL engine can
    /// serve such a dataset (the raw graph is not recoverable from it).
    IhtlImage { path: String },
    /// Destination-range shard `index` of `count` over a base source: the
    /// worker loads (or generates) the base graph, keeps only the edges
    /// whose destination falls in its deterministic edge-balanced range,
    /// and serves that subgraph under the global vertex space. Sent by the
    /// placement router, one shard per worker.
    Shard { index: usize, count: usize, base: Box<GraphSource> },
}

impl GraphSource {
    /// Stable description used for duplicate-registration detection and the
    /// `list` reply.
    pub fn describe(&self) -> String {
        match self {
            GraphSource::Rmat { scale, edges, seed } => {
                format!("rmat:scale={scale}:edges={edges}:seed={seed}")
            }
            GraphSource::Suite { key } => format!("suite:{key}"),
            GraphSource::EdgeListFile { path } => format!("edgelist:{path}"),
            GraphSource::GraphImage { path } => format!("graph-image:{path}"),
            GraphSource::IhtlImage { path } => format!("ihtl-image:{path}"),
            GraphSource::Shard { index, count, base } => {
                format!("shard:{index}/{count}:{}", base.describe())
            }
        }
    }

    /// Renders the source back to its wire form (inverse of `from_json`).
    /// The placement router parses a base source off its own wire and
    /// re-serializes it inside per-worker shard `register` requests.
    pub fn to_json(&self) -> Json {
        match self {
            GraphSource::Rmat { scale, edges, seed } => Json::obj([
                ("type", Json::from("rmat")),
                ("scale", Json::from(*scale)),
                ("edges", Json::from(*edges)),
                ("seed", Json::from(*seed)),
            ]),
            GraphSource::Suite { key } => {
                Json::obj([("type", Json::from("suite")), ("key", Json::from(key.clone()))])
            }
            GraphSource::EdgeListFile { path } => {
                Json::obj([("type", Json::from("edgelist")), ("path", Json::from(path.clone()))])
            }
            GraphSource::GraphImage { path } => {
                Json::obj([("type", Json::from("graph-image")), ("path", Json::from(path.clone()))])
            }
            GraphSource::IhtlImage { path } => {
                Json::obj([("type", Json::from("ihtl-image")), ("path", Json::from(path.clone()))])
            }
            GraphSource::Shard { index, count, base } => Json::obj([
                ("type", Json::from("shard")),
                ("index", Json::from(*index)),
                ("count", Json::from(*count)),
                ("base", base.to_json()),
            ]),
        }
    }

    fn from_json(v: &Json) -> Result<GraphSource, String> {
        let kind =
            v.get("type").and_then(Json::as_str).ok_or("source requires a string 'type' field")?;
        let path = || {
            v.get("path")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("source type '{kind}' requires a 'path' field"))
        };
        match kind {
            "rmat" => {
                let scale = v.get("scale").and_then(Json::as_u64).ok_or("rmat requires 'scale'")?;
                if !(1..=24).contains(&scale) {
                    return Err(format!("rmat scale {scale} out of range 1..=24"));
                }
                let edges = v.get("edges").and_then(Json::as_u64).unwrap_or(8 << scale);
                // Reject out-of-range sizes instead of silently clamping:
                // the caller asked for a graph we will not build, so tell
                // them rather than hand back a smaller one.
                if edges == 0 || edges > 1 << 30 {
                    return Err(format!("rmat edges {edges} out of range 1..=2^30"));
                }
                let edges = edges as usize;
                let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(1);
                Ok(GraphSource::Rmat { scale: scale as u32, edges, seed })
            }
            "suite" => {
                let key = v.get("key").and_then(Json::as_str).ok_or("suite requires 'key'")?;
                Ok(GraphSource::Suite { key: key.to_string() })
            }
            "edgelist" => Ok(GraphSource::EdgeListFile { path: path()? }),
            "graph-image" => Ok(GraphSource::GraphImage { path: path()? }),
            "ihtl-image" => Ok(GraphSource::IhtlImage { path: path()? }),
            "shard" => {
                let index =
                    v.get("index").and_then(Json::as_u64).ok_or("shard requires 'index'")?;
                let count =
                    v.get("count").and_then(Json::as_u64).ok_or("shard requires 'count'")?;
                if !(1..=64).contains(&count) {
                    return Err(format!("shard count {count} out of range 1..=64"));
                }
                if index >= count {
                    return Err(format!("shard index {index} out of range for count {count}"));
                }
                let base = GraphSource::from_json(v.get("base").ok_or("shard requires 'base'")?)?;
                match base {
                    GraphSource::Shard { .. } => {
                        Err("shard base must not itself be a shard".to_string())
                    }
                    GraphSource::IhtlImage { .. } => {
                        Err("shard base must carry the raw graph (ihtl-image does not)".to_string())
                    }
                    base => Ok(GraphSource::Shard {
                        index: index as usize,
                        count: count as usize,
                        base: Box::new(base),
                    }),
                }
            }
            other => Err(format!("unknown source type '{other}'")),
        }
    }
}

/// What a `job` request asks to run.
#[derive(Clone, Debug, PartialEq)]
pub enum WireJob {
    /// One analytic via the `ihtl-apps` job dispatcher.
    Analytic(JobSpec),
    /// Run PageRank on every engine and report agreement + per-engine
    /// timings (the paper's Figure 7 comparison as a service call).
    Compare { iters: usize },
    /// Debug job: occupy an executor for `ms` milliseconds. Used by tests
    /// to saturate the admission queue deterministically.
    Sleep { ms: u64 },
}

impl WireJob {
    /// Cache-key fragment; equal jobs produce equal strings.
    pub fn canonical(&self) -> String {
        match self {
            WireJob::Analytic(spec) => spec.canonical(),
            WireJob::Compare { iters } => format!("compare:iters={iters}"),
            WireJob::Sleep { ms } => format!("sleep:ms={ms}"),
        }
    }

    /// Whether results of this job may be cached (sleep is a timing tool;
    /// caching it would defeat its purpose).
    pub fn cacheable(&self) -> bool {
        !matches!(self, WireJob::Sleep { .. })
    }

    fn from_json(v: &Json) -> Result<WireJob, String> {
        let kind = v.get("kind").and_then(Json::as_str).ok_or("job requires a 'kind' field")?;
        // Reject out-of-range values instead of silently clamping, matching
        // the rmat `edges` precedent: the caller asked for work we will not
        // do, so tell them rather than quietly run something else.
        let ranged = |field: &str, default: u64, lo: u64, hi: u64| -> Result<u64, String> {
            match v.get(field) {
                None => Ok(default),
                Some(x) => {
                    let x = x
                        .as_u64()
                        .ok_or_else(|| format!("'{field}' must be a non-negative integer"))?;
                    if (lo..=hi).contains(&x) {
                        Ok(x)
                    } else {
                        Err(format!("{field} {x} out of range {lo}..={hi}"))
                    }
                }
            }
        };
        let iters = ranged("iters", 20, 1, 10_000)? as usize;
        let max_rounds = ranged("max_rounds", 256, 1, 100_000)? as usize;
        let source = v.get("source").and_then(Json::as_u64).unwrap_or(0);
        if source > u32::MAX as u64 {
            return Err(format!("source vertex {source} exceeds u32"));
        }
        let source = source as u32;
        // Optional per-query parameters: absent means the classic variant
        // (uniform teleport / all-ones start), so old requests and their
        // cache keys are unchanged.
        let opt_u32 = |field: &str| -> Result<Option<u32>, String> {
            match v.get(field).and_then(Json::as_u64) {
                None => Ok(None),
                Some(x) if x <= u32::MAX as u64 => Ok(Some(x as u32)),
                Some(x) => Err(format!("{field} vertex {x} exceeds u32")),
            }
        };
        match kind {
            "pagerank" => {
                Ok(WireJob::Analytic(JobSpec::PageRank { iters, seed: opt_u32("seed")? }))
            }
            "spmv" => Ok(WireJob::Analytic(JobSpec::SpmvSum { iters, source: opt_u32("source")? })),
            "sssp" => Ok(WireJob::Analytic(JobSpec::Sssp { source, max_rounds })),
            "cc" => Ok(WireJob::Analytic(JobSpec::Components { max_rounds })),
            "bfs" => Ok(WireJob::Analytic(JobSpec::Bfs { source })),
            "compare" => Ok(WireJob::Compare { iters }),
            "sleep" => Ok(WireJob::Sleep { ms: ranged("ms", 100, 0, 60_000)? }),
            other => Err(format!("unknown job kind '{other}'")),
        }
    }
}

/// What the `engine` field of a job request asks for: a specific engine,
/// or the server-side per-dataset adaptive choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// Run exactly this engine.
    Fixed(EngineKind),
    /// Let the registry's memoized scoring rule pick the engine for the
    /// dataset (DESIGN.md §11). The job reply's `engine_selected` field
    /// reports what ran.
    Auto,
}

impl EngineChoice {
    /// The choice's wire name (what the client wrote in `engine`).
    pub fn wire_name(self) -> &'static str {
        match self {
            EngineChoice::Fixed(kind) => engine_wire_name(kind),
            EngineChoice::Auto => "auto",
        }
    }
}

/// Parses an engine name as it appears on the wire. Unknown names report
/// the full valid vocabulary, which tracks `EngineKind::all()` by
/// construction.
pub fn engine_from_str(s: &str) -> Result<EngineChoice, String> {
    if s == "auto" {
        return Ok(EngineChoice::Auto);
    }
    for kind in EngineKind::all() {
        if engine_wire_name(kind) == s {
            return Ok(EngineChoice::Fixed(kind));
        }
    }
    let mut valid: Vec<&'static str> =
        EngineKind::all().iter().map(|&k| engine_wire_name(k)).collect();
    valid.push("auto");
    Err(format!("unknown engine '{s}' (valid engines: {})", valid.join(", ")))
}

/// Wire name of an engine kind (inverse of [`engine_from_str`]).
pub fn engine_wire_name(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Ihtl => "ihtl",
        EngineKind::PullGraphGrind => "pull_grind",
        EngineKind::Pb => "pb",
        EngineKind::Hybrid => "hybrid",
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Echoed in the reply if present.
    pub id: Option<Json>,
    pub op: Op,
}

/// The operations the server understands.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// Liveness check; replies immediately from the connection thread.
    Ping,
    /// Lists registered datasets with their sizes.
    List,
    /// Serving counters: queue depth, cache hits, latency histogram,
    /// per-engine ns/edge.
    Stats,
    /// Stops accepting connections and shuts the server down.
    Shutdown,
    /// Loads/generates a dataset and registers it under `name`.
    Register { name: String, source: GraphSource },
    /// Runs a job on a registered dataset.
    Job {
        dataset: String,
        engine: EngineChoice,
        job: WireJob,
        /// Admission-to-completion deadline; exceeded jobs fail with
        /// `"error": "deadline exceeded"`.
        timeout_ms: Option<u64>,
        /// Skip the result cache for this call (still records stats).
        nocache: bool,
        /// How many top-valued vertices to include in the reply.
        top_k: usize,
        /// Include the full value vector (large!) in the reply.
        include_values: bool,
        /// Trace this job: the reply carries a `trace_id` whose span tree
        /// the `trace` op can fetch afterwards.
        trace: bool,
    },
    /// Fetches the span tree recorded for an earlier traced job.
    Trace { trace_id: u64 },
    /// One monoid edge sweep `y = A ⊙ x` on a registered dataset, used by
    /// the placement router to drive a distributed analytic. The vector
    /// travels as f64 *bit patterns* (`u64`s): JSON has no NaN/∞, and bit
    /// patterns routinely exceed 2^53, so exact integers are load-bearing.
    Sweep {
        dataset: String,
        engine: EngineChoice,
        monoid: Monoid,
        view: GraphView,
        xbits: Vec<u64>,
    },
    /// Fetches the dataset's out-degree vector (a shard reports only the
    /// degrees of the edges it kept, so summing across shards recovers the
    /// global vector exactly — integer addition).
    Degrees { dataset: String, view: GraphView },
}

/// Which merge monoid an edge sweep folds with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Monoid {
    /// `y[v] = Σ x[u]` over in-edges — PageRank / SpMV. Identity 0.
    Add,
    /// `y[v] = min(x[u] + 1)` over in-edges — SSSP / CC relaxation.
    /// Identity +∞.
    Min,
}

impl Monoid {
    /// Wire name (`monoid` field of `sweep`).
    pub fn wire_name(self) -> &'static str {
        match self {
            Monoid::Add => "add",
            Monoid::Min => "min",
        }
    }

    /// The monoid's identity element — what a sweep leaves in rows with no
    /// in-edges, and what makes cross-shard merges exact (a non-owner's
    /// entry is *exactly* the identity, so the owner's fold is the full
    /// fold).
    pub fn identity(self) -> f64 {
        match self {
            Monoid::Add => 0.0,
            Monoid::Min => f64::INFINITY,
        }
    }

    fn from_str(s: &str) -> Result<Monoid, String> {
        match s {
            "add" => Ok(Monoid::Add),
            "min" => Ok(Monoid::Min),
            other => Err(format!("unknown monoid '{other}' (valid: add, min)")),
        }
    }
}

/// Which graph view a sweep or degree fetch runs over.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GraphView {
    /// The directed graph as registered.
    Raw,
    /// The symmetrized graph (weak connectivity; what `cc` runs on).
    Sym,
}

impl GraphView {
    /// Wire name (`view` field of `sweep` / `degrees`).
    pub fn wire_name(self) -> &'static str {
        match self {
            GraphView::Raw => "raw",
            GraphView::Sym => "sym",
        }
    }

    fn from_json(v: &Json) -> Result<GraphView, String> {
        match v.get("view").and_then(Json::as_str) {
            None | Some("raw") => Ok(GraphView::Raw),
            Some("sym") => Ok(GraphView::Sym),
            Some(other) => Err(format!("unknown view '{other}' (valid: raw, sym)")),
        }
    }
}

impl Request {
    /// Parses one request line.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let id = v.get("id").cloned();
        let op_name =
            v.get("op").and_then(Json::as_str).ok_or("request requires a string 'op' field")?;
        // `dataset` (job, sweep, degrees) and `engine` (job, sweep) read the
        // same way wherever they appear.
        let dataset = || {
            v.get("dataset")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("{op_name} requires a 'dataset' field"))
        };
        let engine = || match v.get("engine") {
            None => Ok(EngineChoice::Fixed(EngineKind::Ihtl)),
            Some(e) => engine_from_str(e.as_str().ok_or("'engine' must be a string")?),
        };
        let op = match op_name {
            "ping" => Op::Ping,
            "list" => Op::List,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            "register" => {
                let name = v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("register requires a 'name' field")?;
                if name.is_empty() || name.len() > 128 {
                    return Err("dataset name must be 1..=128 characters".to_string());
                }
                let source =
                    GraphSource::from_json(v.get("source").ok_or("register requires 'source'")?)?;
                Op::Register { name: name.to_string(), source }
            }
            "job" => {
                let (dataset, engine) = (dataset()?, engine()?);
                let job = WireJob::from_json(&v)?;
                let timeout_ms = v.get("timeout_ms").and_then(Json::as_u64);
                let nocache = v.get("nocache").and_then(Json::as_bool).unwrap_or(false);
                // Reject, don't clamp (see WireJob::from_json).
                let top_k = v.get("top_k").and_then(Json::as_u64).unwrap_or(0);
                if top_k > 1024 {
                    return Err(format!("top_k {top_k} out of range 0..=1024"));
                }
                let top_k = top_k as usize;
                let include_values =
                    v.get("include_values").and_then(Json::as_bool).unwrap_or(false);
                let trace = v.get("trace").and_then(Json::as_bool).unwrap_or(false);
                Op::Job { dataset, engine, job, timeout_ms, nocache, top_k, include_values, trace }
            }
            "trace" => {
                let trace_id = v
                    .get("trace_id")
                    .and_then(Json::as_u64)
                    .ok_or("trace requires a numeric 'trace_id' field")?;
                Op::Trace { trace_id }
            }
            "sweep" => {
                let (dataset, engine) = (dataset()?, engine()?);
                let monoid = Monoid::from_str(
                    v.get("monoid").and_then(Json::as_str).ok_or("sweep requires 'monoid'")?,
                )?;
                let view = GraphView::from_json(&v)?;
                Op::Sweep { dataset, engine, monoid, view, xbits: u64_array(&v, "xbits")? }
            }
            "degrees" => Op::Degrees { dataset: dataset()?, view: GraphView::from_json(&v)? },
            other => return Err(format!("unknown op '{other}'")),
        };
        Ok(Request { id, op })
    }
}

/// Every reply opens with the echoed `id` (if the request had one), then
/// `ok`.
fn reply_head(id: Option<Json>, ok: bool) -> Vec<(String, Json)> {
    let mut pairs: Vec<(String, Json)> = id.map(|id| ("id".to_string(), id)).into_iter().collect();
    pairs.push(("ok".to_string(), Json::Bool(ok)));
    pairs
}

/// Builds the `{"ok":false,...}` reply.
pub fn error_reply(id: Option<Json>, msg: &str) -> Json {
    let mut pairs = reply_head(id, false);
    pairs.push(("error".to_string(), Json::from(msg)));
    Json::Obj(pairs)
}

/// Builds the `{"ok":true,...}` reply around a body object.
pub fn ok_reply(id: Option<Json>, body: Json) -> Json {
    let mut pairs = reply_head(id, true);
    if let Json::Obj(fields) = body {
        pairs.extend(fields);
    }
    Json::Obj(pairs)
}

/// The reply for a handler's outcome: its body under `ok`, or its message.
pub fn result_reply(id: Option<Json>, result: Result<Json, String>) -> Json {
    match result {
        Ok(body) => ok_reply(id, body),
        Err(msg) => error_reply(id, &msg),
    }
}

/// Appends the optional tail of a job reply: the `top_k` highest-valued
/// vertices (ties broken by vertex id) and/or the full value vector.
pub fn push_result_tail(
    pairs: &mut Vec<(String, Json)>,
    values: &[f64],
    top_k: usize,
    include_values: bool,
) {
    if top_k > 0 {
        let mut idx: Vec<usize> = (0..values.len()).collect();
        idx.sort_by(|&a, &b| {
            values[b].partial_cmp(&values[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
        });
        let top: Vec<Json> = idx
            .into_iter()
            .take(top_k)
            .map(|i| Json::obj([("vertex", Json::from(i)), ("value", Json::Num(values[i]))]))
            .collect();
        pairs.push(("top".to_string(), Json::Arr(top)));
    }
    if include_values {
        pairs.push((
            "values".to_string(),
            Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
        ));
    }
}

/// Renders a sweep vector as f64 *bit patterns* (`xbits` / `ybits`): JSON
/// has no NaN/∞ literals and SSSP/CC sweeps legitimately carry +∞.
pub fn bits_to_json(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::from(v.to_bits())).collect())
}

/// The `sweep` request line the router sends each round, newline included.
/// Rendered straight from the vector: a `Json` tree of it is 32 bytes per
/// vertex, built and dropped every round on a connection thread whose malloc
/// arena keeps the high-water mark. Byte-identical to rendering the tree
/// (`engine`, `monoid` and `view` are wire identifiers, never escaped).
pub fn sweep_line(
    dataset: &str,
    engine: &str,
    monoid: Monoid,
    view: GraphView,
    x: &[f64],
) -> String {
    let mut line = String::with_capacity(128 + dataset.len() + 21 * x.len());
    let (dataset, monoid, view) = (Json::from(dataset), monoid.wire_name(), view.wire_name());
    // Writes into a String cannot fail.
    let _ = write!(
        line,
        "{{\"op\":\"sweep\",\"dataset\":{dataset},\"engine\":\"{engine}\",\"monoid\":\"{monoid}\",\
         \"view\":\"{view}\",\"xbits\":["
    );
    for (i, v) in x.iter().enumerate() {
        let _ = write!(line, "{}{}", if i == 0 { "" } else { "," }, v.to_bits());
    }
    line.push_str("]}\n");
    line
}

/// Reads field `key` of `obj` as an array of exact `u64`s — the decode side
/// of `xbits`, `ybits` and `degrees`.
pub fn u64_array(obj: &Json, key: &str) -> Result<Vec<u64>, String> {
    obj.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing '{key}' array"))?
        .iter()
        .map(|b| b.as_u64().ok_or_else(|| format!("'{key}' entries must be unsigned integers")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_put_id_first_and_ok() {
        let r = ok_reply(Some(Json::Num(4.0)), Json::obj([("x", Json::from(1u64))]));
        assert_eq!(r.to_string(), "{\"id\":4,\"ok\":true,\"x\":1}");
        let e = error_reply(None, "nope");
        assert_eq!(e.to_string(), "{\"ok\":false,\"error\":\"nope\"}");
    }

    #[test]
    fn sweep_line_is_the_tree_rendering_byte_for_byte() {
        for x in [vec![], vec![0.0], vec![1.5, f64::INFINITY, -0.0, f64::NAN, 1e-300]] {
            let tree = Json::obj([
                ("op", Json::from("sweep")),
                ("dataset", Json::from("g \"q\" }")),
                ("engine", Json::from("pb")),
                ("monoid", Json::from("min")),
                ("view", Json::from("sym")),
                ("xbits", bits_to_json(&x)),
            ]);
            let line = sweep_line("g \"q\" }", "pb", Monoid::Min, GraphView::Sym, &x);
            assert_eq!(line, format!("{tree}\n"));
            match Request::parse(line.trim_end()).unwrap().op {
                Op::Sweep { xbits, .. } => {
                    assert_eq!(xbits, x.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn parses_ping_with_id() {
        let r = Request::parse("{\"op\":\"ping\",\"id\":7}").unwrap();
        assert_eq!(r.op, Op::Ping);
        assert_eq!(r.id, Some(Json::Int(7)));
    }

    #[test]
    fn big_u64_fields_survive_parsing_exactly() {
        // Regression: seed/trace_id used to round through f64 above 2^53.
        let seed = (1u64 << 60) + 1;
        let r = Request::parse(&format!(
            "{{\"op\":\"register\",\"name\":\"g\",\"source\":\
             {{\"type\":\"rmat\",\"scale\":5,\"edges\":100,\"seed\":{seed}}}}}"
        ))
        .unwrap();
        match r.op {
            Op::Register { source, .. } => {
                assert_eq!(source, GraphSource::Rmat { scale: 5, edges: 100, seed });
            }
            other => panic!("{other:?}"),
        }
        let r = Request::parse(&format!("{{\"op\":\"trace\",\"trace_id\":{}}}", u64::MAX)).unwrap();
        assert_eq!(r.op, Op::Trace { trace_id: u64::MAX });
    }

    #[test]
    fn rejects_out_of_range_job_params_instead_of_clamping() {
        for (bad, needle) in [
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":0}", "iters 0"),
            (
                "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":10001}",
                "iters 10001",
            ),
            (
                "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sssp\",\"max_rounds\":100001}",
                "max_rounds 100001",
            ),
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":60001}", "ms 60001"),
            (
                "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"top_k\":1025}",
                "top_k 1025",
            ),
            ("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":\"x\"}", "'iters'"),
        ] {
            let err = Request::parse(bad).unwrap_err();
            assert!(err.contains(needle), "{bad} → {err}");
        }
        // The boundary values themselves are accepted.
        for good in [
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"iters\":10000}",
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"top_k\":1024}",
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"sleep\",\"ms\":60000}",
        ] {
            assert!(Request::parse(good).is_ok(), "{good}");
        }
    }

    #[test]
    fn parses_shard_source() {
        let r = Request::parse(
            "{\"op\":\"register\",\"name\":\"g0\",\"source\":{\"type\":\"shard\",\"index\":1,\
             \"count\":3,\"base\":{\"type\":\"rmat\",\"scale\":8,\"edges\":1000,\"seed\":7}}}",
        )
        .unwrap();
        match r.op {
            Op::Register { source, .. } => {
                assert_eq!(
                    source.describe(),
                    "shard:1/3:rmat:scale=8:edges=1000:seed=7",
                    "describe must pin index, count and base"
                );
            }
            other => panic!("{other:?}"),
        }
        // index out of range, nested shards, and engine-only bases reject.
        for bad in [
            "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"shard\",\"index\":3,\
             \"count\":3,\"base\":{\"type\":\"suite\",\"key\":\"x\"}}}",
            "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"shard\",\"index\":0,\
             \"count\":2,\"base\":{\"type\":\"shard\",\"index\":0,\"count\":2,\
             \"base\":{\"type\":\"suite\",\"key\":\"x\"}}}}",
            "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"shard\",\"index\":0,\
             \"count\":2,\"base\":{\"type\":\"ihtl-image\",\"path\":\"x.blk\"}}}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_sweep_and_degrees() {
        let hi = (1u64 << 60) + 1; // bit patterns exceed 2^53 routinely
        let r = Request::parse(&format!(
            "{{\"op\":\"sweep\",\"dataset\":\"g\",\"monoid\":\"min\",\"view\":\"sym\",\
             \"engine\":\"pull_grind\",\"xbits\":[0,{hi}]}}"
        ))
        .unwrap();
        match r.op {
            Op::Sweep { dataset, engine, monoid, view, xbits } => {
                assert_eq!(dataset, "g");
                assert_eq!(engine, EngineChoice::Fixed(EngineKind::PullGraphGrind));
                assert_eq!(monoid, Monoid::Min);
                assert_eq!(view, GraphView::Sym);
                assert_eq!(xbits, vec![0, hi], "bit patterns must be exact");
            }
            other => panic!("{other:?}"),
        }
        let r = Request::parse("{\"op\":\"degrees\",\"dataset\":\"g\"}").unwrap();
        assert_eq!(r.op, Op::Degrees { dataset: "g".into(), view: GraphView::Raw });
        for bad in [
            "{\"op\":\"sweep\",\"dataset\":\"g\",\"monoid\":\"max\",\"xbits\":[]}",
            "{\"op\":\"sweep\",\"dataset\":\"g\",\"monoid\":\"add\",\"view\":\"warp\",\
             \"xbits\":[]}",
            "{\"op\":\"sweep\",\"dataset\":\"g\",\"monoid\":\"add\",\"xbits\":[-1]}",
            "{\"op\":\"sweep\",\"dataset\":\"g\",\"monoid\":\"add\"}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn source_to_json_roundtrips() {
        let sources = [
            GraphSource::Rmat { scale: 9, edges: 4096, seed: (1u64 << 60) + 1 },
            GraphSource::Suite { key: "web".to_string() },
            GraphSource::EdgeListFile { path: "/tmp/g.txt".to_string() },
            GraphSource::GraphImage { path: "/tmp/g.ihtl".to_string() },
            GraphSource::Shard {
                index: 2,
                count: 3,
                base: Box::new(GraphSource::Rmat { scale: 8, edges: 1000, seed: 7 }),
            },
        ];
        for src in sources {
            let wire = src.to_json().to_string();
            let back = GraphSource::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(back, src, "{wire}");
        }
    }

    #[test]
    fn parses_register_rmat() {
        let r = Request::parse(
            "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"rmat\",\"scale\":10,\
             \"edges\":5000,\"seed\":3}}",
        )
        .unwrap();
        match r.op {
            Op::Register { name, source } => {
                assert_eq!(name, "g");
                assert_eq!(source, GraphSource::Rmat { scale: 10, edges: 5000, seed: 3 });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_job_with_defaults() {
        let r = Request::parse("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\"}").unwrap();
        match r.op {
            Op::Job { dataset, engine, job, timeout_ms, nocache, top_k, include_values, trace } => {
                assert_eq!(dataset, "g");
                assert_eq!(engine, EngineChoice::Fixed(EngineKind::Ihtl));
                assert_eq!(job, WireJob::Analytic(JobSpec::PageRank { iters: 20, seed: None }));
                assert_eq!(timeout_ms, None);
                assert!(!nocache);
                assert_eq!(top_k, 0);
                assert!(!include_values);
                assert!(!trace);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_traced_job_and_trace_fetch() {
        let r = Request::parse(
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"trace\":true}",
        )
        .unwrap();
        match r.op {
            Op::Job { trace, .. } => assert!(trace),
            other => panic!("{other:?}"),
        }
        let r = Request::parse("{\"op\":\"trace\",\"trace_id\":17}").unwrap();
        assert_eq!(r.op, Op::Trace { trace_id: 17 });
        assert!(Request::parse("{\"op\":\"trace\"}").is_err());
    }

    #[test]
    fn engine_names_roundtrip() {
        for kind in EngineKind::all() {
            assert_eq!(engine_from_str(engine_wire_name(kind)).unwrap(), EngineChoice::Fixed(kind));
        }
        assert_eq!(engine_from_str("auto").unwrap(), EngineChoice::Auto);
        assert_eq!(EngineChoice::Auto.wire_name(), "auto");
        assert_eq!(EngineChoice::Fixed(EngineKind::Pb).wire_name(), "pb");
        assert!(engine_from_str("gpu").is_err());
    }

    #[test]
    fn unknown_engine_error_lists_valid_names() {
        for name in ["gpu", "pull_graphit", "pull_galois", "push_grind", "push_graphit"] {
            let err = engine_from_str(name).unwrap_err();
            assert!(err.ends_with("(valid engines: ihtl, pull_grind, pb, hybrid, auto)"), "{err}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            "{\"op\":\"warp\"}",
            "{\"op\":\"register\",\"name\":\"g\"}",
            "{\"op\":\"register\",\"name\":\"\",\"source\":{\"type\":\"suite\",\"key\":\"x\"}}",
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"quantum\"}",
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"engine\":\"gpu\"}",
            "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"rmat\",\"scale\":60}}",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn canonical_job_strings_distinguish_params() {
        let a = WireJob::Analytic(JobSpec::PageRank { iters: 20, seed: None }).canonical();
        let b = WireJob::Analytic(JobSpec::PageRank { iters: 21, seed: None }).canonical();
        let c = WireJob::Compare { iters: 20 }.canonical();
        assert!(a != b && a != c && b != c);
        let d = WireJob::Analytic(JobSpec::PageRank { iters: 20, seed: Some(4) }).canonical();
        assert_ne!(a, d);
        assert!(!WireJob::Sleep { ms: 5 }.cacheable());
        assert!(WireJob::Compare { iters: 2 }.cacheable());
    }

    #[test]
    fn parses_optional_seed_and_source() {
        let r =
            Request::parse("{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"seed\":9}")
                .unwrap();
        match r.op {
            Op::Job { job, .. } => {
                assert_eq!(job, WireJob::Analytic(JobSpec::PageRank { iters: 20, seed: Some(9) }));
            }
            other => panic!("{other:?}"),
        }
        let r = Request::parse(
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"spmv\",\"iters\":3,\"source\":2}",
        )
        .unwrap();
        match r.op {
            Op::Job { job, .. } => {
                assert_eq!(job, WireJob::Analytic(JobSpec::SpmvSum { iters: 3, source: Some(2) }));
            }
            other => panic!("{other:?}"),
        }
        assert!(Request::parse(
            "{\"op\":\"job\",\"dataset\":\"g\",\"kind\":\"pagerank\",\"seed\":5000000000}",
        )
        .is_err());
    }

    #[test]
    fn rejects_oversized_rmat_edges_instead_of_clamping() {
        let big = "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"rmat\",\
                   \"scale\":10,\"edges\":2000000000}}";
        let err = Request::parse(big).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        assert!(Request::parse(
            "{\"op\":\"register\",\"name\":\"g\",\"source\":{\"type\":\"rmat\",\"scale\":10,\
             \"edges\":0}}",
        )
        .is_err());
    }
}
