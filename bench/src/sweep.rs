//! The in-process workloads, `sweep_thrash` and `sweep_resident`.
//!
//! Both drive the library through the serve tier's own `Registry` /
//! `Dataset::with_engine` (no wire, no scheduler), so a sweep here takes the
//! code path a served job takes. Three jobs are interleaved in a closed
//! loop: `PageRank{iters:10}` (Add monoid, K = 1), `Sssp` from the
//! max-out-degree vertex (Min monoid), and `run_job_multi` of eight
//! personalised `PageRank{iters:5}` (the SpMM path).
//!
//! * `sweep_thrash` — one social R-MAT whose vertex data is ≈ 13 × L2; the
//!   jobs are pinned to `ihtl`, the engine the workload exists to watch.
//! * `sweep_resident` — `er19` + `web18`, cache-resident; the jobs run on
//!   whatever `auto` picks (pull here) and metrics are edge-weighted over
//!   both graphs.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use ihtl_apps::{
    ihtl_engine_from_shared, pb_engine_from_shared, run_job, run_job_multi, EngineKind, JobSpec,
    SpmvEngine,
};
use ihtl_core::{IhtlConfig, IhtlGraph};
use ihtl_serve::proto::GraphSource;
use ihtl_serve::registry::Dataset;
use ihtl_serve::Registry;
use ihtl_store::BlockStore;
use ihtl_traversal::pb::PbGraph;
use ihtl_traversal::pull::{spmv_pull, spmv_pull_multi, spmv_pull_serial};
use ihtl_traversal::{Add, Min};

use crate::gen::{self, Generated, Input};
use crate::host::{self, Host};
use crate::metrics::Metrics;
use crate::oracle::{checksum, Class, Oracle, Tally};
use crate::schedule::DatasetView;
use crate::spans::{self, SpanNode};
use crate::stats::{median, spread};
use crate::util::{median_secs, self_hwm_kib, timed, Dirs};
use crate::{note, Outcome, RunArgs};

/// How many times the system's set-up is repeated (the median is reported).
pub const SETUP_REPS: usize = 3;
const K: usize = 8;

/// The three job classes of one dataset.
struct Jobs {
    pr: JobSpec,
    sssp: JobSpec,
    k8: Vec<JobSpec>,
}

impl Jobs {
    fn for_graph(g: &ihtl_graph::Graph) -> Jobs {
        // Highest out-degree first, ties by id: a pure function of the graph.
        let by_out = DatasetView::of("", g).by_out_degree;
        Jobs {
            pr: JobSpec::PageRank { iters: 10, seed: None },
            sssp: JobSpec::Sssp { source: by_out[0], max_rounds: 256 },
            k8: by_out[..K]
                .iter()
                .map(|&s| JobSpec::PageRank { iters: 5, seed: Some(s) })
                .collect(),
        }
    }
}

/// One dataset under test with everything a timed job needs.
struct Target<'a> {
    input: &'a Input,
    ds: Arc<Dataset>,
    engine: EngineKind,
    jobs: Jobs,
    oracle: Oracle,
    /// First checksum seen per job: later samples must repeat it bitwise.
    seen: BTreeMap<String, String>,
}

impl Target<'_> {
    fn edges(&self) -> f64 {
        self.input.n_edges() as f64
    }

    /// Holds one timed result to the oracle: the first sample of a job is
    /// compared with the pull reference, every later one with the first.
    /// `tally` is `None` during set-up's warm-up cycle, whose results are
    /// the very ones the timed run re-computes and checks.
    fn verify(&mut self, spec: &JobSpec, values: &[f64], tally: &mut Option<&mut Tally>) {
        let Some(tally) = tally.as_deref_mut() else { return };
        let key = spec.canonical();
        let sum = checksum(values);
        match self.seen.get(&key) {
            Some(first) if *first == sum => tally.pass(),
            Some(first) => tally.fail(format!(
                "{}: {key} checksum {sum} differs from its first sample {first}",
                self.input.name
            )),
            None => {
                let verdict = self.oracle.check_values(spec, Class::of_kind(self.engine), values);
                tally.record(verdict.map_err(|e| format!("{}: {e}", self.input.name)));
                self.seen.insert(key, sum);
            }
        }
    }
}

fn open_registry(store_dir: &Path) -> Result<Registry, String> {
    let store = BlockStore::open(store_dir).map_err(|e| format!("opening store: {e}"))?;
    Ok(Registry::with_store(IhtlConfig::default(), Some(Arc::new(store)), None))
}

/// A registered dataset with its first job's result.
type FirstReply = (Arc<Dataset>, Vec<f64>);

/// Registers every input and runs the first `ihtl` job on each — the calls
/// whose client time `cold_first_reply_s` (empty store) and
/// `reboot_first_reply_s` (populated store) sum.
fn register_and_first_job(reg: &Registry, inputs: &[Input]) -> Result<Vec<FirstReply>, String> {
    let first = JobSpec::PageRank { iters: 10, seed: None };
    inputs
        .iter()
        .map(|input| {
            let source = GraphSource::GraphImage { path: input.image.display().to_string() };
            let ds = reg.register(&input.name, &source)?;
            let out =
                ds.with_engine(EngineKind::Ihtl, false, reg, |e| run_job(e, None, &first))??;
            Ok((ds, out.values))
        })
        .collect()
}

/// What the closed-loop cycles measured. One cycle is one pass over the
/// three job classes on every target.
#[derive(Default)]
struct Cycle {
    /// ns per edge (per query for K8), one sample per completed cycle.
    pr: Vec<f64>,
    sssp: Vec<f64>,
    k8: Vec<f64>,
    /// Seconds spent inside jobs, one sample per completed cycle.
    cycle_s: Vec<f64>,
    job_ms: Vec<f64>,
    jobs_done: u64,
    sssp_rounds: usize,
}

impl Cycle {
    /// Jobs per second of job time, from the median cycle (a
    /// `run_job_multi` of eight counts as eight jobs).
    fn capacity_jobs_per_s(&self) -> f64 {
        let per_cycle = self.jobs_done as f64 / self.cycle_s.len().max(1) as f64;
        per_cycle / median(&self.cycle_s)
    }
}

/// The two single-query job classes of a cycle.
#[derive(Clone, Copy, PartialEq)]
enum Solo {
    PageRank,
    Sssp,
}

/// Per-job hook of the traced run: wraps the call into a layer function in
/// the ledger's own spans and collects what the crates emitted underneath.
type JobHook<'h> = &'h mut dyn FnMut(&mut dyn FnMut() -> f64) -> f64;

fn run_cycle(
    targets: &mut [Target],
    reg: &Registry,
    cyc: &mut Cycle,
    mut tally: Option<&mut Tally>,
    hook: JobHook,
) -> Result<(), String> {
    let tally = &mut tally;
    // PageRank (Add, K = 1), then SSSP (the Min-monoid path, divided by the
    // rounds it executed): one solo job per target each.
    let mut busy = 0.0;
    for class in [Solo::PageRank, Solo::Sssp] {
        let (mut secs, mut work) = (0.0, 0.0);
        for t in targets.iter_mut() {
            let spec = match class {
                Solo::PageRank => t.jobs.pr.clone(),
                Solo::Sssp => t.jobs.sssp.clone(),
            };
            let mut out = None;
            let s = hook(&mut || {
                let (s, r) =
                    timed(|| t.ds.with_engine(t.engine, false, reg, |e| run_job(e, None, &spec)));
                out = Some(r);
                s
            });
            let out = out.expect("hook ran the job")??;
            secs += s;
            work += t.edges() * out.rounds as f64;
            cyc.job_ms.push(s * 1e3);
            if class == Solo::Sssp {
                cyc.sssp_rounds = cyc.sssp_rounds.max(out.rounds);
            }
            t.verify(&spec, &out.values, tally);
        }
        match class {
            Solo::PageRank => cyc.pr.push(secs * 1e9 / work),
            Solo::Sssp => cyc.sssp.push(secs * 1e9 / work),
        }
        busy += secs;
        cyc.jobs_done += targets.len() as u64;
    }

    // Eight personalised PageRanks in one SpMM sweep.
    let (mut secs, mut work) = (0.0, 0.0);
    for t in targets.iter_mut() {
        let specs = t.jobs.k8.clone();
        let mut outs = None;
        let s = hook(&mut || {
            let (s, r) =
                timed(|| t.ds.with_engine(t.engine, false, reg, |e| run_job_multi(e, &specs)));
            outs = Some(r);
            s
        });
        let outs = outs.expect("hook ran the job")?;
        secs += s;
        cyc.job_ms.push(s * 1e3);
        for (spec, out) in specs.iter().zip(outs) {
            let out = out?;
            work += t.edges() * out.rounds as f64;
            t.verify(spec, &out.values, tally);
        }
    }
    cyc.k8.push(secs * 1e9 / work);
    cyc.cycle_s.push(busy + secs);
    cyc.jobs_done += (targets.len() * K) as u64;
    Ok(())
}

/// Result of the repeated set-up.
struct SetUp<'a> {
    reg: Registry,
    targets: Vec<Target<'a>>,
    setup_s: f64,
    cold_s: f64,
    reboot_s: f64,
}

/// Runs the system's set-up `reps` times — empty store: register + first
/// `ihtl` job (cold); fresh registry on the populated store: the same calls
/// (reboot); one warm-up cycle — and keeps the last repetition's registry
/// for the timed run.
fn set_up<'a>(
    inputs: &'a [Input],
    dirs: &Dirs,
    thrash: bool,
    reps: usize,
    tally: &mut Tally,
) -> Result<SetUp<'a>, String> {
    let (mut setups, mut colds, mut reboots) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept = None;
    for rep in 0..reps {
        let store_dir = dirs.fresh("store").map_err(|e| format!("wiping store: {e}"))?;
        let t0 = Instant::now();
        let cold_results = {
            let reg = open_registry(&store_dir)?;
            register_and_first_job(&reg, inputs)?
        };
        let cold_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let reg = open_registry(&store_dir)?;
        let reboot_results = register_and_first_job(&reg, inputs)?;
        let reboot_s = t1.elapsed().as_secs_f64();

        let mut targets: Vec<Target> = Vec::new();
        for (input, (ds, _)) in inputs.iter().zip(&reboot_results) {
            let engine = if thrash { EngineKind::Ihtl } else { ds.auto_engine(false, reg.cfg())? };
            targets.push(Target {
                input,
                ds: Arc::clone(ds),
                engine,
                jobs: Jobs::for_graph(&input.graph),
                oracle: Oracle::new(Arc::clone(&input.graph)),
                seen: BTreeMap::new(),
            });
        }
        run_cycle(&mut targets, &reg, &mut Cycle::default(), None, &mut |job| job())?;
        let setup_s = t0.elapsed().as_secs_f64();
        note!("set-up {rep}: {setup_s:.3}s (cold {cold_s:.3}s, reboot {reboot_s:.3}s)");
        setups.push(setup_s);
        colds.push(cold_s);
        reboots.push(reboot_s);

        if rep + 1 == reps {
            // The first replies are timed results too: hold them (and the
            // warm-up's) to the oracle once, outside every timed section.
            let first = JobSpec::PageRank { iters: 10, seed: None };
            for (t, ((_, cold), (_, reboot))) in
                targets.iter_mut().zip(cold_results.iter().zip(&reboot_results))
            {
                for values in [cold, reboot] {
                    let verdict = t.oracle.check_values(&first, Class::Ihtl, values);
                    tally.record(verdict.map_err(|e| format!("{} first reply: {e}", t.input.name)));
                }
            }
            kept = Some((reg, targets));
        }
    }
    let (reg, targets) = kept.expect("at least one set-up repetition");
    Ok(SetUp {
        reg,
        targets,
        setup_s: median(&setups),
        cold_s: median(&colds),
        reboot_s: median(&reboots),
    })
}

fn generate(thrash: bool, seed: u64, dirs: &Dirs) -> Result<Generated, String> {
    let (secs, mut generated) =
        timed(|| if thrash { gen::sweep_thrash(seed) } else { gen::sweep_resident(seed) });
    let data = dirs.fresh("data").map_err(|e| format!("creating data dir: {e}"))?;
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
    note!("inputs generated in {secs:.2}s");
    Ok(generated)
}

/// Computes every job's pull reference before the measured window opens,
/// so the window is spent measuring.
fn prime_oracles(set: &mut SetUp) -> Result<(), String> {
    for t in &mut set.targets {
        t.oracle.prime(&t.jobs.k8);
        for spec in [&t.jobs.pr, &t.jobs.sssp] {
            t.oracle.reference(spec)?;
        }
    }
    Ok(())
}

/// Runs closed-loop cycles for `seconds` (at least three cycles).
fn timed_run(
    set: &mut SetUp,
    seconds: f64,
    tally: &mut Tally,
    hook: JobHook,
) -> Result<Cycle, String> {
    let mut cyc = Cycle::default();
    let start = Instant::now();
    while cyc.pr.len() < 3 || start.elapsed().as_secs_f64() < seconds {
        run_cycle(&mut set.targets, &set.reg, &mut cyc, Some(tally), hook)?;
    }
    Ok(cyc)
}

pub fn run(args: &RunArgs, thrash: bool) -> Result<Outcome, String> {
    let dirs = Dirs::prepare(&args.out, &args.workload)?;
    let generated = generate(thrash, args.seed, &dirs)?;
    let mut tally = Tally::default();
    let mut m = Metrics::default();

    if !args.trace {
        let mut set = set_up(&generated.inputs, &dirs, thrash, SETUP_REPS, &mut tally)?;
        prime_oracles(&mut set)?;
        let cyc = timed_run(&mut set, args.seconds, &mut tally, &mut |job| job())?;
        note!(
            "{} cycles: pr spread {:.3}, sssp spread {:.3}, k8 spread {:.3}",
            cyc.pr.len(),
            spread(&cyc.pr),
            spread(&cyc.sssp),
            spread(&cyc.k8)
        );
        m.set("setup_s", set.setup_s);
        m.set("cold_first_reply_s", set.cold_s);
        m.set("reboot_first_reply_s", set.reboot_s);
        m.set("pagerank_ns_per_edge", median(&cyc.pr));
        m.set("sssp_ns_per_edge", median(&cyc.sssp));
        m.set("pagerank_k8_ns_per_edge_query", median(&cyc.k8));
        m.set("capacity_jobs_per_s", cyc.capacity_jobs_per_s());
        m.set("peak_rss_mb", self_hwm_kib() as f64 / 1024.0);
        return Ok(Outcome { metrics: m, tally });
    }

    // --- Traced run: per-layer numbers. ---
    m.set("gen.rmat_edges_per_s", generated.rmat_edges_per_s);
    m.set("graph.from_edges_s", generated.from_edges_s);
    let host = host::measure();
    host.record(&mut m);
    note!(
        "host: stream {:.4} ns/B, gather {:.2} ns/access at width {}",
        host.stream_ns_per_byte,
        host.gather_ns_per_access,
        host.threads
    );
    let (sym_s, _) = timed(|| {
        generated
            .inputs
            .iter()
            .map(|i| ihtl_apps::components::symmetrize(&i.graph).n_edges())
            .sum::<usize>()
    });
    m.set("graph.symmetrize_s", sym_s);
    parallel_layer(&mut m);
    let build_s = kernel_layers(&generated.inputs, &host, &mut m);

    let mut set = set_up(&generated.inputs, &dirs, thrash, 1, &mut tally)?;
    prime_oracles(&mut set)?;
    store_layer(&generated.inputs, &dirs, &set, build_s, &mut m)?;
    apps_layer(&mut set, &mut m)?;

    // The traced-vs-untraced pair: same inputs, same loop, half the window
    // each, so `trace.overhead_pct` is a measured difference.
    let untraced = timed_run(&mut set, args.seconds / 2.0, &mut tally, &mut |job| job())?;
    let mut tracer = Tracer::default();
    let traced = {
        let _on = ihtl_trace::enable();
        timed_run(&mut set, args.seconds / 2.0, &mut tally, &mut |job| tracer.traced_job(job))?
    };
    let base = median(&untraced.pr);
    let overhead = (median(&traced.pr) / base - 1.0) * 100.0;
    if overhead < 0.0 {
        note!(
            "trace.overhead_pct unresolved: measured {overhead:.2}% against an untraced spread of \
             {:.2}%; reported as 0, never as a saving",
            spread(&untraced.pr) * 100.0
        );
    }
    m.set("trace.overhead_pct", overhead.max(0.0));
    tracer.finish(&dirs, &args.workload, &mut m)?;

    m.set("apps.sssp_rounds", untraced.sssp_rounds as f64);
    m.set("job_p50_ms", median(&untraced.job_ms));
    m.set("client.sent", (untraced.jobs_done + traced.jobs_done) as f64);
    m.set("client.ok", (untraced.jobs_done + traced.jobs_done) as f64);
    m.set("client.samples", (untraced.pr.len() + traced.pr.len()) as f64);
    m.set("client.failed", tally.failed as f64);
    m.set("failed_frac", tally.failed as f64 / tally.attempted.max(1) as f64);
    Ok(Outcome { metrics: m, tally })
}

// ---------------------------------------------------------------------------
// Per-layer measurements
// ---------------------------------------------------------------------------

fn parallel_layer(m: &mut Metrics) {
    let chunks = ihtl_parallel::num_threads() * 4;
    let reps = 2000;
    let secs = median_secs(5, || {
        for _ in 0..reps {
            ihtl_parallel::par_for_chunks(0..chunks, 1, |r| {
                std::hint::black_box(r.start);
            });
        }
    });
    m.set("parallel.region_launch_us", secs * 1e6 / reps as f64);
}

/// Seconds `f` takes per call: median of five, after a warm-up call.
fn sweep_secs(f: impl FnMut()) -> f64 {
    median_secs(5, f)
}

/// Times the bare edge sweeps of every engine family (no driver, no
/// permutation) by calling the layers' public functions directly. Returns
/// the summed `IhtlGraph::build` seconds (the base of `store.load_x_build`).
fn kernel_layers(inputs: &[Input], host: &Host, m: &mut Metrics) -> f64 {
    let cfg = IhtlConfig::default();
    let mut t: BTreeMap<&str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *t.entry(k).or_default() += v;
    let (mut edges, mut n_blocks, mut n_hubs, mut fb_edges, mut topo) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut pull_floor, mut ihtl_floor) = (0.0, 0.0);
    let mut phase_ns: BTreeMap<String, u64> = BTreeMap::new();

    for input in inputs {
        let g = &*input.graph;
        let n = g.n_vertices();
        edges += g.n_edges() as f64;
        let x = vec![1.0f64; n];
        let mut y = vec![0.0f64; n];
        let xk = vec![1.0f64; n * K];
        let mut yk = vec![0.0f64; n * K];

        add("pull_serial", sweep_secs(|| spmv_pull_serial::<Add>(g, &x, &mut y)));
        add("pull", sweep_secs(|| spmv_pull::<Add>(g, &x, &mut y)));
        add("pull_min", sweep_secs(|| spmv_pull::<Min>(g, &x, &mut y)));
        add("pull_k8", median_secs(3, || spmv_pull_multi::<Add>(g, &xk, &mut yk, K)));
        // Pull streams the CSC and the output once and gathers one source
        // value per edge.
        pull_floor += host.floor_secs(g.csc().topology_bytes() + 8 * n as u64, g.n_edges() as u64);

        let (pb_build, pb) =
            timed(|| PbGraph::new(g, cfg.cache_budget_bytes, cfg.vertex_data_bytes));
        add("pb_build", pb_build);
        let degs: Vec<u32> = (0..n as u32).map(|v| g.out_degree(v) as u32).collect();
        let mut pb_engine = pb_engine_from_shared(Arc::new(pb), degs);
        add("pb", sweep_secs(|| pb_engine.spmv_add(&x, &mut y)));
        add("pb_k8", median_secs(3, || pb_engine.spmm_add(&xk, &mut yk, K)));
        phase_ns_of(&mut phase_ns, || pb_engine.spmv_add(&x, &mut y));
        drop(pb_engine);

        let (build_s, ih) = timed(|| IhtlGraph::build(g, &cfg));
        add("ih_build", build_s);
        let ih = Arc::new(ih);
        n_blocks += ih.n_blocks() as f64;
        n_hubs += ih.n_hubs() as f64;
        fb_edges += ih.stats().fb_edges as f64;
        topo += ih.topology_bytes() as f64;
        // iHTL streams its own topology and the output; only the sparse
        // block's edges gather from outside the L2-resident hub buffers.
        ihtl_floor +=
            host.floor_secs(ih.topology_bytes() + 8 * n as u64, ih.stats().sparse_edges as u64);
        let mut ihtl = ihtl_engine_from_shared(Arc::clone(&ih));
        add("ihtl", sweep_secs(|| ihtl.spmv_add(&x, &mut y)));
        add("ihtl_min", sweep_secs(|| ihtl.spmv_min(&x, &mut y)));
        add("ihtl_k8", median_secs(3, || ihtl.spmm_add(&xk, &mut yk, K)));
        phase_ns_of(&mut phase_ns, || ihtl.spmv_add(&x, &mut y));
        drop(ihtl);
        let mut hybrid = ihtl_apps::engine::hybrid_engine_from_shared(ih);
        add("hybrid", sweep_secs(|| hybrid.spmv_add(&x, &mut y)));
    }

    let per_edge = |k: &str| t[k] * 1e9 / edges;
    m.set("traversal.pull_serial_ns_per_edge", per_edge("pull_serial"));
    m.set("traversal.pull_ns_per_edge", per_edge("pull"));
    m.set("traversal.pull_min_ns_per_edge", per_edge("pull_min"));
    m.set("traversal.pull_k8_ns_per_edge_query", per_edge("pull_k8") / K as f64);
    m.set("traversal.pull_x_floor", t["pull"] / pull_floor);
    m.set("parallel.pull_speedup_2t", t["pull_serial"] / t["pull"]);
    m.set("traversal.pb_build_s", t["pb_build"]);
    m.set("traversal.pb_ns_per_edge", per_edge("pb"));
    m.set("traversal.pb_k8_ns_per_edge_query", per_edge("pb_k8") / K as f64);
    m.set("traversal.pb_x_pull", t["pb"] / t["pull"]);
    m.set("core.build_s", t["ih_build"]);
    m.set("core.build_edges_per_s", edges / t["ih_build"]);
    m.set("core.n_blocks", n_blocks);
    m.set("core.n_hubs", n_hubs);
    m.set("core.fb_edge_frac", fb_edges / edges);
    m.set("core.topology_bytes", topo);
    m.set("core.ihtl_ns_per_edge", per_edge("ihtl"));
    m.set("core.ihtl_min_ns_per_edge", per_edge("ihtl_min"));
    m.set("core.ihtl_k8_ns_per_edge_query", per_edge("ihtl_k8") / K as f64);
    m.set("core.ihtl_x_pull", t["ihtl"] / t["pull"]);
    m.set("core.ihtl_x_floor", t["ihtl"] / ihtl_floor);
    m.set("core.hybrid_ns_per_edge", per_edge("hybrid"));
    m.set("core.hybrid_x_pull", t["hybrid"] / t["pull"]);
    // Sweeps after which the build has paid for itself; never = -1.
    let saved = t["pull"] - t["ihtl"];
    m.set("core.break_even_sweeps", if saved > 0.0 { t["ih_build"] / saved } else { -1.0 });

    // Phase shares: wall time of each existing phase span over the wall
    // time of its enclosing sweep span (phases run back to back).
    let share = |phase: &str, whole: &str| {
        let whole = phase_ns.get(whole).copied().unwrap_or(0);
        if whole == 0 {
            0.0
        } else {
            phase_ns.get(phase).copied().unwrap_or(0) as f64 / whole as f64
        }
    };
    m.set("traversal.pb_bin_frac", share("pb_spmv/pb_bin", "pb_spmv"));
    m.set("traversal.pb_merge_frac", share("pb_spmv/pb_merge", "pb_spmv"));
    m.set("core.fb_push_frac", share("ihtl_spmv/fb_push", "ihtl_spmv"));
    m.set("core.fb_merge_frac", share("ihtl_spmv/fb_merge", "ihtl_spmv"));
    m.set("core.sparse_pull_frac", share("ihtl_spmv/sparse_pull", "ihtl_spmv"));
    t["ih_build"]
}

/// Runs `sweep` three times with tracing on and adds, per span name, the
/// wall time the calling thread's spans recorded: top-level sweep spans
/// under their own name, their direct children as `parent/child`.
fn phase_ns_of(acc: &mut BTreeMap<String, u64>, mut sweep: impl FnMut()) {
    let _on = ihtl_trace::enable();
    let mark = ihtl_trace::mark();
    for _ in 0..3 {
        sweep();
    }
    let spans = mark.collect().local.spans;
    for s in &spans {
        if s.parent == 0 {
            *acc.entry(s.name.to_string()).or_default() += s.dur_ns();
        } else if let Some(p) = spans.iter().find(|p| p.id == s.parent && p.parent == 0) {
            *acc.entry(format!("{}/{}", p.name, s.name)).or_default() += s.dur_ns();
        }
    }
}

/// `store.*`: a save and a load of the largest input's iHTL image through
/// `BlockStore`, plus the counters of the store the set-up just used.
fn store_layer(
    inputs: &[Input],
    dirs: &Dirs,
    set: &SetUp,
    build_s: f64,
    m: &mut Metrics,
) -> Result<(), String> {
    let cfg = IhtlConfig::default();
    let (mut save_s, mut load_s, mut bytes) = (0.0, 0.0, 0u64);
    let dir = dirs.fresh("store-probe").map_err(|e| format!("store probe dir: {e}"))?;
    let store = BlockStore::open(&dir).map_err(|e| format!("store probe: {e}"))?;
    for input in inputs {
        let ih = IhtlGraph::build(&input.graph, &cfg);
        let (s, saved) = timed(|| store.save_ihtl(input.content_hash, &cfg, &ih));
        saved.map_err(|e| format!("save_ihtl: {e}"))?;
        save_s += s;
        let loads: Vec<f64> = (0..3)
            .map(|_| {
                let (s, loaded) = timed(|| store.load_ihtl(input.content_hash, &cfg));
                assert!(loaded.is_some(), "store lost the image it just saved");
                s
            })
            .collect();
        load_s += median(&loads);
    }
    for entry in std::fs::read_dir(dir.join("ihtl")).map_err(|e| format!("store probe: {e}"))? {
        bytes += entry.and_then(|e| e.metadata()).map(|md| md.len()).unwrap_or(0);
    }
    m.set("store.save_ihtl_s", save_s);
    m.set("store.load_ihtl_s", load_s);
    m.set("store.load_mb_per_s", bytes as f64 / (1 << 20) as f64 / load_s);
    m.set("store.load_x_build", load_s / build_s);
    let c = set.reg.store_counters();
    m.set("store.hits", c.hits as f64);
    m.set("store.misses", c.misses as f64);
    m.set("store.writes", c.writes as f64);
    m.set("store.quarantined", c.quarantined as f64);
    Ok(())
}

/// `apps.*`: what the drivers add on top of the bare sweeps.
fn apps_layer(set: &mut SetUp, m: &mut Metrics) -> Result<(), String> {
    let reg = &set.reg;
    // PageRank{10} through `run_job` on each of the four engine families,
    // summed over the workload's graphs.
    let families =
        [EngineKind::PullGraphGrind, EngineKind::Ihtl, EngineKind::Pb, EngineKind::Hybrid];
    let pr = JobSpec::PageRank { iters: 10, seed: None };
    let mut job_s: BTreeMap<usize, f64> = BTreeMap::new();
    let (mut auto_s, mut target_s, mut permute_s, mut bare_s) = (0.0, 0.0, 0.0, 0.0);
    let (mut solo_s, mut multi_s) = (0.0, 0.0);
    for t in set.targets.iter() {
        let auto = t.ds.auto_engine(false, reg.cfg())?;
        for (i, &kind) in families.iter().enumerate() {
            let s = median_secs(3, || {
                let _ = t.ds.with_engine(kind, false, reg, |e| run_job(e, None, &pr));
            });
            *job_s.entry(i).or_default() += s;
            if kind == auto {
                auto_s += s;
            }
            if kind == t.engine {
                target_s += s;
            }
        }
        let n = t.input.graph.n_vertices();
        let v = vec![1.0f64; n];
        t.ds.with_engine(t.engine, false, reg, |e| {
            permute_s += median_secs(3, || {
                std::hint::black_box(e.to_original_order(&e.from_original_order(&v)));
            });
            let mut y = vec![0.0f64; n];
            bare_s += sweep_secs(|| e.spmv_add(&v, &mut y));
        })?;
        let one = t.jobs.k8[0].clone();
        solo_s += median_secs(3, || {
            let _ = t.ds.with_engine(t.engine, false, reg, |e| run_job(e, None, &one));
        });
        let all = t.jobs.k8.clone();
        multi_s += median_secs(3, || {
            let _ = t.ds.with_engine(t.engine, false, reg, |e| run_job_multi(e, &all));
        });
    }
    let best = job_s.values().copied().fold(f64::INFINITY, f64::min);
    m.set("apps.auto_gap_pct", (auto_s / best - 1.0) * 100.0);
    m.set("apps.driver_overhead_frac", 1.0 - 10.0 * bare_s / target_s);
    m.set("apps.permute_frac", permute_s / target_s);
    m.set("apps.k8_amortization_x", solo_s / (multi_s / K as f64));
    note!(
        "PageRank{{10}} seconds by family [pull, ihtl, pb, hybrid]: {:?}",
        job_s.values().collect::<Vec<_>>()
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Collects the span trees of the traced run in memory; one Chrome trace
/// file is written at the end.
#[derive(Default)]
pub struct Tracer {
    threads: BTreeMap<u64, ihtl_trace::ThreadTrace>,
    jobs: u64,
    spans: u64,
    coverage: Vec<f64>,
    /// |Σ self times − measured latency| ÷ latency, per job.
    sum_gap: Vec<f64>,
    by_name_ns: BTreeMap<String, u64>,
}

/// Spans kept for the Chrome file; beyond it only the counts grow.
const MAX_KEPT_SPANS: u64 = 400_000;

impl Tracer {
    /// Runs one job under the ledger's own root span with tracing on, then
    /// collects that job's window: the ledger's spans, the spans the crates
    /// emitted beneath them, and the pool workers' spans inside the window.
    pub fn traced_job(&mut self, job: &mut dyn FnMut() -> f64) -> f64 {
        let mark = ihtl_trace::mark();
        let root = ihtl_trace::span("ledger_job");
        let root_id = root.id();
        let secs = {
            let _call = ihtl_trace::span("ledger_with_engine");
            job()
        };
        drop(root);
        let cap = mark.collect();
        self.absorb(cap, root_id, secs);
        secs
    }

    /// Folds one in-process job's capture into the totals.
    pub fn absorb(&mut self, cap: ihtl_trace::Capture, root_id: u64, job_secs: f64) {
        self.account(&spans::from_trace(&cap.local.spans), root_id, job_secs);
        self.keep(cap);
    }

    /// Counts one job's capture and keeps its spans for the Chrome file.
    pub fn keep(&mut self, cap: ihtl_trace::Capture) {
        self.jobs += 1;
        self.spans += (cap.local.spans.len()
            + cap.remote.iter().map(|t| t.spans.len()).sum::<usize>()) as u64;
        for t in std::iter::once(cap.local).chain(cap.remote) {
            if self.kept() >= MAX_KEPT_SPANS {
                break;
            }
            let slot = self.threads.entry(t.serial).or_insert_with(|| ihtl_trace::ThreadTrace {
                label: t.label.clone(),
                serial: t.serial,
                spans: Vec::new(),
                dropped: 0,
            });
            slot.spans.extend(t.spans);
            slot.dropped += t.dropped;
        }
    }

    fn kept(&self) -> u64 {
        self.threads.values().map(|t| t.spans.len() as u64).sum()
    }

    /// Coverage, the self-time sum check and per-name self times of one
    /// job's tree (any process's spans, already in one clock).
    pub fn account(&mut self, tree: &[SpanNode], root_id: u64, job_secs: f64) {
        self.coverage.push(spans::coverage_frac(tree, root_id));
        let sum = spans::tree_self_sum(tree, root_id) as f64 * 1e-9;
        if job_secs > 0.0 {
            self.sum_gap.push((sum - job_secs).abs() / job_secs);
        }
        let selfs = spans::self_times(tree);
        for s in tree {
            *self.by_name_ns.entry(s.name.clone()).or_default() += selfs[&s.id];
        }
    }

    /// Adds spans recorded by another process (already re-based onto the
    /// ledger's clock) as their own track of the Chrome file.
    pub fn keep_foreign(&mut self, serial: u64, label: &str, spans: Vec<ihtl_trace::SpanInfo>) {
        self.spans += spans.len() as u64;
        if self.kept() >= MAX_KEPT_SPANS {
            return;
        }
        let slot = self.threads.entry(serial).or_insert_with(|| ihtl_trace::ThreadTrace {
            label: label.to_string(),
            serial,
            spans: Vec::new(),
            dropped: 0,
        });
        slot.spans.extend(spans);
    }

    /// Writes `<out>/<workload>.trace.json` and the `trace.*` metrics.
    pub fn finish(self, dirs: &Dirs, workload: &str, m: &mut Metrics) -> Result<(), String> {
        let threads: Vec<ihtl_trace::ThreadTrace> = self.threads.into_values().collect();
        let path = dirs.out.join(format!("{workload}.trace.json"));
        std::fs::write(&path, ihtl_trace::chrome::export(&threads))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        let coverage = median(&self.coverage);
        let gap = median(&self.sum_gap);
        m.set("trace.spans_per_job", self.spans as f64 / self.jobs.max(1) as f64);
        m.set("trace.coverage_frac", coverage);
        let mut top: Vec<(&String, &u64)> = self.by_name_ns.iter().collect();
        top.sort_by_key(|(_, ns)| std::cmp::Reverse(**ns));
        let top: Vec<String> =
            top.iter().take(8).map(|(n, ns)| format!("{n} {:.1}ms", **ns as f64 / 1e6)).collect();
        note!(
            "trace: {} jobs, {} spans, coverage {coverage:.3}, |Σself − latency|/latency {gap:.4} \
             (allowed {:.4}); self time by layer: {}",
            self.jobs,
            self.spans,
            1.0 - coverage,
            top.join(", ")
        );
        note!("trace written to {}", path.display());
        if gap > (1.0 - coverage).max(0.02) {
            return Err(format!(
                "per-layer self times miss the job latency by {gap:.4}, more than 1 − coverage"
            ));
        }
        Ok(())
    }
}
