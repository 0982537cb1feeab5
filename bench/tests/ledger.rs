//! Tests of the ledger's own arithmetic: the numbers it prints are only as
//! good as its percentiles, its span accounting, its schedules and its
//! metric vocabulary.

use ihtl_apps::JobSpec;
use ihtl_serve::Json;
use ledger::compare::{judge, Verdict};
use ledger::metrics::{Decl, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use ledger::schedule::{open_loop, schedule_hash, DatasetView, Mix, Stream, BLOCK};
use ledger::spans::{coverage_frac, self_times, tree_self_sum, SpanNode};
use ledger::stats::{quartiles, spread, tail_percentile};

// --- tail-percentile rule ---------------------------------------------------

#[test]
fn tail_percentile_needs_ten_samples_beyond_it() {
    let v: Vec<f64> = (1..=199).map(f64::from).collect();
    // p95 of 199 samples leaves 9 beyond it: not reportable.
    assert_eq!(tail_percentile(&v, 0.95), None);
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    // 200 samples leave exactly 10 beyond p95.
    assert_eq!(tail_percentile(&v, 0.95), Some(190.0));
    // p99 needs a thousand.
    assert_eq!(tail_percentile(&v, 0.99), None);
    let v: Vec<f64> = (1..=1000).map(f64::from).collect();
    assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
    // The median of twenty samples has ten beyond it.
    let v: Vec<f64> = (1..=20).map(f64::from).collect();
    assert_eq!(tail_percentile(&v, 0.5), Some(10.0));
    assert_eq!(tail_percentile(&v[..19], 0.5), None);
}

#[test]
fn spread_is_iqr_over_median() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let (q1, m, q3) = quartiles(&v);
    // Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    assert_eq!((q1, m, q3), (2.75, 5.5, 8.25));
    // ... and statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0].
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    assert!((spread(&v) - 1.0).abs() < 1e-12);
    assert_eq!(spread(&[4.0, 4.0, 4.0, 4.0]), 0.0);
}

// --- span self time ---------------------------------------------------------

fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> SpanNode {
    SpanNode { id, parent, name: name.to_string(), start_ns, end_ns }
}

#[test]
fn self_time_subtracts_the_union_of_overlapping_children() {
    let spans = vec![
        span(1, 0, "job", 0, 100),
        // Two children overlap on [30, 40): together they cover [10, 60).
        span(2, 1, "a", 10, 40),
        span(3, 1, "b", 30, 60),
        // A child that sticks out past its parent is clipped to it.
        span(4, 1, "c", 90, 130),
        // A grandchild only reduces its own parent's self time.
        span(5, 2, "a1", 10, 25),
    ];
    let selfs = self_times(&spans);
    assert_eq!(selfs[&1], 100 - 50 - 10, "root: 100 minus [10,60) minus [90,100)");
    assert_eq!(selfs[&2], 30 - 15);
    assert_eq!(selfs[&3], 30);
    assert_eq!(selfs[&5], 15);
    assert!((coverage_frac(&spans, 1) - 0.6).abs() < 1e-12);
    // Overlap and overhang make the self times sum to something other than
    // the root's duration; the ledger reports that gap instead of hiding it.
    assert_eq!(tree_self_sum(&spans, 1), 40 + 15 + 30 + 40 + 15);
}

#[test]
fn nested_tree_self_times_sum_to_the_root_duration() {
    let spans = vec![
        span(1, 0, "job", 0, 1000),
        span(2, 1, "checkout", 0, 100),
        span(3, 1, "pagerank", 100, 990),
        span(4, 3, "sweep", 110, 500),
        span(5, 3, "sweep", 500, 980),
    ];
    assert_eq!(tree_self_sum(&spans, 1), 1000);
    assert_eq!(self_times(&spans)[&3], 890 - 870);
}

// --- schedules --------------------------------------------------------------

fn views() -> Vec<DatasetView> {
    (0..6)
        .map(|d| DatasetView {
            name: format!("d{d}"),
            by_out_degree: (0..4096u32).map(|v| v * 7 + d).collect(),
        })
        .collect()
}

#[test]
fn same_seed_same_schedule_other_seed_other_schedule() {
    let v = views();
    let a = open_loop(7, "hi", Mix::Serve, &v, 500.0, 2.0, 2);
    let b = open_loop(7, "hi", Mix::Serve, &v, 500.0, 2.0, 2);
    assert!(a.len() > 800, "≈ 1000 arrivals expected, got {}", a.len());
    assert_eq!(a, b, "same seed must give a byte-identical schedule");
    assert_eq!(schedule_hash(&a), schedule_hash(&b));
    let c = open_loop(8, "hi", Mix::Serve, &v, 500.0, 2.0, 2);
    assert_ne!(schedule_hash(&a), schedule_hash(&c), "another seed, another schedule");
    // Due times ascend and the connections alternate.
    assert!(a.windows(2).all(|w| w[0].due_ns <= w[1].due_ns));
    assert!(a.iter().enumerate().all(|(i, r)| r.conn == i % 2));
    // Every line is a request the server's own parser accepts.
    for r in a.iter().take(200) {
        ihtl_serve::proto::Request::parse(&r.line).unwrap_or_else(|e| panic!("{}: {e}", r.line));
    }
}

#[test]
fn the_mixes_have_their_stated_proportions() {
    let v = views();
    // The serve mix is dealt in blocks that hold every share exactly.
    let mut stream = Stream::new(3, "mix", Mix::Serve, &v);
    let n = 10 * BLOCK;
    let (mut spmv, mut pagerank, mut seeded, mut sssp, mut auto, mut pb) = (0, 0, 0, 0, 0, 0);
    let mut per_dataset = [0usize; 6];
    for _ in 0..n {
        let r = stream.draw();
        match &r.spec {
            JobSpec::SpmvSum { iters: 2, source: None } => spmv += 1,
            JobSpec::PageRank { iters: 5, seed } => {
                pagerank += 1;
                seeded += usize::from(seed.is_some());
            }
            JobSpec::Sssp { .. } => sssp += 1,
            other => panic!("unexpected job {other:?}"),
        }
        auto += usize::from(r.engine == "auto");
        pb += usize::from(r.engine == "pb");
        per_dataset[r.dataset] += 1;
    }
    assert_eq!((spmv, pagerank, seeded, sssp), (n / 2, n * 3 / 10, n * 3 / 20, n / 5));
    assert_eq!((auto, pb), (n / 2, n * 3 / 20));
    // Zipf(6, 1.0) shares of 120, largest remainders first.
    assert_eq!(per_dataset, [490, 250, 160, 120, 100, 80]);
    // The router mix is dealt exactly 40/40/20 with alternating engines.
    let mut stream = Stream::new(3, "mix", Mix::Router, &v[..1]);
    let kinds: Vec<&str> = (0..10).map(|_| stream.draw().spec.name()).collect();
    assert_eq!(kinds.iter().filter(|k| **k == "spmv").count(), 4);
    assert_eq!(kinds.iter().filter(|k| **k == "pagerank").count(), 4);
    assert_eq!(kinds.iter().filter(|k| **k == "sssp").count(), 2);
}

#[test]
fn every_seed_deals_the_same_block_in_another_order() {
    let v = views();
    // What a request asks for, without the vertex the seed picked for it.
    let block = |seed: u64| -> Vec<(usize, &'static str, &'static str, bool)> {
        let mut stream = Stream::new(seed, "cap-0", Mix::Serve, &v);
        (0..BLOCK)
            .map(|_| {
                let r = stream.draw();
                let personalised = matches!(r.spec, JobSpec::PageRank { seed: Some(_), .. });
                (r.dataset, r.spec.name(), r.engine, personalised)
            })
            .collect()
    };
    let (a, b) = (block(1), block(2));
    assert_ne!(a, b, "another seed, another order");
    let sorted = |mut x: Vec<_>| {
        x.sort();
        x
    };
    assert_eq!(sorted(a), sorted(b), "every seed is asked for the same work");
}

// --- metric vocabulary --------------------------------------------------------

fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

#[test]
fn metric_names_and_units_are_well_formed_and_unique() {
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(d.name), "bad metric name '{}'", d.name);
        assert!(valid_unit(d.unit), "bad unit '{}' on {}", d.unit, d.name);
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
        assert!(seen.insert(d.name), "metric '{}' declared twice", d.name);
    }
    for d in END_TO_END {
        assert!(d.bound > 0.0 && d.bound <= 0.25, "{} bound {}", d.name, d.bound);
    }
    let setup = END_TO_END.iter().find(|d| d.name == "setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s carries the largest bound");
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
}

/// `(name, unit, better, bound)` rows of one list in `BENCHMARK.json`.
fn declared(list: &Json) -> Vec<(String, String, String, f64)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            )
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_what_the_ledger_emits() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let v = Json::parse(&text).expect("BENCHMARK.json parses");
    let Json::Obj(pairs) = &v else { panic!("BENCHMARK.json is not an object") };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]);

    let rows = |list: &[Decl]| -> Vec<(String, String, String, f64)> {
        list.iter().map(|d| (d.name.into(), d.unit.into(), d.better.into(), d.bound)).collect()
    };
    assert_eq!(declared(v.get("end_to_end").unwrap()), rows(END_TO_END), "end_to_end drifted");
    assert_eq!(declared(v.get("per_layer").unwrap()), rows(PER_LAYER), "per_layer drifted");

    let workloads: Vec<&str> = v
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            let why = w.get("why").and_then(Json::as_str).expect("why");
            assert!(why.len() <= 200 && !why.contains('\n'));
            w.get("name").and_then(Json::as_str).expect("name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let seconds = v.get("run_seconds").and_then(Json::as_u64).expect("run_seconds");
    assert!((1..=60).contains(&seconds));
}

#[test]
fn a_run_prints_the_declared_set_no_more_no_less() {
    let mut m = Metrics::default();
    for (i, d) in END_TO_END.iter().enumerate() {
        m.set(d.name, 1.5 + i as f64);
    }
    m.set("core.n_blocks", 2.0);
    for (list, require_all) in [(END_TO_END, true), (PER_LAYER, false)] {
        let rendered = Json::parse(&m.render(list, require_all).expect("renders")).expect("json");
        let Json::Obj(pairs) = rendered else { panic!("metrics is not an object") };
        let printed: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        let wanted: Vec<&str> = list.iter().map(|d| d.name).collect();
        assert_eq!(printed, wanted);
        for ((_, value), d) in pairs.iter().zip(list) {
            assert_eq!(value.get("unit").and_then(Json::as_str), Some(d.unit));
            assert!(value.get("value").and_then(Json::as_f64).is_some());
        }
    }
    // An end-to-end metric that was not measured, or measured 0, is an
    // error, not a silent omission.
    let mut partial = Metrics::default();
    partial.set("setup_s", 1.0);
    assert!(partial.render(END_TO_END, true).is_err());
    let mut zero = m.clone();
    zero.set("capacity_jobs_per_s", 0.0);
    assert!(zero.render(END_TO_END, true).is_err());
}

#[test]
#[should_panic(expected = "not declared")]
fn an_undeclared_metric_cannot_be_recorded() {
    Metrics::default().set("serve.made_up", 1.0);
}

// --- compare ------------------------------------------------------------------

#[test]
fn compare_verdicts() {
    let lower = Decl { name: "x_ms", unit: "ms", better: "lower", bound: 0.10 };
    let higher = Decl { name: "x_per_s", unit: "1/s", better: "higher", bound: 0.10 };
    let steady = |c: f64| -> Vec<f64> { (0..10).map(|i| c * (1.0 + 0.002 * i as f64)).collect() };
    assert_eq!(judge(&lower, &steady(100.0), &steady(105.0)).verdict, Verdict::Ok);
    assert_eq!(judge(&lower, &steady(100.0), &steady(115.0)).verdict, Verdict::Worse);
    assert_eq!(judge(&lower, &steady(100.0), &steady(50.0)).verdict, Verdict::Ok);
    // "higher is better": a drop is worse, a rise is not.
    assert_eq!(judge(&higher, &steady(100.0), &steady(85.0)).verdict, Verdict::Worse);
    assert_eq!(judge(&higher, &steady(100.0), &steady(130.0)).verdict, Verdict::Ok);
    // A spread wider than the bound cannot resolve anything.
    let noisy: Vec<f64> = (0..10).map(|i| 100.0 + 10.0 * i as f64).collect();
    let row = judge(&lower, &noisy, &steady(300.0));
    assert_eq!(row.verdict, Verdict::Unresolved);
    assert!(row.spread > 0.10);
}

// --- inputs -------------------------------------------------------------------

#[test]
fn inputs_are_a_function_of_the_seed() {
    let hash = |seed: u64| ledger::gen::router_shards(seed).inputs[0].content_hash;
    assert_eq!(hash(11), hash(11), "same seed, same graph");
    assert_ne!(hash(11), hash(12), "another seed, another graph");
}
