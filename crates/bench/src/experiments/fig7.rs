//! Figure 7 — per-iteration PageRank time for push (GraphGrind, GraphIt),
//! pull (GraphGrind, GraphIt, Galois), iHTL, PB and the iHTL+PB hybrid,
//! plus the average-speedup summary row — and Table 2, which reprices
//! iHTL's preprocessing time in units of each framework's SpMV iterations
//! (both tables come from the same measurement pass).

use std::time::Instant;

use ihtl_apps::engine::EngineKind;
use ihtl_apps::pagerank::pagerank;
use ihtl_core::IhtlConfig;

use crate::baselines::Column;
use crate::datasets::Loaded;
use crate::experiments::PR_ITERS;
use crate::table;

const IHTL: Column = Column::Engine(EngineKind::Ihtl);

/// Raw measurements shared by Figure 7 and Table 2.
pub struct PagerankMatrix {
    pub dataset_keys: Vec<String>,
    /// `iter_seconds[d][e]` — mean per-iteration seconds of `Column::FIG7[e]`.
    pub iter_seconds: Vec<Vec<f64>>,
    /// iHTL graph-construction seconds per dataset (Table 2 numerator).
    pub ihtl_preproc_seconds: Vec<f64>,
}

/// Runs PageRank with every Figure 7 column on every dataset.
pub fn measure(suite: &[Loaded], cfg: &IhtlConfig) -> PagerankMatrix {
    let mut iter_seconds = Vec::with_capacity(suite.len());
    let mut ihtl_preproc = Vec::with_capacity(suite.len());
    for d in suite {
        let mut row = Vec::with_capacity(Column::FIG7.len());
        for column in Column::FIG7 {
            let t = Instant::now();
            let mut engine = column.build(&d.graph, cfg);
            let preproc = t.elapsed().as_secs_f64();
            if column == IHTL {
                ihtl_preproc.push(preproc);
            }
            let run = pagerank(engine.as_mut(), PR_ITERS);
            row.push(run.mean_iter_seconds());
            eprintln!(
                "[fig7] {:>9} {:<16} iter {:>9} preproc {:>8}",
                d.spec.key,
                column.label(),
                table::ms(run.mean_iter_seconds()),
                table::ms(preproc),
            );
        }
        iter_seconds.push(row);
    }
    PagerankMatrix {
        dataset_keys: suite.iter().map(|d| d.spec.key.to_string()).collect(),
        iter_seconds,
        ihtl_preproc_seconds: ihtl_preproc,
    }
}

/// Renders Figure 7: per-iteration times (ms) and average speedups vs iHTL.
pub fn render_fig7(m: &PagerankMatrix) -> String {
    let mut headers: Vec<&str> = vec!["dataset"];
    headers.extend(Column::FIG7.map(Column::label));
    let mut rows = Vec::new();
    for (d, key) in m.dataset_keys.iter().enumerate() {
        let mut row = vec![key.clone()];
        for e in 0..Column::FIG7.len() {
            row.push(table::ms(m.iter_seconds[d][e]));
        }
        rows.push(row);
    }
    // Average-speedup summary row (geometric mean of baseline/iHTL ratios),
    // matching the paper's "Avg. Speedup" row.
    let ihtl_idx = Column::FIG7.iter().position(|&c| c == IHTL).expect("iHTL column missing");
    let mut summary = vec!["avg speedup vs iHTL".to_string()];
    for e in 0..Column::FIG7.len() {
        if e == ihtl_idx {
            summary.push("1×".to_string());
            continue;
        }
        let ratios: Vec<f64> = (0..m.dataset_keys.len())
            .map(|d| m.iter_seconds[d][e] / m.iter_seconds[d][ihtl_idx])
            .collect();
        summary.push(table::speedup(table::geomean(&ratios)));
    }
    rows.push(summary);
    let mut out = String::from(
        "## Figure 7 — PageRank per-iteration time (ms), push/pull baselines vs iHTL\n\n",
    );
    out.push_str(&table::render(&headers, &rows));
    out
}

/// Renders Table 2: iHTL preprocessing expressed in SpMV iterations of the
/// pull traversal of each framework (and of iHTL itself).
pub fn render_table2(m: &PagerankMatrix) -> String {
    let cols = [
        ("GraphGrind", Column::Engine(EngineKind::PullGraphGrind)),
        ("GraphIt", Column::PullGraphIt),
        ("Galois", Column::PullGalois),
        ("iHTL", IHTL),
    ];
    let mut rows = Vec::new();
    let mut col_ratios: Vec<Vec<f64>> = vec![Vec::new(); cols.len()];
    for (d, key) in m.dataset_keys.iter().enumerate() {
        let mut row = vec![key.clone()];
        for (c, (_, column)) in cols.iter().enumerate() {
            let e = Column::FIG7.iter().position(|k| k == column).unwrap();
            let iters = m.ihtl_preproc_seconds[d] / m.iter_seconds[d][e];
            col_ratios[c].push(iters);
            row.push(format!("{iters:.1}"));
        }
        rows.push(row);
    }
    let mut avg = vec!["average".to_string()];
    for r in &col_ratios {
        avg.push(format!("{:.1}", r.iter().sum::<f64>() / r.len().max(1) as f64));
    }
    rows.push(avg);
    let mut headers: Vec<&str> = vec!["dataset"];
    headers.extend(cols.iter().map(|(n, _)| *n));
    let mut out =
        String::from("## Table 2 — iHTL preprocessing cost, in per-framework SpMV iterations\n\n");
    out.push_str(&table::render(&headers, &rows));
    out
}

/// Full Figure 7 + Table 2 report.
pub fn run(suite: &[Loaded]) -> String {
    let m = measure(suite, &IhtlConfig::default());
    format!("{}\n{}", render_fig7(&m), render_table2(&m))
}
