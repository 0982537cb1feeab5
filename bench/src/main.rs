//! `ledger` — command-line entry of the benchmark.
//!
//! ```text
//! ledger [run] --workload W --seed N --seconds S --trace 0|1 [--out DIR] [--bin-dir DIR]
//! ledger suite [--seed N] [--seconds S] [--repeat R] --file F
//! ledger compare a.json b.json
//! ```
//!
//! `run` prints progress on stderr and exactly one JSON object as the last
//! line of stdout. It exits non-zero without a result line when the run
//! cannot be made, and with a result line (`"correct": false`) plus a
//! non-zero code when a reply failed the oracle.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use ledger::metrics::WORKLOADS;
use ledger::{compare, note, RunArgs};

/// Defaults recorded in `BENCHMARK.json` / `bench/README.md`.
const DEFAULT_SEED: u64 = 20210809;
const DEFAULT_SECONDS: f64 = 15.0;

struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: '{v}'")),
        }
    }
}

fn dirs(flags: &Flags) -> (PathBuf, PathBuf) {
    let out = flags.value("--out").map(PathBuf::from).unwrap_or_else(|| PathBuf::from("bench/out"));
    let bin_dir = flags.value("--bin-dir").map(PathBuf::from).unwrap_or_else(|| {
        // The ledger is built into the same target directory as the servers.
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(PathBuf::from))
            .unwrap_or_else(|| PathBuf::from("target/release"))
    });
    (out, bin_dir)
}

fn run(flags: &Flags) -> Result<bool, String> {
    let workload = flags.value("--workload").ok_or("run needs --workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}' (valid: {WORKLOADS:?})"));
    }
    let (out, bin_dir) = dirs(flags);
    let args = RunArgs {
        seed: flags.parsed("--seed", DEFAULT_SEED)?,
        seconds: flags.parsed("--seconds", DEFAULT_SECONDS)?,
        trace: flags.parsed::<u8>("--trace", 0)? != 0,
        workload,
        out,
        bin_dir,
    };
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err(format!("--seconds {} out of range", args.seconds));
    }
    // glibc reads its malloc settings once, at process start, and every
    // child inherits them: `bench/run.sh` exports them for the ledger.
    if let Some((k, v)) =
        ledger::util::MALLOC_ENV.iter().find(|(k, v)| std::env::var(k).as_deref() != Ok(*v))
    {
        return Err(format!("{k}={v} is not set: run the ledger through bench/run.sh"));
    }
    // Decided before the pool's first use, which reads it exactly once.
    std::env::set_var("IHTL_THREADS", ledger::pool_width(&args.workload).to_string());
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    note!(
        "workload {} seed {} seconds {} trace {} (pool width {})",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        ihtl_parallel::num_threads()
    );
    let outcome = ledger::run(&args)?;
    let line = ledger::result_line(&outcome, args.trace)?;
    println!("{line}");
    Ok(outcome.tally.failed == 0)
}

/// Runs every workload (each in a fresh process, so `VmHWM` and the pool
/// width are per run) `--repeat` times with consecutive seeds and collects
/// the result lines into one file for `compare`.
fn suite(flags: &Flags) -> Result<bool, String> {
    let seed: u64 = flags.parsed("--seed", DEFAULT_SEED)?;
    let seconds: f64 = flags.parsed("--seconds", DEFAULT_SECONDS)?;
    let repeat: u64 = flags.parsed("--repeat", 1)?;
    let file = PathBuf::from(flags.value("--file").ok_or("suite needs --file")?);
    let (out, bin_dir) = dirs(flags);
    let exe = std::env::current_exe().map_err(|e| format!("locating the ledger: {e}"))?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    for rep in 0..repeat {
        for workload in WORKLOADS {
            for trace in [0u8, 1] {
                let run_seed = seed + rep;
                let output = Command::new(&exe)
                    .args(["run", "--workload", workload])
                    .args(["--seed", &run_seed.to_string(), "--seconds", &seconds.to_string()])
                    .args(["--trace", &trace.to_string()])
                    .arg("--out")
                    .arg(&out)
                    .arg("--bin-dir")
                    .arg(&bin_dir)
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("running {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                let Some(result) = stdout.lines().last().filter(|l| l.starts_with('{')) else {
                    return Err(format!("{workload} (trace {trace}) printed no result line"));
                };
                all_correct &= output.status.success();
                println!("{workload} trace={trace} seed={run_seed}: {result}");
                runs.push(format!(
                    "{{\"workload\":\"{workload}\",\"seed\":{run_seed},\"trace\":{trace},\"result\":{result}}}"
                ));
            }
        }
    }
    // Every later claim in this repo names a metric from this file; this
    // change defines the instrument and claims nothing.
    let body = format!("{{\"runs\":[\n{}\n],\"claim\":null}}\n", runs.join(",\n"));
    std::fs::write(&file, body).map_err(|e| format!("writing {}: {e}", file.display()))?;
    note!("suite written to {} (\"claim\": null)", file.display());
    Ok(all_correct)
}

fn compare_files(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs exactly two suite files".to_string());
    };
    let read = |p: &String| std::fs::read_to_string(p).map_err(|e| format!("reading {p}: {e}"));
    let (a, b) = (compare::parse_suite(&read(a)?)?, compare::parse_suite(&read(b)?)?);
    let (table, ok) = compare::compare(&a, &b);
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("run" | "suite" | "compare") => argv.remove(0),
        _ => "run".to_string(),
    };
    let flags = Flags(argv);
    let done = match command.as_str() {
        "suite" => suite(&flags),
        "compare" => compare_files(&flags.0),
        _ => run(&flags),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("ledger: error: {msg}");
            ExitCode::from(2)
        }
    }
}
