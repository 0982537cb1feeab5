//! Small shared helpers: seed derivation, timing, `/proc` readers.

use std::path::{Path, PathBuf};
use std::time::Instant;

/// Derives an independent stream seed from the run's single `--seed` and a
/// stable tag (SplitMix64 finaliser over `seed ^ fnv(tag)`), so every input
/// — each graph, each connection's request stream — is a pure function of
/// the one argument.
pub fn derive_seed(seed: u64, tag: &str) -> u64 {
    let mut z = seed ^ ihtl_graph::io::fnv1a_64(tag.as_bytes());
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// glibc malloc settings every measured process (the ledger and each child)
/// runs under: never `mmap` a large block and never trim the heap, so freed
/// memory stays mapped and the next job reuses it. Under the default
/// settings every job's result vectors are fresh anonymous pages, and in a
/// microVM first-touching them costs as much as the sweep itself and
/// arrives bimodally (the K = 8 job read 4 and 9 ns/edge/query on
/// alternate samples). The benchmark holds the allocator constant on both
/// sides of every comparison; `bench/README.md` records the finding.
pub const MALLOC_ENV: [(&str, &str); 2] =
    [("MALLOC_MMAP_MAX_", "0"), ("MALLOC_TRIM_THRESHOLD_", "17179869184")];

/// Wall-clock seconds `f` takes, with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = f();
    (t.elapsed().as_secs_f64(), r)
}

/// Median wall-clock seconds of `reps` calls to `f`, after one untimed call.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..reps.max(1)).map(|_| timed(&mut f).0).collect();
    crate::stats::median(&samples)
}

/// Peak resident set size (`VmHWM`) of `pid` in KiB; `None` once the
/// process is a zombie or gone — so read it *before* reaping.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `VmHWM` of the ledger process itself, KiB.
pub fn self_hwm_kib() -> u64 {
    vm_hwm_kib(std::process::id()).unwrap_or(0)
}

/// Where one run keeps its files: `<out>/scratch/<workload>` for inputs and
/// stores (wiped at start), `<out>/<workload>.trace.json` for the trace.
#[derive(Clone, Debug)]
pub struct Dirs {
    pub out: PathBuf,
    pub scratch: PathBuf,
}

impl Dirs {
    /// Creates `<out>` and an empty `<out>/scratch/<workload>`. Refuses —
    /// before anything is removed — when a server or router of an earlier,
    /// crashed run still holds that scratch directory: wiping it would take
    /// the store from under a live process.
    pub fn prepare(out: &Path, workload: &str) -> Result<Dirs, String> {
        let scratch = out.join("scratch").join(workload);
        let io = |e: std::io::Error| format!("preparing {}: {e}", scratch.display());
        std::fs::create_dir_all(&scratch).map_err(io)?;
        // Children are handed absolute paths: they do not share our cwd
        // contract, and the stale-process check matches on this prefix.
        let out = out.canonicalize().map_err(io)?;
        let scratch = scratch.canonicalize().map_err(io)?;
        let stale = crate::proc::stale_processes(&scratch);
        if !stale.is_empty() {
            return Err(format!(
                "stale ihtl-serve/ihtl-router from an earlier run still alive (pids {stale:?}); \
                 kill them before benchmarking"
            ));
        }
        std::fs::remove_dir_all(&scratch).map_err(io)?;
        std::fs::create_dir_all(&scratch).map_err(io)?;
        Ok(Dirs { out, scratch })
    }

    /// A fresh empty directory under the scratch root.
    pub fn fresh(&self, name: &str) -> std::io::Result<PathBuf> {
        let p = self.scratch.join(name);
        if p.exists() {
            std::fs::remove_dir_all(&p)?;
        }
        std::fs::create_dir_all(&p)?;
        Ok(p)
    }
}

/// Progress line on stderr (stdout carries only the result line).
#[macro_export]
macro_rules! note {
    ($($arg:tt)*) => {
        eprintln!("[ledger] {}", format_args!($($arg)*))
    };
}
