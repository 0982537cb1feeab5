//! Zero-dependency parallel substrate for the iHTL workspace.
//!
//! The paper's execution model needs exactly two scheduling shapes:
//!
//! * **chunked parallel-for with dynamic load balancing** — the flipped-block
//!   push phase walks (block × source-chunk) tasks whose cost is wildly
//!   skewed (hubs!), so workers must self-schedule rather than take static
//!   slices (paper §4.1 uses "work stealing over partitioned graphs");
//! * **map-reduce over index ranges** — degree counting and triangle
//!   counting privatise per-worker accumulators and merge them, the same
//!   privatise-and-merge idiom iHTL applies to its hub buffers (§3.4).
//!
//! Both are provided here on plain `std`, executed by a **persistent worker
//! pool**: `num_threads() - 1` workers are spawned lazily on the first
//! multi-chunk region and then parked on a condvar between regions. Each
//! region bumps a generation counter and publishes a type-erased job
//! pointer; workers run the job exactly once per generation and an atomic
//! chunk counter acts as the shared work queue — workers grab the next chunk
//! when they finish their last, which is self-scheduling with the same
//! load-balancing effect as stealing for contiguous ranges. A per-region
//! wake costs a condvar broadcast (~µs) instead of the per-call
//! `thread::scope` spawn/join the first version of this crate paid (~tens
//! of µs per worker), which matters because the iHTL engine enters a region
//! per phase per iteration.
//!
//! Guarantees relied on by the rest of the workspace (notably the
//! privatised hub buffers in `ihtl-core`):
//!
//! * inside a parallel region every concurrent worker observes a distinct
//!   [`current_thread_index`] in `0..num_threads()` — pool worker *k* owns
//!   index `k + 1` for the life of the process, the driving caller is
//!   always index 0, and regions are serialised by a pool-wide lock, so an
//!   index can never be observed by two live threads even across
//!   overlapping top-level calls;
//! * outside any region (and on the sequential fallback path)
//!   `current_thread_index()` is `None`;
//! * nested parallel calls from inside a worker run sequentially *on that
//!   worker*, so the worker's index stays stable;
//! * with `num_threads() == 1` no thread is ever spawned — single-core
//!   containers pay nothing but a function call;
//! * a panic in any worker (or the caller's own share of the work) is
//!   re-raised on the calling thread after the region completes; the pool
//!   survives and later regions run normally.

pub mod shuffle;

use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};

static NUM_THREADS: OnceLock<usize> = OnceLock::new();

thread_local! {
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Number of worker threads parallel regions use, decided once per process:
/// the `IHTL_THREADS` environment variable if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`], otherwise 1.
pub fn num_threads() -> usize {
    *NUM_THREADS.get_or_init(|| {
        std::env::var("IHTL_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// The calling thread's worker index inside a parallel region
/// (`Some(0..num_threads())`), or `None` outside one. Stable for the whole
/// region, so it can key per-thread privatised state.
pub fn current_thread_index() -> Option<usize> {
    WORKER_INDEX.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Cache-hierarchy detection.
// ---------------------------------------------------------------------------

static CACHE_SIZES: OnceLock<(usize, usize)> = OnceLock::new();

/// Fallback when the cache hierarchy is unreadable (non-Linux, sandboxes):
/// a 1 MiB private cache and a 32 MiB last-level cache — ordinary numbers
/// for current server parts, conservative enough that neither the flipped
/// blocks nor the thrashing threshold are sized absurdly.
pub const FALLBACK_BUFFER_BYTES: usize = 1 << 20;
/// See [`FALLBACK_BUFFER_BYTES`].
pub const FALLBACK_LLC_BYTES: usize = 32 << 20;

/// Parses a Linux sysfs cache size string like `"48K"`, `"2048K"` or
/// `"1M"` into bytes.
fn parse_cache_size(s: &str) -> Option<usize> {
    let s = s.trim();
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 1usize << 10),
        b'M' | b'm' => (&s[..s.len() - 1], 1 << 20),
        b'G' | b'g' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.trim().parse::<usize>().ok().map(|n| n * mult)
}

/// Reads cpu0's cache levels from sysfs: `(level, bytes)` for every data or
/// unified cache.
fn sysfs_cache_levels() -> Vec<(u32, usize)> {
    let mut out = Vec::new();
    for index in 0..16 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let Some(ty) = read("type") else { break };
        if ty.trim() == "Instruction" {
            continue;
        }
        let (Some(level), Some(size)) = (read("level"), read("size")) else { continue };
        if let (Ok(level), Some(bytes)) = (level.trim().parse(), parse_cache_size(&size)) {
            out.push((level, bytes));
        }
    }
    out
}

/// `(buffer_bytes, llc_bytes)`, detected once per process from Linux sysfs
/// (`/sys/devices/system/cpu/cpu0/cache/index*/`): the private per-core
/// working-set cache (largest data/unified level ≤ 2 — the L2 on common
/// parts) and the last-level cache capacity (largest level present). The
/// two answer different questions — how big a cache-resident scratch buffer
/// may be, and how much vertex data random reads can touch before they
/// start missing — and on big-LLC parts they differ by orders of
/// magnitude. Falls back to ([`FALLBACK_BUFFER_BYTES`],
/// [`FALLBACK_LLC_BYTES`]) when the hierarchy is unreadable.
pub fn cache_sizes() -> (usize, usize) {
    *CACHE_SIZES.get_or_init(|| {
        let levels = sysfs_cache_levels();
        let buffer = levels
            .iter()
            .filter(|&&(level, _)| level <= 2)
            .map(|&(_, bytes)| bytes)
            .max()
            .unwrap_or(FALLBACK_BUFFER_BYTES);
        let llc = levels.iter().map(|&(_, bytes)| bytes).max().unwrap_or(FALLBACK_LLC_BYTES);
        (buffer, llc.max(buffer))
    })
}

// ---------------------------------------------------------------------------
// The persistent pool.
// ---------------------------------------------------------------------------

/// Type-erased pointer to a region closure (`&F` where `F: Fn(usize) + Sync`;
/// the argument is the executing worker's index). Valid for the duration of
/// the region because the publishing caller blocks until every worker has
/// reported completion.
#[derive(Clone, Copy)]
struct Job {
    data: *const (),
    run: unsafe fn(*const (), usize),
}

// SAFETY: the pointee is `Sync` (bound enforced at the only construction
// site, in `run_region`) and outlives the region.
unsafe impl Send for Job {}

/// Shared pool state, guarded by [`Shared::state`].
struct RegionState {
    /// Bumped once per region; a worker runs the published job exactly once
    /// per generation it observes.
    generation: u64,
    job: Option<Job>,
    /// Pool workers that have not yet finished the current region.
    remaining: usize,
    /// First panic payload captured from a pool worker this region.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

struct Shared {
    /// Serialises regions: one caller drives the pool at a time; other
    /// top-level callers block here until the pool is free.
    region_lock: Mutex<()>,
    state: Mutex<RegionState>,
    /// Workers park here between regions.
    start: Condvar,
    /// The driving caller parks here until `remaining == 0`.
    done: Condvar,
    n_workers: usize,
}

/// Locks tolerating poison: the guarded data is plain counters/flags that
/// remain consistent across an unwinding holder. Named `lock_ok` so the R6
/// lock-order lint identifies the lock from the call-site argument.
fn lock_ok<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

static POOL: OnceLock<&'static Shared> = OnceLock::new();

/// The process-wide pool, spawning its `num_threads() - 1` workers on first
/// use. Never called when `num_threads() == 1`.
fn pool() -> &'static Shared {
    POOL.get_or_init(|| {
        let n_workers = num_threads() - 1;
        let shared: &'static Shared = Box::leak(Box::new(Shared {
            region_lock: Mutex::new(()),
            state: Mutex::new(RegionState { generation: 0, job: None, remaining: 0, panic: None }),
            start: Condvar::new(),
            done: Condvar::new(),
            n_workers,
        }));
        for k in 0..n_workers {
            std::thread::Builder::new()
                .name(format!("ihtl-worker-{}", k + 1))
                .spawn(move || worker_main(shared, k + 1))
                .expect("spawning ihtl-parallel pool worker");
        }
        shared
    })
}

/// Pool worker loop: park until a new generation is published, run the job
/// under this worker's fixed index, report completion, park again. Never
/// returns; workers die with the process.
fn worker_main(shared: &'static Shared, idx: usize) {
    let mut last_gen = 0u64;
    let mut st = lock_ok(&shared.state);
    loop {
        {
            // Spans the park time between regions; recorded only when a
            // wake actually ends a wait (and tracing is on at entry).
            let _idle = ihtl_trace::span("worker_idle").with_arg(idx as u64);
            while st.generation == last_gen {
                st = shared.start.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        }
        last_gen = st.generation;
        let job = st.job.expect("region published without a job");
        drop(st);

        WORKER_INDEX.with(|c| c.set(Some(idx)));
        let busy = ihtl_trace::span("worker_busy").with_arg(idx as u64);
        // SAFETY: `job.data` points at the region closure published by
        // `run_region`, which blocks until `remaining == 0`; this worker
        // decrements only after the call returns or unwinds, so the
        // closure is live for the whole call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (job.run)(job.data, idx) }));
        drop(busy);
        WORKER_INDEX.with(|c| c.set(None));

        st = lock_ok(&shared.state);
        if let Err(payload) = result {
            if st.panic.is_none() {
                st.panic = Some(payload);
            }
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_one();
        }
    }
}

/// Runs `f(worker_index)` on the caller (index 0) and every pool worker
/// (their fixed indices `1..num_threads()`), returning when all are done.
/// Panics from any participant are re-raised here after the region ends.
fn run_region<F>(f: &F)
where
    F: Fn(usize) + Sync,
{
    // SAFETY: `data` must be the `&F` published for the current region.
    // Upheld by construction: this generic instantiation is only ever
    // paired with `f as *const F` in the `Job` built below.
    unsafe fn call<F: Fn(usize)>(data: *const (), idx: usize) {
        (*(data as *const F))(idx);
    }
    let shared = pool();
    let region_guard = lock_ok(&shared.region_lock);
    {
        let mut st = lock_ok(&shared.state);
        st.generation += 1;
        st.job = Some(Job { data: f as *const F as *const (), run: call::<F> });
        st.remaining = shared.n_workers;
        shared.start.notify_all();
    }
    // The caller participates as worker 0. Its panic must not unwind past
    // this frame while workers still borrow `f`, so it is caught and
    // re-raised after the join below.
    WORKER_INDEX.with(|c| c.set(Some(0)));
    let caller_result = catch_unwind(AssertUnwindSafe(|| f(0)));
    WORKER_INDEX.with(|c| c.set(None));

    let mut st = lock_ok(&shared.state);
    while st.remaining > 0 {
        // region_lock is held across this wait by design: it serialises
        // whole regions, and the workers being waited on never touch
        // region_lock, so the region driver cannot deadlock here.
        // lint:allow(R6): region serialisation holds region_lock over waits
        st = shared.done.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    st.job = None;
    let worker_panic = st.panic.take();
    drop(st);
    drop(region_guard);
    if let Err(payload) = caller_result {
        resume_unwind(payload);
    }
    if let Some(payload) = worker_panic {
        resume_unwind(payload);
    }
}

/// Whether a region with `n_chunks` chunks should use the pool. `false`
/// forces the sequential path (single-thread config, nested call, or
/// nothing to share).
fn use_pool(n_chunks: usize) -> bool {
    n_chunks > 1 && num_threads() > 1 && current_thread_index().is_none()
}

// ---------------------------------------------------------------------------
// Public scheduling shapes.
// ---------------------------------------------------------------------------

/// Runs `f` over `range` split into chunks of at most `grain` elements.
/// Chunks are claimed dynamically from an atomic counter, so skewed chunk
/// costs balance across workers. Falls back to a plain sequential loop when
/// only one thread is configured, when called from inside another parallel
/// region, or when the range fits in a single chunk.
pub fn par_for_chunks<F>(range: Range<usize>, grain: usize, f: F)
where
    F: Fn(Range<usize>) + Sync,
{
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(grain);
    if !use_pool(n_chunks) {
        let mut start = range.start;
        while start < range.end {
            let end = (start + grain).min(range.end);
            f(start..end);
            start = end;
        }
        return;
    }
    let next = AtomicUsize::new(0);
    run_region(&|_idx: usize| loop {
        // ORDERING: Relaxed — the counter only hands out distinct chunk
        // indices; the chunk data itself is published by the region
        // start/join (mutex + condvar), not by this fetch_add.
        let chunk = next.fetch_add(1, Ordering::Relaxed);
        if chunk >= n_chunks {
            break;
        }
        let start = range.start + chunk * grain;
        let end = (start + grain).min(range.end);
        f(start..end);
    });
}

/// Per-worker accumulator slots for [`par_map_reduce`], keyed by the
/// distinct worker index — same safety argument as every privatised buffer
/// in the workspace.
struct SlotArray<'a, T>(&'a [UnsafeCell<Option<T>>]);
// SAFETY: each cell is written only through `slot(i)` with the caller's
// distinct worker index, so no two threads ever touch the same cell; `T:
// Send` makes moving each value to the reducing thread sound.
unsafe impl<T: Send> Sync for SlotArray<'_, T> {}

impl<T> SlotArray<'_, T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper, not the non-`Sync` slice field (edition-2021
    /// closures capture disjoint fields).
    #[inline]
    fn slot(&self, i: usize) -> *mut Option<T> {
        self.0[i].get()
    }
}

/// Maps chunks of `range` through `map` into per-worker accumulators
/// (seeded by `identity`) folded with `fold`, then reduces the worker
/// accumulators with `reduce`. `fold` sees chunks in self-scheduled order,
/// so the operation must be commutative-associative for a deterministic
/// result — true of every use in this workspace (integer counts, sums,
/// min/max).
pub fn par_map_reduce<T, I, M, FO, R>(
    range: Range<usize>,
    grain: usize,
    identity: I,
    map: M,
    fold: FO,
    reduce: R,
) -> T
where
    T: Send,
    I: Fn() -> T + Sync,
    M: Fn(Range<usize>) -> T + Sync,
    FO: Fn(T, T) -> T + Sync,
    R: Fn(T, T) -> T,
{
    let grain = grain.max(1);
    let len = range.end.saturating_sub(range.start);
    if len == 0 {
        return identity();
    }
    let n_chunks = len.div_ceil(grain);
    if !use_pool(n_chunks) {
        let mut acc = identity();
        let mut start = range.start;
        while start < range.end {
            let end = (start + grain).min(range.end);
            acc = fold(acc, map(start..end));
            start = end;
        }
        return acc;
    }
    let slots: Vec<UnsafeCell<Option<T>>> =
        (0..num_threads()).map(|_| UnsafeCell::new(None)).collect();
    let shared = SlotArray(&slots);
    let next = AtomicUsize::new(0);
    run_region(&|idx: usize| {
        let mut acc: Option<T> = None;
        loop {
            // ORDERING: Relaxed — same as par_for_chunks: the counter only
            // partitions work; results are published via the region join.
            let chunk = next.fetch_add(1, Ordering::Relaxed);
            if chunk >= n_chunks {
                break;
            }
            let start = range.start + chunk * grain;
            let end = (start + grain).min(range.end);
            let part = map(start..end);
            acc = Some(match acc.take() {
                Some(a) => fold(a, part),
                None => fold(identity(), part),
            });
        }
        if acc.is_some() {
            // SAFETY: worker indices are distinct within the region, so
            // slot `idx` is written by exactly one thread.
            unsafe { *shared.slot(idx) = acc };
        }
    });
    // Reduce in fixed worker-index order for run-to-run stability given the
    // same chunk→worker assignment.
    let mut acc = identity();
    for cell in slots {
        if let Some(local) = cell.into_inner() {
            acc = reduce(acc, local);
        }
    }
    acc
}

/// Shared-pointer wrapper letting disjoint-index writers run in parallel.
struct SharedMut<T>(*mut T);
// SAFETY: callers only dereference disjoint indices (each participant owns
// a distinct chunk of `0..len`), so the shared raw pointer never aliases a
// concurrently-written element.
unsafe impl<T: Send> Sync for SharedMut<T> {}

impl<T> SharedMut<T> {
    /// Accessor (rather than direct field use) so closures capture the
    /// whole `Sync` wrapper, not the raw pointer field (edition-2021
    /// closures capture disjoint fields).
    #[inline]
    fn ptr(&self) -> *mut T {
        self.0
    }
}

/// Calls `f(i, &mut items[i])` for every index, in parallel, `grain` items
/// per task. Each index is visited exactly once, so the per-item `&mut`
/// borrows are disjoint.
pub fn par_for_each_mut<T, F>(items: &mut [T], grain: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let base = SharedMut(items.as_mut_ptr());
    let len = items.len();
    par_for_chunks(0..len, grain, move |r| {
        for i in r {
            // SAFETY: chunks partition 0..len, so index i is claimed by
            // exactly one worker and the &mut cannot alias.
            let item = unsafe { &mut *base.ptr().add(i) };
            f(i, item);
        }
    });
}

/// Calls `f(i, &items[i])` for every index, in parallel.
pub fn par_for_each<T, F>(items: &[T], grain: usize, f: F)
where
    T: Sync,
    F: Fn(usize, &T) + Sync,
{
    par_for_chunks(0..items.len(), grain, |r| {
        for i in r {
            f(i, &items[i]);
        }
    });
}

/// Splits `data` into contiguous chunks of at most `chunk` elements and
/// calls `f(chunk_index, chunk)` in parallel — the enumerated
/// chunks-of-a-mutable-slice shape.
pub fn par_chunks_mut<T, F>(data: &mut [T], chunk: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let chunk = chunk.max(1);
    let len = data.len();
    let base = SharedMut(data.as_mut_ptr());
    let n_chunks = len.div_ceil(chunk);
    par_for_chunks(0..n_chunks, 1, move |r| {
        for ci in r {
            let start = ci * chunk;
            let end = (start + chunk).min(len);
            // SAFETY: chunk index ci is claimed by exactly one worker and
            // chunks tile 0..len disjointly.
            let slice =
                unsafe { std::slice::from_raw_parts_mut(base.ptr().add(start), end - start) };
            f(ci, slice);
        }
    });
}

/// Maps every element through `f` in parallel, preserving order. Results
/// are written directly into the output vector's storage — no intermediate
/// `Vec<Option<U>>`, no re-collection pass.
pub fn par_map<T, U, F>(items: &[T], grain: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let len = items.len();
    let mut out: Vec<U> = Vec::with_capacity(len);
    let base = SharedMut(out.as_mut_ptr());
    par_for_chunks(0..len, grain, |r| {
        for i in r {
            // SAFETY: chunks partition 0..len, so slot i is written exactly
            // once, into capacity reserved above. On panic the region
            // unwinds before `set_len`, so no uninitialised element is ever
            // dropped (written ones leak, which is safe).
            unsafe { base.ptr().add(i).write(f(&items[i])) };
        }
    });
    // SAFETY: the region completed, so all `len` slots are initialised.
    unsafe { out.set_len(len) };
    out
}

/// Builds `k` vectors of `len` elements in one parallel pass: element `i` of
/// vector `j` is `f(i, j)`, with `j` innermost — the de-interleaving
/// transpose, where one fetch of row `i` feeds all `k` outputs. Like
/// [`par_map`], values are written straight into the vectors' storage.
pub fn par_map_columns<U, F>(len: usize, k: usize, grain: usize, f: F) -> Vec<Vec<U>>
where
    U: Send,
    F: Fn(usize, usize) -> U + Sync,
{
    let mut cols: Vec<Vec<U>> = (0..k).map(|_| Vec::with_capacity(len)).collect();
    let bases: Vec<SharedMut<U>> = cols.iter_mut().map(|c| SharedMut(c.as_mut_ptr())).collect();
    par_for_chunks(0..len, grain, |r| {
        for i in r {
            for (j, base) in bases.iter().enumerate() {
                // SAFETY: chunks partition 0..len, so slot i of each vector
                // is written exactly once, into capacity reserved above. On
                // panic the region unwinds before `set_len`, so no
                // uninitialised element is ever dropped.
                unsafe { base.ptr().add(i).write(f(i, j)) };
            }
        }
    });
    for col in &mut cols {
        // SAFETY: the region completed, so all `len` slots are initialised.
        unsafe { col.set_len(len) };
    }
    cols
}

/// Overwrites every element with `value`, in parallel — the bulk
/// reset-to-identity used before push phases.
pub fn par_fill<T>(data: &mut [T], value: T)
where
    T: Copy + Send + Sync,
{
    par_for_each_mut(data, 4096, |_, slot| *slot = value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};

    #[test]
    fn num_threads_is_positive_and_stable() {
        let a = num_threads();
        let b = num_threads();
        assert!(a >= 1);
        assert_eq!(a, b);
    }

    #[test]
    fn parses_sysfs_cache_sizes() {
        assert_eq!(parse_cache_size("48K"), Some(48 << 10));
        assert_eq!(parse_cache_size("2048K\n"), Some(2 << 20));
        assert_eq!(parse_cache_size("1M"), Some(1 << 20));
        assert_eq!(parse_cache_size("266240K"), Some(266_240 << 10));
        assert_eq!(parse_cache_size("65536"), Some(65_536));
        assert_eq!(parse_cache_size(""), None);
        assert_eq!(parse_cache_size("big"), None);
    }

    #[test]
    fn cache_sizes_are_sane_and_stable() {
        let (buffer, llc) = cache_sizes();
        // Whatever the machine reports, the buffer cache is a real size and
        // the LLC is never smaller than it (enforced by the detector).
        assert!(buffer >= 1 << 12, "buffer {buffer}");
        assert!(llc >= buffer, "llc {llc} < buffer {buffer}");
        assert_eq!(cache_sizes(), (buffer, llc));
    }

    #[test]
    fn honours_ihtl_threads_env() {
        // The worker count is decided once per process, so this asserts
        // against whatever environment the test runs under (the verify
        // script exercises IHTL_THREADS=1 and IHTL_THREADS=4 explicitly).
        if let Ok(v) = std::env::var("IHTL_THREADS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    assert_eq!(num_threads(), n);
                }
            }
        }
    }

    #[test]
    fn single_thread_config_never_sets_an_index() {
        // With IHTL_THREADS=1 the sequential fallback runs everything on
        // the caller with no worker identity (exercised by verify.sh).
        if num_threads() == 1 {
            par_for_chunks(0..128, 8, |_| {
                assert_eq!(current_thread_index(), None);
            });
        }
    }

    #[test]
    fn no_index_outside_regions() {
        assert_eq!(current_thread_index(), None);
        par_for_chunks(0..1, 1, |_| {});
        assert_eq!(current_thread_index(), None);
    }

    #[test]
    fn par_for_chunks_matches_sequential_sum() {
        let n = 10_000usize;
        let total = AtomicUsize::new(0);
        par_for_chunks(0..n, 64, |r| {
            let local: usize = r.sum();
            total.fetch_add(local, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn covers_every_index_exactly_once() {
        let n = 4097usize; // deliberately not a multiple of the grain
        let mut hits = vec![0u8; n];
        par_for_each_mut(&mut hits, 17, |_, h| *h += 1);
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn empty_and_single_element_ranges() {
        let ran = AtomicUsize::new(0);
        par_for_chunks(5..5, 8, |_| {
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 0);
        let seen = Mutex::new(Vec::new());
        par_for_chunks(7..8, 8, |r| seen.lock().unwrap().push(r));
        assert_eq!(*seen.lock().unwrap(), vec![7..8]);
    }

    #[test]
    fn worker_indices_are_distinct_and_in_range() {
        // A barrier sized to the full worker complement (pool + caller)
        // releases only once every worker is simultaneously inside the
        // region — each must therefore hold a distinct index, and none may
        // process two chunks (a blocked worker cannot claim another). With
        // one configured thread the region runs inline with no identity.
        let nt = num_threads();
        if nt == 1 {
            par_for_chunks(0..4, 1, |_| assert_eq!(current_thread_index(), None));
            return;
        }
        let barrier = Barrier::new(nt);
        let seen = Mutex::new(HashSet::new());
        par_for_chunks(0..nt, 1, |r| {
            let idx = current_thread_index().expect("no index inside region");
            assert!(idx < nt, "index {idx} out of 0..{nt}");
            assert!(seen.lock().unwrap().insert(idx), "index {idx} observed twice");
            barrier.wait();
            let _ = r;
        });
        assert_eq!(seen.lock().unwrap().len(), nt);
    }

    #[test]
    fn nested_calls_run_sequentially_with_stable_index() {
        par_for_chunks(0..4, 1, |_| {
            // `Some(idx)` on a pooled worker, `None` on the inline
            // single-thread path; either way a nested region must not
            // change this thread's identity.
            let outer = current_thread_index();
            let inner_hits = AtomicUsize::new(0);
            par_for_chunks(0..16, 4, |r| {
                inner_hits.fetch_add(r.len(), Ordering::Relaxed);
                assert_eq!(current_thread_index(), outer);
            });
            assert_eq!(inner_hits.load(Ordering::Relaxed), 16);
            assert_eq!(current_thread_index(), outer);
        });
    }

    #[test]
    fn pool_survives_many_regions() {
        // Thousands of back-to-back regions reuse the same parked workers;
        // every region must still cover its range exactly.
        for round in 0..2000usize {
            let total = AtomicUsize::new(0);
            par_for_chunks(0..64, 8, |r| {
                total.fetch_add(r.len(), Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 64, "round {round}");
        }
    }

    #[test]
    fn concurrent_top_level_callers_serialise_safely() {
        // Multiple non-pool threads driving regions at once must not
        // deadlock or mix worker indices (regions are serialised by the
        // pool's region lock).
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let total = AtomicUsize::new(0);
                        par_for_chunks(0..256, 16, |r| {
                            total.fetch_add(r.sum::<usize>(), Ordering::Relaxed);
                        });
                        assert_eq!(total.load(Ordering::Relaxed), 256 * 255 / 2, "caller {t}");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn panics_propagate_and_pool_survives() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_for_chunks(0..64, 1, |r| {
                if r.start == 13 {
                    panic!("deliberate test panic");
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        // The pool must keep working after a panicked region.
        let total = AtomicUsize::new(0);
        par_for_chunks(0..100, 7, |r| {
            total.fetch_add(r.len(), Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn map_reduce_sums_correctly() {
        let n = 100_000usize;
        let total = par_map_reduce(
            0..n,
            1024,
            || 0u64,
            |r| r.map(|i| i as u64).sum(),
            |a, b| a + b,
            |a, b| a + b,
        );
        assert_eq!(total, (n as u64) * (n as u64 - 1) / 2);
    }

    #[test]
    fn map_reduce_empty_range_is_identity() {
        let v = par_map_reduce(3..3, 8, || 42u64, |_| 0, |a, b| a + b, |a, b| a + b);
        assert_eq!(v, 42);
    }

    #[test]
    fn map_reduce_non_commutative_visibility() {
        // Every chunk's contribution must be reduced exactly once even when
        // some workers never claim a chunk (more workers than chunks).
        let total = par_map_reduce(
            0..3,
            1,
            Vec::new,
            |r| r.collect::<Vec<usize>>(),
            |mut a, b| {
                a.extend(b);
                a
            },
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        let mut sorted = total;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..5000).collect();
        let mapped = par_map(&items, 7, |&x| x * 2);
        assert!(mapped.iter().enumerate().all(|(i, &v)| v == i * 2));
    }

    #[test]
    fn par_map_with_non_copy_values() {
        // Direct writes into uninitialised storage must handle Drop types.
        let items: Vec<usize> = (0..1000).collect();
        let mapped = par_map(&items, 13, |&x| format!("v{x}"));
        assert_eq!(mapped.len(), 1000);
        assert_eq!(mapped[0], "v0");
        assert_eq!(mapped[999], "v999");
    }

    #[test]
    fn par_map_columns_transposes() {
        // Drop types again: every slot of every column written exactly once.
        let cols = par_map_columns(1000, 3, 13, |i, j| format!("{i}:{j}"));
        assert_eq!(cols.len(), 3);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), 1000);
            assert!(col.iter().enumerate().all(|(i, v)| *v == format!("{i}:{j}")));
        }
        assert_eq!(par_map_columns(0, 2, 8, |i, j| i + j), vec![Vec::<usize>::new(); 2]);
        assert!(par_map_columns(5, 0, 8, |i, j| i + j).is_empty());
    }

    #[test]
    fn par_chunks_mut_tiles_disjointly() {
        let mut data = vec![0usize; 1000];
        par_chunks_mut(&mut data, 33, |ci, chunk| {
            for v in chunk.iter_mut() {
                *v = ci + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i / 33 + 1);
        }
    }

    #[test]
    fn par_fill_overwrites_everything() {
        let mut data = vec![0.0f64; 12345];
        par_fill(&mut data, 2.5);
        assert!(data.iter().all(|&v| v == 2.5));
    }

    #[test]
    fn parallel_results_match_sequential_path() {
        // The same computation through the parallel region and a plain loop.
        let n = 65_536usize;
        let mut par = vec![0u64; n];
        par_for_each_mut(&mut par, 113, |i, v| *v = (i as u64).wrapping_mul(2654435761));
        let seq: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(2654435761)).collect();
        assert_eq!(par, seq);
    }
}
