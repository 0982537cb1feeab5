//! # ihtl-trace — workspace tracing / observability
//!
//! Std-only, zero-dependency tracing for the iHTL workspace (the hermetic
//! build invariant from PR 1 applies here too). The design goals, in order:
//!
//! 1. **Near-zero cost when idle.** Every probe starts with one relaxed
//!    atomic load of the global enable counter; when tracing is off the
//!    probe returns immediately and records nothing.
//! 2. **Lock-free, allocation-free hot path.** Each thread owns a
//!    fixed-capacity [`ring::RingBuf`] allocated at registration; closing a
//!    span writes one record into it with plain atomic stores (a per-slot
//!    seqlock — see `ring.rs`). No locks, no heap traffic, no syscalls.
//! 3. **Snapshots on demand.** A global registry keeps an `Arc` to every
//!    thread's ring; [`snapshot`] (whole process) and [`Mark::collect`]
//!    (one job window) copy records out without stopping writers.
//!
//! Timestamps are nanoseconds since a process-wide monotonic epoch (the
//! first `Instant` the crate observes), so records from different threads
//! share one timeline. Span names are `&'static str` interned to small
//! integer ids by pointer identity; the ring stores only the id.
//!
//! ## Span taxonomy (see DESIGN.md §9)
//!
//! | layer | spans |
//! |-------|-------|
//! | `ihtl-core` build | `ihtl_build` > `hub_candidates`, `block_accept`, `classify`, `relabel`, `flipped_blocks`, `sparse_block`, `task_build` |
//! | `ihtl-core` exec  | `ihtl_spmv` > `fb_push`, `fb_merge`, `sparse_pull`; per-task `push_task` / `merge_task` / `pull_task` on workers |
//! | `ihtl-traversal`  | `pull_spmv`, `pull_chunked`, `push_atomic`, `push_buffered`, `push_partitioned` |
//! | `ihtl-parallel`   | `worker_busy` / `worker_idle` (arg = worker index) |
//! | `ihtl-serve`      | `job` root + `run_job` / `sleep` / `compare` children |
//!
//! ## Example
//!
//! ```
//! let _on = ihtl_trace::enable();
//! {
//!     let _outer = ihtl_trace::span("outer");
//!     let _inner = ihtl_trace::span("inner").with_arg(42);
//! }
//! let snap = ihtl_trace::snapshot();
//! let me: Vec<_> = snap.iter().flat_map(|t| t.spans.iter()).collect();
//! assert!(me.iter().any(|s| s.name == "inner" && s.arg == 42));
//! ```

#![forbid(unsafe_code)]

pub mod chrome;
pub mod ring;

use std::cell::RefCell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

pub use ring::SpanRec;

// ---------------------------------------------------------------------------
// Enable gating
// ---------------------------------------------------------------------------

static ENABLE_COUNT: AtomicU32 = AtomicU32::new(0);

/// True while at least one [`EnabledGuard`] is alive.
#[inline]
pub fn enabled() -> bool {
    // ORDERING: Relaxed — a flag polled per span; callers that race an
    // enable/disable edge may record or skip one span, which is fine.
    ENABLE_COUNT.load(Ordering::Relaxed) > 0
}

/// RAII handle returned by [`enable`]; tracing stays on until every guard
/// has been dropped (guards nest, e.g. concurrent traced serve jobs).
#[must_use = "tracing turns off when the guard drops"]
pub struct EnabledGuard(());

impl Drop for EnabledGuard {
    fn drop(&mut self) {
        // ORDERING: Relaxed — see enabled(): the count is advisory.
        ENABLE_COUNT.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Turns tracing on for the lifetime of the returned guard.
pub fn enable() -> EnabledGuard {
    // ORDERING: Relaxed — see enabled(): the count is advisory.
    ENABLE_COUNT.fetch_add(1, Ordering::Relaxed);
    EnabledGuard(())
}

/// Turns tracing on for the rest of the process (for binaries/scripts).
pub fn enable_forever() {
    std::mem::forget(enable());
}

// ---------------------------------------------------------------------------
// Monotonic epoch
// ---------------------------------------------------------------------------

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process trace epoch (first call wins the anchor).
#[inline]
pub fn now_ns() -> u64 {
    // crates/trace is on the lint R4 timer allowlist: this is the one
    // monotonic clock the rest of the workspace traces through.
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// ---------------------------------------------------------------------------
// Name interning: &'static str -> small id, by pointer identity
// ---------------------------------------------------------------------------

const MAX_NAMES: usize = 512;

static NAME_PTRS: [AtomicUsize; MAX_NAMES] = [const { AtomicUsize::new(0) }; MAX_NAMES];
static NAME_COUNT: AtomicUsize = AtomicUsize::new(0);
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

fn lock_names() -> MutexGuard<'static, Vec<&'static str>> {
    // A panic while holding this lock cannot leave the table inconsistent
    // (appends are single-statement), so poisoning is safe to clear.
    NAMES.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn intern(name: &'static str) -> u32 {
    let p = name.as_ptr() as usize;
    // ORDERING: Acquire — pairs with intern_slow's Release store of
    // NAME_COUNT: observing count i+1 guarantees NAME_PTRS[..=i] below
    // are the published pointers, so the lock-free scan is sound.
    let n = NAME_COUNT.load(Ordering::Acquire).min(MAX_NAMES);
    for (i, slot) in NAME_PTRS[..n].iter().enumerate() {
        // ORDERING: Relaxed — the Acquire on NAME_COUNT above already
        // ordered these slots; each slot is written once before publish.
        if slot.load(Ordering::Relaxed) == p {
            return i as u32 + 1;
        }
    }
    intern_slow(name, p)
}

#[cold]
fn intern_slow(name: &'static str, p: usize) -> u32 {
    let mut names = lock_names();
    // Re-scan under the lock: by content so that the same literal reaching
    // us through different addresses (codegen units) still dedupes.
    if let Some(i) =
        names.iter().position(|&s| std::ptr::eq(s.as_ptr(), name.as_ptr()) || s == name)
    {
        return i as u32 + 1;
    }
    let i = names.len();
    if i >= MAX_NAMES {
        return 0; // overflow bucket; rendered as "(unnamed)"
    }
    names.push(name);
    // ORDERING: Relaxed store then Release publish — the slot write must
    // not be observed without the count; the Release on NAME_COUNT makes
    // the slot visible to intern()'s Acquire readers.
    NAME_PTRS[i].store(p, Ordering::Relaxed);
    NAME_COUNT.store(i + 1, Ordering::Release);
    i as u32 + 1
}

/// Resolves an interned name id back to the string (`"(unnamed)"` for 0 or
/// an id this process never issued).
pub fn name_of(id: u32) -> &'static str {
    if id == 0 {
        return "(unnamed)";
    }
    lock_names().get(id as usize - 1).copied().unwrap_or("(unnamed)")
}

// ---------------------------------------------------------------------------
// Thread registry + thread-local state
// ---------------------------------------------------------------------------

/// Ring capacity per thread; overridable once via `IHTL_TRACE_CAP`.
fn ring_capacity() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::env::var("IHTL_TRACE_CAP").ok().and_then(|v| v.parse().ok()).unwrap_or(8192)
    })
}

struct Registered {
    buf: Arc<ring::RingBuf>,
    label: String,
    serial: u64,
}

static REGISTRY: Mutex<Vec<Registered>> = Mutex::new(Vec::new());
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(1);

fn lock_registry() -> MutexGuard<'static, Vec<Registered>> {
    REGISTRY.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

const MAX_DEPTH: usize = 64;

struct ThreadState {
    buf: Arc<ring::RingBuf>,
    serial: u64,
    next_local: u64,
    /// Open-span id stack; fixed capacity so the hot path never allocates.
    stack: Vec<u64>,
}

impl ThreadState {
    fn new() -> Self {
        // ORDERING: Relaxed — only uniqueness of the serial matters.
        let serial = NEXT_SERIAL.fetch_add(1, Ordering::Relaxed);
        let label = std::thread::current()
            .name()
            .map(str::to_string)
            .unwrap_or_else(|| format!("thread-{serial}"));
        let buf = Arc::new(ring::RingBuf::new(ring_capacity()));
        lock_registry().push(Registered { buf: Arc::clone(&buf), label, serial });
        ThreadState { buf, serial, next_local: 0, stack: Vec::with_capacity(MAX_DEPTH) }
    }

    fn new_id(&mut self) -> u64 {
        self.next_local += 1;
        (self.serial << 40) | self.next_local
    }
}

thread_local! {
    static TLS: RefCell<Option<ThreadState>> = const { RefCell::new(None) };
}

/// Runs `f` with this thread's state, creating + registering it on first
/// use. Returns `None` only during thread teardown (TLS already dropped).
fn with_state<R>(f: impl FnOnce(&mut ThreadState) -> R) -> Option<R> {
    TLS.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let st = slot.get_or_insert_with(ThreadState::new);
        f(st)
    })
    .ok()
}

// ---------------------------------------------------------------------------
// Spans and events
// ---------------------------------------------------------------------------

/// An open span; recording happens when it drops. Obtained from [`span`].
pub struct Span {
    id: u64,
    parent: u64,
    name_id: u32,
    start_ns: u64,
    arg: u64,
    active: bool,
}

impl Span {
    /// Attaches a numeric argument (block id, worker index, ...).
    pub fn with_arg(mut self, arg: u64) -> Self {
        self.arg = arg;
        self
    }

    /// The span's process-unique id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        if self.active {
            self.id
        } else {
            0
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let end_ns = now_ns();
        let rec = SpanRec {
            id: self.id,
            parent: self.parent,
            name_id: self.name_id,
            start_ns: self.start_ns,
            end_ns,
            arg: self.arg,
        };
        with_state(|st| {
            // Normally our id is on top; truncating past it also heals any
            // mis-nesting from spans dropped out of order.
            if let Some(pos) = st.stack.iter().rposition(|&id| id == self.id) {
                st.stack.truncate(pos);
            }
            st.buf.record(&rec);
        });
    }
}

/// Opens a hierarchical span. When tracing is disabled this is one relaxed
/// atomic load and no other work.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { id: 0, parent: 0, name_id: 0, start_ns: 0, arg: 0, active: false };
    }
    span_slow(name)
}

fn span_slow(name: &'static str) -> Span {
    let name_id = intern(name);
    let start_ns = now_ns();
    with_state(|st| {
        let id = st.new_id();
        let parent = st.stack.last().copied().unwrap_or(0);
        if st.stack.len() < MAX_DEPTH {
            st.stack.push(id);
        }
        Span { id, parent, name_id, start_ns, arg: 0, active: true }
    })
    .unwrap_or(Span { id: 0, parent: 0, name_id: 0, start_ns: 0, arg: 0, active: false })
}

/// Records an instantaneous event (a zero-length span) under the current
/// open span.
#[inline]
pub fn event(name: &'static str, arg: u64) {
    if !enabled() {
        return;
    }
    let name_id = intern(name);
    let t = now_ns();
    with_state(|st| {
        let id = st.new_id();
        let parent = st.stack.last().copied().unwrap_or(0);
        st.buf.record(&SpanRec { id, parent, name_id, start_ns: t, end_ns: t, arg });
    });
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A completed span with its name resolved.
#[derive(Clone, Copy, Debug)]
pub struct SpanInfo {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub arg: u64,
}

impl SpanInfo {
    fn from_rec(r: &SpanRec) -> Self {
        SpanInfo {
            id: r.id,
            parent: r.parent,
            name: name_of(r.name_id),
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            arg: r.arg,
        }
    }

    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's records as copied out by [`snapshot`] / [`Mark::collect`].
#[derive(Clone, Debug)]
pub struct ThreadTrace {
    /// Thread name at registration (or `thread-N`).
    pub label: String,
    /// Stable per-thread serial, used as `tid` by the Chrome exporter.
    pub serial: u64,
    /// Resident spans, oldest first.
    pub spans: Vec<SpanInfo>,
    /// Records lost to ring wrap (or a concurrent overwrite) in the
    /// requested range.
    pub dropped: u64,
}

/// Copies every registered thread's resident records. Writers are never
/// blocked; records published while the snapshot runs may or may not be
/// included.
pub fn snapshot() -> Vec<ThreadTrace> {
    let regs = lock_registry();
    regs.iter()
        .map(|r| {
            let (recs, dropped) = r.buf.read_from(0);
            ThreadTrace {
                label: r.label.clone(),
                serial: r.serial,
                spans: recs.iter().map(SpanInfo::from_rec).collect(),
                dropped,
            }
        })
        .collect()
}

/// A position bookmark for the calling thread plus a global time window,
/// taken with [`mark`]; [`Mark::collect`] later returns what happened
/// in between.
pub struct Mark {
    buf: Arc<ring::RingBuf>,
    serial: u64,
    head: u64,
    start_ns: u64,
}

/// Everything recorded between a [`Mark`] and its [`Mark::collect`] call.
#[derive(Clone, Debug)]
pub struct Capture {
    /// Spans the marking thread recorded after the mark (exact, by ring
    /// position — immune to clock-window edge effects).
    pub local: ThreadTrace,
    /// Other threads' spans that ran entirely inside the window (by
    /// timestamp; e.g. pool workers doing this job's parallel regions).
    pub remote: Vec<ThreadTrace>,
    /// The `[start, end]` window in trace-epoch nanoseconds.
    pub window_ns: (u64, u64),
}

/// Bookmarks the calling thread's ring (registering the thread if needed).
pub fn mark() -> Mark {
    let start_ns = now_ns();
    with_state(|st| Mark {
        buf: Arc::clone(&st.buf),
        serial: st.serial,
        head: st.buf.head(),
        start_ns,
    })
    .unwrap_or_else(|| Mark {
        buf: Arc::new(ring::RingBuf::new(2)),
        serial: 0,
        head: 0,
        start_ns,
    })
}

impl Mark {
    /// Collects the marking thread's spans since the mark, plus every other
    /// thread's spans that fall entirely within the elapsed window.
    pub fn collect(&self) -> Capture {
        let end_ns = now_ns();
        let (recs, dropped) = self.buf.read_from(self.head);
        let mut local = ThreadTrace {
            label: String::new(),
            serial: self.serial,
            spans: recs.iter().map(SpanInfo::from_rec).collect(),
            dropped,
        };
        let mut remote = Vec::new();
        for r in lock_registry().iter() {
            if r.serial == self.serial {
                local.label.clone_from(&r.label);
                continue;
            }
            let (recs, dropped) = r.buf.read_from(0);
            let spans: Vec<SpanInfo> = recs
                .iter()
                .filter(|s| s.start_ns >= self.start_ns && s.end_ns <= end_ns)
                .map(SpanInfo::from_rec)
                .collect();
            if !spans.is_empty() {
                remote.push(ThreadTrace {
                    label: r.label.clone(),
                    serial: r.serial,
                    spans,
                    dropped,
                });
            }
        }
        Capture { local, remote, window_ns: (self.start_ns, end_ns) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    // Tests in this module share the process-global registry/enable state,
    // so each works only with spans recorded on its own thread after its
    // own mark. Whether tracing is on is global too: every test that calls
    // `enable()`, and the one that needs it off, holds `TRACER` throughout.

    static TRACER: Mutex<()> = Mutex::new(());

    /// Serialises the tests that depend on the global enable count. A
    /// failed test poisons the lock; the next one proceeds regardless.
    fn tracer_lock() -> MutexGuard<'static, ()> {
        TRACER.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn disabled_records_nothing() {
        let _serial = tracer_lock();
        let m = mark();
        for _ in 0..64 {
            let _s = span("should_not_appear").with_arg(9);
            event("nor_this", 9);
        }
        let cap = m.collect();
        assert!(cap.local.spans.is_empty(), "disabled tracing must write no records");
    }

    #[test]
    fn spans_nest_and_carry_args() {
        let _serial = tracer_lock();
        let _on = enable();
        let m = mark();
        {
            let _a = span("alpha");
            {
                let _b = span("beta").with_arg(7);
            }
            event("gamma", 3);
        }
        let cap = m.collect();
        let spans = &cap.local.spans;
        let a = spans.iter().find(|s| s.name == "alpha").expect("alpha recorded");
        let b = spans.iter().find(|s| s.name == "beta").expect("beta recorded");
        let g = spans.iter().find(|s| s.name == "gamma").expect("gamma recorded");
        assert_eq!(b.parent, a.id);
        assert_eq!(g.parent, a.id);
        assert_eq!(a.parent, 0);
        assert_eq!(b.arg, 7);
        assert_eq!(g.arg, 3);
        assert_eq!(g.start_ns, g.end_ns);
        assert!(b.start_ns >= a.start_ns && b.end_ns <= a.end_ns);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let _serial = tracer_lock();
        let _on = enable();
        let m = mark();
        {
            let _root = span("root");
            for i in 0..5u64 {
                let _c = span("child").with_arg(i);
            }
        }
        let cap = m.collect();
        let root = cap.local.spans.iter().find(|s| s.name == "root").expect("root");
        let children: Vec<_> = cap.local.spans.iter().filter(|s| s.name == "child").collect();
        assert_eq!(children.len(), 5);
        assert!(children.iter().all(|c| c.parent == root.id));
    }

    #[test]
    fn remote_threads_are_collected_by_window() {
        let _serial = tracer_lock();
        let _on = enable();
        let m = mark();
        std::thread::Builder::new()
            .name("trace-remote".into())
            .spawn(|| {
                let _s = span("remote_work").with_arg(11);
            })
            .expect("spawn")
            .join()
            .expect("join");
        let cap = m.collect();
        let found = cap
            .remote
            .iter()
            .flat_map(|t| t.spans.iter())
            .any(|s| s.name == "remote_work" && s.arg == 11);
        assert!(found, "remote thread span must land in the window");
    }

    #[test]
    fn enable_guards_nest() {
        let _serial = tracer_lock();
        let g1 = enable();
        let g2 = enable();
        assert!(enabled());
        drop(g1);
        assert!(enabled());
        drop(g2);
        assert!(!enabled(), "dropping the last guard disables tracing");
    }

    #[test]
    fn interning_is_stable() {
        let a = intern("stable_name_x");
        let b = intern("stable_name_x");
        assert_eq!(a, b);
        assert_eq!(name_of(a), "stable_name_x");
        assert_eq!(name_of(0), "(unnamed)");
    }
}
