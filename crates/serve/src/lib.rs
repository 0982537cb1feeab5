//! `ihtl-serve`: a std-only graph analytics service layer.
//!
//! The paper's central economic argument (§4.2) is that iHTL's one-time
//! preprocessing cost is amortised over repeated SpMV runs. A service is
//! where that argument becomes literal: datasets are loaded and
//! preprocessed **once** into a registry, then an unbounded stream of
//! analytics requests reuses the flipped-block structure. This crate
//! provides the pieces:
//!
//! * [`registry`] — named immutable graph snapshots (`Arc`-shared) with
//!   memoised iHTL preprocessing, symmetrization, and an engine checkout
//!   pool;
//! * [`sched`] — a bounded-admission job scheduler: full queue ⇒ immediate
//!   `overloaded` rejection, per-job deadlines, panic isolation;
//! * [`cache`] — an LRU result cache exploiting the determinism of every
//!   analytic here (same request ⇒ bitwise-same answer);
//! * [`proto`] + [`endpoint`] + [`server`] — a line-delimited JSON protocol
//!   over plain `std::net` TCP: the request/reply vocabulary, the one
//!   listener/connection loop/client the worker and the router share, and
//!   the worker's dispatcher, with a `stats` op reporting queue depth,
//!   cache hit rates, latency histograms, and live per-engine ns/edge;
//! * [`json`] — a hand-rolled JSON parser/serializer (the workspace builds
//!   with zero external crates);
//! * [`argv`] — the tiny flag parser shared by `ihtl-serve`, `ihtl-cli`,
//!   and `bench_spmv`.
//!
//! Binaries: `ihtl-serve` (the daemon) and `ihtl-cli` (a one-shot client).
//! See DESIGN.md for the wire grammar and README.md for a quickstart.
//!
//! The whole crate is on the panic-free service path checked by `ihtl-lint`
//! (rule R3): request handling returns protocol errors instead of
//! unwrapping, and poisoned locks are recovered via [`lock_ok`] /
//! [`read_ok`] / [`write_ok`] — a panic in one job must never take down a
//! connection thread that merely shares a mutex with it.

#![forbid(unsafe_code)]

use std::sync::{Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

pub mod argv;
pub mod batch;
pub mod cache;
pub mod endpoint;
pub mod json;
pub mod proto;
pub mod registry;
pub mod sched;
pub mod server;
pub mod stats;

pub use batch::{BatchSlot, BatchTicket, BatchedOutput, Coalescer};
pub use cache::ResultCache;
pub use json::Json;
pub use registry::Registry;
pub use sched::{JobError, Scheduler, SubmitError};
pub use server::{fnv1a_checksum, Server, ServerConfig, ServerHandle};
pub use stats::ServeStats;

/// Locks `m`, recovering from poisoning. Every value guarded by a mutex in
/// this crate is kept consistent by its writers *before* any operation that
/// can panic, so the poisoned payload is safe to reuse — and the
/// alternative (unwrap) would cascade one job's panic into every connection
/// thread touching the same lock.
pub fn lock_ok<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Read-locks `l`, recovering from poisoning (see [`lock_ok`]).
pub fn read_ok<T: ?Sized>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks `l`, recovering from poisoning (see [`lock_ok`]).
pub fn write_ok<T: ?Sized>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}
