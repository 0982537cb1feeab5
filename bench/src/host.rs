//! Host microkernels: the machine's sustainable streaming bandwidth and
//! random-access rate at the pool's width, measured in the same run as the
//! sweeps they are compared with. Arrays are at least four times the
//! last-level cache, so neither number is a cache number.
//!
//! They give every `_x_floor` ratio its base:
//! `floor = topology bytes × stream_ns_per_byte + random accesses ×
//! gather_ns_per_access`.

use std::hint::black_box;
use std::time::Instant;

use crate::metrics::Metrics;
use crate::stats::median;

/// The host's numbers, kept for the floor computations.
#[derive(Clone, Copy, Debug, Default)]
pub struct Host {
    pub threads: usize,
    pub l2_bytes: usize,
    pub llc_bytes: usize,
    pub stream_ns_per_byte: f64,
    pub gather_ns_per_access: f64,
}

impl Host {
    /// Time floor in seconds for a sweep that streams `topology_bytes` and
    /// makes `random_accesses` cache-missing gathers.
    pub fn floor_secs(&self, topology_bytes: u64, random_accesses: u64) -> f64 {
        (topology_bytes as f64 * self.stream_ns_per_byte
            + random_accesses as f64 * self.gather_ns_per_access)
            * 1e-9
    }

    pub fn record(&self, m: &mut Metrics) {
        m.set("host.nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64);
        m.set("host.l2_bytes", self.l2_bytes as f64);
        m.set("host.llc_bytes", self.llc_bytes as f64);
        m.set("host.stream_ns_per_byte", self.stream_ns_per_byte);
        m.set("host.gather_ns_per_access", self.gather_ns_per_access);
    }
}

/// Runs `f(thread_index)` on `threads` scoped threads and returns the wall
/// time of the slowest.
fn on_threads(threads: usize, f: impl Fn(usize) -> u64 + Sync) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                s.spawn({
                    let f = &f;
                    move || f(i)
                })
            })
            .collect();
        for h in handles {
            black_box(h.join().expect("host microkernel thread panicked"));
        }
    });
    t.elapsed().as_secs_f64()
}

/// Measures the host at the pool's width (`ihtl_parallel::num_threads()`).
pub fn measure() -> Host {
    let threads = ihtl_parallel::num_threads().max(1);
    let (l2_bytes, llc_bytes) = ihtl_parallel::cache_sizes();
    let words = (4 * llc_bytes / 8).max(1 << 22);
    let data: Vec<u64> = (0..words as u64).collect();
    let chunk = words.div_ceil(threads);

    let stream: Vec<f64> = (0..3)
        .map(|_| {
            on_threads(threads, |i| {
                let lo = (i * chunk).min(words);
                let hi = ((i + 1) * chunk).min(words);
                data[lo..hi].iter().fold(0u64, |a, &x| a.wrapping_add(x))
            })
        })
        .collect();
    let stream_ns_per_byte = median(&stream) * 1e9 / (words * 8) as f64;

    // Independent (not pointer-chased) loads: the shape of a pull gather,
    // which the hardware overlaps; a dependent chain would measure latency
    // no sweep pays.
    let per_thread = 1usize << 21;
    let gather: Vec<f64> = (0..3)
        .map(|rep| {
            on_threads(threads, |i| {
                let mut state = (0x9e37_79b9_7f4a_7c15u64).wrapping_mul((i + 1 + rep * 31) as u64);
                let mut acc = 0u64;
                for _ in 0..per_thread {
                    state =
                        state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    let idx = ((state >> 33) as usize) % words;
                    acc = acc.wrapping_add(data[idx]);
                }
                acc
            })
        })
        .collect();
    let gather_ns_per_access = median(&gather) * 1e9 / (per_thread * threads) as f64;

    Host { threads, l2_bytes, llc_bytes, stream_ns_per_byte, gather_ns_per_access }
}
