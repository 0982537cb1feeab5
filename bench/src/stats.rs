//! Order statistics for the ledger's own arithmetic.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), because that is what the acceptance check
//! computes over ten runs: the spread the ledger prints must be the spread
//! the checker sees.

/// Sorts a copy of `v` ascending (NaNs are a caller bug and sort last).
pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    s
}

/// Median of `v` (mean of the two middle values for even counts); 0 for an
/// empty slice, so a phase that produced no sample is visible as a zero
/// metric instead of a panic.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Arithmetic mean of `v`; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `(q1, median, q3)` by the exclusive method: the `k`-th quartile sits at
/// position `k (n + 1) / 4` (1-based) with linear interpolation between the
/// neighbouring order statistics. Needs at least two values; fewer return the single
/// value (or zeros) three times.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Not clamped: for tiny samples Python extrapolates, and so do we.
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(2), at(3))
}

/// Interquartile range as a share of the median — the "spread" every bound
/// in `BENCHMARK.json` is compared with.
pub fn spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The `p`-quantile (0 < p < 1) of an ascending slice by nearest rank.
pub fn percentile_sorted(s: &[f64], p: f64) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// A tail percentile is reported only when at least ten samples lie beyond
/// it; otherwise the tail is one or two outliers and the number is noise.
/// Returns `None` when the sample cannot support `p`.
pub fn tail_percentile(v: &[f64], p: f64) -> Option<f64> {
    let s = sorted(v);
    let value = percentile_sorted(&s, p);
    let beyond = s.iter().filter(|&&x| x > value).count();
    // Ties at the percentile value hide samples that are "beyond" in rank
    // but equal in value; count by rank as well and take the larger.
    let by_rank = s.len() - ((p * s.len() as f64).ceil() as usize).min(s.len());
    (beyond.max(by_rank) >= 10).then_some(value)
}

/// The tail percentile if the sample supports it, else 0 (metric reads
/// "not measured").
pub fn tail_or_zero(v: &[f64], p: f64) -> f64 {
    tail_percentile(v, p).unwrap_or(0.0)
}
