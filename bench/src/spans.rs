//! Span-tree arithmetic for the traced runs.
//!
//! A layer's number is its span's *self time*: its duration minus the part
//! of that interval its child spans cover. Children may overlap (two pool
//! workers, a pipelined send and receive), so the covered part is the
//! length of the *union* of the child intervals, clipped to the parent.

use std::collections::BTreeMap;

/// One completed span, from whichever process recorded it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    pub id: u64,
    /// 0 = root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanNode {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn union_len(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.clamp(lo, hi).max(cursor);
        let e = e.clamp(lo, hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span in `spans`, keyed by span id. A span whose
/// parent id is not in the set is treated as a root.
pub fn self_times(spans: &[SpanNode]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map(|kids| union_len(kids, s.start_ns, s.end_ns))
                .unwrap_or(0);
            (s.id, s.dur_ns() - covered.min(s.dur_ns()))
        })
        .collect()
}

/// Share of the root span's wall time covered by its child spans
/// (`1 - self/duration`); 0 for a zero-length or missing root.
pub fn coverage_frac(spans: &[SpanNode], root_id: u64) -> f64 {
    let Some(root) = spans.iter().find(|s| s.id == root_id) else {
        return 0.0;
    };
    let dur = root.dur_ns();
    if dur == 0 {
        return 0.0;
    }
    let own = self_times(spans).get(&root_id).copied().unwrap_or(dur);
    1.0 - own as f64 / dur as f64
}

/// Sum of the self times of `root_id` and everything below it. Equals the
/// root's duration when every child nests inside its parent; the ledger
/// reports the difference instead of assuming it.
pub fn tree_self_sum(spans: &[SpanNode], root_id: u64) -> u64 {
    let selfs = self_times(spans);
    let mut kids: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for s in spans {
        kids.entry(s.parent).or_default().push(s.id);
    }
    let mut total = 0u64;
    let mut stack = vec![root_id];
    while let Some(id) = stack.pop() {
        total += selfs.get(&id).copied().unwrap_or(0);
        if let Some(k) = kids.get(&id) {
            stack.extend(k.iter().copied());
        }
    }
    total
}

/// Flattens one thread's `ihtl_trace` records into [`SpanNode`]s.
pub fn from_trace(spans: &[ihtl_trace::SpanInfo]) -> Vec<SpanNode> {
    spans
        .iter()
        .map(|s| SpanNode {
            id: s.id,
            parent: s.parent,
            name: s.name.to_string(),
            start_ns: s.start_ns,
            end_ns: s.end_ns,
        })
        .collect()
}
