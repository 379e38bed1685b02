//! The traced replay's spans: each thread records the benchmark's own
//! spans around its calls into the program's layers, in memory, and the
//! records are merged and reduced after the replay ends.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call: the layer it went into, the lane (thread) it ran on
/// and its interval in ns since the replay's epoch. A span's parent is
/// the container span on the same lane that encloses it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub layer: &'static str,
    pub lane: usize,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }
}

/// A per-thread span buffer.
pub struct Recorder {
    epoch: Instant,
    lane: usize,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: usize) -> Self {
        Self { epoch, lane, spans: Vec::with_capacity(4096) }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span of `layer`.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.spans.push(Span { layer, lane: self.lane, start, end });
        out
    }

    /// Records an already-measured interval.
    pub fn record(&mut self, layer: &'static str, start: u64, end: u64) {
        self.spans.push(Span { layer, lane: self.lane, start, end });
    }
}

/// Total time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerTotal {
    pub ns: u64,
    pub calls: u64,
}

impl LayerTotal {
    /// Mean µs per call (`0.0` when never called).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e3
        }
    }
}

/// Per-layer totals over `spans`, skipping the container layers named in
/// `containers` (units and handler spans, whose time is their children's).
pub fn layer_totals(spans: &[Span], containers: &[&str]) -> BTreeMap<&'static str, LayerTotal> {
    let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
    for span in spans.iter().filter(|s| !containers.contains(&s.layer)) {
        let total = totals.entry(span.layer).or_default();
        total.ns += span.len();
        total.calls += 1;
    }
    totals
}

/// The self time of every `parent`-layer span: its length minus the
/// union of the non-container spans on the same lane that fall inside it.
/// Returns `(total parent ns, total self ns)`.
pub fn parents_self_time(spans: &[Span], parent: &str, containers: &[&str]) -> (u64, u64) {
    let mut by_lane: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| !containers.contains(&s.layer)) {
        by_lane.entry(span.lane).or_default().push(span.interval());
    }
    for children in by_lane.values_mut() {
        children.sort_unstable();
    }
    let mut total = 0;
    let mut own = 0;
    for span in spans.iter().filter(|s| s.layer == parent) {
        total += span.len();
        let children = by_lane.get(&span.lane).map_or(&[][..], Vec::as_slice);
        // A lane runs its calls one after another, so besides the
        // children starting inside the parent at most one, the last to
        // start before it, can reach into it.
        let first = children.partition_point(|&(s, _)| s < span.start).saturating_sub(1);
        let last = children.partition_point(|&(s, _)| s < span.end);
        own += self_time(span.interval(), &children[first..last]);
    }
    (total, own)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, lane: usize, start: u64, end: u64) -> Span {
        Span { layer, lane, start, end }
    }

    #[test]
    fn parents_self_time_uses_same_lane_children_only() {
        let spans = [
            span("lane", 0, 0, 100),
            span("a", 0, 10, 30),
            span("b", 0, 40, 60),
            // A different lane's child never covers lane 0's parent.
            span("a", 1, 60, 90),
            span("lane", 1, 0, 100),
        ];
        let (total, own) = parents_self_time(&spans, "lane", &["lane"]);
        assert_eq!(total, 200);
        assert_eq!(own, 60 + 70);
        let totals = layer_totals(&spans, &["lane"]);
        assert_eq!(totals["a"].ns, 50);
        assert_eq!(totals["a"].calls, 2);
        assert_eq!(totals["a"].mean_us(), 0.025);
        assert!(!totals.contains_key("lane"));
    }
}
