//! In-memory span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer (name,
//! start, end, parent, op id), kept in memory, and written out once the run
//! ends. A disabled recorder does nothing, so the untraced code path is the
//! same code with no clock reads beyond the benchmark's own timers.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Id of a recorded span; `NONE` when the recorder is disabled.
pub type SpanId = usize;
const NONE: SpanId = usize::MAX;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<SpanId>,
    start: Duration,
    end: Duration,
    /// The layer reported only a duration (the exchange's `DrainReport`
    /// latencies): the span is aligned at its parent's start.
    duration_only: bool,
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Default)]
pub struct Totals {
    pub count: usize,
    pub total: Duration,
    /// Total minus the part of each span's interval its children cover.
    pub self_time: Duration,
}

impl Totals {
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.as_secs_f64() * 1e3 / self.count as f64
        }
    }
}

pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return NONE;
        }
        let now = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op,
            parent: parent.filter(|&p| p != NONE),
            start: now,
            end: now,
            duration_only: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        if id != NONE {
            self.spans[id].end = self.epoch.elapsed();
        }
    }

    /// Records a child whose layer reported only how long it took.
    pub fn child_duration(&mut self, name: &'static str, parent: SpanId, took: Duration) {
        if parent == NONE {
            return;
        }
        let (op, start) = (self.spans[parent].op, self.spans[parent].start);
        self.spans.push(Span {
            name,
            op,
            parent: Some(parent),
            start,
            end: start + took,
            duration_only: true,
        });
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                children[p].push((span.start, span.end));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = span.end.saturating_sub(span.start);
            let covered = covered(kids, span.start, span.end);
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total += total;
            entry.self_time += total.saturating_sub(covered);
        }
        out
    }

    /// The spans and their per-name totals as one JSON document.
    pub fn to_json(&self, host: &str) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"host\": {host}, \"totals\": {{");
        for (i, (name, t)) in self.totals().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                t.count,
                t.total.as_secs_f64() * 1e3,
                t.self_time.as_secs_f64() * 1e3
            );
        }
        out.push_str("}, \"spans\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {parent}, \
                 \"start_us\": {}, \"end_us\": {}, \"duration_only\": {}}}",
                s.name,
                s.op,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.duration_only
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered(intervals: &mut [(Duration, Duration)], start: Duration, end: Duration) -> Duration {
    intervals.sort_unstable();
    let mut total = Duration::ZERO;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let ms = Duration::from_millis;
        let mut kids = vec![(ms(2), ms(5)), (ms(4), ms(8)), (ms(9), ms(20))];
        assert_eq!(covered(&mut kids, ms(0), ms(10)), ms(7));
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut trace = Trace::new(false);
        let id = trace.open("x", 0, None);
        trace.child_duration("y", id, Duration::from_millis(1));
        trace.close(id);
        assert!(trace.totals().is_empty());
    }
}
