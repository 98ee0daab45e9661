//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! operation it belongs to. Spans stay in memory while the workload runs and
//! are written out as JSON lines when it ends. A recorder built disabled
//! keeps nothing, so the untraced run pays only the clock reads it already
//! makes.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// Identifies a recorded span; 0 means "no span".
pub type SpanId = u64;

/// One recorded interval, in nanoseconds since the recorder was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: SpanId,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records `[start, end]` under a reserved `id` (0 allocates a fresh
    /// one) and returns the id.
    pub fn record(
        &mut self,
        id: SpanId,
        parent: SpanId,
        op: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let id = if id == 0 { self.reserve() } else { id };
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns: at(start),
            end_ns: at(end).max(at(start)),
        });
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once, and the parts
/// of a child outside its parent's interval are ignored.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Total self time per span name, in nanoseconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let own = self_times(spans);
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += own[&s.id];
    }
    by_name
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // 1 [0, 100] ⊃ 2 [10, 60] ⊃ 3 [20, 30]; 1 ⊃ 4 [70, 90].
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 2, 20, 30),
            span(4, 1, 70, 90),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&1], 100 - 50 - 20);
        assert_eq!(own[&2], 50 - 10);
        assert_eq!(own[&3], 10);
        assert_eq!(own[&4], 20);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10, 50] and [30, 80] cover [10, 80]: 70 of 100.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 50), span(3, 1, 30, 80)];
        assert_eq!(self_times(&spans)[&1], 30);
        // A child reaching past its parent only covers the shared part.
        let spans = [span(1, 0, 0, 100), span(2, 1, 90, 150), span(3, 1, 20, 40)];
        assert_eq!(self_times(&spans)[&1], 100 - 10 - 20);
        // A child contained in another adds nothing.
        let spans = [span(1, 0, 0, 100), span(2, 1, 0, 100), span(3, 1, 40, 60)];
        assert_eq!(self_times(&spans)[&1], 0);
    }

    #[test]
    fn disabled_tracer_keeps_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.record(0, 0, 1, "x", now, now), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_are_written_as_json_lines() {
        let mut t = Tracer::new(true);
        let op = t.reserve();
        let now = Instant::now();
        let child = t.record(0, op, 7, "child", now, now);
        t.record(op, 0, 7, "op", now, now);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(&format!("{{\"id\":{child},\"parent\":{op},\"op\":7,")));
        assert_eq!(self_time_by_name(t.spans()).len(), 2);
    }
}
