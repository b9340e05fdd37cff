//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions, written out as JSON when the run ends.
//!
//! A span has a name, a start and an end (nanoseconds since the
//! tracer's epoch), the index of its parent span, and the id of the
//! operation it belongs to; spans of one operation share that id.

use std::fmt::Write as _;
use std::time::Instant;

/// Spans kept per tracer; later spans are counted as dropped.
const MAX_SPANS: usize = 1 << 20;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index (for children), or
    /// `None` once the buffer is full.
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return None;
        }
        let span = Span {
            name,
            op,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&mut self, idx: Option<usize>) {
        let end = self.ns(Instant::now());
        if let Some(span) = idx.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = end;
        }
    }

    /// Time `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, op, parent, start, end);
        out
    }

    /// Append another tracer's spans (same epoch), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.dropped += other.dropped;
        for mut s in other.spans {
            if self.spans.len() >= MAX_SPANS {
                self.dropped += 1;
                continue;
            }
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn micros(&self, name: &str) -> crate::stats::Samples {
        let mut out = crate::stats::Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push(s.micros());
        }
        out
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"dropped\":{},\"spans\":[",
            self.dropped
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let t0 = Instant::now();
        let mut t = Tracer::new(t0);
        let root = t.open("op", 7, None);
        let v = t.time("child", 7, root, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
        assert_eq!(t.micros("child").len(), 1);
        let json = t.to_json("w", 3);
        assert!(json.contains("\"name\":\"child\",\"op\":7,\"parent\":0"));

        let mut other = Tracer::new(t0);
        let r = other.open("op", 8, None);
        other.time("child", 8, r, || ());
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
    }
}
