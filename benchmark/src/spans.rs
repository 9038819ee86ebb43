//! Spans recorded by the benchmark around its calls into the program.
//!
//! Nothing inside the program is instrumented: a span is two `Instant`s the
//! benchmark took around one public call. Spans are kept in memory and
//! written once, at exit, as Chrome trace-event JSON (Perfetto opens it).

use std::time::Instant;

use crate::json::{obj, Value};

/// Index of a span within its [`Spans`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Identifier shared by every span of one workload pass.
    pub trace: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &str,
        trace: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            trace,
            parent,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        });
        self.spans.len() - 1
    }

    /// Extends a recorded span's end (a parent closed after its children).
    pub fn close(&mut self, id: SpanId, end: Instant) {
        let end = end.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = &mut self.spans[id];
        span.end_ns = end.max(span.start_ns);
    }

    pub fn get(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn children(&self, id: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// A span's duration minus the part its children cover. Children of one
    /// parent never overlap here (the benchmark is sequential), so this is
    /// a plain subtraction.
    pub fn self_secs(&self, id: SpanId) -> f64 {
        self.spans[id].secs() - self.children(id).map(Span::secs).sum::<f64>()
    }

    pub fn to_chrome_trace(&self) -> Value {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("name", Value::from(s.name.as_str())),
                    ("ph", "X".into()),
                    ("ts", (s.start_ns as f64 / 1e3).into()),
                    ("dur", ((s.end_ns - s.start_ns) as f64 / 1e3).into()),
                    ("pid", 1u64.into()),
                    ("tid", s.trace.into()),
                    (
                        "args",
                        obj([
                            ("span", Value::from(id)),
                            ("trace", s.trace.into()),
                            ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ]),
                    ),
                ])
            })
            .collect::<Vec<_>>();
        obj([
            ("traceEvents", Value::Arr(events)),
            ("displayTimeUnit", "ms".into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = spans.record("root", 7, None, at(0), at(0));
        spans.record("a", 7, Some(root), at(0), at(30));
        spans.record("b", 7, Some(root), at(30), at(90));
        spans.close(root, at(100));
        assert!((spans.get(root).secs() - 0.100).abs() < 1e-9);
        assert!((spans.self_secs(root) - 0.010).abs() < 1e-9);
        assert_eq!(spans.children(root).count(), 2);
        let trace = spans.to_chrome_trace();
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(
            events[2]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(root as f64)
        );
    }
}
