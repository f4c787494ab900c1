//! Chrome / Perfetto `trace_events` export of span streams.
//!
//! [`PerfettoTrace`] folds [`Event::SpanClosed`] records into the JSON
//! object format both `chrome://tracing` and [ui.perfetto.dev] load
//! directly: a top-level `traceEvents` array of *complete* events
//! (`"ph": "X"`) with microsecond `ts`/`dur`, plus a `process_name`
//! metadata record. Timestamps are virtual-clock milliseconds scaled to
//! microseconds, so the file is byte-deterministic whenever the source
//! stream is (same contract as the JSONL trace itself).
//!
//! Nesting falls out of timing alone: Perfetto stacks events on one
//! track by containment, which matches the parent links produced by
//! [`crate::sink::SinkHandle::span_open`]'s stack discipline — a child
//! span always closes before its parent and lies inside its parent's
//! `[ts, ts + dur]` window. The raw `id`/`parent` links are still
//! carried in `args` for tooling that wants them.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev

use serde::Value;

use crate::event::Event;

/// Accumulates span-close records and renders the `trace_events` JSON.
#[derive(Debug, Clone)]
pub struct PerfettoTrace {
    /// Label for the `process_name` metadata record.
    process_name: String,
    /// One entry per closed span, in arrival order.
    spans: Vec<SpanRow>,
}

#[derive(Debug, Clone)]
struct SpanRow {
    id: u64,
    parent: u64,
    phase: String,
    t_ms: f64,
    dur_ms: f64,
}

impl PerfettoTrace {
    /// Creates an empty trace; `process_name` labels the single process
    /// row in the Perfetto UI (e.g. `"phpbb2 / mak / seed 0"`).
    pub fn new(process_name: impl Into<String>) -> Self {
        PerfettoTrace { process_name: process_name.into(), spans: Vec::new() }
    }

    /// Records `event` if it is a span close; every other kind is
    /// ignored, so a whole trace stream can be fed through unchanged.
    pub fn push(&mut self, event: &Event) {
        if let Event::SpanClosed { id, parent, phase, t_ms, dur_ms } = event {
            self.spans.push(SpanRow {
                id: *id,
                parent: *parent,
                phase: phase.clone(),
                t_ms: *t_ms,
                dur_ms: *dur_ms,
            });
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders the `{"traceEvents": [...], "displayTimeUnit": "ms"}`
    /// object. Every span becomes a complete event (`"ph": "X"`) on
    /// pid 1 / tid 1 with `ts`/`dur` in microseconds.
    pub fn to_value(&self) -> Value {
        let mut events = Vec::with_capacity(self.spans.len() + 1);
        events.push(Value::Object(vec![
            ("name".into(), Value::Str("process_name".into())),
            ("ph".into(), Value::Str("M".into())),
            ("pid".into(), Value::UInt(1)),
            ("tid".into(), Value::UInt(1)),
            (
                "args".into(),
                Value::Object(vec![("name".into(), Value::Str(self.process_name.clone()))]),
            ),
        ]));
        for span in &self.spans {
            events.push(Value::Object(vec![
                ("name".into(), Value::Str(span.phase.clone())),
                ("cat".into(), Value::Str("mak".into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::Float(span.t_ms * 1000.0)),
                ("dur".into(), Value::Float(span.dur_ms * 1000.0)),
                ("pid".into(), Value::UInt(1)),
                ("tid".into(), Value::UInt(1)),
                (
                    "args".into(),
                    Value::Object(vec![
                        ("id".into(), Value::UInt(span.id)),
                        ("parent".into(), Value::UInt(span.parent)),
                    ]),
                ),
            ]));
        }
        Value::Object(vec![
            ("traceEvents".into(), Value::Array(events)),
            ("displayTimeUnit".into(), Value::Str("ms".into())),
        ])
    }

    /// Renders the trace as a JSON string (one line, stable field order).
    pub fn to_json(&self) -> String {
        serde_json::to_string(&self.to_value()).expect("perfetto trace serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, phase: &str, t_ms: f64, dur_ms: f64) -> Event {
        Event::SpanClosed { id, parent, phase: phase.into(), t_ms, dur_ms }
    }

    #[test]
    fn non_span_events_are_ignored() {
        let mut trace = PerfettoTrace::new("test");
        for event in Event::samples() {
            trace.push(&event);
        }
        // Exactly one sample is a SpanClosed.
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn output_matches_the_trace_events_shape() {
        let mut trace = PerfettoTrace::new("phpbb2 / mak / seed 0");
        trace.push(&span(1, 0, "Step", 0.0, 1500.0));
        trace.push(&span(2, 1, "Render", 2.0, 100.0));
        let text = trace.to_json();
        let value = serde_json::from_str::<Value>(&text).expect("parses back");

        assert_eq!(value.get("displayTimeUnit"), Some(&Value::Str("ms".into())));
        let events = match value.get("traceEvents") {
            Some(Value::Array(events)) => events,
            other => panic!("traceEvents missing or not an array: {other:?}"),
        };
        assert_eq!(events.len(), 3, "metadata record + two spans");

        // Metadata record first.
        assert_eq!(events[0].get("ph"), Some(&Value::Str("M".into())));
        assert_eq!(events[0].get("name"), Some(&Value::Str("process_name".into())));
        let meta_args = events[0].get("args").expect("metadata args");
        assert_eq!(meta_args.get("name"), Some(&Value::Str("phpbb2 / mak / seed 0".into())));

        // Spans are complete events with µs timestamps and span links.
        for event in &events[1..] {
            assert_eq!(event.get("ph"), Some(&Value::Str("X".into())));
            assert_eq!(event.get("cat"), Some(&Value::Str("mak".into())));
            assert_eq!(event.get("pid"), Some(&Value::UInt(1)));
            assert_eq!(event.get("tid"), Some(&Value::UInt(1)));
            assert!(matches!(event.get("ts"), Some(Value::Float(_))));
            assert!(matches!(event.get("dur"), Some(Value::Float(_))));
        }
        assert_eq!(events[2].get("name"), Some(&Value::Str("Render".into())));
        assert_eq!(events[2].get("ts"), Some(&Value::Float(2000.0)));
        assert_eq!(events[2].get("dur"), Some(&Value::Float(100_000.0)));
        let args = events[2].get("args").expect("span args");
        assert_eq!(args.get("id"), Some(&Value::UInt(2)));
        assert_eq!(args.get("parent"), Some(&Value::UInt(1)));
    }

    #[test]
    fn child_spans_nest_inside_their_parents_window() {
        // The stack discipline means containment carries the hierarchy;
        // assert the invariant the Perfetto UI relies on.
        let mut trace = PerfettoTrace::new("nesting");
        trace.push(&span(2, 1, "Render", 10.0, 40.0));
        trace.push(&span(1, 0, "Step", 0.0, 100.0));
        let value = trace.to_value();
        let events = match value.get("traceEvents") {
            Some(Value::Array(events)) => events.clone(),
            _ => unreachable!(),
        };
        let (child, parent) = (&events[1], &events[2]);
        let ts = |e: &Value| match e.get("ts") {
            Some(Value::Float(v)) => *v,
            _ => panic!("ts"),
        };
        let dur = |e: &Value| match e.get("dur") {
            Some(Value::Float(v)) => *v,
            _ => panic!("dur"),
        };
        assert!(ts(child) >= ts(parent));
        assert!(ts(child) + dur(child) <= ts(parent) + dur(parent));
    }

    #[test]
    fn empty_trace_still_renders_valid_json() {
        let trace = PerfettoTrace::new("empty");
        assert!(trace.is_empty());
        let value = serde_json::from_str::<Value>(&trace.to_json()).expect("parses");
        match value.get("traceEvents") {
            Some(Value::Array(events)) => assert_eq!(events.len(), 1),
            _ => panic!("traceEvents missing"),
        }
    }
}
