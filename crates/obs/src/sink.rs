//! Sinks: where events go.
//!
//! [`SinkHandle`] is the one handle type: `Arc<Mutex<_>>`-based,
//! cloneable and `Send + Sync`, for the per-run path (engine → browser →
//! host → crawler → policy all share one handle). Each crawl session
//! owns its handle exclusively, so the mutex is uncontended; it exists so
//! a `mak::framework::session::Session` holding the handle can migrate
//! between scheduler worker threads. It defaults to inert; `emit_with`
//! is lazy so an inert handle costs one `Option` check per call site.
//!
//! Concrete sinks: [`JsonlSink`] (one event per line, deterministic
//! because events carry only virtual time), [`VecSink`] (buffering, for
//! tests and collectors), the private fan-out behind
//! [`SinkHandle::fanout`], plus [`crate::flight::FlightRecorder`].

use crate::event::Event;
use crate::span::{Phase, SpanState, SpanToken};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// A consumer of [`Event`]s. Implementations must not feed anything back
/// into crawl state — sinks observe, they never steer.
pub trait EventSink {
    /// Consume one event.
    fn on_event(&mut self, event: &Event);
}

/// A cloneable, possibly-inert handle to a per-run sink.
///
/// The default handle is inert: `is_active()` is `false` and both emit
/// methods are no-ops. All crawl-path emission sites go through
/// [`SinkHandle::emit_with`] so that event construction is skipped when
/// nobody listens. The handle is `Send + Sync` so that a crawl session
/// owning one can migrate between scheduler worker threads; within a
/// run the handle is never contended, so the mutex lock is a plain
/// uncontended atomic.
#[derive(Clone, Default)]
pub struct SinkHandle {
    inner: Option<Arc<Mutex<dyn EventSink + Send>>>,
    /// Hierarchical-span bookkeeping, present only after
    /// [`SinkHandle::with_spans`]. Clones share it, so every
    /// instrumentation site holding a clone of one run's handle links
    /// its spans into one tree. `None` by default: every span method is
    /// then a single branch, keeping uninstrumented runs at zero cost.
    spans: Option<Arc<Mutex<SpanState>>>,
}

impl SinkHandle {
    /// The inert handle: every emit is a no-op.
    pub fn none() -> Self {
        SinkHandle { inner: None, spans: None }
    }

    /// Wraps a sink, consuming it. Use [`SinkHandle::shared`] when the
    /// sink must be read back after the run.
    pub fn new<S: EventSink + Send + 'static>(sink: S) -> Self {
        SinkHandle { inner: Some(Arc::new(Mutex::new(sink))), spans: None }
    }

    /// Wraps a sink and also returns the shared cell so the caller can
    /// inspect it after the run (handles cloned into crawlers may
    /// outlive the run, so sole-ownership unwrapping is not an option).
    pub fn shared<S: EventSink + Send + 'static>(sink: S) -> (Self, Arc<Mutex<S>>) {
        let cell = Arc::new(Mutex::new(sink));
        let dynamic: Arc<Mutex<dyn EventSink + Send>> = cell.clone();
        (SinkHandle { inner: Some(dynamic), spans: None }, cell)
    }

    /// Fans one stream out to every given handle (inert ones are
    /// dropped; an all-inert fanout collapses to the inert handle).
    /// Span state is not carried over — call [`SinkHandle::with_spans`]
    /// on the result to profile a fanned-out run.
    pub fn fanout(handles: Vec<SinkHandle>) -> Self {
        let live: Vec<SinkHandle> = handles.into_iter().filter(SinkHandle::is_active).collect();
        match live.len() {
            0 => SinkHandle::none(),
            1 => live.into_iter().next().expect("len checked"),
            _ => SinkHandle::new(Fanout { targets: live }),
        }
    }

    /// Whether a sink is attached.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Enables hierarchical span collection on this handle (see
    /// [`crate::span`]). A no-op on an inert handle — spans without a
    /// sink would have nowhere to go. Clones made *after* this call
    /// share the span stack; instrumentation sites holding such clones
    /// link their spans into one tree per run.
    pub fn with_spans(mut self) -> Self {
        if self.inner.is_some() {
            self.spans = Some(Arc::new(Mutex::new(SpanState::default())));
        }
        self
    }

    /// Whether span collection is enabled.
    pub fn spans_active(&self) -> bool {
        self.spans.is_some()
    }

    /// The span allocator's `(next_id, latched now_ms)`, for
    /// checkpointing; `None` without span collection. Call only between
    /// steps, when no span is open.
    pub fn span_snapshot(&self) -> Option<(u64, f64)> {
        let state = self.spans.as_ref()?;
        let guard = match state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Some(guard.snapshot())
    }

    /// Enables span collection with the allocator seeded from a
    /// checkpoint, so ids continue exactly where the interrupted run's
    /// left off and post-resume `SpanClosed` events are byte-identical
    /// to the uninterrupted run's. A no-op on an inert handle, like
    /// [`SinkHandle::with_spans`].
    pub fn with_spans_restored(mut self, next_id: u64, now_ms: f64) -> Self {
        if self.inner.is_some() {
            self.spans = Some(Arc::new(Mutex::new(SpanState::restore(next_id, now_ms))));
        }
        self
    }

    /// Opens a span of `phase` starting at virtual `start_ms`, nested
    /// under the innermost open span. Returns the token to pass to
    /// [`SinkHandle::span_close`]; inert (span-less) handles return an
    /// inert token and the whole pair is two branches.
    pub fn span_open(&self, phase: Phase, start_ms: f64) -> SpanToken {
        let Some(state) = &self.spans else { return SpanToken::INERT };
        let mut guard = match state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let (id, parent) = guard.open(start_ms);
        SpanToken { id, parent, phase, start_ms }
    }

    /// Closes an open span at virtual `end_ms`, emitting one
    /// [`Event::SpanClosed`]. Tolerates out-of-order closes (the stack
    /// unwinds to the token) and inert tokens (no-op).
    pub fn span_close(&self, token: SpanToken, end_ms: f64) {
        if !token.is_active() {
            return;
        }
        if let Some(state) = &self.spans {
            let mut guard = match state.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.close(token.id, end_ms);
        }
        self.emit_with(|| Event::SpanClosed {
            id: token.id,
            parent: token.parent,
            phase: token.phase.as_str().to_owned(),
            t_ms: token.start_ms,
            dur_ms: (end_ms - token.start_ms).max(0.0),
        });
    }

    /// Emits a leaf span (`[start_ms, start_ms + dur_ms]`) under the
    /// innermost open span, without touching the stack — the form the
    /// browser uses for the arithmetic sub-intervals of one cost charge.
    pub fn span_leaf(&self, phase: Phase, start_ms: f64, dur_ms: f64) {
        let Some(state) = &self.spans else { return };
        let (id, parent) = {
            let mut guard = match state.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.leaf(start_ms + dur_ms)
        };
        self.emit_with(|| Event::SpanClosed {
            id,
            parent,
            phase: phase.as_str().to_owned(),
            t_ms: start_ms,
            dur_ms,
        });
    }

    /// Emits a zero-duration span at the latched virtual time — for
    /// instrumentation sites with no clock of their own (Exp3.1).
    pub fn span_instant(&self, phase: Phase) {
        let Some(state) = &self.spans else { return };
        let (id, parent, now) = {
            let mut guard = match state.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let now = guard.now_ms();
            let (id, parent) = guard.leaf(now);
            (id, parent, now)
        };
        self.emit_with(|| Event::SpanClosed {
            id,
            parent,
            phase: phase.as_str().to_owned(),
            t_ms: now,
            dur_ms: 0.0,
        });
    }

    /// Latches the virtual clock for [`SinkHandle::span_instant`]
    /// emitters. Clock holders call this after advancing.
    pub fn span_set_now(&self, t_ms: f64) {
        let Some(state) = &self.spans else { return };
        let mut guard = match state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        guard.set_now(t_ms);
    }

    /// Emits an already-built event.
    pub fn emit(&self, event: Event) {
        if let Some(sink) = &self.inner {
            deliver(sink, &event);
        }
    }

    /// Emits lazily: `make` runs only when a sink is attached. This is
    /// the form every crawl-path call site uses, so the no-sink cost is
    /// a single branch.
    pub fn emit_with<F: FnOnce() -> Event>(&self, make: F) {
        if let Some(sink) = &self.inner {
            let event = make();
            deliver(sink, &event);
        }
    }
}

/// Locks a sink cell and delivers one event, tolerating poison: a
/// panicked emitter on some other session must not cascade into this
/// one's observability.
fn deliver(sink: &Arc<Mutex<dyn EventSink + Send>>, event: &Event) {
    let mut guard = match sink.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    };
    guard.on_event(event);
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.is_active() { "SinkHandle(active)" } else { "SinkHandle(inert)" })
    }
}

/// Duplicates every event into each target handle.
struct Fanout {
    targets: Vec<SinkHandle>,
}

impl EventSink for Fanout {
    fn on_event(&mut self, event: &Event) {
        for target in &self.targets {
            if let Some(sink) = &target.inner {
                deliver(sink, event);
            }
        }
    }
}

/// Writes one JSON object per line. Streams are bit-identical across
/// reruns of the same `(app, crawler, seed, config)` because events
/// carry only virtual-clock time.
///
/// I/O errors are latched (first one wins) rather than panicking
/// mid-crawl; callers check [`JsonlSink::error`] after the run.
pub struct JsonlSink<W: Write> {
    out: W,
    lines: u64,
    error: Option<std::io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps any writer (a `BufWriter<File>`, a `Vec<u8>`, …).
    pub fn new(out: W) -> Self {
        JsonlSink { out, lines: 0, error: None }
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// The first I/O error hit, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the writer; the second element is the latched
    /// error, if any.
    pub fn finish(mut self) -> (W, Option<std::io::Error>) {
        if self.error.is_none() {
            if let Err(e) = self.out.flush() {
                self.error = Some(e);
            }
        }
        (self.out, self.error)
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn on_event(&mut self, event: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(event).expect("Event serializes");
        let write = self.out.write_all(line.as_bytes()).and_then(|()| self.out.write_all(b"\n"));
        match write {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Buffers every event in order. The workhorse of the determinism tests
/// and of in-process analyses (`mak-cli profile`, the testkit oracles).
#[derive(Debug, Default)]
pub struct VecSink {
    events: Vec<Event>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events seen so far, in emission order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

impl EventSink for VecSink {
    fn on_event(&mut self, event: &Event) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step(step: u64) -> Event {
        Event::StepStarted { step, t_ms: step as f64 * 10.0, policy_ms: 2.0 }
    }

    #[test]
    fn sink_handle_is_send_and_sync() {
        // Crawl sessions own a SinkHandle and migrate between scheduler
        // worker threads; the handle must therefore be Send + Sync.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SinkHandle>();
    }

    #[test]
    fn handle_crosses_threads_with_its_session() {
        let (handle, cell) = SinkHandle::shared(VecSink::new());
        let moved = handle.clone();
        std::thread::spawn(move || moved.emit(step(7))).join().unwrap();
        handle.emit(step(8));
        assert_eq!(cell.lock().unwrap().events(), &[step(7), step(8)]);
    }

    #[test]
    fn inert_handle_never_builds_the_event() {
        let handle = SinkHandle::none();
        assert!(!handle.is_active());
        handle.emit_with(|| panic!("must not be called"));
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let (handle, cell) = SinkHandle::shared(VecSink::new());
        for i in 0..3 {
            handle.emit(step(i));
        }
        let events = cell.lock().unwrap().events().to_vec();
        assert_eq!(events, vec![step(0), step(1), step(2)]);
    }

    #[test]
    fn fanout_duplicates_and_collapses() {
        let (a, cell_a) = SinkHandle::shared(VecSink::new());
        let (b, cell_b) = SinkHandle::shared(VecSink::new());
        let fan = SinkHandle::fanout(vec![a, SinkHandle::none(), b]);
        fan.emit(step(1));
        assert_eq!(cell_a.lock().unwrap().events().len(), 1);
        assert_eq!(cell_b.lock().unwrap().events().len(), 1);
        assert!(!SinkHandle::fanout(vec![SinkHandle::none()]).is_active());
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.on_event(&step(0));
        sink.on_event(&step(1));
        assert_eq!(sink.lines(), 2);
        let (bytes, err) = sink.finish();
        assert!(err.is_none());
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        for line in text.lines() {
            let _: Event = serde_json::from_str(line).expect("each line parses");
        }
    }

    #[test]
    fn spans_are_inert_unless_enabled() {
        // Without with_spans(), every span method is a no-op branch:
        // no events, inert tokens, nothing to unwind.
        let (handle, cell) = SinkHandle::shared(VecSink::new());
        assert!(!handle.spans_active());
        let token = handle.span_open(Phase::Step, 0.0);
        assert!(!token.is_active());
        handle.span_leaf(Phase::Render, 0.0, 10.0);
        handle.span_instant(Phase::BanditChoose);
        handle.span_close(token, 50.0);
        assert!(cell.lock().unwrap().events().is_empty());

        // with_spans() on an inert handle stays inert.
        assert!(!SinkHandle::none().with_spans().spans_active());
    }

    #[test]
    fn spans_nest_and_emit_on_close() {
        let (handle, cell) = SinkHandle::shared(VecSink::new());
        let handle = handle.with_spans();
        assert!(handle.spans_active());

        let outer = handle.span_open(Phase::Step, 0.0);
        handle.span_leaf(Phase::PolicyChoose, 0.0, 2.0);
        let inner = handle.span_open(Phase::ExecuteAction, 2.0);
        handle.span_close(inner, 40.0);
        handle.span_close(outer, 50.0);

        let events = cell.lock().unwrap().events().to_vec();
        let spans: Vec<(u64, u64, String, f64, f64)> = events
            .iter()
            .map(|e| match e {
                Event::SpanClosed { id, parent, phase, t_ms, dur_ms } => {
                    (*id, *parent, phase.clone(), *t_ms, *dur_ms)
                }
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        // Children close (and emit) before their parents; ids are
        // allocated in open order, parents follow the stack.
        assert_eq!(
            spans,
            vec![
                (2, 1, "PolicyChoose".into(), 0.0, 2.0),
                (3, 1, "ExecuteAction".into(), 2.0, 38.0),
                (1, 0, "Step".into(), 0.0, 50.0),
            ]
        );
    }

    #[test]
    fn clones_share_one_span_tree() {
        let (handle, cell) = SinkHandle::shared(VecSink::new());
        let handle = handle.with_spans();
        let clone = handle.clone();

        let outer = handle.span_open(Phase::Step, 0.0);
        clone.span_leaf(Phase::Render, 0.0, 5.0); // nested via the clone
        handle.span_close(outer, 10.0);

        let events = cell.lock().unwrap().events().to_vec();
        match &events[0] {
            Event::SpanClosed { id, parent, .. } => {
                assert_eq!((*id, *parent), (2, 1), "clone's leaf nests under the open span");
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn span_instant_uses_the_latched_clock() {
        let (handle, cell) = SinkHandle::shared(VecSink::new());
        let handle = handle.with_spans();
        handle.span_set_now(123.5);
        handle.span_instant(Phase::RewardUpdate);
        let events = cell.lock().unwrap().events().to_vec();
        match &events[0] {
            Event::SpanClosed { phase, t_ms, dur_ms, .. } => {
                assert_eq!(phase, "RewardUpdate");
                assert_eq!(*t_ms, 123.5);
                assert_eq!(*dur_ms, 0.0);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
