//! Hierarchical span profiling: *where* the time goes, not just how much.
//!
//! A span is one timed phase of work — a whole engine step, the browser
//! executing an action, the server rendering a page — with a parent link
//! to the span it ran inside of. Spans ride on the existing
//! [`SinkHandle`](crate::sink::SinkHandle): opening one on the shared
//! span stack and closing it emits a single
//! [`Event::SpanClosed`](crate::event::Event::SpanClosed) into whatever
//! sink the handle carries, so span streams inherit every property of the
//! event layer (JSONL recording, flight-recorder analysis, diffing).
//!
//! Three rules keep the layer inside the determinism contract:
//!
//! 1. **Opt-in.** A handle carries span state only after
//!    [`SinkHandle::with_spans`](crate::sink::SinkHandle::with_spans);
//!    by default every span call is a single `Option` check and a
//!    return, so uninstrumented runs pay nothing.
//! 2. **Virtual time only.** Spans carry virtual-clock milliseconds, so
//!    a span stream is a pure function of `(app, crawler, seed, config)`
//!    — byte-identical across reruns, thread counts, and scheduler
//!    orders.
//! 3. **Ids are allocation order.** Span ids count up from 1 per span
//!    state (0 is "no parent"), so the id sequence is as deterministic
//!    as the instrumentation call sequence itself.
//!
//! [`PhaseTotals`] is the always-on counterpart: a fixed set of leaf
//! phases whose virtual milliseconds partition a crawl's elapsed time
//! exactly. The browser accumulates it unconditionally (a few float adds
//! per navigation), the engine folds it into the `CrawlReport`, the
//! flight recorder rebuilds it from the event stream, and `regress`
//! holds the per-app totals to an exact golden.

use serde::{Deserialize, Serialize};

/// The phase taxonomy: what kind of work a span timed.
///
/// `Step` and `ExecuteAction` are umbrella phases (they contain other
/// spans); the rest are leaves. Leaf phases `PolicyChoose`, `Render`,
/// `Think`, `ExtractInteractables`, and `Backoff` partition a crawl's
/// virtual time exactly — see [`PhaseTotals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// One whole engine step (`Session::step`): policy charge through
    /// coverage sampling. Umbrella.
    Step,
    /// The modeled cost of the crawler deciding what to do next — the
    /// per-step policy-overhead charge.
    PolicyChoose,
    /// Exp3.1 drawing an arm (instantaneous in virtual time; the charge
    /// is accounted under [`Phase::PolicyChoose`]).
    BanditChoose,
    /// Exp3.1 folding a reward in (instantaneous in virtual time).
    RewardUpdate,
    /// The browser executing one interactable (link, button, or form).
    /// Umbrella over `Render`/`Think`/`ExtractInteractables`/`Backoff`.
    ExecuteAction,
    /// Server-side page production plus network: the jittered base
    /// latency, redirect hops, and fault waits.
    Render,
    /// The fixed client think/parse charge per fetched page.
    Think,
    /// Per-element interactable extraction on the fetched page.
    ExtractInteractables,
    /// Retry backoff after a retryable fault.
    Backoff,
}

impl Phase {
    /// Every phase, in declaration order.
    pub const ALL: [Phase; 9] = [
        Phase::Step,
        Phase::PolicyChoose,
        Phase::BanditChoose,
        Phase::RewardUpdate,
        Phase::ExecuteAction,
        Phase::Render,
        Phase::Think,
        Phase::ExtractInteractables,
        Phase::Backoff,
    ];

    /// The stable string form carried in events, metric labels, and
    /// blessed gate files.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Step => "Step",
            Phase::PolicyChoose => "PolicyChoose",
            Phase::BanditChoose => "BanditChoose",
            Phase::RewardUpdate => "RewardUpdate",
            Phase::ExecuteAction => "ExecuteAction",
            Phase::Render => "Render",
            Phase::Think => "Think",
            Phase::ExtractInteractables => "ExtractInteractables",
            Phase::Backoff => "Backoff",
        }
    }

    /// Parses the string form back; `None` for unknown phases (a newer
    /// trace read by an older analyzer).
    pub fn parse(s: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == s)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A handle to an open span, returned by
/// [`SinkHandle::span_open`](crate::sink::SinkHandle::span_open) and
/// consumed by `span_close`. The inert token (from a handle without span
/// state) makes the close a no-op.
#[derive(Debug)]
#[must_use = "an open span must be closed"]
pub struct SpanToken {
    pub(crate) id: u64,
    pub(crate) parent: u64,
    pub(crate) phase: Phase,
    pub(crate) start_ms: f64,
}

impl SpanToken {
    /// The token every span call on a span-less handle returns.
    pub(crate) const INERT: SpanToken =
        SpanToken { id: 0, parent: 0, phase: Phase::Step, start_ms: 0.0 };

    /// Whether this token refers to a real open span.
    pub fn is_active(&self) -> bool {
        self.id != 0
    }
}

/// The per-handle span bookkeeping: the id allocator, the open-span
/// stack (for parent links), and the latched "now" used by
/// instrumentation sites that have no clock of their own (Exp3.1).
#[derive(Debug, Default)]
pub(crate) struct SpanState {
    next_id: u64,
    stack: Vec<u64>,
    now_ms: f64,
}

impl SpanState {
    /// Allocates the next span id (ids start at 1; 0 means "no parent").
    pub(crate) fn open(&mut self, start_ms: f64) -> (u64, u64) {
        self.next_id += 1;
        let id = self.next_id;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        self.now_ms = self.now_ms.max(start_ms);
        (id, parent)
    }

    /// Pops `id` off the stack, tolerating mismatched nesting (an
    /// early-returned frame that closed out of order must not poison
    /// later parents).
    pub(crate) fn close(&mut self, id: u64, end_ms: f64) {
        while let Some(top) = self.stack.pop() {
            if top == id {
                break;
            }
        }
        self.now_ms = self.now_ms.max(end_ms);
    }

    /// Allocates an id for a leaf span without pushing it on the stack.
    pub(crate) fn leaf(&mut self, end_ms: f64) -> (u64, u64) {
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.now_ms = self.now_ms.max(end_ms);
        (self.next_id, parent)
    }

    /// The latched virtual time (for clock-less emitters).
    pub(crate) fn now_ms(&self) -> f64 {
        self.now_ms
    }

    /// `(next_id, now_ms)` for checkpointing. Only meaningful between
    /// steps, when the open-span stack is empty — the id allocator and
    /// latched clock are all that must survive a restore for post-resume
    /// `SpanClosed` events to be byte-identical.
    pub(crate) fn snapshot(&self) -> (u64, f64) {
        debug_assert!(self.stack.is_empty(), "snapshot with open spans");
        (self.next_id, self.now_ms)
    }

    /// Rebuilds the allocator mid-run with an empty stack.
    pub(crate) fn restore(next_id: u64, now_ms: f64) -> Self {
        SpanState { next_id, stack: Vec::new(), now_ms }
    }

    /// Latches the virtual time.
    pub(crate) fn set_now(&mut self, t_ms: f64) {
        self.now_ms = t_ms;
    }
}

/// Always-on per-phase virtual-time totals for one crawl.
///
/// The five buckets partition the virtual clock exactly: every
/// `clock.advance` in the browser/engine is attributed to exactly one of
/// them, so `total_ms()` equals the run's elapsed virtual milliseconds
/// (up to float summation order). Accumulated unconditionally — a few
/// float adds per navigation — so the breakdown is available in every
/// `CrawlReport`, cached cells included.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTotals {
    /// [`Phase::PolicyChoose`]: per-decision policy overhead.
    pub policy_ms: f64,
    /// [`Phase::Render`]: base latency, redirect hops, fault waits.
    pub render_ms: f64,
    /// [`Phase::Think`]: fixed client think/parse charge.
    pub think_ms: f64,
    /// [`Phase::ExtractInteractables`]: per-element extraction cost.
    pub extract_ms: f64,
    /// [`Phase::Backoff`]: retry backoff after retryable faults.
    pub backoff_ms: f64,
}

impl PhaseTotals {
    /// Sum over all buckets.
    pub fn total_ms(&self) -> f64 {
        self.policy_ms + self.render_ms + self.think_ms + self.extract_ms + self.backoff_ms
    }

    /// `(phase, ms)` rows in a fixed order, keyed by [`Phase::as_str`].
    pub fn rows(&self) -> [(Phase, f64); 5] {
        [
            (Phase::PolicyChoose, self.policy_ms),
            (Phase::Render, self.render_ms),
            (Phase::Think, self.think_ms),
            (Phase::ExtractInteractables, self.extract_ms),
            (Phase::Backoff, self.backoff_ms),
        ]
    }

    /// The bucket's share of the total, in `[0, 1]` (0.0 on an empty
    /// profile).
    pub fn share(&self, phase: Phase) -> f64 {
        let total = self.total_ms();
        if total <= 0.0 {
            return 0.0;
        }
        self.rows().iter().find(|(p, _)| *p == phase).map_or(0.0, |(_, ms)| ms / total)
    }

    /// Folds another profile in (bench-side aggregation across cells).
    pub fn add(&mut self, other: &PhaseTotals) {
        self.policy_ms += other.policy_ms;
        self.render_ms += other.render_ms;
        self.think_ms += other.think_ms;
        self.extract_ms += other.extract_ms;
        self.backoff_ms += other.backoff_ms;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_strings_round_trip() {
        for phase in Phase::ALL {
            assert_eq!(Phase::parse(phase.as_str()), Some(phase));
            assert_eq!(phase.to_string(), phase.as_str());
        }
        assert_eq!(Phase::parse("NotAPhase"), None);
    }

    #[test]
    fn span_state_links_parents_by_stack() {
        let mut s = SpanState::default();
        let (step, root) = s.open(0.0);
        assert_eq!((step, root), (1, 0));
        let (child, parent) = s.open(1.0);
        assert_eq!((child, parent), (2, 1));
        let (leaf, leaf_parent) = s.leaf(2.0);
        assert_eq!((leaf, leaf_parent), (3, 2));
        s.close(child, 3.0);
        let (leaf2, leaf2_parent) = s.leaf(3.0);
        assert_eq!(leaf2_parent, step, "after closing the child, leaves hang off the step");
        assert_eq!(leaf2, 4);
        s.close(step, 4.0);
        assert_eq!(s.now_ms(), 4.0);
    }

    #[test]
    fn mismatched_close_unwinds_to_the_target() {
        let mut s = SpanState::default();
        let (outer, _) = s.open(0.0);
        let (_inner, _) = s.open(1.0);
        // Closing the outer span with the inner still open (an early
        // return skipped the inner close) unwinds both.
        s.close(outer, 2.0);
        let (_, parent) = s.leaf(3.0);
        assert_eq!(parent, 0, "stack fully unwound");
    }

    #[test]
    fn totals_partition_and_share() {
        let mut t = PhaseTotals {
            policy_ms: 10.0,
            render_ms: 50.0,
            think_ms: 30.0,
            extract_ms: 10.0,
            backoff_ms: 0.0,
        };
        assert_eq!(t.total_ms(), 100.0);
        assert!((t.share(Phase::Render) - 0.5).abs() < 1e-12);
        assert_eq!(t.share(Phase::Backoff), 0.0);
        assert_eq!(PhaseTotals::default().share(Phase::Render), 0.0);
        let other = PhaseTotals { backoff_ms: 5.0, ..PhaseTotals::default() };
        t.add(&other);
        assert_eq!(t.backoff_ms, 5.0);
        assert_eq!(t.total_ms(), 105.0);
    }

    #[test]
    fn totals_round_trip_through_json() {
        let t = PhaseTotals {
            policy_ms: 1.5,
            render_ms: 2.5,
            think_ms: 3.5,
            extract_ms: 4.5,
            backoff_ms: 0.0,
        };
        let json = serde_json::to_string(&t).unwrap();
        let back: PhaseTotals = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
