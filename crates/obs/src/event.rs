//! The event taxonomy: one externally tagged enum, every variant a
//! named-field struct so the vendored `serde_derive` (no attributes, no
//! tuple variants) can round-trip it.
//!
//! Emission sites, in stack order:
//!
//! | variant | emitted by |
//! |---|---|
//! | `RunStarted` / `RunFinished` | `mak::framework::engine` |
//! | `StepStarted` / `RewardComputed` / `StepFinished` | `mak::framework::engine` |
//! | `ActionChosen` / `DequeDepth` | `mak::mak::{crawler,ensemble}` |
//! | `PolicyUpdated` / `EpochAdvanced` | `mak_bandit::exp31` |
//! | `PageFetched` / `RedirectFollowed` | `mak_browser::client` |
//! | `CoverageDelta` | `mak_websim::server::AppHost` |
//! | `FaultInjected` / `RetryScheduled` / `FaultRecovered` | `mak_browser::client` (fault layer) |
//! | `SpanClosed` | every span-instrumented site (see [`crate::span`]) |
//!
//! Every event describes one crawl, and every `t_ms` / `*_ms` field is
//! **virtual-clock** milliseconds: the taxonomy has no wall-clock field.
//! Harness cost (cache lookups, per-cell wall time) is plain data
//! returned by the matrix runner, never an event.

use serde::{Deserialize, Serialize};

/// A structured observation from somewhere in the stack.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A crawl began: identity of the cell plus the virtual budget.
    RunStarted { app: String, crawler: String, seed: u64, budget_ms: f64 },
    /// A checkpointed crawl resumed mid-run: identity of the cell plus
    /// where the restored session picks up. Emitted *instead of*
    /// `RunStarted` by a restored session, so a resumed JSONL stream is
    /// `SessionResumed` followed by exactly the events the uninterrupted
    /// run would have produced from `step` onward.
    SessionResumed { app: String, crawler: String, seed: u64, step: u64, t_ms: f64 },
    /// The engine is about to run step `step`; `policy_ms` is the
    /// virtual policy-overhead charge made before the step.
    StepStarted { step: u64, t_ms: f64, policy_ms: f64 },
    /// A MAK-family crawler chose deque arm `arm` under the current
    /// arm distribution `probs` (indexed Head, Tail, Random).
    ActionChosen { arm: String, probs: Vec<f64> },
    /// The browser fetched an HTML page. Cost is split into the three
    /// cost-model buckets; their sum is exactly what the virtual clock
    /// was charged.
    PageFetched {
        url: String,
        status: u16,
        fetch_ms: f64,
        think_ms: f64,
        interact_ms: f64,
        elements: u64,
    },
    /// The browser followed one redirect hop toward `url`.
    RedirectFollowed { url: String, fetch_ms: f64 },
    /// Server-side line coverage grew to `lines` (by `delta`) while
    /// handling request number `request`.
    CoverageDelta { request: u64, lines: u64, delta: u64 },
    /// The engine observed reward `reward` for `action` at step `step`.
    RewardComputed { step: u64, action: String, reward: f64 },
    /// Exp3.1 finished an importance-weighted update. `updates` counts
    /// completed updates, `max_gain` is max Ĝᵢ, `bound` the
    /// epoch-termination bound g_m − K/γ_m; weights are summarized by
    /// their extremes so sinks can check finiteness/positivity.
    PolicyUpdated {
        probs: Vec<f64>,
        gamma: f64,
        epoch: u32,
        updates: u64,
        max_gain: f64,
        bound: f64,
        min_weight: f64,
        max_weight: f64,
    },
    /// Exp3.1 advanced to `epoch` (new exploration rate `gamma`).
    EpochAdvanced { epoch: u32, gamma: f64 },
    /// Leveled-deque occupancy after a step: total and per-level.
    DequeDepth { len: u64, levels: Vec<u64> },
    /// A step completed. `t_ms` is the virtual clock after the step;
    /// `lines` is server-side coverage, `distinct_urls` the crawler's
    /// count. `reward` is `None` for steps that performed no rewarded
    /// interaction.
    StepFinished {
        step: u64,
        t_ms: f64,
        action: String,
        reward: Option<f64>,
        interactions: u64,
        lines: u64,
        distinct_urls: u64,
    },
    /// The crawl ended (budget exhausted or crawler finished).
    RunFinished { t_ms: f64, steps: u64, interactions: u64, lines: u64 },
    /// The fault layer injected a fault of `kind` while handling `url`;
    /// `wait_ms` is the virtual time the failed attempt wasted (0 for
    /// session expiry, which proceeds anonymously).
    FaultInjected { kind: String, url: String, wait_ms: f64 },
    /// A retryable fault scheduled retry number `attempt` after a
    /// capped-exponential backoff of `backoff_ms` virtual milliseconds.
    RetryScheduled { attempt: u64, backoff_ms: f64 },
    /// A navigation succeeded after `attempts` failed attempts.
    FaultRecovered { attempts: u64 },
    /// A profiling span closed (see [`crate::span`]): work of `phase`
    /// ran `[t_ms, t_ms + dur_ms]` nested under span `parent` (0 = no
    /// parent). Ids count up from 1 in allocation order. Times are
    /// virtual-clock ms.
    SpanClosed { id: u64, parent: u64, phase: String, t_ms: f64, dur_ms: f64 },
}

impl Event {
    /// Every variant name, in declaration order. Paired with
    /// [`Event::samples`] and the wildcard-free matches in
    /// [`Event::kind`] and `flight::FlightRecorder`, this is the
    /// exhaustiveness contract: a variant added without analyzer support
    /// fails to compile (the matches) or fails the workspace
    /// observability tests (this list).
    pub const ALL_KINDS: [&'static str; 17] = [
        "RunStarted",
        "SessionResumed",
        "StepStarted",
        "ActionChosen",
        "PageFetched",
        "RedirectFollowed",
        "CoverageDelta",
        "RewardComputed",
        "PolicyUpdated",
        "EpochAdvanced",
        "DequeDepth",
        "StepFinished",
        "RunFinished",
        "FaultInjected",
        "RetryScheduled",
        "FaultRecovered",
        "SpanClosed",
    ];

    /// One synthetic sample of every variant, in [`Event::ALL_KINDS`]
    /// order — test scaffolding for exhaustiveness guards and sink tests.
    pub fn samples() -> Vec<Event> {
        vec![
            Event::RunStarted {
                app: "app".into(),
                crawler: "mak".into(),
                seed: 1,
                budget_ms: 60_000.0,
            },
            Event::SessionResumed {
                app: "app".into(),
                crawler: "mak".into(),
                seed: 1,
                step: 4,
                t_ms: 6_000.0,
            },
            Event::StepStarted { step: 0, t_ms: 0.0, policy_ms: 2.0 },
            Event::ActionChosen { arm: "Head".into(), probs: vec![0.4, 0.3, 0.3] },
            Event::PageFetched {
                url: "http://a/".into(),
                status: 200,
                fetch_ms: 100.0,
                think_ms: 1_350.0,
                interact_ms: 20.0,
                elements: 10,
            },
            Event::RedirectFollowed { url: "http://a/b".into(), fetch_ms: 50.0 },
            Event::CoverageDelta { request: 1, lines: 40, delta: 40 },
            Event::RewardComputed { step: 0, action: "Head".into(), reward: 0.5 },
            Event::PolicyUpdated {
                probs: vec![0.4, 0.3, 0.3],
                gamma: 0.5,
                epoch: 1,
                updates: 1,
                max_gain: 1.0,
                bound: 10.0,
                min_weight: 1.0,
                max_weight: 2.0,
            },
            Event::EpochAdvanced { epoch: 2, gamma: 0.25 },
            Event::DequeDepth { len: 7, levels: vec![3, 4] },
            Event::StepFinished {
                step: 0,
                t_ms: 1_500.0,
                action: "Head".into(),
                reward: Some(0.5),
                interactions: 1,
                lines: 40,
                distinct_urls: 2,
            },
            Event::RunFinished { t_ms: 1_500.0, steps: 1, interactions: 1, lines: 40 },
            Event::FaultInjected {
                kind: "Timeout".into(),
                url: "http://a/slow".into(),
                wait_ms: 2_200.0,
            },
            Event::RetryScheduled { attempt: 1, backoff_ms: 500.0 },
            Event::FaultRecovered { attempts: 1 },
            Event::SpanClosed {
                id: 2,
                parent: 1,
                phase: "Render".into(),
                t_ms: 2.0,
                dur_ms: 100.0,
            },
        ]
    }

    /// The variant name, e.g. `"StepFinished"` — handy for counting and
    /// for asserting on JSONL streams.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::RunStarted { .. } => "RunStarted",
            Event::SessionResumed { .. } => "SessionResumed",
            Event::StepStarted { .. } => "StepStarted",
            Event::ActionChosen { .. } => "ActionChosen",
            Event::PageFetched { .. } => "PageFetched",
            Event::RedirectFollowed { .. } => "RedirectFollowed",
            Event::CoverageDelta { .. } => "CoverageDelta",
            Event::RewardComputed { .. } => "RewardComputed",
            Event::PolicyUpdated { .. } => "PolicyUpdated",
            Event::EpochAdvanced { .. } => "EpochAdvanced",
            Event::DequeDepth { .. } => "DequeDepth",
            Event::StepFinished { .. } => "StepFinished",
            Event::RunFinished { .. } => "RunFinished",
            Event::FaultInjected { .. } => "FaultInjected",
            Event::RetryScheduled { .. } => "RetryScheduled",
            Event::FaultRecovered { .. } => "FaultRecovered",
            Event::SpanClosed { .. } => "SpanClosed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::RunStarted {
                app: "phpbb2".into(),
                crawler: "mak".into(),
                seed: 7,
                budget_ms: 1_800_000.0,
            },
            Event::ActionChosen { arm: "Head".into(), probs: vec![0.4, 0.3, 0.3] },
            Event::StepFinished {
                step: 3,
                t_ms: 4_500.5,
                action: "Head".into(),
                reward: Some(0.25),
                interactions: 4,
                lines: 120,
                distinct_urls: 9,
            },
            Event::StepFinished {
                step: 4,
                t_ms: 6_000.0,
                action: "Tail".into(),
                reward: None,
                interactions: 4,
                lines: 120,
                distinct_urls: 9,
            },
        ];
        for ev in &events {
            let json = serde_json::to_string(ev).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, ev, "round trip of {json}");
        }
    }

    #[test]
    fn samples_cover_every_kind_in_order() {
        let kinds: Vec<&str> = Event::samples().iter().map(Event::kind).collect();
        assert_eq!(kinds, Event::ALL_KINDS, "one sample per variant, declaration order");
        for ev in Event::samples() {
            let json = serde_json::to_string(&ev).unwrap();
            let back: Event = serde_json::from_str(&json).unwrap();
            assert_eq!(back, ev, "sample round trip of {json}");
        }
    }

    #[test]
    fn kind_matches_serialized_tag() {
        let ev = Event::EpochAdvanced { epoch: 2, gamma: 0.5 };
        let json = serde_json::to_string(&ev).unwrap();
        assert!(json.contains("\"EpochAdvanced\""), "{json}");
        assert_eq!(ev.kind(), "EpochAdvanced");
    }
}
