//! The flight recorder: folding one run's event stream into an
//! analysis-ready report.
//!
//! [`FlightRecorder`] is an [`EventSink`] (attach it live) that doubles as
//! an offline analyzer (feed it a recorded trace via
//! [`crate::trace::TraceIter`]). It folds the stream into a
//! [`FlightReport`] carrying the trajectories the paper's §V-C/§V-D
//! analyses need, regenerable from a trace file alone:
//!
//! - **arm-usage timeline** — every bandit arm choice with the virtual
//!   time it was made at;
//! - **coverage waterfall** — `(t, lines)` after every step, annotated
//!   with Exp3.1 epoch advances;
//! - **cost breakdown** — virtual milliseconds per leaf phase
//!   ([`PhaseTotals`]), folded from the charges the events carry; for a
//!   whole run it equals `CrawlReport.phase` bit for bit;
//! - **reward distribution per arm** — count/mean/min/max of the rewards
//!   each arm earned;
//! - **deque-depth trajectory** — leveled-deque occupancy over time.
//!
//! The `match` in [`FlightRecorder::on_event`] is deliberately
//! wildcard-free: adding an [`Event`] variant without deciding how the
//! analyzer treats it is a compile error, not a silent gap (the
//! workspace's observability tests additionally assert every variant of
//! [`Event::ALL_KINDS`] is folded).

use crate::event::Event;
use crate::sink::EventSink;
use crate::span::PhaseTotals;
use std::collections::BTreeMap;

/// Running min/max/mean of the rewards one arm earned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardStats {
    /// Number of samples folded in.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample seen.
    pub min: f64,
    /// Largest sample seen.
    pub max: f64,
}

impl Default for RewardStats {
    fn default() -> Self {
        RewardStats { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }
}

impl RewardStats {
    /// Folds one sample in.
    pub fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// One bandit arm choice on the virtual timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ArmChoice {
    /// Virtual milliseconds at the step the choice was made in.
    pub t_ms: f64,
    /// The chosen arm label.
    pub arm: String,
}

/// One point of the coverage waterfall.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoveragePoint {
    /// Virtual milliseconds.
    pub t_ms: f64,
    /// Server-side lines covered.
    pub lines: u64,
}

/// One Exp3.1 epoch advance, as a waterfall annotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochMark {
    /// Virtual milliseconds at the step the advance happened in.
    pub t_ms: f64,
    /// The epoch advanced *to*.
    pub epoch: u32,
    /// The new exploration rate.
    pub gamma: f64,
}

/// One point of the deque-depth trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DequePoint {
    /// Virtual milliseconds.
    pub t_ms: f64,
    /// Total deque occupancy.
    pub len: u64,
}

/// Aggregate statistics for one span phase — one row of the "where the
/// time goes" table.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseStat {
    /// Spans of this phase closed.
    pub count: u64,
    /// Total duration, in ms (virtual inside a crawl).
    pub total_ms: f64,
}

/// Everything [`FlightRecorder`] extracts from one run's event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlightReport {
    /// Application name (from `RunStarted`; empty if the trace lacks one).
    pub app: String,
    /// Crawler name.
    pub crawler: String,
    /// Run seed.
    pub seed: u64,
    /// Virtual budget in milliseconds.
    pub budget_ms: f64,
    /// Total events folded in.
    pub events: u64,
    /// Events per variant kind (sorted by kind).
    pub events_per_kind: BTreeMap<&'static str, u64>,
    /// Completed steps.
    pub steps: u64,
    /// Final interaction count.
    pub interactions: u64,
    /// Final covered lines.
    pub lines: u64,
    /// Final distinct-URL count.
    pub distinct_urls: u64,
    /// Virtual clock at the end of the stream (ms).
    pub elapsed_ms: f64,
    /// Pages fetched.
    pub pages: u64,
    /// Redirect hops followed.
    pub redirects: u64,
    /// Coverage-growing requests observed server-side.
    pub coverage_deltas: u64,
    /// Faults injected by the fault layer (0 on zero-fault traces).
    pub faults_injected: u64,
    /// Retries scheduled after retryable faults.
    pub retries: u64,
    /// Navigations that recovered after at least one fault.
    pub fault_recoveries: u64,
    /// Exp3.1 policy updates completed.
    pub policy_updates: u64,
    /// `SessionResumed` markers seen — 0 for an uninterrupted run, ≥ 1
    /// for a stream recorded after checkpoint/restore.
    pub resumes: u64,
    /// Virtual-budget attribution per leaf phase, folded in event order
    /// so it matches the browser's own `PhaseTotals` bit for bit.
    pub cost: PhaseTotals,
    /// Every bandit arm choice, in order.
    pub arm_timeline: Vec<ArmChoice>,
    /// `(t, lines)` after every step, deduplicated to coverage changes
    /// (first and last step points always kept).
    pub coverage_waterfall: Vec<CoveragePoint>,
    /// Exp3.1 epoch advances on the virtual timeline.
    pub epoch_advances: Vec<EpochMark>,
    /// Reward distribution per acting arm.
    pub rewards_per_arm: BTreeMap<String, RewardStats>,
    /// Deque occupancy after each reporting step.
    pub deque_trajectory: Vec<DequePoint>,
    /// Largest deque occupancy seen.
    pub deque_peak: u64,
    /// Per-phase span statistics (sorted by phase label; empty on
    /// traces recorded without span collection — renderers omit the
    /// section instead of erroring).
    pub span_phases: BTreeMap<String, PhaseStat>,
}

impl FlightReport {
    /// Arm-usage counts over `slices` equal windows of the elapsed time:
    /// one `(window start ms, arm → choices)` row per window. Windows are
    /// right-open; choices at exactly the end land in the last window.
    ///
    /// # Panics
    ///
    /// Panics if `slices` is zero.
    pub fn arm_usage_slices(&self, slices: usize) -> Vec<(f64, BTreeMap<String, u64>)> {
        assert!(slices > 0, "need at least one slice");
        let horizon = if self.elapsed_ms > 0.0 { self.elapsed_ms } else { 1.0 };
        let width = horizon / slices as f64;
        let mut out: Vec<(f64, BTreeMap<String, u64>)> =
            (0..slices).map(|i| (i as f64 * width, BTreeMap::new())).collect();
        for choice in &self.arm_timeline {
            let idx = ((choice.t_ms / width) as usize).min(slices - 1);
            *out[idx].1.entry(choice.arm.clone()).or_insert(0) += 1;
        }
        out
    }

    /// All arm labels seen, sorted.
    pub fn arms(&self) -> Vec<&str> {
        let mut arms: Vec<&str> =
            self.rewards_per_arm.keys().map(String::as_str).collect::<Vec<_>>();
        for choice in &self.arm_timeline {
            if !arms.contains(&choice.arm.as_str()) {
                arms.push(&choice.arm);
            }
        }
        arms.sort_unstable();
        arms
    }
}

/// Folds an event stream into a [`FlightReport`]. Works attached to a
/// live run (it is an [`EventSink`]) or offline over a recorded trace.
#[derive(Debug, Clone, Default)]
pub struct FlightRecorder {
    report: FlightReport,
    /// Virtual time of the most recent step boundary, used to timestamp
    /// events that do not carry their own clock reading.
    now_ms: f64,
}

impl FlightRecorder {
    /// A fresh recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes folding and returns the report.
    pub fn into_report(self) -> FlightReport {
        self.report
    }

    /// The report folded so far.
    pub fn report(&self) -> &FlightReport {
        &self.report
    }

    /// Appends a waterfall point only when coverage actually changed;
    /// plateaus stay implicit until `RunFinished` closes the curve.
    fn push_coverage(&mut self, t_ms: f64, lines: u64) {
        if self.report.coverage_waterfall.last().is_none_or(|last| last.lines != lines) {
            self.report.coverage_waterfall.push(CoveragePoint { t_ms, lines });
        }
    }
}

impl EventSink for FlightRecorder {
    fn on_event(&mut self, event: &Event) {
        let r = &mut self.report;
        r.events += 1;
        *r.events_per_kind.entry(event.kind()).or_insert(0) += 1;
        // Wildcard-free on purpose: a new Event variant must be given an
        // analyzer meaning here before the crate compiles again.
        match event {
            Event::RunStarted { app, crawler, seed, budget_ms } => {
                r.app = app.clone();
                r.crawler = crawler.clone();
                r.seed = *seed;
                r.budget_ms = *budget_ms;
            }
            Event::SessionResumed { app, crawler, seed, step, t_ms } => {
                // A resumed stream carries its identity here instead of in
                // `RunStarted`; splice it in and pick the clock up where
                // the checkpoint left it. Steps before the resume point are
                // not in this stream, so seed the step counter too.
                r.app = app.clone();
                r.crawler = crawler.clone();
                r.seed = *seed;
                r.resumes += 1;
                r.steps = r.steps.max(*step);
                self.now_ms = *t_ms;
                r.elapsed_ms = *t_ms;
            }
            Event::StepStarted { t_ms, policy_ms, .. } => {
                self.now_ms = *t_ms;
                r.cost.policy_ms += policy_ms;
            }
            Event::ActionChosen { arm, .. } => {
                r.arm_timeline.push(ArmChoice { t_ms: self.now_ms, arm: arm.clone() });
            }
            Event::PageFetched { fetch_ms, think_ms, interact_ms, .. } => {
                r.pages += 1;
                r.cost.render_ms += fetch_ms;
                r.cost.think_ms += think_ms;
                r.cost.extract_ms += interact_ms;
            }
            Event::RedirectFollowed { fetch_ms, .. } => {
                r.redirects += 1;
                r.cost.render_ms += fetch_ms;
            }
            Event::CoverageDelta { .. } => {
                r.coverage_deltas += 1;
            }
            Event::RewardComputed { action, reward, .. } => {
                r.rewards_per_arm.entry(action.clone()).or_default().record(*reward);
            }
            Event::PolicyUpdated { .. } => {
                r.policy_updates += 1;
            }
            Event::EpochAdvanced { epoch, gamma } => {
                r.epoch_advances.push(EpochMark {
                    t_ms: self.now_ms,
                    epoch: *epoch,
                    gamma: *gamma,
                });
            }
            Event::DequeDepth { len, .. } => {
                r.deque_trajectory.push(DequePoint { t_ms: self.now_ms, len: *len });
                r.deque_peak = r.deque_peak.max(*len);
            }
            Event::StepFinished { t_ms, interactions, lines, distinct_urls, .. } => {
                self.now_ms = *t_ms;
                r.steps += 1;
                r.interactions = *interactions;
                r.lines = *lines;
                r.distinct_urls = *distinct_urls;
                r.elapsed_ms = *t_ms;
                let (t, l) = (*t_ms, *lines);
                self.push_coverage(t, l);
            }
            Event::RunFinished { t_ms, interactions, lines, .. } => {
                self.now_ms = *t_ms;
                r.interactions = *interactions;
                r.lines = *lines;
                r.elapsed_ms = *t_ms;
                // Close the waterfall at the actual end of the run, so a
                // trailing plateau is visible and the curve spans the
                // whole crawl.
                if r.coverage_waterfall.last().is_none_or(|last| last.t_ms < *t_ms) {
                    r.coverage_waterfall.push(CoveragePoint { t_ms: *t_ms, lines: *lines });
                }
            }
            Event::FaultInjected { wait_ms, .. } => {
                r.faults_injected += 1;
                // A failed attempt's wait is network time down the drain,
                // which the browser books under Render.
                r.cost.render_ms += wait_ms;
            }
            Event::RetryScheduled { backoff_ms, .. } => {
                r.retries += 1;
                r.cost.backoff_ms += backoff_ms;
            }
            Event::FaultRecovered { .. } => r.fault_recoveries += 1,
            Event::SpanClosed { phase, dur_ms, .. } => {
                let stat = r.span_phases.entry(phase.clone()).or_default();
                stat.count += 1;
                stat.total_ms += dur_ms;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fold(events: &[Event]) -> FlightReport {
        let mut rec = FlightRecorder::new();
        for e in events {
            rec.on_event(e);
        }
        rec.into_report()
    }

    fn step_finished(step: u64, t_ms: f64, lines: u64) -> Event {
        Event::StepFinished {
            step,
            t_ms,
            action: "Head".into(),
            reward: Some(0.5),
            interactions: step + 1,
            lines,
            distinct_urls: 2 * (step + 1),
        }
    }

    #[test]
    fn folds_identity_and_trajectories() {
        let events = vec![
            Event::RunStarted {
                app: "phpbb2".into(),
                crawler: "mak".into(),
                seed: 7,
                budget_ms: 60_000.0,
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
            Event::RewardComputed { step: 0, action: "Head".into(), reward: 0.5 },
            Event::DequeDepth { len: 7, levels: vec![3, 4] },
            step_finished(0, 1_472.0, 40),
            Event::StepStarted { step: 1, t_ms: 1_472.0, policy_ms: 2.0 },
            Event::ActionChosen { arm: "Tail".into(), probs: vec![0.3, 0.4, 0.3] },
            Event::EpochAdvanced { epoch: 1, gamma: 0.5 },
            step_finished(1, 3_000.0, 40),
            Event::RunFinished { t_ms: 3_100.0, steps: 2, interactions: 2, lines: 40 },
        ];
        let r = fold(&events);
        assert_eq!((r.app.as_str(), r.crawler.as_str(), r.seed), ("phpbb2", "mak", 7));
        assert_eq!(r.events, events.len() as u64);
        assert_eq!(r.steps, 2);
        assert_eq!(r.events_per_kind["StepFinished"], 2);
        assert_eq!(
            r.arm_timeline,
            vec![
                ArmChoice { t_ms: 0.0, arm: "Head".into() },
                ArmChoice { t_ms: 1_472.0, arm: "Tail".into() },
            ]
        );
        // Waterfall: first step point kept, flat second step folded away,
        // end pinned at RunFinished time.
        assert_eq!(
            r.coverage_waterfall,
            vec![
                CoveragePoint { t_ms: 1_472.0, lines: 40 },
                CoveragePoint { t_ms: 3_100.0, lines: 40 },
            ]
        );
        assert_eq!(r.epoch_advances, vec![EpochMark { t_ms: 1_472.0, epoch: 1, gamma: 0.5 }]);
        assert_eq!(r.deque_trajectory, vec![DequePoint { t_ms: 0.0, len: 7 }]);
        assert_eq!(r.deque_peak, 7);
        assert_eq!(r.cost.policy_ms, 4.0);
        assert_eq!((r.cost.render_ms, r.cost.think_ms, r.cost.extract_ms), (100.0, 1_350.0, 20.0));
        assert!((r.cost.total_ms() - (4.0 + 100.0 + 1_350.0 + 20.0)).abs() < 1e-9);
        assert_eq!(r.rewards_per_arm["Head"].count, 1);
        assert_eq!(r.arms(), vec!["Head", "Tail"]);
    }

    #[test]
    fn reward_stats_track_extremes_and_mean() {
        let mut s = RewardStats::default();
        s.record(0.2);
        s.record(0.8);
        assert_eq!(s.count, 2);
        assert!((s.mean() - 0.5).abs() < 1e-12);
        assert_eq!((s.min, s.max), (0.2, 0.8));
        assert_eq!(RewardStats::default().mean(), 0.0);
    }

    #[test]
    fn arm_usage_slices_bucket_choices() {
        let mut r = FlightReport { elapsed_ms: 100.0, ..Default::default() };
        r.arm_timeline = vec![
            ArmChoice { t_ms: 10.0, arm: "Head".into() },
            ArmChoice { t_ms: 40.0, arm: "Tail".into() },
            ArmChoice { t_ms: 90.0, arm: "Head".into() },
            ArmChoice { t_ms: 100.0, arm: "Head".into() },
        ];
        let slices = r.arm_usage_slices(2);
        assert_eq!(slices.len(), 2);
        assert_eq!(slices[0].0, 0.0);
        assert_eq!(slices[0].1["Head"], 1);
        assert_eq!(slices[0].1["Tail"], 1);
        assert_eq!(slices[1].1["Head"], 2, "end-of-horizon choice lands in the last slice");
    }

    #[test]
    fn waterfall_keeps_only_coverage_changes() {
        let events = vec![
            step_finished(0, 100.0, 10),
            step_finished(1, 200.0, 10),
            step_finished(2, 300.0, 25),
            Event::RunFinished { t_ms: 400.0, steps: 3, interactions: 3, lines: 25 },
        ];
        let r = fold(&events);
        assert_eq!(
            r.coverage_waterfall,
            vec![
                CoveragePoint { t_ms: 100.0, lines: 10 },
                CoveragePoint { t_ms: 300.0, lines: 25 },
                CoveragePoint { t_ms: 400.0, lines: 25 },
            ],
            "flat step folded away; RunFinished closes the trailing plateau"
        );
    }

    #[test]
    fn empty_stream_folds_to_default() {
        let r = fold(&[]);
        assert_eq!(r, FlightReport::default());
    }
}
