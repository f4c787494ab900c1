//! The event-level invariant oracle.
//!
//! [`InvariantOracle`] implements [`EventSink`] and checks the
//! observability event stream of a run (attach with
//! [`run_crawl_with_sink`](mak::framework::engine::run_crawl_with_sink)):
//!
//! - **Monotonicity** — virtual clock, server-side covered lines,
//!   browser interaction count, and the crawler's distinct-URL count never
//!   decrease (from `StepStarted`/`StepFinished`). A `SessionResumed`
//!   marker re-baselines these checks: a crash-recovery splice
//!   legitimately rewinds to the last durable checkpoint before
//!   re-executing, and monotonicity is enforced afresh from there.
//! - **URL-normalization idempotence** — every fetched or redirected URL
//!   (emitted in canonical form) re-parses to itself, the link-coverage
//!   accounting identity (from `PageFetched`/`RedirectFollowed`).
//! - **Reward sanity** — rewards are finite; bandit-crawler rewards lie
//!   in `[0, 1]` (the Exp3.1 precondition; a run is known to be
//!   bandit-driven once it emits `ActionChosen`).
//! - **Leveled-deque consistency** — `DequeDepth::len` equals the sum of
//!   its per-level lengths.
//! - **Exp3.1 distribution validity** — the arm distribution is a simplex
//!   (sums to 1, entries in `[0, 1]`), respects the `γ/K` exploration
//!   floor, all weights stay finite and positive, and the maximum
//!   estimated gain never exceeds the epoch-termination bound
//!   `g_m − K/γ_m` (from `ActionChosen`/`PolicyUpdated`; the bound is
//!   the invariant that breaks when epoch advancement is broken).
//!
//! Violations are recorded, not panicked, so the fuzz driver can shrink
//! the failing case and write a replayable artifact.

use mak_obs::event::Event;
use mak_obs::sink::EventSink;
use mak_websim::url::Url;
use serde::{Deserialize, Serialize};

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Zero-based index of the step during which the violation was seen
    /// (0 for violations detected outside a step, e.g. differential
    /// mismatches).
    pub step: u64,
    /// Short invariant identifier, e.g. `"exp31-epoch-bound"`.
    pub invariant: String,
    /// Human-readable details with the observed values.
    pub details: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[step {}] {}: {}", self.step, self.invariant, self.details)
    }
}

/// Maximum violations kept per run; a broken invariant usually fails on
/// every subsequent step, and one witness per kind is all shrinking needs.
const MAX_VIOLATIONS: usize = 16;

/// The event-stream invariant checker. Attach one per run via
/// [`SinkHandle::shared`](mak_obs::sink::SinkHandle::shared).
#[derive(Debug, Default)]
pub struct InvariantOracle {
    /// Current step index, tracked from `StepStarted` so every event in
    /// between is attributed to the step it happened in.
    step: u64,
    /// Set once the run emits `ActionChosen`: the crawler is bandit-driven
    /// and its rewards must satisfy the Exp3.1 `[0, 1]` precondition.
    bandit_run: bool,
    last_t_ms: f64,
    last_lines: u64,
    last_urls: u64,
    last_interactions: u64,
    violations: Vec<Violation>,
}

impl InvariantOracle {
    /// A fresh oracle for one run.
    pub fn new() -> Self {
        Self::default()
    }

    /// All violations recorded so far, in detection order.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    fn fail(&mut self, invariant: &str, details: String) {
        if self.violations.len() < MAX_VIOLATIONS {
            self.violations.push(Violation {
                step: self.step,
                invariant: invariant.to_owned(),
                details,
            });
        }
    }

    fn check_clock(&mut self, t_ms: f64) {
        if t_ms < self.last_t_ms {
            self.fail("clock-monotone", format!("elapsed {t_ms}ms after {}ms", self.last_t_ms));
        }
        self.last_t_ms = t_ms;
    }

    /// URL-normalization idempotence: the canonical form must re-parse to
    /// itself, or link-coverage accounting would split one resource into
    /// several.
    fn check_url(&mut self, url: &str) {
        match url.parse::<Url>() {
            Ok(u) if u.normalized() == url => {}
            Ok(u) => self.fail(
                "url-normalization-idempotent",
                format!("normalized({url}) reparses to {}", u.normalized()),
            ),
            Err(e) => self.fail(
                "url-normalization-idempotent",
                format!("normalized form {url} does not reparse: {e}"),
            ),
        }
    }

    /// The arm distribution must be a valid simplex.
    fn check_simplex(&mut self, probs: &[f64]) {
        let sum: f64 = probs.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            self.fail("arm-simplex-sum", format!("probabilities sum to {sum}"));
        }
        if probs.iter().any(|p| !p.is_finite() || *p < 0.0 || *p > 1.0 + 1e-12) {
            self.fail("arm-simplex-range", format!("probabilities {probs:?}"));
        }
    }

    fn check_reward(&mut self, reward: f64) {
        if !reward.is_finite() {
            self.fail("reward-finite", format!("reward {reward}"));
        } else if self.bandit_run && !(0.0..=1.0).contains(&reward) {
            // Bandit rewards feed Exp3.1, whose analysis requires [0, 1].
            self.fail("mak-reward-range", format!("reward {reward} outside [0, 1]"));
        }
    }
}

impl EventSink for InvariantOracle {
    fn on_event(&mut self, event: &Event) {
        match event {
            Event::StepStarted { step, t_ms, .. } => {
                self.step = *step;
                self.check_clock(*t_ms);
            }
            Event::SessionResumed { step, t_ms, .. } => {
                // A crash-recovery splice: the session restarts from its
                // last durable checkpoint, so any steps the pre-crash
                // portion of the stream ran *past* that checkpoint were
                // executed but never persisted — the clock and coverage
                // counters legitimately rewind here, and the post-resume
                // events re-execute them identically. Re-baseline the
                // continuity checks at the checkpoint instead of flagging
                // the rewind; monotonicity is enforced again from the
                // resume point on.
                self.step = *step;
                self.last_t_ms = *t_ms;
                self.last_lines = 0;
                self.last_interactions = 0;
                self.last_urls = 0;
            }
            Event::ActionChosen { probs, .. } => {
                self.bandit_run = true;
                self.check_simplex(probs);
            }
            Event::PageFetched { url, .. } | Event::RedirectFollowed { url, .. } => {
                self.check_url(url);
            }
            Event::RewardComputed { reward, .. } => self.check_reward(*reward),
            Event::DequeDepth { len, levels } => {
                // Leveled-deque consistency: the cached length must equal
                // the sum of the per-level lengths.
                let summed: u64 = levels.iter().sum();
                if summed != *len {
                    self.fail(
                        "deque-consistency",
                        format!("len() = {len} but levels sum to {summed}"),
                    );
                }
            }
            Event::PolicyUpdated {
                probs,
                gamma,
                updates,
                max_gain,
                bound,
                min_weight,
                max_weight,
                epoch,
            } => {
                let (gamma, updates, epoch) = (*gamma, *updates, *epoch);
                let (max_gain, bound) = (*max_gain, *bound);
                let (min_weight, max_weight) = (*min_weight, *max_weight);
                let floor = gamma / probs.len() as f64;
                let low = probs.iter().cloned().fold(f64::INFINITY, f64::min);
                // γ-smoothing guarantees every arm at least γ/K probability.
                if low < floor - 1e-12 {
                    self.fail(
                        "exp31-exploration-floor",
                        format!("min p = {low} below γ/K = {floor}"),
                    );
                }
                if !min_weight.is_finite() || !max_weight.is_finite() || min_weight <= 0.0 {
                    self.fail(
                        "exp31-weight-finite",
                        format!(
                            "weights span [{min_weight}, {max_weight}] \
                             (must be finite and positive)"
                        ),
                    );
                }
                // Line 9 of Algorithm 1: after every completed update the
                // maximum estimated gain must sit at or below the
                // epoch-termination bound, because `advance_epochs` runs
                // until it does. Only meaningful once at least one update
                // happened (fixed-arm baselines never touch the policy).
                if updates > 0 && max_gain > bound + 1e-9 {
                    self.fail(
                        "exp31-epoch-bound",
                        format!(
                            "max Ĝ = {max_gain} exceeds g_m − K/γ_m = {bound} \
                             (epoch {epoch}, {updates} updates)"
                        ),
                    );
                }
            }
            Event::StepFinished { t_ms, reward, interactions, lines, distinct_urls, .. } => {
                self.check_clock(*t_ms);
                if let Some(r) = reward {
                    self.check_reward(*r);
                }
                if *lines < self.last_lines {
                    self.fail(
                        "coverage-monotone",
                        format!("covered lines fell {} -> {lines}", self.last_lines),
                    );
                }
                self.last_lines = *lines;
                if *interactions < self.last_interactions {
                    self.fail(
                        "interactions-monotone",
                        format!(
                            "interaction count fell {} -> {interactions}",
                            self.last_interactions
                        ),
                    );
                }
                self.last_interactions = *interactions;
                if *distinct_urls < self.last_urls {
                    self.fail(
                        "distinct-urls-monotone",
                        format!("distinct URLs fell {} -> {distinct_urls}", self.last_urls),
                    );
                }
                self.last_urls = *distinct_urls;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::BlueprintSpec;
    use mak::framework::engine::{run_crawl_with_sink, EngineConfig};
    use mak::spec::build_crawler;
    use mak_obs::sink::SinkHandle;

    #[test]
    fn clean_crawlers_produce_no_violations() {
        let spec = BlueprintSpec::generate(3);
        let config = EngineConfig::with_budget_minutes(0.5);
        for crawler in ["mak", "bfs", "random", "webexplor"] {
            let mut c = build_crawler(crawler, 1).unwrap();
            let (sink, cell) = SinkHandle::shared(InvariantOracle::new());
            let report = run_crawl_with_sink(&mut *c, Box::new(spec.build()), &config, 1, &sink);
            assert!(report.interactions > 0, "{crawler} did something");
            let oracle = cell.lock().unwrap();
            assert!(oracle.violations().is_empty(), "{crawler}: {:?}", oracle.violations());
        }
    }

    #[test]
    fn injected_epoch_bug_is_caught() {
        use mak::mak::MakCrawler;
        let spec = BlueprintSpec::generate(3);
        let mut c = MakCrawler::new(1);
        c.policy_mut().as_exp31_mut().expect("mak uses Exp3.1").testing_disable_epoch_advance();
        let (sink, cell) = SinkHandle::shared(InvariantOracle::new());
        run_crawl_with_sink(
            &mut c,
            Box::new(spec.build()),
            &EngineConfig::with_budget_minutes(0.5),
            1,
            &sink,
        );
        let oracle = cell.lock().unwrap();
        assert!(
            oracle.violations().iter().any(|v| v.invariant == "exp31-epoch-bound"),
            "epoch-advance bug must trip the bound invariant: {:?}",
            oracle.violations()
        );
    }

    #[test]
    fn violations_are_capped() {
        use mak::mak::MakCrawler;
        let spec = BlueprintSpec::generate(3);
        let mut c = MakCrawler::new(1);
        c.policy_mut().as_exp31_mut().unwrap().testing_disable_epoch_advance();
        let (sink, cell) = SinkHandle::shared(InvariantOracle::new());
        run_crawl_with_sink(
            &mut c,
            Box::new(spec.build()),
            &EngineConfig::with_budget_minutes(2.0),
            1,
            &sink,
        );
        let oracle = cell.lock().unwrap();
        assert!(!oracle.violations().is_empty());
        assert!(oracle.violations().len() <= MAX_VIOLATIONS);
    }

    #[test]
    fn resume_marker_rebaselines_the_continuity_checks() {
        fn finished(t_ms: f64, lines: u64) -> Event {
            Event::StepFinished {
                step: 0,
                t_ms,
                action: "Head".into(),
                reward: None,
                interactions: lines,
                lines,
                distinct_urls: lines,
            }
        }
        let resumed = Event::SessionResumed {
            app: "phpbb2".into(),
            crawler: "mak".into(),
            seed: 1,
            step: 2,
            t_ms: 40.0,
        };

        // A crash-recovery splice: the pre-crash stream ran to t=90/120
        // lines, past the checkpoint at t=40; the resumed stream rewinds
        // there and re-runs. Legal — no violations.
        let mut oracle = InvariantOracle::new();
        oracle.on_event(&finished(90.0, 120));
        oracle.on_event(&resumed);
        oracle.on_event(&finished(60.0, 80));
        oracle.on_event(&finished(95.0, 130));
        assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());

        // The same rewind WITHOUT the marker is a violation.
        let mut oracle = InvariantOracle::new();
        oracle.on_event(&finished(90.0, 120));
        oracle.on_event(&finished(60.0, 80));
        let kinds: Vec<&str> = oracle.violations().iter().map(|v| v.invariant.as_str()).collect();
        assert!(kinds.contains(&"clock-monotone") && kinds.contains(&"coverage-monotone"));

        // And monotonicity is enforced again after the resume point.
        let mut oracle = InvariantOracle::new();
        oracle.on_event(&resumed);
        oracle.on_event(&finished(60.0, 80));
        oracle.on_event(&finished(50.0, 70));
        assert!(!oracle.violations().is_empty(), "post-resume rewinds still flagged");
    }

    #[test]
    fn oracle_flags_bad_synthetic_events() {
        let mut oracle = InvariantOracle::new();
        oracle.on_event(&Event::StepStarted { step: 0, t_ms: 100.0, policy_ms: 1.0 });
        oracle.on_event(&Event::StepStarted { step: 1, t_ms: 50.0, policy_ms: 1.0 });
        oracle.on_event(&Event::ActionChosen { arm: "Head".into(), probs: vec![0.9, 0.2] });
        oracle.on_event(&Event::DequeDepth { len: 5, levels: vec![1, 2] });
        oracle.on_event(&Event::RewardComputed { step: 1, action: "Head".into(), reward: 2.0 });
        let kinds: Vec<&str> = oracle.violations().iter().map(|v| v.invariant.as_str()).collect();
        assert_eq!(
            kinds,
            vec!["clock-monotone", "arm-simplex-sum", "deque-consistency", "mak-reward-range"]
        );
        assert!(oracle.violations().iter().skip(1).all(|v| v.step == 1), "attributed to step 1");
    }
}
