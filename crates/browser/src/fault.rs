//! Deterministic fault injection: the flaky-web simulation layer.
//!
//! Real deployments time out, rate-limit, drop connections, and expire
//! sessions; the paper's crawlers must keep crawling through all of it
//! (MAK's statelessness is explicitly motivated by tolerance to such
//! resets). A [`FaultPlan`] schedules those faults as a *pure function of
//! `(seed, decision index)`*: every decision hashes a splitmix64 counter
//! stream that is completely separate from the browser's cost-model RNG,
//! so enabling faults never perturbs the jitter stream, and
//! [`FaultPlan::none`] (the default) is bit-identical to a build without
//! this module.
//!
//! The taxonomy (see `DESIGN.md` §10):
//!
//! - [`FaultKind::Http5xx`] — transient server error, full round trip;
//! - [`FaultKind::RateLimit`] — 429, headers-only round trip;
//! - [`FaultKind::Timeout`] — the request hangs for
//!   [`FaultPlan::timeout_round_trips`] base latencies before giving up;
//! - [`FaultKind::ConnectionReset`] — dropped mid-navigation, half a
//!   round trip;
//! - [`FaultKind::SessionExpiry`] — the server forgets the cookie; the
//!   request itself proceeds anonymously (not an error);
//! - [`FaultKind::StaleElement`] — the interactable went stale before the
//!   request was even issued.
//!
//! Retryable faults are re-attempted under [`RetryPolicy`]: capped
//! exponential backoff, charged to the virtual clock.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient HTTP 5xx response.
    Http5xx,
    /// An HTTP 429 rate-limit response.
    RateLimit,
    /// A virtual-time request timeout.
    Timeout,
    /// The connection was reset mid-navigation.
    ConnectionReset,
    /// The server expired the crawler's session cookie.
    SessionExpiry,
    /// The targeted interactable went stale before execution.
    StaleElement,
}

impl FaultKind {
    /// The stable name used in event payloads and reports.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Http5xx => "Http5xx",
            FaultKind::RateLimit => "RateLimit",
            FaultKind::Timeout => "Timeout",
            FaultKind::ConnectionReset => "ConnectionReset",
            FaultKind::SessionExpiry => "SessionExpiry",
            FaultKind::StaleElement => "StaleElement",
        }
    }

    /// How many headers-only round trips a failed attempt of this kind
    /// wastes (multiplied by the app's base latency via
    /// [`crate::cost::CostModel::fault_wait_ms`]). Timeouts read their
    /// factor from the plan — waiting out a hung request is the expensive
    /// case.
    pub fn round_trips(&self, plan: &FaultPlan) -> f64 {
        match self {
            FaultKind::Http5xx => 1.0,
            FaultKind::RateLimit => 0.5,
            FaultKind::Timeout => plan.timeout_round_trips,
            FaultKind::ConnectionReset => 0.5,
            FaultKind::SessionExpiry => 0.0,
            FaultKind::StaleElement => 0.25,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Capped exponential backoff between retries of a transient fault, in
/// virtual milliseconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Attempts per navigation before the error surfaces to the crawler.
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff_ms: f64,
    /// Multiplier applied per additional retry.
    pub multiplier: f64,
    /// Upper bound on any single backoff.
    pub max_backoff_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_ms: 500.0,
            multiplier: 2.0,
            max_backoff_ms: 8_000.0,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retry number `attempt` (1-based).
    pub fn backoff_ms(&self, attempt: u32) -> f64 {
        let exp = self.multiplier.powi(attempt.saturating_sub(1) as i32);
        (self.base_backoff_ms * exp).min(self.max_backoff_ms)
    }
}

/// The per-run fault schedule: rates per kind plus the retry policy.
///
/// Part of `EngineConfig` (and therefore of the run-cache key), so a
/// faulty run can never be served from a clean run's cache entry. The
/// rates are per *decision*: each navigation attempt rolls once against
/// the transient rates, each element execution rolls once against
/// [`stale_element`](Self::stale_element).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Probability of a transient 5xx per navigation attempt.
    pub http_5xx: f64,
    /// Probability of a 429 rate-limit per navigation attempt.
    pub rate_limit: f64,
    /// Probability of a timeout per navigation attempt.
    pub timeout: f64,
    /// Probability of a connection reset per navigation attempt.
    pub connection_reset: f64,
    /// Probability the session expires on a navigation attempt.
    pub session_expiry: f64,
    /// Probability an interactable is stale at execution time.
    pub stale_element: f64,
    /// Base latencies wasted waiting out one timeout.
    pub timeout_round_trips: f64,
    /// Extra seed mixed into the fault stream, so the schedule can be
    /// varied independently of the run seed.
    pub fault_seed: u64,
    /// Retry/backoff parameters for retryable faults.
    pub retry: RetryPolicy,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The zero-fault plan: every rate is 0, nothing is ever injected,
    /// and the browser's behaviour is bit-identical to a fault-free
    /// build.
    pub fn none() -> Self {
        FaultPlan {
            http_5xx: 0.0,
            rate_limit: 0.0,
            timeout: 0.0,
            connection_reset: 0.0,
            session_expiry: 0.0,
            stale_element: 0.0,
            timeout_round_trips: 4.0,
            fault_seed: 0,
            retry: RetryPolicy::default(),
        }
    }

    /// Whether no fault can ever fire (the fast path: the browser skips
    /// the decision stream entirely).
    pub fn is_none(&self) -> bool {
        self.http_5xx == 0.0
            && self.rate_limit == 0.0
            && self.timeout == 0.0
            && self.connection_reset == 0.0
            && self.session_expiry == 0.0
            && self.stale_element == 0.0
    }

    /// A plan whose total per-decision fault probability is `rate`,
    /// split evenly across the four retryable kinds, with session expiry
    /// and stale elements each at a quarter of `rate` — the knob the
    /// fault-rate ablation sweeps.
    pub fn uniform(rate: f64) -> Self {
        FaultPlan {
            http_5xx: rate / 4.0,
            rate_limit: rate / 4.0,
            timeout: rate / 4.0,
            connection_reset: rate / 4.0,
            session_expiry: rate / 4.0,
            stale_element: rate / 4.0,
            ..FaultPlan::none()
        }
    }

    /// A named profile for CLI use: `none`, `light` (~4 % faulty
    /// decisions), `moderate` (~10 %), or `heavy` (~20 %).
    pub fn profile(name: &str) -> Option<Self> {
        match name {
            "none" => Some(FaultPlan::none()),
            "light" => Some(FaultPlan::uniform(0.04)),
            "moderate" => Some(FaultPlan::uniform(0.10)),
            "heavy" => Some(FaultPlan::uniform(0.20)),
            _ => None,
        }
    }

    /// The transient fault (if any) scheduled for a navigation attempt
    /// whose decision roll was `roll` (uniform in `[0, 1)`): a cumulative
    /// walk over the per-kind rates, so per-kind probabilities are exact
    /// and mutually exclusive.
    pub fn transient_fault(&self, roll: f64) -> Option<FaultKind> {
        let mut edge = self.http_5xx;
        if roll < edge {
            return Some(FaultKind::Http5xx);
        }
        edge += self.rate_limit;
        if roll < edge {
            return Some(FaultKind::RateLimit);
        }
        edge += self.timeout;
        if roll < edge {
            return Some(FaultKind::Timeout);
        }
        edge += self.connection_reset;
        if roll < edge {
            return Some(FaultKind::ConnectionReset);
        }
        edge += self.session_expiry;
        if roll < edge {
            return Some(FaultKind::SessionExpiry);
        }
        None
    }

    /// Whether the interactable targeted by an execution whose decision
    /// roll was `roll` is stale.
    pub fn element_stale(&self, roll: f64) -> bool {
        roll < self.stale_element
    }
}

/// What the fault layer did during one run; recorded in `CrawlReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Faults injected, of any kind.
    pub injected: u64,
    /// Retries scheduled after retryable faults.
    pub retries: u64,
    /// Navigations that succeeded after at least one fault.
    pub recoveries: u64,
    /// Navigations abandoned after exhausting the retry budget.
    pub exhausted: u64,
    /// Forced session expiries.
    pub session_expiries: u64,
    /// Stale-element rejections.
    pub stale_elements: u64,
    /// Virtual milliseconds the clock advanced waiting out retry
    /// backoff — the time cost of resilience, a pure function of the
    /// fault schedule.
    pub backoff_ms: f64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The decision stream: a uniform draw in `[0, 1)` for decision number
/// `index` under `seed` — stateless, so the schedule is a pure function
/// of `(seed, index)` and never touches the browser's cost-model RNG.
pub fn roll(seed: u64, index: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(index));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_default_and_never_fires() {
        assert_eq!(FaultPlan::none(), FaultPlan::default());
        assert!(FaultPlan::none().is_none());
        for i in 0..1_000 {
            assert_eq!(FaultPlan::none().transient_fault(roll(7, i)), None);
            assert!(!FaultPlan::none().element_stale(roll(7, i)));
        }
    }

    #[test]
    fn rolls_are_deterministic_uniform_and_independent_of_call_order() {
        let a: Vec<f64> = (0..100).map(|i| roll(42, i)).collect();
        let b: Vec<f64> = (0..100).rev().map(|i| roll(42, i)).rev().collect();
        assert_eq!(a, b, "pure function of (seed, index)");
        assert!(a.iter().all(|r| (0.0..1.0).contains(r)));
        let mean = a.iter().sum::<f64>() / a.len() as f64;
        assert!((0.3..0.7).contains(&mean), "roughly uniform, got mean {mean}");
        assert_ne!(a[0], roll(43, 0), "seed changes the stream");
    }

    #[test]
    fn cumulative_walk_hits_every_kind_at_observed_rates() {
        let plan = FaultPlan::uniform(0.5);
        let mut counts = std::collections::BTreeMap::new();
        let n = 20_000;
        for i in 0..n {
            if let Some(kind) = plan.transient_fault(roll(9, i)) {
                *counts.entry(kind.name()).or_insert(0u64) += 1;
            }
        }
        for kind in ["Http5xx", "RateLimit", "Timeout", "ConnectionReset", "SessionExpiry"] {
            let share = counts[kind] as f64 / n as f64;
            assert!((0.09..0.16).contains(&share), "{kind} fired at {share}");
        }
    }

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_ms(1), 500.0);
        assert_eq!(p.backoff_ms(2), 1_000.0);
        assert_eq!(p.backoff_ms(3), 2_000.0);
        assert_eq!(p.backoff_ms(30), 8_000.0, "capped");
    }

    #[test]
    fn profiles_parse_and_scale() {
        assert!(FaultPlan::profile("none").unwrap().is_none());
        let light = FaultPlan::profile("light").unwrap();
        let heavy = FaultPlan::profile("heavy").unwrap();
        assert!(!light.is_none());
        assert!(heavy.http_5xx > light.http_5xx);
        assert!(FaultPlan::profile("catastrophic").is_none(), "unknown profile rejected");
    }

    #[test]
    fn plan_round_trips() {
        let plan = FaultPlan { fault_seed: 3, ..FaultPlan::uniform(0.1) };
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn stats_round_trip() {
        let stats = FaultStats { injected: 5, retries: 3, recoveries: 2, ..Default::default() };
        let json = serde_json::to_string(&stats).unwrap();
        let back: FaultStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }
}
