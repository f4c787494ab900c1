//! The virtual experiment clock.
//!
//! Every paper experiment runs a crawler for 30 minutes of wall-clock time
//! (§V-A.4). Re-running that literally would make the reproduction slow and
//! non-deterministic, so time is *simulated*: the browser and the crawl
//! engine charge virtual milliseconds for page loads, interaction overhead,
//! and policy computation, and the engine stops when the virtual budget is
//! exhausted. Efficiency differences between crawlers (§V-D) then surface
//! as different interaction counts, exactly as in the paper.

use serde::{Deserialize, Serialize};

/// A monotonically advancing virtual clock with a fixed budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "ClockRepr")]
pub struct VirtualClock {
    now_ms: f64,
    budget_ms: f64,
}

/// [`VirtualClock`]'s checkpoint fields before validation.
#[derive(Deserialize)]
struct ClockRepr {
    now_ms: f64,
    budget_ms: f64,
}

impl TryFrom<ClockRepr> for VirtualClock {
    type Error = &'static str;

    /// A checkpointed clock may legitimately sit at or past its budget (a
    /// session snapshotted on its final step), so unlike
    /// [`VirtualClock::new`] only the signs are validated.
    fn try_from(c: ClockRepr) -> Result<Self, Self::Error> {
        // Negated so NaN in either field also fails validation.
        if !(c.budget_ms > 0.0 && c.now_ms >= 0.0) {
            return Err("clock needs a positive budget and non-negative elapsed time");
        }
        Ok(VirtualClock { now_ms: c.now_ms, budget_ms: c.budget_ms })
    }
}

impl VirtualClock {
    /// Creates a clock with a budget in milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if `budget_ms` is not positive.
    pub fn new(budget_ms: f64) -> Self {
        assert!(budget_ms > 0.0, "budget must be positive");
        VirtualClock { now_ms: 0.0, budget_ms }
    }

    /// Creates a clock with a budget in minutes — `30.0` matches the paper.
    pub fn with_budget_minutes(minutes: f64) -> Self {
        Self::new(minutes * 60_000.0)
    }

    /// Advances the clock by `ms` (clamped to non-negative).
    pub fn advance(&mut self, ms: f64) {
        self.now_ms += ms.max(0.0);
    }

    /// Elapsed virtual time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.now_ms
    }

    /// Elapsed virtual time in whole seconds (for time-series bucketing).
    pub fn elapsed_secs(&self) -> f64 {
        self.now_ms / 1_000.0
    }

    /// The total budget in milliseconds.
    pub fn budget_ms(&self) -> f64 {
        self.budget_ms
    }

    /// Remaining budget in milliseconds (zero once expired).
    pub fn remaining_ms(&self) -> f64 {
        (self.budget_ms - self.now_ms).max(0.0)
    }

    /// Whether the budget is exhausted.
    pub fn expired(&self) -> bool {
        self.now_ms >= self.budget_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_and_expires() {
        let mut c = VirtualClock::new(100.0);
        assert!(!c.expired());
        c.advance(60.0);
        assert_eq!(c.elapsed_ms(), 60.0);
        assert_eq!(c.remaining_ms(), 40.0);
        c.advance(50.0);
        assert!(c.expired());
        assert_eq!(c.remaining_ms(), 0.0);
    }

    #[test]
    fn negative_advance_is_ignored() {
        let mut c = VirtualClock::new(100.0);
        c.advance(-5.0);
        assert_eq!(c.elapsed_ms(), 0.0);
    }

    #[test]
    fn minutes_constructor() {
        let c = VirtualClock::with_budget_minutes(30.0);
        assert_eq!(c.budget_ms(), 1_800_000.0);
        assert_eq!(c.elapsed_secs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_budget_panics() {
        let _ = VirtualClock::new(0.0);
    }
}
