//! Pluggable arm-selection policies for MAK variants.
//!
//! The paper chooses **Exp3.1** for its adversarial guarantees and its
//! epoch-reset mechanism (§IV-D). The design-choice ablations (the
//! `ablation2` bench binary) swap in alternatives to quantify what that
//! choice buys: plain Exp3 (no epoch resets), stochastic-bandit learners
//! (ε-greedy, UCB1, Thompson sampling — whose i.i.d.-reward assumption web
//! crawling violates), and a uniform non-learner.

use mak_bandit::epsilon::EpsilonGreedy;
use mak_bandit::exp3::Exp3;
use mak_bandit::exp31::Exp31;
use mak_bandit::policy::BanditPolicy;
use mak_bandit::thompson::Thompson;
use mak_bandit::ucb::Ucb1;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An arm-selection policy over MAK's three arms.
///
/// This is an enum rather than a trait object because
/// [`BanditPolicy::choose`] is generic over the RNG and therefore not
/// object-safe. Checkpoints tag the learner's full state (fixed
/// hyper-parameters included) by variant, so a restore needs no
/// out-of-band configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ArmPolicy {
    /// The paper's choice: Exp3.1 with epoch resets.
    Exp31(Exp31),
    /// Plain Exp3 with a fixed exploration rate.
    Exp3(Exp3),
    /// ε-greedy over empirical means (stochastic assumption).
    EpsilonGreedy(EpsilonGreedy),
    /// UCB1 (stochastic assumption).
    Ucb1(Ucb1),
    /// Thompson sampling with Beta posteriors (stochastic assumption).
    Thompson(Thompson),
    /// Uniform random arm choice; never learns.
    Uniform,
}

impl ArmPolicy {
    /// The paper's default: Exp3.1 over `k` arms.
    pub fn exp31(k: usize) -> Self {
        ArmPolicy::Exp31(Exp31::new(k))
    }

    /// Plain Exp3 with exploration rate `gamma`.
    pub fn exp3(k: usize, gamma: f64) -> Self {
        ArmPolicy::Exp3(Exp3::new(k, gamma))
    }

    /// ε-greedy with exploration probability `epsilon`.
    pub fn epsilon_greedy(k: usize, epsilon: f64) -> Self {
        ArmPolicy::EpsilonGreedy(EpsilonGreedy::new(k, epsilon))
    }

    /// UCB1.
    pub fn ucb1(k: usize) -> Self {
        ArmPolicy::Ucb1(Ucb1::new(k))
    }

    /// Thompson sampling.
    pub fn thompson(k: usize) -> Self {
        ArmPolicy::Thompson(Thompson::new(k))
    }

    /// Samples the next arm.
    pub fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R, k: usize) -> usize {
        match self {
            ArmPolicy::Exp31(p) => p.choose(rng),
            ArmPolicy::Exp3(p) => p.choose(rng),
            ArmPolicy::EpsilonGreedy(p) => p.choose(rng),
            ArmPolicy::Ucb1(p) => p.choose(rng),
            ArmPolicy::Thompson(p) => p.choose(rng),
            ArmPolicy::Uniform => rng.gen_range(0..k),
        }
    }

    /// Feeds back the observed reward.
    pub fn update(&mut self, arm: usize, reward: f64) {
        match self {
            ArmPolicy::Exp31(p) => p.update(arm, reward),
            ArmPolicy::Exp3(p) => p.update(arm, reward),
            ArmPolicy::EpsilonGreedy(p) => p.update(arm, reward),
            ArmPolicy::Ucb1(p) => p.update(arm, reward),
            ArmPolicy::Thompson(p) => p.update(arm, reward),
            ArmPolicy::Uniform => {}
        }
    }

    /// The learner's arm count; `None` for the non-learner, which plays
    /// whatever arm count it is asked for.
    pub fn arms(&self) -> Option<usize> {
        match self {
            ArmPolicy::Exp31(p) => Some(p.arms()),
            ArmPolicy::Exp3(p) => Some(p.arms()),
            ArmPolicy::EpsilonGreedy(p) => Some(p.arms()),
            ArmPolicy::Ucb1(p) => Some(p.arms()),
            ArmPolicy::Thompson(p) => Some(p.arms()),
            ArmPolicy::Uniform => None,
        }
    }

    /// Current selection probabilities (uniform for the non-learner).
    pub fn probabilities(&self, k: usize) -> Vec<f64> {
        match self {
            ArmPolicy::Exp31(p) => p.probabilities(),
            ArmPolicy::Exp3(p) => p.probabilities(),
            ArmPolicy::EpsilonGreedy(p) => p.probabilities(),
            ArmPolicy::Ucb1(p) => p.probabilities(),
            ArmPolicy::Thompson(p) => p.probabilities(),
            ArmPolicy::Uniform => vec![1.0 / k as f64; k],
        }
    }

    /// The inner Exp3.1 learner, when this policy is Exp3.1 — used by the
    /// testkit oracle for simplex and epoch-bound checks.
    pub fn as_exp31(&self) -> Option<&Exp31> {
        match self {
            ArmPolicy::Exp31(p) => Some(p),
            _ => None,
        }
    }

    /// Mutable access to the inner Exp3.1 learner, for testkit fault
    /// injection only.
    pub fn as_exp31_mut(&mut self) -> Option<&mut Exp31> {
        match self {
            ArmPolicy::Exp31(p) => Some(p),
            _ => None,
        }
    }

    /// Observability: forwards the sink to learners that emit policy
    /// events (currently Exp3.1; the ablation policies stay silent).
    pub fn attach_sink(&mut self, sink: mak_obs::sink::SinkHandle) {
        if let ArmPolicy::Exp31(p) = self {
            p.attach_sink(sink);
        }
    }

    /// Short identifier used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArmPolicy::Exp31(_) => "exp31",
            ArmPolicy::Exp3(_) => "exp3",
            ArmPolicy::EpsilonGreedy(_) => "epsilon",
            ArmPolicy::Ucb1(_) => "ucb1",
            ArmPolicy::Thompson(_) => "thompson",
            ArmPolicy::Uniform => "uniform",
        }
    }
}

/// How MAK turns raw link-coverage increments into policy rewards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RewardKind {
    /// The paper's reward: standardized increment squashed by the logistic
    /// function (§IV-C/D).
    StandardizedLinkCoverage,
    /// Ablation: the raw increment clipped to `[0, 1]` by `min(r/10, 1)` —
    /// no history standardization, so early large increments saturate and
    /// late small ones vanish.
    RawLinkCoverage,
    /// Ablation: an element-level curiosity reward, `1/(level + 1)` of the
    /// popped element — reproduces the §III-B critique inside the stateless
    /// setting (rewards revisiting fresh elements regardless of yield).
    Curiosity,
}

impl RewardKind {
    /// Short identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            RewardKind::StandardizedLinkCoverage => "standardized",
            RewardKind::RawLinkCoverage => "raw",
            RewardKind::Curiosity => "curiosity",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_policies_choose_valid_arms() {
        let mut rng = StdRng::seed_from_u64(1);
        for mut policy in [
            ArmPolicy::exp31(3),
            ArmPolicy::exp3(3, 0.2),
            ArmPolicy::epsilon_greedy(3, 0.1),
            ArmPolicy::ucb1(3),
            ArmPolicy::thompson(3),
            ArmPolicy::Uniform,
        ] {
            for _ in 0..50 {
                let arm = policy.choose(&mut rng, 3);
                assert!(arm < 3, "{}", policy.name());
                policy.update(arm, 0.5);
            }
            let probs = policy.probabilities(3);
            assert_eq!(probs.len(), 3);
            assert!((probs.iter().sum::<f64>() - 1.0).abs() < 1e-9, "{}", policy.name());
        }
    }

    #[test]
    fn uniform_never_learns() {
        let mut policy = ArmPolicy::Uniform;
        for _ in 0..100 {
            policy.update(0, 1.0);
        }
        let p = policy.probabilities(3);
        assert!(p.iter().all(|&x| (x - 1.0 / 3.0).abs() < 1e-12));
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<&str> = [
            ArmPolicy::exp31(2).name(),
            ArmPolicy::exp3(2, 0.1).name(),
            ArmPolicy::epsilon_greedy(2, 0.1).name(),
            ArmPolicy::ucb1(2).name(),
            ArmPolicy::thompson(2).name(),
            ArmPolicy::Uniform.name(),
        ]
        .into_iter()
        .collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn reward_kind_names() {
        assert_eq!(RewardKind::StandardizedLinkCoverage.name(), "standardized");
        assert_ne!(RewardKind::RawLinkCoverage.name(), RewardKind::Curiosity.name());
    }
}
