//! Plain Exp3 with a fixed exploration rate.
//!
//! The inner loop of [Exp3.1](crate::exp31) without the epoch schedule. Used
//! by the ablation benches to quantify what the epoch mechanism buys: with a
//! fixed `γ`, weights never reset, so the learner adapts more slowly when
//! the reward distributions drift between application regions.

use crate::policy::{check_weights, sample_discrete, BanditPolicy};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Exp3 over `K` arms with fixed exploration rate `γ`.
///
/// # Examples
///
/// ```
/// use mak_bandit::exp3::Exp3;
/// use mak_bandit::policy::BanditPolicy;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut bandit = Exp3::new(2, 0.1);
/// for _ in 0..500 {
///     let arm = bandit.choose(&mut rng);
///     bandit.update(arm, if arm == 0 { 1.0 } else { 0.0 });
/// }
/// assert!(bandit.probabilities()[0] > 0.8);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "Exp3Repr")]
pub struct Exp3 {
    gamma: f64,
    weights: Vec<f64>,
}

/// [`Exp3`]'s checkpoint fields before validation.
#[derive(Deserialize)]
struct Exp3Repr {
    gamma: f64,
    weights: Vec<f64>,
}

impl TryFrom<Exp3Repr> for Exp3 {
    type Error = &'static str;

    fn try_from(r: Exp3Repr) -> Result<Self, Self::Error> {
        if !(r.gamma > 0.0 && r.gamma <= 1.0) {
            return Err("Exp3 gamma outside (0, 1]");
        }
        check_weights(&r.weights)?;
        Ok(Exp3 { gamma: r.gamma, weights: r.weights })
    }
}

impl Exp3 {
    /// Creates the learner.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `gamma` is outside `(0, 1]`.
    pub fn new(k: usize, gamma: f64) -> Self {
        assert!(k > 0, "Exp3 needs at least one arm");
        assert!(gamma > 0.0 && gamma <= 1.0, "gamma must be in (0, 1]");
        Exp3 { gamma, weights: vec![1.0; k] }
    }

    /// The fixed exploration rate.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    fn policy(&self) -> Vec<f64> {
        let k = self.weights.len() as f64;
        let total: f64 = self.weights.iter().sum();
        self.weights.iter().map(|w| (1.0 - self.gamma) * w / total + self.gamma / k).collect()
    }

    /// Rescales weights when they grow large, preserving the policy.
    fn renormalize(&mut self) {
        let max = self.weights.iter().cloned().fold(0.0, f64::max);
        if max > 1e100 {
            for w in &mut self.weights {
                *w /= max;
            }
        }
    }
}

impl BanditPolicy for Exp3 {
    fn arms(&self) -> usize {
        self.weights.len()
    }

    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize {
        sample_discrete(rng, &self.policy())
    }

    fn update(&mut self, arm: usize, reward: f64) {
        assert!(arm < self.weights.len(), "arm {arm} out of range");
        let reward = reward.clamp(0.0, 1.0);
        let pi = self.policy();
        let k = self.weights.len() as f64;
        let r_hat = reward / pi[arm];
        self.weights[arm] *= (self.gamma * r_hat / k).exp();
        self.renormalize();
    }

    fn probabilities(&self) -> Vec<f64> {
        self.policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converges_to_best_arm() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = Exp3::new(3, 0.1);
        for _ in 0..2_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 1 { 1.0 } else { 0.0 });
        }
        let p = b.probabilities();
        assert!(p[1] > 0.7, "{p:?}");
    }

    #[test]
    fn exploration_floor_is_gamma_over_k() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut b = Exp3::new(4, 0.2);
        for _ in 0..5_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, if arm == 0 { 1.0 } else { 0.0 });
        }
        let p = b.probabilities();
        for pi in &p {
            assert!(*pi >= 0.2 / 4.0 - 1e-9, "{p:?}");
        }
    }

    #[test]
    fn weights_never_overflow() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = Exp3::new(2, 0.5);
        for _ in 0..200_000 {
            let arm = b.choose(&mut rng);
            b.update(arm, 1.0);
        }
        for w in &b.weights {
            assert!(w.is_finite());
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn rejects_bad_gamma() {
        let _ = Exp3::new(2, 0.0);
    }
}
