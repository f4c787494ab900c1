//! The common interface of stateless bandit policies.

use rand::Rng;

/// A multi-armed-bandit policy over a fixed number of arms.
///
/// This is the paper's stateless policy `π : A → [0, 1]` (§II-A.2): the
/// learner owns a probability distribution over arms, samples from it, and
/// folds observed rewards back into the distribution.
pub trait BanditPolicy {
    /// Number of arms `K`.
    fn arms(&self) -> usize;

    /// Samples the next arm according to the current policy.
    fn choose<R: Rng + ?Sized>(&mut self, rng: &mut R) -> usize;

    /// Feeds back the reward observed for `arm`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `arm >= self.arms()`.
    fn update(&mut self, arm: usize, reward: f64);

    /// The current selection probability of each arm; sums to 1.
    fn probabilities(&self) -> Vec<f64>;
}

/// Samples an index from a discrete distribution.
///
/// `probs` must be non-negative; it is renormalized defensively so callers
/// can pass slightly-off-by-rounding vectors.
///
/// # Panics
///
/// Panics if `probs` is empty or sums to zero.
pub fn sample_discrete<R: Rng + ?Sized>(rng: &mut R, probs: &[f64]) -> usize {
    assert!(!probs.is_empty(), "cannot sample from an empty distribution");
    let total: f64 = probs.iter().sum();
    assert!(total > 0.0, "distribution must have positive mass");
    let mut x = rng.gen::<f64>() * total;
    for (i, p) in probs.iter().enumerate() {
        x -= p;
        if x <= 0.0 {
            return i;
        }
    }
    probs.len() - 1
}

/// Checkpoint validation shared by the Exp3 family: restored weights must
/// be non-negative with positive mass, or [`sample_discrete`] would panic.
pub(crate) fn check_weights(weights: &[f64]) -> Result<(), &'static str> {
    if weights.iter().all(|&w| w >= 0.0) && weights.iter().sum::<f64>() > 0.0 {
        Ok(())
    } else {
        Err("policy weights need non-negative entries and positive mass")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sample_discrete_respects_mass() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let probs = [0.0, 1.0, 0.0];
        for _ in 0..50 {
            assert_eq!(sample_discrete(&mut rng, &probs), 1);
        }
    }

    #[test]
    fn sample_discrete_is_roughly_proportional() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let probs = [0.25, 0.75];
        let n = 10_000;
        let ones = (0..n).filter(|_| sample_discrete(&mut rng, &probs) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((0.72..0.78).contains(&frac), "got {frac}");
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn sample_discrete_panics_on_empty() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        sample_discrete(&mut rng, &[]);
    }

    #[test]
    #[should_panic(expected = "positive mass")]
    fn sample_discrete_panics_on_zero_mass() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        sample_discrete(&mut rng, &[0.0, 0.0]);
    }
}
