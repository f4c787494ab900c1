//! # mak-bandit — policy-learning algorithms for the MAK reproduction
//!
//! This crate implements, from scratch, every learning algorithm the paper
//! and its baselines rely on:
//!
//! - [`exp31`] — the **Exp3.1** algorithm of Auer et al. (Algorithm 1 of the
//!   paper), the adversarial multi-armed-bandit solver driving MAK;
//! - [`exp3`] — plain Exp3 with a fixed exploration rate, used in ablations;
//! - [`qlearning`] — tabular Q-learning with the standard Bellman update
//!   (WebExplor) and the "more-actions bonus" variant (QExplore);
//! - [`gumbel`] — Gumbel-softmax action sampling (WebExplor's
//!   `CHOOSE_ACTION`);
//! - [`epsilon`] / [`ucb`] / [`thompson`] — ε-greedy, UCB1 and Thompson
//!   sampling, the stochastic-bandit baselines for design-choice ablations;
//! - [`normalize`] — Welford running mean/std, the standardized-increment
//!   reward transform, and the logistic squash to `[0, 1]` (§IV-C/D).
//!
//! ## Quick start: Exp3.1 over three arms
//!
//! ```
//! use mak_bandit::exp31::Exp31;
//! use mak_bandit::policy::BanditPolicy;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut bandit = Exp31::new(3);
//! for _ in 0..100 {
//!     let arm = bandit.choose(&mut rng);
//!     let reward = if arm == 1 { 1.0 } else { 0.0 }; // arm 1 is best
//!     bandit.update(arm, reward);
//! }
//! let probs = bandit.probabilities();
//! assert!(probs[1] > probs[0] && probs[1] > probs[2]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod epsilon;
pub mod exp3;
pub mod exp31;
pub mod gumbel;
pub mod normalize;
pub mod policy;
pub mod qlearning;
pub mod thompson;
pub mod ucb;

#[cfg(test)]
mod checkpoint_tests {
    use crate::{epsilon::*, exp3::*, exp31::*, qlearning::*, thompson::*, ucb::*};
    use serde::{Deserialize, Serialize};

    /// Encodes `value`, replaces `from` with `to` and returns the decode
    /// error of the corrupted text.
    fn rejection<T: Serialize + Deserialize>(value: &T, from: &str, to: &str) -> String {
        let json = serde_json::to_string(value).unwrap();
        let corrupt = serde_json::from_str::<T>(&json.replacen(from, to, 1));
        corrupt.err().unwrap_or_else(|| panic!("accepted {to}")).to_string()
    }

    #[test]
    fn corrupt_learner_checkpoints_are_rejected() {
        let cases = [
            (rejection(&Exp31::new(2), r#""k":2"#, r#""k":3"#), "arm-count"),
            (rejection(&Exp31::new(2), "[1.0,1.0]", "[0.0,0.0]"), "positive mass"),
            (rejection(&Exp3::new(2, 0.5), "[1.0,1.0]", "[]"), "positive mass"),
            (rejection(&Exp3::new(2, 0.5), "0.5", "1.5"), "gamma"),
            (rejection(&EpsilonGreedy::new(2, 0.1), "[0,0]", "[0]"), "arm-count"),
            (rejection(&EpsilonGreedy::new(2, 0.1), "0.1", "1.1"), "epsilon"),
            (rejection(&Ucb1::new(2), "[0,0]", "[]"), "arm-count"),
            (rejection(&Thompson::new(2), "[1.0,1.0]", "[1.0]"), "arm-count"),
            (rejection(&Thompson::new(2), "[1.0,1.0]", "[1.0,0.0]"), "positive"),
            (rejection(&QTable::new(0.5, 0.9, 1.0), "0.5", "0.0"), "alpha"),
            (rejection(&QTable::new(0.5, 0.9, 1.0), "0.9", "1.0"), "discount"),
        ];
        for (err, want) in cases {
            assert!(err.contains(want), "`{err}` should mention `{want}`");
        }
    }
}
