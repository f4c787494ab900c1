//! Table I as data, plus the crawler factory used by the bench harness.

use crate::baselines::StaticCrawler;
use crate::framework::crawler::Crawler;
use crate::mak::MakCrawler;
use crate::qexplore::qexplore;
use crate::webexplor::webexplor;
use serde::Serialize;

/// One row of Table I: the components of a reviewed crawler.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CrawlerSpec {
    /// Tool name.
    pub tool: &'static str,
    /// State abstraction.
    pub state_abstraction: &'static str,
    /// Action definition.
    pub action_definition: &'static str,
    /// Reward.
    pub reward: &'static str,
    /// Policy update.
    pub policy_update: &'static str,
    /// Action selection.
    pub action_selection: &'static str,
}

/// The three rows of Table I.
pub fn table1() -> Vec<CrawlerSpec> {
    vec![
        CrawlerSpec {
            tool: "WebExplor",
            state_abstraction: "URL + sequence of HTML tags",
            action_definition: "interactable DOM elements",
            reward: "Curiosity",
            policy_update: "Q-Learning update",
            action_selection: "Gumbel-softmax",
        },
        CrawlerSpec {
            tool: "QExplore",
            state_abstraction: "Sequence of attribute values of interactable DOM elements",
            action_definition: "interactable DOM elements",
            reward: "Curiosity",
            policy_update: "Modified Q-Learning update",
            action_selection: "Maximum Q-value",
        },
        CrawlerSpec {
            tool: "MAK",
            state_abstraction: "Stateless",
            action_definition: "Head, Tail, Random",
            reward: "Link coverage",
            policy_update: "Exp3.1",
            action_selection: "Exp3.1",
        },
    ]
}

/// All crawler names the factory understands: the three RL crawlers first,
/// then the §V-C static baselines.
pub const CRAWLER_NAMES: &[&str] = &["mak", "webexplor", "qexplore", "bfs", "dfs", "random"];

/// The three learning crawlers compared in Fig. 2 and Table II.
pub const RL_CRAWLERS: &[&str] = &["mak", "webexplor", "qexplore"];

/// MAK design-choice variants for the extended ablations (the `ablation2`
/// bench): alternative arm policies, alternative rewards, and a flat
/// (non-leveled) element pool.
pub const MAK_VARIANTS: &[&str] = &[
    "mak-exp3",
    "mak-epsilon",
    "mak-ucb1",
    "mak-thompson",
    "mak-uniform",
    "mak-raw",
    "mak-curiosity",
    "mak-flat",
];

/// Builds the crawler registered under `name`, or `None` for an unknown
/// name.
///
/// # Examples
///
/// ```
/// let crawler = mak::spec::build_crawler("mak", 42).expect("known crawler");
/// assert_eq!(crawler.name(), "mak");
/// assert!(mak::spec::build_crawler("googlebot", 42).is_none());
/// ```
pub fn build_crawler(name: &str, seed: u64) -> Option<Box<dyn Crawler>> {
    use crate::mak::{ArmPolicy, RewardKind};
    const K: usize = 3;
    let std = RewardKind::StandardizedLinkCoverage;
    let crawler: Box<dyn Crawler> = match name {
        "mak" => Box::new(MakCrawler::new(seed)),
        "webexplor" => Box::new(webexplor(seed)),
        "qexplore" => Box::new(qexplore(seed)),
        "bfs" | "dfs" | "random" => Box::new(StaticCrawler::by_name(name, seed)?),
        "mak-exp3" => Box::new(MakCrawler::variant(name, ArmPolicy::exp3(K, 0.1), std, true, seed)),
        "mak-epsilon" => {
            Box::new(MakCrawler::variant(name, ArmPolicy::epsilon_greedy(K, 0.1), std, true, seed))
        }
        "mak-ucb1" => Box::new(MakCrawler::variant(name, ArmPolicy::ucb1(K), std, true, seed)),
        "mak-thompson" => {
            Box::new(MakCrawler::variant(name, ArmPolicy::thompson(K), std, true, seed))
        }
        "mak-uniform" => Box::new(MakCrawler::variant(name, ArmPolicy::Uniform, std, true, seed)),
        "mak-raw" => Box::new(MakCrawler::variant(
            name,
            ArmPolicy::exp31(K),
            RewardKind::RawLinkCoverage,
            true,
            seed,
        )),
        "mak-curiosity" => Box::new(MakCrawler::variant(
            name,
            ArmPolicy::exp31(K),
            RewardKind::Curiosity,
            true,
            seed,
        )),
        "mak-flat" => Box::new(MakCrawler::variant(name, ArmPolicy::exp31(K), std, false, seed)),
        _ => {
            // Ensembles: "mak-ensemble<N>" for any N >= 1 (§VI extension).
            let agents = name.strip_prefix("mak-ensemble")?.parse::<usize>().ok()?;
            if agents == 0 || agents > 64 {
                return None;
            }
            Box::new(crate::mak::EnsembleCrawler::new(agents, seed))
        }
    };
    Some(crawler)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].tool, "MAK");
        assert_eq!(rows[2].state_abstraction, "Stateless");
        assert_eq!(rows[0].action_selection, "Gumbel-softmax");
        assert_eq!(rows[1].action_selection, "Maximum Q-value");
    }

    #[test]
    fn factory_builds_every_registered_crawler() {
        for name in CRAWLER_NAMES.iter().chain(MAK_VARIANTS) {
            let c = build_crawler(name, 1).unwrap_or_else(|| panic!("missing {name}"));
            assert_eq!(c.name(), *name);
        }
        assert!(build_crawler("wget", 1).is_none());
    }

    #[test]
    fn only_q_learners_report_states() {
        assert!(build_crawler("mak", 1).unwrap().state_count().is_none());
        assert!(build_crawler("bfs", 1).unwrap().state_count().is_none());
        assert!(build_crawler("webexplor", 1).unwrap().state_count().is_some());
        assert!(build_crawler("qexplore", 1).unwrap().state_count().is_some());
    }
}
