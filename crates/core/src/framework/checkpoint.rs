//! Durable session checkpoints: every piece of mid-crawl state as data.
//!
//! A [`SessionCheckpoint`] captures a [`Session`](super::session::Session)
//! between two steps — crawler learning state, browser/clock/RNG position,
//! server-side coverage and sessions, engine progress — precisely enough
//! that a session restored from it continues **bit-identically** to the
//! uninterrupted run (reports, traces, and JSONL event streams included;
//! proven by `crates/serve/tests/recovery.rs`). That contract is what lets
//! `mak-serve` survive crashes: the paper's determinism invariant (a run is
//! a pure function of `(app, crawler, seed, config)`) extends to "… from
//! any checkpoint of that run".
//!
//! Checkpoints are typed all the way down: every component derives its
//! serde encoding, and each invariant a decoded component must satisfy
//! lives in one `try_from` on the type that owns it. Corrupt payloads
//! therefore fail at decode with a [`serde::Error`], never a panic — the
//! serving layer feeds them from disk files it does not trust (see
//! `mak-serve`'s `checkpoint` module for the CRC-guarded store). Since the
//! schema is the sum of those encodings, changing any of them means
//! bumping [`CHECKPOINT_VERSION`].

use crate::framework::engine::{CoverageSample, EngineConfig, TraceEntry};
use crate::framework::linklog::LinkLog;
use crate::mak::deque::LeveledDeque;
use crate::mak::policy::ArmPolicy;
use crate::qexplore::QExploreState;
use crate::webexplor::WebExplorState;
use mak_bandit::exp31::Exp31;
use mak_bandit::normalize::StandardizedReward;
use mak_bandit::qlearning::QTable;
use mak_browser::client::{BrowserState, RngWords};
use mak_browser::page::Page;
use serde::{Deserialize, Serialize};

/// Schema version of [`SessionCheckpoint`]. Bump on any layout change.
/// Version 1 carried untyped crawler payloads; it is refused, not
/// migrated.
pub const CHECKPOINT_VERSION: u32 = 2;

/// A checkpoint's version stamp. It decodes only as [`CHECKPOINT_VERSION`]
/// and is the first field of [`SessionCheckpoint`], so a payload of
/// another version is refused — naming its version — before any of its
/// layout is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(try_from = "u32")]
pub struct CheckpointVersion(u32);

impl CheckpointVersion {
    /// The version this build writes.
    pub const CURRENT: CheckpointVersion = CheckpointVersion(CHECKPOINT_VERSION);
}

impl TryFrom<u32> for CheckpointVersion {
    type Error = String;

    fn try_from(version: u32) -> Result<Self, String> {
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        Ok(CheckpointVersion::CURRENT)
    }
}

/// The mutable state of one crawler, tagged by family.
///
/// The six registry crawlers map onto three variants: `mak`, `bfs`, `dfs`,
/// `random`, and every `mak-*` ablation variant are [`CrawlerState::Mak`]
/// (the static baselines are MAK with a pinned arm); `webexplor` and
/// `qexplore` are [`CrawlerState::Q`] distinguished by their
/// [`StateTable`]; `mak-ensemble<N>` is [`CrawlerState::Ensemble`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum CrawlerState {
    /// [`MakCrawler`](crate::mak::MakCrawler) in any configuration.
    Mak(MakState),
    /// [`EnsembleCrawler`](crate::mak::EnsembleCrawler).
    Ensemble(EnsembleState),
    /// A [`QCrawler`](crate::framework::qcrawler::QCrawler) (WebExplor or
    /// QExplore, per [`QState::states`]).
    Q(Box<QState>),
}

/// Mutable state of a [`MakCrawler`](crate::mak::MakCrawler).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MakState {
    /// The arm policy (hyper-parameters included).
    pub policy: ArmPolicy,
    /// The reward standardizer's running statistics.
    pub reward: StandardizedReward,
    /// The leveled element pool.
    pub deque: LeveledDeque,
    /// The link log (URLs in insertion order).
    pub links: LinkLog,
    /// The crawler's RNG stream position.
    pub rng: RngWords,
    /// Whether the seed page has been ingested.
    pub started: bool,
}

/// Mutable state of an [`EnsembleCrawler`](crate::mak::EnsembleCrawler).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "EnsembleRepr")]
pub struct EnsembleState {
    /// Per-agent Exp3.1 learners, in round-robin order.
    pub policies: Vec<Exp31>,
    /// Per-agent reward standardizers, aligned with `policies`.
    pub rewards: Vec<StandardizedReward>,
    /// The agent whose turn is next.
    pub next_agent: u64,
    /// The shared leveled element pool.
    pub deque: LeveledDeque,
    /// The shared link log.
    pub links: LinkLog,
    /// The shared RNG stream position.
    pub rng: RngWords,
    /// Whether the seed page has been ingested.
    pub started: bool,
}

/// [`EnsembleState`]'s fields before validation.
#[derive(Deserialize)]
struct EnsembleRepr {
    policies: Vec<Exp31>,
    rewards: Vec<StandardizedReward>,
    next_agent: u64,
    deque: LeveledDeque,
    links: LinkLog,
    rng: RngWords,
    started: bool,
}

impl TryFrom<EnsembleRepr> for EnsembleState {
    type Error = &'static str;

    fn try_from(r: EnsembleRepr) -> Result<Self, Self::Error> {
        if r.policies.is_empty() || r.policies.len() != r.rewards.len() {
            return Err("ensemble needs one reward standardizer per agent, and an agent");
        }
        if r.next_agent >= r.policies.len() as u64 {
            return Err("ensemble next_agent out of range");
        }
        let EnsembleRepr { policies, rewards, next_agent, deque, links, rng, started } = r;
        Ok(EnsembleState { policies, rewards, next_agent, deque, links, rng, started })
    }
}

/// A Q-crawler's state-abstraction table, tagged by abstraction: a
/// restore refuses a table produced by a different abstraction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum StateTable {
    /// WebExplor's URL + tag-sequence states.
    WebExplor(WebExplorState),
    /// QExplore's attribute-hash states.
    QExplore(QExploreState),
}

/// Mutable state of a [`QCrawler`](crate::framework::qcrawler::QCrawler).
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "QStateRepr")]
pub struct QState {
    /// The state abstraction's table.
    pub states: StateTable,
    /// The Q-table (hyper-parameters included).
    pub q: QTable,
    /// `(state, action, visits)` triples, sorted by `(state, action)`.
    pub visit_counts: Vec<(u64, u64, u64)>,
    /// The link log.
    pub links: LinkLog,
    /// The crawler's RNG stream position.
    pub rng: RngWords,
    /// The trajectory position: `(state id, page)`; `None` when the next
    /// step restarts from the seed.
    pub current: Option<(u64, Page)>,
    /// Seed restarts performed so far.
    pub restarts: u64,
}

/// [`QState`]'s fields before validation.
#[derive(Deserialize)]
struct QStateRepr {
    states: StateTable,
    q: QTable,
    visit_counts: Vec<(u64, u64, u64)>,
    links: LinkLog,
    rng: RngWords,
    current: Option<(u64, Page)>,
    restarts: u64,
}

impl TryFrom<QStateRepr> for QState {
    type Error = &'static str;

    fn try_from(r: QStateRepr) -> Result<Self, Self::Error> {
        // Strictly increasing keys: sorted, and no pair counted twice.
        if r.visit_counts.windows(2).any(|w| (w[1].0, w[1].1) <= (w[0].0, w[0].1)) {
            return Err("visit_counts not sorted by (state, action)");
        }
        let QStateRepr { states, q, visit_counts, links, rng, current, restarts } = r;
        Ok(QState { states, q, visit_counts, links, rng, current, restarts })
    }
}

/// A complete, self-contained snapshot of one mid-crawl session.
///
/// Produced by [`Session::snapshot`](super::session::Session::snapshot)
/// between steps; consumed by
/// [`Session::restore`](super::session::Session::restore). The embedded
/// [`EngineConfig`] makes the checkpoint self-describing — restoring needs
/// only the application model (by the recorded `app` name) and a fresh
/// crawler of the recorded `crawler` name.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "SessionCheckpointRepr")]
pub struct SessionCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`] at write time).
    pub version: CheckpointVersion,
    /// Application name (registry key or generated-app label).
    pub app: String,
    /// Crawler name (a [`crate::spec::build_crawler`] key).
    pub crawler: String,
    /// The run's seed.
    pub seed: u64,
    /// The engine configuration the run was started with.
    pub config: EngineConfig,
    /// Steps completed so far.
    pub step_index: u64,
    /// Whether the session had already ended.
    pub done: bool,
    /// Next live-coverage sample boundary, in virtual seconds.
    pub next_sample: f64,
    /// Live coverage samples collected so far.
    pub series: Vec<CoverageSample>,
    /// Per-step trace collected so far (empty unless `config.record_trace`).
    pub trace: Vec<TraceEntry>,
    /// Browser-side state (clock, RNG, cookie, fault stream, host).
    pub browser: BrowserState,
    /// The crawler's learning state.
    pub crawler_state: CrawlerState,
    /// Span allocator `(next_id, now_ms)` when the interrupted run had
    /// span collection enabled; restoring seeds the allocator so span ids
    /// continue where they left off.
    pub spans: Option<(u64, f64)>,
}

/// [`SessionCheckpoint`]'s fields before validation.
#[derive(Deserialize)]
struct SessionCheckpointRepr {
    version: CheckpointVersion,
    app: String,
    crawler: String,
    seed: u64,
    config: EngineConfig,
    step_index: u64,
    done: bool,
    next_sample: f64,
    series: Vec<CoverageSample>,
    trace: Vec<TraceEntry>,
    browser: BrowserState,
    crawler_state: CrawlerState,
    spans: Option<(u64, f64)>,
}

impl TryFrom<SessionCheckpointRepr> for SessionCheckpoint {
    type Error = &'static str;

    fn try_from(r: SessionCheckpointRepr) -> Result<Self, Self::Error> {
        if !(r.next_sample.is_finite() && r.next_sample >= 0.0) {
            return Err("next_sample must be a finite non-negative time");
        }
        // A non-positive sampling interval would never advance the
        // sample boundary past the clock.
        if !(r.config.budget_minutes > 0.0 && r.config.sample_interval_secs > 0.0) {
            return Err("checkpointed config has a non-positive budget or sample interval");
        }
        Ok(SessionCheckpoint {
            version: r.version,
            app: r.app,
            crawler: r.crawler,
            seed: r.seed,
            config: r.config,
            step_index: r.step_index,
            done: r.done,
            next_sample: r.next_sample,
            series: r.series,
            trace: r.trace,
            browser: r.browser,
            crawler_state: r.crawler_state,
            spans: r.spans,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::qcrawler::StateAbstraction;
    use crate::framework::session::Session;
    use crate::spec::build_crawler;
    use mak_websim::apps;

    /// A checkpoint of `crawler` on phpbb2 after a few steps.
    fn checkpoint(crawler: &str) -> SessionCheckpoint {
        let cfg = EngineConfig::with_budget_minutes(1.0);
        let app = apps::build("phpbb2").unwrap();
        let mut session = Session::new(app, build_crawler(crawler, 3).unwrap(), &cfg, 3);
        for _ in 0..6 {
            session.step();
        }
        session.snapshot().unwrap()
    }

    /// Decodes `json` as a `T`, returning the error.
    fn decode_err<T: Deserialize>(json: &str) -> String {
        serde_json::from_str::<T>(json).err().expect("corrupt state accepted").to_string()
    }

    /// Encodes a (corrupted) checkpoint and returns its decode error.
    fn reencode_err(checkpoint: SessionCheckpoint) -> String {
        decode_err::<SessionCheckpoint>(&serde_json::to_string(&checkpoint).unwrap())
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let mak = checkpoint("mak");
        let mak_json = serde_json::to_string(&mak).unwrap();
        let with = |edit: fn(&mut SessionCheckpoint)| {
            let mut corrupt = mak.clone();
            edit(&mut corrupt);
            corrupt
        };
        let ensemble = |edit: fn(&mut EnsembleState)| {
            let mut corrupt = checkpoint("mak-ensemble2");
            let CrawlerState::Ensemble(state) = &mut corrupt.crawler_state else { panic!() };
            edit(state);
            reencode_err(corrupt)
        };
        let mut unsorted = checkpoint("webexplor");
        let CrawlerState::Q(q) = &mut unsorted.crawler_state else { panic!() };
        assert!(q.visit_counts.len() > 1);
        q.visit_counts.reverse();
        let pooled = r#"{"levels":[[{"Link":{"href":"http://h/a","text":""}}]],"known":[]}"#;
        let cases = [
            (decode_err::<SessionCheckpoint>(&mak_json.replacen(":2,", ":1,", 1)), "version 1"),
            (reencode_err(with(|c| c.next_sample = -1.0)), "next_sample"),
            (reencode_err(with(|c| c.config.sample_interval_secs = 0.0)), "sample interval"),
            (ensemble(|s| s.rewards.clear()), "per agent"),
            (ensemble(|s| s.next_agent = 2), "next_agent"),
            (reencode_err(unsorted), "visit_counts"),
            (decode_err::<LeveledDeque>(pooled), "missing from the dedup interner"),
            (decode_err::<LinkLog>(r#"["http://h/a","http://h/a"]"#), "twice"),
            (decode_err::<LeveledDeque>(r#"{"levels":[],"known":["a","a"]}"#), "twice"),
            (decode_err::<QExploreState>("[[7,0],[9,2]]"), "dense"),
            (decode_err::<QExploreState>("[[7,0],[7,1]]"), "duplicate hash"),
            (decode_err::<ArmPolicy>(r#"{"Exp4":null}"#), "no matching variant"),
        ];
        for (err, want) in cases {
            assert!(err.contains(want), "`{err}` should mention `{want}`");
        }
    }

    #[test]
    fn restores_refuse_states_of_another_shape() {
        let mut three_arms = checkpoint("mak");
        let CrawlerState::Mak(state) = &mut three_arms.crawler_state else { panic!() };
        state.policy = ArmPolicy::exp31(2);
        let app = apps::build("phpbb2").unwrap();
        let err = Session::restore_owned(
            app,
            build_crawler("mak", 3).unwrap(),
            &three_arms,
            Default::default(),
        );
        assert!(err.err().unwrap().to_string().contains("three arms"));

        let table = WebExplorState::new().snapshot_table();
        let err = QExploreState::new().restore_table(&table).unwrap_err();
        assert!(err.to_string().contains("non-QExplore"), "{err}");
    }
}
