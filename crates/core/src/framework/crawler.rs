//! The crawler interface.

use crate::framework::checkpoint::CrawlerState;
use mak_browser::client::Browser;
use mak_browser::cost::CostModel;
use mak_obs::sink::SinkHandle;
use std::borrow::Cow;
use std::fmt;

/// Why a crawl step could not be performed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrawlEnd {
    /// The virtual time budget is exhausted; the run is over.
    BudgetExhausted,
    /// The crawler has no executable action left anywhere (degenerate
    /// applications only — the engine stops the run).
    Stuck,
}

impl fmt::Display for CrawlEnd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrawlEnd::BudgetExhausted => write!(f, "time budget exhausted"),
            CrawlEnd::Stuck => write!(f, "no executable actions remain"),
        }
    }
}

/// What one successful step did, for tracing and tests.
#[derive(Debug, Clone)]
pub struct StepReport {
    /// Human-readable label of the chosen action (e.g. `"Head"`, an element
    /// signature, …). A `Cow` so crawlers with a fixed action vocabulary
    /// (MAK's three arm names) report it without a per-step allocation;
    /// the engine materializes a `String` only when a trace or event sink
    /// actually consumes the label.
    pub action: Cow<'static, str>,
    /// The reward fed to the policy for this step, if the crawler learns.
    pub reward: Option<f64>,
}

/// A web crawler runnable by the [engine](crate::framework::engine).
///
/// One [`step`](Crawler::step) performs one decision and (normally) one
/// atomic element interaction via the [`Browser`]. Implementations manage
/// their own restarts (re-opening the seed URL when their trajectory dead-
/// ends), mirroring how the paper's tools run unattended for 30 minutes.
///
/// `Send + Sync` supertraits: a crawler lives inside a
/// [`Session`](crate::framework::session::Session) that the serving
/// layer's work-stealing scheduler migrates freely between worker
/// threads. All crawler state is plain data (deques, Q-tables, seeded
/// RNGs), so the bounds are free for every implementation in the
/// workspace.
pub trait Crawler: Send + Sync {
    /// Short identifier: `"mak"`, `"webexplor"`, `"qexplore"`, `"bfs"`, …
    fn name(&self) -> &str;

    /// Performs one decision + interaction.
    ///
    /// # Errors
    ///
    /// [`CrawlEnd::BudgetExhausted`] when the browser refuses further
    /// navigation; [`CrawlEnd::Stuck`] when no executable action remains.
    fn step(&mut self, browser: &mut Browser) -> Result<StepReport, CrawlEnd>;

    /// The per-decision policy overhead this crawler pays (§V-D): state-
    /// based crawlers' abstraction and similarity machinery scales with
    /// their state table, stateless MAK pays a constant.
    fn policy_overhead_ms(&self, cost: &CostModel) -> f64 {
        cost.stateless_policy_cost()
    }

    /// Number of abstracted states created so far, for state-based
    /// crawlers; `None` for stateless ones.
    fn state_count(&self) -> Option<usize> {
        None
    }

    /// Number of distinct same-origin URLs observed so far (link coverage,
    /// §IV-C).
    fn distinct_urls(&self) -> usize;

    /// Observability: the engine hands every crawler the run's event sink
    /// before the first step. Crawlers with internal decision structure
    /// (MAK's arm choices and deque, the ensemble's agents) emit
    /// `ActionChosen` / `DequeDepth` and forward the sink to their
    /// policies; the default implementation ignores it.
    fn attach_sink(&mut self, sink: SinkHandle) {
        let _ = sink;
    }

    /// Durability: the crawler's complete mutable state as a
    /// [`CrawlerState`], captured between steps. `None` (the default)
    /// means the crawler does not support checkpointing and sessions
    /// running it cannot be snapshotted.
    fn snapshot_state(&self) -> Option<CrawlerState> {
        None
    }

    /// Durability: overwrites this (freshly built) crawler's mutable state
    /// from a [`CrawlerState`] captured by
    /// [`snapshot_state`](Crawler::snapshot_state) on a crawler of the
    /// same configuration. After a successful restore the crawler behaves
    /// bit-identically to the one that was snapshotted.
    ///
    /// # Errors
    ///
    /// When `state` is the wrong variant for this crawler or does not fit
    /// its configuration (agent count, arm count, state abstraction); the
    /// crawler is left unusable and must be discarded. Never panics.
    fn restore_state(&mut self, state: &CrawlerState) -> Result<(), serde::Error> {
        let _ = state;
        Err(serde::Error::custom(format!(
            "crawler `{}` does not support checkpoint restore",
            self.name()
        )))
    }
}
