//! The crawl engine: runs a crawler against a hosted application under the
//! virtual time budget and produces a measurable report.
//!
//! The engine is the outer loop of Algorithm 2 plus the measurement stack
//! of §V-A: it deploys the application ([`AppHost`]), wraps it in a
//! [`Browser`] with a [`VirtualClock`], charges per-decision policy
//! overhead, and samples the live coverage time series that Fig. 2 plots.

use crate::framework::crawler::Crawler;
use mak_browser::cost::CostModel;
use mak_browser::fault::{FaultPlan, FaultStats};
use mak_obs::sink::SinkHandle;
use mak_obs::span::PhaseTotals;
use mak_websim::server::WebApp;
use serde::{Deserialize, Serialize};

/// Engine parameters for one run.
///
/// The config is serializable and comparable so that run caches can key
/// cached [`CrawlReport`]s on the exact configuration that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Virtual time budget in minutes (the paper uses 30, §V-A.4).
    pub budget_minutes: f64,
    /// Live-coverage sampling interval in seconds (Fig. 2 granularity).
    pub sample_interval_secs: f64,
    /// The browser-side cost model.
    pub cost: CostModel,
    /// When true, every step's action and reward is recorded in
    /// [`CrawlReport::trace`] — useful for debugging crawler behaviour,
    /// at some memory cost.
    pub record_trace: bool,
    /// The deterministic fault schedule (default: no faults). Part of
    /// the config — and therefore of the run-cache key — so a faulty run
    /// can never be served from a clean run's cache entry. Configs
    /// serialized before the fault layer existed lack it and parse as
    /// fault-free.
    #[serde(default)]
    pub faults: FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            budget_minutes: 30.0,
            sample_interval_secs: 30.0,
            cost: CostModel::default(),
            record_trace: false,
            faults: FaultPlan::none(),
        }
    }
}

impl EngineConfig {
    /// A config with the given budget and default sampling/costs.
    pub fn with_budget_minutes(minutes: f64) -> Self {
        EngineConfig { budget_minutes: minutes, ..Default::default() }
    }
}

/// One recorded step of a traced crawl (see [`EngineConfig::record_trace`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEntry {
    /// Virtual seconds at which the step completed.
    pub secs: f64,
    /// The crawler's action label (an arm name or element signature).
    pub action: String,
    /// The reward fed to the policy, if the crawler learns.
    pub reward: Option<f64>,
}

/// One point of the live coverage time series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoverageSample {
    /// Virtual seconds since the start of the run.
    pub secs: f64,
    /// Server-side lines covered at that instant.
    pub lines: u64,
}

/// The measurable outcome of one crawl run.
///
/// The `faults` field is emitted only when a fault actually fired, and
/// the `phase` breakdown only when non-empty, so degenerate reports —
/// and anything written before either field existed — keep their prior
/// byte layout and still parse.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrawlReport {
    /// Crawler identifier.
    pub crawler: String,
    /// Application identifier.
    pub app: String,
    /// Seed of the run.
    pub seed: u64,
    /// Atomic element interactions performed (§V-D metric).
    pub interactions: u64,
    /// Lines covered at the end of the run.
    pub final_lines_covered: u64,
    /// Total declared server-side lines (coverage-node style denominator).
    pub total_declared_lines: u64,
    /// Live coverage samples (empty for final-mode applications, mirroring
    /// coverage-node's inability to observe mid-run coverage).
    pub coverage_series: Vec<CoverageSample>,
    /// Every covered `(file_index, line)` pair, for union ground-truth
    /// estimation (§V-B).
    pub covered_lines: Vec<(u32, u32)>,
    /// Distinct same-origin URLs gathered (link coverage, §IV-C).
    pub distinct_urls: usize,
    /// Abstracted states created, for state-based crawlers.
    pub state_count: Option<usize>,
    /// Virtual seconds actually consumed.
    pub elapsed_secs: f64,
    /// Per-step trace, populated only under [`EngineConfig::record_trace`].
    pub trace: Vec<TraceEntry>,
    /// Fault/retry/recovery counts (all zeros without a fault plan).
    #[serde(default, skip_serializing_if = "is_default")]
    pub faults: FaultStats,
    /// Where the virtual time went: per-phase totals partitioning
    /// `elapsed_secs` exactly (see `mak_obs::span::PhaseTotals`).
    #[serde(default, skip_serializing_if = "is_default")]
    pub phase: PhaseTotals,
}

fn is_default<T: Default + PartialEq>(value: &T) -> bool {
    *value == T::default()
}

/// Runs `crawler` on `app` for the configured budget.
///
/// The run is deterministic in `(crawler state, app, seed, config)`.
///
/// # Examples
///
/// ```
/// use mak::framework::engine::{run_crawl, EngineConfig};
/// use mak::baselines::StaticCrawler;
/// use mak_websim::apps;
///
/// let mut bfs = StaticCrawler::bfs(1);
/// let report = run_crawl(&mut bfs, apps::build("addressbook").unwrap(),
///                        &EngineConfig::with_budget_minutes(1.0), 1);
/// assert!(report.interactions > 0);
/// ```
pub fn run_crawl(
    crawler: &mut dyn Crawler,
    app: Box<dyn WebApp>,
    config: &EngineConfig,
    seed: u64,
) -> CrawlReport {
    run_crawl_with_sink(crawler, app, config, seed, &SinkHandle::none())
}

/// Like [`run_crawl`], but wires `sink` through the whole stack for the
/// duration of the run: the engine emits `RunStarted`, `StepStarted`,
/// `RewardComputed`, `StepFinished`, and `RunFinished`; the [`Browser`],
/// [`AppHost`], and the crawler's policy add their own events (see
/// `mak_obs::event::Event` for the taxonomy).
///
/// Sinks are strictly observational: the returned [`CrawlReport`] is
/// byte-identical to the sink-less run (enforced by the workspace's
/// observability tests), and the event stream itself is a pure function
/// of `(crawler, app, seed, config)` because events carry only
/// virtual-clock time.
pub fn run_crawl_with_sink(
    crawler: &mut dyn Crawler,
    app: Box<dyn WebApp>,
    config: &EngineConfig,
    seed: u64,
    sink: &SinkHandle,
) -> CrawlReport {
    // The whole engine loop lives in `Session` (the resumable state
    // machine the serving layer multiplexes); the one-shot entry point is
    // a session driven to completion, so the two paths cannot drift. The
    // `session_equivalence` differential suite additionally proves the
    // step-driven path byte-identical, reports and traces included.
    crate::framework::session::Session::borrowed(crawler, app, config, seed, sink.clone()).finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticCrawler;
    use mak_websim::apps;

    fn short() -> EngineConfig {
        EngineConfig::with_budget_minutes(2.0)
    }

    #[test]
    fn run_produces_consistent_report() {
        let mut c = StaticCrawler::bfs(3);
        let report = run_crawl(&mut c, apps::build("addressbook").unwrap(), &short(), 3);
        assert_eq!(report.crawler, "bfs");
        assert_eq!(report.app, "addressbook");
        assert!(report.interactions > 10);
        assert!(report.final_lines_covered > 0);
        assert_eq!(report.covered_lines.len() as u64, report.final_lines_covered);
        assert!(report.distinct_urls > 0);
        assert!(report.elapsed_secs >= 120.0 * 0.9);
    }

    #[test]
    fn live_apps_yield_time_series_final_apps_do_not() {
        let mut c = StaticCrawler::bfs(3);
        let live = run_crawl(&mut c, apps::build("addressbook").unwrap(), &short(), 3);
        assert!(!live.coverage_series.is_empty());
        let mut c2 = StaticCrawler::bfs(3);
        let fin = run_crawl(&mut c2, apps::build("retroboard").unwrap(), &short(), 3);
        assert!(fin.coverage_series.is_empty(), "coverage-node cannot sample mid-run");
        assert!(fin.final_lines_covered > 0);
    }

    #[test]
    fn coverage_series_spans_the_whole_budget() {
        let mut c = StaticCrawler::bfs(3);
        let report = run_crawl(&mut c, apps::build("addressbook").unwrap(), &short(), 3);
        let first = report.coverage_series.first().expect("live series");
        assert_eq!(first.secs, 0.0, "t = 0 baseline is recorded before the first step");
        let last = report.coverage_series.last().expect("live series");
        assert_eq!(last.secs, report.elapsed_secs, "series closes at budget expiry");
        assert_eq!(last.lines, report.final_lines_covered);
    }

    #[test]
    fn coverage_series_is_monotone() {
        let mut c = StaticCrawler::random(9);
        let report = run_crawl(&mut c, apps::build("vanilla").unwrap(), &short(), 9);
        for w in report.coverage_series.windows(2) {
            assert!(w[1].lines >= w[0].lines);
            assert!(w[1].secs > w[0].secs);
        }
    }

    #[test]
    fn trace_is_recorded_only_when_asked() {
        let mut c = StaticCrawler::bfs(4);
        let untraced = run_crawl(&mut c, apps::build("addressbook").unwrap(), &short(), 4);
        assert!(untraced.trace.is_empty());

        let mut cfg = short();
        cfg.record_trace = true;
        let mut c = StaticCrawler::bfs(4);
        let traced = run_crawl(&mut c, apps::build("addressbook").unwrap(), &cfg, 4);
        assert_eq!(traced.trace.len() as u64, traced.interactions);
        for w in traced.trace.windows(2) {
            assert!(w[1].secs >= w[0].secs, "trace times are monotone");
        }
        assert!(traced.trace.iter().all(|t| t.action == "Head"), "bfs always plays Head");
    }

    #[test]
    fn report_phase_breakdown_partitions_elapsed_time() {
        let mut c = StaticCrawler::bfs(3);
        let report = run_crawl(&mut c, apps::build("addressbook").unwrap(), &short(), 3);
        let elapsed_ms = report.elapsed_secs * 1000.0;
        let total = report.phase.total_ms();
        assert!(
            (total - elapsed_ms).abs() <= 1e-6 * elapsed_ms,
            "phase buckets must sum to the elapsed budget: {total} vs {elapsed_ms}",
        );
        assert!(report.phase.policy_ms > 0.0, "every step charges policy overhead");
        assert!(report.phase.render_ms > 0.0);
    }

    #[test]
    fn report_phase_breakdown_survives_serde_and_its_absence() {
        let mut c = StaticCrawler::bfs(3);
        let report = run_crawl(&mut c, apps::build("addressbook").unwrap(), &short(), 3);
        let json = serde_json::to_string(&report).unwrap();
        let back: CrawlReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report, "phase field round-trips");

        // A pre-profiling report (no `phase` key) still parses, with an
        // empty breakdown.
        let mut stripped = report.clone();
        stripped.phase = PhaseTotals::default();
        let legacy_json = serde_json::to_string(&stripped).unwrap();
        assert!(!legacy_json.contains("\"phase\""), "default breakdown is omitted");
        let legacy: CrawlReport = serde_json::from_str(&legacy_json).unwrap();
        assert_eq!(legacy.phase, PhaseTotals::default());
    }

    #[test]
    fn configs_without_faults_parse_as_fault_free() {
        let json = serde_json::to_string(&short()).unwrap();
        let faults = format!(r#","faults":{}"#, serde_json::to_string(&FaultPlan::none()).unwrap());
        assert!(json.ends_with(&format!("{faults}}}")), "{json}");
        let legacy: EngineConfig = serde_json::from_str(&json.replacen(&faults, "", 1)).unwrap();
        assert_eq!(legacy, short());
    }

    #[test]
    fn runs_are_reproducible_per_seed() {
        let run = |seed| {
            let mut c = StaticCrawler::random(seed);
            run_crawl(&mut c, apps::build("phpbb2").unwrap(), &short(), seed)
        };
        let a = run(5);
        let b = run(5);
        assert_eq!(a.final_lines_covered, b.final_lines_covered);
        assert_eq!(a.interactions, b.interactions);
        assert_eq!(a.distinct_urls, b.distinct_urls);
        let c = run(6);
        assert!(
            c.final_lines_covered != a.final_lines_covered || c.interactions != a.interactions,
            "different seeds should (almost surely) differ"
        );
    }
}
