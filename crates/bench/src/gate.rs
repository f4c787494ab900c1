//! The one regression gate behind the `regress` binary: a table of rows,
//! each naming an artifact, a metric key and the bound it is held to.
//!
//! Three artifacts are gated, each a `results/BENCH_*.json` report
//! compared against a blessed file:
//!
//! | artifact   | report (writer)                     | blessed file       |
//! |------------|-------------------------------------|--------------------|
//! | `coverage` | `BENCH_coverage.json` (`regress`)   | `baselines.json`   |
//! | `serve`    | `BENCH_serve.json` (`serve`)        | `serve_slo.json`   |
//! | `phase`    | `BENCH_perf.json` (`perf`)          | `phase_gate.json`  |
//!
//! Every report and blessed file is flattened into [`Metrics`] — the
//! workload it ran under plus `key → value` — and [`compare`] walks the
//! union of keys through [`TABLE`]. One rule set holds everywhere: a
//! report whose source fingerprint is not this build's is refused as
//! stale, a workload mismatch refuses to compare, and a blessed key
//! missing from the report or a reported key never blessed is a finding.
//!
//! Determinism split: virtual-domain quantities are pure functions of
//! `(app, crawler, seed, config)`, so the per-app phase totals gate
//! exactly. Coverage, interactions and regret keep the tolerances
//! `baselines.json` was blessed with. Wall-clock quantities (steps/sec
//! floors, serve sessions/hour, p99 step latency, aborted sessions) are
//! machine-dependent and carry generous tolerances: they catch a lost
//! optimization, not scheduler noise.
//!
//! The vendored serde has no map types, so every persisted collection
//! here is a `Vec` of named-field structs sorted on its natural key.

use mak_metrics::experiment::MatrixCell;
use mak_metrics::regret::{cumulative_regret, AppOutcome};
use mak_metrics::stats::mean;
use mak_obs::span::PhaseTotals;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// How a row bounds a current value against its blessed one. Every
/// comparison is written so that a NaN fails it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Bit-for-bit equal.
    Exact,
    /// At least `blessed × fraction`; gains never gate.
    Floor(f64),
    /// At most `max(blessed × factor, min)`.
    Ceiling {
        /// Multiple of the blessed value.
        factor: f64,
        /// Smallest ceiling, whatever was blessed.
        min: f64,
    },
    /// Within `± tolerance × |blessed|`.
    Relative(f64),
    /// Within `± tolerance`.
    Absolute(f64),
}

impl Bound {
    /// `None` when `current` holds, else the violated limit.
    fn violation(self, blessed: f64, current: f64) -> Option<String> {
        let (holds, limit) = match self {
            Bound::Exact => {
                (current.to_bits() == blessed.to_bits(), format!("exactly {blessed:?}"))
            }
            Bound::Floor(fraction) => {
                let floor = blessed * fraction;
                (current >= floor, format!(">= {floor} ({fraction} × blessed {blessed})"))
            }
            Bound::Ceiling { factor, min } => {
                let ceiling = (blessed * factor).max(min);
                (
                    current <= ceiling,
                    format!("<= {ceiling} (max({factor} × blessed {blessed}, {min}))"),
                )
            }
            Bound::Relative(tol) => (
                (current - blessed).abs() <= tol * blessed.abs(),
                format!("within ±{}% of blessed {blessed}", 100.0 * tol),
            ),
            Bound::Absolute(tol) => {
                ((current - blessed).abs() <= tol, format!("within ±{tol} of blessed {blessed}"))
            }
        };
        (!holds).then_some(limit)
    }
}

/// A gated report and its blessed file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    /// The coverage/regret matrix `regress` itself runs.
    Coverage,
    /// The serving-layer load run.
    Serve,
    /// The per-app virtual-time phase totals of the paper-scale perf run.
    Phase,
}

impl Artifact {
    /// Every artifact, in gate order.
    pub const ALL: [Artifact; 3] = [Artifact::Coverage, Artifact::Serve, Artifact::Phase];

    /// The name findings and pass lines carry.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::Coverage => "coverage",
            Artifact::Serve => "serve",
            Artifact::Phase => "phase",
        }
    }

    /// `(report, blessed file, binary writing the report)`.
    fn files(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Artifact::Coverage => ("BENCH_coverage.json", "baselines.json", "regress"),
            Artifact::Serve => ("BENCH_serve.json", "serve_slo.json", "serve"),
            Artifact::Phase => ("BENCH_perf.json", "phase_gate.json", "perf"),
        }
    }

    /// Parses a report into its source fingerprint and gated metrics.
    fn read_report(self, text: &str) -> Result<(String, Metrics), String> {
        let parsed = match self {
            Artifact::Coverage => {
                serde_json::from_str(text).map(|b: CoverageBench| (b.fingerprint.clone(), b.into()))
            }
            Artifact::Serve => serde_json::from_str(text).map(|s: ServeView| {
                let values = [
                    ("sessions_per_hour", s.sessions_per_hour),
                    ("p99_step_ns", s.p99_step_ns as f64),
                    ("aborted", s.aborted as f64),
                ];
                let workload = format!("{} sessions x {} min", s.sessions, s.budget_minutes);
                (s.fingerprint, Metrics::new(workload, values.map(|(k, v)| (k.to_owned(), v))))
            }),
            Artifact::Phase => serde_json::from_str(text).map(|p: PerfView| {
                let values = p.phase_by_app.iter().flat_map(|row| {
                    row.phase.rows().map(|(phase, ms)| (format!("phase/{}/{phase}", row.app), ms))
                });
                let workload = format!("{} seeds x {} min", p.seeds, p.budget_minutes);
                (p.fingerprint.clone(), Metrics::new(workload, values))
            }),
        };
        parsed.map_err(|e| e.to_string())
    }

    /// Parses a blessed file into the metrics it pins.
    fn read_blessed(self, text: &str) -> Result<Metrics, String> {
        if self == Artifact::Coverage {
            let base: Baselines = serde_json::from_str(text).map_err(|e| e.to_string())?;
            if base.tolerances != TOLERANCES {
                return Err(format!(
                    "its tolerances {:?} are not the gate table's {TOLERANCES:?}",
                    base.tolerances
                ));
            }
            return Ok(base.into());
        }
        let file: BlessedFile = serde_json::from_str(text).map_err(|e| e.to_string())?;
        Ok(Metrics::new(file.workload, file.values.into_iter().map(|v| (v.key, v.value))))
    }

    /// The blessed file for a fresh report.
    fn bless(self, report: &str, metrics: Metrics) -> Result<String, String> {
        let json = if self == Artifact::Coverage {
            let bench: CoverageBench = serde_json::from_str(report).map_err(|e| e.to_string())?;
            serde_json::to_string_pretty(&Baselines::from_bench(&bench))
        } else {
            let values = metrics.values.into_iter().map(|(key, value)| BlessedValue { key, value });
            serde_json::to_string_pretty(&BlessedFile {
                workload: metrics.workload,
                values: values.collect(),
            })
        };
        json.map_err(|e| e.to_string())
    }
}

/// One row of the gate: every key of `artifact` starting with `key` is
/// held to `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// The artifact the row reads.
    pub artifact: Artifact,
    /// Metric key, or key prefix ending in `/`.
    pub key: &'static str,
    /// The bound against the blessed value.
    pub bound: Bound,
    /// Whether a blessed key absent from the report passes: apps served
    /// entirely from the run cache carry no wall-clock signal.
    pub optional: bool,
}

/// The committed `baselines.json` tolerances; [`TABLE`]'s coverage rows
/// are built from them, and a baselines file carrying others is refused.
pub const TOLERANCES: Tolerances = Tolerances {
    coverage_drop_rel: 0.05,
    interactions_rel: 0.10,
    regret_abs_pct: 5.0,
    steps_per_sec_frac: 0.5,
};

/// Smallest p99 step-latency ceiling, nanoseconds: tiny blessed runs
/// quantize to a few nanoseconds per step, and 5× of almost-nothing is
/// still noise.
pub const MIN_P99_CEILING_NS: f64 = 50_000.0;

const fn row(artifact: Artifact, key: &'static str, bound: Bound) -> Row {
    Row { artifact, key, bound, optional: false }
}

/// The gate.
pub const TABLE: [Row; 8] = [
    row(Artifact::Coverage, "lines/", Bound::Floor(1.0 - TOLERANCES.coverage_drop_rel)),
    row(Artifact::Coverage, "interactions/", Bound::Relative(TOLERANCES.interactions_rel)),
    row(Artifact::Coverage, "regret/", Bound::Absolute(TOLERANCES.regret_abs_pct)),
    Row {
        optional: true,
        ..row(Artifact::Coverage, "steps_per_sec/", Bound::Floor(TOLERANCES.steps_per_sec_frac))
    },
    row(Artifact::Serve, "sessions_per_hour", Bound::Floor(0.2)),
    row(Artifact::Serve, "p99_step_ns", Bound::Ceiling { factor: 5.0, min: MIN_P99_CEILING_NS }),
    // Never a single abort, whatever was blessed.
    row(Artifact::Serve, "aborted", Bound::Ceiling { factor: 0.0, min: 0.0 }),
    row(Artifact::Phase, "phase/", Bound::Exact),
];

/// One artifact flattened for gating.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// The knobs the numbers were produced under, e.g. `2 seeds x 5 min`.
    pub workload: String,
    /// Gated values by key.
    pub values: BTreeMap<String, f64>,
}

impl Metrics {
    fn new(workload: String, values: impl IntoIterator<Item = (String, f64)>) -> Self {
        Metrics { workload, values: values.into_iter().collect() }
    }
}

/// Holds `current` to `blessed` under `artifact`'s rows of [`TABLE`].
/// Returns one finding per violation; empty means the gate passes.
pub fn compare(artifact: Artifact, blessed: &Metrics, current: &Metrics) -> Vec<String> {
    let name = artifact.name();
    if blessed.workload != current.workload {
        return vec![format!(
            "{name}: workload mismatch — blessed under {}, measured {} \
             (re-bless or match the workload)",
            blessed.workload, current.workload
        )];
    }
    let keys: BTreeSet<&String> = blessed.values.keys().chain(current.values.keys()).collect();
    let mut findings = Vec::new();
    for key in keys {
        let Some(row) = TABLE.iter().find(|r| r.artifact == artifact && key.starts_with(r.key))
        else {
            findings.push(format!("{name}: {key} has no gate row"));
            continue;
        };
        match (blessed.values.get(key), current.values.get(key)) {
            (Some(&b), Some(&c)) => {
                if let Some(limit) = row.bound.violation(b, c) {
                    findings.push(format!("{name}: {key} = {c}, needs {limit}"));
                }
            }
            (Some(_), None) if row.optional => {}
            (Some(_), None) => findings.push(format!("{name}: {key} is blessed but missing")),
            (None, _) => findings.push(format!("{name}: {key} is new; re-bless to admit it")),
        }
    }
    findings
}

/// This build's source fingerprint, as reports record it.
pub fn fingerprint() -> String {
    format!("{:016x}", mak_metrics::store::workspace_fingerprint())
}

/// Gates one artifact under `dir` — or, with `bless`, writes its blessed
/// file from the report — printing a note when it passes or is skipped.
/// Returns the findings.
pub fn run(artifact: Artifact, dir: &Path, bless: bool) -> Vec<String> {
    gate(artifact, dir, bless).unwrap_or_else(|e| vec![format!("{}: {e}", artifact.name())])
}

fn gate(artifact: Artifact, dir: &Path, bless: bool) -> Result<Vec<String>, String> {
    let name = artifact.name();
    let (report_file, blessed_file, writer) = artifact.files();
    let (report_path, blessed_path) = (dir.join(report_file), dir.join(blessed_file));
    let (report_shown, blessed_shown) = (report_path.display(), blessed_path.display());
    let regenerate = format!("regenerate with: cargo run --release -p mak-bench --bin {writer}");
    let Ok(report) = std::fs::read_to_string(&report_path) else {
        println!("{name} gate skipped: {report_shown} absent ({regenerate})");
        return Ok(Vec::new());
    };
    let (written_by, current) = artifact
        .read_report(&report)
        .map_err(|e| format!("{report_shown} is not a valid report: {e}"))?;
    let build = fingerprint();
    if written_by != build {
        return Err(format!(
            "{report_shown} is stale — written by source fingerprint `{written_by}`, \
             this build is `{build}` ({regenerate})"
        ));
    }
    if bless {
        let keys = current.values.len();
        std::fs::write(&blessed_path, artifact.bless(&report, current)?)
            .map_err(|e| format!("cannot write {blessed_shown}: {e}"))?;
        println!("{name}: blessed {keys} keys into {blessed_shown}");
        return Ok(Vec::new());
    }
    let blessed = std::fs::read_to_string(&blessed_path)
        .map_err(|e| e.to_string())
        .and_then(|text| artifact.read_blessed(&text))
        .map_err(|e| {
            format!(
                "cannot read {blessed_shown}: {e} \
                 (bless with: cargo run --release -p mak-bench --bin regress -- --bless)"
            )
        })?;
    let findings = compare(artifact, &blessed, &current);
    if findings.is_empty() {
        let checked = blessed.values.keys().filter(|k| current.values.contains_key(*k)).count();
        println!(
            "{name} gate passed: {checked} of {} blessed keys within bounds ({})",
            blessed.values.len(),
            blessed.workload
        );
    }
    Ok(findings)
}

/// The slice of `BENCH_serve.json` the gate reads; the `serve` binary
/// writes the full report.
#[derive(Debug, Deserialize)]
struct ServeView {
    #[serde(default)]
    fingerprint: String,
    sessions: u64,
    budget_minutes: f64,
    sessions_per_hour: f64,
    p99_step_ns: u64,
    aborted: u64,
}

/// The slice of `BENCH_perf.json` the gate reads.
#[derive(Debug, Deserialize)]
struct PerfView {
    #[serde(default)]
    fingerprint: String,
    seeds: u64,
    budget_minutes: f64,
    phase_by_app: Vec<AppPhases>,
}

/// One app's virtual-time phase totals, summed over every crawler and
/// seed of the `perf` matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AppPhases {
    /// Application identifier.
    pub app: String,
    /// Phase totals, in matrix order.
    pub phase: PhaseTotals,
}

/// The blessed file of every artifact but coverage.
#[derive(Debug, Serialize, Deserialize)]
struct BlessedFile {
    workload: String,
    values: Vec<BlessedValue>,
}

#[derive(Debug, Serialize, Deserialize)]
struct BlessedValue {
    key: String,
    value: f64,
}

/// The identity of a coverage matrix: seeds per pair and virtual budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateConfig {
    /// Seeds per (app, crawler) pair.
    pub seeds: u64,
    /// Virtual budget per run, minutes.
    pub budget_minutes: f64,
}

impl GateConfig {
    fn workload(&self) -> String {
        format!("{} seeds x {} min", self.seeds, self.budget_minutes)
    }
}

/// One matrix cell's inputs to the gate — the deterministic outcome of a
/// single run, plus the wall-clock cost of producing it.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Application name.
    pub app: String,
    /// Crawler name.
    pub crawler: String,
    /// Lines covered at the end of the run.
    pub lines: u64,
    /// Element interactions performed.
    pub interactions: u64,
    /// The app's declared total lines (regret denominator).
    pub total_lines: u64,
    /// Wall-clock milliseconds the harness spent on the cell.
    pub wall_ms: f64,
    /// Whether the run cache served the cell (its `wall_ms` then times
    /// a lookup, not a crawl, and stays out of the perf envelope).
    pub cached: bool,
}

impl From<&MatrixCell> for CellResult {
    fn from(cell: &MatrixCell) -> Self {
        let r = &cell.report;
        CellResult {
            app: r.app.clone(),
            crawler: r.crawler.clone(),
            lines: r.final_lines_covered,
            interactions: r.interactions,
            total_lines: r.total_declared_lines,
            wall_ms: cell.wall_ms,
            cached: cell.cached,
        }
    }
}

/// Seed-averaged outcome of one (app, crawler) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairMetrics {
    /// Application name.
    pub app: String,
    /// Crawler name.
    pub crawler: String,
    /// Mean final lines covered over the seeds.
    pub mean_lines: f64,
    /// Mean interactions over the seeds.
    pub mean_interactions: f64,
}

/// One crawler's cumulative regret over the matrix's applications, in
/// percentage points of each app's declared total lines (§V-C, but with
/// the deterministic declared-lines denominator instead of the union
/// ground truth, which is unstable at gate-sized seed counts).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrawlerRegret {
    /// Crawler name.
    pub crawler: String,
    /// Cumulative regret, percentage points.
    pub cumulative_pct: f64,
}

/// Wall-clock throughput of the fresh (non-cached) cells. Recorded for
/// inspection; never gated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfEnvelope {
    /// Cells actually executed this run (cache misses).
    pub fresh_cells: u64,
    /// Mean wall-clock milliseconds per fresh cell.
    pub mean_wall_ms: f64,
    /// Mean interactions per wall-clock second over fresh cells.
    pub mean_steps_per_sec: f64,
}

/// Mean throughput of one application's fresh cells, in steps
/// (interactions) per wall-clock second. Apps with no fresh cells in a
/// run have no entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppPerf {
    /// Application name.
    pub app: String,
    /// Mean interactions per wall-clock second over the app's fresh cells.
    pub mean_steps_per_sec: f64,
}

/// The `results/BENCH_coverage.json` document: one bench matrix folded
/// into gateable metrics plus the advisory perf envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageBench {
    /// Source fingerprint of the build that ran the matrix.
    #[serde(default)]
    pub fingerprint: String,
    /// The knobs the matrix ran under.
    pub config: GateConfig,
    /// Per-(app, crawler) means, sorted by (app, crawler).
    pub pairs: Vec<PairMetrics>,
    /// Per-crawler cumulative regret, sorted ascending (best first).
    pub regret: Vec<CrawlerRegret>,
    /// Advisory wall-clock envelope.
    pub perf: PerfEnvelope,
    /// Per-app fresh-cell throughput, sorted by app.
    pub app_perf: Vec<AppPerf>,
}

impl From<CoverageBench> for Metrics {
    fn from(bench: CoverageBench) -> Self {
        let floors = bench
            .app_perf
            .into_iter()
            .map(|p| PerfFloor { app: p.app, steps_per_sec: p.mean_steps_per_sec });
        coverage_metrics(&bench.config, &bench.pairs, &bench.regret, floors)
    }
}

/// Flattens the coverage half of a bench or a baselines file.
fn coverage_metrics(
    config: &GateConfig,
    pairs: &[PairMetrics],
    regret: &[CrawlerRegret],
    floors: impl Iterator<Item = PerfFloor>,
) -> Metrics {
    let pairs = pairs.iter().flat_map(|p| {
        let pair = format!("{}/{}", p.app, p.crawler);
        [
            (format!("lines/{pair}"), p.mean_lines),
            (format!("interactions/{pair}"), p.mean_interactions),
        ]
    });
    let regret = regret.iter().map(|r| (format!("regret/{}", r.crawler), r.cumulative_pct));
    let floors = floors.map(|f| (format!("steps_per_sec/{}", f.app), f.steps_per_sec));
    Metrics::new(config.workload(), pairs.chain(regret).chain(floors))
}

/// The tolerances block of `results/baselines.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tolerances {
    /// Allowed *drop* in mean lines, relative (gains never gate).
    pub coverage_drop_rel: f64,
    /// Allowed change in mean interactions, relative, symmetric.
    pub interactions_rel: f64,
    /// Allowed change in cumulative regret, absolute percentage points.
    pub regret_abs_pct: f64,
    /// Fraction of a blessed per-app steps/sec floor a run may fall to.
    pub steps_per_sec_frac: f64,
}

/// The committed `results/baselines.json`: the deterministic half of a
/// blessed [`CoverageBench`], the tolerances it is compared under, and
/// the per-app steps/sec floors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baselines {
    /// The knobs the blessed matrix ran under.
    pub config: GateConfig,
    /// Comparison slack ([`TOLERANCES`]).
    pub tolerances: Tolerances,
    /// Blessed per-pair means.
    pub pairs: Vec<PairMetrics>,
    /// Blessed per-crawler cumulative regret.
    pub regret: Vec<CrawlerRegret>,
    /// Blessed per-app steps/sec floors, sorted by app.
    pub perf_floors: Vec<PerfFloor>,
}

/// One blessed throughput floor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfFloor {
    /// Application name.
    pub app: String,
    /// Blessed mean steps/sec over the app's fresh cells.
    pub steps_per_sec: f64,
}

impl Baselines {
    /// Blesses a fresh bench: the aggregate perf envelope is dropped, the
    /// per-app steps/sec means become the floors.
    pub fn from_bench(bench: &CoverageBench) -> Self {
        Baselines {
            config: bench.config.clone(),
            tolerances: TOLERANCES,
            pairs: bench.pairs.clone(),
            regret: bench.regret.clone(),
            perf_floors: bench
                .app_perf
                .iter()
                .map(|p| PerfFloor { app: p.app.clone(), steps_per_sec: p.mean_steps_per_sec })
                .collect(),
        }
    }
}

impl From<Baselines> for Metrics {
    fn from(base: Baselines) -> Self {
        coverage_metrics(&base.config, &base.pairs, &base.regret, base.perf_floors.into_iter())
    }
}

/// Folds matrix cells into a [`CoverageBench`] stamped with this build's
/// fingerprint. Only fresh (uncached) cells enter the perf envelope.
pub fn measure(cells: impl IntoIterator<Item = CellResult>, config: GateConfig) -> CoverageBench {
    /// Per-pair accumulator: per-seed lines and interactions, plus the
    /// app's declared total (the regret denominator).
    type PairRuns = (Vec<f64>, Vec<f64>, u64);
    let mut grouped: BTreeMap<(String, String), PairRuns> = BTreeMap::new();
    let mut wall = Vec::new();
    let mut rate = Vec::new();
    let mut app_rates: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for cell in cells {
        if !cell.cached {
            wall.push(cell.wall_ms);
            if cell.wall_ms > 0.0 {
                let r = cell.interactions as f64 / (cell.wall_ms / 1000.0);
                rate.push(r);
                app_rates.entry(cell.app.clone()).or_default().push(r);
            }
        }
        let entry = grouped
            .entry((cell.app, cell.crawler))
            .or_insert_with(|| (Vec::new(), Vec::new(), cell.total_lines));
        entry.0.push(cell.lines as f64);
        entry.1.push(cell.interactions as f64);
    }
    let pairs: Vec<PairMetrics> = grouped
        .iter()
        .map(|((app, crawler), (lines, interactions, _))| PairMetrics {
            app: app.clone(),
            crawler: crawler.clone(),
            mean_lines: mean(lines),
            mean_interactions: mean(interactions),
        })
        .collect();

    // Regroup per app for the regret computation.
    let mut per_app: BTreeMap<String, (BTreeMap<String, Vec<f64>>, u64)> = BTreeMap::new();
    for ((app, crawler), (lines, _, total)) in &grouped {
        let entry = per_app.entry(app.clone()).or_insert_with(|| (BTreeMap::new(), *total));
        entry.0.insert(crawler.clone(), lines.clone());
    }
    let outcomes: Vec<AppOutcome> = per_app
        .iter()
        .map(|(app, (runs, total))| AppOutcome::from_runs(app.clone(), runs, *total as f64))
        .collect();
    let regret: Vec<CrawlerRegret> = cumulative_regret(&outcomes)
        .into_iter()
        .map(|(crawler, cumulative_pct)| CrawlerRegret { crawler, cumulative_pct })
        .collect();

    let perf = PerfEnvelope {
        fresh_cells: wall.len() as u64,
        mean_wall_ms: if wall.is_empty() { 0.0 } else { mean(&wall) },
        mean_steps_per_sec: if rate.is_empty() { 0.0 } else { mean(&rate) },
    };
    let app_perf: Vec<AppPerf> = app_rates
        .iter()
        .map(|(app, rates)| AppPerf { app: app.clone(), mean_steps_per_sec: mean(rates) })
        .collect();

    CoverageBench { fingerprint: fingerprint(), config, pairs, regret, perf, app_perf }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cell that took `wall_ms` fresh, or `None` when served cached.
    fn cell(
        app: &str,
        crawler: &str,
        lines: u64,
        interactions: u64,
        wall: Option<f64>,
    ) -> CellResult {
        CellResult {
            app: app.into(),
            crawler: crawler.into(),
            lines,
            interactions,
            total_lines: 1_000,
            wall_ms: wall.unwrap_or(0.1),
            cached: wall.is_none(),
        }
    }

    fn coverage_bench() -> CoverageBench {
        // 100k steps/sec on each app's fresh cells; the cached cells
        // (0.1 ms lookups would read as ~1M steps/sec) are ignored.
        let cells = [
            cell("a", "mak", 900, 100, Some(1.0)),
            cell("a", "mak", 920, 104, None),
            cell("a", "bfs", 700, 90, None),
            cell("a", "bfs", 700, 90, None),
            cell("b", "mak", 500, 60, None),
            cell("b", "mak", 500, 60, None),
            cell("b", "bfs", 550, 70, Some(0.7)),
            cell("b", "bfs", 550, 70, None),
        ];
        measure(cells, GateConfig { seeds: 2, budget_minutes: 5.0 })
    }

    /// The blessed metrics of each artifact, from fixture reports.
    fn blessed(artifact: Artifact) -> Metrics {
        let report = match artifact {
            Artifact::Coverage => serde_json::to_string(&coverage_bench()).unwrap(),
            Artifact::Serve => r#"{"sessions": 1000, "budget_minutes": 0.5,
                "sessions_per_hour": 360000.0, "p99_step_ns": 100, "aborted": 0}"#
                .to_owned(),
            Artifact::Phase => r#"{"seeds": 10, "budget_minutes": 30.0, "phase_by_app": [
                {"app": "a", "phase": {"policy_ms": 100.0, "render_ms": 400.0,
                 "think_ms": 300.0, "extract_ms": 200.0, "backoff_ms": 0.0}}]}"#
                .to_owned(),
        };
        let (_, metrics) = artifact.read_report(&report).unwrap();
        // Blessing and reading back is the identity.
        let file = artifact.bless(&report, metrics.clone()).unwrap();
        assert_eq!(artifact.read_blessed(&file).unwrap(), metrics, "{}", artifact.name());
        metrics
    }

    type Edit = Box<dyn Fn(&mut Metrics)>;

    fn edit(f: impl Fn(&mut Metrics) + 'static) -> Edit {
        Box::new(f)
    }

    fn scale(key: &'static str, by: f64) -> Edit {
        edit(move |m| *m.values.get_mut(key).unwrap() *= by)
    }

    fn set(key: &'static str, to: f64) -> Edit {
        edit(move |m| *m.values.get_mut(key).unwrap() = to)
    }

    fn remove(key: &'static str) -> Edit {
        edit(move |m| assert!(m.values.remove(key).is_some()))
    }

    fn insert(key: &'static str) -> Edit {
        edit(move |m| assert!(m.values.insert(key.into(), 1.0).is_none()))
    }

    fn workload(w: &'static str) -> Edit {
        edit(move |m| m.workload = w.into())
    }

    #[test]
    fn the_gate_table() {
        use Artifact::{Coverage, Phase, Serve};
        let bench = coverage_bench();
        assert_eq!((bench.perf.fresh_cells, bench.perf.mean_wall_ms), (2, 0.85));
        let coverage = blessed(Coverage);
        // Seed means and regret ranking: mak loses 5 points on b, bfs 21 on a.
        assert_eq!(coverage.values["lines/a/mak"], 910.0);
        assert_eq!(coverage.values["interactions/a/mak"], 102.0);
        assert_eq!(coverage.values["regret/mak"], 5.0);
        assert!((coverage.values["regret/bfs"] - 21.0).abs() < 1e-9);
        assert_eq!(coverage.values["steps_per_sec/a"], 100_000.0);
        assert_eq!(coverage.values["steps_per_sec/b"], 100_000.0);

        let ulp = edit(|m| {
            let v = m.values.get_mut("phase/a/Render").unwrap();
            *v = f64::from_bits(v.to_bits() + 1);
        });
        let cases: Vec<(Artifact, Edit, Option<&str>)> = vec![
            (Coverage, edit(|_| {}), None),
            (Serve, edit(|_| {}), None),
            (Phase, edit(|_| {}), None),
            // A coverage drop beyond 5% fails; inside it or any gain passes.
            (Coverage, scale("lines/a/mak", 0.90), Some("lines/a/mak")),
            (Coverage, scale("lines/a/mak", 0.97), None),
            (Coverage, scale("lines/a/mak", 1.50), None),
            // Interaction drift is symmetric.
            (Coverage, scale("interactions/a/mak", 1.20), Some("interactions/a/mak")),
            (Coverage, scale("interactions/a/mak", 0.80), Some("interactions/a/mak")),
            (Coverage, scale("interactions/a/mak", 1.05), None),
            // Regret drift is absolute, in percentage points.
            (Coverage, set("regret/mak", 11.0), Some("regret/mak")),
            (Coverage, set("regret/mak", 9.0), None),
            // Missing and new keys are both findings, for every artifact.
            (Coverage, remove("lines/b/bfs"), Some("missing")),
            (Coverage, insert("lines/z/mak"), Some("new")),
            (Serve, remove("aborted"), Some("missing")),
            (Phase, insert("phase/z/Render"), Some("new")),
            // A workload mismatch refuses to compare.
            (Coverage, workload("10 seeds x 5 min"), Some("workload mismatch")),
            (Phase, workload("2 seeds x 5 min"), Some("workload mismatch")),
            // Steps/sec floors gate at half the blessed rate; apps served
            // entirely from the cache skip.
            (Coverage, scale("steps_per_sec/a", 0.6), None),
            (Coverage, scale("steps_per_sec/a", 0.4), Some("steps_per_sec/a")),
            (Coverage, remove("steps_per_sec/a"), None),
            // Serve: sessions/hour floor at 0.2×, p99 ceiling at 5× but
            // never below MIN_P99_CEILING_NS, and zero aborts.
            (Serve, scale("sessions_per_hour", 0.3), None),
            (Serve, scale("sessions_per_hour", 0.1), Some("sessions_per_hour")),
            (Serve, set("p99_step_ns", MIN_P99_CEILING_NS), None),
            (Serve, set("p99_step_ns", MIN_P99_CEILING_NS + 1.0), Some("p99_step_ns")),
            (Serve, set("aborted", 1.0), Some("aborted")),
            // Exact rows fail on a 1-ulp change.
            (Phase, ulp, Some("phase/a/Render")),
        ];
        for (i, (artifact, edit, expected)) in cases.iter().enumerate() {
            let base = blessed(*artifact);
            let mut current = base.clone();
            edit(&mut current);
            let findings = compare(*artifact, &base, &current);
            match expected {
                None => assert!(findings.is_empty(), "case {i}: {findings:?}"),
                Some(needle) => assert!(
                    findings.len() == 1 && findings[0].contains(needle),
                    "case {i}: expected one `{needle}` finding, got {findings:?}"
                ),
            }
        }
    }

    #[test]
    fn stale_reports_are_refused_and_absent_ones_skipped() {
        let dir = std::env::temp_dir().join(format!("mak-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(run(Artifact::Serve, &dir, false).is_empty(), "absent report skips");
        let report = r#"{"fingerprint": "0000000000000000", "sessions": 1,
            "budget_minutes": 0.5, "sessions_per_hour": 1.0, "p99_step_ns": 1, "aborted": 0}"#;
        std::fs::write(dir.join("BENCH_serve.json"), report).unwrap();
        let findings = run(Artifact::Serve, &dir, true);
        std::fs::remove_dir_all(&dir).ok();
        assert!(findings.len() == 1 && findings[0].contains("stale"), "{findings:?}");
    }
}
