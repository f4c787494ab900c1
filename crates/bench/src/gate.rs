//! The coverage/perf regression gate behind the `regress` binary.
//!
//! A bench matrix is folded into a [`CoverageBench`] — per-(app, crawler)
//! mean final coverage and interactions, per-crawler cumulative regret
//! (§V-C), and a steps/sec envelope from the fresh (non-cached) cells.
//! The deterministic part of that document (everything except the perf
//! envelope) is compared against a committed [`Baselines`] file with
//! per-metric tolerances; any finding is a regression and the binary
//! exits non-zero.
//!
//! Determinism split: coverage, interactions and regret are pure
//! functions of `(app, crawler, seed, config)` and gate hard. Wall-clock
//! time is run-dependent, so the perf envelope is recorded in
//! `results/BENCH_coverage.json` for inspection but never gated on its
//! own; per-app steps/sec is gated *softly* against blessed floors with a
//! generous fractional tolerance (default 0.5×), so only an
//! order-of-magnitude slowdown — a lost optimization, not scheduler noise
//! — trips the gate.
//!
//! The vendored serde has no map types, so every persisted collection
//! here is a `Vec` of named-field structs sorted on its natural key.

use mak::framework::engine::CrawlReport;
use mak_metrics::regret::{cumulative_regret, AppOutcome};
use mak_metrics::stats::mean;
use mak_obs::event::Event;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The identity of a gate run: baselines are only comparable against a
/// matrix produced under the same knobs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateConfig {
    /// Seeds per (app, crawler) pair.
    pub seeds: u64,
    /// Virtual budget per run, minutes.
    pub budget_minutes: f64,
}

/// One matrix cell's inputs to the gate — the deterministic outcome of a
/// single run.
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
}

impl From<&CrawlReport> for CellResult {
    fn from(r: &CrawlReport) -> Self {
        CellResult {
            app: r.app.clone(),
            crawler: r.crawler.clone(),
            lines: r.final_lines_covered,
            interactions: r.interactions,
            total_lines: r.total_declared_lines,
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
/// inspection; never gated — wall time is not deterministic.
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
    /// The knobs the matrix ran under.
    pub config: GateConfig,
    /// Per-(app, crawler) means, sorted by (app, crawler).
    pub pairs: Vec<PairMetrics>,
    /// Per-crawler cumulative regret, sorted ascending (best first).
    pub regret: Vec<CrawlerRegret>,
    /// Advisory wall-clock envelope.
    pub perf: PerfEnvelope,
    /// Per-app fresh-cell throughput, sorted by app; compared against the
    /// blessed [`Baselines::perf_floors`].
    pub app_perf: Vec<AppPerf>,
}

/// Per-metric slack for [`compare`]. The workspace is bit-deterministic,
/// so drift only appears when code changes; the tolerances say how much
/// of it is acceptable without re-blessing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tolerances {
    /// Allowed *drop* in mean lines, relative (gains never gate).
    pub coverage_drop_rel: f64,
    /// Allowed change in mean interactions, relative, symmetric.
    pub interactions_rel: f64,
    /// Allowed change in cumulative regret, absolute percentage points.
    pub regret_abs_pct: f64,
    /// Fraction of a blessed per-app steps/sec floor a run may fall to
    /// before gating. Deliberately generous (0.5×): wall-clock throughput
    /// varies with the machine, so only losing half the blessed speed —
    /// a regressed hot path, not noise — counts.
    pub steps_per_sec_frac: f64,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            coverage_drop_rel: 0.05,
            interactions_rel: 0.10,
            regret_abs_pct: 5.0,
            steps_per_sec_frac: 0.5,
        }
    }
}

/// The committed `results/baselines.json`: the deterministic half of a
/// blessed [`CoverageBench`] plus the tolerances to compare under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Baselines {
    /// The knobs the blessed matrix ran under.
    pub config: GateConfig,
    /// Comparison slack.
    pub tolerances: Tolerances,
    /// Blessed per-pair means.
    pub pairs: Vec<PairMetrics>,
    /// Blessed per-crawler cumulative regret.
    pub regret: Vec<CrawlerRegret>,
    /// Blessed per-app steps/sec floors, sorted by app. Compared at
    /// [`Tolerances::steps_per_sec_frac`] of the floor; apps with no
    /// fresh cells in a gate run are skipped (cached cells carry no
    /// wall-clock signal).
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
    /// Blesses a fresh bench as the new baseline. The aggregate perf
    /// envelope is dropped (not deterministic); the per-app steps/sec
    /// means become the blessed floors.
    pub fn from_bench(bench: &CoverageBench, tolerances: Tolerances) -> Self {
        Baselines {
            config: bench.config.clone(),
            tolerances,
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

/// Folds matrix results plus the bench-side `CellFinished` stream into a
/// [`CoverageBench`]. `cells` may be empty (no perf envelope recorded).
pub fn measure<'a>(
    results: impl IntoIterator<Item = CellResult>,
    cells: impl IntoIterator<Item = &'a Event>,
    config: GateConfig,
) -> CoverageBench {
    /// Per-pair accumulator: per-seed lines and interactions, plus the
    /// app's declared total (the regret denominator).
    type PairRuns = (Vec<f64>, Vec<f64>, u64);
    let mut grouped: BTreeMap<(String, String), PairRuns> = BTreeMap::new();
    for cell in results {
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

    let mut fresh = 0u64;
    let mut wall = Vec::new();
    let mut rate = Vec::new();
    let mut app_rates: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for event in cells {
        if let Event::CellFinished { app, wall_ms, interactions, cached: false, .. } = event {
            fresh += 1;
            wall.push(*wall_ms);
            if *wall_ms > 0.0 {
                let r = *interactions as f64 / (*wall_ms / 1000.0);
                rate.push(r);
                app_rates.entry(app.as_str()).or_default().push(r);
            }
        }
    }
    let perf = PerfEnvelope {
        fresh_cells: fresh,
        mean_wall_ms: if wall.is_empty() { 0.0 } else { mean(&wall) },
        mean_steps_per_sec: if rate.is_empty() { 0.0 } else { mean(&rate) },
    };
    let app_perf: Vec<AppPerf> = app_rates
        .iter()
        .map(|(app, rates)| AppPerf { app: (*app).to_owned(), mean_steps_per_sec: mean(rates) })
        .collect();

    CoverageBench { config, pairs, regret, perf, app_perf }
}

/// One gate finding, already formatted for display.
pub type Regression = String;

/// Compares a fresh bench against committed baselines.
///
/// `Err` means the two are not comparable at all (different matrix knobs
/// — re-bless rather than chase phantom diffs); `Ok(findings)` is the
/// list of regressions, empty when the gate passes.
pub fn compare(current: &CoverageBench, base: &Baselines) -> Result<Vec<Regression>, String> {
    if current.config != base.config {
        return Err(format!(
            "baseline config mismatch: baselines.json was blessed with seeds={} \
             budget_minutes={} but this run used seeds={} budget_minutes={}; \
             re-bless with `regress --bless` under matching knobs",
            base.config.seeds,
            base.config.budget_minutes,
            current.config.seeds,
            current.config.budget_minutes,
        ));
    }
    let tol = &base.tolerances;
    let mut findings = Vec::new();

    let cur_pairs: BTreeMap<(&str, &str), &PairMetrics> =
        current.pairs.iter().map(|p| ((p.app.as_str(), p.crawler.as_str()), p)).collect();
    let base_pairs: BTreeMap<(&str, &str), &PairMetrics> =
        base.pairs.iter().map(|p| ((p.app.as_str(), p.crawler.as_str()), p)).collect();

    for (key, b) in &base_pairs {
        let Some(c) = cur_pairs.get(key) else {
            findings.push(format!(
                "pair {}/{} present in baselines but missing from this run",
                key.0, key.1
            ));
            continue;
        };
        let floor = b.mean_lines * (1.0 - tol.coverage_drop_rel);
        if c.mean_lines < floor {
            findings.push(format!(
                "coverage regression on {}/{}: mean lines {:.1} < {:.1} \
                 (baseline {:.1}, tolerance -{}%)",
                b.app,
                b.crawler,
                c.mean_lines,
                floor,
                b.mean_lines,
                100.0 * tol.coverage_drop_rel,
            ));
        }
        if (c.mean_interactions - b.mean_interactions).abs()
            > tol.interactions_rel * b.mean_interactions
        {
            findings.push(format!(
                "interaction drift on {}/{}: mean {:.1} vs baseline {:.1} (tolerance ±{}%)",
                b.app,
                b.crawler,
                c.mean_interactions,
                b.mean_interactions,
                100.0 * tol.interactions_rel,
            ));
        }
    }
    for key in cur_pairs.keys() {
        if !base_pairs.contains_key(key) {
            findings.push(format!(
                "pair {}/{} is new (not in baselines); re-bless to admit it",
                key.0, key.1
            ));
        }
    }

    // Soft throughput floors: only apps with fresh cells this run carry a
    // wall-clock signal; cached cells are skipped, and gains never gate.
    let cur_perf: BTreeMap<&str, f64> =
        current.app_perf.iter().map(|p| (p.app.as_str(), p.mean_steps_per_sec)).collect();
    for f in &base.perf_floors {
        if let Some(&measured) = cur_perf.get(f.app.as_str()) {
            let floor = f.steps_per_sec * tol.steps_per_sec_frac;
            if measured < floor {
                findings.push(format!(
                    "throughput regression on {}: {:.0} steps/sec < {:.0} \
                     (blessed floor {:.0} × tolerance {})",
                    f.app, measured, floor, f.steps_per_sec, tol.steps_per_sec_frac,
                ));
            }
        }
    }

    let base_regret: BTreeMap<&str, f64> =
        base.regret.iter().map(|r| (r.crawler.as_str(), r.cumulative_pct)).collect();
    for r in &current.regret {
        match base_regret.get(r.crawler.as_str()) {
            None => findings.push(format!(
                "crawler {} has no blessed regret baseline; re-bless to admit it",
                r.crawler
            )),
            Some(b) if (r.cumulative_pct - b).abs() > tol.regret_abs_pct => {
                findings.push(format!(
                    "regret drift for {}: {:.1} vs baseline {:.1} (tolerance ±{:.1} points)",
                    r.crawler, r.cumulative_pct, b, tol.regret_abs_pct,
                ));
            }
            Some(_) => {}
        }
    }

    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(app: &str, crawler: &str, lines: u64, interactions: u64) -> CellResult {
        CellResult {
            app: app.into(),
            crawler: crawler.into(),
            lines,
            interactions,
            total_lines: 1_000,
        }
    }

    fn config() -> GateConfig {
        GateConfig { seeds: 2, budget_minutes: 5.0 }
    }

    fn bench() -> CoverageBench {
        measure(
            vec![
                cell("a", "mak", 900, 100),
                cell("a", "mak", 920, 104),
                cell("a", "bfs", 700, 90),
                cell("a", "bfs", 700, 90),
                cell("b", "mak", 500, 60),
                cell("b", "mak", 500, 60),
                cell("b", "bfs", 550, 70),
                cell("b", "bfs", 550, 70),
            ],
            [],
            config(),
        )
    }

    #[test]
    fn measure_averages_and_ranks_regret() {
        let b = bench();
        assert_eq!(b.pairs.len(), 4);
        let mak_a = b.pairs.iter().find(|p| p.app == "a" && p.crawler == "mak").unwrap();
        assert_eq!(mak_a.mean_lines, 910.0);
        assert_eq!(mak_a.mean_interactions, 102.0);
        // mak: 0 on a, 5 points on b; bfs: 21 points on a, 0 on b.
        assert_eq!(b.regret[0].crawler, "mak");
        assert!((b.regret[0].cumulative_pct - 5.0).abs() < 1e-9);
        assert_eq!(b.regret[1].crawler, "bfs");
        assert!((b.regret[1].cumulative_pct - 21.0).abs() < 1e-9);
        assert_eq!(b.perf.fresh_cells, 0, "no CellFinished events supplied");
    }

    #[test]
    fn perf_envelope_counts_only_fresh_cells() {
        let mk = |cached, wall_ms| Event::CellFinished {
            app: "a".into(),
            crawler: "mak".into(),
            seed: 0,
            wall_ms,
            virtual_secs: 300.0,
            interactions: 100,
            cached,
        };
        let events = [mk(false, 20.0), mk(true, 0.1), mk(false, 40.0)];
        let b = measure(vec![cell("a", "mak", 1, 1)], events.iter(), config());
        assert_eq!(b.perf.fresh_cells, 2);
        assert!((b.perf.mean_wall_ms - 30.0).abs() < 1e-9);
    }

    #[test]
    fn identical_bench_passes_the_gate() {
        let b = bench();
        let base = Baselines::from_bench(&b, Tolerances::default());
        assert_eq!(compare(&b, &base), Ok(vec![]));
    }

    #[test]
    fn coverage_drop_beyond_tolerance_is_a_regression() {
        let b = bench();
        let base = Baselines::from_bench(&b, Tolerances::default());
        let mut worse = b.clone();
        worse.pairs[0].mean_lines *= 0.90; // 10% drop > 5% tolerance
        let findings = compare(&worse, &base).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("coverage regression"), "{findings:?}");
        // A drop inside the tolerance passes.
        let mut ok = b.clone();
        ok.pairs[0].mean_lines *= 0.97;
        assert_eq!(compare(&ok, &base), Ok(vec![]));
        // A gain never gates.
        let mut better = b.clone();
        better.pairs[0].mean_lines *= 1.50;
        assert_eq!(compare(&better, &base), Ok(vec![]));
    }

    #[test]
    fn interaction_drift_is_symmetric() {
        let b = bench();
        let base = Baselines::from_bench(&b, Tolerances::default());
        let mut drift = b.clone();
        drift.pairs[0].mean_interactions *= 1.20; // +20% > ±10%
        let findings = compare(&drift, &base).unwrap();
        assert!(findings.iter().any(|f| f.contains("interaction drift")), "{findings:?}");
    }

    #[test]
    fn regret_drift_beyond_absolute_tolerance_is_caught() {
        let b = bench();
        let base = Baselines::from_bench(&b, Tolerances::default());
        let mut drift = b.clone();
        drift.regret[1].cumulative_pct += 6.0; // > 5 points
        let findings = compare(&drift, &base).unwrap();
        assert!(findings.iter().any(|f| f.contains("regret drift")), "{findings:?}");
    }

    #[test]
    fn shape_changes_are_regressions_and_config_changes_are_errors() {
        let b = bench();
        let base = Baselines::from_bench(&b, Tolerances::default());
        let mut missing = b.clone();
        missing.pairs.remove(0);
        let findings = compare(&missing, &base).unwrap();
        assert!(findings.iter().any(|f| f.contains("missing from this run")), "{findings:?}");

        let mut extra = b.clone();
        extra.pairs.push(PairMetrics {
            app: "z".into(),
            crawler: "mak".into(),
            mean_lines: 1.0,
            mean_interactions: 1.0,
        });
        let findings = compare(&extra, &base).unwrap();
        assert!(findings.iter().any(|f| f.contains("is new")), "{findings:?}");

        let mut other = b.clone();
        other.config.seeds = 10;
        let err = compare(&other, &base).unwrap_err();
        assert!(err.contains("re-bless"), "{err}");
    }

    #[test]
    fn throughput_floors_gate_at_half_the_blessed_rate() {
        let mk = |app: &str, wall_ms| Event::CellFinished {
            app: app.into(),
            crawler: "mak".into(),
            seed: 0,
            wall_ms,
            virtual_secs: 300.0,
            interactions: 1_000,
            cached: false,
        };
        let events = [mk("a", 10.0), mk("b", 10.0)]; // 100k steps/sec each
        let b =
            measure(vec![cell("a", "mak", 1, 1), cell("b", "mak", 1, 1)], events.iter(), config());
        assert_eq!(b.app_perf.len(), 2);
        let base = Baselines::from_bench(&b, Tolerances::default());
        assert_eq!(base.perf_floors.len(), 2);

        // Same speed passes; 60% of the floor passes (tolerance is 0.5×).
        assert_eq!(compare(&b, &base), Ok(vec![]));
        let mut slower = b.clone();
        slower.app_perf[0].mean_steps_per_sec *= 0.6;
        assert_eq!(compare(&slower, &base), Ok(vec![]));

        // 40% of the floor gates.
        let mut regressed = b.clone();
        regressed.app_perf[0].mean_steps_per_sec *= 0.4;
        let findings = compare(&regressed, &base).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].contains("throughput regression on a"), "{findings:?}");

        // An app with no fresh cells this run is skipped, not failed.
        let mut cached_run = b.clone();
        cached_run.app_perf.retain(|p| p.app != "a");
        assert_eq!(compare(&cached_run, &base), Ok(vec![]));
    }

    #[test]
    fn bench_and_baselines_round_trip_through_json() {
        let b = bench();
        let json = serde_json::to_string(&b).unwrap();
        let back: CoverageBench = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
        let base = Baselines::from_bench(&b, Tolerances::default());
        let json = serde_json::to_string(&base).unwrap();
        let back: Baselines = serde_json::from_str(&json).unwrap();
        assert_eq!(back, base);
    }
}
