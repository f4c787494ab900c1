//! Regenerates the **§V-D performance evaluation**: the mean number of
//! elements each crawler interacted with per run.
//!
//! Paper result: MAK 883, WebExplor 854, QExplore 827 — MAK's coverage gain
//! is "not merely due to more frequent interactions but rather to a more
//! effective selection of elements".
//!
//! Besides the paper table, this binary profiles the harness itself into
//! `results/BENCH_perf.json`: the source fingerprint of the build, per-cell
//! wall-clock milliseconds and steps/second (the cells returned by
//! [`run_matrix_cells`]), the session cache hit rate, and per-app
//! virtual-time phase totals (`phase_by_app`), which `regress` holds
//! exactly to `results/phase_gate.json`.

use mak::spec::RL_CRAWLERS;
use mak_bench::gate::{fingerprint, AppPhases};
use mak_bench::{matrix, seeds, store, threads, write_result, write_summaries};
use mak_metrics::experiment::run_matrix_cells;
use mak_metrics::report::{markdown_table, RunSummary};
use mak_metrics::stats::{mean, sample_std};
use mak_obs::span::PhaseTotals;
use mak_websim::apps;
use serde::Serialize;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One matrix cell's harness cost, from its [`MatrixCell`].
///
/// [`MatrixCell`]: mak_metrics::experiment::MatrixCell
#[derive(Debug, Serialize)]
struct PerfCell {
    app: String,
    crawler: String,
    seed: u64,
    /// Wall-clock cost of producing the cell (cache hits are ~free).
    wall_ms: f64,
    virtual_secs: f64,
    interactions: u64,
    /// Interactions per wall-clock second — the harness throughput.
    steps_per_sec: f64,
    cached: bool,
    /// Where the cell's *virtual* time went (from the `CrawlReport`, so
    /// cache hits keep their breakdown); the buckets sum to
    /// `virtual_secs` within float noise.
    phase: PhaseTotals,
}

/// Session cache totals for the matrix pass.
#[derive(Debug, Serialize)]
struct PerfCache {
    hits: u64,
    misses: u64,
    hit_rate: f64,
}

/// The `results/BENCH_perf.json` document.
#[derive(Debug, Serialize)]
struct PerfReport {
    /// Source fingerprint of the build that wrote the report.
    fingerprint: String,
    budget_minutes: f64,
    seeds: u64,
    threads: u64,
    cells: Vec<PerfCell>,
    cache: PerfCache,
    /// Per-app virtual-time phase breakdown, summed over the matrix.
    phase_by_app: Vec<AppPhases>,
}

fn main() {
    let all = apps::all_names();
    let m = matrix(all.iter().copied(), RL_CRAWLERS.iter().copied());
    mak_obs::progress!(
        "perf: {} runs ({} apps x {} crawlers x {} seeds) on {} threads",
        m.run_count(),
        all.len(),
        RL_CRAWLERS.len(),
        seeds(),
        threads()
    );
    let store = store();
    let matrix_cells = run_matrix_cells(&m, threads(), &store);
    let reports: Vec<_> = matrix_cells.iter().map(|cell| &cell.report).collect();

    let mut rows = Vec::new();
    for crawler in RL_CRAWLERS {
        let counts: Vec<f64> = reports
            .iter()
            .filter(|r| &r.crawler == crawler)
            .map(|r| r.interactions as f64)
            .collect();
        let states: Vec<f64> = reports
            .iter()
            .filter(|r| &r.crawler == crawler)
            .filter_map(|r| r.state_count.map(|s| s as f64))
            .collect();
        rows.push(vec![
            (*crawler).to_owned(),
            format!("{:.0}", mean(&counts)),
            format!("{:.0}", sample_std(&counts)),
            if states.is_empty() { "-".to_owned() } else { format!("{:.0}", mean(&states)) },
        ]);
    }

    let table = markdown_table(
        &["Crawler", "Mean interacted elements / run", "Std", "Mean states created"],
        &rows,
    );
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Performance (§V-D): interactions per 30-minute run, averaged over the {} \napplications x {} seeds.\n",
        all.len(),
        seeds()
    );
    let _ = writeln!(out, "{table}");
    let _ = writeln!(out, "Paper reference: MAK 883, WebExplor 854, QExplore 827.");
    println!("{out}");
    write_result("perf.md", &out);
    let summaries: Vec<RunSummary> = reports.iter().copied().map(RunSummary::from).collect();
    write_summaries("perf_runs.json", &summaries);

    // Harness-profiling artifact. Cells come back in grid order; sort
    // for a stable layout (the wall-clock values themselves are
    // inherently run-dependent). Phase breakdowns come from the reports
    // (deterministic and cached).
    let mut cells: Vec<PerfCell> = matrix_cells
        .iter()
        .map(|cell| {
            let r = &cell.report;
            PerfCell {
                app: r.app.clone(),
                crawler: r.crawler.clone(),
                seed: r.seed,
                wall_ms: cell.wall_ms,
                virtual_secs: r.elapsed_secs,
                interactions: r.interactions,
                steps_per_sec: if cell.wall_ms > 0.0 {
                    r.interactions as f64 / (cell.wall_ms / 1000.0)
                } else {
                    0.0
                },
                cached: cell.cached,
                phase: r.phase,
            }
        })
        .collect();
    cells.sort_by(|a, b| (&a.app, &a.crawler, a.seed).cmp(&(&b.app, &b.crawler, b.seed)));
    let mut phase_by_app: BTreeMap<&str, PhaseTotals> = BTreeMap::new();
    for report in &reports {
        phase_by_app.entry(report.app.as_str()).or_default().add(&report.phase);
    }
    let phase_by_app: Vec<AppPhases> = phase_by_app
        .into_iter()
        .map(|(app, phase)| AppPhases { app: app.to_owned(), phase })
        .collect();
    let hits = store.session_hits();
    let misses = store.session_misses();
    let looked_up = hits + misses;
    let perf = PerfReport {
        fingerprint: fingerprint(),
        budget_minutes: mak_bench::budget_minutes(),
        seeds: seeds(),
        threads: threads() as u64,
        cells,
        cache: PerfCache {
            hits,
            misses,
            hit_rate: if looked_up == 0 { 0.0 } else { hits as f64 / looked_up as f64 },
        },
        phase_by_app,
    };
    write_result(
        "BENCH_perf.json",
        &serde_json::to_string_pretty(&perf).expect("perf report serializes"),
    );
}
