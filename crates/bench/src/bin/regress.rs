//! The **regression gate**: runs a small cache-accelerated coverage
//! matrix (all apps × all six crawlers) into `results/BENCH_coverage.json`,
//! then holds every gated artifact to its blessed file through the one
//! gate table in [`mak_bench::gate`] — coverage/regret against
//! `results/baselines.json`, the serve load run (`BENCH_serve.json`)
//! against `results/serve_slo.json`, and the per-app phase totals of the
//! perf run (`BENCH_perf.json`) exactly against `results/phase_gate.json`.
//! Exits non-zero on any finding.
//!
//! ```text
//! cargo run --release -p mak-bench --bin regress            # gate
//! cargo run --release -p mak-bench --bin regress -- --bless # re-bless
//! ```
//!
//! Unlike the paper-scale binaries, the coverage matrix defaults to a
//! small size: `MAK_SEEDS` defaults to **2** and `MAK_BUDGET_MINUTES` to
//! **5** here, so an uncached pass stays in the seconds range. A report
//! written by another source tree (its fingerprint differs from this
//! build's) is refused as stale; an absent serve or perf report skips
//! with a note. `--bless` rewrites the blessed file of every fresh report
//! present.

use mak::framework::engine::EngineConfig;
use mak::spec::CRAWLER_NAMES;
use mak_bench::gate::{self, measure, Artifact, CellResult, GateConfig};
use mak_bench::{results_dir, store, threads, write_result};
use mak_metrics::experiment::{run_matrix_cells, RunMatrix};
use mak_websim::apps;
use std::process::ExitCode;

/// `name`'s value, defaulting to the gate-sized `default` (not the
/// paper-scale defaults of `mak_bench::seeds`/`budget_minutes`).
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let bless = args.iter().any(|a| a == "--bless");
    if args.iter().any(|a| a != "--bless") {
        eprintln!("usage: regress [--bless]");
        return ExitCode::FAILURE;
    }

    let config = GateConfig {
        seeds: env_or("MAK_SEEDS", 2),
        budget_minutes: env_or("MAK_BUDGET_MINUTES", 5.0),
    };
    let all = apps::all_names();
    let m = RunMatrix::new(all.iter().copied(), CRAWLER_NAMES.iter().copied(), config.seeds)
        .with_config(EngineConfig::with_budget_minutes(config.budget_minutes));
    mak_obs::progress!(
        "regress: {} runs ({} apps x {} crawlers x {} seeds, {} min) on {} threads",
        m.run_count(),
        all.len(),
        CRAWLER_NAMES.len(),
        config.seeds,
        config.budget_minutes,
        threads()
    );

    let cells = run_matrix_cells(&m, threads(), &store());
    let bench = measure(cells.iter().map(CellResult::from), config);
    write_result(
        "BENCH_coverage.json",
        &serde_json::to_string_pretty(&bench).expect("bench serializes"),
    );
    // Advisory only: the aggregate wall-clock envelope never gates.
    mak_obs::progress!(
        "perf envelope (advisory): {} fresh cells, mean {:.1} ms/cell, {:.0} steps/s",
        bench.perf.fresh_cells,
        bench.perf.mean_wall_ms,
        bench.perf.mean_steps_per_sec
    );

    let findings: Vec<String> =
        Artifact::ALL.into_iter().flat_map(|a| gate::run(a, &results_dir(), bless)).collect();
    if findings.is_empty() {
        println!("regression gate {}", if bless { "blessed" } else { "passed" });
        ExitCode::SUCCESS
    } else {
        println!("regression gate FAILED with {} findings:", findings.len());
        for f in &findings {
            println!("  {f}");
        }
        ExitCode::FAILURE
    }
}
