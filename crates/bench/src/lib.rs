//! # mak-bench — the harness regenerating every table and figure
//!
//! One binary per experiment (see `DESIGN.md` §3 for the index):
//!
//! | binary    | paper artifact | content |
//! |-----------|----------------|---------|
//! | `fig1`    | Fig. 1         | state-abstraction failure demos |
//! | `table1`  | Table I        | crawler component summary |
//! | `fig2`    | Fig. 2         | coverage over time, 8 PHP apps × 3 crawlers |
//! | `table2`  | Table II       | estimated mean coverage, 11 apps |
//! | `ablation`| §V-C           | cumulative regret MAK/BFS/DFS/Random |
//! | `ablation2`| extension     | design-choice ablations (policies, rewards, pool) |
//! | `perf`    | §V-D           | mean interacted elements per run; `BENCH_perf.json` with per-app phase totals |
//! | `sweep`   | extension      | coverage vs crawl budget |
//! | `faults`  | extension      | coverage + resilience vs injected fault rate |
//! | `serve`   | —              | serving-layer load run; `BENCH_serve.json` |
//! | `regress` | —              | the gate table ([`gate`]): coverage/regret vs `results/baselines.json`, serve vs `results/serve_slo.json`, exact phase totals vs `results/phase_gate.json`; refuses stale reports |
//! | `report`  | —              | assemble `results/index.html` |
//!
//! All binaries honor these environment variables:
//!
//! - `MAK_SEEDS` — repetitions per (app, crawler) pair (default 10, §V-A.4);
//! - `MAK_BUDGET_MINUTES` — virtual budget per run (default 30, §V-A.4);
//! - `MAK_THREADS` — worker threads (default, and for `0`: available
//!   parallelism);
//! - `MAK_CACHE` — run cache mode, `rw` (default) / `ro` / `off`; cached
//!   cells live under `results/cache/` (see [`mak_metrics::store`]) and
//!   make re-invocations incremental — the second run of any binary only
//!   pays for cells it has not seen;
//! - `MAK_CACHE_DIR` — overrides the cache directory.
//!
//! Results are printed as markdown and also written under `results/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gate;

use mak::framework::engine::EngineConfig;
use mak_metrics::experiment::RunMatrix;
use mak_metrics::report::RunSummary;
use mak_metrics::store::RunStore;
use std::path::{Path, PathBuf};

/// Repetitions per cell, from `MAK_SEEDS` (default 10, as in the paper).
pub fn seeds() -> u64 {
    std::env::var("MAK_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(10)
}

/// Virtual budget in minutes, from `MAK_BUDGET_MINUTES` (default 30).
pub fn budget_minutes() -> f64 {
    std::env::var("MAK_BUDGET_MINUTES").ok().and_then(|s| s.parse().ok()).unwrap_or(30.0)
}

/// Worker threads, from `MAK_THREADS` (default, and for `0`: available
/// parallelism) — the same reading the crawl service makes.
pub use mak_serve::threads_from_env as threads;

/// The engine configuration implied by the environment.
pub fn engine_config() -> EngineConfig {
    EngineConfig::with_budget_minutes(budget_minutes())
}

/// A run matrix over `apps` × `crawlers` with environment-derived seeds and
/// budget.
pub fn matrix<A, C>(apps: A, crawlers: C) -> RunMatrix
where
    A: IntoIterator,
    A::Item: Into<String>,
    C: IntoIterator,
    C::Item: Into<String>,
{
    RunMatrix::new(apps, crawlers, seeds()).with_config(engine_config())
}

/// The run store implied by the environment (`MAK_CACHE`,
/// `MAK_CACHE_DIR`): every bench binary routes its matrix through this so
/// overlapping grid cells are computed once and shared.
pub fn store() -> RunStore {
    RunStore::from_env()
}

/// The `results/` directory (created on demand).
///
/// # Panics
///
/// Panics if the directory cannot be created.
pub fn results_dir() -> PathBuf {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    dir.to_path_buf()
}

/// Writes `content` under `results/<name>`, printing the path.
///
/// # Panics
///
/// Panics on I/O errors — harness binaries should fail loudly.
pub fn write_result(name: &str, content: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, content).expect("write result file");
    println!("\n[written {}]", path.display());
}

/// Persists run summaries as JSON under `results/<name>`.
///
/// # Panics
///
/// Panics on I/O or serialization errors.
pub fn write_summaries(name: &str, summaries: &[RunSummary]) {
    let json = mak_metrics::report::to_json(summaries).expect("serialize summaries");
    write_result(name, &json);
}

/// Formats a fraction as a percentage with one decimal, e.g. `87.3%`.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_defaults() {
        // Do not set the env vars here — tests run in parallel processes
        // sharing the environment; just check the defaults parse.
        assert!(seeds() >= 1);
        assert!(budget_minutes() > 0.0);
        assert!(threads() >= 1);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.873), "87.3%");
        assert_eq!(pct(1.0), "100.0%");
    }

    #[test]
    fn matrix_respects_env_shape() {
        let m = matrix(["addressbook"], ["mak"]);
        assert_eq!(m.run_count() as u64, seeds());
    }
}
