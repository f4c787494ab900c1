//! The run-matrix executor: apps × crawlers × seeds.
//!
//! §V-A.4: "Each experiment consists of running the crawler on a web
//! application for 30 minutes […]. We repeat the experiments for each pair
//! of crawlers and web applications for 10 times." A [`RunMatrix`] captures
//! that grid; [`run_matrix`] executes it across worker threads, and
//! [`run_matrix_cached`] additionally serves cells out of a [`RunStore`]
//! (see [`crate::store`]) so repeated invocations only pay for new cells.
//! [`run_matrix_cells`] also returns each cell's harness cost — wall-clock
//! milliseconds and whether the store served it — as plain data.
//! Every run is deterministic in its `(app, crawler, seed)` triple, so
//! repetitions are just seeds `0..n` — which is exactly what makes the
//! cache sound.

use crate::store::RunStore;
use mak::framework::engine::{run_crawl, CrawlReport, EngineConfig};
use mak::spec::build_crawler;
use mak_obs::logger::{enabled, Level};
use mak_websim::apps;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The experiment grid.
#[derive(Debug, Clone)]
pub struct RunMatrix {
    /// Application names (see [`mak_websim::apps::build`]).
    pub apps: Vec<String>,
    /// Crawler names (see [`mak::spec::build_crawler`]).
    pub crawlers: Vec<String>,
    /// Number of repetitions; runs use seeds `0..seeds`.
    pub seeds: u64,
    /// Engine configuration shared by all runs.
    pub config: EngineConfig,
}

impl RunMatrix {
    /// Builds a matrix with the default 30-minute engine configuration.
    pub fn new<A, C>(apps: A, crawlers: C, seeds: u64) -> Self
    where
        A: IntoIterator,
        A::Item: Into<String>,
        C: IntoIterator,
        C::Item: Into<String>,
    {
        RunMatrix {
            apps: apps.into_iter().map(Into::into).collect(),
            crawlers: crawlers.into_iter().map(Into::into).collect(),
            seeds,
            config: EngineConfig::default(),
        }
    }

    /// Overrides the engine configuration.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Total number of runs in the grid.
    pub fn run_count(&self) -> usize {
        self.apps.len() * self.crawlers.len() * self.seeds as usize
    }
}

/// One finished matrix cell: its report plus what producing it cost the
/// harness.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// The cell's crawl report.
    pub report: CrawlReport,
    /// **Wall-clock** milliseconds spent producing the cell: the cache
    /// lookup, plus the crawl and the cache write on a miss. Host time,
    /// so it never enters the report or any event stream.
    pub wall_ms: f64,
    /// Whether the store served the cell without executing it.
    pub cached: bool,
}

/// Executes one cell of the matrix.
///
/// # Panics
///
/// Panics on unknown app or crawler names — a configuration error worth
/// failing loudly on.
pub fn run_one(app: &str, crawler: &str, seed: u64, config: &EngineConfig) -> CrawlReport {
    let app_model = apps::build(app).unwrap_or_else(|| panic!("unknown app {app}"));
    let mut c = build_crawler(crawler, seed).unwrap_or_else(|| panic!("unknown crawler {crawler}"));
    run_crawl(&mut *c, app_model, config, seed)
}

/// Executes one cell through a [`RunStore`]: serves a cache hit when the
/// store has one, otherwise runs and persists the fresh report.
///
/// # Panics
///
/// Panics on unknown app or crawler names, like [`run_one`].
pub fn run_one_cached(
    app: &str,
    crawler: &str,
    seed: u64,
    config: &EngineConfig,
    store: &RunStore,
) -> CrawlReport {
    run_one_cached_flagged(app, crawler, seed, config, store).0
}

/// Like [`run_one_cached`], but also reports whether the cell was served
/// from the store (`true`) or executed fresh (`false`).
///
/// # Panics
///
/// Panics on unknown app or crawler names, like [`run_one`].
pub fn run_one_cached_flagged(
    app: &str,
    crawler: &str,
    seed: u64,
    config: &EngineConfig,
    store: &RunStore,
) -> (CrawlReport, bool) {
    if let Some(report) = store.load(app, crawler, seed, config) {
        return (report, true);
    }
    let report = run_one(app, crawler, seed, config);
    store.save(&report, config);
    (report, false)
}

/// Renders a panic payload for error reporting.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Live progress shared by the worker threads.
struct Progress {
    total: usize,
    done: AtomicUsize,
    /// Virtual milliseconds accumulated across finished cells.
    virtual_ms: AtomicU64,
    enabled: bool,
    started: std::time::Instant,
}

impl Progress {
    fn new(total: usize, wanted: bool) -> Self {
        Progress {
            total,
            done: AtomicUsize::new(0),
            virtual_ms: AtomicU64::new(0),
            // Respect `MAK_LOG=off` even when the caller asked for
            // progress: the env var is the user's master switch.
            enabled: wanted && enabled(Level::Progress),
            started: std::time::Instant::now(),
        }
    }

    /// Records one finished cell and (when enabled) reports on stderr.
    fn cell_done(&self, report: &CrawlReport, store: &RunStore) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.virtual_ms.fetch_add((report.elapsed_secs * 1_000.0) as u64, Ordering::Relaxed);
        if !self.enabled {
            return;
        }
        // One line per cell is unreadable for large grids on a plain log;
        // cap non-terminal output at ~20 evenly spaced updates.
        use std::io::IsTerminal;
        let stride = (self.total / 20).max(1);
        if std::io::stderr().is_terminal() {
            eprint!("\r{}", self.line(done, store));
            if done == self.total {
                eprintln!();
            }
        } else if done.is_multiple_of(stride) || done == self.total {
            eprintln!("{}", self.line(done, store));
        }
    }

    fn line(&self, done: usize, store: &RunStore) -> String {
        let hits = store.session_hits();
        let looked_up = hits + store.session_misses();
        let rate = if looked_up == 0 { 0.0 } else { 100.0 * hits as f64 / looked_up as f64 };
        format!("[cells {done}/{}] cache hits {hits}/{looked_up} ({rate:.0}%)", self.total)
    }

    /// Prints the closing summary (virtual-vs-wall speedup).
    fn finish(&self, store: &RunStore) {
        if !self.enabled {
            return;
        }
        let wall = self.started.elapsed().as_secs_f64();
        let virt = self.virtual_ms.load(Ordering::Relaxed) as f64 / 1_000.0;
        let speedup = if wall > 0.0 { virt / wall } else { f64::INFINITY };
        eprintln!(
            "{}; {:.1} virtual min in {:.1}s wall ({speedup:.0}x real time)",
            self.line(self.done.load(Ordering::Relaxed), store),
            virt / 60.0,
            wall,
        );
    }
}

/// Runs the whole matrix on `threads` worker threads and returns all
/// reports (ordering follows the grid: apps outermost, then crawlers, then
/// seeds). Every cell executes — nothing is read from or written to disk;
/// use [`run_matrix_cached`] for the incremental variant.
///
/// # Panics
///
/// Panics if `threads` is zero or any name in the matrix is unknown; the
/// failing `(app, crawler, seed)` cell is named in the panic message.
pub fn run_matrix(matrix: &RunMatrix, threads: usize) -> Vec<CrawlReport> {
    reports(run_matrix_inner(matrix, threads, &RunStore::disabled(), false))
}

/// Runs the matrix through a [`RunStore`]: cells the store already holds
/// are loaded, the rest execute across worker threads and are persisted.
/// Progress (cells done, cache-hit rate, virtual-vs-wall speedup) is
/// reported on stderr.
///
/// Cached and fresh reports are field-for-field identical — the cache only
/// short-circuits work, never changes results.
///
/// # Panics
///
/// Panics if `threads` is zero or any name in the matrix is unknown; the
/// failing `(app, crawler, seed)` cell is named in the panic message.
pub fn run_matrix_cached(matrix: &RunMatrix, threads: usize, store: &RunStore) -> Vec<CrawlReport> {
    reports(run_matrix_cells(matrix, threads, store))
}

/// [`run_matrix_cached`], returning each report as a [`MatrixCell`] with
/// its wall-clock cost and cache flag, in grid order. The wall-clock
/// figure is harness data only: crawl results stay deterministic while
/// the harness can still be profiled.
///
/// # Panics
///
/// Panics if `threads` is zero or any name in the matrix is unknown; the
/// failing `(app, crawler, seed)` cell is named in the panic message.
pub fn run_matrix_cells(matrix: &RunMatrix, threads: usize, store: &RunStore) -> Vec<MatrixCell> {
    run_matrix_inner(matrix, threads, store, true)
}

fn reports(cells: Vec<MatrixCell>) -> Vec<CrawlReport> {
    cells.into_iter().map(|cell| cell.report).collect()
}

fn run_matrix_inner(
    matrix: &RunMatrix,
    threads: usize,
    store: &RunStore,
    progress_enabled: bool,
) -> Vec<MatrixCell> {
    assert!(threads > 0, "need at least one worker thread");
    let mut jobs = Vec::with_capacity(matrix.run_count());
    for app in &matrix.apps {
        for crawler in &matrix.crawlers {
            for seed in 0..matrix.seeds {
                jobs.push((jobs.len(), app.clone(), crawler.clone(), seed));
            }
        }
    }
    let total = jobs.len();
    let progress = Progress::new(total, progress_enabled);
    let queue = Mutex::new(jobs.into_iter());
    let results: Mutex<Vec<(usize, MatrixCell)>> = Mutex::new(Vec::with_capacity(total));
    // `(app, crawler, seed, message)` of every cell whose execution
    // panicked. A panicking cell must not take its siblings down with a
    // poisoned-mutex cascade, so all locks below tolerate poison
    // (`PoisonError::into_inner`: the protected data — a job iterator, a
    // results vector — stays structurally valid even if a panic ever fired
    // while a lock was held).
    let failures: Mutex<Vec<(String, String, u64, String)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..threads.min(total.max(1)) {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                let Some((idx, app, crawler, seed)) = job else { break };
                let cell_started = std::time::Instant::now();
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    run_one_cached_flagged(&app, &crawler, seed, &matrix.config, store)
                }));
                match outcome {
                    Ok((report, cached)) => {
                        let wall_ms = cell_started.elapsed().as_secs_f64() * 1_000.0;
                        progress.cell_done(&report, store);
                        let cell = MatrixCell { report, wall_ms, cached };
                        results.lock().unwrap_or_else(PoisonError::into_inner).push((idx, cell));
                    }
                    Err(payload) => {
                        let msg = panic_message(payload.as_ref());
                        failures
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push((app, crawler, seed, msg));
                    }
                }
            });
        }
    });

    let failures = failures.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some((app, crawler, seed, msg)) = failures.first() {
        panic!(
            "run_matrix: cell (app=`{app}`, crawler=`{crawler}`, seed={seed}) panicked: {msg} \
             ({} of {total} cells failed)",
            failures.len(),
        );
    }
    progress.finish(store);

    let mut results = results.into_inner().unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|(idx, _)| *idx);
    results.into_iter().map(|(_, cell)| cell).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{CacheMode, RunStore};
    use std::path::PathBuf;

    fn tiny_matrix() -> RunMatrix {
        RunMatrix::new(["addressbook"], ["bfs", "random"], 2)
            .with_config(EngineConfig::with_budget_minutes(1.0))
    }

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mak-exp-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn grid_size_is_product() {
        assert_eq!(tiny_matrix().run_count(), 4);
    }

    #[test]
    fn matrix_runs_in_grid_order() {
        let reports = run_matrix(&tiny_matrix(), 3);
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].crawler, "bfs");
        assert_eq!(reports[0].seed, 0);
        assert_eq!(reports[1].seed, 1);
        assert_eq!(reports[2].crawler, "random");
        for r in &reports {
            assert_eq!(r.app, "addressbook");
            assert!(r.final_lines_covered > 0);
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        // Includes a learning crawler (`mak`): policy state must be
        // per-cell, so the thread schedule cannot leak between runs.
        let m = RunMatrix::new(["addressbook", "vanilla"], ["bfs", "random", "mak"], 2)
            .with_config(EngineConfig::with_budget_minutes(1.0));
        let a = run_matrix(&m, 1);
        let b = run_matrix(&m, 4);
        assert_eq!(a, b, "thread count must not change results");
    }

    #[test]
    #[should_panic(expected = "unknown app")]
    fn unknown_app_panics() {
        run_one("geocities", "bfs", 0, &EngineConfig::with_budget_minutes(1.0));
    }

    #[test]
    fn failing_cell_is_named_and_siblings_survive() {
        // Regression: a panic in one cell used to poison the job-queue
        // mutex and kill every sibling thread with a misleading
        // `"queue lock"` expect; now the original panic surfaces with the
        // failing cell named.
        let m = RunMatrix::new(["addressbook"], ["bfs", "nosuchcrawler"], 1)
            .with_config(EngineConfig::with_budget_minutes(1.0));
        let payload = std::panic::catch_unwind(|| run_matrix(&m, 2))
            .expect_err("matrix with an unknown crawler must fail");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("run_matrix panics with a formatted message");
        assert!(msg.contains("crawler=`nosuchcrawler`"), "cell named: {msg}");
        assert!(msg.contains("seed=0"), "seed named: {msg}");
        assert!(msg.contains("unknown crawler"), "original cause kept: {msg}");
        assert!(msg.contains("1 of 2 cells failed"), "healthy sibling survived: {msg}");
    }

    #[test]
    fn cached_rerun_is_field_identical_to_fresh() {
        let root = tmp_root("identical");
        let m = tiny_matrix();
        let fresh = run_matrix(&m, 2);

        let timed = |cells: &[MatrixCell], cached: bool| {
            cells.iter().all(|c| c.cached == cached && c.wall_ms.is_finite() && c.wall_ms >= 0.0)
        };

        let first = RunStore::at(&root, CacheMode::ReadWrite);
        let populated = run_matrix_cells(&m, 2, &first);
        assert!(timed(&populated, false), "populating pass executes every cell");
        assert_eq!(reports(populated), fresh, "populating pass matches uncached run");
        assert_eq!(first.session_hits(), 0);
        assert_eq!(first.session_misses(), m.run_count() as u64);

        let second = RunStore::at(&root, CacheMode::ReadWrite);
        let cached = run_matrix_cells(&m, 2, &second);
        assert!(timed(&cached, true), "second pass serves every cell from the store");
        assert_eq!(reports(cached), fresh, "cached reload matches uncached run field-for-field");
        assert_eq!(second.session_hits(), m.run_count() as u64, "second pass is 100% hits");
        assert_eq!(second.session_misses(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn config_change_forces_reexecution() {
        let root = tmp_root("config-change");
        let m = tiny_matrix();
        run_matrix_cached(&m, 2, &RunStore::at(&root, CacheMode::ReadWrite));

        let mut changed = tiny_matrix();
        changed.config.cost.think_ms += 1.0;
        let store = RunStore::at(&root, CacheMode::ReadWrite);
        run_matrix_cached(&changed, 2, &store);
        assert_eq!(store.session_hits(), 0, "any config change must invalidate");
        assert_eq!(store.session_misses(), changed.run_count() as u64);

        // A code-fingerprint change invalidates just the same.
        let refp = RunStore::at(&root, CacheMode::ReadWrite).with_fingerprint(0xdead);
        run_matrix_cached(&m, 2, &refp);
        assert_eq!(refp.session_hits(), 0, "a code change must invalidate");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cache_off_forces_reexecution() {
        let root = tmp_root("off-mode");
        let m = tiny_matrix();
        run_matrix_cached(&m, 2, &RunStore::at(&root, CacheMode::ReadWrite));

        let off = RunStore::at(&root, CacheMode::Off);
        let reports = run_matrix_cached(&m, 2, &off);
        assert_eq!(off.session_hits(), 0, "MAK_CACHE=off must execute everything");
        assert_eq!(off.session_misses(), m.run_count() as u64);
        assert_eq!(reports, run_matrix(&m, 1), "off-mode results are still deterministic");
        let _ = std::fs::remove_dir_all(&root);
    }
}
