//! Per-layer timing from outside the program.
//!
//! The traced run wraps the two trait objects a session is built from —
//! the shared `Arc<dyn WebApp>` and the `Box<dyn Crawler>` — in thin
//! wrappers that delegate every trait method and time the two that do
//! the work, [`WebApp::handle`] and [`Crawler::step`]. The benchmark
//! itself times the calls it makes on `Session`. Calls nest
//! (`Session::step` ⊃ `Crawler::step` ⊃ `WebApp::handle`), so each layer's
//! self time is its busy time minus the busy time of the timed calls made
//! inside it.
//!
//! A counting global allocator attributes allocations to the same
//! layers and tracks live bytes. It counts only after
//! [`enable_alloc_counting`], which the benchmark calls at the start of a
//! traced round's process.

use mak::framework::checkpoint::CrawlerState;
use mak::framework::crawler::{CrawlEnd, Crawler, StepReport};
use mak_browser::client::Browser;
use mak_browser::cost::CostModel;
use mak_obs::sink::SinkHandle;
use mak_websim::coverage::{CodeModel, CoverageMode};
use mak_websim::http::{Request, Response};
use mak_websim::server::{RequestCtx, WebApp};
use mak_websim::url::Url;
use serde::{Deserialize, Serialize};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The timed call sites, one per layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Session::step`, timed by the benchmark's stepping loop.
    SessionStep,
    /// `Crawler::step` of MAK.
    CrawlerMak,
    /// `Crawler::step` of the Q-learning crawlers (WebExplor, QExplore).
    CrawlerQlearn,
    /// `Crawler::step` of the static BFS/DFS/Random crawlers.
    CrawlerStatic,
    /// `WebApp::handle`: one simulated request.
    Handle,
    /// `Session::with_shared_app`: opening a session.
    SessionNew,
    /// `Session::snapshot`: capturing a checkpoint.
    Snapshot,
    /// `Session::finish`: sealing the report.
    Finish,
}

impl Layer {
    /// Every layer, in table order.
    pub const ALL: [Layer; 8] = [
        Layer::SessionStep,
        Layer::CrawlerMak,
        Layer::CrawlerQlearn,
        Layer::CrawlerStatic,
        Layer::Handle,
        Layer::SessionNew,
        Layer::Snapshot,
        Layer::Finish,
    ];

    /// The row name in the traced-run table.
    pub fn name(self) -> &'static str {
        match self {
            Layer::SessionStep => "Session::step",
            Layer::CrawlerMak => "Crawler::step mak",
            Layer::CrawlerQlearn => "Crawler::step qlearn",
            Layer::CrawlerStatic => "Crawler::step static",
            Layer::Handle => "WebApp::handle",
            Layer::SessionNew => "Session::with_shared_app",
            Layer::Snapshot => "Session::snapshot",
            Layer::Finish => "Session::finish",
        }
    }

    /// The crawler-step layer a registry crawler's family maps to.
    pub fn for_crawler(name: &str) -> Layer {
        match name {
            "webexplor" | "qexplore" => Layer::CrawlerQlearn,
            "bfs" | "dfs" | "random" => Layer::CrawlerStatic,
            _ => Layer::CrawlerMak,
        }
    }
}

/// What one layer did: calls, inclusive (busy) and exclusive (self)
/// wall time, and the allocations made while it ran (inclusive).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerStat {
    /// Completed calls.
    pub calls: u64,
    /// Wall nanoseconds inside the call, nested calls included.
    pub busy_ns: u64,
    /// Busy time minus the busy time of timed calls nested inside.
    pub self_ns: u64,
    /// Allocations made during the call, nested calls included.
    pub allocs: u64,
}

struct Tracer {
    stats: [LayerStat; Layer::ALL.len()],
    /// One accumulator per open call: busy time of its timed children.
    open: Vec<u64>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = const {
        let zero = LayerStat { calls: 0, busy_ns: 0, self_ns: 0, allocs: 0 };
        RefCell::new(Tracer { stats: [zero; Layer::ALL.len()], open: Vec::new() })
    };
}

/// Runs `f` as one call of `layer` on this thread's tracer.
pub fn timed<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| t.borrow_mut().open.push(0));
    let allocs_before = alloc_count();
    let started = Instant::now();
    let out = f();
    let busy = started.elapsed().as_nanos() as u64;
    let allocs = alloc_count() - allocs_before;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        let children = t.open.pop().expect("timed calls are balanced");
        if let Some(parent) = t.open.last_mut() {
            *parent += busy;
        }
        let stat = &mut t.stats[layer as usize];
        stat.calls += 1;
        stat.busy_ns += busy;
        stat.self_ns += busy.saturating_sub(children);
        stat.allocs += allocs;
    });
    out
}

/// This thread's per-layer totals so far.
pub fn layer_stats() -> [LayerStat; Layer::ALL.len()] {
    TRACER.with(|t| t.borrow().stats)
}

/// A [`WebApp`] that delegates every method to `inner` and times
/// [`WebApp::handle`].
pub struct TimedApp(pub Arc<dyn WebApp>);

impl WebApp for TimedApp {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn seed_url(&self) -> Url {
        self.0.seed_url()
    }

    fn code_model(&self) -> &CodeModel {
        self.0.code_model()
    }

    fn coverage_mode(&self) -> CoverageMode {
        self.0.coverage_mode()
    }

    fn base_latency_ms(&self) -> f64 {
        self.0.base_latency_ms()
    }

    fn handle(&self, req: &Request, ctx: &mut RequestCtx<'_>) -> Response {
        timed(Layer::Handle, || self.0.handle(req, ctx))
    }
}

/// A [`Crawler`] that delegates every method to `inner` and times
/// [`Crawler::step`] under its family's layer.
pub struct TimedCrawler {
    inner: Box<dyn Crawler>,
    layer: Layer,
}

impl TimedCrawler {
    /// Wraps `inner`, filing its steps under its family's layer.
    pub fn new(inner: Box<dyn Crawler>) -> Self {
        let layer = Layer::for_crawler(inner.name());
        TimedCrawler { inner, layer }
    }
}

impl Crawler for TimedCrawler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn step(&mut self, browser: &mut Browser) -> Result<StepReport, CrawlEnd> {
        let inner = &mut self.inner;
        timed(self.layer, || inner.step(browser))
    }

    fn policy_overhead_ms(&self, cost: &CostModel) -> f64 {
        self.inner.policy_overhead_ms(cost)
    }

    fn state_count(&self) -> Option<usize> {
        self.inner.state_count()
    }

    fn distinct_urls(&self) -> usize {
        self.inner.distinct_urls()
    }

    fn attach_sink(&mut self, sink: SinkHandle) {
        self.inner.attach_sink(sink)
    }

    fn snapshot_state(&self) -> Option<CrawlerState> {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &CrawlerState) -> Result<(), serde::Error> {
        self.inner.restore_state(state)
    }
}

/// The system allocator plus counters: allocation events per thread and
/// live bytes per process. Counts only once [`enable_alloc_counting`]
/// ran, so untraced rounds pay one relaxed load per allocation.
///
/// Counting stays per thread on the hot path: each thread publishes its
/// live-byte delta to the process total every [`PUBLISH_EVERY`] events,
/// so an atomic update is paid once per batch, not per allocation. A
/// thread's unpublished remainder (fewer than that many events) is what a
/// reading of [`live_bytes`] can miss from other threads.
pub struct CountingAlloc;

/// Allocator events a thread batches before publishing its live bytes.
const PUBLISH_EVERY: u32 = 64;

// `Relaxed` throughout: the counters are statistics and publish no other
// data.
static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Allocation events on this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Live-byte delta not yet published, and the events behind it.
    static PENDING: Cell<(i64, u32)> = const { Cell::new((0, 0)) };
}

/// Records one allocator event; `alloc` marks allocations (and
/// reallocations) as opposed to frees. Never allocates: the thread-locals
/// are const-initialized and need no destructor.
fn note(bytes: i64, alloc: bool) {
    if !COUNTING.load(Ordering::Relaxed) {
        return;
    }
    if alloc {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
    let _ = PENDING.try_with(|p| {
        let (delta, events) = p.get();
        let (delta, events) = (delta + bytes, events + 1);
        if events >= PUBLISH_EVERY {
            LIVE_BYTES.fetch_add(delta, Ordering::Relaxed);
            p.set((0, 0));
        } else {
            p.set((delta, events));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the bookkeeping in
// `note` never allocates and never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as i64, true);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as i64, true);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which hands out `System`'s blocks.
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as i64), false);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; `ptr` came from `System` via this
        // allocator and the caller upholds `realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as i64 - layout.size() as i64, true);
        }
        new
    }
}

/// Turns allocation counting on for the rest of the process.
pub fn enable_alloc_counting() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocation events counted on this thread so far (reallocations
/// included).
pub fn alloc_count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes allocated minus bytes freed since counting started, after
/// publishing this thread's remainder. Only differences are meaningful:
/// blocks from before counting started are subtracted when freed.
pub fn live_bytes() -> i64 {
    let (delta, _) = PENDING.with(|p| p.replace((0, 0)));
    LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak::framework::engine::EngineConfig;
    use mak::framework::session::Session;
    use mak::spec::build_crawler;
    use mak_websim::apps;

    #[test]
    fn nested_calls_split_busy_into_self_time() {
        let before = layer_stats();
        timed(Layer::SessionStep, || {
            timed(Layer::CrawlerMak, || {
                timed(Layer::Handle, || std::thread::sleep(std::time::Duration::from_millis(2)))
            });
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let after = layer_stats();
        let delta = |l: Layer| {
            let (a, b) = (after[l as usize], before[l as usize]);
            (a.calls - b.calls, a.busy_ns - b.busy_ns, a.self_ns - b.self_ns)
        };
        let (step_calls, step_busy, step_self) = delta(Layer::SessionStep);
        let (_, mak_busy, mak_self) = delta(Layer::CrawlerMak);
        let (_, handle_busy, handle_self) = delta(Layer::Handle);
        assert_eq!(step_calls, 1);
        assert_eq!(handle_busy, handle_self, "a leaf's self time is its busy time");
        assert_eq!(mak_self, mak_busy - handle_busy);
        assert_eq!(step_self, step_busy - mak_busy);
        assert_eq!(step_self + mak_self + handle_self, step_busy);
        assert!(handle_busy >= 2_000_000 && step_self >= 1_000_000);
    }

    #[test]
    fn wrapped_runs_equal_bare_runs_for_each_crawler_family() {
        let config = EngineConfig::with_budget_minutes(2.0);
        for (app, crawler) in [("phpbb2", "mak"), ("wordpress", "qexplore"), ("vanilla", "bfs")] {
            let model = apps::build_shared(app).unwrap();
            let bare = Session::with_shared_app(
                model.clone(),
                build_crawler(crawler, 5).unwrap(),
                &config,
                5,
            )
            .finish();
            let before = layer_stats();
            let mut wrapped = Session::with_shared_app(
                Arc::new(TimedApp(model)),
                Box::new(TimedCrawler::new(build_crawler(crawler, 5).unwrap())),
                &config,
                5,
            );
            while timed(Layer::SessionStep, || wrapped.step()).is_running() {}
            let snapshot = wrapped.snapshot().expect("wrapped crawlers checkpoint");
            assert_eq!(snapshot.crawler, crawler);
            assert_eq!(wrapped.finish(), bare, "{app} × {crawler}");
            let after = layer_stats();
            let family = Layer::for_crawler(crawler) as usize;
            assert!(after[family].calls > before[family].calls, "{crawler} steps were timed");
            let handles = Layer::Handle as usize;
            assert!(after[handles].calls > before[handles].calls, "{app} requests were timed");
        }
    }
}
