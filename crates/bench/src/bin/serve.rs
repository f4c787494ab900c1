//! The serving-layer load generator: how many crawl sessions per hour
//! can one process sustain, and what does a virtual-clock step cost
//! under full multiplexing pressure?
//!
//! Submits [`SESSIONS`] concurrent sessions — a mixed workload cycling
//! apps and crawlers, every one in flight before the drain starts — and
//! runs them to the end of their [`BUDGET_MINUTES`] virtual budget on
//! `MAK_THREADS` workers. The workload is fixed: it is the one
//! `results/serve_slo.json` is blessed at. Writes throughput
//! (sessions/hour, steps/sec), wall-clock step-latency percentiles
//! (p50/p99), a drain-progress time-series and the build's source
//! fingerprint to `results/BENCH_serve.json` (schema: [`ServeReport`]),
//! plus the full Prometheus exposition to `results/serve_metrics.prom`
//! and the virtual-domain snapshot — bit-identical across thread counts
//! and schedule orders — to `results/serve_metrics_virtual.json`.
//!
//! The CI `observability` job runs it three times. The `regress` binary
//! holds the default-thread report to the serve rows of its gate table
//! (sessions/hour floor, p99 step-latency ceiling, zero aborted
//! sessions) and refuses it once the source tree has moved on; the
//! 1- and 8-thread runs must write byte-identical virtual snapshots.
//!
//! Latency numbers are wall-clock and therefore machine-dependent; the
//! session *outcomes* stay bit-deterministic (see
//! `crates/serve/tests/determinism.rs`), so this binary is a profiler,
//! not a results generator — nothing here feeds the paper tables.

use mak::framework::engine::EngineConfig;
use mak_bench::gate::fingerprint;
use mak_bench::write_result;
use mak_serve::{Checkpoint, CrawlService, ServiceConfig, SessionSpec, TenantQuota};
use serde::Serialize;
use std::time::Instant;

/// Sessions submitted, all in flight before the drain starts.
const SESSIONS: u64 = 100_000;

/// Virtual budget per session, minutes.
const BUDGET_MINUTES: f64 = 0.5;

/// The `results/BENCH_serve.json` document.
#[derive(Debug, Serialize)]
struct ServeReport {
    /// Source fingerprint of the build that ran the load.
    fingerprint: String,
    /// Sessions submitted (all in flight simultaneously before draining).
    sessions: u64,
    /// Peak concurrent sessions (equals `sessions`: submit-then-drain).
    peak_in_flight: u64,
    /// Worker threads used for the drain.
    threads: u64,
    /// Steps per scheduling quantum.
    steps_per_slice: u64,
    /// Virtual budget per session, minutes.
    budget_minutes: f64,
    /// Wall-clock seconds for the drain (excludes submission).
    drain_wall_secs: f64,
    /// Wall-clock seconds spent submitting (session construction).
    submit_wall_secs: f64,
    /// Completed sessions per wall-clock hour, from the drain phase.
    sessions_per_hour: f64,
    /// Virtual-clock steps executed across all sessions.
    total_steps: u64,
    /// Steps per wall-clock second across the drain.
    steps_per_sec: f64,
    /// Median wall-clock cost of one virtual step, nanoseconds.
    p50_step_ns: u64,
    /// 99th-percentile wall-clock cost of one virtual step, nanoseconds.
    p99_step_ns: u64,
    /// Sessions that panicked mid-step. Always 0 for in-tree crawlers.
    aborted: u64,
    /// Total interactions across all completed sessions (a cheap
    /// plausibility check that the sessions really crawled).
    total_interactions: u64,
    /// Work-stealing operations during the drain.
    steals: u64,
    /// High-water mark of observed scheduler queue depth.
    queue_peak: u64,
    /// Drain progress: one point per `checkpoint_every` completions
    /// (wall-clock domain).
    series: Vec<Checkpoint>,
}

fn main() {
    let config = ServiceConfig {
        sample_latency: true,
        // Roughly 50 points across the drain.
        checkpoint_every: SESSIONS / 50,
        // One tenant holds every session, so the default quota must
        // clear the target concurrency.
        default_quota: TenantQuota::concurrent(usize::MAX),
        ..ServiceConfig::default()
    };
    let threads = config.threads as u64;
    let steps_per_slice = config.steps_per_slice as u64;
    mak_obs::progress!(
        "serve: {SESSIONS} concurrent sessions x {BUDGET_MINUTES} virtual minutes on {threads} threads"
    );

    // A mixed fleet: three apps of different sizes, three crawlers of
    // different policy costs, seeds all distinct.
    let apps = ["addressbook", "vanilla", "phpbb2"];
    let crawlers = ["mak", "bfs", "random"];
    let engine = EngineConfig::with_budget_minutes(BUDGET_MINUTES);
    let mut service = CrawlService::new(config);

    let submit_started = Instant::now();
    for seed in 0..SESSIONS {
        let spec = SessionSpec::new(
            "load",
            apps[(seed % apps.len() as u64) as usize],
            crawlers[((seed / apps.len() as u64) % crawlers.len() as u64) as usize],
            seed,
        )
        .config(engine.clone());
        service.submit(spec).expect("load tenant is unquotaed");
    }
    let submit_wall_secs = submit_started.elapsed().as_secs_f64();
    let peak_in_flight = service.in_flight() as u64;
    assert_eq!(peak_in_flight, SESSIONS, "every session in flight before the drain");
    mak_obs::progress!(
        "serve: {peak_in_flight} sessions in flight ({submit_wall_secs:.1}s to build); draining"
    );

    let drain_started = Instant::now();
    let done = service.run_to_drain();
    let drain_wall_secs = drain_started.elapsed().as_secs_f64();

    assert_eq!(done.len() as u64 + service.aborted(), SESSIONS);
    let latencies = service.last_latencies();
    let total_steps = latencies.total_steps();
    let report = ServeReport {
        fingerprint: fingerprint(),
        sessions: SESSIONS,
        peak_in_flight,
        threads,
        steps_per_slice,
        budget_minutes: BUDGET_MINUTES,
        drain_wall_secs,
        submit_wall_secs,
        sessions_per_hour: done.len() as f64 / (drain_wall_secs / 3600.0),
        total_steps,
        steps_per_sec: total_steps as f64 / drain_wall_secs,
        p50_step_ns: latencies.quantile_ns(0.50).unwrap_or(0),
        p99_step_ns: latencies.quantile_ns(0.99).unwrap_or(0),
        aborted: service.aborted(),
        total_interactions: done.iter().map(|c| c.report.interactions).sum(),
        steals: service.metrics().registry().counter_total("mak_serve_scheduler_steals_total")
            as u64,
        queue_peak: service
            .metrics()
            .registry()
            .gauge_value("mak_serve_queue_depth_peak", &[])
            .unwrap_or(0.0) as u64,
        series: service.last_checkpoints().to_vec(),
    };
    mak_obs::progress!(
        "serve: {} sessions in {:.1}s ({:.0} sessions/hour, {:.0} steps/s, p50 {}ns p99 {}ns, {} aborted)",
        done.len(),
        report.drain_wall_secs,
        report.sessions_per_hour,
        report.steps_per_sec,
        report.p50_step_ns,
        report.p99_step_ns,
        report.aborted
    );
    write_result(
        "BENCH_serve.json",
        &serde_json::to_string_pretty(&report).expect("serve report serializes"),
    );
    write_result("serve_metrics.prom", &service.metrics().snapshot().to_prometheus());
    write_result("serve_metrics_virtual.json", &service.metrics().virtual_snapshot().to_json());
}
