//! The serving-layer load generator: how many crawl sessions per hour
//! can one process sustain, and what does a virtual-clock step cost
//! under full multiplexing pressure?
//!
//! Submits `MAK_SERVE_SESSIONS` (default 100 000) concurrent sessions —
//! a mixed workload cycling apps and crawlers, every one in flight
//! before the drain starts — and runs them to the end of their
//! `MAK_SERVE_BUDGET_MINUTES` (default 0.5) virtual budget on
//! `MAK_THREADS` workers. Writes throughput (sessions/hour, steps/sec),
//! wall-clock step-latency percentiles (p50/p99), a drain-progress
//! time-series and the build's source fingerprint to
//! `results/BENCH_serve.json` (schema: [`ServeReport`]), plus the full Prometheus
//! exposition to `results/serve_metrics.prom` and the virtual-domain
//! snapshot — bit-identical across thread counts and schedule orders —
//! to `results/serve_metrics_virtual.json` (the CI `telemetry` job
//! byte-diffs it across `MAK_THREADS`). `MAK_SERVE_METRICS=off`
//! disables collection entirely, which is how the 5% overhead bound on
//! metrics is measured. The CI `serve-smoke` job runs a 1 000 ×
//! 2-minute variant and gates on zero aborted sessions; the `regress`
//! binary holds this report to the serve rows of its gate table
//! (`results/serve_slo.json`, blessed at the default workload) and
//! refuses it once the source tree has moved on.
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
    /// Crash-recovery cycle measurements, present only in
    /// `MAK_SERVE_CRASH_AT` mode.
    recovery: Option<RecoveryBench>,
}

/// One measured crash-recovery cycle: the load ran to
/// `MAK_SERVE_CRASH_AT` scheduler steps with cadence checkpointing on,
/// the service was dropped without draining (a simulated hard crash),
/// and a fresh service recovered the survivors from disk and ran them
/// to completion. Wall-clock numbers are never gated; session outcomes
/// stay bit-deterministic.
#[derive(Debug, Serialize)]
struct RecoveryBench {
    /// Scheduler steps executed before the simulated crash.
    crash_at_steps: u64,
    /// Cadence: steps a session runs between checkpoint writes.
    checkpoint_every_steps: u64,
    /// Sessions that finished before the crash point.
    completed_before_crash: u64,
    /// Sessions re-admitted from on-disk checkpoints.
    restored: u64,
    /// Sessions lost to the crash (in flight, never checkpointed).
    lost: u64,
    /// Checkpoint files quarantined as unreadable during recovery.
    corrupt_quarantined: u64,
    /// Wall-clock seconds to scan, decode, and re-admit every checkpoint.
    recover_wall_secs: f64,
    /// Wall-clock seconds to drain the recovered sessions to completion.
    resume_drain_wall_secs: f64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|s| s.parse().ok()).unwrap_or(default)
}

fn main() {
    let sessions = env_u64("MAK_SERVE_SESSIONS", 100_000);
    let budget_minutes = env_f64("MAK_SERVE_BUDGET_MINUTES", 0.5);
    let collect_metrics = std::env::var("MAK_SERVE_METRICS").map(|v| v != "off").unwrap_or(true);
    // `MAK_SERVE_CRASH_AT=N` switches the binary into recovery mode:
    // run N scheduler steps with cadence checkpointing on
    // (`MAK_SERVE_CKPT_EVERY` steps apart, default 8), drop the service
    // without draining — a simulated hard crash — then recover a fresh
    // service from disk and finish. Adds a `recovery` section to the
    // report; throughput numbers then cover only the post-crash drain.
    let crash_at = env_u64("MAK_SERVE_CRASH_AT", 0);
    let checkpoint_every_steps = env_u64("MAK_SERVE_CKPT_EVERY", 8);
    let ckpt_dir = std::env::temp_dir().join(format!("mak-serve-crash-{}", std::process::id()));
    if crash_at > 0 {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
    let config = ServiceConfig {
        sample_latency: true,
        collect_metrics,
        // Roughly 50 points across the drain, at least one per session.
        checkpoint_every: (sessions / 50).max(1),
        // One tenant holds every session, so the default quota must
        // clear the target concurrency.
        default_quota: TenantQuota::concurrent(usize::MAX),
        checkpoint_dir: (crash_at > 0).then(|| ckpt_dir.clone()),
        checkpoint_every_steps,
        ..ServiceConfig::default()
    };
    let threads = config.threads as u64;
    let steps_per_slice = config.steps_per_slice as u64;
    mak_obs::progress!(
        "serve: {sessions} concurrent sessions x {budget_minutes} virtual minutes on {threads} threads"
    );

    // A mixed fleet: three apps of different sizes, three crawlers of
    // different policy costs, seeds all distinct.
    let apps = ["addressbook", "vanilla", "phpbb2"];
    let crawlers = ["mak", "bfs", "random"];
    let engine = EngineConfig::with_budget_minutes(budget_minutes);
    let mut service = CrawlService::new(config.clone());

    let submit_started = Instant::now();
    for seed in 0..sessions {
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
    assert_eq!(peak_in_flight, sessions, "every session in flight before the drain");
    mak_obs::progress!(
        "serve: {peak_in_flight} sessions in flight ({submit_wall_secs:.1}s to build); draining"
    );

    let drain_started = Instant::now();
    let (done, recovery) = if crash_at > 0 {
        // Phase 1: run to the crash point, then drop the service with
        // no graceful drain — in-memory state is gone, exactly like a
        // kill. Only sessions whose cadence wrote a checkpoint survive.
        let before = service.run_for_steps(crash_at);
        let completed_before_crash = before.len() as u64;
        drop(service);
        mak_obs::progress!(
            "serve: simulated crash at {crash_at} steps ({completed_before_crash} already done); recovering"
        );

        // Phase 2: a fresh service recovers whatever reached disk.
        let recover_started = Instant::now();
        service = CrawlService::new(config.clone());
        let rec = service.recover().expect("recover from checkpoint dir");
        let recover_wall_secs = recover_started.elapsed().as_secs_f64();

        // Phase 3: drain the survivors to completion.
        let resume_started = Instant::now();
        let mut done = service.run_to_drain();
        let resume_drain_wall_secs = resume_started.elapsed().as_secs_f64();
        mak_obs::progress!(
            "serve: recovered {} sessions in {recover_wall_secs:.3}s, drained in {resume_drain_wall_secs:.1}s ({} lost, {} quarantined)",
            rec.restored,
            sessions - completed_before_crash - rec.restored,
            rec.corrupt_quarantined,
        );
        let recovery = RecoveryBench {
            crash_at_steps: crash_at,
            checkpoint_every_steps,
            completed_before_crash,
            restored: rec.restored,
            lost: sessions - completed_before_crash - rec.restored,
            corrupt_quarantined: rec.corrupt_quarantined,
            recover_wall_secs,
            resume_drain_wall_secs,
        };
        done.extend(before);
        (done, Some(recovery))
    } else {
        (service.run_to_drain(), None)
    };
    let drain_wall_secs = drain_started.elapsed().as_secs_f64();

    let lost = recovery.as_ref().map_or(0, |r| r.lost);
    assert_eq!(done.len() as u64 + service.aborted() + lost, sessions);
    let latencies = service.last_latencies();
    let total_steps = latencies.total_steps();
    let report = ServeReport {
        fingerprint: fingerprint(),
        sessions,
        peak_in_flight,
        threads,
        steps_per_slice,
        budget_minutes,
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
        recovery,
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
    if collect_metrics {
        let snapshot = service.metrics().snapshot();
        write_result("serve_metrics.prom", &snapshot.to_prometheus());
        write_result("serve_metrics_virtual.json", &service.metrics().virtual_snapshot().to_json());
    } else {
        mak_obs::progress!("serve: metrics collection off (MAK_SERVE_METRICS=off)");
    }
    if crash_at > 0 {
        let _ = std::fs::remove_dir_all(&ckpt_dir);
    }
}
