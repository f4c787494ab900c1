//! The telemetry acceptance contract: virtual-domain metrics snapshots
//! are bit-identical across worker counts, queue disciplines, and
//! reruns — and the per-session JSONL streams the service returns feed
//! the existing trace tooling (`FlightRecorder`, `mak-cli trace
//! summarize`) unchanged.

use mak::framework::engine::EngineConfig;
use mak_browser::fault::FaultPlan;
use mak_obs::{EventSink, FlightRecorder};
use mak_serve::{CrawlService, ScheduleOrder, ServiceConfig, SessionSpec, TenantQuota};

/// A mixed workload with two tenants, a faulty app, and enough quota
/// pressure to generate typed rejections — every virtual-domain family
/// gets non-trivial values, including the float backoff sums.
fn workload() -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    let mut seed = 700;
    for app in ["addressbook", "vanilla"] {
        for crawler in ["mak", "bfs"] {
            let mut config = EngineConfig::with_budget_minutes(0.25);
            if app == "vanilla" {
                config.faults = FaultPlan::profile("moderate").expect("profile exists");
                config.faults.fault_seed = seed;
            }
            let tenant = if crawler == "mak" { "acme" } else { "globex" };
            specs.push(
                SessionSpec::new(tenant, app, crawler, seed).config(config).record_events(true),
            );
            seed += 1;
        }
    }
    specs
}

/// Runs the workload (plus a deliberately rejected overflow submission)
/// and returns the virtual-domain snapshot rendered both ways.
fn virtual_artifacts(threads: usize, order: ScheduleOrder) -> (String, String) {
    let mut service =
        CrawlService::new(ServiceConfig { threads, order, ..ServiceConfig::default() });
    service.set_quota("acme", TenantQuota { max_concurrent: 2, max_total: Some(3) });
    for spec in workload() {
        service.submit(spec).unwrap();
    }
    // Third acme submission trips the concurrent quota; a bogus app and
    // crawler exercise the other two rejection reasons.
    assert!(service.submit(SessionSpec::new("acme", "addressbook", "mak", 9)).is_err());
    assert!(service.submit(SessionSpec::new("acme", "geocities", "mak", 9)).is_err());
    assert!(service.submit(SessionSpec::new("acme", "addressbook", "googlebot", 9)).is_err());
    let done = service.run_to_drain();
    assert_eq!(done.len(), 4);
    assert!(
        done.iter().any(|c| c.report.faults.backoff_ms > 0.0),
        "the faulty app must exercise the float backoff sum"
    );
    let snapshot = service.metrics().virtual_snapshot();
    (snapshot.to_prometheus(), snapshot.to_json())
}

/// The acceptance bar: virtual-domain snapshots — Prometheus text
/// and JSON alike — are byte-identical across `MAK_THREADS` ∈ {1, 4, 8}
/// and all three `ScheduleOrder`s, rejections included.
#[test]
fn virtual_snapshots_are_byte_identical_across_schedules() {
    let (truth_prom, truth_json) = virtual_artifacts(1, ScheduleOrder::RoundRobin);
    assert!(truth_prom.contains("mak_serve_sessions_completed_total"));
    assert!(truth_prom.contains("mak_serve_fault_backoff_virtual_ms_total"));
    assert!(truth_prom.contains("reason=\"quota_exceeded\""));
    assert!(truth_prom.contains("reason=\"unknown_app\""));
    assert!(truth_prom.contains("reason=\"unknown_crawler\""));
    assert!(!truth_prom.contains("mak_serve_step_latency_ns"), "wall families must be excluded");
    for threads in [1usize, 4, 8] {
        for order in [ScheduleOrder::RoundRobin, ScheduleOrder::Lifo, ScheduleOrder::Random(0xBEEF)]
        {
            let (prom, json) = virtual_artifacts(threads, order);
            assert_eq!(prom, truth_prom, "prometheus text diverged under {order:?} x{threads}");
            assert_eq!(json, truth_json, "JSON snapshot diverged under {order:?} x{threads}");
        }
    }
}

/// The virtual counters agree with the drained sessions themselves.
#[test]
fn virtual_counters_reconcile_with_session_reports() {
    let mut service = CrawlService::new(ServiceConfig::default());
    for spec in workload() {
        service.submit(spec).unwrap();
    }
    let done = service.run_to_drain();
    let registry = service.metrics().registry();
    assert_eq!(registry.counter_total("mak_serve_sessions_completed_total"), done.len() as f64);
    let interactions: u64 = done.iter().map(|c| c.report.interactions).sum();
    assert_eq!(registry.counter_total("mak_serve_interactions_total"), interactions as f64);
    let steps: u64 = done.iter().map(|c| c.steps).sum();
    assert_eq!(registry.counter_total("mak_serve_steps_total"), steps as f64);
    let injected: u64 = done.iter().map(|c| c.report.faults.injected).sum();
    assert_eq!(registry.counter_total("mak_serve_faults_injected_total"), injected as f64);
    // The wall domain recorded the drain even without latency sampling.
    assert_eq!(registry.counter_value("mak_serve_drains_total", &[]), 1.0);
}

/// `ServiceConfig::collect_metrics = false` folds nothing and changes no
/// outcome.
#[test]
fn metrics_can_be_disabled_without_changing_outcomes() {
    let run = |collect_metrics: bool| {
        let mut service =
            CrawlService::new(ServiceConfig { collect_metrics, ..ServiceConfig::default() });
        for spec in workload() {
            service.submit(spec).unwrap();
        }
        let reports: Vec<_> = service.run_to_drain().into_iter().map(|c| c.report).collect();
        (reports, service.metrics().snapshot().to_prometheus())
    };
    let (on_reports, on_prom) = run(true);
    let (off_reports, off_prom) = run(false);
    assert_eq!(on_reports, off_reports, "collection must not perturb outcomes");
    assert!(!on_prom.is_empty());
    assert!(off_prom.is_empty(), "disabled registry renders nothing");
}

/// Satellite: a served session's JSONL stream drives the exact pipeline
/// behind `mak-cli trace summarize` — `trace::read` into a
/// `FlightRecorder` — and the resulting flight report agrees with the
/// session's own crawl report.
#[test]
fn served_jsonl_streams_feed_the_flight_recorder_unchanged() {
    let mut service = CrawlService::new(ServiceConfig::default());
    service
        .submit(
            SessionSpec::new("trace", "addressbook", "mak", 42)
                .config(EngineConfig::with_budget_minutes(0.25))
                .record_events(true),
        )
        .unwrap();
    let done = service.run_to_drain();
    let session = &done[0];
    let jsonl = session.events_jsonl.as_ref().expect("events recorded");

    let path =
        std::env::temp_dir().join(format!("mak-serve-telemetry-{}.jsonl", std::process::id()));
    std::fs::write(&path, jsonl).unwrap();
    let mut recorder = FlightRecorder::new();
    for event in mak_obs::trace::read(&path).expect("trace opens") {
        recorder.on_event(&event.expect("every line parses as an Event"));
    }
    let flight = recorder.into_report();
    let _ = std::fs::remove_file(&path);

    assert_eq!(flight.app, session.report.app);
    assert_eq!(flight.crawler, session.report.crawler);
    assert_eq!(flight.seed, session.report.seed);
    assert_eq!(flight.steps, session.steps);
    assert_eq!(flight.lines, session.report.final_lines_covered);
    assert_eq!(flight.cost, session.report.phase, "one budget attribution, bit for bit");
    assert!(flight.events > 0);
}
