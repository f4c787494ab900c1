//! Span-stream determinism through the serving layer: a session that
//! records phase spans produces a byte-identical JSONL stream — span
//! events included — across worker counts, queue disciplines, and
//! reruns, mirroring the 9-combination matrix the telemetry suite runs
//! for metric snapshots.

use mak::framework::engine::EngineConfig;
use mak_browser::fault::FaultPlan;
use mak_obs::Event;
use mak_serve::{CrawlService, ScheduleOrder, ServiceConfig, SessionSpec};

/// A small mixed workload with spans on: two apps, two crawlers, one
/// faulty config so `Backoff` spans appear too.
fn workload() -> Vec<SessionSpec> {
    let mut specs = Vec::new();
    let mut seed = 4100;
    for app in ["addressbook", "vanilla"] {
        for crawler in ["mak", "bfs"] {
            let mut config = EngineConfig::with_budget_minutes(0.25);
            if app == "vanilla" {
                config.faults = FaultPlan::profile("moderate").expect("profile exists");
                config.faults.fault_seed = seed;
            }
            specs.push(
                SessionSpec::new("spans", app, crawler, seed).config(config).record_spans(true),
            );
            seed += 1;
        }
    }
    specs
}

/// Drains the workload and returns each session's JSONL stream plus the
/// virtual-domain metrics snapshot (which now carries the per-phase
/// histogram family).
fn drained_streams(threads: usize, order: ScheduleOrder) -> (Vec<Vec<u8>>, String) {
    let mut service =
        CrawlService::new(ServiceConfig { threads, order, ..ServiceConfig::default() });
    for spec in workload() {
        service.submit(spec).unwrap();
    }
    let done = service.run_to_drain();
    assert_eq!(done.len(), 4);
    let streams = done
        .into_iter()
        .map(|c| c.events_jsonl.expect("record_spans implies event capture"))
        .collect();
    (streams, service.metrics().virtual_snapshot().to_prometheus())
}

/// The acceptance bar: span streams are byte-identical across
/// `MAK_THREADS` ∈ {1, 4, 8} and all three `ScheduleOrder`s.
#[test]
fn span_streams_are_byte_identical_across_schedules() {
    let (truth, truth_prom) = drained_streams(1, ScheduleOrder::RoundRobin);
    for stream in &truth {
        let text = String::from_utf8(stream.clone()).expect("JSONL is UTF-8");
        assert!(text.contains("SpanClosed"), "spans were recorded");
    }
    assert!(
        truth_prom.contains("mak_serve_phase_virtual_ms"),
        "the per-phase family is in the virtual snapshot"
    );
    for threads in [1usize, 4, 8] {
        for order in [ScheduleOrder::RoundRobin, ScheduleOrder::Lifo, ScheduleOrder::Random(0xACE)]
        {
            let (streams, prom) = drained_streams(threads, order);
            assert_eq!(streams, truth, "span streams diverged under {order:?} x{threads}");
            assert_eq!(prom, truth_prom, "phase histograms diverged under {order:?} x{threads}");
        }
    }
}

/// The spans in a served stream form a well-founded tree: every parent
/// id was closed after its children (stack discipline) and every leaf
/// phase lies inside its `Step` window.
#[test]
fn served_span_streams_form_consistent_trees() {
    let (streams, _) = drained_streams(2, ScheduleOrder::RoundRobin);
    for stream in streams {
        let text = String::from_utf8(stream).unwrap();
        let spans: Vec<(u64, u64, String, f64, f64)> = text
            .lines()
            .filter_map(|line| match serde_json::from_str::<Event>(line).ok()? {
                Event::SpanClosed { id, parent, phase, t_ms, dur_ms } => {
                    Some((id, parent, phase, t_ms, dur_ms))
                }
                _ => None,
            })
            .collect();
        assert!(!spans.is_empty());
        let window = |id: u64| spans.iter().find(|s| s.0 == id).map(|s| (s.3, s.3 + s.4)).unwrap();
        for &(id, parent, ref phase, t_ms, dur_ms) in &spans {
            assert!(dur_ms >= 0.0, "span {id} ({phase}) has a negative duration");
            if parent != 0 {
                let (start, end) = window(parent);
                assert!(
                    t_ms >= start && t_ms + dur_ms <= end + 1e-6,
                    "span {id} ({phase}) escapes its parent {parent} window"
                );
            }
        }
    }
}

/// Spans stay strictly opt-in: a plain `record_events` session carries
/// no `SpanClosed` lines and is byte-identical to what the pre-span
/// service returned.
#[test]
fn spans_are_opt_in_per_session() {
    let mut service = CrawlService::new(ServiceConfig::default());
    service
        .submit(
            SessionSpec::new("plain", "addressbook", "mak", 77)
                .config(EngineConfig::with_budget_minutes(0.25))
                .record_events(true),
        )
        .unwrap();
    service
        .submit(
            SessionSpec::new("spans", "addressbook", "mak", 77)
                .config(EngineConfig::with_budget_minutes(0.25))
                .record_spans(true),
        )
        .unwrap();
    let done = service.run_to_drain();
    let plain = String::from_utf8(done[0].events_jsonl.clone().unwrap()).unwrap();
    let spanned = String::from_utf8(done[1].events_jsonl.clone().unwrap()).unwrap();
    assert!(!plain.contains("SpanClosed"));
    assert!(spanned.contains("SpanClosed"));
    assert_eq!(done[0].report, done[1].report, "span recording must not perturb the crawl outcome");
    // Stripping the span lines recovers the plain stream exactly: spans
    // are an overlay, not a rewrite.
    let stripped: String =
        spanned.lines().filter(|l| !l.contains("SpanClosed")).map(|l| format!("{l}\n")).collect();
    assert_eq!(stripped, plain);
}
