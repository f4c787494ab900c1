//! Workspace-level observability guarantees:
//!
//! - attaching a sink never changes the [`CrawlReport`] — sinks observe,
//!   they never steer;
//! - the JSONL event stream is byte-identical across reruns and across
//!   thread counts, because events carry only virtual-clock time;
//! - the event stream rebuilds the legacy `record_trace` log exactly, and
//!   the flight recorder's cost fold equals the engine's `PhaseTotals`
//!   bit for bit, for every crawler, with and without injected faults;
//! - the trace tooling round-trips: a recorded stream reads back
//!   losslessly, `first_divergence` finds nothing between identical-seed
//!   runs and pinpoints an injected perturbation at its exact index, the
//!   flight-recorder rendering is byte-identical across reruns, and every
//!   `Event` variant is covered by the analyzer.

use mak::framework::engine::{
    run_crawl, run_crawl_with_sink, CrawlReport, EngineConfig, TraceEntry,
};
use mak::spec::{build_crawler, CRAWLER_NAMES};
use mak_browser::fault::FaultPlan;
use mak_obs::event::Event;
use mak_obs::flight::FlightRecorder;
use mak_obs::sink::{EventSink, JsonlSink, SinkHandle, VecSink};
use mak_obs::trace::{first_divergence, TraceIter};
use mak_websim::apps;

const APP: &str = "addressbook";
const MINUTES: f64 = 2.0;

fn config() -> EngineConfig {
    EngineConfig::with_budget_minutes(MINUTES)
}

/// Runs one fully instrumented crawl, returning the report and the JSONL
/// byte stream.
fn traced_crawl(crawler: &str, seed: u64) -> (CrawlReport, Vec<u8>) {
    let (handle, cell) = SinkHandle::shared(JsonlSink::new(Vec::new()));
    let mut c = build_crawler(crawler, seed).expect("known crawler");
    let report = run_crawl_with_sink(&mut *c, apps::build(APP).unwrap(), &config(), seed, &handle);
    drop(c);
    drop(handle);
    let Ok(sink) = std::sync::Arc::try_unwrap(cell) else { panic!("all clones dropped") };
    let (bytes, error) = sink.into_inner().unwrap_or_else(|p| p.into_inner()).finish();
    assert!(error.is_none(), "in-memory writer cannot fail");
    (report, bytes)
}

/// Runs one crawl with a buffering sink, returning the report and events.
fn event_crawl(crawler: &str, seed: u64, cfg: &EngineConfig) -> (CrawlReport, Vec<Event>) {
    let (handle, cell) = SinkHandle::shared(VecSink::new());
    let mut c = build_crawler(crawler, seed).expect("known crawler");
    let report = run_crawl_with_sink(&mut *c, apps::build(APP).unwrap(), cfg, seed, &handle);
    let events = cell.lock().unwrap().events().to_vec();
    (report, events)
}

#[test]
fn report_is_identical_with_and_without_a_sink() {
    for crawler in CRAWLER_NAMES {
        let mut plain = build_crawler(crawler, 5).unwrap();
        let baseline = run_crawl(&mut *plain, apps::build(APP).unwrap(), &config(), 5);
        let (observed, events) = event_crawl(crawler, 5, &config());
        assert_eq!(baseline, observed, "{crawler}: sink must not alter the report");
        assert!(
            events.iter().any(|e| matches!(e, Event::RunFinished { .. })),
            "{crawler}: instrumented run emitted a stream"
        );
    }
}

#[test]
fn jsonl_stream_is_byte_identical_across_reruns() {
    let (report_a, bytes_a) = traced_crawl("mak", 7);
    let (report_b, bytes_b) = traced_crawl("mak", 7);
    assert_eq!(report_a, report_b);
    assert!(!bytes_a.is_empty());
    assert_eq!(bytes_a, bytes_b, "rerun must reproduce the stream byte-for-byte");
}

#[test]
fn jsonl_stream_is_byte_identical_across_thread_counts() {
    // The MAK_THREADS analogue: the same cells crawled concurrently on
    // worker threads must produce the same per-run streams as crawling
    // them one after another on this thread.
    let cells: Vec<(&str, u64)> = vec![("mak", 1), ("mak", 2), ("bfs", 1), ("random", 3)];
    let sequential: Vec<Vec<u8>> = cells.iter().map(|(c, s)| traced_crawl(c, *s).1).collect();
    let parallel: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> =
            cells.iter().map(|(c, s)| scope.spawn(move || traced_crawl(c, *s).1)).collect();
        handles.into_iter().map(|h| h.join().expect("crawl thread")).collect()
    });
    assert_eq!(sequential, parallel, "thread schedule must not change any stream");
}

#[test]
fn event_stream_reproduces_the_legacy_trace_analyses() {
    for plan in ["none", "moderate"] {
        for crawler in CRAWLER_NAMES {
            let mut cfg = config();
            cfg.record_trace = true;
            cfg.faults = FaultPlan::profile(plan).expect("registered profile");
            let (report, events) = event_crawl(crawler, 3, &cfg);
            let from_events: Vec<TraceEntry> = events
                .iter()
                .filter_map(|event| match event {
                    Event::StepFinished { t_ms, action, reward, .. } => Some(TraceEntry {
                        secs: t_ms / 1000.0,
                        action: action.clone(),
                        reward: *reward,
                    }),
                    _ => None,
                })
                .collect();
            assert_eq!(
                report.trace, from_events,
                "{crawler}: StepFinished events must rebuild the recorded trace exactly"
            );
            let mut recorder = FlightRecorder::new();
            for event in &events {
                recorder.on_event(event);
            }
            assert_eq!(
                recorder.report().cost,
                report.phase,
                "{crawler}: the flight recorder's cost is the engine's phase attribution, \
                 bit for bit (faults: {plan})"
            );
        }
    }
}

/// Parses a JSONL byte stream back into events, panicking on any error.
fn parse_stream(bytes: &[u8]) -> Vec<Event> {
    TraceIter::new(std::io::BufReader::new(bytes))
        .map(|r| r.expect("recorded stream parses"))
        .collect()
}

#[test]
fn recorded_stream_reads_back_losslessly() {
    let (_, events) = event_crawl("mak", 7, &config());
    let (_, bytes) = traced_crawl("mak", 7);
    assert_eq!(parse_stream(&bytes), events, "JSONL round trip is lossless");
}

#[test]
fn identical_seed_runs_have_no_divergence() {
    let (_, bytes_a) = traced_crawl("mak", 9);
    let (_, bytes_b) = traced_crawl("mak", 9);
    assert_eq!(first_divergence(parse_stream(&bytes_a), parse_stream(&bytes_b)), None);
}

#[test]
fn injected_perturbation_is_reported_at_its_exact_index() {
    let (_, events) = event_crawl("mak", 9, &config());
    // Perturb one event deep in the stream; diff must name that exact
    // index and echo both payloads.
    let index = events.len() / 2;
    let mut perturbed = events.clone();
    perturbed[index] = Event::EpochAdvanced { epoch: 99, gamma: 0.125 };
    let div = first_divergence(events.clone(), perturbed).expect("streams differ");
    assert_eq!(div.index as usize, index);
    assert_eq!(div.left.as_ref(), Some(&events[index]));
    assert_eq!(div.right, Some(Event::EpochAdvanced { epoch: 99, gamma: 0.125 }));
    let shown = div.to_string();
    assert!(shown.contains(&format!("event #{index}")), "{shown}");
    assert!(shown.contains("\"epoch\":99"), "right payload echoed: {shown}");

    // A truncated stream diverges at the first missing event.
    let div = first_divergence(events.clone(), events[..index].to_vec()).expect("lengths differ");
    assert_eq!(div.index as usize, index);
    assert_eq!(div.right, None, "right stream ended");
}

#[test]
fn flight_rendering_is_byte_identical_across_reruns() {
    let render_of = |bytes: &[u8]| {
        let mut rec = FlightRecorder::new();
        for ev in parse_stream(bytes) {
            rec.on_event(&ev);
        }
        mak_metrics::flight::render(&rec.into_report())
    };
    let (_, bytes_a) = traced_crawl("mak", 13);
    let (_, bytes_b) = traced_crawl("mak", 13);
    let (a, b) = (render_of(&bytes_a), render_of(&bytes_b));
    assert_eq!(a.markdown, b.markdown, "markdown summary must be rerun-identical");
    assert_eq!(a.svgs, b.svgs, "SVG charts must be rerun-identical");
    assert!(!a.markdown.is_empty() && !a.svgs.is_empty());
}

#[test]
fn flight_recorder_covers_every_event_variant() {
    // The exhaustiveness contract: `Event::samples` yields one event per
    // variant (enforced against `ALL_KINDS` in mak-obs), the recorder's
    // wildcard-free match breaks the build if a variant is added without
    // analyzer support, and this test fails if the census misses a kind.
    let mut rec = FlightRecorder::new();
    for ev in Event::samples() {
        rec.on_event(&ev);
    }
    let report = rec.into_report();
    assert_eq!(report.events as usize, Event::ALL_KINDS.len());
    for kind in Event::ALL_KINDS {
        assert_eq!(
            report.events_per_kind.get(kind),
            Some(&1),
            "variant {kind} must be counted by the flight recorder"
        );
    }
    assert_eq!(report.events_per_kind.len(), Event::ALL_KINDS.len(), "no unknown kinds");
}

#[test]
fn pre_span_traces_still_summarize() {
    // Backward compatibility: traces recorded before the span layer
    // existed carry no `SpanClosed` events. They must keep folding and
    // rendering cleanly — the span section is simply omitted, never an
    // error.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/pre_span_trace.jsonl");
    let mut rec = FlightRecorder::new();
    for ev in mak_obs::trace::read(fixture).expect("fixture opens") {
        rec.on_event(&ev.expect("fixture parses"));
    }
    let report = rec.into_report();
    assert!(report.events > 0, "fixture is a real trace");
    assert!(report.span_phases.is_empty(), "pre-span traces have no span stats");
    let rendered = mak_metrics::flight::render(&report);
    assert!(
        !rendered.markdown.contains("Where the time goes"),
        "span section omitted for span-free traces"
    );
    assert!(rendered.svgs.iter().all(|(suffix, _)| suffix != "phases"));

    // And the CLI front door agrees: `trace summarize` exits zero.
    let out_dir = std::env::temp_dir().join(format!("mak_pre_span_{}", std::process::id()));
    std::fs::create_dir_all(&out_dir).expect("temp out dir");
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_mak-cli"))
        .args(["trace", "summarize", fixture])
        .current_dir(&out_dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("mak-cli runs");
    std::fs::remove_dir_all(&out_dir).ok();
    assert!(status.success(), "summarizing a pre-span trace must not fail");
}

#[test]
fn resumed_traces_check_clean_across_the_splice() {
    // A crash-recovery splice, recorded from a real interrupted run:
    // phpbb2/mak checkpointed at step 10, crashed at step 13, resumed
    // from the checkpoint — so the stream contains a `SessionResumed`
    // marker at which the clock and coverage counters legitimately
    // rewind (the three post-checkpoint steps died with the process and
    // are re-executed after the marker).
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/resumed_trace.jsonl");

    // The flight recorder counts the resume and keeps folding.
    let mut rec = FlightRecorder::new();
    for ev in mak_obs::trace::read(fixture).expect("fixture opens") {
        rec.on_event(&ev.expect("fixture parses"));
    }
    let report = rec.into_report();
    assert_eq!(report.resumes, 1, "exactly one resume marker in the fixture");
    assert!(report.events > 0);

    // The invariant oracle re-baselines at the marker instead of
    // flagging the rewind — and the CLI front door agrees.
    let mut oracle = mak_testkit::oracle::InvariantOracle::new();
    for ev in mak_obs::trace::read(fixture).expect("fixture opens") {
        oracle.on_event(&ev.expect("fixture parses"));
    }
    assert!(oracle.violations().is_empty(), "{:?}", oracle.violations());
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_mak-cli"))
        .args(["trace", "check", fixture])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .expect("mak-cli runs");
    assert!(status.success(), "`trace check` must accept a resumed stream");
}

#[test]
fn stream_carries_only_virtual_time() {
    // Every event's times are derived from the virtual clock, so the
    // stream's final timestamp matches the report's virtual elapsed time
    // and nothing resembles a wall-clock epoch.
    let (report, events) = event_crawl("mak", 11, &config());
    let last = events.iter().rev().find_map(|e| match e {
        Event::RunFinished { t_ms, .. } => Some(*t_ms),
        _ => None,
    });
    // `elapsed_secs` is exactly `t_ms / 1000.0`, so compare in seconds to
    // avoid the non-associative `x / 1000 * 1000` round trip.
    assert_eq!(last.map(|t| t / 1000.0), Some(report.elapsed_secs));
}

#[test]
fn no_truncation_or_bit_flip_of_a_committed_trace_panics() {
    // Trace files are a trust boundary: every truncation and every
    // single-bit flip of the committed fixtures must end in a typed read
    // error or a rendered flight report, never a panic. The reader is
    // line-local, so each case re-reads only the lines the corruption
    // touched and splices in the recorder state folded from the intact
    // lines before them and the events read from the intact lines after.
    for name in ["pre_span_trace.jsonl", "resumed_trace.jsonl"] {
        let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
        let bytes = std::fs::read(&path).expect("fixture reads");
        let mut starts = vec![0];
        starts.extend(bytes.iter().enumerate().filter(|(_, b)| **b == b'\n').map(|(i, _)| i + 1));
        if starts.last() != Some(&bytes.len()) {
            starts.push(bytes.len());
        }
        let lines = starts.len() - 1;
        let events: Vec<Event> = mak_obs::trace::read(&path)
            .expect("fixture opens")
            .map(|ev| ev.expect("intact fixture parses"))
            .collect();
        assert_eq!(events.len(), lines, "{name}: one event per line");
        let mut prefixes = vec![FlightRecorder::new()];
        for event in &events {
            let mut next = prefixes.last().unwrap().clone();
            next.on_event(event);
            prefixes.push(next);
        }

        // Re-reads `region`, then folds `rest`, then renders; stops at the
        // first typed error.
        let case = |line: usize, region: &[u8], rest: &[Event]| {
            let mut rec = prefixes[line].clone();
            for ev in TraceIter::new(region) {
                match ev {
                    Ok(ev) => rec.on_event(&ev),
                    Err(_) => return,
                }
            }
            for ev in rest {
                rec.on_event(ev);
            }
            let rendered = mak_metrics::flight::render(rec.report());
            assert!(rendered.markdown.starts_with("# Flight report"));
        };
        let mut flipped = bytes.clone();
        for line in 0..lines {
            let (start, end) = (starts[line], starts[line + 1]);
            for at in start..end {
                case(line, &bytes[start..at], &[]);
                // Flipping a newline joins this line with the next.
                let last = if at + 1 == end && line + 1 < lines { line + 1 } else { line };
                flipped[at] ^= 1;
                case(line, &flipped[start..starts[last + 1]], &events[last + 1..]);
                flipped[at] ^= 1;
            }
        }
    }
}
