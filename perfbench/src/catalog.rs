//! The metric catalogue and the `BENCHMARK.json` it defines.

use crate::layers::Layer;
use crate::workload::Workload;
use serde::Value;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as printed and as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change counts as a
    /// regression.
    pub bound: Option<f64>,
}

const fn m(name: &'static str, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric { name, unit, better, bound }
}

use Better::{Higher, Lower};

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 45;

/// End-to-end metrics: what a user of the crawler or of the service
/// sees. Every workload reports every one of them (untraced rounds).
/// Time-based bounds are wide because the host's speed drifts between
/// runs (see README.md); memory figures are nearly deterministic.
pub const END_TO_END: &[Metric] = &[
    m("steps_per_s", "1/s", Higher, Some(0.25)),
    m("sessions_per_s", "1/s", Higher, Some(0.25)),
    m("step_p50_us", "us", Lower, Some(0.25)),
    m("step_p99_us", "us", Lower, Some(0.25)),
    m("setup_s", "s", Lower, Some(0.25)),
    m("peak_rss_mb", "MB", Lower, Some(0.1)),
    m("rss_per_session_kb", "KB", Lower, Some(0.1)),
];

/// Per-layer metrics every workload in `BENCHMARK.json` reports (traced
/// rounds).
pub const PER_LAYER: &[Metric] = &[
    m("websim.build_ms", "ms", Lower, None),
    m("websim.handle.calls_per_step", "count", Lower, None),
    m("websim.handle.ns_per_call", "ns", Lower, None),
    m("websim.handle.share", "share", Lower, None),
    m("core.mak.self_ns_per_step", "ns", Lower, None),
    m("core.static.self_ns_per_step", "ns", Lower, None),
    m("core.crawler.self_ns_per_step", "ns", Lower, None),
    m("core.session.self_ns_per_step", "ns", Lower, None),
    m("core.session_new_us", "us", Lower, None),
    m("core.finish_us", "us", Lower, None),
    m("core.snapshot_us", "us", Lower, None),
    m("core.snapshot_kb", "KB", Lower, None),
    m("core.snapshot.bytes_per_step", "B", Lower, None),
    m("alloc.per_step", "count", Lower, None),
    m("mem.session_live_kb", "KB", Lower, None),
    m("mem.completed_retained_kb", "KB", Lower, None),
    m("trace.overhead_share", "share", Lower, None),
];

/// Units of the metrics only some workloads have, and of diagnostics.
/// They are printed in the full record of the runs that measure them but
/// stay out of `BENCHMARK.json`, whose metrics every listed workload must
/// report. README.md says which workloads have which.
pub const OTHER_UNITS: &[(&str, &str)] = &[
    ("fail_ratio", "share"),
    ("core.qlearn.self_ns_per_step", "ns"),
    ("serve.submit_us_per_session", "us"),
    ("serve.busy_share", "share"),
    ("serve.steals", "count"),
    ("serve.queue_peak", "count"),
    ("serve.dispatch_ns_p50", "ns"),
    ("serve.dispatch_ns_p99", "ns"),
    ("samples.step", "count"),
    ("samples.dispatch", "count"),
    ("samples.direct_sessions", "count"),
    ("direct.step_ns_mean", "ns"),
    ("trace.self_sum_ns_per_step", "ns"),
    ("trace.self_sum_vs_untraced_step", "share"),
];

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|m| (m.name, m.unit))
        .chain(OTHER_UNITS.iter().copied())
        .find(|&(n, _)| n == name)
        .map(|(_, unit)| unit)
}

/// The end-to-end metrics a layer's time should move, for the traced
/// table.
pub fn moves(layer: Layer) -> &'static str {
    match layer {
        Layer::SessionStep => "step_p50_us (crawl_matrix, serve_fleet)",
        Layer::CrawlerMak | Layer::CrawlerQlearn => "steps_per_s, step_p99_us (crawl_matrix)",
        Layer::CrawlerStatic => "steps_per_s (crawl_matrix, serve_fleet)",
        Layer::Handle => "steps_per_s, step_p50_us (crawl_matrix)",
        Layer::SessionNew => "setup_s, sessions_per_s (serve_fleet)",
        Layer::Finish => "sessions_per_s (serve_fleet)",
        Layer::Snapshot => "no gated metric (checkpoint cost)",
    }
}

fn metric_value(metric: &Metric) -> Value {
    let mut fields = vec![
        ("name".to_owned(), Value::Str(metric.name.to_owned())),
        ("unit".to_owned(), Value::Str(metric.unit.to_owned())),
        (
            "better".to_owned(),
            Value::Str(if metric.better == Lower { "lower" } else { "higher" }.to_owned()),
        ),
    ];
    if let Some(bound) = metric.bound {
        fields.push(("bound".to_owned(), Value::Float(bound)));
    }
    Value::Object(fields)
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let strings =
        |items: &[&str]| Value::Array(items.iter().map(|s| Value::Str((*s).to_owned())).collect());
    let workloads = Workload::ALL
        .iter()
        .map(|w| {
            Value::Object(vec![
                ("name".to_owned(), Value::Str(w.name().to_owned())),
                ("why".to_owned(), Value::Str(w.why().to_owned())),
            ])
        })
        .collect();
    let manifest = Value::Object(vec![
        (
            "command".to_owned(),
            strings(&[
                "cargo",
                "run",
                "--offline",
                "--quiet",
                "--release",
                "--manifest-path",
                "perfbench/Cargo.toml",
                "--",
            ]),
        ),
        ("paths".to_owned(), strings(&["perfbench"])),
        ("run_seconds".to_owned(), Value::UInt(RUN_SECONDS)),
        ("workloads".to_owned(), Value::Array(workloads)),
        ("end_to_end".to_owned(), Value::Array(END_TO_END.iter().map(metric_value).collect())),
        ("per_layer".to_owned(), Value::Array(PER_LAYER.iter().map(metric_value).collect())),
    ]);
    serde_json::to_string_pretty(&manifest).expect("manifest serializes") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `--write-manifest`");
    }

    #[test]
    fn names_are_unique_and_bounds_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(OTHER_UNITS.iter().map(|&(name, _)| name))
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
        for m in END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }
}
