//! Rendering of flight-recorder reports: markdown plus SVG charts.
//!
//! [`FlightRecorder`](mak_obs::flight::FlightRecorder) folds a trace into
//! a [`FlightReport`]; this module turns that report into the artifacts
//! `mak-cli trace summarize` writes under `results/` (and the markdown
//! `mak-cli profile` prints) — a markdown summary (identity, totals,
//! per-phase cost breakdown, per-arm rewards, epoch advances,
//! arm-usage timeline) and up to three [`LineChart`] SVGs: the coverage
//! waterfall (annotated with Exp3.1 epoch advances), the arm-usage
//! timeline, and the deque-depth trajectory. Everything here is a pure
//! function of the report, so reruns over the same trace are
//! byte-identical.

use crate::plot::{BarChart, BarSeries, LineChart, Series};
use crate::report::markdown_table;
use mak_obs::flight::FlightReport;
use std::fmt::Write as _;

/// Time slices used for the arm-usage timeline (markdown and SVG).
pub const ARM_SLICES: usize = 8;

/// A fully rendered flight report.
#[derive(Debug, Clone)]
pub struct RenderedFlight {
    /// The markdown summary.
    pub markdown: String,
    /// `(suffix, svg)` pairs, e.g. `("coverage", "<svg…")`; callers pick
    /// the file names. Charts that would be empty are omitted.
    pub svgs: Vec<(String, String)>,
}

fn minutes(t_ms: f64) -> f64 {
    t_ms / 60_000.0
}

fn fmt_ms_as_s(ms: f64) -> String {
    format!("{:.1}", ms / 1_000.0)
}

/// The coverage waterfall chart: lines over virtual minutes, with one
/// marker series per report carrying the Exp3.1 epoch advances (the
/// coverage value at each advance), so policy restarts are visible on the
/// curve. `None` when the report has no waterfall points.
fn coverage_chart(report: &FlightReport) -> Option<String> {
    if report.coverage_waterfall.is_empty() {
        return None;
    }
    let mut points: Vec<(f64, f64)> =
        report.coverage_waterfall.iter().map(|p| (minutes(p.t_ms), p.lines as f64)).collect();
    // Anchor the curve at the origin so the first fetch's jump is visible.
    if points.first().is_some_and(|p| p.0 > 0.0) {
        points.insert(0, (0.0, 0.0));
    }
    let title =
        format!("Coverage waterfall — {} on {} (seed {})", report.crawler, report.app, report.seed);
    let mut chart = LineChart::new(title, "virtual minutes", "lines covered").series(Series {
        name: "coverage".into(),
        points,
        band: vec![],
    });
    if !report.epoch_advances.is_empty() {
        // Lines covered at each advance, read off the waterfall.
        let lines_at = |t_ms: f64| -> f64 {
            report
                .coverage_waterfall
                .iter()
                .take_while(|p| p.t_ms <= t_ms)
                .last()
                .map(|p| p.lines as f64)
                .unwrap_or(0.0)
        };
        let points: Vec<(f64, f64)> =
            report.epoch_advances.iter().map(|e| (minutes(e.t_ms), lines_at(e.t_ms))).collect();
        chart = chart.series(Series { name: "epoch advance".into(), points, band: vec![] });
    }
    Some(chart.to_svg())
}

/// The arm-usage timeline: per-arm share of choices in each time slice.
/// `None` for non-bandit traces (no `ActionChosen` events).
fn arms_chart(report: &FlightReport) -> Option<String> {
    if report.arm_timeline.is_empty() {
        return None;
    }
    let slices = report.arm_usage_slices(ARM_SLICES);
    let title = format!(
        "Arm usage over time — {} on {} (seed {})",
        report.crawler, report.app, report.seed
    );
    let mut chart = LineChart::new(title, "virtual minutes (slice start)", "% of slice choices");
    for arm in report.arms() {
        let points: Vec<(f64, f64)> = slices
            .iter()
            .map(|(start_ms, counts)| {
                let total: u64 = counts.values().sum();
                let share = if total == 0 {
                    0.0
                } else {
                    100.0 * counts.get(arm).copied().unwrap_or(0) as f64 / total as f64
                };
                (minutes(*start_ms), share)
            })
            .collect();
        chart = chart.series(Series { name: arm.to_owned(), points, band: vec![] });
    }
    Some(chart.to_svg())
}

/// The "where the time goes" chart: total seconds per span phase. `None`
/// for traces recorded without span profiling (pre-span traces included)
/// — the section is omitted, never an error.
fn phases_chart(report: &FlightReport) -> Option<String> {
    if report.span_phases.is_empty() {
        return None;
    }
    let groups: Vec<String> = report.span_phases.keys().cloned().collect();
    let values: Vec<f64> =
        report.span_phases.values().map(|stat| stat.total_ms / 1_000.0).collect();
    let title = format!(
        "Where the time goes — {} on {} (seed {})",
        report.crawler, report.app, report.seed
    );
    Some(
        BarChart::new(title, "virtual seconds", groups)
            .series(BarSeries { name: "total".into(), values })
            .to_svg(),
    )
}

/// The deque-depth trajectory. `None` when the trace carries no
/// `DequeDepth` events.
fn deque_chart(report: &FlightReport) -> Option<String> {
    if report.deque_trajectory.is_empty() {
        return None;
    }
    let points: Vec<(f64, f64)> =
        report.deque_trajectory.iter().map(|p| (minutes(p.t_ms), p.len as f64)).collect();
    let title =
        format!("Deque depth — {} on {} (seed {})", report.crawler, report.app, report.seed);
    Some(
        LineChart::new(title, "virtual minutes", "deque occupancy")
            .series(Series { name: "depth".into(), points, band: vec![] })
            .to_svg(),
    )
}

/// Renders the markdown summary.
fn markdown(report: &FlightReport, svgs: &[(String, String)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Flight report — {} on {} (seed {})\n",
        report.crawler, report.app, report.seed
    );
    let _ = writeln!(
        out,
        "{} events, {} steps, {} interactions, {} lines covered, {} distinct URLs, \
         {:.1} of {:.1} virtual minutes used.\n",
        report.events,
        report.steps,
        report.interactions,
        report.lines,
        report.distinct_urls,
        minutes(report.elapsed_ms),
        minutes(report.budget_ms),
    );

    let _ = writeln!(out, "## Cost breakdown (virtual seconds)\n");
    let total = report.cost.total_ms().max(1.0);
    let rows: Vec<Vec<String>> = report
        .cost
        .rows()
        .iter()
        .map(|(phase, ms)| {
            vec![phase.to_string(), fmt_ms_as_s(*ms), format!("{:.1}%", 100.0 * ms / total)]
        })
        .collect();
    let _ = writeln!(out, "{}", markdown_table(&["phase", "seconds", "share"], &rows));

    if !report.span_phases.is_empty() {
        let _ = writeln!(out, "## Where the time goes (spans)\n");
        let _ = writeln!(
            out,
            "Per-phase span totals. Umbrella phases (`Step`, `ExecuteAction`) \
             contain the leaves, so shares are relative to elapsed time and \
             do not sum to 100%.\n"
        );
        let elapsed = report.elapsed_ms.max(1.0);
        let rows: Vec<Vec<String>> = report
            .span_phases
            .iter()
            .map(|(phase, stat)| {
                vec![
                    phase.clone(),
                    stat.count.to_string(),
                    fmt_ms_as_s(stat.total_ms),
                    format!("{:.1}%", 100.0 * stat.total_ms / elapsed),
                ]
            })
            .collect();
        let _ = writeln!(
            out,
            "{}",
            markdown_table(&["phase", "spans", "seconds", "% of elapsed"], &rows)
        );
    }

    if !report.rewards_per_arm.is_empty() {
        let _ = writeln!(out, "## Reward distribution per arm\n");
        let rows: Vec<Vec<String>> = report
            .rewards_per_arm
            .iter()
            .map(|(arm, stats)| {
                vec![
                    arm.clone(),
                    stats.count.to_string(),
                    format!("{:.3}", stats.mean()),
                    format!("{:.3}", stats.min),
                    format!("{:.3}", stats.max),
                ]
            })
            .collect();
        let _ =
            writeln!(out, "{}", markdown_table(&["arm", "rewards", "mean", "min", "max"], &rows));
    }

    if !report.arm_timeline.is_empty() {
        let _ = writeln!(out, "## Arm usage over time ({ARM_SLICES} slices)\n");
        let arms = report.arms();
        let mut headers = vec!["slice start (min)"];
        headers.extend(arms.iter().copied());
        let rows: Vec<Vec<String>> = report
            .arm_usage_slices(ARM_SLICES)
            .iter()
            .map(|(start_ms, counts)| {
                let mut row = vec![format!("{:.1}", minutes(*start_ms))];
                row.extend(arms.iter().map(|a| counts.get(*a).copied().unwrap_or(0).to_string()));
                row
            })
            .collect();
        let _ = writeln!(out, "{}", markdown_table(&headers, &rows));
    }

    if !report.epoch_advances.is_empty() {
        let _ = writeln!(out, "## Exp3.1 epoch advances\n");
        let rows: Vec<Vec<String>> = report
            .epoch_advances
            .iter()
            .map(|e| {
                vec![
                    format!("{:.2}", minutes(e.t_ms)),
                    e.epoch.to_string(),
                    format!("{:.4}", e.gamma),
                ]
            })
            .collect();
        let _ = writeln!(out, "{}", markdown_table(&["minute", "epoch", "gamma"], &rows));
    }

    if !report.deque_trajectory.is_empty() {
        let _ = writeln!(out, "## Deque\n");
        let _ = writeln!(
            out,
            "{} depth samples, peak occupancy {}.\n",
            report.deque_trajectory.len(),
            report.deque_peak
        );
    }

    if report.faults_injected > 0 || report.retries > 0 {
        let _ = writeln!(out, "## Faults\n");
        let _ = writeln!(
            out,
            "{} faults injected, {} retries scheduled, {} recovered requests.\n",
            report.faults_injected, report.retries, report.fault_recoveries,
        );
    }

    let _ = writeln!(out, "## Event census\n");
    let rows: Vec<Vec<String>> = report
        .events_per_kind
        .iter()
        .map(|(kind, n)| vec![(*kind).to_owned(), n.to_string()])
        .collect();
    let _ = writeln!(out, "{}", markdown_table(&["event", "count"], &rows));

    if !svgs.is_empty() {
        let _ = writeln!(out, "## Charts\n");
        for (suffix, _) in svgs {
            let _ = writeln!(out, "- {suffix}.svg");
        }
    }
    out
}

/// Renders a flight report to markdown plus SVG charts. Pure and
/// deterministic: the same report always renders to the same bytes.
pub fn render(report: &FlightReport) -> RenderedFlight {
    let mut svgs = Vec::new();
    if let Some(svg) = coverage_chart(report) {
        svgs.push(("coverage".to_owned(), svg));
    }
    if let Some(svg) = arms_chart(report) {
        svgs.push(("arms".to_owned(), svg));
    }
    if let Some(svg) = deque_chart(report) {
        svgs.push(("deque".to_owned(), svg));
    }
    if let Some(svg) = phases_chart(report) {
        svgs.push(("phases".to_owned(), svg));
    }
    RenderedFlight { markdown: markdown(report, &svgs), svgs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak_obs::event::Event;
    use mak_obs::flight::FlightRecorder;
    use mak_obs::sink::EventSink;

    fn mak_report() -> FlightReport {
        let mut rec = FlightRecorder::new();
        for ev in Event::samples() {
            rec.on_event(&ev);
        }
        rec.into_report()
    }

    #[test]
    fn renders_all_charts_for_a_bandit_trace() {
        let rendered = render(&mak_report());
        let suffixes: Vec<&str> = rendered.svgs.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(suffixes, vec!["coverage", "arms", "deque", "phases"]);
        for (suffix, svg) in &rendered.svgs {
            assert!(svg.starts_with("<svg") && svg.ends_with("</svg>"), "{suffix}");
        }
        assert!(rendered.markdown.contains("# Flight report — mak on app (seed 1)"));
        assert!(rendered.markdown.contains("## Cost breakdown"));
        assert!(rendered.markdown.contains("## Event census"));
        assert!(rendered.markdown.contains("| StepFinished | 1 |"));
    }

    #[test]
    fn span_section_renders_from_span_events() {
        // The samples fixture carries one SpanClosed (Render, 100 ms).
        let rendered = render(&mak_report());
        assert!(rendered.markdown.contains("## Where the time goes (spans)"));
        assert!(rendered.markdown.contains("| Render | 1 | 0.1 |"));
    }

    #[test]
    fn pre_span_traces_omit_the_span_section() {
        // A trace recorded before span profiling existed has no
        // SpanClosed events: the section and the phases chart are
        // silently omitted, never an error.
        let mut rec = FlightRecorder::new();
        for ev in Event::samples() {
            if !matches!(ev, Event::SpanClosed { .. }) {
                rec.on_event(&ev);
            }
        }
        let rendered = render(rec.report());
        assert!(!rendered.markdown.contains("Where the time goes"));
        assert!(rendered.svgs.iter().all(|(s, _)| s != "phases"));
        assert!(rendered.markdown.contains("## Cost breakdown"), "the rest still renders");
    }

    #[test]
    fn fault_counters_render_only_when_faults_occurred() {
        // The sample fixture carries one FaultInjected / RetryScheduled /
        // FaultRecovered event each.
        let rendered = render(&mak_report());
        assert!(rendered.markdown.contains("## Faults"));
        assert!(rendered
            .markdown
            .contains("1 faults injected, 1 retries scheduled, 1 recovered requests."));
        assert!(rendered.markdown.contains("| FaultInjected | 1 |"), "census includes faults");
    }

    #[test]
    fn coverage_chart_is_annotated_with_epoch_advances() {
        let report = mak_report();
        assert!(!report.epoch_advances.is_empty(), "fixture has an advance");
        let svg = coverage_chart(&report).expect("waterfall present");
        assert!(svg.contains(">epoch advance</text>"), "annotation series labelled");
    }

    #[test]
    fn non_bandit_report_omits_arm_and_deque_charts() {
        let mut rec = FlightRecorder::new();
        rec.on_event(&Event::RunStarted {
            app: "a".into(),
            crawler: "bfs".into(),
            seed: 0,
            budget_ms: 60_000.0,
        });
        rec.on_event(&Event::StepFinished {
            step: 0,
            t_ms: 1_000.0,
            action: "fetch".into(),
            reward: None,
            interactions: 1,
            lines: 10,
            distinct_urls: 1,
        });
        rec.on_event(&Event::RunFinished { t_ms: 1_000.0, steps: 1, interactions: 1, lines: 10 });
        let rendered = render(rec.report());
        let suffixes: Vec<&str> = rendered.svgs.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(suffixes, vec!["coverage"]);
        assert!(!rendered.markdown.contains("## Reward distribution"));
        assert!(!rendered.markdown.contains("## Exp3.1 epoch advances"));
        assert!(!rendered.markdown.contains("## Faults"), "fault-free traces skip the section");
    }

    #[test]
    fn rendering_is_deterministic() {
        let report = mak_report();
        let a = render(&report);
        let b = render(&report);
        assert_eq!(a.markdown, b.markdown);
        assert_eq!(a.svgs, b.svgs);
    }
}
