//! One round: a workload run once, start to end, in a process of its own
//! so its memory figures start clean.
//!
//! An untraced round measures the end-to-end metrics. A traced round
//! runs the same sessions with the timing wrappers of [`crate::layers`]
//! and the counting allocator on, and measures the per-layer metrics.
//! Both check their outputs.

use crate::layers::{self, timed, Layer, LayerStat, TimedApp, TimedCrawler};
use crate::stats::{fnv1a64, mem_status, percentile_unweighted, FNV_BASIS};
use crate::workload::{Spec, Workload, DEFAULT_SEED};
use mak::framework::engine::{CrawlReport, EngineConfig};
use mak::framework::session::Session;
use mak::spec::build_crawler;
use mak_serve::{CompletedSession, CrawlService, ServiceConfig, SessionSpec, TenantQuota};
use mak_websim::apps;
use mak_websim::server::WebApp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups an untraced round times: the one whose sessions it runs, then
/// more on warm memory once they are done. The round reports the fastest
/// (see `aggregate` in `main.rs`).
const SETUPS: usize = 5;

/// What one round measured and checked. A round's process prints it as
/// one JSON line for the parent to read back.
#[derive(Debug, Default, Serialize, Deserialize)]
pub struct RoundOut {
    /// Metric values by name, each name once.
    pub values: Vec<(String, f64)>,
    /// Per-layer totals in [`Layer::ALL`] order (traced rounds only).
    pub layers: Vec<LayerStat>,
    /// Step latency samples `(ns per step, steps)`: one per step for
    /// direct runs, one per scheduler slice for the service.
    pub step_samples: Vec<(u64, u64)>,
    /// Digest of every session's full report, in submission order.
    pub digest: u64,
    /// Sessions the workload ran.
    pub attempted: u64,
    /// One line per failed session or check.
    pub failures: Vec<String>,
}

impl RoundOut {
    /// The value of metric `name`, if the round measured it.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Sets metric `name`. A value that is not finite is left out (JSON
    /// has no such numbers), so the metric shows as not measured.
    fn set(&mut self, name: &str, value: f64) {
        self.values.retain(|(n, _)| n != name);
        if value.is_finite() {
            self.values.push((name.to_owned(), value));
        }
    }

    /// Work done and the wall time it took, which the run sums over
    /// rounds into `steps_per_s` and `sessions_per_s`.
    fn set_work(&mut self, steps: f64, step_s: f64, sessions: f64, session_s: f64) {
        self.set("work.steps", steps);
        self.set("work.step_s", step_s);
        self.set("work.sessions", sessions);
        self.set("work.session_s", session_s);
    }
}

/// Runs one round of `workload` under `seed`.
pub fn run(workload: Workload, seed: u64, traced: bool) -> RoundOut {
    if traced {
        layers::enable_alloc_counting();
    }
    let mut out = match workload {
        Workload::CrawlMatrix => crawl_matrix(seed, traced),
        Workload::ServeFleet => serve_fleet(seed, traced),
    };
    if traced {
        out.layers = layers::layer_stats().to_vec();
        layer_metrics(&mut out);
    }
    out
}

/// Apps a workload's specs name, each built once (timed).
fn build_models(specs: &[Spec], out: &mut RoundOut) -> BTreeMap<&'static str, Arc<dyn WebApp>> {
    let mut models = BTreeMap::new();
    let mut build_ns = 0u128;
    for spec in specs {
        if !models.contains_key(spec.app) {
            let started = Instant::now();
            let model = apps::build_shared(spec.app).expect("workload apps are registered");
            build_ns += started.elapsed().as_nanos();
            models.insert(spec.app, model);
        }
    }
    out.set("websim.build_ms", build_ns as f64 / 1e6);
    models
}

/// Drives sessions directly through the public `Session` API, timing
/// every step; in traced rounds through the wrappers.
struct Stepper {
    models: BTreeMap<&'static str, Arc<dyn WebApp>>,
    config: EngineConfig,
    traced: bool,
    /// Wall nanoseconds of each step that advanced its session.
    step_ns: Vec<u64>,
    /// Wall nanoseconds of every `step` call, including the final
    /// no-op that reports the end.
    busy_ns: u64,
    calls: u64,
    steps: u64,
    snapshot_bytes: u64,
    snapshot_steps: u64,
    snapshots: u64,
}

impl Stepper {
    fn new(
        models: BTreeMap<&'static str, Arc<dyn WebApp>>,
        config: EngineConfig,
        traced: bool,
    ) -> Self {
        Stepper {
            models,
            config,
            traced,
            step_ns: Vec::new(),
            busy_ns: 0,
            calls: 0,
            steps: 0,
            snapshot_bytes: 0,
            snapshot_steps: 0,
            snapshots: 0,
        }
    }

    fn open(&self, spec: &Spec) -> Session<'static> {
        let crawler =
            build_crawler(spec.crawler, spec.seed).expect("workload crawlers are registered");
        let model = self.models[spec.app].clone();
        if self.traced {
            let model: Arc<dyn WebApp> = Arc::new(TimedApp(model));
            let crawler = Box::new(TimedCrawler::new(crawler));
            timed(Layer::SessionNew, || {
                Session::with_shared_app(model, crawler, &self.config, spec.seed)
            })
        } else {
            Session::with_shared_app(model, crawler, &self.config, spec.seed)
        }
    }

    /// Mean wall time of a `step` call.
    fn step_ns_mean(&self) -> f64 {
        self.busy_ns as f64 / self.calls.max(1) as f64
    }

    /// Steps `session` to its end and finishes it; traced rounds also
    /// snapshot it first.
    fn run(&mut self, mut session: Session<'static>) -> CrawlReport {
        loop {
            let before = session.steps_taken();
            let started = Instant::now();
            let status = if self.traced {
                timed(Layer::SessionStep, || session.step())
            } else {
                session.step()
            };
            let ns = started.elapsed().as_nanos() as u64;
            self.busy_ns += ns;
            self.calls += 1;
            if session.steps_taken() > before {
                self.step_ns.push(ns);
            }
            if !status.is_running() {
                break;
            }
        }
        self.steps += session.steps_taken();
        if !self.traced {
            return session.finish();
        }
        let checkpoint = timed(Layer::Snapshot, || session.snapshot())
            .expect("every registry crawler checkpoints");
        self.snapshot_bytes +=
            serde_json::to_vec(&checkpoint.to_value()).expect("checkpoints serialize").len() as u64;
        self.snapshot_steps += session.steps_taken();
        self.snapshots += 1;
        timed(Layer::Finish, || session.finish())
    }

    /// Traced rounds: snapshot sizes.
    fn traced_metrics(&self, out: &mut RoundOut) {
        let snaps = self.snapshots.max(1) as f64;
        out.set("core.snapshot_kb", self.snapshot_bytes as f64 / 1024.0 / snaps);
        out.set(
            "core.snapshot.bytes_per_step",
            self.snapshot_bytes as f64 / self.snapshot_steps.max(1) as f64,
        );
    }
}

fn crawl_matrix(seed: u64, traced: bool) -> RoundOut {
    let workload = Workload::CrawlMatrix;
    let specs = workload.specs(seed);
    let mut out = RoundOut { attempted: specs.len() as u64, ..RoundOut::default() };

    let started = Instant::now();
    let mut stepper = Stepper::new(build_models(&specs, &mut out), workload.engine(), traced);
    let build = started.elapsed();
    let (rss0, live0) = (mem_status().rss_kb, layers::live_bytes());
    let started = Instant::now();
    let sessions: Vec<Session<'static>> = specs.iter().map(|spec| stepper.open(spec)).collect();
    let open = started.elapsed();
    let (rss1, live1) = (mem_status().rss_kb, layers::live_bytes());

    let run = Instant::now();
    let reports: Vec<CrawlReport> = sessions.into_iter().map(|s| stepper.run(s)).collect();
    let run_s = run.elapsed().as_secs_f64();
    let live2 = layers::live_bytes();
    out.set("peak_rss_mb", mem_status().hwm_kb as f64 / 1024.0);

    let mut setups = vec![build + open];
    if !traced {
        setups.extend((1..SETUPS).map(|_| matrix_setup(&specs)));
    }
    let n = specs.len() as f64;
    out.set("setup_s", fastest(&setups));
    out.set_work(stepper.steps as f64, run_s, n, run_s);
    out.set("rss_per_session_kb", rss1.saturating_sub(rss0) as f64 / n);
    out.step_samples = stepper.step_ns.iter().map(|&ns| (ns, 1)).collect();
    out.set("direct.step_ns_mean", stepper.step_ns_mean());
    if traced {
        out.set("mem.session_live_kb", (live1 - live0) as f64 / 1024.0 / n);
        out.set("mem.completed_retained_kb", (live2 - live0) as f64 / 1024.0 / n);
        stepper.traced_metrics(&mut out);
    }
    out.digest = digest(&reports);
    check_expected(workload, seed, &specs, &reports, &mut out.failures);
    out
}

/// One more `crawl_matrix` set-up, timed and thrown away: the app models
/// built and every session opened.
fn matrix_setup(specs: &[Spec]) -> Duration {
    let started = Instant::now();
    let models = build_models(specs, &mut RoundOut::default());
    let stepper = Stepper::new(models, Workload::CrawlMatrix.engine(), false);
    let sessions: Vec<Session<'static>> = specs.iter().map(|spec| stepper.open(spec)).collect();
    let took = started.elapsed();
    drop(sessions);
    took
}

/// The shortest of `setups`, in seconds.
fn fastest(setups: &[Duration]) -> f64 {
    setups.iter().min().map_or(f64::NAN, Duration::as_secs_f64)
}

/// What `serve_fleet` submits for `spec`.
fn session_spec(spec: &Spec, engine: &EngineConfig) -> SessionSpec {
    SessionSpec::new("bench", spec.app, spec.crawler, spec.seed).config(engine.clone())
}

fn serve_fleet(seed: u64, traced: bool) -> RoundOut {
    let workload = Workload::ServeFleet;
    let specs = workload.specs(seed);
    let engine = workload.engine();
    let mut out = RoundOut { attempted: specs.len() as u64, ..RoundOut::default() };
    let config = ServiceConfig {
        threads: workload.workers(),
        steps_per_slice: 64,
        default_quota: TenantQuota::concurrent(usize::MAX),
        sample_latency: true,
        checkpoint_every: 0,
        collect_metrics: true,
        ..ServiceConfig::default()
    };

    // The benchmark's own models, for the direct sample. The service
    // builds its own on first submission.
    let models = build_models(&specs, &mut out);
    let setup = Instant::now();
    let mut service = CrawlService::new(config.clone());
    let (rss0, live0) = (mem_status().rss_kb, layers::live_bytes());
    let submit = Instant::now();
    for spec in &specs {
        if let Err(err) = service.submit(session_spec(spec, &engine)) {
            out.failures.push(format!("submit {spec:?}: {err}"));
        }
    }
    let submit_s = submit.elapsed().as_secs_f64();
    let (rss1, live1) = (mem_status().rss_kb, layers::live_bytes());
    let setup = setup.elapsed();

    let drain = Instant::now();
    let mut done = service.run_to_drain();
    let drain_s = drain.elapsed().as_secs_f64();
    let live2 = layers::live_bytes();
    done.sort_unstable_by_key(|c| c.id);
    let aborted = service.aborted();
    if aborted > 0 {
        out.failures.push(format!("{aborted} sessions aborted"));
    }
    if done.len() != specs.len() {
        out.failures.push(format!("{} of {} sessions completed", done.len(), specs.len()));
    }

    let latencies = service.last_latencies();
    let latency: Vec<(u64, u64)> =
        latencies.samples().iter().map(|&(ns, n)| (ns, u64::from(n))).collect();
    let n = specs.len() as f64;
    let steps: u64 = latency.iter().map(|&(_, w)| w).sum();
    let busy_ns: f64 = latency.iter().map(|&(ns, w)| ns as f64 * w as f64).sum();
    out.set_work(steps as f64, drain_s, done.len() as f64, drain_s);
    out.set("rss_per_session_kb", rss1.saturating_sub(rss0) as f64 / n);
    out.set("serve.submit_us_per_session", submit_s * 1e6 / n);
    out.set("serve.busy_share", busy_ns / 1e9 / (drain_s * workload.workers() as f64));
    let dispatch = latencies.dispatch_samples();
    for (name, q) in [("serve.dispatch_ns_p50", 0.5), ("serve.dispatch_ns_p99", 0.99)] {
        match percentile_unweighted(dispatch, q) {
            Some(ns) => out.set(name, ns as f64),
            None => out.failures.push(format!("{name}: too few dispatch samples")),
        }
    }
    out.set("samples.dispatch", dispatch.len() as f64);
    let registry = service.metrics().registry();
    out.set("serve.steals", registry.counter_total("mak_serve_scheduler_steals_total"));
    out.set(
        "serve.queue_peak",
        registry.gauge_value("mak_serve_queue_depth_peak", &[]).unwrap_or(0.0),
    );
    if traced {
        out.set("mem.session_live_kb", (live1 - live0) as f64 / 1024.0 / n);
        out.set("mem.completed_retained_kb", (live2 - live0) as f64 / 1024.0 / n);
    }

    out.step_samples = latency;
    let reports: Vec<CrawlReport> = done.into_iter().map(|c: CompletedSession| c.report).collect();
    out.digest = digest(&reports);
    check_expected(workload, seed, &specs, &reports, &mut out.failures);

    // The direct sample: the same specs through `Session`, which must
    // equal what the service returned. In traced rounds it also yields
    // the per-step layer numbers for this workload's mix.
    let mut stepper = Stepper::new(models, engine.clone(), traced);
    for (i, spec) in specs.iter().enumerate().filter(|&(i, _)| workload.sampled(i)) {
        let session = stepper.open(spec);
        if reports.get(i) != Some(&stepper.run(session)) {
            out.failures
                .push(format!("session {i} {spec:?}: service report differs from a direct run"));
        }
    }
    let sampled = (0..specs.len()).filter(|&i| workload.sampled(i)).count();
    out.set("samples.direct_sessions", sampled as f64);
    out.set("direct.step_ns_mean", stepper.step_ns_mean());
    if traced {
        stepper.traced_metrics(&mut out);
    }
    out.set("peak_rss_mb", mem_status().hwm_kb as f64 / 1024.0);

    drop((service, reports));
    let mut setups = vec![setup];
    if !traced {
        setups.extend((1..SETUPS).map(|_| fleet_setup(&config, &specs, &engine)));
    }
    out.set("setup_s", fastest(&setups));
    out
}

/// One more `serve_fleet` set-up, timed and thrown away: a service
/// created and every session submitted.
fn fleet_setup(config: &ServiceConfig, specs: &[Spec], engine: &EngineConfig) -> Duration {
    let started = Instant::now();
    let mut service = CrawlService::new(config.clone());
    for spec in specs {
        service.submit(session_spec(spec, engine)).expect("accepted in the measured set-up");
    }
    let took = started.elapsed();
    drop(service);
    took
}

/// Per-layer metrics from the tracer's totals.
fn layer_metrics(out: &mut RoundOut) {
    let stat = |l: Layer| out.layers[l as usize];
    let per = |ns: u64, calls: u64| ns as f64 / calls.max(1) as f64;
    let step = stat(Layer::SessionStep);
    let handle = stat(Layer::Handle);
    let crawlers = [Layer::CrawlerMak, Layer::CrawlerQlearn, Layer::CrawlerStatic].map(stat);
    let crawler_self: u64 = crawlers.iter().map(|s| s.self_ns).sum();
    let crawler_calls: u64 = crawlers.iter().map(|s| s.calls).sum();
    let mut set = Vec::new();
    set.push(("websim.handle.calls_per_step", handle.calls as f64 / step.calls.max(1) as f64));
    set.push(("websim.handle.ns_per_call", per(handle.busy_ns, handle.calls)));
    set.push(("websim.handle.share", handle.busy_ns as f64 / step.busy_ns.max(1) as f64));
    for (name, s) in [
        "core.mak.self_ns_per_step",
        "core.qlearn.self_ns_per_step",
        "core.static.self_ns_per_step",
    ]
    .into_iter()
    .zip(crawlers)
    {
        if s.calls > 0 {
            set.push((name, per(s.self_ns, s.calls)));
        }
    }
    set.push(("core.crawler.self_ns_per_step", per(crawler_self, crawler_calls)));
    set.push(("core.session.self_ns_per_step", per(step.self_ns, step.calls)));
    set.push((
        "core.session_new_us",
        per(stat(Layer::SessionNew).busy_ns, stat(Layer::SessionNew).calls) / 1e3,
    ));
    set.push(("core.finish_us", per(stat(Layer::Finish).busy_ns, stat(Layer::Finish).calls) / 1e3));
    set.push((
        "core.snapshot_us",
        per(stat(Layer::Snapshot).busy_ns, stat(Layer::Snapshot).calls) / 1e3,
    ));
    set.push(("alloc.per_step", step.allocs as f64 / step.calls.max(1) as f64));
    // Self times of the three nested layers, per step: by construction
    // they add up to the traced `Session::step` busy time.
    set.push((
        "trace.self_sum_ns_per_step",
        (handle.self_ns + crawler_self + step.self_ns) as f64 / step.calls.max(1) as f64,
    ));
    for (name, value) in set {
        out.set(name, value);
    }
}

/// FNV-1a over every field of every report, in order: equal digests
/// mean equal reports. (Hashed field by field: serializing thousands of
/// reports to JSON would take longer than the round.)
fn digest(reports: &[CrawlReport]) -> u64 {
    reports.iter().fold(FNV_BASIS, |mut h, r| {
        for &(file, line) in &r.covered_lines {
            h = fnv1a64(fnv1a64(h, &file.to_le_bytes()), &line.to_le_bytes());
        }
        for sample in &r.coverage_series {
            h = fnv1a64(
                fnv1a64(h, &sample.secs.to_bits().to_le_bytes()),
                &sample.lines.to_le_bytes(),
            );
        }
        let rest = format!(
            "{} {} {} {} {} {} {} {:?} {:?} {:?} {:?} {:?}\n",
            r.crawler,
            r.app,
            r.seed,
            r.interactions,
            r.final_lines_covered,
            r.total_declared_lines,
            r.distinct_urls,
            r.state_count,
            r.elapsed_secs,
            r.trace,
            r.faults,
            r.phase
        );
        fnv1a64(h, rest.as_bytes())
    })
}

/// The committed outcome file of a workload.
fn expected_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected").join(format!("{}.txt", workload.name()))
}

/// The outcome file's text for `reports`: one line per sampled session,
/// then totals over all sessions.
fn outcome_text(workload: Workload, specs: &[Spec], reports: &[CrawlReport]) -> String {
    let mut text = String::from("# index app crawler seed interactions final_lines_covered\n");
    for (i, (spec, r)) in
        specs.iter().zip(reports).enumerate().filter(|&(i, _)| workload.sampled(i))
    {
        text.push_str(&format!(
            "{i} {} {} {} {} {}\n",
            spec.app, spec.crawler, spec.seed, r.interactions, r.final_lines_covered
        ));
    }
    let interactions: u64 = reports.iter().map(|r| r.interactions).sum();
    let lines: u64 = reports.iter().map(|r| r.final_lines_covered).sum();
    text.push_str(&format!("total {} {interactions} {lines}\n", reports.len()));
    text
}

/// Compares this round's outcomes with the committed ones when it runs
/// the default seed, as the check round of every run does; every
/// differing line is a failure.
fn check_expected(
    workload: Workload,
    seed: u64,
    specs: &[Spec],
    reports: &[CrawlReport],
    failures: &mut Vec<String>,
) {
    if seed != DEFAULT_SEED {
        return;
    }
    let path = expected_path(workload);
    let expected = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            failures.push(format!("{}: {err}", path.display()));
            return;
        }
    };
    let actual = outcome_text(workload, specs, reports);
    let want: Vec<&str> = expected.lines().filter(|l| !l.starts_with('#')).collect();
    let got: Vec<&str> = actual.lines().filter(|l| !l.starts_with('#')).collect();
    if want.len() != got.len() {
        failures.push(format!(
            "{}: {} outcome lines, expected {}",
            path.display(),
            got.len(),
            want.len()
        ));
    }
    for (w, g) in want.iter().zip(&got) {
        if w != g {
            failures.push(format!("outcome `{g}` differs from expected `{w}`"));
        }
    }
}

/// Writes the default seed's outcome files (run after an intended
/// change of outcomes; the diff shows what moved).
pub fn write_expected() -> std::io::Result<()> {
    for workload in Workload::ALL {
        let specs = workload.specs(DEFAULT_SEED);
        let models = build_models(&specs, &mut RoundOut::default());
        let mut stepper = Stepper::new(models, workload.engine(), false);
        let reports: Vec<CrawlReport> = specs
            .iter()
            .map(|spec| {
                let session = stepper.open(spec);
                stepper.run(session)
            })
            .collect();
        std::fs::write(expected_path(workload), outcome_text(workload, &specs, &reports))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_round_reads_back_equal_from_its_json_line() {
        let mut out = RoundOut {
            layers: vec![LayerStat { calls: 3, busy_ns: 70, self_ns: 40, allocs: 5 }],
            step_samples: vec![(1_500, 1), (u64::MAX, 64)],
            digest: u64::MAX - 1,
            attempted: 132,
            failures: vec!["one".to_owned()],
            ..RoundOut::default()
        };
        out.set("steps_per_s", 1.25e5);
        out.set("steps_per_s", 2.5e5);
        out.set("not_finite", f64::NAN);
        assert_eq!(out.get("steps_per_s"), Some(2.5e5));
        assert_eq!(out.get("not_finite"), None);
        let line = serde_json::to_string(&out.to_value()).unwrap();
        let back: RoundOut = serde_json::from_str(&line).unwrap();
        assert_eq!(back.values, out.values);
        assert_eq!(back.layers, out.layers);
        assert_eq!(back.step_samples, out.step_samples);
        assert_eq!((back.digest, back.attempted), (out.digest, out.attempted));
        assert_eq!(back.failures, out.failures);
    }
}
