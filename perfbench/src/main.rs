//! `perfbench`: the repository's benchmark. See `README.md` beside this
//! package for the workloads, the metrics and how to read them.
//!
//! ```text
//! perfbench --workload <crawl_matrix|serve_fleet> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --write-manifest    # rewrites BENCHMARK.json from the catalogue
//! perfbench --write-expected    # rewrites expected/*.txt for the default seed
//! ```
//!
//! A run repeats rounds of the workload, each in a child process of its
//! own, until `--seconds` have passed, and aggregates over rounds.
//! With `--trace 1` it alternates untraced and traced rounds and reports
//! the per-layer metrics. A last, untimed round runs the default seed, so
//! every run checks the committed outcomes whatever its `--seed`. The last line of standard output is the result
//! record; the line before it is the full record with provenance.

mod catalog;
mod layers;
mod round;
mod stats;
mod workload;

use round::RoundOut;
use serde::{Serialize as _, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Workload, DEFAULT_SEED};

#[global_allocator]
static ALLOC: layers::CountingAlloc = layers::CountingAlloc;

/// Rounds of each kind a run makes at least, however long they take.
const MIN_ROUNDS: usize = 3;
const MIN_TRACED_ROUNDS: usize = 2;
/// No new round starts after this, so a run ends well inside 180 s.
const HARD_STOP: Duration = Duration::from_secs(120);

const USAGE: &str = "usage: perfbench --workload <crawl_matrix|serve_fleet> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --write-manifest | --write-expected";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// `Some(traced)` in a round's child process.
    round: Option<bool>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flags.insert(flag.as_str(), value.as_str()).is_some() {
            return Err(format!("{flag} given twice"));
        }
    }
    let mut take = |flag: &str| flags.remove(flag);
    let workload = take("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let number = |flag: &str, value: Option<&str>, default: Option<u64>| match value {
        Some(v) => v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a whole number")),
        None => default.ok_or_else(|| format!("{flag} is required")),
    };
    let seed = number("--seed", take("--seed"), None)?;
    let seconds = number("--seconds", take("--seconds"), Some(catalog::RUN_SECONDS))?;
    let trace = match take("--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    let round = match take("--round") {
        None => None,
        Some("untraced") => Some(false),
        Some("traced") => Some(true),
        Some(other) => return Err(format!("--round must be untraced or traced, not `{other}`")),
    };
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    Ok(Args { workload, seed, seconds, trace, round })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--write-manifest"] => {
            return match std::fs::write("BENCHMARK.json", catalog::manifest()) {
                Ok(()) => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("perfbench: BENCHMARK.json: {err}");
                    ExitCode::FAILURE
                }
            };
        }
        ["--write-expected"] => {
            return match round::write_expected() {
                Ok(()) => ExitCode::SUCCESS,
                Err(err) => {
                    eprintln!("perfbench: expected outcomes: {err}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse(&args) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.round {
        Some(traced) => {
            let out = round::run(args.workload, args.seed, traced);
            println!("{}", serde_json::to_string(&out.to_value()).expect("round serializes"));
            ExitCode::SUCCESS
        }
        None => run(&args),
    }
}

/// The parent: runs rounds in child processes, aggregates, prints.
fn run(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("perfbench: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let (mut untraced, mut traced): (Vec<RoundOut>, Vec<RoundOut>) = (Vec::new(), Vec::new());
    let mut errors = Vec::new();
    loop {
        let done_min =
            untraced.len() >= MIN_ROUNDS && (!args.trace || traced.len() >= MIN_TRACED_ROUNDS);
        if (done_min && started.elapsed() >= budget) || started.elapsed() >= HARD_STOP {
            break;
        }
        let next_traced = args.trace && traced.len() < untraced.len();
        match run_child(&exe, args.workload, args.seed, next_traced) {
            Ok(out) if next_traced => traced.push(out),
            Ok(out) => untraced.push(out),
            Err(err) => {
                errors.push(err);
                break;
            }
        }
    }
    // The check round: untimed, on the seed whose outcomes are committed.
    let check = run_child(&exe, args.workload, DEFAULT_SEED, false).unwrap_or_else(|err| {
        errors.push(format!("check round: {err}"));
        RoundOut::default()
    });
    report(args, &untraced, &traced, &check, errors)
}

fn run_child(
    exe: &std::path::Path,
    workload: Workload,
    seed: u64,
    traced: bool,
) -> Result<RoundOut, String> {
    let output = Command::new(exe)
        .args(["--workload", workload.name(), "--seed", &seed.to_string()])
        .args(["--round", if traced { "traced" } else { "untraced" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    if !output.status.success() {
        return Err(format!("round exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("round printed nothing")?;
    serde_json::from_str::<RoundOut>(line)
        .map_err(|err| format!("unreadable round record ({err}): {line:.200}"))
}

/// Aggregates rounds: throughput as work summed over rounds divided by
/// the wall time summed over rounds, step percentiles over the samples of
/// all rounds pooled, set-up time as the fastest set-up, and every other
/// metric as the median over rounds.
///
/// The host's speed moves between states seconds apart; pooling makes
/// the figures shift smoothly with the share of time spent in each,
/// where a median of rounds would jump between them. A set-up lasts a few
/// milliseconds and lands wholly in one state, so its readings split in
/// two modes whose mix changes from run to run; interference only adds
/// time, and the fastest reading is the one that stays put.
fn aggregate(rounds: &[RoundOut]) -> BTreeMap<String, f64> {
    let mut all: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for round in rounds {
        for (name, value) in &round.values {
            all.entry(name.clone()).or_default().push(*value);
        }
    }
    let sum = |name: &str| all.get(name).map_or(f64::NAN, |v| v.iter().sum::<f64>());
    let mut table = BTreeMap::new();
    if !rounds.is_empty() {
        table.insert("steps_per_s".to_owned(), sum("work.steps") / sum("work.step_s"));
        table.insert("sessions_per_s".to_owned(), sum("work.sessions") / sum("work.session_s"));
        let samples: Vec<(u64, u64)> =
            rounds.iter().flat_map(|r| r.step_samples.iter().copied()).collect();
        for (name, q) in [("step_p50_us", 0.5), ("step_p99_us", 0.99)] {
            if let Some(ns) = stats::percentile(&samples, q) {
                table.insert(name.to_owned(), ns as f64 / 1e3);
            }
        }
        table.insert("samples.step".to_owned(), samples.len() as f64);
        if let Some(setups) = all.get("setup_s") {
            table
                .insert("setup_s".to_owned(), setups.iter().copied().fold(f64::INFINITY, f64::min));
        }
    }
    for (name, values) in all {
        if !name.starts_with("work.") {
            table.entry(name).or_insert_with(|| stats::median(&values));
        }
    }
    table
}

fn metric_json(name: &str, value: f64) -> (String, Value) {
    let unit = catalog::unit_of(name).unwrap_or("");
    (
        name.to_owned(),
        Value::Object(vec![
            ("value".to_owned(), Value::Float(value)),
            ("unit".to_owned(), Value::Str(unit.to_owned())),
        ]),
    )
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn report(
    args: &Args,
    untraced: &[RoundOut],
    traced: &[RoundOut],
    check: &RoundOut,
    errors: Vec<String>,
) -> ExitCode {
    let w = args.workload;
    let e2e = aggregate(untraced);
    let mut layer = aggregate(traced);
    // Untraced and traced rounds alternate, and the host's speed drifts
    // more between distant rounds than between neighbours, so the tracing
    // overhead is taken pair by pair.
    let paired = |f: &dyn Fn(f64, &RoundOut) -> Option<f64>| {
        let values: Vec<f64> = untraced
            .iter()
            .zip(traced)
            .filter_map(|(u, t)| f(u.get("direct.step_ns_mean")?, t))
            .collect();
        (!values.is_empty()).then(|| stats::median(&values))
    };
    if let Some(share) = paired(&|u, t| Some(1.0 - u / t.get("direct.step_ns_mean")?)) {
        layer.insert("trace.overhead_share".to_owned(), share);
    }
    if let Some(ratio) = paired(&|u, t| Some(t.get("trace.self_sum_ns_per_step")? / u)) {
        layer.insert("trace.self_sum_vs_untraced_step".to_owned(), ratio);
    }

    let rounds: Vec<&RoundOut> = untraced.iter().chain(traced).collect();
    let mut failures: Vec<String> = errors;
    for round in &rounds {
        failures.extend(round.failures.iter().cloned());
    }
    if let Some(first) = rounds.first() {
        for round in &rounds[1..] {
            if round.digest != first.digest {
                failures.push(format!(
                    "round reports differ: digest {:016x} vs {:016x}",
                    round.digest, first.digest
                ));
            }
        }
    }
    // The check round runs another seed, so its digest is not compared.
    failures.extend(check.failures.iter().map(|f| format!("seed {DEFAULT_SEED} check: {f}")));
    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum::<u64>() + check.attempted;
    let failed = failures.len() as u64;
    let fail_ratio = failed as f64 / attempted.max(1) as f64;
    let (names, values) =
        if args.trace { (catalog::PER_LAYER, &layer) } else { (catalog::END_TO_END, &e2e) };
    let missing: Vec<&str> =
        names.iter().map(|m| m.name).filter(|n| !values.contains_key(*n)).collect();
    let correct = failed == 0 && !rounds.is_empty() && missing.is_empty();

    // Human-readable summary.
    eprintln!(
        "perfbench {} seed {}: {} untraced + {} traced rounds, and a check round of seed \
         {DEFAULT_SEED}",
        w.name(),
        args.seed,
        untraced.len(),
        traced.len()
    );
    let print = |title: &str, table: &BTreeMap<String, f64>| {
        eprintln!("{title}");
        for (name, value) in table {
            eprintln!("  {name:<36} {value:>16.4} {}", catalog::unit_of(name).unwrap_or(""));
        }
    };
    print("untraced rounds (end to end, diagnostics):", &e2e);
    eprintln!("  {:<36} {fail_ratio:>16.4} share", "fail_ratio");
    if args.trace {
        print("traced rounds (per layer, diagnostics):", &layer);
        layer_table(traced);
    }
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    if !missing.is_empty() {
        eprintln!("FAILED: metrics not measured: {}", missing.join(", "));
    }

    // The full record, then the result line.
    let provenance = Value::Object(vec![
        ("git_rev".to_owned(), Value::Str(git_rev())),
        (
            "workspace_fingerprint".to_owned(),
            Value::Str(format!("{:016x}", mak_metrics::store::workspace_fingerprint())),
        ),
        (
            "nproc".to_owned(),
            Value::UInt(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("worker_threads".to_owned(), Value::UInt(w.workers() as u64)),
        ("seed".to_owned(), Value::UInt(args.seed)),
        ("sessions_per_round".to_owned(), Value::UInt(w.specs(args.seed).len() as u64)),
        ("virtual_minutes_per_session".to_owned(), Value::Float(w.engine().budget_minutes)),
        (
            "profile".to_owned(),
            Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.to_owned()),
        ),
    ]);
    let mut all_e2e: Vec<(String, Value)> =
        e2e.iter().map(|(name, value)| metric_json(name, *value)).collect();
    all_e2e.push(metric_json("fail_ratio", fail_ratio));
    let record = Value::Object(vec![
        ("workload".to_owned(), Value::Str(w.name().to_owned())),
        ("provenance".to_owned(), provenance),
        ("rounds".to_owned(), Value::UInt(untraced.len() as u64)),
        ("traced_rounds".to_owned(), Value::UInt(traced.len() as u64)),
        ("end_to_end".to_owned(), Value::Object(all_e2e)),
        (
            "per_layer".to_owned(),
            Value::Object(layer.iter().map(|(name, value)| metric_json(name, *value)).collect()),
        ),
        ("failures".to_owned(), Value::Array(failures.into_iter().map(Value::Str).collect())),
    ]);
    println!("{}", serde_json::to_string(&record).expect("record serializes"));
    let result = Value::Object(vec![
        ("correct".to_owned(), Value::Bool(correct)),
        ("attempted".to_owned(), Value::UInt(attempted.max(1))),
        ("failed".to_owned(), Value::UInt(failed)),
        (
            "metrics".to_owned(),
            Value::Object(
                names
                    .iter()
                    .filter_map(|m| Some(metric_json(m.name, *values.get(m.name)?)))
                    .collect(),
            ),
        ),
    ]);
    println!("{}", serde_json::to_string(&result).expect("result serializes"));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced-run table: each layer's calls, busy and self time summed
/// over traced rounds, its share of the stepped time, and the end-to-end
/// metric it should move.
fn layer_table(traced: &[RoundOut]) {
    let mut totals = vec![layers::LayerStat::default(); layers::Layer::ALL.len()];
    for round in traced {
        for (i, s) in round.layers.iter().enumerate() {
            totals[i].calls += s.calls;
            totals[i].busy_ns += s.busy_ns;
            totals[i].self_ns += s.self_ns;
            totals[i].allocs += s.allocs;
        }
    }
    let step_busy = totals[layers::Layer::SessionStep as usize].busy_ns.max(1) as f64;
    eprintln!(
        "{:<26} {:>10} {:>11} {:>11} {:>7}  should move",
        "layer (traced)", "calls", "busy ms", "self ms", "share"
    );
    for (layer, s) in layers::Layer::ALL.iter().zip(&totals) {
        eprintln!(
            "{:<26} {:>10} {:>11.1} {:>11.1} {:>6.1}%  {}",
            layer.name(),
            s.calls,
            s.busy_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            100.0 * s.self_ns as f64 / step_busy,
            catalog::moves(*layer)
        );
    }
    eprintln!("(share: self time over Session::step busy time)");
}
