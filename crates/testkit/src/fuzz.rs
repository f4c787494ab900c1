//! The fuzz driver behind `mak-cli fuzz`.
//!
//! [`run_fuzz`] generates `apps` adversarial blueprints from consecutive
//! seeds, runs every configured crawler on each under the step-level
//! [`InvariantOracle`](crate::oracle::InvariantOracle), and cross-checks
//! the differential oracles (rerun ≡ first, parallel ≡ sequential,
//! cached ≡ fresh). Any failure is shrunk by
//! [`shrink`](crate::shrink::shrink) and written to disk as a
//! [`FailureArtifact`] — a self-contained JSON file that
//! [`replay`] (and `mak-cli fuzz --replay <file>`) can re-execute later.
//!
//! The whole campaign is a pure function of [`FuzzConfig`]: same config,
//! same apps, same violations, same artifacts.

use crate::differential::{
    check_cache_roundtrip, check_parallel_sequential, check_rerun_identical,
    check_session_equivalence, check_snapshot_roundtrip, oracle_crawl,
};
use crate::generate::BlueprintSpec;
use crate::oracle::Violation;
use crate::shrink::shrink;
use mak::framework::engine::{run_crawl, CrawlReport, EngineConfig};
use mak::spec::{build_crawler, CRAWLER_NAMES, MAK_VARIANTS};
use mak_browser::fault::FaultPlan;
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// Configuration of one fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of generated applications.
    pub apps: u64,
    /// Crawl seeds per (app, crawler) cell.
    pub seeds: u64,
    /// Base seed for blueprint generation; app `a` uses `base_seed + a`.
    pub base_seed: u64,
    /// Crawler names to exercise (see [`mak::spec::build_crawler`]).
    pub crawlers: Vec<String>,
    /// Virtual crawl budget per run, in minutes.
    pub budget_minutes: f64,
    /// Directory for failure artifacts.
    pub out_dir: PathBuf,
    /// Print per-app progress to stdout.
    pub progress: bool,
    /// Fault plan injected into every crawl (chaos mode); the empty plan
    /// fuzzes the fault-free browser.
    pub faults: FaultPlan,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            apps: 25,
            seeds: 2,
            base_seed: 0,
            crawlers: CRAWLER_NAMES.iter().chain(MAK_VARIANTS).map(|s| (*s).to_owned()).collect(),
            budget_minutes: 1.0,
            out_dir: PathBuf::from("results/fuzz"),
            progress: false,
            faults: FaultPlan::none(),
        }
    }
}

/// A self-contained, replayable description of one shrunk failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureArtifact {
    /// The (shrunk) blueprint that reproduces the violation.
    pub spec: BlueprintSpec,
    /// Crawler that violated an invariant.
    pub crawler: String,
    /// Crawl seed.
    pub seed: u64,
    /// Crawl budget in virtual minutes.
    pub budget_minutes: f64,
    /// The violation observed on the shrunk spec.
    pub violation: Violation,
    /// Candidate specs evaluated while shrinking.
    pub shrink_attempts: u64,
    /// The fault plan active during the failing crawl. Deserializes to the
    /// empty plan when absent, so pre-chaos artifacts stay replayable.
    #[serde(default)]
    pub faults: FaultPlan,
}

/// Summary of a fuzz campaign.
#[derive(Debug)]
pub struct FuzzOutcome {
    /// Applications generated.
    pub apps: u64,
    /// Individual crawls executed (oracle runs; rerun/differential checks
    /// roughly double the true crawl count).
    pub runs: u64,
    /// Written artifacts, in detection order.
    pub failures: Vec<(PathBuf, FailureArtifact)>,
}

impl FuzzOutcome {
    /// True when no invariant or differential violation was found.
    pub fn clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The engine config shared by every detection path: the budget plus the
/// campaign's fault plan.
fn engine_config(budget_minutes: f64, faults: &FaultPlan) -> EngineConfig {
    let mut config = EngineConfig::with_budget_minutes(budget_minutes);
    config.faults = faults.clone();
    config
}

/// Step-level + rerun + session + snapshot detection for one `(spec,
/// crawler, seed, budget)` cell: first oracle violation, else first rerun
/// mismatch, else a session-vs-one-shot divergence, else a checkpoint
/// round-trip divergence, else `None`. This is both the fuzz check and
/// the shrink predicate for such failures. Every generated blueprint
/// therefore exercises the cell through *three* execution paths — the
/// legacy one-shot engine, the resumable `Session` the serving layer
/// schedules, and an interrupt-serialize-restore-resume cycle through
/// the checkpoint codec (the crash-recovery contract).
pub fn detect_step_failure(
    spec: &BlueprintSpec,
    budget_minutes: f64,
    faults: &FaultPlan,
    crawler: &str,
    seed: u64,
) -> Option<Violation> {
    let config = engine_config(budget_minutes, faults);
    let mut c = build_crawler(crawler, seed).unwrap_or_else(|| panic!("unknown {crawler}"));
    let (report, violations) = oracle_crawl(&mut *c, spec, &config, seed);
    if let Some(v) = violations.into_iter().next() {
        return Some(v);
    }
    if let Err(v) = check_rerun_identical(spec, crawler, seed, &config, &report) {
        return Some(v);
    }
    if let Err(v) = check_session_equivalence(spec, crawler, seed, &config, &report) {
        return Some(v);
    }
    check_snapshot_roundtrip(spec, crawler, seed, &config, &report).err()
}

fn detect_parallel_failure(
    spec: &BlueprintSpec,
    budget_minutes: f64,
    faults: &FaultPlan,
    crawlers: &[String],
    seed: u64,
) -> Option<Violation> {
    let config = engine_config(budget_minutes, faults);
    let sequential: Vec<CrawlReport> = crawlers
        .iter()
        .map(|name| {
            let mut c = build_crawler(name, seed).unwrap_or_else(|| panic!("unknown {name}"));
            run_crawl(&mut *c, Box::new(spec.build()), &config, seed)
        })
        .collect();
    check_parallel_sequential(spec, crawlers, seed, &config, &sequential).into_iter().next()
}

fn detect_cache_failure(
    spec: &BlueprintSpec,
    budget_minutes: f64,
    faults: &FaultPlan,
    crawler: &str,
    seed: u64,
) -> Option<Violation> {
    let config = engine_config(budget_minutes, faults);
    let mut c = build_crawler(crawler, seed).unwrap_or_else(|| panic!("unknown {crawler}"));
    let report = run_crawl(&mut *c, Box::new(spec.build()), &config, seed);
    check_cache_roundtrip(spec, crawler, seed, &config, &report).err()
}

/// Runs a fuzz campaign. Failures are shrunk and written to
/// `cfg.out_dir/failure-<n>-<crawler>.json`.
pub fn run_fuzz(cfg: &FuzzConfig) -> std::io::Result<FuzzOutcome> {
    std::fs::create_dir_all(&cfg.out_dir)?;
    let mut outcome = FuzzOutcome { apps: cfg.apps, runs: 0, failures: Vec::new() };

    for a in 0..cfg.apps {
        let spec = BlueprintSpec::generate(cfg.base_seed + a);
        if cfg.progress && (a % 10 == 0 || a + 1 == cfg.apps) {
            println!(
                "app {:>4}/{} {:<12} ({} pages, {} modules) — {} failures so far",
                a + 1,
                cfg.apps,
                spec.name,
                spec.total_pages(),
                spec.modules.len(),
                outcome.failures.len()
            );
        }

        for s in 0..cfg.seeds {
            for crawler in &cfg.crawlers {
                outcome.runs += 1;
                if let Some(v) =
                    detect_step_failure(&spec, cfg.budget_minutes, &cfg.faults, crawler, s)
                {
                    record_failure(cfg, &mut outcome, &spec, crawler, s, v, &mut |sp, b| {
                        detect_step_failure(sp, b, &cfg.faults, crawler, s)
                    })?;
                }
            }
        }

        // Differential sweeps once per app, on the first seed: every
        // crawler in one parallel batch, plus a cache round-trip of the
        // first crawler's report.
        if let Some(v) =
            detect_parallel_failure(&spec, cfg.budget_minutes, &cfg.faults, &cfg.crawlers, 0)
        {
            let crawlers = cfg.crawlers.clone();
            record_failure(cfg, &mut outcome, &spec, "parallel-batch", 0, v, &mut |sp, b| {
                detect_parallel_failure(sp, b, &cfg.faults, &crawlers, 0)
            })?;
        }
        if let Some(first) = cfg.crawlers.first() {
            if let Some(v) = detect_cache_failure(&spec, cfg.budget_minutes, &cfg.faults, first, 0)
            {
                let name = first.clone();
                record_failure(cfg, &mut outcome, &spec, first, 0, v, &mut |sp, b| {
                    detect_cache_failure(sp, b, &cfg.faults, &name, 0)
                })?;
            }
        }
    }
    Ok(outcome)
}

fn record_failure(
    cfg: &FuzzConfig,
    outcome: &mut FuzzOutcome,
    spec: &BlueprintSpec,
    crawler: &str,
    seed: u64,
    violation: Violation,
    check: &mut dyn FnMut(&BlueprintSpec, f64) -> Option<Violation>,
) -> std::io::Result<()> {
    if cfg.progress {
        println!("  FAILURE {} / {crawler} seed {seed}: {violation}", spec.name);
    }
    let shrunk = shrink(spec, cfg.budget_minutes, &violation, check);
    let artifact = FailureArtifact {
        spec: shrunk.spec,
        crawler: crawler.to_owned(),
        seed,
        budget_minutes: shrunk.budget_minutes,
        violation: shrunk.violation,
        shrink_attempts: shrunk.attempts,
        faults: cfg.faults.clone(),
    };
    let path = cfg.out_dir.join(format!("failure-{}-{crawler}.json", outcome.failures.len()));
    std::fs::write(&path, serde_json::to_string_pretty(&artifact).expect("artifact serializes"))?;
    if cfg.progress {
        println!(
            "  shrunk to {} pages in {} attempts -> {}",
            artifact.spec.total_pages(),
            artifact.shrink_attempts,
            path.display()
        );
    }
    outcome.failures.push((path, artifact));
    Ok(())
}

/// Outcome of replaying one failure artifact.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// The parsed artifact.
    pub artifact: FailureArtifact,
    /// The violation observed when re-running the artifact's cell, or
    /// `None` if the failure no longer reproduces (i.e. the bug is fixed).
    pub reproduced: Option<Violation>,
}

/// Replays a failure artifact written by [`run_fuzz`]. The detection path
/// is chosen from the recorded violation's invariant so differential
/// failures replay through the same oracle that found them.
pub fn replay(path: &std::path::Path) -> Result<ReplayOutcome, String> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let artifact: FailureArtifact =
        serde_json::from_str(&json).map_err(|e| format!("parse {}: {e}", path.display()))?;
    let reproduced = match artifact.violation.invariant.as_str() {
        "parallel-sequential" => detect_parallel_failure(
            &artifact.spec,
            artifact.budget_minutes,
            &artifact.faults,
            std::slice::from_ref(&artifact.crawler),
            artifact.seed,
        ),
        "cache-roundtrip" => detect_cache_failure(
            &artifact.spec,
            artifact.budget_minutes,
            &artifact.faults,
            &artifact.crawler,
            artifact.seed,
        ),
        _ => detect_step_failure(
            &artifact.spec,
            artifact.budget_minutes,
            &artifact.faults,
            &artifact.crawler,
            artifact.seed,
        ),
    };
    Ok(ReplayOutcome { artifact, reproduced })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_out(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mak-testkit-fuzz-{}-{tag}", std::process::id()))
    }

    #[test]
    fn bounded_smoke_run_is_clean() {
        let out = temp_out("smoke");
        let cfg = FuzzConfig {
            apps: 3,
            seeds: 1,
            crawlers: vec!["mak".into(), "bfs".into()],
            budget_minutes: 0.5,
            out_dir: out.clone(),
            ..FuzzConfig::default()
        };
        let outcome = run_fuzz(&cfg).unwrap();
        assert!(outcome.clean(), "{:?}", outcome.failures);
        assert_eq!(outcome.runs, 3 * 2);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn artifact_roundtrips_and_replays() {
        // A healthy cell: replay must report "not reproduced".
        let artifact = FailureArtifact {
            spec: BlueprintSpec::generate(2),
            crawler: "mak".into(),
            seed: 1,
            budget_minutes: 0.5,
            violation: Violation {
                step: 3,
                invariant: "exp31-epoch-bound".into(),
                details: "synthetic".into(),
            },
            shrink_attempts: 0,
            faults: FaultPlan::none(),
        };
        let dir = temp_out("replay");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        std::fs::write(&path, serde_json::to_string_pretty(&artifact).unwrap()).unwrap();
        let outcome = replay(&path).unwrap();
        assert_eq!(outcome.artifact, artifact);
        assert!(outcome.reproduced.is_none(), "{:?}", outcome.reproduced);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_smoke_run_is_clean() {
        let out = temp_out("chaos");
        let cfg = FuzzConfig {
            apps: 3,
            seeds: 1,
            crawlers: vec!["mak".into(), "bfs".into()],
            budget_minutes: 0.5,
            out_dir: out.clone(),
            faults: FaultPlan::profile("moderate").unwrap(),
            ..FuzzConfig::default()
        };
        let outcome = run_fuzz(&cfg).unwrap();
        assert!(outcome.clean(), "chaos mode violates no invariant: {:?}", outcome.failures);
        assert_eq!(outcome.runs, 3 * 2);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn pre_chaos_artifacts_parse_with_the_empty_plan() {
        use serde::{Deserialize, Serialize, Value};
        let artifact = FailureArtifact {
            spec: BlueprintSpec::generate(2),
            crawler: "mak".into(),
            seed: 1,
            budget_minutes: 0.5,
            violation: Violation {
                step: 3,
                invariant: "exp31-epoch-bound".into(),
                details: "synthetic".into(),
            },
            shrink_attempts: 0,
            faults: FaultPlan::profile("heavy").unwrap(),
        };
        // Simulate an artifact written before the fault layer existed by
        // stripping the `faults` field from the serialized form.
        let Value::Object(mut entries) = artifact.to_value() else { panic!("object") };
        entries.retain(|(k, _)| k != "faults");
        let parsed = FailureArtifact::from_value(&Value::Object(entries)).unwrap();
        assert_eq!(parsed.faults, FaultPlan::none(), "missing plan defaults to empty");
        assert_eq!(parsed.spec, artifact.spec);
    }

    #[test]
    fn replay_rejects_garbage() {
        let dir = temp_out("garbage");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.json");
        std::fs::write(&path, "{not json").unwrap();
        assert!(replay(&path).is_err());
        assert!(replay(&dir.join("missing.json")).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
