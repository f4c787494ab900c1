//! The durability contract, adversarially: park a live service mid-run
//! (gracefully or by simulated crash), restore it into a fresh service,
//! and every recovered session's final report — and the event stream
//! past the `SessionResumed` marker — is byte-identical to never having
//! stopped. Corrupt checkpoints are quarantined and counted, never
//! trusted, and never abort the recovery of their neighbors.
//!
//! Every checkpoint directory is tmpdir-scoped and removed on success;
//! nothing leaks into `results/`.

use mak::framework::engine::{CrawlReport, EngineConfig};
use mak::spec::CRAWLER_NAMES;
use mak_browser::fault::FaultPlan;
use mak_serve::{
    CrawlService, ScheduleOrder, ServiceConfig, SessionSpec, SubmitError, TenantQuota,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mak-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn engine_config(profile: &str) -> EngineConfig {
    // ~60 virtual steps per minute on this cost model: two minutes keeps
    // every crash point below well under half the workload's step total,
    // so partial runs always strand sessions mid-budget.
    let mut cfg = EngineConfig::with_budget_minutes(2.0);
    if profile != "none" {
        cfg.faults = FaultPlan::profile(profile).expect("known fault profile");
    }
    cfg
}

/// One session per registry crawler, all on PhpBB2, events recorded.
fn workload(profile: &str) -> Vec<SessionSpec> {
    CRAWLER_NAMES
        .iter()
        .enumerate()
        .map(|(i, crawler)| {
            SessionSpec::new("recovery", "phpbb2", *crawler, 40 + i as u64)
                .config(engine_config(profile))
                .record_events(true)
        })
        .collect()
}

fn durable_config(dir: &Path, order: ScheduleOrder) -> ServiceConfig {
    // Two virtual minutes is ~61 steps on this cost model, so slices and
    // cadence are shrunk below a session's lifetime: sessions interleave
    // across many slices and checkpoint several times each.
    ServiceConfig {
        threads: 4,
        steps_per_slice: 8,
        order,
        checkpoint_dir: Some(dir.to_path_buf()),
        checkpoint_every_steps: 16,
        ..ServiceConfig::default()
    }
}

/// Uninterrupted truth, keyed by session id (= submission index).
fn uninterrupted(profile: &str) -> BTreeMap<u64, (CrawlReport, Vec<u8>)> {
    let mut service = CrawlService::new(ServiceConfig::default());
    for spec in workload(profile) {
        service.submit(spec).unwrap();
    }
    service
        .run_to_drain()
        .into_iter()
        .map(|c| (c.id, (c.report, c.events_jsonl.expect("events recorded"))))
        .collect()
}

/// A recovered session's stream must be `SessionResumed` plus exactly
/// the uninterrupted run's suffix.
fn assert_resumed_stream(recovered: &[u8], truth: &[u8], context: &str) {
    let newline = recovered
        .iter()
        .position(|&b| b == b'\n')
        .unwrap_or_else(|| panic!("{context}: empty recovered stream"));
    let first = std::str::from_utf8(&recovered[..newline]).unwrap();
    assert!(
        first.contains("\"SessionResumed\""),
        "{context}: stream must open with SessionResumed, got {first}"
    );
    let suffix = &recovered[newline + 1..];
    assert!(
        truth.ends_with(suffix),
        "{context}: post-resume events are not a suffix of the uninterrupted stream \
         ({} suffix bytes vs {} truth bytes)",
        suffix.len(),
        truth.len()
    );
}

/// The tentpole matrix: all six crawlers × {none, heavy} fault profiles
/// × three adversarial schedule orders. Run partway, drain to disk, kill
/// the service, recover into a fresh one, finish — final reports are
/// byte-identical to uninterrupted runs and recovered event streams
/// splice cleanly.
#[test]
fn graceful_drain_and_recover_is_bit_identical() {
    for profile in ["none", "heavy"] {
        let truth = uninterrupted(profile);
        for (oi, order) in
            [ScheduleOrder::RoundRobin, ScheduleOrder::Lifo, ScheduleOrder::Random(0xFEED)]
                .into_iter()
                .enumerate()
        {
            let context = format!("profile={profile} order={order:?}");
            let dir = tmpdir(&format!("graceful-{profile}-{oi}"));
            let mut service = CrawlService::new(durable_config(&dir, order));
            for spec in workload(profile) {
                service.submit(spec).unwrap();
            }
            // Stop partway through the drain, then park the survivors.
            let early = service.run_for_steps(150);
            let parked = service.drain().unwrap();
            assert_eq!(
                early.len() as u64 + parked,
                CRAWLER_NAMES.len() as u64,
                "{context}: every session either completed early or parked"
            );
            assert!(parked > 0, "{context}: the crash point must strand some sessions");
            assert_eq!(service.in_flight(), 0, "{context}: drain releases quota slots");
            drop(service);

            // "Process restart": a brand-new service over the same dir.
            let mut revived = CrawlService::new(durable_config(&dir, order));
            let recovery = revived.recover().unwrap();
            assert_eq!(recovery.restored, parked, "{context}");
            assert_eq!(recovery.corrupt_quarantined, 0, "{context}");
            assert!(recovery.rejected.is_empty(), "{context}");
            let late = revived.run_to_drain();
            assert_eq!(revived.aborted(), 0, "{context}");

            let mut all: BTreeMap<u64, _> = BTreeMap::new();
            for c in early {
                all.insert(c.id, (c.report, c.events_jsonl.unwrap(), false));
            }
            for c in late {
                all.insert(c.id, (c.report, c.events_jsonl.unwrap(), true));
            }
            assert_eq!(all.len(), truth.len(), "{context}: no session lost or duplicated");
            for (id, (report, events, resumed)) in &all {
                let (truth_report, truth_events) = &truth[id];
                assert_eq!(report, truth_report, "{context}: report diverged for session {id}");
                if *resumed {
                    assert_resumed_stream(events, truth_events, &format!("{context} id={id}"));
                } else {
                    assert_eq!(
                        events, truth_events,
                        "{context}: pre-crash completion diverged for session {id}"
                    );
                }
            }
            // Completed sessions scrub their checkpoints; the live dir
            // holds nothing once everything drained.
            let leftovers = fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
                .count();
            assert_eq!(leftovers, 0, "{context}: recovered sessions scrub their files");
            fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A hard crash: the service is dropped with no drain call at all. Only
/// cadence checkpoints exist; recovered sessions replay from their last
/// boundary and still finish bit-identically.
#[test]
fn hard_crash_recovers_from_cadence_checkpoints() {
    let truth = uninterrupted("heavy");
    let dir = tmpdir("hard-crash");
    let mut service = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    for spec in workload("heavy") {
        service.submit(spec).unwrap();
    }
    let early = service.run_for_steps(200);
    // No drain(): simulate SIGKILL by dropping the live service.
    drop(service);

    let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::Lifo));
    let recovery = revived.recover().unwrap();
    assert!(recovery.restored > 0, "200 steps across six sessions must cross the 16-step cadence");
    assert_eq!(recovery.corrupt_quarantined, 0);
    // Admission-time checkpoints: a hard crash may lose progress, never a
    // session — every one either finished before the crash or restores.
    assert_eq!(early.len() as u64 + recovery.restored, workload("heavy").len() as u64);
    let late = revived.run_to_drain();
    assert_eq!(late.len() as u64, recovery.restored);
    assert_eq!(revived.aborted(), 0);
    for c in early.iter().chain(&late) {
        let (truth_report, _) = &truth[&c.id];
        assert_eq!(&c.report, truth_report, "session {} diverged after hard crash", c.id);
    }
    let restores =
        revived.metrics().registry().counter_value("mak_serve_checkpoint_restores_total", &[]);
    assert_eq!(restores, recovery.restored as f64);
    fs::remove_dir_all(&dir).unwrap();
}

/// Corrupt checkpoints — bit-flipped, truncated, torn, or garbage — are
/// quarantined and counted; the intact neighbors recover and finish
/// bit-identically. Recovery never panics on hostile bytes.
#[test]
fn corrupt_checkpoints_are_quarantined_never_trusted() {
    let truth = uninterrupted("none");
    let dir = tmpdir("corrupt");
    let mut service = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    for spec in workload("none") {
        service.submit(spec).unwrap();
    }
    let early = service.run_for_steps(100);
    let parked = service.drain().unwrap();
    assert!(parked >= 3, "need at least three parked sessions to corrupt");
    drop(service);

    // Corrupt two parked files two different ways and drop a stray
    // non-checkpoint file into the directory for good measure.
    let mut parked_files: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    parked_files.sort();
    let mut raw = fs::read(&parked_files[0]).unwrap();
    let mid = raw.len() / 2;
    raw[mid] ^= 0x01;
    fs::write(&parked_files[0], &raw).unwrap();
    let raw = fs::read(&parked_files[1]).unwrap();
    fs::write(&parked_files[1], &raw[..raw.len() - 7]).unwrap();
    fs::write(dir.join("README.txt"), b"not a checkpoint").unwrap();

    let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    let recovery = revived.recover().unwrap();
    assert_eq!(recovery.corrupt_quarantined, 2);
    assert_eq!(recovery.restored, parked - 2);
    // The damaged files moved to quarantine/ for forensics.
    assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 2);
    // And the counter in the exposition agrees.
    let corrupt =
        revived.metrics().registry().counter_value("mak_serve_checkpoint_corrupt_total", &[]);
    assert_eq!(corrupt, 2.0);

    let late = revived.run_to_drain();
    for c in early.iter().chain(&late) {
        let (truth_report, _) = &truth[&c.id];
        assert_eq!(&c.report, truth_report, "survivor {} diverged", c.id);
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// Recovery re-admits under the *current* quota: a tightened cap rejects
/// the overflow with a typed, hint-carrying error and leaves those
/// checkpoints on disk for a later attempt.
#[test]
fn recovery_respects_current_tenant_quotas() {
    let dir = tmpdir("quota");
    let mut service = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    for spec in workload("none") {
        service.submit(spec).unwrap();
    }
    service.run_for_steps(100);
    let parked = service.drain().unwrap();
    assert!(parked >= 2);
    drop(service);

    let mut revived = CrawlService::new(durable_config(&dir, ScheduleOrder::RoundRobin));
    revived.set_quota("recovery", TenantQuota::concurrent(1));
    let recovery = revived.recover().unwrap();
    assert_eq!(recovery.restored, 1, "one slot, one re-admission");
    assert_eq!(recovery.rejected.len() as u64, parked - 1);
    for (_, err) in &recovery.rejected {
        assert!(matches!(err, SubmitError::QuotaExceeded { .. }), "rejections are typed: {err}");
    }
    // The rejected checkpoints are still on disk: widen the quota and a
    // second recovery picks them up.
    revived.set_quota("recovery", TenantQuota::default());
    let second = revived.recover().unwrap();
    assert_eq!(second.restored, parked - 1);
    assert_eq!(revived.run_to_drain().len() as u64, parked);
    fs::remove_dir_all(&dir).unwrap();
}

/// Durability off (the default) never touches the filesystem and drain()
/// is a typed error, not a silent no-op.
#[test]
fn drain_and_recover_require_a_checkpoint_dir() {
    let mut service = CrawlService::new(ServiceConfig::default());
    service.submit(workload("none").remove(0)).unwrap();
    assert!(service.drain().is_err());
    assert!(service.recover().is_err());
    // The session is still in flight and runnable.
    assert_eq!(service.run_to_drain().len(), 1);
}
