//! Committed checkpoint store files: a mid-run `mak` session on `vanilla`
//! (seed 1, 0.5 virtual minutes, 4 steps taken), written by
//! `CheckpointStore::save`.
//!
//! - `checkpoint_v1.ckpt` was written by a build whose checkpoints carried
//!   untyped crawler payloads (version 1); it must be quarantined with a
//!   reason naming its version, not migrated.
//! - `checkpoint_v2.ckpt` is what this build writes; every truncation and
//!   every single-byte change of its payload must decode to a typed error
//!   or to a session that steps to its end — never a panic.

use mak::framework::engine::EngineConfig;
use mak::framework::session::Session;
use mak::spec::build_crawler;
use mak_obs::sink::SinkHandle;
use mak_serve::{CheckpointStore, CrawlService, LoadOutcome, ServiceConfig, StoredSession};
use mak_websim::apps;
use mak_websim::server::WebApp;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const V1: &str = "tests/fixtures/checkpoint_v1.ckpt";
const V2: &str = "tests/fixtures/checkpoint_v2.ckpt";
const FILE: &str = "session-00000000000000000001.ckpt";

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mak-fixture-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The session both fixtures hold.
fn fixture() -> StoredSession {
    let cfg = EngineConfig::with_budget_minutes(0.5);
    let crawler = build_crawler("mak", 1).unwrap();
    let mut session = Session::new(apps::build("vanilla").unwrap(), crawler, &cfg, 1);
    for _ in 0..4 {
        session.step();
    }
    StoredSession {
        id: 1,
        tenant: "fixture".into(),
        app: "vanilla".into(),
        crawler: "mak".into(),
        record_events: false,
        record_spans: false,
        checkpoint: session.snapshot().unwrap(),
    }
}

/// Copies a fixture into a fresh store directory.
fn stage(fixture: &str, tag: &str) -> PathBuf {
    let dir = tmpdir(tag);
    fs::copy(fixture, dir.join(FILE)).unwrap();
    dir
}

#[test]
fn v2_fixture_is_what_this_build_writes() {
    let dir = tmpdir("write");
    CheckpointStore::open(&dir).unwrap().save(&fixture()).unwrap();
    let written = fs::read(dir.join(FILE)).unwrap();
    assert!(written == fs::read(V2).unwrap(), "{V2} is stale; the new file is in {dir:?}");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v1_checkpoints_are_quarantined_naming_their_version() {
    let dir = stage(V1, "v1-load");
    let store = CheckpointStore::open(&dir).unwrap();
    match store.load_path(&dir.join(FILE)).unwrap() {
        LoadOutcome::Quarantined { reason, .. } => {
            assert!(reason.contains("unsupported checkpoint version 1"), "{reason}")
        }
        LoadOutcome::Loaded(_) => panic!("a version-1 checkpoint was accepted"),
    }
    assert_eq!(store.stats().corrupt_quarantined, 1);
    assert!(dir.join("quarantine").join(FILE).is_file());
    fs::remove_dir_all(&dir).unwrap();

    let dir = stage(V1, "v1-recover");
    let config = ServiceConfig { checkpoint_dir: Some(dir.clone()), ..Default::default() };
    let report = CrawlService::new(config).recover().unwrap();
    assert_eq!((report.restored, report.corrupt_quarantined), (0, 1));
    assert!(report.quarantined[0].1.contains("version 1"), "{:?}", report.quarantined);
    fs::remove_dir_all(&dir).unwrap();
}

/// Decodes and resumes one payload, stepping the session to its end.
/// `Err` is a typed refusal; a panic is a bug.
fn resume(payload: &[u8], app: &Arc<dyn WebApp>) -> Result<u64, String> {
    let text = std::str::from_utf8(payload).map_err(|e| e.to_string())?;
    let stored: StoredSession = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let checkpoint = &stored.checkpoint;
    let crawler = build_crawler(&checkpoint.crawler, checkpoint.seed).ok_or("unknown crawler")?;
    let mut session = Session::restore(app.clone(), crawler, checkpoint, SinkHandle::none())
        .map_err(|e| e.to_string())?;
    while session.step().is_running() {
        assert!(session.steps_taken() < 10_000, "resumed session does not end");
    }
    Ok(session.finish().interactions)
}

fn payload(path: &Path) -> Vec<u8> {
    let raw = fs::read(path).unwrap();
    let newline = raw.iter().position(|&b| b == b'\n').unwrap();
    raw[newline + 1..].to_vec()
}

#[test]
fn no_truncation_or_byte_change_of_a_checkpoint_panics() {
    let app = apps::build_shared("vanilla").unwrap();
    let payload = payload(Path::new(V2));
    assert!(resume(&payload, &app).is_ok(), "the pristine fixture resumes");
    let mut panicked = Vec::new();
    let (mut refused, mut resumed) = (0, 0);
    for offset in 0..payload.len() {
        let mut changed = payload.clone();
        changed[offset] ^= 1;
        for (case, bytes) in [("truncated", &payload[..offset]), ("changed", &changed[..])] {
            match catch_unwind(AssertUnwindSafe(|| resume(bytes, &app))) {
                Ok(Ok(_)) => resumed += 1,
                Ok(Err(_)) => refused += 1,
                Err(_) => panicked.push(format!("{case} at byte {offset}")),
            }
        }
    }
    assert!(panicked.is_empty(), "panicked: {panicked:?}");
    assert!(refused > 0 && resumed > 0, "{refused} refused, {resumed} resumed");
}
