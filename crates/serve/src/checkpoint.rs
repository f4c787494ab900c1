//! Durable session checkpoints: a CRC-guarded, atomic-rename file store.
//!
//! One file per parked session, named `session-<zero-padded id>.ckpt` so
//! lexicographic directory order is submission order. Each file is a
//! one-line header followed by a JSON payload:
//!
//! ```text
//! makckpt <format-version> <crc32-hex> <payload-bytes>\n
//! {"id":…,"tenant":…,"checkpoint":{…}}
//! ```
//!
//! Writes are crash-safe: the payload goes to a dot-prefixed temp file in
//! the same directory, is fsync'd, renamed over the final name, and the
//! directory is fsync'd — a checkpoint is either the complete old version
//! or the complete new one, never a torn mix. Reads trust nothing: a bad
//! header, length mismatch, CRC mismatch, or undecodable payload moves
//! the file into the `quarantine/` subdirectory (preserved for forensics,
//! never retried) and is counted, and recovery continues with the
//! remaining sessions. Corruption is an expected input, not a panic.

use crate::service::SessionId;
use mak::framework::checkpoint::SessionCheckpoint;
use std::fs::{self, File};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// On-disk format version; bumped on any incompatible header or payload
/// change. Distinct from [`CHECKPOINT_VERSION`], which versions the
/// session payload itself.
///
/// [`CHECKPOINT_VERSION`]: mak::framework::checkpoint::CHECKPOINT_VERSION
pub const STORE_VERSION: u32 = 1;

/// Magic token opening every checkpoint header line.
const MAGIC: &str = "makckpt";

/// File extension for live checkpoints.
const EXT: &str = "ckpt";

/// CRC-32 (IEEE 802.3, reflected polynomial) over `bytes`. Hand-rolled
/// bitwise form: the store writes at checkpoint cadence, not per step, so
/// table-free simplicity beats throughput here.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// A parked session as persisted: the engine-level [`SessionCheckpoint`]
/// plus the service-side identity needed to re-admit it — the original
/// submission's id, tenant, and registry names (the spec strings are
/// what [`build_crawler`](mak::spec::build_crawler) and
/// [`apps::build_shared`](mak_websim::apps::build_shared) resolve).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StoredSession {
    /// The service-assigned session id at submission time.
    pub id: SessionId,
    /// The submitting tenant (re-admitted under its current quota).
    pub tenant: String,
    /// The spec's app name (registry key).
    pub app: String,
    /// The spec's crawler name (factory key).
    pub crawler: String,
    /// Whether the submission asked for its JSONL event stream. A
    /// recovered session records from the resume point: its stream is
    /// `SessionResumed` plus the uninterrupted run's suffix.
    pub record_events: bool,
    /// Whether the submission asked for phase spans.
    pub record_spans: bool,
    /// The complete mid-crawl engine state.
    pub checkpoint: SessionCheckpoint,
}

/// Cumulative store counters, mirrored into the service's telemetry as
/// `mak_serve_checkpoint_*` after each drain or recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Checkpoint files durably written.
    pub writes: u64,
    /// Payload bytes across those writes.
    pub bytes: u64,
    /// Sessions successfully restored from disk.
    pub restores: u64,
    /// Files quarantined as corrupt (bad header, CRC, or payload).
    pub corrupt_quarantined: u64,
    /// Writes that failed at the filesystem layer (counted, never fatal
    /// to the session being checkpointed).
    pub write_failures: u64,
}

/// The checkpoint directory plus its counters. Shared across scheduler
/// workers behind an `Arc`; all methods take `&self` and every write
/// touches a distinct per-session file, so no external locking is
/// needed.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    writes: AtomicU64,
    bytes: AtomicU64,
    restores: AtomicU64,
    corrupt: AtomicU64,
    write_failures: AtomicU64,
}

/// One recovery attempt's outcome for a single file.
#[derive(Debug)]
pub enum LoadOutcome {
    /// The file verified and decoded.
    Loaded(Box<StoredSession>),
    /// The file failed verification and now lives in `quarantine/`.
    Quarantined {
        /// The original file name.
        file: String,
        /// What failed.
        reason: String,
    },
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`, including its
    /// `quarantine/` subdirectory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        fs::create_dir_all(dir.join("quarantine"))?;
        Ok(CheckpointStore {
            dir,
            writes: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            restores: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            write_failures: AtomicU64::new(0),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Current counter values.
    pub fn stats(&self) -> CheckpointStats {
        CheckpointStats {
            writes: self.writes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            corrupt_quarantined: self.corrupt.load(Ordering::Relaxed),
            write_failures: self.write_failures.load(Ordering::Relaxed),
        }
    }

    fn file_name(id: SessionId) -> String {
        // Zero-padded so directory order equals id order.
        format!("session-{id:020}.{EXT}")
    }

    /// The live path a session's checkpoint occupies.
    pub fn path_for(&self, id: SessionId) -> PathBuf {
        self.dir.join(Self::file_name(id))
    }

    /// Durably writes `stored`, replacing any previous checkpoint of the
    /// same session. Returns the payload size in bytes.
    ///
    /// # Errors
    ///
    /// Propagates serialization and filesystem failures (also counted in
    /// [`CheckpointStats::write_failures`]).
    pub fn save(&self, stored: &StoredSession) -> io::Result<u64> {
        match self.save_inner(stored) {
            Ok(n) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.bytes.fetch_add(n, Ordering::Relaxed);
                Ok(n)
            }
            Err(e) => {
                self.write_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    fn save_inner(&self, stored: &StoredSession) -> io::Result<u64> {
        let payload = serde_json::to_string(stored).map_err(io::Error::other)?;
        let payload = payload.as_bytes();
        let header = format!("{MAGIC} {STORE_VERSION} {:08x} {}\n", crc32(payload), payload.len());
        let final_path = self.path_for(stored.id);
        let tmp_path = self.dir.join(format!(".{}.tmp", Self::file_name(stored.id)));
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(header.as_bytes())?;
            tmp.write_all(payload)?;
            tmp.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // fsync the directory so the rename itself survives a crash.
        File::open(&self.dir)?.sync_all()?;
        Ok(payload.len() as u64)
    }

    /// Records one successful session restoration. Decoding a file is
    /// not restoring a session — quota-rejected and already-live entries
    /// decode fine but stay parked — so the service calls this only once
    /// a recovered session is actually re-admitted.
    pub fn note_restored(&self) {
        self.restores.fetch_add(1, Ordering::Relaxed);
    }

    /// Quarantines a session's checkpoint that verified on disk but
    /// cannot be rebuilt (its app or crawler left the registry, or the
    /// engine rejected the state). Counted alongside CRC-level
    /// corruption: either way the file is evidence, not state.
    pub fn quarantine(&self, id: SessionId, _reason: &str) {
        let file = Self::file_name(id);
        let _ = fs::rename(self.path_for(id), self.dir.join("quarantine").join(file));
        self.corrupt.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes a session's checkpoint (it completed). Missing files are
    /// fine: a session that finished before its first cadence boundary
    /// never wrote one.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures other than `NotFound`.
    pub fn remove(&self, id: SessionId) -> io::Result<()> {
        match fs::remove_file(self.path_for(id)) {
            Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Verifies and decodes one checkpoint file. Corruption quarantines
    /// the file and reports [`LoadOutcome::Quarantined`]; only
    /// environmental failures (the file vanished, permissions) surface
    /// as errors.
    ///
    /// # Errors
    ///
    /// Propagates filesystem read failures.
    pub fn load_path(&self, path: &Path) -> io::Result<LoadOutcome> {
        let mut raw = Vec::new();
        File::open(path)?.read_to_end(&mut raw)?;
        match Self::decode(&raw) {
            Ok(stored) => Ok(LoadOutcome::Loaded(Box::new(stored))),
            Err(reason) => {
                let file =
                    path.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default();
                // Preserve the evidence; never retry a corrupt file.
                let _ = fs::rename(path, self.dir.join("quarantine").join(&file));
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                Ok(LoadOutcome::Quarantined { file, reason })
            }
        }
    }

    fn decode(raw: &[u8]) -> Result<StoredSession, String> {
        let newline =
            raw.iter().position(|&b| b == b'\n').ok_or_else(|| "missing header".to_owned())?;
        let header =
            std::str::from_utf8(&raw[..newline]).map_err(|_| "non-UTF-8 header".to_owned())?;
        let mut parts = header.split(' ');
        if parts.next() != Some(MAGIC) {
            return Err("bad magic".to_owned());
        }
        let version: u32 =
            parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| "bad version".to_owned())?;
        if version != STORE_VERSION {
            return Err(format!("unsupported store version {version}"));
        }
        let crc_expected = parts
            .next()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| "bad crc field".to_owned())?;
        let len: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "bad length field".to_owned())?;
        if parts.next().is_some() {
            return Err("trailing header fields".to_owned());
        }
        let payload = &raw[newline + 1..];
        if payload.len() != len {
            return Err(format!("truncated payload: {} of {len} bytes", payload.len()));
        }
        let crc_actual = crc32(payload);
        if crc_actual != crc_expected {
            return Err(format!("crc mismatch: {crc_actual:08x} != {crc_expected:08x}"));
        }
        let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_owned())?;
        serde_json::from_str(text).map_err(|e| format!("undecodable payload: {e}"))
    }

    /// Loads every live checkpoint, in session-id (file-name) order.
    /// Corrupt files are quarantined in place and reported alongside the
    /// survivors — one rotten file never aborts a recovery.
    ///
    /// # Errors
    ///
    /// Propagates directory-listing and file-read failures.
    pub fn load_all(&self) -> io::Result<Vec<LoadOutcome>> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.is_file() && p.extension().is_some_and(|e| e == EXT))
            .collect();
        paths.sort();
        paths.iter().map(|p| self.load_path(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak::framework::engine::EngineConfig;
    use mak::framework::session::Session;
    use mak::spec::build_crawler;
    use mak_obs::sink::SinkHandle;
    use mak_websim::apps;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mak-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn stored(id: SessionId) -> StoredSession {
        let cfg = EngineConfig::with_budget_minutes(0.5);
        let mut session = Session::new(
            apps::build("addressbook").unwrap(),
            build_crawler("mak", id).unwrap(),
            &cfg,
            id,
        );
        for _ in 0..3 {
            session.step();
        }
        StoredSession {
            id,
            tenant: "t".into(),
            app: "addressbook".into(),
            crawler: "mak".into(),
            record_events: false,
            record_spans: false,
            checkpoint: session.snapshot().unwrap(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn save_load_round_trips() {
        let dir = tmpdir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let s = stored(7);
        let bytes = store.save(&s).unwrap();
        assert!(bytes > 0);
        let all = store.load_all().unwrap();
        assert_eq!(all.len(), 1);
        match &all[0] {
            LoadOutcome::Loaded(back) => {
                assert_eq!(
                    serde_json::to_string(&**back).unwrap(),
                    serde_json::to_string(&s).unwrap()
                )
            }
            LoadOutcome::Quarantined { reason, .. } => panic!("quarantined: {reason}"),
        }
        let stats = store.stats();
        // Decoding is not restoring: the restore counter moves only when
        // the service re-admits the session.
        assert_eq!((stats.writes, stats.restores, stats.corrupt_quarantined), (1, 0, 0));
        store.note_restored();
        assert_eq!(store.stats().restores, 1);
        assert_eq!(stats.bytes, bytes);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_and_remove_is_idempotent() {
        let dir = tmpdir("rewrite");
        let store = CheckpointStore::open(&dir).unwrap();
        let s = stored(3);
        store.save(&s).unwrap();
        store.save(&s).unwrap();
        assert_eq!(store.load_all().unwrap().len(), 1, "rewrites replace, not accumulate");
        store.remove(3).unwrap();
        store.remove(3).unwrap(); // second remove: file already gone, still Ok
        assert!(store.load_all().unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_quarantined_not_trusted() {
        let dir = tmpdir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        for id in 0..4u64 {
            store.save(&stored(id)).unwrap();
        }
        // Four distinct corruptions: bit-flip in the payload, truncation,
        // a torn header, and garbage.
        let flip = store.path_for(0);
        let mut raw = fs::read(&flip).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x40;
        fs::write(&flip, &raw).unwrap();

        let trunc = store.path_for(1);
        let raw = fs::read(&trunc).unwrap();
        fs::write(&trunc, &raw[..raw.len() / 2]).unwrap();

        fs::write(store.path_for(2), b"makckpt 1 deadbeef").unwrap();

        let all = store.load_all().unwrap();
        let loaded: Vec<_> = all.iter().filter(|o| matches!(o, LoadOutcome::Loaded(_))).collect();
        assert_eq!(loaded.len(), 1, "only the untouched checkpoint survives");
        assert_eq!(store.stats().corrupt_quarantined, 3);
        // The evidence is preserved, not deleted.
        let quarantined = fs::read_dir(dir.join("quarantine")).unwrap().count();
        assert_eq!(quarantined, 3);
        // Quarantine is final: a second scan sees only the good file.
        assert_eq!(store.load_all().unwrap().len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn future_store_versions_are_rejected() {
        let dir = tmpdir("version");
        let store = CheckpointStore::open(&dir).unwrap();
        store.save(&stored(9)).unwrap();
        let path = store.path_for(9);
        let raw = fs::read(&path).unwrap();
        let bumped = String::from_utf8_lossy(&raw).replacen("makckpt 1 ", "makckpt 99 ", 1);
        fs::write(&path, bumped.as_bytes()).unwrap();
        match &store.load_all().unwrap()[0] {
            LoadOutcome::Quarantined { reason, .. } => {
                assert!(reason.contains("version"), "{reason}");
            }
            LoadOutcome::Loaded(_) => panic!("future version must not load"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_bytes_are_deterministic() {
        // Two snapshots of the same run serialize to identical bytes —
        // no map iteration order, wall clock, or address leaks into the
        // payload.
        let a = serde_json::to_string(&stored(5)).unwrap();
        let b = serde_json::to_string(&stored(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn restore_from_disk_continues_bit_identically() {
        let dir = tmpdir("continue");
        let store = CheckpointStore::open(&dir).unwrap();
        let cfg = EngineConfig::with_budget_minutes(0.5);
        let app = apps::build_shared("addressbook").unwrap();
        let uninterrupted =
            Session::with_shared_app(app.clone(), build_crawler("mak", 5).unwrap(), &cfg, 5)
                .finish();
        let mut live =
            Session::with_shared_app(app.clone(), build_crawler("mak", 5).unwrap(), &cfg, 5);
        for _ in 0..4 {
            live.step();
        }
        store
            .save(&StoredSession {
                id: 0,
                tenant: "t".into(),
                app: "addressbook".into(),
                crawler: "mak".into(),
                record_events: false,
                record_spans: false,
                checkpoint: live.snapshot().unwrap(),
            })
            .unwrap();
        drop(live);
        let LoadOutcome::Loaded(back) = store.load_all().unwrap().remove(0) else {
            panic!("checkpoint did not load");
        };
        let resumed = Session::restore(
            app,
            build_crawler(&back.crawler, back.checkpoint.seed).unwrap(),
            &back.checkpoint,
            SinkHandle::none(),
        )
        .unwrap();
        assert_eq!(resumed.finish(), uninterrupted);
        fs::remove_dir_all(&dir).unwrap();
    }
}
