//! Content-addressed on-disk cache of crawl runs.
//!
//! Every run is — by the repository's central invariant — a pure function
//! of `(app, crawler, seed, config)`. The paper's evaluation (§V-A.4) is a
//! grid of such runs, and the bench binaries re-execute overlapping cells
//! of that grid from scratch. A [`RunStore`] memoizes whole
//! [`CrawlReport`]s on disk so the second invocation of any bench binary is
//! near-instant while staying bit-identical to an uncached run.
//!
//! ## Layout
//!
//! One file per cached run under `results/cache/` (override with
//! `MAK_CACHE_DIR`), named
//!
//! ```text
//! <app>__<crawler>__s<seed>__<key>.json
//! ```
//!
//! where `<key>` is a 128-bit FNV-1a hash of the canonical JSON encoding of
//! `(app, crawler, seed, EngineConfig)` — the config embeds the
//! [`CostModel`](mak_browser::cost::CostModel) — mixed with a fingerprint
//! of the workspace's source tree. Changing any config field *or any source
//! file* therefore changes the key and forces re-execution; stale entries
//! are simply never addressed again.
//!
//! Each file holds the run's JSON [`CrawlReport`] behind a length and
//! CRC-32 header ([`mak_obs::frame`]), so a torn write or a flipped bit
//! is a miss, never a different report served as a hit.
//!
//! ## Modes
//!
//! The `MAK_CACHE` environment variable selects a [`CacheMode`]:
//!
//! - `rw` (default) — load hits, execute and store misses;
//! - `ro` — load hits, execute misses without writing;
//! - `off` — execute everything, touch nothing on disk.

use mak::framework::engine::{CrawlReport, EngineConfig};
use mak_obs::frame;
use serde::Serialize;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Default cache directory, relative to the invocation directory (the
/// workspace root for `cargo run`).
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Bumped whenever the on-disk entry format changes incompatibly, so old
/// caches are invalidated instead of misread. Part of every key, so
/// entries of an older schema are never addressed again.
const SCHEMA_VERSION: u32 = 2;

/// Magic token opening every entry's frame header.
const MAGIC: &str = "makcache";

/// What the cache is allowed to do (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Never read or write: every run executes.
    Off,
    /// Read hits, write misses — the default.
    ReadWrite,
    /// Read hits, never write.
    ReadOnly,
}

impl CacheMode {
    /// Parses `MAK_CACHE` (`off` / `rw` / `ro`, default `rw`; unknown
    /// values fall back to the default rather than erroring).
    pub fn from_env() -> Self {
        match std::env::var("MAK_CACHE").as_deref() {
            Ok("off") | Ok("0") | Ok("none") => CacheMode::Off,
            Ok("ro") | Ok("readonly") => CacheMode::ReadOnly,
            _ => CacheMode::ReadWrite,
        }
    }
}

/// 64-bit FNV-1a over a byte stream.
fn fnv1a64(init: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = init;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The standard FNV-1a 64-bit offset basis.
const FNV64_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// 128-bit FNV-1a over a byte stream.
fn fnv1a128(init: u128, bytes: &[u8]) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = init;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The standard FNV-1a 128-bit offset basis.
const FNV128_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;

/// Canonical key material. Serialized with `serde_json` — struct field
/// order is fixed and float formatting is shortest-round-trip, so the
/// encoding (and hence the hash) is stable across processes.
#[derive(Serialize)]
struct KeyMaterial<'a> {
    schema: u32,
    fingerprint: u64,
    app: &'a str,
    crawler: &'a str,
    seed: u64,
    config: &'a EngineConfig,
}

/// Walks `dir` collecting every `.rs` file and `Cargo.toml`, recursively,
/// skipping build artifacts.
fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_sources(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") || name == "Cargo.toml" {
            out.push(path);
        }
    }
}

/// Finds the workspace root by walking up from the current directory
/// looking for a `Cargo.toml` declaring `[workspace]`.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// A fingerprint of the workspace's source tree (every `.rs` and
/// `Cargo.toml` under the workspace root, paths and contents), computed
/// once per process.
///
/// Baked into every cache key so that *any* code change invalidates the
/// whole cache — conservative, but the alternative (trusting stale reports
/// after an engine change) would silently break the determinism invariant.
/// Falls back to a constant when no workspace root is found (e.g. when the
/// library is embedded elsewhere); such users should scope the cache
/// directory themselves.
pub fn workspace_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let Some(root) = find_workspace_root() else { return FNV64_BASIS };
        let mut files = Vec::new();
        collect_sources(&root, &mut files);
        let mut keyed: Vec<(String, PathBuf)> = files
            .into_iter()
            .map(|p| (p.strip_prefix(&root).unwrap_or(&p).display().to_string(), p))
            .collect();
        keyed.sort();
        let mut h = FNV64_BASIS;
        for (rel, path) in keyed {
            h = fnv1a64(h, rel.as_bytes());
            h = fnv1a64(h, &[0]);
            if let Ok(contents) = std::fs::read(&path) {
                h = fnv1a64(h, &contents);
            }
            h = fnv1a64(h, &[0xff]);
        }
        h
    })
}

/// Per-`(app, crawler)` cache accounting (see [`CacheStats::per_pair`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PairStats {
    /// Number of cached run entries for the pair.
    pub entries: usize,
    /// Total size of those entries, in bytes.
    pub bytes: u64,
}

/// Aggregate statistics over a cache directory (see [`RunStore::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of cached run entries.
    pub entries: usize,
    /// Total size of the entries, in bytes.
    pub bytes: u64,
    /// Entry counts and byte totals per `(app, crawler)` pair, in sorted
    /// order.
    pub per_pair: BTreeMap<(String, String), PairStats>,
}

impl CacheStats {
    /// Entry counts *and byte totals* per application.
    pub fn per_app_stats(&self) -> BTreeMap<String, PairStats> {
        let mut out: BTreeMap<String, PairStats> = BTreeMap::new();
        for ((app, _), stats) in &self.per_pair {
            let slot = out.entry(app.clone()).or_default();
            slot.entries += stats.entries;
            slot.bytes += stats.bytes;
        }
        out
    }

    /// Entry counts *and byte totals* per crawler.
    pub fn per_crawler_stats(&self) -> BTreeMap<String, PairStats> {
        let mut out: BTreeMap<String, PairStats> = BTreeMap::new();
        for ((_, crawler), stats) in &self.per_pair {
            let slot = out.entry(crawler.clone()).or_default();
            slot.entries += stats.entries;
            slot.bytes += stats.bytes;
        }
        out
    }
}

/// The content-addressed run cache (see the [module docs](self)).
#[derive(Debug)]
pub struct RunStore {
    root: PathBuf,
    mode: CacheMode,
    fingerprint: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl RunStore {
    /// A store rooted at `root` with the given mode, keyed with the
    /// workspace fingerprint.
    pub fn at(root: impl Into<PathBuf>, mode: CacheMode) -> Self {
        RunStore {
            root: root.into(),
            mode,
            fingerprint: workspace_fingerprint(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
        }
    }

    /// The store implied by the environment: `MAK_CACHE_DIR` (default
    /// [`DEFAULT_CACHE_DIR`]) and `MAK_CACHE` (default `rw`).
    pub fn from_env() -> Self {
        let root = std::env::var("MAK_CACHE_DIR").unwrap_or_else(|_| DEFAULT_CACHE_DIR.to_owned());
        Self::at(root, CacheMode::from_env())
    }

    /// A store that never reads or writes — [`CacheMode::Off`] regardless
    /// of the environment.
    pub fn disabled() -> Self {
        Self::at(DEFAULT_CACHE_DIR, CacheMode::Off)
    }

    /// Overrides the code fingerprint — test hook for simulating a source
    /// change without editing files.
    #[must_use]
    pub fn with_fingerprint(mut self, fingerprint: u64) -> Self {
        self.fingerprint = fingerprint;
        self
    }

    /// The cache directory this store addresses.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The store's mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// The code fingerprint baked into this store's keys.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Cache hits served by this store instance.
    pub fn session_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses recorded by this store instance (lookups that found no
    /// usable entry, including every lookup in [`CacheMode::Off`]).
    pub fn session_misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries this store instance found on disk but could not use —
    /// truncated writes, bit flips, schema drift, or an identity mismatch.
    /// Every one is also a [`session_misses`](Self::session_misses) miss.
    pub fn session_corrupt(&self) -> u64 {
        self.corrupt.load(Ordering::Relaxed)
    }

    /// The content-address of one run cell.
    pub fn key(&self, app: &str, crawler: &str, seed: u64, config: &EngineConfig) -> u128 {
        let material = KeyMaterial {
            schema: SCHEMA_VERSION,
            fingerprint: self.fingerprint,
            app,
            crawler,
            seed,
            config,
        };
        let bytes = serde_json::to_vec(&material).expect("key material serializes");
        fnv1a128(FNV128_BASIS, &bytes)
    }

    fn entry_path(&self, app: &str, crawler: &str, seed: u64, key: u128) -> PathBuf {
        self.root.join(format!("{app}__{crawler}__s{seed}__{key:032x}.json"))
    }

    /// Loads the cached report for a cell, if present and readable.
    ///
    /// Corrupt or mismatched entries — truncated writes, bit flips (both
    /// caught by the frame's length and CRC-32), an entry whose embedded
    /// identity disagrees with its file name — are
    /// treated as misses, never panics: the caller re-executes the run
    /// and the next [`save`](Self::save) overwrites the bad bytes. The
    /// first such entry warns once per process on stderr (gated by
    /// `MAK_LOG`, like all cache chatter); the rest are counted silently
    /// ([`session_corrupt`](Self::session_corrupt)).
    pub fn load(
        &self,
        app: &str,
        crawler: &str,
        seed: u64,
        config: &EngineConfig,
    ) -> Option<CrawlReport> {
        if self.mode == CacheMode::Off {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.entry_path(app, crawler, seed, self.key(app, crawler, seed, config));
        let report = std::fs::read(&path).ok().and_then(|raw| match Self::decode(&raw) {
            Ok(r) if r.app == app && r.crawler == crawler && r.seed == seed => Some(r),
            Ok(r) => {
                self.note_corrupt(
                    &path,
                    &format!("identity mismatch: entry is {}/{}/s{}", r.app, r.crawler, r.seed),
                );
                None
            }
            Err(reason) => {
                self.note_corrupt(&path, &reason);
                None
            }
        });
        if report.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        report
    }

    /// Verifies an entry's frame and parses its report.
    fn decode(raw: &[u8]) -> Result<CrawlReport, String> {
        let payload = frame::decode(MAGIC, SCHEMA_VERSION, raw)?;
        let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_owned())?;
        serde_json::from_str(text).map_err(|e| format!("parse error: {e}"))
    }

    /// Counts one unusable on-disk entry and warns about the first in
    /// the process. One line total, not one per entry: a damaged cache
    /// directory can hold thousands of bad files, and the remedy (let
    /// the runs re-execute, or `mak-cli cache clear`) is the same for
    /// all of them.
    fn note_corrupt(&self, path: &Path, reason: &str) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            mak_obs::progress!(
                "run cache: ignoring corrupt entry {} ({reason}); treating as a miss — \
                 further corrupt entries are counted silently",
                path.display()
            );
        });
    }

    /// Persists a freshly executed report under its cell's key. A no-op
    /// unless the store is [`CacheMode::ReadWrite`]; I/O errors are
    /// reported to stderr but never fail the run (the cache is an
    /// accelerator, not a dependency).
    pub fn save(&self, report: &CrawlReport, config: &EngineConfig) {
        if self.mode != CacheMode::ReadWrite {
            return;
        }
        let key = self.key(&report.app, &report.crawler, report.seed, config);
        let path = self.entry_path(&report.app, &report.crawler, report.seed, key);
        let json = match serde_json::to_string(report) {
            Ok(j) => j,
            Err(e) => {
                mak_obs::progress!("run cache: serialize {}: {e}", path.display());
                return;
            }
        };
        if let Err(e) =
            self.write_atomic(&path, &frame::encode(MAGIC, SCHEMA_VERSION, json.as_bytes()))
        {
            mak_obs::progress!("run cache: write {}: {e}", path.display());
        }
    }

    /// Writes via a unique temporary file plus rename, so concurrent
    /// processes caching the same cell never observe torn entries.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        std::fs::create_dir_all(&self.root)?;
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("entry");
        let tmp = self.root.join(format!(".{file_name}.tmp{}", std::process::id()));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Scans the cache directory and aggregates entry statistics.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        let Ok(entries) = std::fs::read_dir(&self.root) else { return stats };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !name.ends_with(".json") {
                continue;
            }
            let mut parts = name.split("__");
            let (Some(app), Some(crawler)) = (parts.next(), parts.next()) else { continue };
            let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
            stats.entries += 1;
            stats.bytes += bytes;
            let pair = stats.per_pair.entry((app.to_owned(), crawler.to_owned())).or_default();
            pair.entries += 1;
            pair.bytes += bytes;
        }
        stats
    }

    /// Deletes every cached entry, returning how many were removed.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error encountered while deleting.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut removed = 0;
        let entries = match std::fs::read_dir(&self.root) {
            Ok(e) => e,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let is_entry = name.to_str().is_some_and(|n| n.ends_with(".json"));
            if is_entry && entry.path().is_file() {
                std::fs::remove_file(entry.path())?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mak-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_report(seed: u64) -> CrawlReport {
        CrawlReport {
            crawler: "bfs".into(),
            app: "addressbook".into(),
            seed,
            interactions: 42,
            final_lines_covered: 1_000,
            total_declared_lines: 5_000,
            coverage_series: vec![],
            covered_lines: vec![(0, 1), (0, 2)],
            distinct_urls: 7,
            state_count: None,
            elapsed_secs: 59.5,
            trace: vec![],
            faults: Default::default(),
            phase: Default::default(),
        }
    }

    #[test]
    fn keys_are_stable_and_config_sensitive() {
        let store = RunStore::at(tmp_root("keys"), CacheMode::Off);
        let cfg = EngineConfig::with_budget_minutes(1.0);
        assert_eq!(store.key("a", "bfs", 0, &cfg), store.key("a", "bfs", 0, &cfg));
        assert_ne!(store.key("a", "bfs", 0, &cfg), store.key("a", "bfs", 1, &cfg));
        assert_ne!(store.key("a", "bfs", 0, &cfg), store.key("b", "bfs", 0, &cfg));
        let mut cfg2 = cfg.clone();
        cfg2.cost.think_ms += 1.0;
        assert_ne!(store.key("a", "bfs", 0, &cfg), store.key("a", "bfs", 0, &cfg2));
        let fp = RunStore::at(store.root(), CacheMode::Off).with_fingerprint(123);
        assert_ne!(store.key("a", "bfs", 0, &cfg), fp.key("a", "bfs", 0, &cfg));
    }

    #[test]
    fn fault_plans_partition_the_cache() {
        use mak_browser::fault::FaultPlan;
        let clean = EngineConfig::with_budget_minutes(1.0);
        let mut faulty = clean.clone();
        faulty.faults = FaultPlan::profile("moderate").unwrap();

        // The fault plan is part of the cache key…
        let keyed = RunStore::at(tmp_root("fault-keys"), CacheMode::Off);
        assert_ne!(keyed.key("a", "bfs", 0, &clean), keyed.key("a", "bfs", 0, &faulty));
        let mut seeded = clean.clone();
        seeded.faults = FaultPlan::profile("moderate").unwrap();
        seeded.faults.fault_seed = 99;
        assert_ne!(keyed.key("a", "bfs", 0, &faulty), keyed.key("a", "bfs", 0, &seeded));

        // …so a clean-run entry is never served for a faulty config…
        let store = RunStore::at(tmp_root("fault-clean"), CacheMode::ReadWrite);
        store.save(&sample_report(3), &clean);
        assert!(store.load("addressbook", "bfs", 3, &faulty).is_none());
        assert!(store.load("addressbook", "bfs", 3, &clean).is_some());

        // …and a faulty-run entry is never served for a clean config.
        let store = RunStore::at(tmp_root("fault-dirty"), CacheMode::ReadWrite);
        store.save(&sample_report(3), &faulty);
        assert!(store.load("addressbook", "bfs", 3, &clean).is_none());
        assert!(store.load("addressbook", "bfs", 3, &faulty).is_some());
    }

    #[test]
    fn save_load_roundtrip_is_identical() {
        let store = RunStore::at(tmp_root("roundtrip"), CacheMode::ReadWrite);
        let cfg = EngineConfig::with_budget_minutes(1.0);
        let report = sample_report(3);
        assert!(store.load("addressbook", "bfs", 3, &cfg).is_none());
        store.save(&report, &cfg);
        let back = store.load("addressbook", "bfs", 3, &cfg).expect("hit after save");
        assert_eq!(back, report, "cached reload must be field-for-field identical");
        assert_eq!(store.session_hits(), 1);
        assert_eq!(store.session_misses(), 1);
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn off_mode_never_touches_disk() {
        let store = RunStore::at(tmp_root("off"), CacheMode::Off);
        let cfg = EngineConfig::default();
        store.save(&sample_report(0), &cfg);
        assert!(!store.root().exists(), "Off mode must not create the cache dir");
        assert!(store.load("addressbook", "bfs", 0, &cfg).is_none());
        assert_eq!(store.session_misses(), 1);
    }

    #[test]
    fn readonly_mode_reads_but_never_writes() {
        let root = tmp_root("ro");
        let rw = RunStore::at(&root, CacheMode::ReadWrite);
        let cfg = EngineConfig::default();
        rw.save(&sample_report(5), &cfg);
        let ro = RunStore::at(&root, CacheMode::ReadOnly);
        assert!(ro.load("addressbook", "bfs", 5, &cfg).is_some());
        ro.save(&sample_report(6), &cfg);
        assert!(ro.load("addressbook", "bfs", 6, &cfg).is_none(), "ro must not have written");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn corrupt_entries_fall_back_to_miss() {
        let root = tmp_root("corrupt");
        let store = RunStore::at(&root, CacheMode::ReadWrite);
        let cfg = EngineConfig::default();
        let report = sample_report(9);
        store.save(&report, &cfg);
        let key = store.key("addressbook", "bfs", 9, &cfg);
        let path = store.entry_path("addressbook", "bfs", 9, key);
        std::fs::write(&path, "{ not json").expect("corrupt the entry");
        assert!(store.load("addressbook", "bfs", 9, &cfg).is_none());
        assert_eq!(store.session_corrupt(), 1);
        store.save(&report, &cfg); // heals the entry
        assert!(store.load("addressbook", "bfs", 9, &cfg).is_some());
        assert_eq!(store.session_corrupt(), 1, "a healed entry is no longer corrupt");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The disk is not trusted: a write cut short at any byte, a bit
    /// flipped at any byte, or an entry copied over the wrong cell must
    /// each degrade to a counted cache miss — rerun and overwrite — never
    /// a panic and never a wrong report served as a hit.
    #[test]
    fn bit_flipped_and_truncated_entries_degrade_to_misses() {
        let root = tmp_root("bitrot");
        let store = RunStore::at(&root, CacheMode::ReadWrite);
        let cfg = EngineConfig::with_budget_minutes(0.05);
        let report = crate::experiment::run_one("addressbook", "bfs", 1, &cfg);
        store.save(&report, &cfg);
        let path =
            store.entry_path("addressbook", "bfs", 1, store.key("addressbook", "bfs", 1, &cfg));
        let entry = std::fs::read(&path).expect("entry exists");

        // Every byte offset: one truncation there, one XOR-1 flip there.
        let mut damaged = 0;
        for at in 0..entry.len() {
            let mut flipped = entry.clone();
            flipped[at] ^= 0x01;
            for bytes in [&entry[..at], &flipped[..]] {
                std::fs::write(&path, bytes).expect("damage the entry");
                damaged += 1;
                assert!(store.load("addressbook", "bfs", 1, &cfg).is_none(), "byte {at}: a hit");
                assert_eq!(store.session_corrupt(), damaged, "byte {at}: not counted as corrupt");
            }
        }

        // Identity mismatch: a well-formed entry for another cell copied
        // over this cell's file (e.g. a bad manual restore).
        let mut foreign = report.clone();
        foreign.seed = 99;
        store.save(&foreign, &cfg);
        let foreign_path =
            store.entry_path("addressbook", "bfs", 99, store.key("addressbook", "bfs", 99, &cfg));
        std::fs::copy(&foreign_path, &path).expect("swap in foreign entry");
        assert!(store.load("addressbook", "bfs", 1, &cfg).is_none(), "foreign entry is a miss");

        assert_eq!(store.session_corrupt(), damaged + 1);
        assert_eq!(store.session_hits(), 0);
        assert_eq!(store.session_misses(), damaged + 1);

        // Re-saving heals the cell.
        store.save(&report, &cfg);
        assert_eq!(store.load("addressbook", "bfs", 1, &cfg), Some(report));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn stats_and_clear_account_for_entries() {
        let root = tmp_root("stats");
        let store = RunStore::at(&root, CacheMode::ReadWrite);
        let cfg = EngineConfig::default();
        for seed in 0..3 {
            store.save(&sample_report(seed), &cfg);
        }
        let stats = store.stats();
        assert_eq!(stats.entries, 3);
        assert!(stats.bytes > 0);
        let pair = stats.per_pair[&("addressbook".to_owned(), "bfs".to_owned())];
        assert_eq!(pair.entries, 3);
        assert_eq!(pair.bytes, stats.bytes, "single pair owns all bytes");
        assert_eq!(store.clear().expect("clear"), 3);
        assert_eq!(store.stats(), CacheStats::default());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fingerprint_is_stable_within_a_process() {
        assert_eq!(workspace_fingerprint(), workspace_fingerprint());
    }

    #[test]
    fn per_app_and_per_crawler_stats_fold_bytes() {
        let root = tmp_root("dimstats");
        let store = RunStore::at(&root, CacheMode::ReadWrite);
        let cfg = EngineConfig::default();
        for seed in 0..2 {
            store.save(&sample_report(seed), &cfg);
        }
        let mut other = sample_report(0);
        other.app = "vanilla".into();
        other.crawler = "mak".into();
        store.save(&other, &cfg);
        let stats = store.stats();
        let by_app = stats.per_app_stats();
        let by_crawler = stats.per_crawler_stats();
        assert_eq!(by_app["addressbook"].entries, 2);
        assert_eq!(by_app["vanilla"].entries, 1);
        assert_eq!(by_crawler["bfs"].entries, 2);
        assert_eq!(by_crawler["mak"].entries, 1);
        assert!(by_app["addressbook"].bytes > 0);
        assert_eq!(
            by_app.values().map(|s| s.bytes).sum::<u64>(),
            stats.bytes,
            "per-app bytes partition the total"
        );
        assert_eq!(by_crawler.values().map(|s| s.bytes).sum::<u64>(), stats.bytes);
        let _ = std::fs::remove_dir_all(&root);
    }
}
