//! # mak-telemetry — a deterministic metrics registry
//!
//! The serving layer (`mak-serve`) multiplexes a hundred thousand crawl
//! sessions over a work-stealing scheduler. It needs cumulative counters
//! — "how many sessions did tenant X finish", "how much virtual time did
//! fault backoff burn" — and lives under the repository's central
//! invariant: results are pure functions of `(app, crawler, seed,
//! config)`.
//!
//! This crate therefore splits every metric into one of two **clock
//! domains**:
//!
//! - [`Domain::Virtual`] — quantities derived from session *outcomes*
//!   (steps, interactions, coverage, faults, quota decisions). Folded in
//!   a deterministic order — the serving layer merges per-worker results
//!   in session-id order — these snapshots are **bit-identical** across
//!   `MAK_THREADS`, scheduler disciplines, and reruns, and may be diffed
//!   byte-for-byte in CI.
//! - [`Domain::Wall`] — host-time quantities (step latency, drain
//!   durations, steal counts, queue depths). Machine- and
//!   schedule-dependent; excluded from deterministic artifacts by
//!   [`MetricsRegistry::snapshot_virtual`].
//!
//! The registry offers three metric kinds — monotone counters, gauges,
//! and fixed-bucket histograms — each labeled by an ordered label set
//! (tenant, app, crawler, …). Snapshots render as Prometheus text
//! exposition ([`MetricsSnapshot::to_prometheus`]) or a JSON document
//! ([`MetricsSnapshot::to_json`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod prometheus;
pub mod registry;
pub mod snapshot;

pub use registry::{Domain, HistogramValue, MetricKind, MetricsRegistry};
pub use snapshot::{FamilySnapshot, Label, MetricsSnapshot, SampleSnapshot};
