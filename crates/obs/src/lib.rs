//! `mak-obs` — the structured, deterministic observability layer.
//!
//! Every other crate in the workspace emits typed [`Event`]s into an
//! [`EventSink`] instead of printing ad-hoc diagnostics. Three rules keep
//! the layer compatible with the workspace determinism contract
//! (CLAUDE.md):
//!
//! 1. **Events are derived observations.** Emitting an event never
//!    mutates crawl state, draws from a seeded RNG, or advances the
//!    virtual clock; a crawl with a sink attached produces a
//!    [`CrawlReport`] byte-identical to one without (enforced by
//!    `tests/observability.rs`).
//! 2. **Crawls only, virtual time only.** Every event describes one
//!    crawl and carries virtual-clock milliseconds, never wall time, so a
//!    JSONL stream is bit-identical across reruns and thread counts.
//!    Harness cost (run-cache lookups, per-cell wall time) is not an
//!    event: the matrix runner returns it as plain data.
//! 3. **No-op by default, lazy when attached.** [`sink::SinkHandle`]
//!    defaults to inert; `emit_with` takes a closure so event
//!    construction (string formatting, prob-vector clones) is skipped
//!    entirely when no sink listens.
//!
//! Modules: [`event`] (the taxonomy), [`sink`] (the trait, the handle, and
//! JSONL/Vec sinks), [`span`] (spans and the [`PhaseTotals`] budget
//! attribution), [`trace`] (streaming JSONL readback and stream diffing),
//! [`flight`] (the flight recorder, the one fold from events to an
//! analysis), [`perfetto`] (span export), [`logger`] (the `MAK_LOG` stderr
//! logger), [`frame`] (the CRC-32 file framing of the on-disk stores).
//!
//! [`Event`]: event::Event
//! [`EventSink`]: sink::EventSink
//! [`CrawlReport`]: https://docs.rs/ (see `mak::framework::engine`)

pub mod event;
pub mod flight;
pub mod frame;
pub mod logger;
pub mod perfetto;
pub mod sink;
pub mod span;
pub mod trace;

pub use event::Event;
pub use flight::{FlightRecorder, FlightReport};
pub use sink::{EventSink, JsonlSink, SinkHandle, VecSink};
pub use span::{Phase, PhaseTotals, SpanToken};
pub use trace::{first_divergence, Divergence, TraceIter};
