//! # mak-metrics — measurement and experiment harness
//!
//! Everything the paper's evaluation (§V) needs on the measurement side:
//!
//! - [`stats`] — mean / standard-deviation helpers for aggregating runs;
//! - [`timeseries`] — resampling and aggregation of the live coverage
//!   curves plotted in Fig. 2;
//! - [`ground_truth`] — the union ground-truth estimation of §V-B: "the
//!   union of the unique lines of code covered by all crawlers, across all
//!   runs, for each application";
//! - [`regret`] — the §V-C ablation metric: per-application regret against
//!   the best crawler and its cumulative sum;
//! - [`experiment`] — the run matrix executor (apps × crawlers × seeds,
//!   multithreaded, deterministic per seed);
//! - [`store`] — the content-addressed on-disk run cache that makes
//!   repeated matrix executions incremental (`MAK_CACHE`);
//! - [`report`] — markdown/CSV rendering and JSON persistence of results;
//! - [`flight`] — markdown and SVG rendering of a flight report, the
//!   analysis of one run's event stream.
//!
//! ## Example: a miniature Table II
//!
//! ```no_run
//! use mak_metrics::experiment::{run_matrix, RunMatrix};
//! use mak_metrics::ground_truth::UnionCoverage;
//!
//! let matrix = RunMatrix::new(["addressbook"], ["mak", "webexplor"], 3);
//! let reports = run_matrix(&matrix, 4);
//! let union = UnionCoverage::from_reports(reports.iter().filter(|r| r.app == "addressbook"));
//! println!("union ground truth: {} lines", union.len());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiment;
pub mod flight;
pub mod ground_truth;
pub mod plot;
pub mod regret;
pub mod report;
pub mod stats;
pub mod store;
pub mod timeseries;
