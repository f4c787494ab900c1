//! # mak-websim — a deterministic web-application simulator
//!
//! This crate is the testbed substrate of the MAK reproduction. The paper
//! ("Less is More: Boosting Coverage of Web Crawling through Adversarial
//! Multi-Armed Bandit", DSN 2025) evaluates crawlers on eleven deployed web
//! applications instrumented with Xdebug / coverage-node. Here, each
//! application is a deterministic in-process program exposing exactly the
//! black-box interface the crawlers assume: a seed URL, HTML documents,
//! interactable elements, sessions, and server-side line coverage.
//!
//! ## Layout
//!
//! - [`url`], [`http`], [`dom`] — the wire- and page-level observables;
//! - [`session`] — server-side state, enabling the paper's shopping-cart
//!   coverage dynamics (§IV-C);
//! - [`coverage`] — Xdebug-style (live) and coverage-node-style (final)
//!   line-coverage instrumentation (§V-A.3);
//! - [`server`] — the [`WebApp`](server::WebApp) trait and
//!   [`AppHost`](server::AppHost) deployment wrapper;
//! - [`apps`] — the blueprint generator plus the eleven application models
//!   of the paper's testbed (§V-A.3).
//!
//! ## Quick start
//!
//! ```
//! use mak_websim::apps;
//! use mak_websim::http::Request;
//! use mak_websim::server::AppHost;
//!
//! let mut host = AppHost::new(apps::build("addressbook").expect("known app"));
//! let seed = host.app().seed_url();
//! let resp = host.fetch(&Request::get(seed));
//! let doc = resp.document().expect("seed page renders");
//! assert!(!doc.interactables().is_empty());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apps;
pub mod audit;
pub mod coverage;
pub mod dom;
pub mod headers;
pub mod http;
pub mod server;
pub mod session;
pub mod url;
pub mod util;

#[cfg(test)]
mod checkpoint_tests {
    use crate::coverage::{Block, CodeModel, CoverageMode, CoverageTracker};
    use crate::session::SessionStore;
    use crate::url::Url;
    use serde::{Deserialize, Serialize};

    /// Encodes `value`, replaces `from` with `to` and returns the decode
    /// error of the corrupted text.
    fn rejection<T: Serialize + Deserialize>(value: &T, from: &str, to: &str) -> String {
        let json = serde_json::to_string(value).unwrap();
        let corrupt = serde_json::from_str::<T>(&json.replacen(from, to, 1));
        corrupt.err().unwrap_or_else(|| panic!("accepted {to}")).to_string()
    }

    #[test]
    fn corrupt_host_checkpoints_are_rejected() {
        let mut model = CodeModel::new();
        let file = model.declare_file("index.php", 70);
        let mut tracker = CoverageTracker::new(&model, CoverageMode::Live);
        tracker.hit(Block { file, start: 1, end: 2 });
        let mut store = SessionStore::new();
        store.create();
        store.create();
        let url: Url = "http://h/p".parse().unwrap();
        let cases = [
            (rejection(&tracker, "[[3,0]]", "[[3]]"), "bitmask shape"),
            (rejection(&tracker, "[70]", "[140]"), "bitmask shape"),
            (rejection(&tracker, r#""covered":2"#, r#""covered":3"#), "coverage count"),
            (rejection(&store, r#""next":2"#, r#""next":1"#), "below `next`"),
            (rejection(&store, "[[0,", "[[1,"), "increasing"),
            (rejection(&url, "http://h", "h"), "URL"),
        ];
        for (err, want) in cases {
            assert!(err.contains(want), "`{err}` should mention `{want}`");
        }
    }
}
