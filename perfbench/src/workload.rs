//! The workloads: what each one submits, generated from the seed.

use crate::stats::mix;
use mak::framework::engine::EngineConfig;
use mak::spec::CRAWLER_NAMES;
use mak_websim::apps;

/// A closed batch of crawl sessions, run one way or another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every app × every crawler × a few seeds, 30 virtual minutes each,
    /// one session at a time on one thread.
    CrawlMatrix,
    /// Thousands of concurrent short sessions through `CrawlService`.
    ServeFleet,
}

/// Seeds per `(app, crawler)` pair in one `crawl_matrix` round.
pub const MATRIX_SEEDS: u64 = 2;
/// Sessions in one `serve_fleet` round.
pub const FLEET_SESSIONS: u64 = 20_000;
/// Worker threads of `serve_fleet`, set explicitly so the
/// environment (`MAK_THREADS`) cannot change the workload.
pub const SERVE_WORKERS: usize = 2;
/// Every n-th serve session is also run directly, as an output check and
/// as the traced run's per-step sample.
pub const SAMPLE_EVERY: usize = 10;
/// The seed whose per-session outcomes are committed under `expected/`.
pub const DEFAULT_SEED: u64 = 1;

/// The existing `mak-bench serve` mix.
const SERVE_APPS: [&str; 3] = ["addressbook", "vanilla", "phpbb2"];
const FLEET_CRAWLERS: [&str; 3] = ["mak", "bfs", "random"];

/// One session to run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// Application name.
    pub app: &'static str,
    /// Crawler name.
    pub crawler: &'static str,
    /// The session's seed, derived from the workload seed.
    pub seed: u64,
}

impl Workload {
    /// Every workload the command runs, as `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::CrawlMatrix, Workload::ServeFleet];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CrawlMatrix => "crawl_matrix",
            Workload::ServeFleet => "serve_fleet",
        }
    }

    /// Why the workload exists, in one line.
    pub fn why(self) -> &'static str {
        match self {
            Workload::CrawlMatrix => {
                "11 apps x 6 crawlers x 2 seeds, 30 virtual minutes each, one at a time: \
                 per-step websim and crawler policy cost, the paper-reproduction path"
            }
            Workload::ServeFleet => {
                "20000 concurrent 0.5-minute sessions on 2 workers: session set-up, finish, \
                 dispatch and memory held per session outweigh per-step work"
            }
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine configuration every session of the workload runs under.
    pub fn engine(self) -> EngineConfig {
        EngineConfig::with_budget_minutes(match self {
            Workload::CrawlMatrix => 30.0,
            Workload::ServeFleet => 0.5,
        })
    }

    /// Worker threads the workload runs its sessions on.
    pub fn workers(self) -> usize {
        match self {
            Workload::CrawlMatrix => 1,
            Workload::ServeFleet => SERVE_WORKERS,
        }
    }

    /// The workload's sessions, in submission order; a pure function of
    /// `seed`.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::CrawlMatrix => (0..MATRIX_SEEDS)
                .flat_map(|k| {
                    let seed = mix(seed, k);
                    apps::all_names().into_iter().flat_map(move |app| {
                        CRAWLER_NAMES.iter().map(move |&crawler| Spec { app, crawler, seed })
                    })
                })
                .collect(),
            Workload::ServeFleet => (0..FLEET_SESSIONS)
                .map(|i| Spec {
                    app: SERVE_APPS[(i % 3) as usize],
                    crawler: FLEET_CRAWLERS[((i / 3) % 3) as usize],
                    seed: mix(seed, i),
                })
                .collect(),
        }
    }

    /// Whether session `index` is in the directly-run sample of
    /// `serve_fleet`; every session of `crawl_matrix` runs directly.
    pub fn sampled(self, index: usize) -> bool {
        self == Workload::CrawlMatrix || index.is_multiple_of(SAMPLE_EVERY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_specs_other_seed_other_specs() {
        for w in Workload::ALL {
            assert_eq!(w.specs(7), w.specs(7), "{}", w.name());
            assert_ne!(w.specs(7), w.specs(8), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::CrawlMatrix.specs(1).len(), 11 * 6 * MATRIX_SEEDS as usize);
        assert_eq!(Workload::ServeFleet.specs(1).len(), FLEET_SESSIONS as usize);
        assert_eq!(Workload::parse("cache_hit"), None);
    }

    #[test]
    fn same_seed_same_outcomes() {
        use mak::framework::session::Session;
        let run = |spec: &Spec| {
            let app = apps::build_shared(spec.app).unwrap();
            let crawler = mak::spec::build_crawler(spec.crawler, spec.seed).unwrap();
            Session::with_shared_app(app, crawler, &Workload::ServeFleet.engine(), spec.seed)
                .finish()
        };
        for spec in &Workload::ServeFleet.specs(7)[..3] {
            assert_eq!(run(spec), run(spec), "{spec:?}");
        }
    }

    #[test]
    fn the_fleet_mix_covers_its_crawlers_evenly() {
        let fleet = Workload::ServeFleet.specs(3);
        for crawler in FLEET_CRAWLERS {
            let n = fleet.iter().filter(|s| s.crawler == crawler).count();
            assert!(n.abs_diff(fleet.len() / 3) <= 3, "{crawler}: {n}");
        }
    }
}
