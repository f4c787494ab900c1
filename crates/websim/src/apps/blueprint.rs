//! A generator DSL for simulated web applications.
//!
//! Real web applications are assemblies of *modules* — the paper explicitly
//! leans on this (§IV-D: "modern web applications are often modular,
//! comprising components that act as smaller web applications that benefit
//! from distinct navigation strategies", citing Flask blueprints). The
//! [`Blueprint`] builder composes an application out of modules with
//! different topologies and behaviours, compiling them into a routable,
//! coverage-instrumented [`BlueprintApp`].
//!
//! The module kinds encode the structural patterns the paper's analysis
//! depends on:
//!
//! - [`ModuleKind::Hub`] / [`ModuleKind::Tree`] — breadth-friendly regions;
//! - [`ModuleKind::Chain`] — depth-friendly regions (later pages carry more
//!   code, like multi-step wizards);
//! - [`ModuleKind::ParamDispatch`] — one endpoint serving different content
//!   per query-parameter value (Matomo's `module=` pattern, §III-A);
//! - [`ModuleKind::Aliased`] — multiple URLs for the same page via redundant
//!   query parameters (HotCRP's `r`/`m` links, Fig. 1 top);
//! - [`ModuleKind::MutatingTrap`] — a page whose element list grows on every
//!   interaction with links that only trigger navigation errors (Drupal's
//!   shortcut page, Fig. 1 bottom);
//! - [`ModuleKind::NoopSearch`] — a read-only search endpoint whose results
//!   never change (the WordPress search critique, §III-B);
//! - [`ModuleKind::StatefulFlow`] — a button that executes *new* server code
//!   only after other actions changed session state (the shopping-cart
//!   example, §IV-C);
//! - [`ModuleKind::ContentCreation`] — forms that create new pages/links
//!   (forum posts), bounded by a maximum;
//! - [`ModuleKind::Pagination`] — long chains of near-empty pages (archive
//!   pagination), a coverage trap for depth-first strategies;
//! - [`ModuleKind::FormBranches`] — input-dependent validation branches,
//!   the per-run-incompleteness source behind the §V-B union ground truth;
//! - [`ModuleKind::AuthArea`] — a login-gated area behind demo credentials.
//!
//! Builder-level features add shortlink redirects
//! ([`Blueprint::redirect_links`]) and deterministic transient failures
//! ([`Blueprint::flaky_every`]).

use crate::coverage::{Block, CodeModel, CoverageMode, FileId};
use crate::dom::{Document, Element, Tag};
use crate::http::{Method, Request, Response, Status};
use crate::server::{RequestCtx, WebApp};
use crate::url::Url;
use crate::util::{det_range, hash_str};
use std::collections::HashMap;

/// The behaviour and topology of one application module.
#[derive(Debug, Clone)]
pub enum ModuleKind {
    /// Page 0 is a hub linking to every other page; pages link back.
    Hub,
    /// Page `i` links to page `i + 1`; block sizes grow with depth.
    Chain,
    /// Heap-shaped tree with the given branching factor.
    Tree {
        /// Children per page.
        branching: usize,
    },
    /// All pages share one path and are selected by a query parameter
    /// (Matomo-style `index.php?module=X`).
    ParamDispatch {
        /// The dispatching parameter name.
        param: String,
    },
    /// Tree of branching 3 whose inbound links carry redundant query
    /// parameters, so each page is reachable under several distinct URLs.
    Aliased {
        /// Number of distinct alias URLs per page.
        aliases: usize,
    },
    /// Chain of pages with tiny blocks (archive pagination).
    Pagination,
    /// One page with a form that appends a broken link on every submission.
    MutatingTrap {
        /// Maximum number of broken links the page will accumulate.
        max_links: usize,
    },
    /// One page with a search form; results are identical for every query.
    NoopSearch,
    /// One page with an "add" button and an "action" button; the action
    /// button unlocks a new code block per accumulated session item.
    StatefulFlow {
        /// Number of distinct unlockable stages.
        stages: usize,
    },
    /// One page with a creation form; each submission adds a linked item
    /// page, up to a bound.
    ContentCreation {
        /// Maximum number of creatable items.
        max_items: usize,
    },
    /// One page with a form whose handler takes one of several
    /// input-dependent validation branches per submission. A single run
    /// only ever exercises a few branches, while the union over many runs
    /// and crawlers accumulates all of them — the main reason the paper's
    /// per-run coverage sits below the union ground truth even on small
    /// applications (§V-B).
    FormBranches {
        /// Number of distinct validation branches.
        branches: usize,
    },
    /// A login-gated area: page 0 is a login form; the remaining pages
    /// redirect to it until the session authenticates. The testbed's demo
    /// deployments use fixed demo credentials, so the unified framework's
    /// standard password fill succeeds — mirroring how the paper's setup
    /// crawls applications like HotCRP "with a reviewer logged in".
    AuthArea,
}

/// Specification of one module before compilation.
#[derive(Debug, Clone)]
pub struct ModuleSpec {
    name: String,
    kind: ModuleKind,
    pages: usize,
    lines_per_page: u32,
    labels: Vec<String>,
}

impl ModuleSpec {
    /// Creates a module with `pages` pages averaging `lines_per_page` lines
    /// of handler code each.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero.
    pub fn new(
        name: impl Into<String>,
        kind: ModuleKind,
        pages: usize,
        lines_per_page: u32,
    ) -> Self {
        assert!(pages > 0, "modules must have at least one page");
        ModuleSpec { name: name.into(), kind, pages, lines_per_page, labels: Vec::new() }
    }

    /// Provides human-readable page labels (used as dispatch values and
    /// titles), e.g. Matomo's real module names.
    #[must_use]
    pub fn labels(mut self, labels: impl IntoIterator<Item = impl Into<String>>) -> Self {
        self.labels = labels.into_iter().map(Into::into).collect();
        self
    }

    fn label(&self, i: usize) -> String {
        self.labels.get(i).cloned().unwrap_or_else(|| format!("{}{}", self.name, i))
    }
}

/// Builder for a [`BlueprintApp`]. See the [module docs](self) for the
/// vocabulary of module kinds.
///
/// # Examples
///
/// ```
/// use mak_websim::apps::blueprint::{Blueprint, ModuleKind, ModuleSpec};
/// use mak_websim::coverage::CoverageMode;
///
/// let app = Blueprint::new("mini", "mini.local")
///     .coverage_mode(CoverageMode::Live)
///     .bootstrap_lines(40)
///     .module(ModuleSpec::new("blog", ModuleKind::Hub, 10, 50))
///     .module(ModuleSpec::new("wizard", ModuleKind::Chain, 5, 80))
///     .build();
/// assert!(app.page_count() >= 15);
/// ```
#[derive(Debug)]
pub struct Blueprint {
    name: String,
    host: String,
    mode: CoverageMode,
    latency_ms: f64,
    bootstrap_lines: u32,
    dead_lines: u32,
    cross_links: usize,
    external_links: usize,
    shared_ratio: f64,
    redirect_links: usize,
    flaky_every: Option<u64>,
    modules: Vec<ModuleSpec>,
}

impl Blueprint {
    /// Starts a blueprint for an app called `name` served from `host`.
    pub fn new(name: impl Into<String>, host: impl Into<String>) -> Self {
        Blueprint {
            name: name.into(),
            host: host.into(),
            mode: CoverageMode::Live,
            latency_ms: 300.0,
            bootstrap_lines: 50,
            dead_lines: 0,
            cross_links: 0,
            external_links: 0,
            shared_ratio: 1.0,
            redirect_links: 0,
            flaky_every: None,
            modules: Vec::new(),
        }
    }

    /// Adds `n` shortlinks (`/r/<k>`) to the home page, each answering with
    /// an HTTP 302 to a content page — WordPress-style `?p=` permalink
    /// redirects. Exercises the browser's redirect handling and adds yet
    /// another URL-aliasing flavor.
    #[must_use]
    pub fn redirect_links(mut self, n: usize) -> Self {
        self.redirect_links = n;
        self
    }

    /// Makes every `n`-th request fail with a 500 error page — transient
    /// server failures that real crawls encounter and must survive.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` (every request failing would make the app
    /// uncrawlable).
    #[must_use]
    pub fn flaky_every(mut self, n: u64) -> Self {
        assert!(n >= 2, "flaky_every needs n >= 2");
        self.flaky_every = Some(n);
        self
    }

    /// Sets how much shared controller/template code each module carries,
    /// as a multiple of the module's summed per-page lines. Framework-heavy
    /// systems (Drupal) sit high; template-light sites sit low. Shared code
    /// is covered as soon as *any* page of the module is visited, which is
    /// what keeps coverage gaps between crawlers at realistic magnitudes.
    #[must_use]
    pub fn shared_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=4.0).contains(&ratio), "shared ratio out of range");
        self.shared_ratio = ratio;
        self
    }

    /// Sets the coverage observation mode (PHP apps: live, Node apps: final).
    #[must_use]
    pub fn coverage_mode(mut self, mode: CoverageMode) -> Self {
        self.mode = mode;
        self
    }

    /// Sets the base page-load latency in virtual milliseconds.
    #[must_use]
    pub fn latency_ms(mut self, ms: f64) -> Self {
        self.latency_ms = ms;
        self
    }

    /// Sets the number of framework lines executed on every request.
    #[must_use]
    pub fn bootstrap_lines(mut self, lines: u32) -> Self {
        self.bootstrap_lines = lines;
        self
    }

    /// Declares lines that no request can ever execute (dead branches,
    /// unused vendored code). Only affects the denominator reported by
    /// final-mode coverage, as with coverage-node.
    #[must_use]
    pub fn dead_lines(mut self, lines: u32) -> Self {
        self.dead_lines = lines;
        self
    }

    /// Adds `n` deterministic cross-module links to enrich the page graph.
    #[must_use]
    pub fn cross_links(mut self, n: usize) -> Self {
        self.cross_links = n;
        self
    }

    /// Adds `n` links to external domains on the home page; crawlers must
    /// treat them as invalid (§V-A assumption ii).
    #[must_use]
    pub fn external_links(mut self, n: usize) -> Self {
        self.external_links = n;
        self
    }

    /// Adds a module.
    #[must_use]
    pub fn module(mut self, spec: ModuleSpec) -> Self {
        self.modules.push(spec);
        self
    }

    /// Compiles the blueprint into a servable application.
    ///
    /// # Panics
    ///
    /// Panics if two modules share a name.
    pub fn build(self) -> BlueprintApp {
        Compiler::new(self).compile()
    }
}

#[derive(Debug, Clone)]
enum Widget {
    Search {
        handler: Block,
        results: Vec<usize>,
    },
    Trap {
        handler: Block,
        max_links: usize,
    },
    Flow {
        add_block: Block,
        empty_block: Block,
        stages: Vec<Block>,
        key: String,
    },
    Create {
        create_block: Block,
        view_block: Block,
        item_blocks: Vec<Block>,
        key: String,
        max: usize,
    },
    Branches {
        handler: Block,
        blocks: Vec<Block>,
    },
    Login {
        handler: Block,
        key: String,
        area: Vec<usize>,
    },
}

#[derive(Debug, Clone)]
struct Page {
    /// Canonical path (no host).
    path: String,
    /// Canonical query parameters.
    query: Vec<(String, String)>,
    title: String,
    base: Block,
    /// The module's shared controller/template code, executed by every page
    /// of the module.
    shared: Option<Block>,
    /// Outgoing links as page indices.
    links: Vec<usize>,
    /// Extra query decorations per outgoing link occurrence (aliases).
    alias_decor: Vec<(usize, String, String)>,
    widget: Option<Widget>,
    /// `(session key, login page index)`: the page redirects to the login
    /// page until the session variable is set.
    auth: Option<(String, usize)>,
}

/// A compiled, servable application. Obtained from [`Blueprint::build`];
/// implements [`WebApp`].
#[derive(Debug)]
pub struct BlueprintApp {
    name: String,
    host: String,
    mode: CoverageMode,
    latency_ms: f64,
    model: CodeModel,
    bootstrap: Block,
    error_block: Block,
    pages: Vec<Page>,
    routes: HashMap<String, usize>,
    dispatch_params: Vec<String>,
    nav_entries: Vec<usize>,
    external_links: usize,
    redirect_links: usize,
    flaky_every: Option<u64>,
    /// Per-page render cache for **static** (widget-less) pages: the DOM of
    /// such a page is a pure function of the compiled blueprint, so it is
    /// rendered once and re-served under each request's URL
    /// ([`Document::reissue`]). Coverage side effects still run per request
    /// in [`BlueprintApp::render_page`]. Interior mutability because
    /// [`WebApp::handle`] takes `&self`; `OnceLock` because app models
    /// are shared across scheduler worker threads (`WebApp: Send + Sync`);
    /// a racing double-init renders the same pure value twice.
    render_cache: Vec<std::sync::OnceLock<Document>>,
    /// Same idea for pages **with** a widget: the static prefix (nav bar,
    /// heading, link list) is built once and deep-cloned per request, which
    /// is cheaper than re-deriving every URL string; the widget then
    /// appends its dynamic elements.
    widget_body_cache: Vec<std::sync::OnceLock<Element>>,
}

struct Compiler {
    bp: Blueprint,
    model: CodeModel,
    pages: Vec<Page>,
    routes: HashMap<String, usize>,
    dispatch_params: Vec<String>,
    nav_entries: Vec<usize>,
}

struct FileAlloc {
    file: FileId,
    cursor: u32,
    capacity: u32,
}

impl FileAlloc {
    fn alloc(&mut self, len: u32) -> Block {
        assert!(
            self.cursor + len - 1 <= self.capacity,
            "file allocation overflow: cursor={} len={} cap={}",
            self.cursor,
            len,
            self.capacity
        );
        let b = Block { file: self.file, start: self.cursor, end: self.cursor + len - 1 };
        self.cursor += len;
        b
    }
}

impl Compiler {
    fn new(bp: Blueprint) -> Self {
        Compiler {
            bp,
            model: CodeModel::new(),
            pages: Vec::new(),
            routes: HashMap::new(),
            dispatch_params: Vec::new(),
            nav_entries: Vec::new(),
        }
    }

    fn compile(mut self) -> BlueprintApp {
        let seed = hash_str(&self.bp.name);

        // Framework bootstrap + error handler live in a synthetic index file.
        let boot_lines = self.bp.bootstrap_lines.max(1);
        let index_file = self.model.declare_file("index.php", boot_lines + 30);
        let bootstrap = Block { file: index_file, start: 1, end: boot_lines };
        let error_block = Block { file: index_file, start: boot_lines + 1, end: boot_lines + 30 };

        // Home page gets a small dedicated file.
        let home_file = self.model.declare_file("home.php", 40);
        let home = Page {
            path: "/".to_owned(),
            query: Vec::new(),
            title: format!("{} — home", self.bp.name),
            base: Block { file: home_file, start: 1, end: 40 },
            shared: None,
            links: Vec::new(),
            alias_decor: Vec::new(),
            widget: None,
            auth: None,
        };
        self.pages.push(home);
        self.routes.insert("/".to_owned(), 0);

        let modules = std::mem::take(&mut self.bp.modules);
        {
            let mut seen = std::collections::HashSet::new();
            for m in &modules {
                assert!(seen.insert(m.name.clone()), "duplicate module name {}", m.name);
            }
        }
        for spec in &modules {
            self.compile_module(spec, seed);
        }

        // Deterministic cross-module links.
        let n_pages = self.pages.len();
        for k in 0..self.bp.cross_links {
            if n_pages < 3 {
                break;
            }
            let src = 1 + (det_range(seed, "xsrc", k as u64, 0, (n_pages - 2) as u32) as usize);
            let dst = 1 + (det_range(seed, "xdst", k as u64, 0, (n_pages - 2) as u32) as usize);
            if src != dst && !self.pages[src].links.contains(&dst) {
                self.pages[src].links.push(dst);
            }
        }

        if self.bp.dead_lines > 0 {
            self.model.declare_file("vendor/bundle.js", self.bp.dead_lines);
        }

        let page_count = self.pages.len();
        BlueprintApp {
            name: self.bp.name,
            host: self.bp.host,
            mode: self.bp.mode,
            latency_ms: self.bp.latency_ms,
            model: self.model,
            bootstrap,
            error_block,
            pages: self.pages,
            routes: self.routes,
            dispatch_params: self.dispatch_params,
            nav_entries: self.nav_entries,
            external_links: self.bp.external_links,
            redirect_links: self.bp.redirect_links,
            flaky_every: self.bp.flaky_every,
            render_cache: (0..page_count).map(|_| std::sync::OnceLock::new()).collect(),
            widget_body_cache: (0..page_count).map(|_| std::sync::OnceLock::new()).collect(),
        }
    }

    /// Size of page `i` of `spec`, deterministically jittered in
    /// `[0.5, 1.5] * lines_per_page`, shaped by topology:
    ///
    /// - chains (wizards) *grow* with depth — finishing a flow pays off,
    ///   which is what makes some applications DFS-friendly;
    /// - trees *shrink* with depth — section/listing pages run more
    ///   controller code than leaf detail pages, so depth-first dives into
    ///   leaves are poor value;
    /// - pagination pages are always tiny (the archive trap).
    fn page_lines(spec: &ModuleSpec, seed: u64, i: usize) -> u32 {
        let mean = spec.lines_per_page.max(2);
        let jitter =
            det_range(seed ^ hash_str(&spec.name), "lines", i as u64, mean / 2, mean + mean / 2);
        match spec.kind {
            ModuleKind::Chain => jitter + (mean * i as u32) / (spec.pages.max(1) as u32),
            ModuleKind::Pagination => 3,
            ModuleKind::Tree { branching } | ModuleKind::Aliased { aliases: branching } => {
                // For `Aliased` the link topology is a fixed ternary tree
                // (see `compile_module`), so depth is computed with b = 3.
                let b = if matches!(spec.kind, ModuleKind::Aliased { .. }) { 3 } else { branching }
                    .max(2);
                let depth = {
                    let mut d = 0u32;
                    let mut j = i;
                    while j > 0 {
                        j = (j - 1) / b;
                        d += 1;
                    }
                    d
                };
                let max_depth = {
                    let mut d = 0u32;
                    let mut j = spec.pages.saturating_sub(1);
                    while j > 0 {
                        j = (j - 1) / b;
                        d += 1;
                    }
                    d.max(1)
                };
                // Scale from 140% at the root down to ~50% at the deepest
                // leaves.
                let scale = 140 - (90 * depth) / max_depth;
                (jitter * scale / 100).max(2)
            }
            _ => jitter,
        }
    }

    fn compile_module(&mut self, spec: &ModuleSpec, seed: u64) {
        // Pre-compute the file size needed for the module's blocks.
        let page_total: u32 = (0..spec.pages).map(|i| Self::page_lines(spec, seed, i)).sum();
        // Shared controller/template code: every page of the module executes
        // it, so touching a module at all covers a sizable chunk — the
        // code-sharing real frameworks exhibit, which keeps coverage gaps
        // between crawlers at realistic (single-digit percent) magnitudes.
        let shared_lines = ((page_total as f64 * self.bp.shared_ratio) as u32).max(10);
        let widget_extra: u32 = match &spec.kind {
            ModuleKind::NoopSearch => 25,
            ModuleKind::MutatingTrap { .. } => 20,
            ModuleKind::StatefulFlow { stages } => 15 + 20 + (*stages as u32) * spec.lines_per_page,
            ModuleKind::ContentCreation { max_items } => 30 + 20 + (*max_items as u32) * 4,
            ModuleKind::FormBranches { branches } => 15 + (*branches as u32) * spec.lines_per_page,
            ModuleKind::AuthArea => 20,
            _ => 0,
        };
        let capacity = page_total + shared_lines + widget_extra;
        let file = self.model.declare_file(format!("modules/{}.php", spec.name), capacity);
        let mut alloc = FileAlloc { file, cursor: 1, capacity };
        let shared = alloc.alloc(shared_lines);

        let first_idx = self.pages.len();
        for i in 0..spec.pages {
            let base = alloc.alloc(Self::page_lines(spec, seed, i));
            let (path, query) = self.page_address(spec, i);
            let page = Page {
                path,
                query,
                title: format!("{} — {}", self.bp.name, spec.label(i)),
                base,
                shared: Some(shared),
                links: Vec::new(),
                alias_decor: Vec::new(),
                widget: None,
                auth: None,
            };
            let idx = self.pages.len();
            let key = route_key_parts(&page.path, &page.query, &self.dispatch_params_with(spec));
            self.pages.push(page);
            self.routes.insert(key, idx);
        }

        // Register dispatch param after addressing (addresses computed above
        // already include it for ParamDispatch modules).
        if let ModuleKind::ParamDispatch { param } = &spec.kind {
            if !self.dispatch_params.contains(param) {
                self.dispatch_params.push(param.clone());
                // Re-key the module's routes now that the param is global.
                for idx in first_idx..self.pages.len() {
                    let page = &self.pages[idx];
                    let key = route_key_parts(&page.path, &page.query, &self.dispatch_params);
                    self.routes.insert(key, idx);
                }
            }
        }

        // Topology: intra-module links.
        let n = spec.pages;
        match &spec.kind {
            ModuleKind::Hub | ModuleKind::ParamDispatch { .. } => {
                for i in 1..n {
                    self.pages[first_idx].links.push(first_idx + i);
                    self.pages[first_idx + i].links.push(first_idx);
                }
            }
            ModuleKind::Chain => {
                for i in 0..n.saturating_sub(1) {
                    self.pages[first_idx + i].links.push(first_idx + i + 1);
                }
            }
            ModuleKind::Pagination => {
                // Real pagination bars link several pages ahead ("2 3 4 »"),
                // so every archive visit floods the *newest* end of a
                // crawler's frontier with more near-empty pages — the trap
                // that drowns depth-first strategies.
                for i in 0..n {
                    for ahead in 1..=3 {
                        if i + ahead < n {
                            self.pages[first_idx + i].links.push(first_idx + i + ahead);
                        }
                    }
                }
            }
            ModuleKind::Tree { branching } => {
                let b = (*branching).max(1);
                for i in 0..n {
                    for c in 1..=b {
                        let child = i * b + c;
                        if child < n {
                            self.pages[first_idx + i].links.push(first_idx + child);
                        }
                    }
                }
            }
            ModuleKind::Aliased { aliases } => {
                let b = 3usize;
                let alias_names = ["r", "m", "ref", "cap"];
                for i in 0..n {
                    for c in 1..=b {
                        let child = i * b + c;
                        if child < n {
                            let dst = first_idx + child;
                            let src = first_idx + i;
                            self.pages[src].links.push(dst);
                            // Additional alias links to the same child with
                            // redundant query parameters (HotCRP r/m).
                            for a in 1..*aliases {
                                self.pages[src].links.push(dst);
                                let pname = alias_names[a % alias_names.len()];
                                let pval = format!(
                                    "{}",
                                    det_range(
                                        seed,
                                        "alias",
                                        (i * 131 + child * 7 + a) as u64,
                                        1,
                                        97
                                    )
                                );
                                let occurrence = self.pages[src].links.len() - 1;
                                self.pages[src].alias_decor.push((
                                    occurrence,
                                    pname.to_owned(),
                                    pval,
                                ));
                            }
                        }
                    }
                }
            }
            ModuleKind::NoopSearch => {
                // Search results link back to a fixed set of earlier pages.
                let results: Vec<usize> =
                    (0..3).map(|k| (k * 7 + 1) % self.pages.len().max(1)).collect();
                let handler = alloc.alloc(25);
                self.pages[first_idx].widget = Some(Widget::Search { handler, results });
            }
            ModuleKind::MutatingTrap { max_links } => {
                let handler = alloc.alloc(20);
                self.pages[first_idx].widget =
                    Some(Widget::Trap { handler, max_links: *max_links });
            }
            ModuleKind::StatefulFlow { stages } => {
                let add_block = alloc.alloc(15);
                let empty_block = alloc.alloc(20);
                let stage_blocks =
                    (0..*stages).map(|_| alloc.alloc(spec.lines_per_page.max(2))).collect();
                self.pages[first_idx].widget = Some(Widget::Flow {
                    add_block,
                    empty_block,
                    stages: stage_blocks,
                    key: format!("{}_count", spec.name),
                });
            }
            ModuleKind::ContentCreation { max_items } => {
                let create_block = alloc.alloc(30);
                let view_block = alloc.alloc(20);
                let item_blocks = (0..*max_items).map(|_| alloc.alloc(4)).collect();
                self.pages[first_idx].widget = Some(Widget::Create {
                    create_block,
                    view_block,
                    item_blocks,
                    key: format!("{}_items", spec.name),
                    max: *max_items,
                });
            }
            ModuleKind::FormBranches { branches } => {
                let handler = alloc.alloc(15);
                let blocks =
                    (0..*branches).map(|_| alloc.alloc(spec.lines_per_page.max(2))).collect();
                self.pages[first_idx].widget = Some(Widget::Branches { handler, blocks });
            }
            ModuleKind::AuthArea => {
                // Page 0 is the login form; the rest form the gated area,
                // chained for some depth. Area pages carry the auth gate.
                let handler = alloc.alloc(20);
                let key = format!("{}_authed", spec.name);
                let area: Vec<usize> = (1..n).map(|i| first_idx + i).collect();
                self.pages[first_idx].widget =
                    Some(Widget::Login { handler, key: key.clone(), area });
                for i in 1..n {
                    self.pages[first_idx + i].auth = Some((key.clone(), first_idx));
                    if i + 1 < n {
                        self.pages[first_idx + i].links.push(first_idx + i + 1);
                    }
                }
            }
        }

        // Related-content links: listing pages link to a couple of sibling
        // pages within the module, as "related"/"recent" widgets do. This
        // keeps the content-to-navigation link ratio realistic.
        if n >= 4 {
            let related = matches!(
                spec.kind,
                ModuleKind::Hub
                    | ModuleKind::Tree { .. }
                    | ModuleKind::Aliased { .. }
                    | ModuleKind::ParamDispatch { .. }
            );
            if related {
                // Hub children carry more related links than tree leaves:
                // real listing/detail pages cross-link densely (tags,
                // "recent", "see also"), which is what makes content pages
                // link-rich and keeps link coverage positively correlated
                // with code coverage (§IV-C) — junk pagination pages stay
                // link-poor.
                let per_page: u64 = match spec.kind {
                    ModuleKind::Hub | ModuleKind::ParamDispatch { .. } => 4,
                    _ => 2,
                };
                let mseed = seed ^ hash_str(&spec.name);
                for i in 0..n {
                    for k in 0..per_page {
                        let j = det_range(mseed, "rel", i as u64 * per_page + k, 0, (n - 1) as u32)
                            as usize;
                        let (src, dst) = (first_idx + i, first_idx + j);
                        if i != j && !self.pages[src].links.contains(&dst) {
                            self.pages[src].links.push(dst);
                        }
                    }
                }
            }
        }

        // Hook the module entry into the home page / navigation.
        self.pages[0].links.push(first_idx);
        self.nav_entries.push(first_idx);
    }

    fn dispatch_params_with(&self, spec: &ModuleSpec) -> Vec<String> {
        let mut params = self.dispatch_params.clone();
        if let ModuleKind::ParamDispatch { param } = &spec.kind {
            if !params.contains(param) {
                params.push(param.clone());
            }
        }
        params
    }

    fn page_address(&self, spec: &ModuleSpec, i: usize) -> (String, Vec<(String, String)>) {
        match &spec.kind {
            ModuleKind::ParamDispatch { param } => {
                ("/index.php".to_owned(), vec![(param.clone(), spec.label(i))])
            }
            ModuleKind::NoopSearch
            | ModuleKind::MutatingTrap { .. }
            | ModuleKind::StatefulFlow { .. }
            | ModuleKind::ContentCreation { .. }
            | ModuleKind::FormBranches { .. } => (format!("/{}", spec.name), Vec::new()),
            _ => (format!("/{}/p{}", spec.name, i), Vec::new()),
        }
    }
}

fn route_key_parts(path: &str, query: &[(String, String)], dispatch_params: &[String]) -> String {
    let mut key = path.to_owned();
    let mut dispatch: Vec<(&str, &str)> = query
        .iter()
        .filter(|(k, _)| dispatch_params.iter().any(|d| d == k))
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    dispatch.sort();
    for (k, v) in dispatch {
        key.push_str("::");
        key.push_str(k);
        key.push('=');
        key.push_str(v);
    }
    key
}

impl BlueprintApp {
    /// Number of routable pages (excluding dynamically created item views).
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The canonical URL of page `idx`.
    fn page_url(&self, idx: usize) -> Url {
        let page = &self.pages[idx];
        let mut url = Url::new(self.host.clone(), page.path.clone());
        for (k, v) in &page.query {
            url = url.with_query(k.clone(), v.clone());
        }
        url
    }

    fn route(&self, req: &Request) -> Option<usize> {
        let key = route_key_parts(req.url.path(), req.url.query(), &self.dispatch_params);
        self.routes.get(&key).copied()
    }

    fn nav_bar(&self) -> Element {
        // Real sites keep the global menu short; deeper sections are only
        // reachable through content links (the home page lists everything).
        const NAV_LIMIT: usize = 4;
        let mut nav =
            Element::new(Tag::Nav).child(Element::new(Tag::A).attr("href", "/").text("Home"));
        for &entry in self.nav_entries.iter().take(NAV_LIMIT) {
            let url = self.page_url(entry);
            nav = nav.child(
                Element::new(Tag::A)
                    .attr("href", url.to_string())
                    .text(self.pages[entry].title.clone()),
            );
        }
        nav
    }

    /// The static prefix every render of page `idx` starts from: nav bar,
    /// heading, the home page's external/shortcut links, and the outgoing
    /// link list. Depends only on the compiled blueprint — every `href` it
    /// emits is absolute or path-absolute, which is what makes the cached
    /// render of [`Self::render_page`] independent of the request URL.
    fn build_body(&self, idx: usize) -> Element {
        let page = &self.pages[idx];
        let mut body = Element::new(Tag::Body).child(self.nav_bar());
        body = body.child(Element::new(Tag::H1).text(page.title.clone()));

        if idx == 0 {
            for e in 0..self.external_links {
                body = body.child(
                    Element::new(Tag::A)
                        .attr("href", format!("http://partner{e}.example/promo"))
                        .text("partner"),
                );
            }
            for k in 0..self.redirect_links {
                body = body
                    .child(Element::new(Tag::A).attr("href", format!("/r/{k}")).text("shortlink"));
            }
        }

        let mut list = Element::new(Tag::Ul);
        for (occurrence, &dst) in page.links.iter().enumerate() {
            let mut url = self.page_url(dst);
            for (occ, k, v) in &page.alias_decor {
                if *occ == occurrence {
                    url = url.with_query(k.clone(), v.clone());
                }
            }
            list = list.child(
                Element::new(Tag::Li).child(
                    Element::new(Tag::A)
                        .attr("href", url.to_string())
                        .text(self.pages[dst].title.clone()),
                ),
            );
        }
        body.child(list)
    }

    /// The render-cached document of static page `idx`, as
    /// [`Self::render_page`] caches it.
    fn static_document(&self, idx: usize) -> Document {
        Document::new(self.page_url(idx), self.pages[idx].title.clone(), self.build_body(idx))
            .with_shared_cache()
    }

    fn render_page(&self, idx: usize, req: &Request, ctx: &mut RequestCtx<'_>) -> Response {
        let page = &self.pages[idx];
        // Access control runs before the page's own code: unauthenticated
        // requests bounce to the login page without covering gated blocks.
        if let Some((key, login_idx)) = &page.auth {
            if ctx.session().get(key) == 0 {
                return Response::redirect(self.page_url(*login_idx));
            }
        }
        // Coverage side effects are per-request and never cached.
        if let Some(shared) = page.shared {
            ctx.execute(shared);
        }
        ctx.execute(page.base);

        let Some(widget) = &page.widget else {
            // Static page: render once, re-serve under the request URL.
            let proto = self.render_cache[idx].get_or_init(|| self.static_document(idx));
            return Response::html(proto.reissue(req.url.clone()));
        };
        let prefix = self.widget_body_cache[idx].get_or_init(|| self.build_body(idx)).clone();
        let body = self.render_widget(idx, widget, req, ctx, prefix);
        Response::html(Document::new(req.url.clone(), page.title.clone(), body))
    }

    fn render_widget(
        &self,
        idx: usize,
        widget: &Widget,
        req: &Request,
        ctx: &mut RequestCtx<'_>,
        mut body: Element,
    ) -> Element {
        let page = &self.pages[idx];
        match widget {
            Widget::Search { handler, results } => {
                if let Some(q) = req.param("q") {
                    // Executing a search covers the (small) search handler;
                    // results are the same regardless of the query string —
                    // the WordPress no-op search of §III-B. The query text is
                    // echoed into the page, the classic reflected-parameter
                    // sink black-box scanners look for.
                    ctx.execute(*handler);
                    let mut ul = Element::new(Tag::Ul);
                    for &r in results {
                        let url = self.page_url(r.min(self.pages.len() - 1));
                        ul = ul.child(Element::new(Tag::Li).child(
                            Element::new(Tag::A).attr("href", url.to_string()).text("result"),
                        ));
                    }
                    body = body
                        .child(Element::new(Tag::H2).text(format!("Results for {q}")))
                        .child(ul);
                }
                body.child(
                    Element::new(Tag::Form)
                        .attr("action", page.path.clone())
                        .attr("method", "get")
                        .attr("name", "search")
                        .child(Element::new(Tag::Input).attr("type", "text").attr("name", "q")),
                )
            }
            Widget::Trap { handler, max_links } => {
                if req.method == Method::Post && req.form_value("title").is_some() {
                    ctx.execute(*handler);
                    let sess = ctx.session();
                    if sess.list("trap_links").len() < *max_links {
                        let n = sess.list("trap_links").len();
                        sess.push("trap_links", format!("s{n}"));
                    }
                }
                let items: Vec<String> = ctx.session().list("trap_links").to_vec();
                let mut ul = Element::new(Tag::Ul);
                for item in &items {
                    // Broken shortcut links: arbitrary strings that trigger
                    // navigation errors (Fig. 1 bottom).
                    ul = ul.child(
                        Element::new(Tag::Li).child(
                            Element::new(Tag::A)
                                .attr("href", format!("{}/go/{item}", page.path))
                                .text(item.clone()),
                        ),
                    );
                }
                body.child(ul).child(
                    Element::new(Tag::Form)
                        .attr("action", page.path.clone())
                        .attr("method", "post")
                        .attr("name", "add-shortcut")
                        .child(Element::new(Tag::Input).attr("type", "text").attr("name", "title")),
                )
            }
            Widget::Flow { add_block, empty_block, stages, key } => {
                match req.param("act") {
                    Some("add") if req.method == Method::Post => {
                        ctx.execute(*add_block);
                        let key = key.clone();
                        ctx.session().add(key, 1);
                    }
                    Some("buy") if req.method == Method::Post => {
                        let count = ctx.session().get(key);
                        if count == 0 {
                            // Checkout with an empty cart: error path only.
                            ctx.execute(*empty_block);
                        } else {
                            // Each accumulated item unlocks the next stage of
                            // the purchase pipeline (§IV-C example).
                            let stage = ((count - 1) as usize).min(stages.len() - 1);
                            for block in &stages[..=stage] {
                                ctx.execute(*block);
                            }
                        }
                    }
                    _ => {}
                }
                let count = ctx.session().get(key);
                body.child(Element::new(Tag::P).text(format!("items: {count}")))
                    .child(
                        Element::new(Tag::Button)
                            .attr("name", "add")
                            .attr("formaction", format!("{}?act=add", page.path))
                            .text("Add item"),
                    )
                    .child(
                        Element::new(Tag::Button)
                            .attr("name", "buy")
                            .attr("formaction", format!("{}?act=buy", page.path))
                            .text("Checkout"),
                    )
            }
            Widget::Create { create_block, view_block, item_blocks, key, max } => {
                if req.method == Method::Post && req.form_value("title").is_some() {
                    let count = ctx.session().list(key).len();
                    if count < *max {
                        ctx.execute(*create_block);
                        let key2 = key.clone();
                        let title = req.form_value("title").unwrap_or("item").to_owned();
                        ctx.session().push(key2, title);
                    }
                }
                if let Some(id) = req.param("id") {
                    if let Ok(i) = id.parse::<usize>() {
                        if i < ctx.session().list(key).len() {
                            ctx.execute(*view_block);
                            if let Some(b) = item_blocks.get(i) {
                                ctx.execute(*b);
                            }
                        }
                    }
                }
                let count = ctx.session().list(key).len();
                let mut ul = Element::new(Tag::Ul);
                for i in 0..count {
                    ul = ul.child(
                        Element::new(Tag::Li).child(
                            Element::new(Tag::A)
                                .attr("href", format!("{}?id={i}", page.path))
                                .text(format!("item {i}")),
                        ),
                    );
                }
                body.child(ul).child(
                    Element::new(Tag::Form)
                        .attr("action", page.path.clone())
                        .attr("method", "post")
                        .attr("name", "create")
                        .child(Element::new(Tag::Input).attr("type", "text").attr("name", "title"))
                        .child(Element::new(Tag::Textarea).attr("name", "bodytext")),
                )
            }
            Widget::Login { handler, key, area } => {
                if req.method == Method::Post && req.form_value("password").is_some() {
                    // Demo credentials: any non-empty password logs in (the
                    // testbed deployments ship fixed demo accounts).
                    ctx.execute(*handler);
                    let key2 = key.clone();
                    ctx.session().set(key2, 1);
                }
                if ctx.session().get(key) != 0 {
                    let mut ul = Element::new(Tag::Ul);
                    for &dst in area {
                        let url = self.page_url(dst);
                        ul = ul.child(
                            Element::new(Tag::Li).child(
                                Element::new(Tag::A)
                                    .attr("href", url.to_string())
                                    .text(self.pages[dst].title.clone()),
                            ),
                        );
                    }
                    body.child(Element::new(Tag::H2).text("Members area")).child(ul)
                } else {
                    body.child(
                        Element::new(Tag::Form)
                            .attr("action", page.path.clone())
                            .attr("method", "post")
                            .attr("name", "login")
                            .child(
                                Element::new(Tag::Input).attr("type", "text").attr("name", "user"),
                            )
                            .child(
                                Element::new(Tag::Input)
                                    .attr("type", "password")
                                    .attr("name", "password"),
                            ),
                    )
                }
            }
            Widget::Branches { handler, blocks } => {
                let mut echoed: Option<String> = None;
                if req.method == Method::Post {
                    if let Some(data) = req.form_value("data") {
                        ctx.execute(*handler);
                        // The validation branch taken depends on the
                        // submitted input: each submission exercises one of
                        // the branches, so exhausting them requires many
                        // differently-filled submissions.
                        let idx = (hash_str(data) % blocks.len() as u64) as usize;
                        ctx.execute(blocks[idx]);
                        if idx == 0 {
                            // The "invalid input" branch echoes the value in
                            // its error message — a reflected sink.
                            echoed = Some(format!("invalid value: {data}"));
                        }
                    }
                }
                if let Some(msg) = echoed {
                    body = body.child(Element::new(Tag::P).text(msg));
                }
                body.child(
                    Element::new(Tag::Form)
                        .attr("action", page.path.clone())
                        .attr("method", "post")
                        .attr("name", "validated")
                        .child(Element::new(Tag::Input).attr("type", "text").attr("name", "data")),
                )
            }
        }
    }

    fn server_error_page(&self, req: &Request, ctx: &mut RequestCtx<'_>) -> Response {
        ctx.execute(self.error_block);
        let body = Element::new(Tag::Body)
            .child(Element::new(Tag::H1).text("Internal server error"))
            .child(Element::new(Tag::A).attr("href", "/").text("Back home"));
        let doc = Document::new(req.url.clone(), "500", body);
        Response { status: Status::ServerError, body: crate::http::Body::Html(doc), session: None }
    }

    fn error_page(&self, req: &Request, ctx: &mut RequestCtx<'_>) -> Response {
        ctx.execute(self.error_block);
        let body = Element::new(Tag::Body)
            .child(Element::new(Tag::H1).text("Not found"))
            .child(Element::new(Tag::A).attr("href", "/").text("Back home"));
        let doc = Document::new(req.url.clone(), "404", body);
        Response { status: Status::NotFound, body: crate::http::Body::Html(doc), session: None }
    }
}

impl WebApp for BlueprintApp {
    fn name(&self) -> &str {
        &self.name
    }

    fn seed_url(&self) -> Url {
        Url::new(self.host.clone(), "/")
    }

    fn code_model(&self) -> &CodeModel {
        &self.model
    }

    fn coverage_mode(&self) -> CoverageMode {
        self.mode
    }

    fn base_latency_ms(&self) -> f64 {
        self.latency_ms
    }

    fn handle(&self, req: &Request, ctx: &mut RequestCtx<'_>) -> Response {
        // Deterministic transient failure: every n-th request 500s before
        // reaching any application code beyond the front controller.
        if let Some(n) = self.flaky_every {
            if ctx.request_index().is_multiple_of(n) {
                ctx.execute(self.bootstrap);
                return self.server_error_page(req, ctx);
            }
        }
        ctx.execute(self.bootstrap);
        // Shortlinks: /r/<k> issues a 302 to a content page.
        if let Some(k) = req.url.path().strip_prefix("/r/").and_then(|k| k.parse::<usize>().ok()) {
            if k < self.redirect_links && self.pages.len() > 1 {
                let target = 1 + (k * 13 + 3) % (self.pages.len() - 1);
                return Response::redirect(self.page_url(target));
            }
            return self.error_page(req, ctx);
        }
        match self.route(req) {
            Some(idx) => self.render_page(idx, req, ctx),
            None => self.error_page(req, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::Interactable;
    use crate::server::AppHost;

    fn mini() -> BlueprintApp {
        Blueprint::new("mini", "mini.local")
            .bootstrap_lines(10)
            .module(ModuleSpec::new("hub", ModuleKind::Hub, 5, 20))
            .module(ModuleSpec::new("chain", ModuleKind::Chain, 4, 20))
            .module(ModuleSpec::new(
                "disp",
                ModuleKind::ParamDispatch { param: "module".into() },
                3,
                20,
            ))
            .module(ModuleSpec::new("alias", ModuleKind::Aliased { aliases: 2 }, 4, 20))
            .module(ModuleSpec::new("search", ModuleKind::NoopSearch, 1, 20))
            .module(ModuleSpec::new("trap", ModuleKind::MutatingTrap { max_links: 5 }, 1, 20))
            .module(ModuleSpec::new("cart", ModuleKind::StatefulFlow { stages: 3 }, 1, 20))
            .module(ModuleSpec::new("forum", ModuleKind::ContentCreation { max_items: 4 }, 1, 20))
            .external_links(2)
            .cross_links(3)
            .build()
    }

    fn get(host: &mut AppHost, url: &str) -> Response {
        let mut req = Request::get(url.parse().unwrap());
        req.session = Some(crate::http::SessionId(0));
        host.fetch(&req)
    }

    #[test]
    fn home_links_to_modules() {
        let mut host = AppHost::new(Box::new(mini()));
        let resp = host.fetch(&Request::get("http://mini.local/".parse().unwrap()));
        let doc = resp.document().unwrap();
        let links: Vec<_> = doc
            .interactables()
            .into_iter()
            .filter(|i| matches!(i, Interactable::Link { .. }))
            .collect();
        assert!(links.len() >= 8, "home should link to all modules, got {}", links.len());
    }

    #[test]
    fn unknown_route_is_error_page_with_home_link() {
        let mut host = AppHost::new(Box::new(mini()));
        let resp = get(&mut host, "http://mini.local/definitely/missing");
        assert_eq!(resp.status, Status::NotFound);
        let doc = resp.document().unwrap();
        assert_eq!(doc.interactables().len(), 1);
    }

    #[test]
    fn dispatch_param_selects_page() {
        let mut host = AppHost::new(Box::new(mini()));
        let a = get(&mut host, "http://mini.local/index.php?module=disp1");
        let b = get(&mut host, "http://mini.local/index.php?module=disp2");
        assert_eq!(a.status, Status::Ok);
        assert_eq!(b.status, Status::Ok);
        assert_ne!(a.document().unwrap().title(), b.document().unwrap().title());
    }

    #[test]
    fn dispatch_with_unknown_value_errors() {
        let mut host = AppHost::new(Box::new(mini()));
        let resp = get(&mut host, "http://mini.local/index.php?module=nope");
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn aliased_links_reach_same_page() {
        let app = mini();
        let mut host = AppHost::new(Box::new(app));
        let hub = get(&mut host, "http://mini.local/alias/p0");
        let doc = hub.document().unwrap();
        let links: Vec<Url> = doc
            .interactables()
            .into_iter()
            .filter_map(|i| match i {
                Interactable::Link { href, .. } if href.path().starts_with("/alias/p") => {
                    Some(href)
                }
                _ => None,
            })
            .collect();
        assert!(links.len() >= 4, "expected alias duplicates, got {links:?}");
        // Find two links sharing a path but differing as raw URLs: the alias
        // pair. They must resolve to the same page (title equality).
        let pair = links
            .iter()
            .enumerate()
            .find_map(|(i, a)| {
                links[i + 1..]
                    .iter()
                    .find(|b| b.path() == a.path() && b.to_string() != a.to_string())
                    .map(|b| (a.clone(), b.clone()))
            })
            .expect("an alias pair exists");
        let t1 = get(&mut host, &pair.0.to_string());
        let t2 = get(&mut host, &pair.1.to_string());
        assert_eq!(
            t1.document().unwrap().title(),
            t2.document().unwrap().title(),
            "alias URLs serve the same page"
        );
    }

    #[test]
    fn search_is_noop_across_queries() {
        let mut host = AppHost::new(Box::new(mini()));
        let r1 = get(&mut host, "http://mini.local/search?q=alpha");
        let covered_after_first = host.harness_lines_covered();
        let r2 = get(&mut host, "http://mini.local/search?q=beta");
        let covered_after_second = host.harness_lines_covered();
        assert_eq!(covered_after_first, covered_after_second, "second search adds no coverage");
        // Results are structurally identical.
        let links = |r: &Response| {
            r.document()
                .unwrap()
                .interactables()
                .iter()
                .map(Interactable::signature)
                .collect::<Vec<_>>()
        };
        assert_eq!(links(&r1), links(&r2));
    }

    #[test]
    fn trap_grows_element_list_with_broken_links() {
        let mut host = AppHost::new(Box::new(mini()));
        let before = get(&mut host, "http://mini.local/trap");
        let count_before = before.document().unwrap().interactables().len();
        let mut post = Request::post(
            "http://mini.local/trap".parse().unwrap(),
            vec![("title".into(), "x".into())],
        );
        post.session = Some(crate::http::SessionId(0));
        let after = host.fetch(&post);
        let count_after = after.document().unwrap().interactables().len();
        assert_eq!(count_after, count_before + 1, "one broken link added");
        // The broken link 404s.
        let broken = get(&mut host, "http://mini.local/trap/go/s0");
        assert_eq!(broken.status, Status::NotFound);
    }

    #[test]
    fn trap_is_bounded() {
        let mut host = AppHost::new(Box::new(mini()));
        for _ in 0..10 {
            let mut post = Request::post(
                "http://mini.local/trap".parse().unwrap(),
                vec![("title".into(), "x".into())],
            );
            post.session = Some(crate::http::SessionId(0));
            host.fetch(&post);
        }
        let page = get(&mut host, "http://mini.local/trap");
        let n_links = page
            .document()
            .unwrap()
            .interactables()
            .iter()
            .filter(
                |i| matches!(i, Interactable::Link { href, .. } if href.path().contains("/go/")),
            )
            .count();
        assert_eq!(n_links, 5, "trap bounded at max_links");
    }

    #[test]
    fn cart_unlocks_stages_progressively() {
        let mut host = AppHost::new(Box::new(mini()));
        get(&mut host, "http://mini.local/cart");
        let base = host.harness_lines_covered();

        let buy = |host: &mut AppHost| {
            let mut r = Request::post("http://mini.local/cart?act=buy".parse().unwrap(), vec![]);
            r.session = Some(crate::http::SessionId(0));
            host.fetch(&r);
        };
        let add = |host: &mut AppHost| {
            let mut r = Request::post("http://mini.local/cart?act=add".parse().unwrap(), vec![]);
            r.session = Some(crate::http::SessionId(0));
            host.fetch(&r);
        };

        buy(&mut host); // empty cart: error block
        let after_empty_buy = host.harness_lines_covered();
        assert!(after_empty_buy > base);

        add(&mut host);
        buy(&mut host); // stage 0
        let after_first = host.harness_lines_covered();
        assert!(after_first > after_empty_buy, "first real checkout unlocks stage code");

        buy(&mut host); // same stage again: no new lines
        assert_eq!(host.harness_lines_covered(), after_first);

        add(&mut host);
        buy(&mut host); // stage 1: new lines again — the §IV-C dynamics
        assert!(host.harness_lines_covered() > after_first);
    }

    #[test]
    fn content_creation_adds_item_pages() {
        let mut host = AppHost::new(Box::new(mini()));
        let mut post = Request::post(
            "http://mini.local/forum".parse().unwrap(),
            vec![("title".into(), "hello".into())],
        );
        post.session = Some(crate::http::SessionId(0));
        let resp = host.fetch(&post);
        let doc = resp.document().unwrap();
        assert!(doc.interactables().iter().any(
            |i| matches!(i, Interactable::Link { href, .. } if href.query_value("id") == Some("0"))
        ));
        let item = get(&mut host, "http://mini.local/forum?id=0");
        assert_eq!(item.status, Status::Ok);
        // Out-of-range item id covers nothing extra but still renders.
        let before = host.harness_lines_covered();
        get(&mut host, "http://mini.local/forum?id=99");
        assert_eq!(host.harness_lines_covered(), before);
    }

    #[test]
    fn external_links_present_on_home() {
        let mut host = AppHost::new(Box::new(mini()));
        let resp = host.fetch(&Request::get("http://mini.local/".parse().unwrap()));
        let doc = resp.document().unwrap();
        let external = doc
            .interactables()
            .iter()
            .filter(|i| !i.target_url().same_origin(&"http://mini.local/".parse().unwrap()))
            .count();
        assert_eq!(external, 2);
    }

    #[test]
    fn build_is_deterministic() {
        let a = mini();
        let b = mini();
        assert_eq!(a.page_count(), b.page_count());
        assert_eq!(a.code_model().total_lines(), b.code_model().total_lines());
        for i in 0..a.page_count() {
            assert_eq!(a.page_url(i), b.page_url(i));
        }
    }

    #[test]
    fn pagination_pages_are_tiny() {
        let app = Blueprint::new("pg", "pg.local")
            .module(ModuleSpec::new("arch", ModuleKind::Pagination, 50, 100))
            .build();
        // 50 pages * 3 lines (+ shared margin) + bootstrap/home overhead.
        let module_lines: u64 = 150;
        assert!(app.code_model().total_lines() < module_lines + 400);
    }

    #[test]
    #[should_panic(expected = "duplicate module name")]
    fn duplicate_module_names_panic() {
        let _ = Blueprint::new("x", "x.local")
            .module(ModuleSpec::new("a", ModuleKind::Hub, 2, 10))
            .module(ModuleSpec::new("a", ModuleKind::Chain, 2, 10))
            .build();
    }

    #[test]
    fn cached_pages_memoize_the_keys_crawlers_derive() {
        use crate::apps;
        use crate::util::hash_str;
        let models = [
            apps::addressbook(),
            apps::drupal(),
            apps::hotcrp(),
            apps::matomo(),
            apps::oscommerce2(),
            apps::phpbb2(),
            apps::vanilla(),
            apps::wordpress(),
            apps::actual(),
            apps::docmost(),
            apps::retroboard(),
        ];
        assert_eq!(models.len(), apps::all_names().len());
        for app in &models {
            let mut checked = 0;
            for idx in (0..app.pages.len()).filter(|&i| app.pages[i].widget.is_none()) {
                let shared = app.static_document(idx).shared_cache();
                assert!(shared.is_render_cached());
                let els = shared.interactables();
                let hashes: Vec<u64> = els.iter().map(Interactable::signature_hash).collect();
                assert_eq!(shared.signature_hashes(), hashes.as_slice(), "{} page {idx}", app.name);
                // The string QExplore's state abstraction used to build
                // and hash on every step.
                let repr: String = els.iter().map(|el| el.attribute_values() + "\n").collect();
                assert_eq!(shared.attribute_hash(), hash_str(&repr), "{} page {idx}", app.name);
                checked += 1;
            }
            assert!(checked > 0, "{} has static pages", app.name);
        }
    }

    fn gated() -> BlueprintApp {
        Blueprint::new("gated", "gated.local")
            .bootstrap_lines(10)
            .module(ModuleSpec::new("pub", ModuleKind::Hub, 4, 20))
            .module(ModuleSpec::new("members", ModuleKind::AuthArea, 5, 30))
            .redirect_links(3)
            .build()
    }

    #[test]
    fn auth_area_redirects_until_login() {
        let mut host = AppHost::new(Box::new(gated()));
        // Establish a session first.
        let first = host.fetch(&Request::get("http://gated.local/".parse().unwrap()));
        let sid = first.session.unwrap();
        let with_session = |host: &mut AppHost, req: Request| {
            let mut req = req;
            req.session = Some(sid);
            host.fetch(&req)
        };

        // Gated page bounces to the login page.
        let resp =
            with_session(&mut host, Request::get("http://gated.local/members/p2".parse().unwrap()));
        assert_eq!(resp.status, Status::Found);
        let crate::http::Body::Redirect(loc) = &resp.body else { panic!("expected redirect") };
        assert_eq!(loc.path(), "/members/p0");
        let covered_before = host.harness_lines_covered();

        // Login with the demo password.
        let login = with_session(
            &mut host,
            Request::post(
                "http://gated.local/members/p0".parse().unwrap(),
                vec![("user".into(), "demo".into()), ("password".into(), "password123".into())],
            ),
        );
        let doc = login.document().unwrap();
        assert!(
            doc.interactables().iter().any(
                |i| matches!(i, Interactable::Link { href, .. } if href.path() == "/members/p2")
            ),
            "members area links appear after login"
        );

        // The gated page now renders and covers new code.
        let resp =
            with_session(&mut host, Request::get("http://gated.local/members/p2".parse().unwrap()));
        assert_eq!(resp.status, Status::Ok);
        assert!(host.harness_lines_covered() > covered_before, "gated code only runs after login");
    }

    #[test]
    fn auth_gate_is_per_session() {
        let mut host = AppHost::new(Box::new(gated()));
        // Session A logs in.
        let a = host.fetch(&Request::get("http://gated.local/".parse().unwrap())).session.unwrap();
        let mut login = Request::post(
            "http://gated.local/members/p0".parse().unwrap(),
            vec![("password".into(), "x".into())],
        );
        login.session = Some(a);
        host.fetch(&login);
        // Session B is still locked out.
        let b = host.fetch(&Request::get("http://gated.local/".parse().unwrap())).session.unwrap();
        assert_ne!(a, b);
        let mut req = Request::get("http://gated.local/members/p2".parse().unwrap());
        req.session = Some(b);
        assert_eq!(host.fetch(&req).status, Status::Found, "other sessions stay gated");
    }

    #[test]
    fn shortlinks_redirect_to_content() {
        let mut host = AppHost::new(Box::new(gated()));
        let home = host.fetch(&Request::get("http://gated.local/".parse().unwrap()));
        let shortlinks = home
            .document()
            .unwrap()
            .interactables()
            .iter()
            .filter(|i| i.target_url().path().starts_with("/r/"))
            .count();
        assert_eq!(shortlinks, 3);
        let resp = host.fetch(&Request::get("http://gated.local/r/0".parse().unwrap()));
        assert_eq!(resp.status, Status::Found);
        // Out-of-range shortlinks 404.
        let resp = host.fetch(&Request::get("http://gated.local/r/99".parse().unwrap()));
        assert_eq!(resp.status, Status::NotFound);
    }

    #[test]
    fn flaky_apps_fail_deterministically() {
        let app = Blueprint::new("fl", "fl.local")
            .flaky_every(3)
            .module(ModuleSpec::new("m", ModuleKind::Hub, 3, 10))
            .build();
        let mut host = AppHost::new(Box::new(app));
        let mut statuses = Vec::new();
        for _ in 0..6 {
            let resp = host.fetch(&Request::get("http://fl.local/".parse().unwrap()));
            statuses.push(resp.status);
        }
        // Requests 3 and 6 fail (1-based counter).
        assert_eq!(
            statuses,
            vec![
                Status::Ok,
                Status::Ok,
                Status::ServerError,
                Status::Ok,
                Status::Ok,
                Status::ServerError
            ]
        );
        // Error pages still carry a way home.
        let resp = host.fetch(&Request::get("http://fl.local/".parse().unwrap()));
        assert_eq!(resp.status, Status::Ok);
    }

    #[test]
    #[should_panic(expected = "flaky_every needs n >= 2")]
    fn flaky_every_rejects_degenerate_rate() {
        let _ = Blueprint::new("x", "x.local").flaky_every(1);
    }
}
