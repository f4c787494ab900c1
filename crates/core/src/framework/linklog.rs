//! Link-coverage accounting.
//!
//! §IV-C: *"Link coverage is determined by the number of different links
//! gathered during the exploration of the web application and it is
//! positively correlated with code coverage."* The [`LinkLog`] records
//! every distinct same-origin URL a crawl observes — visited page URLs and
//! the targets of extracted elements — and reports the per-step increment
//! MAK's reward standardizes.

use mak_browser::page::Page;
use mak_intern::Interner;
use mak_websim::dom::DocShared;
use mak_websim::url::Url;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The set of distinct URLs gathered during one crawl.
///
/// Backed by an [`Interner`]: probing with an already-seen URL allocates
/// nothing, and each distinct normalized URL is stored exactly once. It
/// checkpoints as its URLs in insertion order, which restore to identical
/// symbol ids.
///
/// It also remembers which render-cached documents it has absorbed, so a
/// revisit costs one URL probe instead of one per element. That memo is a
/// cache: it is not checkpointed, and a restored log refills it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(into = "Vec<String>", try_from = "Vec<String>")]
pub struct LinkLog {
    seen: Interner,
    /// Render-cached documents whose every valid element target is in
    /// `seen`, sorted by address. Holding the `Arc` keeps the address from
    /// being reused by another document while it is listed.
    absorbed: Vec<Arc<DocShared>>,
}

/// What [`LinkLog::absorb_page`] found on a page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Absorbed {
    /// URLs gathered for the first time — the raw link-coverage increment
    /// `r_t` of §IV-C.
    pub new_urls: u64,
    /// Whether the page's render-cached document was absorbed before, so
    /// its elements were skipped: every one of them was already seen, by
    /// this log and by any dedup set fed from the same pages.
    pub revisit: bool,
}

impl LinkLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one URL; returns `true` if it was new.
    pub fn record(&mut self, url: &Url) -> bool {
        self.seen.try_intern(url.normalized()).1
    }

    /// Absorbs a fetched page: its own URL plus every element target on
    /// `origin`, the crawl's one origin.
    ///
    /// A render-cached document has the same elements wherever it is
    /// served, and this log only grows, so once its elements are absorbed
    /// a revisit records only the page's own (possibly alias) URL. Fresh,
    /// error and restored pages are walked in full every time.
    pub fn absorb_page(&mut self, page: &Page, origin: &Url) -> Absorbed {
        let mut new_urls = 0;
        if page.url().same_origin(origin) && self.record(page.url()) {
            new_urls += 1;
        }
        let shared = page.shared();
        let slot = match self.absorbed.binary_search_by_key(&Arc::as_ptr(shared), Arc::as_ptr) {
            Ok(_) => return Absorbed { new_urls, revisit: true },
            Err(slot) => slot,
        };
        for el in page.valid_interactables(origin) {
            if self.record(el.target_url()) {
                new_urls += 1;
            }
        }
        if shared.is_render_cached() {
            self.absorbed.insert(slot, Arc::clone(shared));
        }
        Absorbed { new_urls, revisit: false }
    }

    /// Number of distinct URLs gathered so far.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing has been gathered yet.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// The URL interner (diagnostics: table size under `MAK_LOG=debug`).
    pub fn interner(&self) -> &Interner {
        &self.seen
    }
}

impl From<LinkLog> for Vec<String> {
    fn from(log: LinkLog) -> Self {
        log.seen.ordered_strings().map(str::to_owned).collect()
    }
}

impl TryFrom<Vec<String>> for LinkLog {
    type Error = String;

    fn try_from(urls: Vec<String>) -> Result<Self, String> {
        Ok(LinkLog { seen: Interner::from_ordered(urls)?, absorbed: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mak_websim::dom::{Document, Element, Tag};
    use mak_websim::http::Status;

    fn page(url: &str, hrefs: &[&str]) -> Page {
        let mut body = Element::new(Tag::Body);
        for h in hrefs {
            body = body.child(Element::new(Tag::A).attr("href", (*h).to_owned()));
        }
        Page::from_document(Status::Ok, Document::new(url.parse().unwrap(), "t", body))
    }

    fn absorb(log: &mut LinkLog, page: &Page) -> (u64, bool) {
        let absorbed = log.absorb_page(page, &"http://h/".parse().unwrap());
        (absorbed.new_urls, absorbed.revisit)
    }

    #[test]
    fn counts_new_urls_only_once() {
        let mut log = LinkLog::new();
        let p = page("http://h/a", &["/b", "/c"]);
        assert_eq!(absorb(&mut log, &p).0, 3);
        assert_eq!(absorb(&mut log, &p).0, 0, "revisit adds nothing");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn ignores_external_targets() {
        let mut log = LinkLog::new();
        let p = page("http://h/a", &["http://evil.example/x", "/b"]);
        assert_eq!(absorb(&mut log, &p).0, 2, "page URL + /b only");
    }

    #[test]
    fn normalization_collapses_query_order() {
        let mut log = LinkLog::new();
        let p1 = page("http://h/a", &["/x?a=1&b=2"]);
        let p2 = page("http://h/c", &["/x?b=2&a=1"]);
        assert_eq!(absorb(&mut log, &p1).0, 2);
        assert_eq!(absorb(&mut log, &p2).0, 1, "same link in another order");
        assert!(!log.is_empty());
    }

    /// A render-cached document linking to `hrefs`.
    fn cached(hrefs: &[&str]) -> Document {
        let mut body = Element::new(Tag::Body);
        for h in hrefs {
            body = body.child(Element::new(Tag::A).attr("href", (*h).to_owned()));
        }
        Document::new("http://h/a".parse().unwrap(), "t", body).with_shared_cache()
    }

    fn serve(doc: &Document, url: &str) -> Page {
        Page::from_document(Status::Ok, doc.reissue(url.parse().unwrap()))
    }

    #[test]
    fn revisit_under_an_alias_url_counts_only_that_url() {
        let doc = cached(&["/b", "/c"]);
        let mut log = LinkLog::new();
        assert_eq!(absorb(&mut log, &serve(&doc, "http://h/a")), (3, false));
        assert_eq!(absorb(&mut log, &serve(&doc, "http://h/a?alias=1")), (1, true));
        assert_eq!(absorb(&mut log, &serve(&doc, "http://h/a")), (0, true));
        let urls: Vec<String> = log.into();
        assert_eq!(urls, ["http://h/a", "http://h/b", "http://h/c", "http://h/a?alias=1"]);
    }

    #[test]
    fn fresh_and_restored_pages_never_skip() {
        let mut log = LinkLog::new();
        let fresh = page("http://h/a", &["/b"]);
        assert_eq!(absorb(&mut log, &fresh), (2, false));
        assert_eq!(absorb(&mut log, &fresh), (0, false), "fresh pages are not remembered");

        let doc = cached(&["/b", "/c"]);
        let json = serde_json::to_string(&serve(&doc, "http://h/a")).unwrap();
        let restored: Page = serde_json::from_str(&json).unwrap();
        assert_eq!(absorb(&mut log, &restored), (1, false));
        assert_eq!(absorb(&mut log, &restored), (0, false), "restored pages are not remembered");

        // The memo is not checkpointed: a restored log walks a cached page
        // once more before skipping it.
        assert_eq!(absorb(&mut log, &serve(&doc, "http://h/a")), (0, false));
        assert_eq!(absorb(&mut log, &serve(&doc, "http://h/a")), (0, true));
        let mut back: LinkLog =
            serde_json::from_str(&serde_json::to_string(&log).unwrap()).unwrap();
        assert_eq!(absorb(&mut back, &serve(&doc, "http://h/a")), (0, false));
        assert_eq!(absorb(&mut back, &serve(&doc, "http://h/a")), (0, true));
    }
}
