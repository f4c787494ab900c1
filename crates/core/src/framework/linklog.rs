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
use mak_websim::url::Url;
use serde::{Deserialize, Serialize};

/// The set of distinct URLs gathered during one crawl.
///
/// Backed by an [`Interner`]: probing with an already-seen URL allocates
/// nothing, and each distinct normalized URL is stored exactly once. It
/// checkpoints as its URLs in insertion order, which restore to identical
/// symbol ids.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(into = "Vec<String>", try_from = "Vec<String>")]
pub struct LinkLog {
    seen: Interner,
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

    /// Absorbs a fetched page: its own URL plus every same-origin element
    /// target. Returns the number of *new* URLs — the raw link-coverage
    /// increment `r_t` of §IV-C.
    pub fn absorb_page(&mut self, page: &Page, origin: &Url) -> u64 {
        let mut new = 0;
        if page.url().same_origin(origin) && self.record(page.url()) {
            new += 1;
        }
        for el in page.valid_interactables(origin) {
            if self.record(el.target_url()) {
                new += 1;
            }
        }
        new
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
        Ok(LinkLog { seen: Interner::from_ordered(urls)? })
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

    #[test]
    fn counts_new_urls_only_once() {
        let origin: Url = "http://h/".parse().unwrap();
        let mut log = LinkLog::new();
        let p = page("http://h/a", &["/b", "/c"]);
        assert_eq!(log.absorb_page(&p, &origin), 3);
        assert_eq!(log.absorb_page(&p, &origin), 0, "revisit adds nothing");
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn ignores_external_targets() {
        let origin: Url = "http://h/".parse().unwrap();
        let mut log = LinkLog::new();
        let p = page("http://h/a", &["http://evil.example/x", "/b"]);
        assert_eq!(log.absorb_page(&p, &origin), 2, "page URL + /b only");
    }

    #[test]
    fn normalization_collapses_query_order() {
        let origin: Url = "http://h/".parse().unwrap();
        let mut log = LinkLog::new();
        let p1 = page("http://h/a", &["/x?a=1&b=2"]);
        let p2 = page("http://h/c", &["/x?b=2&a=1"]);
        assert_eq!(log.absorb_page(&p1, &origin), 2);
        assert_eq!(log.absorb_page(&p2, &origin), 1, "same link in another order");
        assert!(!log.is_empty());
    }
}
