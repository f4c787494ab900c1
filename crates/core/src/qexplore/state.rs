//! QExplore's state abstraction: hashed interactable attribute values.

use crate::framework::checkpoint::StateTable;
use crate::framework::qcrawler::StateAbstraction;
use mak_browser::page::Page;
use mak_websim::util::hash_str;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// QExplore abstracts a page into "a sequence of attribute values of the
/// interactable elements of the page", then compares "the hash of the
/// string representations of the resulting states" (§III-A). Equal hashes
/// are the same state; any change in the element list — including a single
/// appended broken link — is a brand-new state, which is the unbounded
/// state-explosion failure of Fig. 1 (bottom).
///
/// Checkpoints list the `(hash, state id)` pairs sorted by hash.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(into = "Vec<(u64, u64)>", try_from = "Vec<(u64, u64)>")]
pub struct QExploreState {
    by_hash: HashMap<u64, u64>,
    /// Reusable representation buffer: the abstraction re-serializes every
    /// interactable on every step, so the buffer is cleared and refilled
    /// instead of reallocated (same bytes, same hash).
    repr: String,
}

impl QExploreState {
    /// Creates an empty state store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl From<QExploreState> for Vec<(u64, u64)> {
    fn from(state: QExploreState) -> Self {
        let mut pairs: Vec<(u64, u64)> = state.by_hash.into_iter().collect();
        pairs.sort_unstable();
        pairs
    }
}

impl TryFrom<Vec<(u64, u64)>> for QExploreState {
    type Error = &'static str;

    fn try_from(pairs: Vec<(u64, u64)>) -> Result<Self, Self::Error> {
        // State ids are handed out densely (`next_id = len` at insertion),
        // so a valid table's ids are exactly a permutation of `0..len`.
        let mut ids: Vec<u64> = pairs.iter().map(|&(_, id)| id).collect();
        ids.sort_unstable();
        if ids.iter().enumerate().any(|(i, &id)| id != i as u64) {
            return Err("QExplore state ids are not a dense set");
        }
        let by_hash: HashMap<u64, u64> = pairs.into_iter().collect();
        if by_hash.len() != ids.len() {
            return Err("duplicate hash in QExplore state table");
        }
        Ok(QExploreState { by_hash, repr: String::new() })
    }
}

impl StateAbstraction for QExploreState {
    fn state_of(&mut self, page: &Page) -> u64 {
        self.repr.clear();
        for el in page.interactables() {
            el.write_attribute_values(&mut self.repr);
            self.repr.push('\n');
        }
        let hash = hash_str(&self.repr);
        let next_id = self.by_hash.len() as u64;
        *self.by_hash.entry(hash).or_insert(next_id)
    }

    fn state_count(&self) -> usize {
        self.by_hash.len()
    }

    fn snapshot_table(&self) -> StateTable {
        StateTable::QExplore(self.clone())
    }

    fn restore_table(&mut self, table: &StateTable) -> Result<(), serde::Error> {
        let StateTable::QExplore(table) = table else {
            return Err(serde::Error::custom("checkpoint holds a non-QExplore state table"));
        };
        *self = table.clone();
        Ok(())
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
            body = body.child(Element::new(Tag::A).attr("href", (*h).to_owned()).text(*h));
        }
        Page::from_document(Status::Ok, Document::new(url.parse().unwrap(), "t", body))
    }

    #[test]
    fn same_elements_same_state_even_across_urls() {
        // Unlike WebExplor, QExplore ignores the URL: two alias URLs with
        // identical element lists collapse into one state.
        let mut s = QExploreState::new();
        let a = s.state_of(&page("http://h/p?r=23-8", &["/x", "/y"]));
        let b = s.state_of(&page("http://h/p?m=re", &["/x", "/y"]));
        assert_eq!(a, b);
        assert_eq!(s.state_count(), 1);
    }

    #[test]
    fn appended_element_is_a_new_state() {
        let mut s = QExploreState::new();
        let a = s.state_of(&page("http://h/p", &["/x"]));
        let b = s.state_of(&page("http://h/p", &["/x", "/shortcut/a1"]));
        let c = s.state_of(&page("http://h/p", &["/x", "/shortcut/a2"]));
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(s.state_count(), 3, "unbounded growth under mutation");
    }

    #[test]
    fn element_order_matters() {
        let mut s = QExploreState::new();
        let a = s.state_of(&page("http://h/p", &["/x", "/y"]));
        let b = s.state_of(&page("http://h/p", &["/y", "/x"]));
        assert_ne!(a, b);
    }

    #[test]
    fn empty_pages_share_one_state() {
        let mut s = QExploreState::new();
        let a = s.state_of(&Page::empty(Status::NotFound, "http://h/a".parse().unwrap()));
        let b = s.state_of(&Page::empty(Status::NotFound, "http://h/b".parse().unwrap()));
        assert_eq!(a, b);
    }
}
