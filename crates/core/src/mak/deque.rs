//! The leveled deque of interactable elements (§IV-B).
//!
//! MAK stores every interactable element it has extracted in "a list of
//! deques, each one with an associated level i ∈ ℕ₀. The deque at level i
//! contains all the interactable elements … that have already been
//! interacted with by the crawler i times." Actions always draw from the
//! *lowest* non-empty level, so the crawler tries the least-explored
//! elements first — the curiosity principle folded into the action
//! definition rather than the reward.
//!
//! The deque tracks **action availability only**: no page state, no
//! environment model (§IV-B's closing remark), so MAK stays stateless.

use mak_intern::Interner;
use mak_websim::dom::Interactable;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// MAK's three actions (§IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arm {
    /// Extract the least recently discovered element — emulates BFS.
    Head,
    /// Extract the most recently discovered element — emulates DFS.
    Tail,
    /// Extract a uniformly random element — escapes local plateaus.
    Random,
}

impl Arm {
    /// All arms in policy-index order.
    pub const ALL: [Arm; 3] = [Arm::Head, Arm::Tail, Arm::Random];

    /// The policy index of this arm.
    pub fn index(self) -> usize {
        match self {
            Arm::Head => 0,
            Arm::Tail => 1,
            Arm::Random => 2,
        }
    }

    /// The arm at a policy index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 3`.
    pub fn from_index(index: usize) -> Arm {
        Arm::ALL[index]
    }

    /// The arm's display name as a static string — lets hot paths label
    /// steps without allocating.
    pub fn name(self) -> &'static str {
        match self {
            Arm::Head => "Head",
            Arm::Tail => "Tail",
            Arm::Random => "Random",
        }
    }
}

impl fmt::Display for Arm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The global, level-indexed pool of interactable elements.
///
/// Deduplication keys on interned signature [`Symbol`](mak_intern::Symbol)s
/// rather than owned `String`s: probing with an already-known element
/// allocates nothing (the interner reuses a scratch buffer), and the element
/// itself is only cloned into the pool when it is genuinely new.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(into = "DequeRepr", try_from = "DequeRepr")]
pub struct LeveledDeque {
    levels: Vec<VecDeque<Interactable>>,
    known: Interner,
    len: usize,
}

/// [`LeveledDeque`]'s checkpoint form: the per-level queues plus the dedup
/// interner's strings in insertion order. Empty trailing levels are kept
/// so `level_count` (and the `DequeDepth` event it feeds) is bit-identical
/// after a restore.
#[derive(Serialize, Deserialize)]
struct DequeRepr {
    levels: Vec<Vec<Interactable>>,
    known: Vec<String>,
}

impl From<LeveledDeque> for DequeRepr {
    fn from(deque: LeveledDeque) -> Self {
        let known = deque.known.ordered_strings().map(str::to_owned).collect();
        DequeRepr { levels: deque.levels.into_iter().map(Vec::from).collect(), known }
    }
}

impl TryFrom<DequeRepr> for LeveledDeque {
    type Error = String;

    fn try_from(r: DequeRepr) -> Result<Self, String> {
        let known = Interner::from_ordered(&r.known)?;
        // Every pooled element was interned when first pushed: queues and
        // dedup table that disagree are corrupt, not a pool state any
        // sequence of operations could have produced.
        if let Some(el) = r.levels.iter().flatten().find(|el| known.get(&el.signature()).is_none())
        {
            return Err(format!("pooled `{}` missing from the dedup interner", el.signature()));
        }
        let len = r.levels.iter().map(Vec::len).sum();
        Ok(LeveledDeque { levels: r.levels.into_iter().map(VecDeque::from).collect(), known, len })
    }
}

impl LeveledDeque {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a newly discovered element at level 0 (back of the deque, so
    /// `Tail` retrieves the newest discovery). Elements are deduplicated by
    /// [signature](Interactable::signature): re-extracting the same element
    /// on a later visit does not re-add it. Returns `true` if inserted.
    pub fn push_new(&mut self, element: &Interactable) -> bool {
        let (_, new) = self.known.intern_with(|buf| element.write_signature(buf));
        if !new {
            return false;
        }
        if self.levels.is_empty() {
            self.levels.push(VecDeque::new());
        }
        self.levels[0].push_back(element.clone());
        self.len += 1;
        true
    }

    /// Re-inserts an element after an interaction, at `level + 1`.
    pub fn reinsert(&mut self, element: Interactable, new_level: usize) {
        while self.levels.len() <= new_level {
            self.levels.push(VecDeque::new());
        }
        self.levels[new_level].push_back(element);
        self.len += 1;
    }

    /// Extracts an element per `arm` from the lowest non-empty level,
    /// returning it with its level. `None` if the pool is empty.
    pub fn pop<R: Rng + ?Sized>(&mut self, arm: Arm, rng: &mut R) -> Option<(Interactable, usize)> {
        let level = self.levels.iter().position(|d| !d.is_empty())?;
        let deque = &mut self.levels[level];
        let element = match arm {
            Arm::Head => deque.pop_front(),
            Arm::Tail => deque.pop_back(),
            Arm::Random => {
                let idx = rng.gen_range(0..deque.len());
                deque.remove(idx)
            }
        }?;
        self.len -= 1;
        Some((element, level))
    }

    /// Total elements across all levels.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of allocated levels (highest interaction count + 1).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Elements currently waiting at `level`.
    pub fn level_len(&self, level: usize) -> usize {
        self.levels.get(level).map_or(0, VecDeque::len)
    }

    /// Whether an element with this signature was ever inserted.
    pub fn knows(&self, signature: &str) -> bool {
        self.known.get(signature).is_some()
    }

    /// The signature interner (diagnostics: table size under `MAK_LOG=debug`).
    pub fn interner(&self) -> &Interner {
        &self.known
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashSet;

    fn link(path: &str) -> Interactable {
        Interactable::Link { href: format!("http://h{path}").parse().unwrap(), text: String::new() }
    }

    #[test]
    fn head_is_fifo_tail_is_lifo() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut d = LeveledDeque::new();
        d.push_new(&link("/a"));
        d.push_new(&link("/b"));
        d.push_new(&link("/c"));
        let (first, _) = d.pop(Arm::Head, &mut rng).unwrap();
        assert_eq!(first.target_url().path(), "/a", "Head = least recently discovered (BFS)");
        let (last, _) = d.pop(Arm::Tail, &mut rng).unwrap();
        assert_eq!(last.target_url().path(), "/c", "Tail = newest discovery (DFS)");
    }

    #[test]
    fn random_pop_returns_each_element_eventually() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = HashSet::new();
        for _ in 0..50 {
            let mut d = LeveledDeque::new();
            d.push_new(&link("/a"));
            d.push_new(&link("/b"));
            d.push_new(&link("/c"));
            let (el, _) = d.pop(Arm::Random, &mut rng).unwrap();
            seen.insert(el.target_url().path().to_owned());
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn deduplicates_by_signature() {
        let mut d = LeveledDeque::new();
        assert!(d.push_new(&link("/a")));
        assert!(!d.push_new(&link("/a")));
        assert_eq!(d.len(), 1);
        assert!(d.knows(&link("/a").signature()));
    }

    #[test]
    fn lowest_level_is_drained_first() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = LeveledDeque::new();
        d.push_new(&link("/fresh"));
        d.reinsert(link("/used"), 1);
        let (el, level) = d.pop(Arm::Tail, &mut rng).unwrap();
        assert_eq!(el.target_url().path(), "/fresh");
        assert_eq!(level, 0);
        let (el, level) = d.pop(Arm::Head, &mut rng).unwrap();
        assert_eq!(el.target_url().path(), "/used");
        assert_eq!(level, 1, "falls back to the next level once level 0 drains");
    }

    #[test]
    fn reinsert_grows_levels() {
        let mut d = LeveledDeque::new();
        d.reinsert(link("/x"), 4);
        assert_eq!(d.level_count(), 5);
        assert_eq!(d.level_len(4), 1);
        assert_eq!(d.level_len(0), 0);
        assert!(!d.is_empty());
    }

    #[test]
    fn pop_on_empty_is_none() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut d = LeveledDeque::new();
        assert!(d.pop(Arm::Head, &mut rng).is_none());
    }

    #[test]
    fn arm_indices_roundtrip() {
        for arm in Arm::ALL {
            assert_eq!(Arm::from_index(arm.index()), arm);
        }
        assert_eq!(Arm::Head.to_string(), "Head");
    }
}
