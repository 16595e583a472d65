//! Interned labels — the paper's label alphabet `L`.
//!
//! Every element and attribute name in a distributed AXML system is drawn
//! from a small alphabet that repeats massively across documents (think
//! `<pkg>` in a 10⁵-entry catalog, replicated across mirrors). A
//! [`Label`] is a pointer to its entry in a process-wide interner: the
//! entry holds the text and its content hash, equality compares the
//! pointers, copying is a register move, and the string itself is stored
//! exactly once.
//!
//! ## Interner design
//!
//! One `Mutex<HashMap<&'static str, &'static Entry>>`. Interning takes the
//! lock and probes the map; a miss leaks one entry and inserts it, so
//! interning n distinct names costs O(n) time and memory. Reading a
//! label ([`Label::as_str`], [`Label::content_hash`]) is one dereference
//! and takes no lock.
//!
//! Entries live for the process lifetime, so the alphabet is bounded:
//! each entry is charged its text plus a fixed [`ENTRY_CHARGE`], and
//! [`Label::try_new`] refuses a fresh name that would take the total past
//! [`MAX_INTERNED_BYTES`]. The parsers of outside text (XML documents,
//! query sources) intern through it, so a peer cannot make another keep
//! more than the budget; names the program supplies use [`Label::new`],
//! which always succeeds.
//!
//! ## Determinism
//!
//! Entry **addresses** depend on interning order and must never leak into
//! observable output. Everything observable is derived from the text:
//! [`Label::cmp`] is lexicographic on the string (so canonical child
//! ordering, serialization, and equivalence are byte-identical across
//! processes regardless of interning order) and [`Label`]'s `Hash` feeds
//! the *content* hash cached at intern time. (Canonical hashes read the
//! label's bytes, not either.)

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{LazyLock, Mutex, PoisonError};

/// An interned element/attribute label: a symbol of the alphabet `L`.
///
/// `Label` is `Copy` — pass it by value everywhere. Equality compares
/// two pointers; `Hash` writes the entry's cached content hash.
#[derive(Clone, Copy)]
pub struct Label(&'static Entry);

/// One interned entry: the leaked text and its stable content hash.
struct Entry {
    text: &'static str,
    content_hash: u64,
}

/// What interned text may occupy, charged as text bytes plus
/// [`ENTRY_CHARGE`] per entry. The workloads intern a few dozen labels.
pub const MAX_INTERNED_BYTES: u64 = 16 << 20;

/// The fixed charge per interned entry: the entry, its map slot and the
/// allocator's headers, rounded up.
pub const ENTRY_CHARGE: u64 = 64;

/// [`Label::try_new`] refused a fresh name: interning it would take the
/// alphabet past [`MAX_INTERNED_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlphabetFull;

impl fmt::Display for AlphabetFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "label alphabet full: a new name would pass {MAX_INTERNED_BYTES} interned bytes"
        )
    }
}

impl std::error::Error for AlphabetFull {}

/// Stable 64-bit FNV-1a — the workspace's one implementation. Over a
/// label's bytes it is the cached content hash; `axml-net` uses it as the
/// frame-acknowledgement digest. Must never change: acknowledgements
/// across peer processes depend on it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Default)]
struct Interner {
    map: HashMap<&'static str, &'static Entry>,
    /// Text bytes interned so far (the budget adds the per-entry charge).
    bytes: u64,
}

impl Interner {
    fn get(&self, s: &str) -> Option<Label> {
        self.map.get(s).map(|&entry| Label(entry))
    }

    /// Whether interning a fresh `s` keeps the charged total within
    /// [`MAX_INTERNED_BYTES`].
    fn fits(&self, s: &str) -> bool {
        let entries = self.map.len() as u64 + 1;
        self.bytes + s.len() as u64 + entries * ENTRY_CHARGE <= MAX_INTERNED_BYTES
    }

    fn insert(&mut self, s: &str) -> Label {
        let text: &'static str = Box::leak(Box::from(s));
        let entry: &'static Entry = Box::leak(Box::new(Entry {
            text,
            content_hash: fnv1a64(text.as_bytes()),
        }));
        self.map.insert(text, entry);
        self.bytes += text.len() as u64;
        Label(entry)
    }
}

fn interner() -> std::sync::MutexGuard<'static, Interner> {
    static INTERNER: LazyLock<Mutex<Interner>> = LazyLock::new(Mutex::default);
    // Every update leaves the map and its byte count consistent, so a
    // lock poisoned by a panic elsewhere still guards a whole interner.
    INTERNER.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Label {
    /// Intern `s` and return its label. For names the program supplies:
    /// it always succeeds, past the budget too.
    pub fn new(s: &str) -> Self {
        let mut interner = interner();
        interner.get(s).unwrap_or_else(|| interner.insert(s))
    }

    /// Intern `s` within the budget. For names read from outside text: a
    /// name already interned always succeeds, and a fresh one is refused
    /// if it would take the alphabet past [`MAX_INTERNED_BYTES`].
    pub fn try_new(s: &str) -> Result<Self, AlphabetFull> {
        let mut interner = interner();
        match interner.get(s) {
            Some(label) => Ok(label),
            None if interner.fits(s) => Ok(interner.insert(s)),
            None => Err(AlphabetFull),
        }
    }

    /// The interned text. `'static`: interned strings live for the
    /// process lifetime.
    pub fn as_str(self) -> &'static str {
        self.0.text
    }

    /// The stable 64-bit content hash (FNV-1a of the text), cached at
    /// intern time. Identical across processes and interning orders.
    pub fn content_hash(self) -> u64 {
        self.0.content_hash
    }

    /// Length of the label text in bytes (used for wire-size accounting).
    pub fn len(self) -> usize {
        self.as_str().len()
    }

    /// Whether the label is the empty string (never produced by the
    /// parser, but constructible through the API).
    pub fn is_empty(self) -> bool {
        self.as_str().is_empty()
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        // Interning guarantees one entry per string.
        std::ptr::eq(self.0, other.0)
    }
}

impl Eq for Label {}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    /// Lexicographic on the text — **not** on the entry's address — so
    /// that canonical orderings are identical across processes with
    /// different interning orders.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self == other {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Label {
    /// Writes the cached content hash: O(1) in the text length. Canonical
    /// digests and hashes do not depend on it: their walk reads a label's
    /// bytes, since two labels may share a content hash.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:?})", self.as_str())
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Label {
    fn from(s: &str) -> Self {
        Label::new(s)
    }
}

/// Interner pressure counters: `(distinct labels, interned text bytes)`.
/// Exact: read under the interner's lock.
pub fn interner_stats() -> (u64, u64) {
    let interner = interner();
    (interner.map.len() as u64, interner.bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let a = Label::new("catalog");
        let b = Label::new("catalog");
        assert!(std::ptr::eq(a.0, b.0));
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "catalog");
    }

    #[test]
    fn interner_stats_count_distinct_symbols() {
        let (s0, b0) = interner_stats();
        Label::new("interner-stats-probe-alpha");
        Label::new("interner-stats-probe-alpha"); // dup: no growth
        Label::new("interner-stats-probe-beta");
        let (s1, b1) = interner_stats();
        // Other tests intern concurrently, so assert growth bounds, not
        // exact values.
        assert!(s1 >= s0 + 2, "two new distinct labels: {s0} -> {s1}");
        assert!(b1 >= b0 + 2 * "interner-stats-probe-alpha".len() as u64 - 1);
    }

    #[test]
    fn distinct_labels_differ() {
        assert_ne!(Label::new("a"), Label::new("b"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Label::new("aaa") < Label::new("aab"));
        assert!(Label::new("b") > Label::new("azzz"));
        assert_eq!(
            Label::new("same").cmp(&Label::new("same")),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn display_and_len() {
        let l = Label::new("pkg");
        assert_eq!(l.to_string(), "pkg");
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
        assert!(Label::new("").is_empty());
        // The `From` conversion interns too.
        let from_str: Label = "pkg".into();
        assert_eq!(l, from_str);
        assert_eq!(format!("{l:?}"), "Label(\"pkg\")");
    }

    #[test]
    fn hash_consistent_with_eq_and_content() {
        use std::hash::BuildHasher;
        let keys = std::collections::hash_map::RandomState::new();
        assert_eq!(
            keys.hash_one(Label::new("x")),
            keys.hash_one(Label::new("x"))
        );
        // content hash is the raw FNV — stable across processes.
        assert_eq!(Label::new("x").content_hash(), fnv1a64(b"x"));
        assert_eq!(fnv1a64(b"pkg"), 0x77a8_5f19_5659_c591);
    }

    #[test]
    fn try_new_finds_what_new_interned() {
        let l = Label::new("try-new-probe");
        assert_eq!(Label::try_new("try-new-probe"), Ok(l));
        assert_eq!(
            Label::try_new("try-new-fresh").map(Label::as_str),
            Ok("try-new-fresh")
        );
    }

    #[test]
    fn copy_semantics() {
        let a = Label::new("copy-me");
        let b = a; // Copy, not Clone
        assert_eq!(a, b);
    }

    #[test]
    fn many_labels_resolve_and_dedup() {
        let labels: Vec<Label> = (0..500).map(|i| Label::new(&format!("sym-{i}"))).collect();
        for (i, l) in labels.iter().enumerate() {
            assert_eq!(l.as_str(), format!("sym-{i}"));
        }
        // Re-interning yields the same entries.
        for (i, l) in labels.iter().enumerate() {
            assert_eq!(*l, Label::new(&format!("sym-{i}")));
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| Label::new(&format!("concurrent-{}", (i + t) % 100)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Label>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all {
            for l in row {
                assert!(l.as_str().starts_with("concurrent-"));
            }
        }
        // Same string ⇒ same entry, across all threads.
        assert_eq!(Label::new("concurrent-0"), all[0][all[0].len() - 200..][0]);
    }
}
