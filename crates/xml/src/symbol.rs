//! Interned label symbols — the paper's label alphabet `L` as `u32`s.
//!
//! Every element and attribute name in a distributed AXML system is drawn
//! from a small alphabet that repeats massively across documents (think
//! `<pkg>` in a 10⁵-entry catalog, replicated across mirrors). A
//! [`Symbol`] is a `u32` handle into a process-wide interner: equality and
//! hashing are O(1) on the id, copying is a register move, and the string
//! itself is stored exactly once.
//!
//! ## Interner design
//!
//! The interner is sharded 16 ways by a stable FNV-1a hash of the text.
//! Each shard publishes an immutable snapshot (`lookup` map + `resolve`
//! table) through an atomic pointer:
//!
//! * **Reads are lock-free.** [`Symbol::new`] on an already-interned
//!   string (the overwhelmingly common case) loads the shard snapshot
//!   with one `Acquire` load and probes an immutable `HashMap` — no
//!   mutex, no contention, no writer can block a reader.
//! * **Writes are rare and shard-local.** A miss takes the shard's write
//!   mutex, re-checks, then publishes a fresh snapshot containing the new
//!   entry. Concurrent misses on *different* shards do not contend.
//!
//! Interned strings live for the process lifetime (they are leaked into
//! `&'static str`), as do superseded shard snapshots. For label alphabets
//! — tens to a few thousand distinct strings — this retired-snapshot
//! memory is O(alphabet²/shards) words in the worst case and measured in
//! kilobytes in practice; the payoff is a read path with no
//! synchronization at all.
//!
//! ## Determinism
//!
//! Symbol **ids** depend on interning order and must never leak into
//! observable output. Everything observable is derived from the text:
//! [`Symbol::cmp`] is lexicographic on the string (so canonical child
//! ordering, serialization, and equivalence are byte-identical across
//! processes regardless of interning order) and [`Symbol`]'s `Hash` feeds
//! the *content* hash cached at intern time. (Canonical hashes read the
//! label's bytes, not either.)

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Mutex;

/// An interned element/attribute label: a symbol of the alphabet `L`.
///
/// `Symbol` is `Copy` — pass it by value everywhere. Equality compares
/// two `u32`s; `Hash` writes a cached content hash (one table lookup).
/// [`Label`] is the same type under the paper's name — the established
/// vocabulary in data-model positions.
#[derive(Clone, Copy)]
pub struct Symbol(u32);

pub use self::Symbol as Label;

const SHARD_BITS: u32 = 4;
const SHARDS: usize = 1 << SHARD_BITS;
const SHARD_MASK: u32 = (SHARDS as u32) - 1;

/// Stable 64-bit FNV-1a — the workspace's one implementation. Over a
/// label's bytes it picks the interner shard and is the cached content
/// hash; `axml-net` uses it as the frame-acknowledgement digest. Must
/// never change: acknowledgements across peer processes depend on it.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One interned entry: the leaked text and its stable content hash.
struct Entry {
    text: &'static str,
    content_hash: u64,
}

/// An immutable, atomically published view of one shard.
struct Snapshot {
    /// text → global symbol id.
    lookup: HashMap<&'static str, u32>,
    /// shard-local index → entry (id >> SHARD_BITS indexes this).
    entries: Vec<Entry>,
}

struct Shard {
    /// Current snapshot; readers load it with `Acquire` and never lock.
    current: AtomicPtr<Snapshot>,
    /// Serializes writers within the shard.
    write: Mutex<()>,
}

fn shards() -> &'static [Shard; SHARDS] {
    static SHARDS_CELL: std::sync::OnceLock<[Shard; SHARDS]> = std::sync::OnceLock::new();
    SHARDS_CELL.get_or_init(|| {
        std::array::from_fn(|_| Shard {
            current: AtomicPtr::new(Box::into_raw(Box::new(Snapshot {
                lookup: HashMap::new(),
                entries: Vec::new(),
            }))),
            write: Mutex::new(()),
        })
    })
}

impl Symbol {
    /// Intern `s` and return its symbol.
    ///
    /// Lock-free on the hit path; a miss takes the owning shard's write
    /// lock once per *distinct* string per process lifetime.
    pub fn new(s: &str) -> Self {
        let h = fnv1a64(s.as_bytes());
        let shard = &shards()[(h & SHARD_MASK as u64) as usize];
        // Fast path: immutable snapshot probe, no lock.
        let snap = unsafe { &*shard.current.load(Ordering::Acquire) };
        if let Some(&id) = snap.lookup.get(s) {
            return Symbol(id);
        }
        Self::intern_slow(s, h, shard)
    }

    #[cold]
    fn intern_slow(s: &str, h: u64, shard: &'static Shard) -> Self {
        let _guard = shard.write.lock().expect("symbol interner poisoned");
        // Re-check: another writer may have interned `s` while we waited.
        let snap = unsafe { &*shard.current.load(Ordering::Acquire) };
        if let Some(&id) = snap.lookup.get(s) {
            return Symbol(id);
        }
        let text: &'static str = Box::leak(Box::from(s));
        let local = snap.entries.len() as u32;
        let id = (local << SHARD_BITS) | ((h as u32) & SHARD_MASK);
        let mut lookup = snap.lookup.clone();
        lookup.insert(text, id);
        let mut entries: Vec<Entry> = snap
            .entries
            .iter()
            .map(|e| Entry {
                text: e.text,
                content_hash: e.content_hash,
            })
            .collect();
        entries.push(Entry {
            text,
            content_hash: h,
        });
        // Publish the new snapshot; the superseded one is intentionally
        // leaked (a lock-free reader may still be probing it).
        let next = Box::into_raw(Box::new(Snapshot { lookup, entries }));
        shard.current.store(next, Ordering::Release);
        Symbol(id)
    }

    fn entry(self) -> &'static Entry {
        let shard = &shards()[(self.0 & SHARD_MASK) as usize];
        let snap = unsafe { &*shard.current.load(Ordering::Acquire) };
        &snap.entries[(self.0 >> SHARD_BITS) as usize]
    }

    /// The interned text. `'static`: interned strings live for the
    /// process lifetime.
    pub fn as_str(self) -> &'static str {
        self.entry().text
    }

    /// The stable 64-bit content hash (FNV-1a of the text), cached at
    /// intern time. Identical across processes and interning orders.
    pub fn content_hash(self) -> u64 {
        self.entry().content_hash
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

impl PartialEq for Symbol {
    fn eq(&self, other: &Self) -> bool {
        // Interning guarantees one id per string: O(1).
        self.0 == other.0
    }
}

impl Eq for Symbol {}

impl PartialOrd for Symbol {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Symbol {
    /// Lexicographic on the text — **not** on the id — so that canonical
    /// orderings are identical across processes with different interning
    /// orders.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Symbol {
    /// Writes the cached content hash: O(1) in the text length. Canonical
    /// digests and hashes do not depend on it: their walk reads a label's
    /// bytes, since two labels may share a content hash.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

impl From<&String> for Symbol {
    fn from(s: &String) -> Self {
        Symbol::new(s)
    }
}

impl AsRef<str> for Symbol {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// Interner pressure counters: `(distinct symbols, interned text
/// bytes)` across all shards. Lock-free — reads each shard's published
/// snapshot, so the result is a consistent-enough lower bound while
/// writers are racing (memory-discipline accounting, not a barrier).
pub fn interner_stats() -> (u64, u64) {
    let (mut symbols, mut bytes) = (0u64, 0u64);
    for shard in shards() {
        let snap = unsafe { &*shard.current.load(Ordering::Acquire) };
        symbols += snap.entries.len() as u64;
        bytes += snap
            .entries
            .iter()
            .map(|e| e.text.len() as u64)
            .sum::<u64>();
    }
    (symbols, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedups() {
        let a = Symbol::new("catalog");
        let b = Symbol::new("catalog");
        assert_eq!(a.0, b.0);
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "catalog");
    }

    #[test]
    fn interner_stats_count_distinct_symbols() {
        let (s0, b0) = interner_stats();
        Symbol::new("interner-stats-probe-alpha");
        Symbol::new("interner-stats-probe-alpha"); // dup: no growth
        Symbol::new("interner-stats-probe-beta");
        let (s1, b1) = interner_stats();
        // Other tests intern concurrently, so assert growth bounds, not
        // exact values.
        assert!(s1 >= s0 + 2, "two new distinct symbols: {s0} -> {s1}");
        assert!(b1 >= b0 + 2 * "interner-stats-probe-alpha".len() as u64 - 1);
    }

    #[test]
    fn distinct_labels_differ() {
        assert_ne!(Symbol::new("a"), Symbol::new("b"));
    }

    #[test]
    fn ordering_is_lexicographic() {
        assert!(Symbol::new("aaa") < Symbol::new("aab"));
        assert!(Symbol::new("b") > Symbol::new("azzz"));
        assert_eq!(
            Symbol::new("same").cmp(&Symbol::new("same")),
            std::cmp::Ordering::Equal
        );
    }

    #[test]
    fn display_and_len() {
        let l = Symbol::new("pkg");
        assert_eq!(l.to_string(), "pkg");
        assert_eq!(l.len(), 3);
        assert!(!l.is_empty());
        assert!(Symbol::new("").is_empty());
        // `Label` names the same type; the `From` conversions intern too.
        let from_str: Label = "pkg".into();
        assert_eq!((l, l), (from_str, String::from("pkg").into()));
    }

    #[test]
    fn hash_consistent_with_eq_and_content() {
        use std::hash::BuildHasher;
        let keys = std::collections::hash_map::RandomState::new();
        assert_eq!(
            keys.hash_one(Symbol::new("x")),
            keys.hash_one(Symbol::new("x"))
        );
        // content hash is the raw FNV — stable across processes.
        assert_eq!(Symbol::new("x").content_hash(), fnv1a64(b"x"));
    }

    #[test]
    fn copy_semantics() {
        let a = Symbol::new("copy-me");
        let b = a; // Copy, not Clone
        assert_eq!(a, b);
    }

    #[test]
    fn many_symbols_across_shards_resolve() {
        let syms: Vec<Symbol> = (0..500).map(|i| Symbol::new(&format!("sym-{i}"))).collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("sym-{i}"));
        }
        // Re-interning yields identical ids.
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(*s, Symbol::new(&format!("sym-{i}")));
        }
    }

    #[test]
    fn concurrent_interning_agrees() {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    (0..200)
                        .map(|i| Symbol::new(&format!("concurrent-{}", (i + t) % 100)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let all: Vec<Vec<Symbol>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for row in &all {
            for s in row {
                assert!(s.as_str().starts_with("concurrent-"));
            }
        }
        // Same string ⇒ same id, across all threads.
        assert_eq!(Symbol::new("concurrent-0"), all[0][all[0].len() - 200..][0]);
    }
}
