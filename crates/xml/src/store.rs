//! Documents `d@p` and the per-peer document store.
//!
//! §2.1: *"An XML document is a tuple (t, d) where t is an XML tree and d a
//! document name. No two documents can agree on the values of (d, p)."* —
//! a [`DocStore`] enforces exactly that uniqueness for one peer.

use crate::error::{XmlError, XmlResult};
use crate::ids::DocName;
use crate::tree::{NodeId, Tree};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// The source of every stamp: [`Document::stamp`], [`DocStore::stamp`] and
/// a peer's service table. One counter for the whole process, so a
/// document or store that is replaced by an older copy, or removed and
/// installed again, can never come back carrying a stamp its predecessor
/// once had. It starts at 1: stamp 0 is an empty store or service table
/// that no door has moved yet.
static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);

/// Draw a stamp no earlier draw returned. For a holder of state whose
/// every mutable door draws one, so that equal stamps mean equal state.
pub fn fresh_stamp() -> u64 {
    // Relaxed: the value only has to be unique; it publishes nothing.
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A named XML document (the tuple `(t, d)`), hosted by one peer.
#[derive(Debug, Clone)]
pub struct Document {
    name: DocName,
    tree: Tree,
    stamp: u64,
}

impl Document {
    /// Create a document from a name and a tree.
    pub fn new(name: impl Into<DocName>, tree: Tree) -> Self {
        Document {
            name: name.into(),
            tree,
            stamp: fresh_stamp(),
        }
    }

    /// The document name `d`.
    pub fn name(&self) -> &DocName {
        &self.name
    }

    /// The document's tree.
    pub fn tree(&self) -> &Tree {
        &self.tree
    }

    /// Mutable access to the tree (service responses accumulate here).
    /// The only mutable door, so it moves the [`Document::stamp`].
    pub fn tree_mut(&mut self) -> &mut Tree {
        self.stamp = fresh_stamp();
        &mut self.tree
    }

    /// The mutation stamp: drawn afresh, from a counter that only grows,
    /// when the document is created and every time [`Document::tree_mut`]
    /// is taken. Two reads returning the same stamp therefore saw the
    /// same tree — what lets a reader that remembers a stamp notice every
    /// mutation it did not make itself, a replaced document included.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Consume the document, yielding its tree.
    pub fn into_tree(self) -> Tree {
        self.tree
    }
}

/// The set of documents hosted by one peer. Names are unique.
#[derive(Debug, Default, Clone)]
pub struct DocStore {
    docs: BTreeMap<DocName, Document>,
    stamp: u64,
}

impl DocStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a new document. Fails if the name is taken — the paper's
    /// `send(d@p2, t)` requires *"d was not previously in use on p2"*.
    pub fn insert(&mut self, doc: Document) -> XmlResult<()> {
        if self.docs.contains_key(doc.name()) {
            return Err(XmlError::DuplicateDocument(doc.name().to_string()));
        }
        self.insert_or_replace(doc);
        Ok(())
    }

    /// Install or replace a document (used by replication maintenance,
    /// which is outside the uniqueness rule).
    pub fn insert_or_replace(&mut self, doc: Document) {
        self.stamp = fresh_stamp();
        self.docs.insert(doc.name().clone(), doc);
    }

    /// The store's mutation stamp: drawn afresh by every mutable door
    /// that succeeds ([`DocStore::insert`], [`DocStore::insert_or_replace`],
    /// [`DocStore::get_mut`], [`DocStore::require_mut`],
    /// [`DocStore::node_mut`], a [`DocStore::remove`] that removes), 0 for
    /// a store no door has
    /// moved. Two reads returning the same stamp saw the same documents —
    /// a clone carries its stamp, and a store replaced by an older clone
    /// reads as changed.
    pub fn stamp(&self) -> u64 {
        self.stamp
    }

    /// Look up a document by name.
    pub fn get(&self, name: &DocName) -> Option<&Document> {
        self.docs.get(name)
    }

    /// Look up a document by name, mutably.
    pub fn get_mut(&mut self, name: &DocName) -> Option<&mut Document> {
        let doc = self.docs.get_mut(name)?;
        self.stamp = fresh_stamp();
        Some(doc)
    }

    /// Like [`DocStore::get`] but with a typed error.
    pub fn require(&self, name: &DocName) -> XmlResult<&Document> {
        self.get(name)
            .ok_or_else(|| XmlError::NoSuchDocument(name.to_string()))
    }

    /// Like [`DocStore::get_mut`] but with a typed error.
    pub fn require_mut(&mut self, name: &DocName) -> XmlResult<&mut Document> {
        self.get_mut(name)
            .ok_or_else(|| XmlError::NoSuchDocument(name.to_string()))
    }

    /// Remove a document, returning it.
    pub fn remove(&mut self, name: &DocName) -> Option<Document> {
        let doc = self.docs.remove(name)?;
        self.stamp = fresh_stamp();
        Some(doc)
    }

    /// True if a document with this name exists.
    pub fn contains(&self, name: &DocName) -> bool {
        self.docs.contains_key(name)
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Iterate documents in name order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = &Document> {
        self.docs.values()
    }

    /// Document names in order.
    pub fn names(&self) -> impl Iterator<Item = &DocName> {
        self.docs.keys()
    }

    /// Resolve a node inside a document: convenience for forward lists.
    pub fn node(&self, name: &DocName, node: NodeId) -> XmlResult<&Tree> {
        let doc = self.require(name)?;
        if !doc.tree().contains(node) {
            return Err(XmlError::InvalidNode {
                index: node.index() as u32,
            });
        }
        Ok(doc.tree())
    }

    /// [`DocStore::node`], mutably: the tree of a document that has the
    /// node, for writing under it. Both are checked before anything is
    /// borrowed mutably, so only a lookup that succeeds moves a stamp —
    /// the store's, and the document's through [`Document::tree_mut`].
    pub fn node_mut(&mut self, name: &DocName, node: NodeId) -> XmlResult<&mut Tree> {
        let doc = self
            .docs
            .get_mut(name)
            .ok_or_else(|| XmlError::NoSuchDocument(name.to_string()))?;
        if !doc.tree().contains(node) {
            return Err(XmlError::InvalidNode {
                index: node.index() as u32,
            });
        }
        self.stamp = fresh_stamp();
        Ok(doc.tree_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(name: &str, xml: &str) -> Document {
        Document::new(name, Tree::parse(xml).unwrap())
    }

    #[test]
    fn uniqueness_enforced() {
        let mut s = DocStore::new();
        s.insert(doc("d1", "<a/>")).unwrap();
        let e = s.insert(doc("d1", "<b/>")).unwrap_err();
        assert!(matches!(e, XmlError::DuplicateDocument(_)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&"d1".into()).unwrap().tree().serialize(), "<a/>");
    }

    #[test]
    fn replace_overrides() {
        let mut s = DocStore::new();
        s.insert(doc("d1", "<a/>")).unwrap();
        s.insert_or_replace(doc("d1", "<b/>"));
        assert_eq!(s.get(&"d1".into()).unwrap().tree().serialize(), "<b/>");
    }

    #[test]
    fn require_errors() {
        let mut s = DocStore::new();
        assert!(matches!(
            s.require(&"nope".into()),
            Err(XmlError::NoSuchDocument(_))
        ));
        assert!(s.require_mut(&"nope".into()).is_err());
        s.insert(doc("d", "<a/>")).unwrap();
        assert!(s.require(&"d".into()).is_ok());
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut s = DocStore::new();
        s.insert(doc("zz", "<a/>")).unwrap();
        s.insert(doc("aa", "<a/>")).unwrap();
        let names: Vec<_> = s.names().map(|n| n.to_string()).collect();
        assert_eq!(names, ["aa", "zz"]);
    }

    #[test]
    fn removal() {
        let mut s = DocStore::new();
        s.insert(doc("d", "<a><b>xy</b></a>")).unwrap();
        assert!(!s.is_empty());
        let d = s.remove(&"d".into()).unwrap();
        assert_eq!(d.into_tree().serialize(), "<a><b>xy</b></a>");
        assert!(s.is_empty());
    }

    #[test]
    fn node_lookup_validates() {
        let mut s = DocStore::new();
        s.insert(doc("d", "<a><b/></a>")).unwrap();
        use crate::tree::NodeId;
        assert!(s.node(&"d".into(), NodeId::from_index(0).unwrap()).is_ok());
        assert!(s
            .node(&"d".into(), NodeId::from_index(99).unwrap())
            .is_err());
        assert!(s.node(&"x".into(), NodeId::from_index(0).unwrap()).is_err());
    }

    #[test]
    fn document_mutation() {
        let mut d = doc("d", "<a/>");
        let r = d.tree().root();
        d.tree_mut().add_text_element(r, "b", "1");
        assert_eq!(d.tree().serialize(), "<a><b>1</b></a>");
        assert_eq!(d.name().as_str(), "d");
    }

    #[test]
    fn stamp_moves_with_every_mutable_borrow_and_replacement() {
        let mut s = DocStore::new();
        s.insert(doc("d", "<a/>")).unwrap();
        let v0 = s.get(&"d".into()).unwrap().stamp();
        assert_eq!(s.get(&"d".into()).unwrap().stamp(), v0, "reads keep it");
        let d = s.get_mut(&"d".into()).unwrap();
        let r = d.tree().root();
        d.tree_mut().add_element(r, "b");
        let v1 = d.stamp();
        assert!(v1 > v0, "monotone");
        assert_eq!(d.clone().stamp(), v1, "a clone is the same tree");
        // Replaced, or removed and installed again: never an old stamp.
        s.insert_or_replace(doc("d", "<a><b/></a>"));
        let v2 = s.get(&"d".into()).unwrap().stamp();
        assert!(v2 > v1);
        s.remove(&"d".into()).unwrap();
        s.insert(doc("d", "<a><b/></a>")).unwrap();
        assert!(s.get(&"d".into()).unwrap().stamp() > v2);
    }

    #[test]
    fn store_stamp_moves_with_every_door_that_succeeds() {
        let mut s = DocStore::new();
        assert_eq!(s.stamp(), 0, "no door moved it yet");
        let mut last = s.stamp();
        let mut moved = |s: &DocStore, how: &str| {
            assert!(s.stamp() > last, "{how} moves the stamp");
            last = s.stamp();
        };
        s.insert(doc("d", "<a/>")).unwrap();
        moved(&s, "insert");
        s.insert_or_replace(doc("d", "<b/>"));
        moved(&s, "insert_or_replace");
        s.get_mut(&"d".into()).unwrap();
        moved(&s, "get_mut");
        s.require_mut(&"d".into()).unwrap();
        moved(&s, "require_mut");
        let older = s.clone();
        assert_eq!(older.stamp(), s.stamp(), "a clone is the same store");
        s.remove(&"d".into()).unwrap();
        moved(&s, "remove");
        // Failed doors and reads keep it.
        s.insert(doc("e", "<a/>")).unwrap();
        let held = s.stamp();
        assert!(s.insert(doc("e", "<b/>")).is_err());
        assert!(s.get_mut(&"x".into()).is_none());
        assert!(s.require_mut(&"x".into()).is_err());
        assert!(s.remove(&"x".into()).is_none());
        let _ = (s.get(&"e".into()), s.require(&"e".into()), s.len());
        assert_eq!(s.stamp(), held);
        // An older copy put back reads as changed.
        s = older;
        assert_ne!(s.stamp(), held);
    }

    #[test]
    fn document_handles_are_snapshots() {
        let mut d = doc("d", "<a><b/></a>");
        let f = d.tree().clone();
        let b = d.tree().first_child_labeled(d.tree().root(), "b").unwrap();
        let fb = d.tree().subtree(b).unwrap();
        // mutate the document: the handles keep the old snapshot
        let r = d.tree().root();
        d.tree_mut().add_text_element(r, "c", "2");
        assert_eq!(f.serialize(), "<a><b/></a>");
        assert_eq!(fb.serialize(), "<b/>");
        assert!(d.tree().serialize().contains("<c>2</c>"));
    }
}
