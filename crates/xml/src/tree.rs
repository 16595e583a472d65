//! Arena-backed unranked, unordered XML trees with copy-on-write sharing.
//!
//! The paper (§2.1) views an XML tree as *unranked and unordered*: each
//! internal node has a label from `L` and an identifier from `N`, each leaf
//! a label (we also model text leaves, which the paper elides). A [`Tree`]
//! holds its nodes in a single arena; a [`NodeId`] is an index into that
//! arena. This gives O(1) navigation and stable identifiers — the paper's
//! `n` in `n@p` — for the lifetime of the tree.
//!
//! ## Zero-copy handles
//!
//! The arena lives behind an `Arc`, which makes every [`Tree`] value a
//! cheap **handle**: `Clone` is a reference-count bump, [`Tree::subtree`]
//! returns an O(1) view of a subtree, and mutation materializes a
//! private copy of the arena only when it is actually shared
//! (copy-on-write). Transfers, rewrites and pattern matches therefore move
//! subtrees by handle; the only deep copies left are explicit
//! ([`Tree::graft`]) or forced by mutating a shared arena. All copies and shares are accounted in [`crate::stats`].
//!
//! ## Allocation-lean nodes
//!
//! A [`Node`] is one 64-byte slot. Its child list holds up to 3 ids
//! inline and moves to the heap only beyond that, and its text and
//! attribute values are `Arc<str>`. So even a deep copy — a graft, or the
//! copy-on-write copy of an arena — copies slots and bumps string counts;
//! a node of 3 children or fewer and its strings cost no heap block of
//! their own. [`Tree::new`] makes room for 4 nodes, so a small tree built
//! on its own never regrows its arena.
//!
//! ## Answers built side by side
//!
//! The trees one query evaluation constructs are built in one arena by a
//! [`Builder`]: an owned `Vec` that no handle shares yet, so a push pays
//! no copy-on-write check and forgets no memo. When the evaluation ends,
//! the arena goes behind one `Arc` and every answer is an O(1) handle onto
//! it, the first at slot 0. Its copies are counted once, with the totals a
//! graft per copy would record. A builder's copy and [`Tree::graft`] are
//! one copy loop.
//!
//! Sibling *storage* order is preserved (it makes serialization
//! deterministic and debugging sane) but carries no semantics: equivalence
//! ([`crate::equiv`]) and query evaluation treat children as a multiset.

use crate::error::{XmlError, XmlResult};
use crate::small::Small;
use crate::symbol::Label;
use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Identifier of a node inside one [`Tree`] — an element of the paper's
/// node-id set `N`, scoped to the owning document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild an id from a raw index — used when decoding node addresses
    /// received over the network, where the index is attacker- (or at
    /// least peer-) controlled. An index that does not fit the `u32`
    /// arena space is a typed error, not a panic.
    pub fn from_index(i: usize) -> XmlResult<Self> {
        match u32::try_from(i) {
            Ok(v) => Ok(NodeId(v)),
            Err(_) => Err(XmlError::IndexOverflow { index: i as u64 }),
        }
    }

    /// Internal constructor for freshly allocated arena slots, whose
    /// indices are bounded by the allocation path itself.
    fn from_arena(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("arena exceeds u32::MAX nodes"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a node is: an element with a label and attributes, or a text leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// An internal (or leaf) element node: `<label a="v">…</label>`.
    Element {
        /// The element label from `L`.
        label: Label,
        /// Attributes in insertion order. Names are unique. A value is
        /// shared, so copying it bumps a count.
        attrs: Vec<(Label, Arc<str>)>,
    },
    /// A text leaf, shared like an attribute value.
    Text(Arc<str>),
}

/// Ids a node keeps inline: as many as fit in a `Vec`'s footprint.
const INLINE_CHILDREN: usize = 3;

/// One node of the arena.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) parent: Option<NodeId>,
    pub(crate) children: Small<NodeId, INLINE_CHILDREN>,
}

// An arena slot is one cache line; a wider child list or kind breaks it.
const _: () = assert!(std::mem::size_of::<Node>() == 64);

impl Node {
    /// A node with no children yet.
    fn new(kind: NodeKind, parent: Option<NodeId>) -> Self {
        Node {
            kind,
            parent,
            children: Small::new(NodeId(0)),
        }
    }

    /// The node's kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The node's parent, if it is not the root (or detached). For
    /// subtree views prefer [`Tree::parent`], which clips at the view
    /// root.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// The node's children, in storage order.
    pub fn children(&self) -> &[NodeId] {
        self.children.as_slice()
    }

    /// The element label, if this is an element.
    pub fn label(&self) -> Option<Label> {
        match &self.kind {
            NodeKind::Element { label, .. } => Some(*label),
            NodeKind::Text(_) => None,
        }
    }

    /// The text content, if this is a text leaf.
    pub fn as_text(&self) -> Option<&str> {
        match &self.kind {
            NodeKind::Text(t) => Some(t),
            NodeKind::Element { .. } => None,
        }
    }

    /// True for element nodes.
    pub fn is_element(&self) -> bool {
        matches!(self.kind, NodeKind::Element { .. })
    }
}

/// Approximate heap footprint of one node (arena slot + label/attr/text
/// payloads + child-index vector) — the unit of the copy/share counters.
pub(crate) fn node_heap_bytes(n: &Node) -> u64 {
    let base = std::mem::size_of::<Node>() as u64 + std::mem::size_of_val(n.children()) as u64;
    match &n.kind {
        NodeKind::Element { label, attrs } => {
            base + label.len() as u64
                + attrs.iter().map(|(k, v)| k.len() + v.len()).sum::<usize>() as u64
        }
        NodeKind::Text(t) => base + t.len() as u64,
    }
}

/// The node arena, plus three facts memoized about it. Two are about the
/// subtree at slot 0 — where [`Tree::new`] puts the root, so the whole of
/// every handle that is not a subtree view: its serialized size, and its
/// serialized bytes once it has been rendered twice. The third is the
/// nodes that recent scans found ([`Tree::memo_scan`]), each under the
/// node it started from and a key of the scan's own.
/// An arena is immutable while it is shared; [`Tree::nodes_mut`], the one
/// way to change it, forgets all three, and a copy-on-write copy starts
/// without any.
pub(crate) struct Arena {
    nodes: Vec<Node>,
    /// 0 while unknown (no serialization is empty).
    root_size: AtomicUsize,
    /// Set by the first render of slot 0's subtree.
    root_rendered: AtomicBool,
    /// The bytes of that subtree, kept by its second render.
    root_bytes: OnceLock<Box<[u8]>>,
    /// The last `SCANS_KEPT` scans, oldest first.
    scans: Mutex<Vec<Scan>>,
}

/// How many scans an arena keeps; a new one evicts the oldest.
const SCANS_KEPT: usize = 16;

/// One scan kept on an arena: where it started, what it was, what it found.
struct Scan {
    start: NodeId,
    key: Box<dyn Any + Send + Sync>,
    found: Arc<[NodeId]>,
}

/// What [`Tree::memo_scan`] tells kept scans apart by. Keys come from
/// queries other peers send, so a kept scan is found only by a key that
/// equals it — never by a digest alone.
pub trait ScanKey {
    /// Is `kept`, the key an earlier scan was kept under, equal to this one?
    fn is(&self, kept: &(dyn Any + Send + Sync)) -> bool;
    /// This key, owned, to keep beside the scan it names.
    fn keep(&self) -> Box<dyn Any + Send + Sync>;
}

impl Arena {
    fn new(nodes: Vec<Node>) -> Self {
        Arena {
            nodes,
            root_size: AtomicUsize::new(0),
            root_rendered: AtomicBool::new(false),
            root_bytes: OnceLock::new(),
            scans: Mutex::new(Vec::new()),
        }
    }

    /// The kept scans, whatever a thread that panicked holding them left.
    fn scans(&self) -> std::sync::MutexGuard<'_, Vec<Scan>> {
        self.scans.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for Arena {
    fn clone(&self) -> Self {
        Arena::new(self.nodes.clone())
    }
}

impl Deref for Arena {
    type Target = [Node];

    fn deref(&self) -> &[Node] {
        &self.nodes
    }
}

/// An unranked, unordered XML tree: a copy-on-write handle onto a shared
/// node arena, plus the root the handle is scoped to.
pub struct Tree {
    pub(crate) nodes: Arc<Arena>,
    root: NodeId,
    /// Approximate heap bytes of the referenced arena, maintained
    /// incrementally so clone/COW accounting stays O(1).
    pub(crate) arena_bytes: u64,
}

impl Clone for Tree {
    /// O(1): bumps the arena's reference count. The bytes a pre-COW
    /// deep clone would have copied are credited to
    /// [`crate::stats::CopyStats::bytes_shared`].
    fn clone(&self) -> Self {
        crate::stats::record_share(self.nodes.len() as u64, self.arena_bytes);
        Tree {
            nodes: Arc::clone(&self.nodes),
            root: self.root,
            arena_bytes: self.arena_bytes,
        }
    }
}

impl Tree {
    /// Create a tree whose root is an element labeled `root_label`.
    pub fn new(root_label: impl Into<Label>) -> Self {
        let kind = NodeKind::Element {
            label: root_label.into(),
            attrs: Vec::new(),
        };
        let root = Node::new(kind, None);
        let bytes = node_heap_bytes(&root);
        // room for a few nodes: a small answer never grows its arena
        let mut nodes = Vec::with_capacity(4);
        nodes.push(root);
        Tree {
            nodes: Arc::new(Arena::new(nodes)),
            root: NodeId(0),
            arena_bytes: bytes,
        }
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Number of nodes reachable from the root.
    pub fn live_len(&self) -> usize {
        self.subtree_size(self.root)
    }

    /// Access a node. Panics on an id not from this tree.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable arena access: materializes a private copy first if the
    /// arena is shared (copy-on-write). Every mutation comes through
    /// here, so this is also where the memoized size, bytes and scans are
    /// forgotten.
    fn nodes_mut(&mut self) -> &mut Vec<Node> {
        if Arc::strong_count(&self.nodes) > 1 {
            crate::stats::record_cow();
            crate::stats::record_copy(self.nodes.len() as u64, self.arena_bytes);
        }
        let arena = Arc::make_mut(&mut self.nodes);
        *arena.root_size.get_mut() = 0;
        // only a rendered arena can hold bytes
        if std::mem::take(arena.root_rendered.get_mut()) {
            arena.root_bytes.take();
        }
        arena
            .scans
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        &mut arena.nodes
    }

    /// The nodes `scan` finds from this handle's root, kept on the arena
    /// while it is unchanged: a later call with the same root and a key
    /// equal to `key` — through this handle or any other sharing the
    /// arena — gets them without scanning. `scan` must answer only from
    /// the nodes at and below the root, the same every time `key` is
    /// equal; it runs without the arena's lock held, and an error it
    /// returns keeps nothing.
    ///
    /// An arena keeps its last 16 scans, forgets them all when it
    /// changes, and a copy-on-write copy starts without them.
    pub fn memo_scan<E>(
        &self,
        key: &dyn ScanKey,
        scan: impl FnOnce() -> Result<Arc<[NodeId]>, E>,
    ) -> Result<Arc<[NodeId]>, E> {
        let start = self.root;
        let kept = |scans: &[Scan]| {
            let scan = scans.iter().find(|s| s.start == start && key.is(&*s.key));
            scan.map(|s| Arc::clone(&s.found))
        };
        if let Some(found) = kept(&self.nodes.scans()) {
            return Ok(found);
        }
        let found = scan()?;
        let mut scans = self.nodes.scans();
        // a thread that raced this one may have kept the same scan
        if let Some(theirs) = kept(&scans) {
            return Ok(theirs);
        }
        if scans.len() == SCANS_KEPT {
            scans.remove(0);
        }
        scans.push(Scan {
            start,
            key: key.keep(),
            found: Arc::clone(&found),
        });
        Ok(found)
    }

    /// The memoized serialized size of the subtree rooted at `id`: known
    /// only for slot 0, and only once [`Tree::memoize_size`] has seen it
    /// since the arena last changed.
    pub(crate) fn memoized_size(&self, id: NodeId) -> Option<usize> {
        if id.0 != 0 {
            return None;
        }
        // Relaxed: the value is a pure function of the (immutable) arena,
        // so racing writers store the same number.
        match self.nodes.root_size.load(Ordering::Relaxed) {
            0 => None,
            size => Some(size),
        }
    }

    /// Remember `size` as the serialized size of the subtree rooted at
    /// `id`, if that is the one subtree the arena keeps a size for.
    pub(crate) fn memoize_size(&self, id: NodeId, size: usize) {
        if id.0 == 0 {
            self.nodes.root_size.store(size, Ordering::Relaxed);
        }
    }

    /// The memoized serialization of the subtree rooted at `id`: kept
    /// only for slot 0, and only once [`Tree::memoize_bytes`] has seen it
    /// rendered twice since the arena last changed.
    pub(crate) fn memoized_bytes(&self, id: NodeId) -> Option<&[u8]> {
        if id.0 != 0 {
            return None;
        }
        self.nodes.root_bytes.get().map(|bytes| &bytes[..])
    }

    /// Note that `bytes`, the serialization of the subtree rooted at
    /// `id`, were just rendered. For slot 0 the first render only notes
    /// that it happened and the second keeps a copy, so a document
    /// rendered once costs no memory.
    pub(crate) fn memoize_bytes(&self, id: NodeId, bytes: &[u8]) {
        // Relaxed: the flag only counts renders; the bytes, a pure
        // function of the (immutable) arena, are published by the OnceLock.
        if id.0 == 0 && self.nodes.root_rendered.swap(true, Ordering::Relaxed) {
            self.nodes.root_bytes.get_or_init(|| bytes.into());
        }
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        let idx = id.index();
        &mut self.nodes_mut()[idx]
    }

    /// Is `id` a valid index in this arena?
    pub fn contains(&self, id: NodeId) -> bool {
        id.index() < self.nodes.len()
    }

    /// The element label of `id`, or `None` for text nodes.
    pub fn label(&self, id: NodeId) -> Option<Label> {
        self.node(id).label()
    }

    /// Children of `id`, in storage order.
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        self.node(id).children()
    }

    /// Parent of `id`, clipped at this handle's root: the root of a
    /// subtree view reports no parent even though the shared arena keeps
    /// the original link (re-sharing the arena must not leak structure
    /// above the view).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        if id == self.root {
            None
        } else {
            self.node(id).parent
        }
    }

    /// Push a fresh node of `kind` as the last child of `parent`, linked
    /// both ways on one borrow of the arena.
    fn add_child(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        assert_element(&self.nodes, parent);
        let (id, bytes) = push_new(self.nodes_mut(), parent, kind);
        self.arena_bytes += bytes;
        id
    }

    /// Convenience: allocate and attach an element child, returning its id.
    pub fn add_element(&mut self, parent: NodeId, label: impl Into<Label>) -> NodeId {
        let kind = NodeKind::Element {
            label: label.into(),
            attrs: Vec::new(),
        };
        self.add_child(parent, kind)
    }

    /// Convenience: allocate and attach a text child, returning its id.
    /// Pass a `&str` to make the string once, or an `Arc<str>` to share it.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<Arc<str>>) -> NodeId {
        self.add_child(parent, NodeKind::Text(text.into()))
    }

    /// Convenience: `<label>text</label>` under `parent`.
    pub fn add_text_element(
        &mut self,
        parent: NodeId,
        label: impl Into<Label>,
        text: impl Into<Arc<str>>,
    ) -> NodeId {
        let el = self.add_element(parent, label);
        self.add_text(el, text);
        el
    }

    /// Detach `id` from its parent. The subtree stays in the arena but is
    /// no longer reachable from the root.
    pub fn detach(&mut self, id: NodeId) -> XmlResult<()> {
        if !self.contains(id) {
            return Err(XmlError::InvalidNode { index: id.0 });
        }
        if id == self.root {
            return Err(XmlError::Structure("cannot detach the root".into()));
        }
        if let Some(p) = self.node(id).parent {
            let siblings = &mut self.node_mut(p).children;
            siblings.retain(|&c| c != id);
            self.node_mut(id).parent = None;
        }
        Ok(())
    }

    /// Set an attribute on an element (replacing an existing value).
    pub fn set_attr(
        &mut self,
        id: NodeId,
        name: impl Into<Label>,
        value: impl Into<Arc<str>>,
    ) -> XmlResult<()> {
        let name = name.into();
        let value = value.into();
        if !self.contains(id) {
            return Err(XmlError::InvalidNode { index: id.0 });
        }
        let bytes = put_attr(self.node_mut(id), name, value);
        let (removed, added) = bytes.ok_or(XmlError::NotAnElement { index: id.0 })?;
        self.arena_bytes = self.arena_bytes.saturating_sub(removed) + added;
        Ok(())
    }

    /// Read an attribute value.
    pub fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs
                .iter()
                .find(|(n, _)| n.as_str() == name)
                .map(|(_, v)| &**v),
            NodeKind::Text(_) => None,
        }
    }

    /// All attributes of an element (empty for text nodes).
    pub fn attrs(&self, id: NodeId) -> &[(Label, Arc<str>)] {
        match &self.node(id).kind {
            NodeKind::Element { attrs, .. } => attrs,
            NodeKind::Text(_) => &[],
        }
    }

    /// Concatenated text of all text descendants of `id` (the XPath
    /// `string()` value).
    pub fn text(&self, id: NodeId) -> String {
        self.descendants_with_self(id)
            .filter_map(|n| self.node(n).as_text())
            .collect()
    }

    /// Preorder traversal of the subtree rooted at `id` (including `id`).
    pub fn descendants_with_self(&self, id: NodeId) -> Descendants<'_> {
        Descendants {
            tree: self,
            first: Some(id),
            open: Small::new((id, 0)),
        }
    }

    /// Preorder traversal of the strict descendants of `id`.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        let mut open = Small::new((id, 0));
        open.push((id, 0));
        Descendants {
            tree: self,
            first: None,
            open,
        }
    }

    /// Child elements of `id` with the given label.
    pub fn children_labeled<'a>(
        &'a self,
        id: NodeId,
        label: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.children(id)
            .iter()
            .copied()
            .filter(move |&c| self.label(c).is_some_and(|l| l.as_str() == label))
    }

    /// First child element with the given label.
    pub fn first_child_labeled(&self, id: NodeId, label: &str) -> Option<NodeId> {
        self.children_labeled(id, label).next()
    }

    /// Descendant elements (preorder, excluding `id`) with the given label.
    pub fn descendants_labeled<'a>(
        &'a self,
        id: NodeId,
        label: &'a str,
    ) -> impl Iterator<Item = NodeId> + 'a {
        self.descendants(id)
            .filter(move |&n| self.label(n).is_some_and(|l| l.as_str() == label))
    }

    /// Number of nodes in the subtree rooted at `id`.
    pub(crate) fn subtree_size(&self, id: NodeId) -> usize {
        self.descendants_with_self(id).count()
    }

    /// A zero-copy [`Tree`] handle scoped to the subtree rooted at `id`:
    /// shares the arena, so it is O(1) and keeps the whole arena alive —
    /// the currency for moving subtrees between engine layers within a
    /// peer. The handle is copy-on-write like any other, so its holder
    /// never observes a later mutation of the source (a pinned snapshot).
    /// It counts one [`crate::stats::CopyStats::handle_shares`] and walks
    /// nothing.
    pub fn subtree(&self, id: NodeId) -> XmlResult<Tree> {
        if !self.contains(id) {
            return Err(XmlError::InvalidNode { index: id.0 });
        }
        crate::stats::record_handle_share();
        Ok(Tree {
            nodes: Arc::clone(&self.nodes),
            root: id,
            arena_bytes: self.arena_bytes,
        })
    }

    /// Copy the subtree of `src` rooted at `src_node` under `parent` in
    /// `self`; returns the id of the copied root in `self`.
    ///
    /// This is the materializing operation — node ids are reallocated in
    /// this arena, so the copy is unavoidable. To move a subtree *within*
    /// a peer without copying, pass handles ([`Tree::subtree`]) instead
    /// and graft only at the final sink.
    pub fn graft(&mut self, parent: NodeId, src: &Tree, src_node: NodeId) -> XmlResult<NodeId> {
        if !self.contains(parent) {
            return Err(XmlError::InvalidNode { index: parent.0 });
        }
        if !self.node(parent).is_element() {
            return Err(XmlError::NotAnElement { index: parent.0 });
        }
        let (root, copied, bytes) = copy_subtree(self.nodes_mut(), parent, src, src_node);
        crate::stats::record_copy(copied, bytes);
        // a node's bytes count the links to its children: the copied
        // root's link from `parent` is one more
        self.arena_bytes += bytes + std::mem::size_of::<NodeId>() as u64;
        Ok(root)
    }

    /// Do two handles reference the same arena (structural sharing)?
    pub fn shares_arena_with(&self, other: &Tree) -> bool {
        Arc::ptr_eq(&self.nodes, &other.nodes)
    }
}

/// Trees built side by side in one arena that no handle shares yet — the
/// answers of one evaluation. The arena is a plain owned `Vec`, so a push
/// needs no copy-on-write check and forgets no memo.
/// [`Builder::finish`] puts it behind one `Arc` and hands out one handle
/// per tree, in the order the trees were begun: the first sits at slot 0,
/// so it keeps the arena's size and bytes memos ([`Tree::new`]'s root is
/// there too). The copies ([`Builder::copy`]) are counted in
/// [`crate::stats`] once, by `finish`, with the totals [`Tree::graft`]ing
/// each would record.
///
/// Every method takes ids of this builder's own nodes, and panics on
/// another id, as [`Tree::add_element`] does.
#[derive(Debug, Default)]
pub struct Builder {
    nodes: Vec<Node>,
    roots: Vec<NodeId>,
    /// Heap bytes of the arena, counted as [`Tree`] counts them.
    bytes: u64,
    /// The nodes and heap bytes the copies copied.
    copied: (u64, u64),
}

impl Builder {
    /// An empty builder; it allocates on its first push.
    pub fn new() -> Self {
        Self::default()
    }

    /// Begin a new tree whose root is an element labeled `label`.
    pub fn add_root(&mut self, label: impl Into<Label>) -> NodeId {
        let kind = NodeKind::Element {
            label: label.into(),
            attrs: Vec::new(),
        };
        let root = Node::new(kind, None);
        self.bytes += node_heap_bytes(&root);
        let id = NodeId::from_arena(self.nodes.len());
        self.nodes.push(root);
        self.roots.push(id);
        id
    }

    /// Attach an element child to `parent`, returning its id.
    pub fn add_element(&mut self, parent: NodeId, label: impl Into<Label>) -> NodeId {
        let kind = NodeKind::Element {
            label: label.into(),
            attrs: Vec::new(),
        };
        self.add_child(parent, kind)
    }

    /// Attach a text child to `parent`, returning its id. Pass an
    /// `Arc<str>` to share the string.
    pub fn add_text(&mut self, parent: NodeId, text: impl Into<Arc<str>>) -> NodeId {
        self.add_child(parent, NodeKind::Text(text.into()))
    }

    fn add_child(&mut self, parent: NodeId, kind: NodeKind) -> NodeId {
        assert_element(&self.nodes, parent);
        let (id, bytes) = push_new(&mut self.nodes, parent, kind);
        self.bytes += bytes;
        id
    }

    /// Set an attribute on the element `id` (replacing an existing value).
    pub fn set_attr(&mut self, id: NodeId, name: impl Into<Label>, value: impl Into<Arc<str>>) {
        let bytes = put_attr(&mut self.nodes[id.index()], name.into(), value.into());
        let (removed, added) = bytes.unwrap_or_else(|| panic!("{id} must be an element"));
        self.bytes = self.bytes.saturating_sub(removed) + added;
    }

    /// Copy the subtree of `src` rooted at `src_node` under `parent`, as
    /// [`Tree::graft`] does; returns the id of the copied root.
    pub fn copy(&mut self, parent: NodeId, src: &Tree, src_node: NodeId) -> NodeId {
        assert_element(&self.nodes, parent);
        let (root, copied, bytes) = copy_subtree(&mut self.nodes, parent, src, src_node);
        self.copied.0 += copied;
        self.copied.1 += bytes;
        self.bytes += bytes + std::mem::size_of::<NodeId>() as u64;
        root
    }

    /// Freeze the arena and hand out one handle per tree begun, in order.
    /// Each is O(1), shares the arena and is copy-on-write like any other
    /// handle; each reports the whole arena's heap bytes, so a clone of
    /// one credits [`crate::stats::CopyStats::bytes_shared`] with all of
    /// them.
    pub fn finish(self) -> Vec<Tree> {
        if self.roots.is_empty() {
            return Vec::new();
        }
        let (copied, bytes) = self.copied;
        crate::stats::record_copy(copied, bytes);
        let nodes = Arc::new(Arena::new(self.nodes));
        let tree = |&root: &NodeId| Tree {
            nodes: Arc::clone(&nodes),
            root,
            arena_bytes: self.bytes,
        };
        self.roots.iter().map(tree).collect()
    }
}

/// Panic unless `parent` is an element of `nodes`: only an element takes
/// children.
fn assert_element(nodes: &[Node], parent: NodeId) {
    assert!(
        nodes.get(parent.index()).is_some_and(Node::is_element),
        "parent {parent} must be a valid element"
    );
}

/// Push a fresh node of `kind` as the last child of `parent`; returns its
/// id and the heap bytes it adds to the arena, its parent's link to it
/// included.
fn push_new(nodes: &mut Vec<Node>, parent: NodeId, kind: NodeKind) -> (NodeId, u64) {
    let node = Node::new(kind, Some(parent));
    let bytes = node_heap_bytes(&node) + std::mem::size_of::<NodeId>() as u64;
    (push_child(nodes, node), bytes)
}

/// Set attribute `name` of `node` to `value`, replacing an existing value;
/// returns the heap bytes the node drops and adds, or `None` for a text
/// node.
fn put_attr(node: &mut Node, name: Label, value: Arc<str>) -> Option<(u64, u64)> {
    let NodeKind::Element { attrs, .. } = &mut node.kind else {
        return None;
    };
    let added = name.len() as u64 + value.len() as u64;
    match attrs.iter_mut().find(|(n, _)| *n == name) {
        Some(slot) => {
            let removed = name.len() as u64 + slot.1.len() as u64;
            slot.1 = value;
            Some((removed, added))
        }
        None => {
            attrs.push((name, value));
            Some((0, added))
        }
    }
}

/// Copy the subtree of `src` rooted at `src_node` as the last child of
/// `parent`; returns the copied root, and the nodes and heap bytes copied.
///
/// The copy runs in preorder without a stack: a copy's children so far say
/// which child of its source comes next, and both trees' parent links lead
/// back up. It reserves nothing, so its vectors grow push by push, as
/// building the copy node by node grows them.
fn copy_subtree(
    nodes: &mut Vec<Node>,
    parent: NodeId,
    src: &Tree,
    src_node: NodeId,
) -> (NodeId, u64, u64) {
    let (mut copied, mut bytes) = (1, node_heap_bytes(src.node(src_node)));
    let root = push_copy(nodes, parent, src.node(src_node));
    let (mut from, mut to) = (src_node, root);
    loop {
        if let Some(&child) = src.children(from).get(nodes[to.index()].children().len()) {
            let node = src.node(child);
            copied += 1;
            bytes += node_heap_bytes(node);
            to = push_copy(nodes, to, node);
            from = child;
        } else if from == src_node {
            return (root, copied, bytes);
        } else {
            from = src.node(from).parent.expect("below the copied root");
            to = nodes[to.index()].parent.expect("below the copy");
        }
    }
}

/// Push `node` onto the arena and onto its parent's children.
fn push_child(nodes: &mut Vec<Node>, node: Node) -> NodeId {
    let id = NodeId::from_arena(nodes.len());
    let parent = node.parent.expect("a child has a parent");
    nodes.push(node);
    nodes[parent.index()].children.push(id);
    id
}

/// Push a copy of `src`, without its children, as the last child of `at`.
/// Its strings are shared, not copied. The copy's attributes grow push by
/// push, as `set_attr` grows them, so a copy holds the heap a tree built
/// node by node holds.
fn push_copy(nodes: &mut Vec<Node>, at: NodeId, src: &Node) -> NodeId {
    let kind = match &src.kind {
        NodeKind::Element { label, .. } => NodeKind::Element {
            label: *label,
            attrs: Vec::new(),
        },
        NodeKind::Text(s) => NodeKind::Text(s.clone()),
    };
    let id = push_child(nodes, Node::new(kind, Some(at)));
    if let (NodeKind::Element { attrs: to, .. }, NodeKind::Element { attrs, .. }) =
        (&mut nodes[id.index()].kind, &src.kind)
    {
        for (name, value) in attrs {
            to.push((*name, value.clone()));
        }
    }
    id
}

impl fmt::Debug for Tree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tree({})", self.serialize_node(self.root))
    }
}

impl PartialEq for Tree {
    /// *Ordered* structural equality of the live trees (labels, attributes
    /// and children in storage order). For the AXML model's unordered
    /// equivalence use [`crate::equiv::tree_equiv`] instead.
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.nodes, &other.nodes) && self.root == other.root {
            return true;
        }
        // The preorder of (kind, child count) determines an ordered tree.
        fn shape(t: &Tree) -> impl Iterator<Item = (&NodeKind, usize)> {
            t.descendants_with_self(t.root)
                .map(move |n| (t.node(n).kind(), t.children(n).len()))
        }
        shape(self).eq(shape(other))
    }
}

impl Eq for Tree {}

/// Preorder iterator over a subtree. See [`Tree::descendants_with_self`].
pub struct Descendants<'a> {
    tree: &'a Tree,
    /// The start node, while it is still to be yielded.
    first: Option<NodeId>,
    /// The open nodes with children, each with the index of the child it
    /// yields next: memory grows with depth, not width.
    open: Small<(NodeId, usize), 16>,
}

impl Descendants<'_> {
    /// Yield `id`, opening it if it has children.
    fn enter(&mut self, id: NodeId) -> Option<NodeId> {
        if !self.tree.children(id).is_empty() {
            self.open.push((id, 0));
        }
        Some(id)
    }
}

impl Iterator for Descendants<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if let Some(id) = self.first.take() {
            return self.enter(id);
        }
        // Children are visited in storage order (purely cosmetic: order
        // is non-semantic).
        loop {
            let (id, next) = self.open.items().last_mut()?;
            if let Some(&child) = self.tree.children(*id).get(*next) {
                *next += 1;
                return self.enter(child);
            }
            self.open.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        let mut t = Tree::new("catalog");
        let r = t.root();
        let p1 = t.add_element(r, "pkg");
        t.set_attr(p1, "name", "vim").unwrap();
        t.add_text_element(p1, "version", "9.1");
        let p2 = t.add_element(r, "pkg");
        t.set_attr(p2, "name", "gcc").unwrap();
        t.add_text_element(p2, "version", "13.2");
        t
    }

    #[test]
    fn build_and_navigate() {
        let t = sample();
        let r = t.root();
        assert_eq!(t.label(r).unwrap().as_str(), "catalog");
        assert_eq!(t.children(r).len(), 2);
        let pkgs: Vec<_> = t.children_labeled(r, "pkg").collect();
        assert_eq!(pkgs.len(), 2);
        assert_eq!(t.attr(pkgs[0], "name"), Some("vim"));
        assert_eq!(t.attr(pkgs[1], "name"), Some("gcc"));
        assert_eq!(t.parent(pkgs[0]), Some(r));
        assert_eq!(t.parent(r), None);
    }

    #[test]
    fn text_aggregation() {
        let t = sample();
        let r = t.root();
        assert_eq!(t.text(r), "9.113.2");
        let v = t.descendants_labeled(r, "version").next().unwrap();
        assert_eq!(t.text(v), "9.1");
    }

    #[test]
    fn preorder_counts() {
        let t = sample();
        // catalog, 2×(pkg, version, text) = 7
        assert_eq!(t.subtree_size(t.root()), 7);
        assert_eq!(t.descendants(t.root()).count(), 6);
        let depth = |n| std::iter::successors(Some(n), |&n| t.parent(n)).count();
        assert_eq!(t.descendants_with_self(t.root()).map(depth).max(), Some(4));
    }

    #[test]
    fn descendants_is_the_recursive_preorder() {
        fn preorder(t: &Tree, id: NodeId, out: &mut Vec<NodeId>) {
            out.push(id);
            for &c in t.children(id) {
                preorder(t, c, out);
            }
        }
        // wider than the inline frames, and deeper
        let mut t = sample();
        let mut at = t.root();
        for i in 0..40 {
            at = t.add_element(at, "d");
            t.add_text(at, format!("{i}"));
            for _ in 0..i % 3 {
                t.add_element(at, "leaf");
            }
        }
        for id in [t.root(), NodeId(1), NodeId(8), at] {
            let mut want = Vec::new();
            preorder(&t, id, &mut want);
            assert_eq!(t.descendants_with_self(id).collect::<Vec<_>>(), want);
            assert_eq!(t.descendants(id).collect::<Vec<_>>(), want[1..]);
        }
    }

    #[test]
    fn detach_unlinks_the_subtree() {
        let mut t = sample();
        let r = t.root();
        let pkg = t.first_child_labeled(r, "pkg").unwrap();
        t.detach(pkg).unwrap();
        assert_eq!(t.children(r).len(), 1);
        assert_eq!(t.parent(pkg), None);
        assert_eq!(t.live_len(), 4);
        assert!(t.detach(r).is_err(), "root cannot be detached");
    }

    #[test]
    #[should_panic(expected = "parent n1 must be a valid element")]
    fn adding_under_a_text_node_panics() {
        let mut t = Tree::new("a");
        let r = t.root();
        let txt = t.add_text(r, "hello");
        t.add_element(txt, "e");
    }

    #[test]
    fn graft_copies_subtree() {
        let src = sample();
        let mut dst = Tree::new("mirror");
        let got = dst.graft(dst.root(), &src, src.root()).unwrap();
        assert_eq!(dst.label(got).unwrap().as_str(), "catalog");
        assert_eq!(dst.subtree_size(dst.root()), 8);
        // copied in preorder: the copy's nodes are numbered as the source's
        let ids: Vec<NodeId> = dst.descendants_with_self(got).collect();
        assert_eq!(ids, (1..8).map(NodeId).collect::<Vec<_>>());
        assert_eq!(dst.serialize_node(got), src.serialize());
        // grafting under a text node fails
        let txt = dst.add_text(dst.root(), "x");
        assert!(dst.graft(txt, &src, src.root()).is_err());
    }

    #[test]
    fn set_attr_replaces() {
        let mut t = Tree::new("a");
        let r = t.root();
        t.set_attr(r, "k", "1").unwrap();
        t.set_attr(r, "k", "2").unwrap();
        assert_eq!(t.attr(r, "k"), Some("2"));
        assert_eq!(t.attrs(r).len(), 1);
        let txt = t.add_text(r, "x");
        assert!(t.set_attr(txt, "k", "v").is_err());
        assert!(t.attr(txt, "k").is_none());
        assert!(t.attrs(txt).is_empty());
    }

    /// `<big name rank>` answers for three of `src`'s packages, each with a
    /// copy of its version and a note: built side by side, and each built
    /// on its own with `Tree::new`, `set_attr`, `graft` and `add_element`.
    fn answers(src: &Tree) -> (Vec<Tree>, Vec<Tree>) {
        let pkgs = src.children(src.root()).iter().cycle().take(3);
        let (mut b, mut alone) = (Builder::new(), Vec::new());
        for (i, &pkg) in pkgs.enumerate() {
            let name = src.attr(pkg, "name").unwrap();
            let version = src.first_child_labeled(pkg, "version").unwrap();
            let r = b.add_root("big");
            b.set_attr(r, "name", name);
            b.set_attr(r, "rank", "?");
            b.set_attr(r, "rank", i.to_string());
            let copy = b.copy(r, src, version);
            assert_eq!(b.nodes[copy.index()].label(), src.label(version));
            let note = b.add_element(r, "note");
            b.add_text(note, "built");

            let mut t = Tree::new("big");
            let tr = t.root();
            t.set_attr(tr, "name", name).unwrap();
            t.set_attr(tr, "rank", "?").unwrap();
            t.set_attr(tr, "rank", i.to_string()).unwrap();
            t.graft(tr, src, version).unwrap();
            let note = t.add_element(tr, "note");
            t.add_text(note, "built");
            alone.push(t);
        }
        (b.finish(), alone)
    }

    #[test]
    fn trees_built_side_by_side_are_handles_of_one_arena() {
        let src = sample();
        let (built, alone) = answers(&src);
        // in order, each equal to the tree built on its own
        assert_eq!(built, alone);
        assert!(built.iter().all(|t| t.shares_arena_with(&built[0])));
        assert!(!built[0].shares_arena_with(&src));
        assert_eq!(built[0].root(), NodeId(0));
        assert!(built.iter().all(|t| t.parent(t.root()).is_none()));
        // each handle counts the whole arena: the trees' own bytes, summed
        let bytes: u64 = alone.iter().map(|t| t.arena_bytes).sum();
        assert!(built.iter().all(|t| t.arena_bytes == bytes), "{bytes}");
        // the first sits at slot 0, which keeps the size memo
        let size = built[0].serialized_size();
        assert_eq!(size, alone[0].serialize().len());
        assert_eq!(built[0].memoized_size(NodeId(0)), Some(size));
        assert_eq!(built[1].serialized_size(), alone[1].serialize().len());
        // nothing begun, nothing built
        assert!(Builder::new().finish().is_empty());
    }

    #[test]
    fn a_write_to_a_built_tree_copies_on_write() {
        let src = sample();
        let source = src.serialize();
        let (mut built, alone) = answers(&src);
        let r = built[1].root();
        built[1].set_attr(r, "name", "changed").unwrap();
        assert_eq!(built[1].attr(r, "name"), Some("changed"));
        assert!(!built[1].shares_arena_with(&built[0]));
        assert!(built[0].shares_arena_with(&built[2]));
        assert_eq!([&built[0], &built[2]], [&alone[0], &alone[2]]);
        assert_eq!(src.serialize(), source);
    }

    #[test]
    #[should_panic(expected = "n1 must be an element")]
    fn a_builder_sets_attributes_on_elements_only() {
        let mut b = Builder::new();
        let r = b.add_root("a");
        let text = b.add_text(r, "t");
        b.set_attr(text, "k", "v");
    }

    // ---- zero-copy handle semantics -----------------------------------

    #[test]
    fn clone_is_shared_until_mutation() {
        let t = sample();
        let before = t.serialize();
        let mut c = t.clone();
        assert!(t.shares_arena_with(&c));
        assert_eq!(c.serialize(), before);
        // Mutation of the clone materializes a private arena…
        let r = c.root();
        c.add_element(r, "extra");
        assert!(!t.shares_arena_with(&c));
        // …and the original is untouched.
        assert_eq!(t.serialize(), before);
        assert!(c.serialize().contains("<extra/>"));
    }

    #[test]
    fn subtree_view_is_zero_copy() {
        let t = sample();
        let pkg = t.first_child_labeled(t.root(), "pkg").unwrap();
        let view = t.subtree(pkg).unwrap();
        assert!(view.shares_arena_with(&t));
        assert_eq!(view.root(), pkg);
        assert_eq!(view.serialize(), t.serialize_node(pkg));
        // the view root reports no parent even though the arena has one
        assert_eq!(view.parent(view.root()), None);
        assert_eq!(view.live_len(), 3);
        // equality against a compact copy
        assert_eq!(view, Tree::parse(&t.serialize_node(pkg)).unwrap());
        // invalid ids are typed errors
        assert!(t.subtree(NodeId(999)).is_err());
    }

    #[test]
    fn mutating_a_view_leaves_the_source_alone() {
        let t = sample();
        let pkg = t.first_child_labeled(t.root(), "pkg").unwrap();
        let mut view = t.subtree(pkg).unwrap();
        let before = t.serialize();
        let vr = view.root();
        view.add_text_element(vr, "arch", "x86_64");
        assert!(!view.shares_arena_with(&t));
        assert_eq!(t.serialize(), before);
        assert!(view.serialize().contains("arch"));
    }

    #[test]
    fn grafting_a_view_counts_one_copy() {
        use crate::stats::CopyStats;
        let t = sample();
        let pkg = t.first_child_labeled(t.root(), "pkg").unwrap();
        let view = t.subtree(pkg).unwrap();
        let s0 = CopyStats::snapshot();
        let mut dst = Tree::new("mirror");
        let r = dst.root();
        let got = dst.graft(r, &view, view.root()).unwrap();
        assert_eq!(dst.serialize_node(got), t.serialize_node(pkg));
        // Counters are process-wide, so parallel tests may add to the
        // delta; assert the monotone lower bound only (the view has 3 nodes).
        let d = CopyStats::snapshot().delta_since(&s0);
        assert!(d.nodes_copied >= 3, "nodes_copied = {}", d.nodes_copied);
        assert!(d.bytes_copied > 0);
    }

    /// A scan key for tests: a name.
    struct Named(&'static str);

    impl ScanKey for Named {
        fn is(&self, kept: &(dyn Any + Send + Sync)) -> bool {
            kept.downcast_ref::<&str>() == Some(&self.0)
        }

        fn keep(&self) -> Box<dyn Any + Send + Sync> {
            Box::new(self.0)
        }
    }

    /// Whether `memo_scan` of `key` on `t` scanned (the scan finds the
    /// root's children).
    fn scans(t: &Tree, key: &'static str) -> bool {
        let mut ran = false;
        let found = t.memo_scan(&Named(key), || {
            ran = true;
            Ok::<_, ()>(t.children(t.root()).into())
        });
        assert_eq!(found.unwrap()[..], *t.children(t.root()));
        ran
    }

    #[test]
    fn a_scan_is_kept_by_start_and_key() {
        let t = sample();
        assert!(scans(&t, "a"), "the first scan scans");
        assert!(!scans(&t, "a"), "…and is kept");
        let whole = t.subtree(t.root()).unwrap();
        assert!(!scans(&whole, "a"), "…for every handle of the arena");
        assert!(scans(&t, "b"), "another key scans");
        let pkg = t.first_child_labeled(t.root(), "pkg").unwrap();
        let view = t.subtree(pkg).unwrap();
        assert!(scans(&view, "a"), "another start scans");
        assert!(!scans(&view, "a"));
        // an error keeps nothing
        assert_eq!(t.memo_scan(&Named("c"), || Err("no")), Err("no"));
        assert!(scans(&t, "c"));
        // sixteen newer keys evict the oldest
        let keys = ["k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7"];
        let more = ["k8", "k9", "ka", "kb", "kc", "kd", "ke", "kf"];
        for key in keys.iter().chain(&more) {
            assert!(scans(&t, key));
        }
        assert!(scans(&t, "a"), "evicted");
        assert!(!scans(&t, "kf"));
    }

    /// Every mutating API forgets the memoized size, bytes and scans — on
    /// the handle's own arena, or on the private copy it makes of a shared
    /// one, whose other holders keep theirs.
    #[test]
    fn every_mutation_forgets_the_memos() {
        // (the tree, its root, its first `pkg`)
        type Mutation = Box<dyn Fn(&mut Tree, NodeId, NodeId)>;
        let src = Tree::parse("<x k=\"&lt;\">t &amp; u</x>").unwrap();
        let mutations: Vec<(&str, Mutation)> = vec![
            (
                "add_element",
                Box::new(|t, r, _| {
                    t.add_element(r, "e");
                }),
            ),
            (
                "add_text",
                Box::new(|t, r, _| {
                    t.add_text(r, "a<b");
                }),
            ),
            (
                "add_text_element",
                Box::new(|t, r, _| {
                    t.add_text_element(r, "v", "1&2");
                }),
            ),
            ("detach", Box::new(|t, _, p| t.detach(p).unwrap())),
            (
                "set_attr",
                Box::new(|t, _, p| t.set_attr(p, "name", "\"q\"").unwrap()),
            ),
            (
                "set_attr (new)",
                Box::new(|t, _, p| t.set_attr(p, "arch", "x86").unwrap()),
            ),
            (
                "graft",
                Box::new(move |t, r, _| {
                    t.graft(r, &src, src.root()).unwrap();
                }),
            ),
        ];
        for (name, mutate) in &mutations {
            for shared in [false, true] {
                let mut t = sample();
                let (root, pkg) = (t.root(), t.first_child_labeled(t.root(), "pkg").unwrap());
                let before = t.serialized_size();
                assert_eq!(t.memoized_size(root), Some(before), "{name}: memo seeded");
                let bytes = t.serialize().into_bytes();
                t.serialize_into(&mut Vec::new());
                t.serialize_into(&mut Vec::new());
                assert_eq!(t.memoized_bytes(root), Some(&bytes[..]), "{name}: kept");
                assert!(scans(&t, "s") && !scans(&t, "s"), "{name}: scan kept");
                let holder = shared.then(|| t.clone());
                mutate(&mut t, root, pkg);
                assert_eq!(t.memoized_size(root), None, "{name} shared={shared}");
                assert_eq!(t.memoized_bytes(root), None, "{name} shared={shared}");
                assert!(scans(&t, "s"), "{name} shared={shared}: scan forgotten");
                assert_eq!(t.serialized_size(), t.serialize().len(), "{name}");
                assert_eq!(t.memoized_size(root), Some(t.serialize().len()));
                if let Some(h) = holder {
                    assert_eq!(h.memoized_size(root), Some(before), "{name}: holder");
                    assert_eq!(h.memoized_bytes(root), Some(&bytes[..]), "{name}: holder");
                    assert!(!scans(&h, "s"), "{name}: holder");
                    assert_eq!(h.serialize().len(), before);
                }
            }
        }
        // A subtree view never reads or seeds the arena's one memo.
        let t = sample();
        let pkg = t.first_child_labeled(t.root(), "pkg").unwrap();
        let view = t.subtree(pkg).unwrap();
        assert_eq!(view.serialized_size(), view.serialize().len());
        assert_eq!(t.memoized_size(t.root()), None);
        assert_eq!(t.serialized_size(), t.serialize().len());
        assert_eq!(view.memoized_size(t.root()), Some(t.serialize().len()));
    }

    #[test]
    fn from_index_is_fallible() {
        assert_eq!(NodeId::from_index(7).unwrap(), NodeId(7));
        let too_big = u32::MAX as usize + 1;
        assert!(matches!(
            NodeId::from_index(too_big),
            Err(XmlError::IndexOverflow { .. })
        ));
    }

    #[test]
    fn copy_counters_account_clone_and_cow() {
        use crate::stats::CopyStats;
        let t = sample();
        let s0 = CopyStats::snapshot();
        let mut c = t.clone(); // shared: counts as avoided copy

        // Counters are process-wide, so parallel tests may add to the
        // delta; assert monotone lower bounds only.
        let s1 = CopyStats::snapshot().delta_since(&s0);
        assert!(s1.nodes_shared >= 7, "nodes_shared = {}", s1.nodes_shared);
        let r = c.root();
        c.add_element(r, "extra"); // forces COW materialization
        let s2 = CopyStats::snapshot().delta_since(&s0);
        assert!(s2.cow_materializations >= 1);
        assert!(s2.nodes_copied >= 7, "nodes_copied = {}", s2.nodes_copied);
        // keep `t` alive across the mutation so the arena stays shared
        // (otherwise the clone above is the sole owner and no COW fires)
        assert_eq!(t.subtree_size(t.root()), 7);
    }
}
