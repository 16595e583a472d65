//! What `CopyStats` says trees built side by side copied: exactly what a
//! graft per copy records, counted once, when the builder freezes its
//! arena.
//!
//! `CopyStats` counters are process-wide, so this must be the only test
//! in its binary: tests running on parallel threads would land in the
//! same delta.

use axml_xml::stats::CopyStats;
use axml_xml::tree::{Builder, Tree};

/// A catalog of `n` packages, each with a version and a dependency.
fn catalog(n: usize) -> Tree {
    let mut t = Tree::new("catalog");
    let root = t.root();
    for i in 0..n {
        let pkg = t.add_element(root, "pkg");
        t.set_attr(pkg, "name", format!("pkg-{i}")).unwrap();
        t.add_text_element(pkg, "version", format!("{}.{}", i % 7, i % 13));
        let dep = t.add_text_element(pkg, "dep", format!("lib{} >= 1", i % 97));
        t.set_attr(dep, "kind", "runtime").unwrap();
    }
    t
}

/// The counters' growth while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (CopyStats, T) {
    let before = CopyStats::snapshot();
    let out = f();
    (CopyStats::snapshot().delta_since(&before), out)
}

#[test]
fn a_builder_counts_what_grafting_each_copy_would_once_it_freezes() {
    let doc = catalog(300);
    let pkgs = doc.children(doc.root()).to_vec();
    // each answer copies its package and the package's dependency
    let (grafted, alone) = counted(|| {
        let answer = |&pkg: &_| {
            let mut t = Tree::new("answer");
            let r = t.root();
            t.graft(r, &doc, pkg).unwrap();
            t.graft(r, &doc, doc.children(pkg)[1]).unwrap();
            t
        };
        pkgs.iter().map(answer).collect::<Vec<_>>()
    });
    assert!(grafted.nodes_copied > 0 && grafted.bytes_copied > 0);

    let mut b = Builder::new();
    let (copying, ()) = counted(|| {
        for &pkg in &pkgs {
            let r = b.add_root("answer");
            b.copy(r, &doc, pkg);
            b.copy(r, &doc, doc.children(pkg)[1]);
        }
    });
    assert_eq!(copying, CopyStats::default(), "a copy is counted at finish");
    let (frozen, built) = counted(|| b.finish());
    assert_eq!(frozen, grafted);
    assert_eq!(built, alone);
}
