//! What `CopyStats` says a view and a graft cost, exactly: a view is one
//! handle share and no bytes; a graft's copy is the nodes and heap bytes
//! of the subtree it copies — what a whole-arena handle clone of the same
//! subtree, parsed on its own, credits as shared.
//!
//! `CopyStats` counters are process-wide, so this must be the only test
//! in its binary: tests running on parallel threads would land in the
//! same delta.

use axml_xml::stats::CopyStats;
use axml_xml::tree::Tree;

/// A software catalog of `n` packages, each with a version and two
/// dependencies, some text needing escapes.
fn catalog(n: usize) -> Tree {
    let mut t = Tree::new("catalog");
    let root = t.root();
    for i in 0..n {
        let pkg = t.add_element(root, "pkg");
        t.set_attr(pkg, "name", format!("pkg-{i}")).unwrap();
        t.set_attr(pkg, "arch", "x86_64").unwrap();
        t.add_text_element(pkg, "version", format!("{}.{}", i % 7, i % 13));
        for d in 0..2 {
            let dep = t.add_text_element(pkg, "dep", format!("lib{} >= 1 & < 2", (i + d) % 97));
            t.set_attr(dep, "kind", "\"runtime\"").unwrap();
        }
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
fn a_graft_counts_the_bytes_it_copies_and_a_view_counts_one_share() {
    let doc = catalog(1_000);
    let pkgs = doc.children(doc.root()).to_vec();
    for id in [doc.root(), pkgs[0], pkgs[500], pkgs[999]] {
        let (share, view) = counted(|| doc.subtree(id).unwrap());
        let one_share = CopyStats {
            handle_shares: 1,
            ..CopyStats::default()
        };
        assert_eq!(share, one_share, "subtree({id})");

        let compact = Tree::parse(&view.serialize()).unwrap();
        let (clone, _copy) = counted(|| compact.clone());
        assert!(clone.nodes_shared > 0 && clone.bytes_shared > 0);

        let mut dst = Tree::new("mirror");
        let at = dst.root();
        let (graft, _) = counted(|| dst.graft(at, &view, view.root()).unwrap());
        let want = CopyStats {
            nodes_copied: clone.nodes_shared,
            bytes_copied: clone.bytes_shared,
            ..CopyStats::default()
        };
        assert_eq!(graft, want, "graft of {id}");
    }
}
