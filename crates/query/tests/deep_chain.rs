//! A chain far deeper than any call stack goes through the evaluator: its
//! walks over a tree keep stacks of their own. (Alone in its binary: a
//! walk that recursed would abort the process, not fail a test.)

use axml_query::Query;
use axml_xml::tree::Tree;

const DEPTH: usize = 200_000;

/// `DEPTH` elements `zz`, each the only element child of the one above —
/// built with `add_element`, one at a time. The root's text `top` comes
/// before the chain; the bottom element holds the text `end` and `k="1"`.
fn chain() -> Tree {
    let mut t = Tree::new("zz");
    let mut tip = t.root();
    t.add_text(tip, "top");
    for _ in 1..DEPTH {
        tip = t.add_element(tip, "zz");
    }
    t.add_text(tip, "end");
    t.set_attr(tip, "k", "1").unwrap();
    t
}

/// The answer of `src` over the chain as both parameters, serialized.
fn answer(src: &str) -> Vec<String> {
    let q = Query::parse("q", src).unwrap();
    let t = chain();
    let inputs = [vec![t.clone()], vec![t]];
    // A small stack: any walk that recursed once per level would overflow.
    let run = move || q.eval_batch(&inputs).unwrap();
    let out = std::thread::Builder::new()
        .stack_size(64 * 1024)
        .spawn(run)
        .unwrap()
        .join()
        .unwrap();
    out.iter().map(Tree::serialize).collect()
}

#[test]
fn a_descendant_step_walks_the_whole_chain() {
    let src = "for $x in $0//zz where not(exists($x/zz)) return <r>{$x/@k}</r>";
    assert_eq!(answer(src), ["<r>1</r>"]);
}

#[test]
fn descendant_text_reaches_the_bottom() {
    assert_eq!(
        answer("$0//text()"),
        ["<text>top</text>", "<text>end</text>"]
    );
}

#[test]
fn a_string_value_reads_down_the_chain() {
    // Below the root each element has one child: the value is borrowed
    // from the bottom. The root has two, so its value is built.
    let src = "for $x in $0 return <r a=\"{$x/zz/text()}\">{$x/text()}</r>";
    assert_eq!(answer(src), [r#"<r a="end">topend</r>"#]);
}

#[test]
fn a_join_indexes_the_chain() {
    let src = "for $x in $0//zz[exists(@k)] for $y in $1//zz where $y/@k = $x/@k return <r/>";
    assert_eq!(answer(src), ["<r/>"]);
}
