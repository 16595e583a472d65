//! Rule (13) shares a transfer through one query parameter, so a plan
//! that uses it leaves Σ as it found it: run again and again on one
//! system, it leaves no document behind and its search is made once.
//! Applied again, the rule shares every further use of the same data.

use axml_core::prelude::*;
use axml_core::rules::R13ShareTransfer;
use axml_obs::Obs;
use axml_query::Query;
use axml_xml::equiv::forest_equiv;
use axml_xml::ids::PeerId;
use axml_xml::tree::Tree;

/// A client `a` and a server `b` over a WAN; `b` hosts a catalog of 40
/// packages with distinct names.
fn system() -> (AxmlSystem, PeerId, PeerId) {
    let mut sys = AxmlSystem::new();
    let a = sys.add_peer("a");
    let b = sys.add_peer("b");
    sys.net_mut().set_link(a, b, LinkCost::wan());
    let mut xml = String::from("<catalog>");
    for i in 0..40 {
        xml.push_str(&format!(
            r#"<pkg name="p{i}"><size>{}</size></pkg>"#,
            i * 137 % 10000
        ));
    }
    xml.push_str("</catalog>");
    sys.install_doc(b, "catalog", Tree::parse(&xml).unwrap())
        .unwrap();
    (sys, a, b)
}

/// `q` at `a` over `uses` reads of `b`'s catalog.
fn over_catalog(q: Query, a: PeerId, b: PeerId, uses: usize) -> Expr {
    let cat = Expr::Doc {
        name: "catalog".into(),
        at: PeerRef::At(b),
    };
    Expr::Apply {
        query: LocatedQuery::new(q, a),
        args: vec![cat; uses],
    }
}

fn r13_only() -> Optimizer {
    Optimizer::with_rules(vec![Box::new(R13ShareTransfer)])
}

/// One rule-(13) plan, searched and run 1 000 times on one system: the
/// client hosts the same documents throughout, every search after the
/// first is a reuse, and every answer is the naive plan's.
#[test]
fn a_shared_transfer_runs_a_thousand_times_on_one_system() {
    let (mut sys, a, b) = system();
    let pair = Query::parse(
        "pair",
        "for $x in $0//pkg for $y in $1//pkg where $x/@name = $y/@name return <m>{$x/@name}</m>",
    )
    .unwrap();
    let naive = over_catalog(pair, a, b, 2);
    let want = system().0.eval(a, &naive).unwrap();
    let docs = sys.peer(a).docs.len();
    let opt = r13_only();
    for run in 0..1_000 {
        let mut obs = Obs::new();
        let plan = opt.optimize_with(&CostModel::from_system(&sys), a, &naive, &mut obs);
        assert_eq!(plan.trace, ["R13-share-transfer"], "run {run}");
        if run == 0 {
            assert!(obs.metrics.explored > 1, "the first search explores");
        } else {
            assert_eq!(obs.metrics.explored, 0, "run {run} searched again");
        }
        let got = sys.eval(a, &plan.expr).unwrap();
        assert!(forest_equiv(&want, &got), "run {run}");
        assert_eq!(sys.peer(a).docs.len(), docs, "run {run} left a document");
    }
}

/// A query that reads the catalog three times moves it across the WAN
/// once, exactly as a query that reads it once does.
#[test]
fn three_uses_move_the_bytes_of_one() {
    let run = |src: &str, uses: usize| {
        let (mut sys, a, b) = system();
        let naive = over_catalog(Query::parse("q", src).unwrap(), a, b, uses);
        let plan = r13_only().optimize(&CostModel::from_system(&sys), a, &naive);
        let value = sys.eval(a, &plan.expr).unwrap();
        (value, sys.stats().link(b, a).bytes, plan.trace.len())
    };
    let (once, once_bytes, _) = run("for $x in $0//pkg return <m>{$x/@name}</m>", 1);
    let (thrice, thrice_bytes, shares) = run(
        "for $x in $0//pkg for $y in $1//pkg for $z in $2//pkg \
         where $x/@name = $y/@name and $y/@name = $z/@name return <m>{$x/@name}</m>",
        3,
    );
    assert!(forest_equiv(&once, &thrice));
    assert_eq!(once.len(), 40);
    assert_eq!(thrice_bytes, once_bytes);
    assert_eq!(shares, 2, "one rewrite per use after the first");
}
