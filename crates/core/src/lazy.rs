//! Lazy and type-driven service-call activation — the two alternative
//! activation policies §2.2 cites:
//!
//! * *"a call may be activated only when the call result is needed to
//!   evaluate some query over the enclosing document \[2\]"* —
//!   [`AxmlSystem::query_document`]: given a query over a document with
//!   `mode="lazy"` calls, activate only the calls whose results the query
//!   may need, then evaluate. Both what a call can answer and what the
//!   query can see are read off the plans (`axml_query::shape`);
//! * *"or in order to turn d0's XML type in some other desired type
//!   \[6\]"* — [`AxmlSystem::activate_to_type`]: activate lazy calls one
//!   by one until the document validates against a target type.
//!
//! Both are conservative approximations of the cited papers' full
//! machinery (lazy AXML uses query rewriting; \[6\] uses regular
//! rewritings over types), preserving their observable contract: the
//! result is the one full activation gives, for the query/type at hand.

use crate::error::{CoreError, CoreResult};
use crate::expr::PeerRef;
use crate::sc::{ActivationMode, ScNode};
use crate::system::AxmlSystem;
use axml_query::shape::Footprint;
use axml_query::Query;
use axml_types::{Schema, TypeName};
use axml_xml::equiv::CanonMultiset;
use axml_xml::ids::{DocName, PeerId};
use axml_xml::tree::{NodeId, Tree};

/// Graft `results` under `parent`, skipping trees already present among
/// the existing children (canonical multiset delta) — repeated
/// activations must not duplicate materialized answers.
fn graft_delta(tree: &mut Tree, parent: NodeId, results: Vec<Tree>) -> CoreResult<()> {
    for t in CanonMultiset::of_children(tree, parent).admit(results) {
        tree.graft(parent, &t, t.root())?;
    }
    Ok(())
}

impl AxmlSystem {
    /// May the results of `sc`, the lazy call at `sc_id` in `tree`, matter
    /// to a query with footprint `fp`? Yes if it can select a node of an
    /// answer ([`Footprint::sees`]) or reads whole an ancestor of `sc`, or
    /// if the answers are unknown (any replica, no such service) or
    /// forwarded elsewhere.
    fn call_maybe_relevant(&self, tree: &Tree, sc_id: NodeId, sc: &ScNode, fp: &Footprint) -> bool {
        let PeerRef::At(provider) = sc.provider else {
            return true;
        };
        let Ok(svc) = self.peer(provider).service(&sc.service, provider) else {
            return true; // unknown service: the activation itself will error
        };
        let mut above = std::iter::successors(tree.parent(sc_id), |&n| tree.parent(n));
        !sc.forward.is_empty()
            || fp.sees(&svc.query.plan().answers())
            || above.any(|n| tree.label(n).is_some_and(|l| fp.whole.has(l)))
    }

    /// Lazy query evaluation (the `[2]` policy): activate exactly the
    /// lazy calls of `doc@at` that may contribute to `query` (arity 1,
    /// over the document), then evaluate the query over the updated
    /// document. Returns `(results, activated_call_count)`.
    pub fn query_document(
        &mut self,
        at: PeerId,
        doc: &DocName,
        query: &Query,
    ) -> CoreResult<(Vec<Tree>, usize)> {
        self.check_peer(at)?;
        if query.arity() != 1 {
            return Err(CoreError::Unsupported(
                "query_document expects a unary query over the document".into(),
            ));
        }
        let fp = query.plan().footprint();
        let tree = self.peer(at).doc(doc, at)?.clone();
        let mut activated = 0usize;
        for sc_id in ScNode::find_all(&tree, tree.root()) {
            let sc = ScNode::parse(&tree, sc_id)?;
            if sc.mode != ActivationMode::Lazy || !self.call_maybe_relevant(&tree, sc_id, &sc, &fp)
            {
                continue;
            }
            // Activate one-shot: results accumulate as siblings of the sc
            // (or at its forward targets).
            let params = sc.param_forests();
            let results = self.call_service(at, sc.provider, &sc.service, params, &sc.forward)?;
            activated += 1;
            if sc.forward.is_empty() {
                let d = self.peer_mut(at).docs.require_mut(doc)?;
                let parent = ScNode::host(d.tree(), sc_id)?;
                graft_delta(d.tree_mut(), parent, results)?;
            }
        }
        let updated = self.peer(at).doc(doc, at)?.clone();
        let out = query.eval_with_docs(&[vec![updated]], self.peer(at))?;
        Ok((out, activated))
    }

    /// Type-driven activation (the `[6]` policy): activate lazy calls of
    /// `doc@at`, in document order, until the document validates against
    /// `ty` under `schema`. Returns the number of calls activated, or the
    /// final validation error if the type is unreachable.
    pub fn activate_to_type(
        &mut self,
        at: PeerId,
        doc: &DocName,
        schema: &Schema,
        ty: &TypeName,
    ) -> CoreResult<usize> {
        self.check_peer(at)?;
        let mut activated = 0usize;
        loop {
            let tree = self.peer(at).doc(doc, at)?.clone();
            if schema.validate(&tree, ty.clone()).is_ok() {
                return Ok(activated);
            }
            // Find the first unactivated lazy call (document order).
            let next = ScNode::find_all(&tree, tree.root())
                .into_iter()
                .map(|id| (id, ScNode::parse(&tree, id)))
                .find_map(|(id, sc)| match sc {
                    Ok(sc) if sc.mode == ActivationMode::Lazy => Some((id, sc)),
                    _ => None,
                });
            let Some((sc_id, sc)) = next else {
                // No more calls to try: report the real validation error.
                schema.validate(&tree, ty.clone())?;
                unreachable!("validate just failed above");
            };
            let params = sc.param_forests();
            let results = self.call_service(at, sc.provider, &sc.service, params, &sc.forward)?;
            activated += 1;
            // Replace the lazy sc with its results (the activated call has
            // done its type-level job; keeping the sc would keep the
            // document invalid under closed content models).
            let d = self.peer_mut(at).docs.require_mut(doc)?;
            let parent = ScNode::host(d.tree(), sc_id)?;
            d.tree_mut().detach(sc_id)?;
            graft_delta(d.tree_mut(), parent, results)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use axml_net::link::LinkCost;
    use axml_types::Content;

    /// A document with two lazy calls: one feeding <news>, one <stock>.
    fn build() -> (AxmlSystem, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let client = sys.add_peer("client");
        let server = sys.add_peer("server");
        sys.net_mut().set_link(client, server, LinkCost::wan());
        sys.install_doc(
            server,
            "src",
            Tree::parse(
                r#"<src><item kind="news">headline</item><item kind="stock">42</item></src>"#,
            )
            .unwrap(),
        )
        .unwrap();
        let news_q = Query::parse(
            "news",
            r#"for $i in doc("src")/item where $i/@kind = "news" return <news>{$i/text()}</news>"#,
        )
        .unwrap();
        sys.register_service(server, Service::declarative("news-svc", news_q))
            .unwrap();
        let stock_q = Query::parse(
            "stock",
            r#"for $i in doc("src")/item where $i/@kind = "stock" return <stock>{$i/text()}</stock>"#,
        )
        .unwrap();
        sys.register_service(server, Service::declarative("stock-svc", stock_q))
            .unwrap();
        sys.install_doc(
            client,
            "digest",
            Tree::parse(
                r#"<digest>
                     <sc mode="lazy"><peer>p1</peer><service>news-svc</service></sc>
                     <sc mode="lazy"><peer>p1</peer><service>stock-svc</service></sc>
                   </digest>"#,
            )
            .unwrap(),
        )
        .unwrap();
        (sys, client, server)
    }

    #[test]
    fn lazy_activation_fires_only_relevant_calls() {
        let (mut sys, client, server) = build();
        let q = Query::parse("want-news", "$0//news").unwrap();
        let (out, activated) = sys.query_document(client, &"digest".into(), &q).unwrap();
        assert_eq!(activated, 1, "only the news call fires");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].serialize(), "<news>headline</news>");
        // traffic: exactly one invoke + one response
        assert_eq!(sys.stats().link(client, server).messages, 1);
        assert_eq!(sys.stats().link(server, client).messages, 1);
        // the stock sc is still lazy/unactivated in the stored document
        let doc = sys.peer(client).docs.get(&"digest".into()).unwrap().tree();
        assert!(!doc.serialize().contains("<stock>"));
    }

    /// `<d2>` holds one lazy call to a service returning `ret` for the
    /// stock item. Returns `query`'s answer count and calls fired, and
    /// the answer count once a wildcard query has fired every call.
    fn lazy_then_full(ret: &str, query: &str) -> (usize, usize, usize) {
        let src = format!(r#"for $i in doc("src")/item where $i/@kind = "stock" return {ret}"#);
        let q = Query::parse("q", query).unwrap();
        let all = Query::parse("all", "$0/*").unwrap();
        let d2: DocName = "d2".into();
        let run = |fire_all: bool| {
            let (mut sys, client, server) = build();
            let svc = Service::declarative("svc", Query::parse("svc", &src).unwrap());
            sys.register_service(server, svc).unwrap();
            let doc = r#"<d2><sc mode="lazy"><peer>p1</peer><service>svc</service></sc></d2>"#;
            sys.install_doc(client, "d2", Tree::parse(doc).unwrap())
                .unwrap();
            if fire_all {
                sys.query_document(client, &d2, &all).unwrap();
            }
            let (out, fired) = sys.query_document(client, &d2, &q).unwrap();
            (out.len(), fired)
        };
        let (lazy, fired) = run(false);
        (lazy, fired, run(true).0)
    }

    #[test]
    fn an_answer_type_is_read_off_the_plan() {
        // the root the plan constructs (it was once declared `news`)
        assert_eq!(
            lazy_then_full("<stock>{$i/text()}</stock>", "$0//stock"),
            (1, 1, 1)
        );
        // a label the plan constructs below the root
        assert_eq!(
            lazy_then_full("<news><stock>{$i/text()}</stock></news>", "$0//stock"),
            (1, 1, 1)
        );
        // text the plan splices below the root: `p1`, `svc` and `42`
        assert_eq!(
            lazy_then_full("<news>{$i/text()}</news>", "$0//text()"),
            (3, 1, 3)
        );
        // and a call whose answers the query cannot see stays lazy
        assert_eq!(
            lazy_then_full("<news>{$i/text()}</news>", "$0//stock"),
            (0, 0, 0)
        );
    }

    #[test]
    fn a_call_under_an_element_read_whole_fires() {
        // `$0` copies the whole document, answers included
        let (lazy, fired, full) = lazy_then_full("<news/>", "$0");
        assert_eq!((fired, lazy), (1, full));
        // `text()` reads the string value of `d2`, answers included
        let (lazy, fired, full) = lazy_then_full("<news>x</news>", "$0/text()");
        assert_eq!((fired, lazy), (1, full));
    }

    #[test]
    fn wildcard_queries_activate_everything() {
        let (mut sys, client, _server) = build();
        let q = Query::parse("all", "$0/*").unwrap();
        let (_, activated) = sys.query_document(client, &"digest".into(), &q).unwrap();
        assert_eq!(activated, 2);
    }

    #[test]
    fn repeated_queries_do_not_duplicate_results() {
        let (mut sys, client, _server) = build();
        let q = Query::parse("want-news", "$0//news").unwrap();
        let (out1, _) = sys.query_document(client, &"digest".into(), &q).unwrap();
        let (out2, _) = sys.query_document(client, &"digest".into(), &q).unwrap();
        assert_eq!(out1.len(), out2.len(), "idempotent materialization");
        let doc = sys.peer(client).docs.get(&"digest".into()).unwrap().tree();
        assert_eq!(
            doc.descendants_labeled(doc.root(), "news").count(),
            1,
            "no duplicates after re-running the query"
        );
        assert!(!doc.serialize().contains("<stock>"));
    }

    #[test]
    fn arity_guard() {
        let (mut sys, client, _server) = build();
        let q = Query::parse("binary", "for $a in $0 for $b in $1 return <x/>").unwrap();
        assert!(matches!(
            sys.query_document(client, &"digest".into(), &q),
            Err(CoreError::Unsupported(_))
        ));
    }

    #[test]
    fn type_driven_activation_reaches_target_type() {
        let (mut sys, client, _server) = build();
        let schema = Schema::builder()
            .ty(
                "DigestT",
                Content::seq([
                    Content::plus(Content::elem("news", "AnyT")),
                    Content::star(Content::elem("stock", "AnyT")),
                ]),
            )
            .ty("AnyT", Content::any())
            .build()
            .unwrap();
        // Initially invalid: the digest holds only sc elements.
        let before = sys
            .peer(client)
            .docs
            .get(&"digest".into())
            .unwrap()
            .tree()
            .clone();
        assert!(schema.validate(&before, "DigestT").is_err());
        let activated = sys
            .activate_to_type(client, &"digest".into(), &schema, &"DigestT".into())
            .unwrap();
        assert!(activated >= 1);
        let after = sys.peer(client).docs.get(&"digest".into()).unwrap().tree();
        schema.validate(after, "DigestT").unwrap();
    }

    #[test]
    fn type_driven_activation_stops_early_when_already_valid() {
        let (mut sys, client, _server) = build();
        let anything = Schema::builder().ty("T", Content::any()).build().unwrap();
        let activated = sys
            .activate_to_type(client, &"digest".into(), &anything, &"T".into())
            .unwrap();
        assert_eq!(activated, 0, "already valid: nothing fires");
        assert_eq!(sys.stats().total_messages(), 0);
    }

    #[test]
    fn type_driven_activation_reports_unreachable_types() {
        let (mut sys, client, _server) = build();
        let impossible = Schema::builder()
            .ty("T", Content::elem("never", "T2"))
            .ty("T2", Content::Empty)
            .build()
            .unwrap();
        let err = sys
            .activate_to_type(client, &"digest".into(), &impossible, &"T".into())
            .unwrap_err();
        assert!(matches!(err, CoreError::Type(_)), "{err}");
    }
}
