//! Lazy and type-driven service-call activation — the two alternative
//! activation policies §2.2 cites:
//!
//! * *"a call may be activated only when the call result is needed to
//!   evaluate some query over the enclosing document \[2\]"* —
//!   [`AxmlSystem::query_document`]: given a query over a document with
//!   `mode="lazy"` calls, activate only the calls whose results the query
//!   may need (decided from the query's label footprint against each
//!   service's output type), then evaluate;
//! * *"or in order to turn d0's XML type in some other desired type
//!   \[6\]"* — [`AxmlSystem::activate_to_type`]: activate lazy calls one
//!   by one until the document validates against a target type.
//!
//! Both are conservative approximations of the cited papers' full
//! machinery (lazy AXML uses query rewriting; \[6\] uses regular
//! rewritings over types), preserving their observable contract: no
//! irrelevant call fires, and the result is correct for the
//! query/type at hand.

use crate::error::{CoreError, CoreResult};
use crate::expr::PeerRef;
use crate::sc::{ActivationMode, ScNode};
use crate::system::AxmlSystem;
use axml_query::plan::PlanTest;
use axml_query::Query;
use axml_types::{Schema, TypeName};
use axml_xml::equiv::CanonMultiset;
use axml_xml::ids::{DocName, PeerId};
use axml_xml::tree::{NodeId, Tree};
use axml_xml::Label;
use std::collections::HashSet;

/// The set of element labels a query navigates through or constructs
/// from — its *label footprint* — and whether it uses a wildcard step
/// that could match anything. A service whose output cannot contain any
/// of these labels cannot affect the query's answer.
fn query_label_footprint(q: &Query) -> (HashSet<Label>, bool) {
    let (mut labels, mut wildcard) = (HashSet::new(), false);
    for plan in q.leaf_plans() {
        plan.visit_paths(&mut |p| {
            for s in &p.steps {
                match &s.test {
                    PlanTest::Label(l) => {
                        labels.insert(*l);
                    }
                    PlanTest::Wildcard => wildcard = true,
                    PlanTest::Text | PlanTest::Attr(_) => {}
                }
            }
        });
    }
    (labels, wildcard)
}

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
    /// May the results of `sc` be relevant to a query with the given
    /// label footprint? Conservative: only a *declared* output root label
    /// that is absent from the footprint proves irrelevance; wildcards
    /// (or `//text()`-only queries) count as relevant.
    fn call_maybe_relevant(&self, sc: &ScNode, footprint: &HashSet<Label>, wildcard: bool) -> bool {
        if wildcard {
            return true;
        }
        let provider = match sc.provider {
            PeerRef::At(p) => p,
            // Resolution could pick any replica; stay conservative.
            PeerRef::Any => return true,
        };
        let Ok(svc) = self.peer(provider).service(&sc.service, provider) else {
            return true; // unknown service: the activation itself will error
        };
        match &svc.signature.output.root_label {
            Some(l) => footprint.contains(l),
            None => true,
        }
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
        let (footprint, wildcard) = query_label_footprint(query);
        let tree = self.peer(at).doc(doc, at)?.clone();
        let mut activated = 0usize;
        for sc_id in ScNode::find_all(&tree, tree.root()) {
            let sc = ScNode::parse(&tree, sc_id)?;
            if sc.mode != ActivationMode::Lazy {
                continue;
            }
            if !self.call_maybe_relevant(&sc, &footprint, wildcard) {
                continue;
            }
            // Activate one-shot: results accumulate as siblings of the sc
            // (or at its forward targets).
            let params: Vec<Vec<Tree>> = sc.params.iter().map(|p| vec![p.clone()]).collect();
            let results = self.call_service(at, sc.provider, &sc.service, params, &sc.forward)?;
            activated += 1;
            if sc.forward.is_empty() {
                let parent = {
                    let stored = self.peer(at).doc(doc, at)?;
                    stored
                        .parent(sc_id)
                        .ok_or_else(|| CoreError::Malformed("lazy sc at document root".into()))?
                };
                let state = self.peer_mut(at);
                let d = state.docs.require_mut(doc)?;
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
            let params: Vec<Vec<Tree>> = sc.params.iter().map(|p| vec![p.clone()]).collect();
            let results = self.call_service(at, sc.provider, &sc.service, params, &sc.forward)?;
            activated += 1;
            // Replace the lazy sc with its results (the activated call has
            // done its type-level job; keeping the sc would keep the
            // document invalid under closed content models).
            let state = self.peer_mut(at);
            let d = state.docs.require_mut(doc)?;
            let parent = d
                .tree()
                .parent(sc_id)
                .ok_or_else(|| CoreError::Malformed("lazy sc at document root".into()))?;
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
    use axml_types::{Content, Signature, TreeType};

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
        sys.register_service(
            server,
            Service::declarative("news-svc", news_q).with_signature(Signature::new(
                vec![],
                TreeType::new("news", TypeName::any()),
            )),
        )
        .unwrap();
        let stock_q = Query::parse(
            "stock",
            r#"for $i in doc("src")/item where $i/@kind = "stock" return <stock>{$i/text()}</stock>"#,
        )
        .unwrap();
        sys.register_service(
            server,
            Service::declarative("stock-svc", stock_q).with_signature(Signature::new(
                vec![],
                TreeType::new("stock", TypeName::any()),
            )),
        )
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
    fn footprint_computation() {
        let q = Query::parse(
            "q",
            r#"for $x in $0//news/wire where $x/tag = "db" return <out>{$x}</out>"#,
        )
        .unwrap();
        let (fp, wildcard) = query_label_footprint(&q);
        assert!(!wildcard);
        assert!(fp.contains(&Label::new("news")));
        assert!(fp.contains(&Label::new("wire")));
        assert!(fp.contains(&Label::new("tag")));
        assert!(!fp.contains(&Label::new("stock")));
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
