//! The equivalence rules (9)–(16) of §3.3, as rewrite rules over
//! expressions.
//!
//! Each rule implements [`RewriteRule::apply_at`]: given a node of the
//! expression tree and the peer at which that node will be evaluated, it
//! proposes equivalent replacements. The optimizer applies rules at every
//! position ([`all_rewrites`] tracks how `EvalAt` changes the evaluation
//! site of its subtree) and keeps the cheapest candidate under the cost
//! model.
//!
//! Soundness — the paper's `e1@p1 ≡ e2@p2` ("for any state Σ, the
//! evaluations produce the same results and leave the same Σ") — is
//! enforced by construction and verified by the property tests in
//! `tests/prop_rules.rs`: every rule application is executed against the
//! naive plan on randomized systems, comparing both the value and the
//! final Σ. Every rule leaves Σ as it found it — rule (13) too: it shares
//! a transfer through one query parameter ([`R13ShareTransfer`]), not
//! through a stored document.

use crate::cost::CostModel;
use crate::expr::{Expr, LocatedQuery, PeerRef, SendDest};
use axml_xml::ids::PeerId;

/// One equivalence rule.
pub trait RewriteRule {
    /// Short identifier, e.g. `"R10-delegate"`. The optimizer knows a rule
    /// by its name when it reuses a plan: two rules of one name must
    /// propose the same rewrites.
    fn name(&self) -> &'static str;
    /// Propose replacements for `expr`, to be evaluated at `site`, given
    /// the system snapshot `model` (catalog, links, visible services).
    fn apply_at(&self, site: PeerId, expr: &Expr, model: &CostModel) -> Vec<Expr>;
}

/// Wrap `e` so its value is computed at `peer` and shipped to `site`.
/// `e`'s evaluation context moves from `site` to `peer`, so its nested
/// delegation returns are retargeted accordingly.
fn delegate(site: PeerId, peer: PeerId, mut e: Expr) -> Expr {
    e.retarget_returns(site, peer);
    Expr::EvalAt {
        peer,
        expr: Box::new(Expr::Send {
            dest: SendDest::Peer(site),
            payload: Box::new(e),
        }),
    }
}

/// Where an argument expression's data naturally lives (used to pick
/// delegation targets).
fn data_home(model: &CostModel, site: PeerId, e: &Expr) -> Option<PeerId> {
    match e {
        Expr::Tree { at, .. } => Some(*at),
        Expr::Doc { name, at } => model.resolve_doc(site, name, at).map(|(p, _)| p),
        Expr::Apply { args, .. } => args.first().and_then(|a| data_home(model, site, a)),
        Expr::EvalAt { peer, .. } => Some(*peer),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Rule (9): generic resolution — pickDoc/pickService as optimizer choices.
// ---------------------------------------------------------------------

/// Definition (9) as a rule: replace `d@any` / `sc(any, …)` with each
/// concrete replica, letting cost decide instead of a fixed pick policy.
pub struct R9Generic;

impl RewriteRule for R9Generic {
    fn name(&self) -> &'static str {
        "R9-generic"
    }

    fn apply_at(&self, _site: PeerId, expr: &Expr, model: &CostModel) -> Vec<Expr> {
        match expr {
            Expr::Doc {
                name,
                at: PeerRef::Any,
            } => model
                .doc_replicas(name)
                .iter()
                .map(|(p, concrete)| Expr::Doc {
                    name: concrete.clone(),
                    at: PeerRef::At(*p),
                })
                .collect(),
            Expr::Sc {
                provider: PeerRef::Any,
                service,
                params,
                forward,
            } => model
                .service_replicas(service)
                .iter()
                .map(|(p, concrete)| Expr::Sc {
                    provider: PeerRef::At(*p),
                    service: concrete.clone(),
                    params: params.clone(),
                    forward: forward.clone(),
                })
                .collect(),
            _ => vec![],
        }
    }
}

// ---------------------------------------------------------------------
// Rule (10): query delegation.
// ---------------------------------------------------------------------

/// Rule (10): `eval@p1(q(t)) ≡ send_{p2→p1}((send_{p1→p2}(q))(send_{p1→p2}(t)))`
/// — evaluate the query where (some of) its data lives, shipping the
/// definition there and only the results back.
pub struct R10Delegate;

impl RewriteRule for R10Delegate {
    fn name(&self) -> &'static str {
        "R10-delegate"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, model: &CostModel) -> Vec<Expr> {
        let Expr::Apply { query, args } = expr else {
            return vec![];
        };
        let mut targets: Vec<PeerId> = args
            .iter()
            .filter_map(|a| data_home(model, site, a))
            .collect();
        targets.sort_unstable();
        targets.dedup();
        targets
            .into_iter()
            .filter(|t| *t != site)
            .map(|t| {
                delegate(
                    site,
                    t,
                    Expr::Apply {
                        query: query.clone(),
                        args: args.clone(),
                    },
                )
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Rule (11) + Example 1: decomposition and pushed selections.
// ---------------------------------------------------------------------

/// Rule (11): `eval@p(q) ≡ eval@p(q1(eval@p(q2), …))` — plus the Example-1
/// composite: decompose into `outer(σ(scan))` and delegate the σ-carrying
/// part to the argument's home peer, shipping only the selected subset.
pub struct R11PushSelections;

impl RewriteRule for R11PushSelections {
    fn name(&self) -> &'static str {
        "R11-push-selections"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, model: &CostModel) -> Vec<Expr> {
        let Expr::Apply { query, args } = expr else {
            return vec![];
        };
        if args.len() != 1 {
            return vec![];
        }
        let Some((outer, pushed)) = query.query.decompose_selection() else {
            return vec![];
        };
        let mut out = Vec::new();
        // Pure decomposition (rule (11) itself).
        let decomposed = Expr::Apply {
            query: LocatedQuery::new(outer.clone(), query.def_at),
            args: vec![Expr::Apply {
                query: LocatedQuery::new(pushed.clone(), query.def_at),
                args: args.clone(),
            }],
        };
        out.push(decomposed);
        // Example 1: delegate the pushed part to the data's home.
        if let Some(home) = data_home(model, site, &args[0]) {
            if home != site {
                out.push(Expr::Apply {
                    query: LocatedQuery::new(outer, query.def_at),
                    args: vec![delegate(
                        site,
                        home,
                        Expr::Apply {
                            query: LocatedQuery::new(pushed, query.def_at),
                            args: args.clone(),
                        },
                    )],
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Rule (12): transit shortcuts — add or remove an intermediary stop.
// ---------------------------------------------------------------------

/// Rule (12), left-to-right: data in transit `p0 → p1 → p2` may skip the
/// intermediary stop.
pub struct R12RemoveStop;

impl RewriteRule for R12RemoveStop {
    fn name(&self) -> &'static str {
        "R12-remove-stop"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, _model: &CostModel) -> Vec<Expr> {
        // Shape: eval@v(send(site, eval@p1(send(v, X)))) — fetch via v —
        // rewritten to eval@p1(send(site, X)).
        let Expr::EvalAt {
            peer: via,
            expr: inner,
        } = expr
        else {
            return vec![];
        };
        let Expr::Send {
            dest: SendDest::Peer(back),
            payload,
        } = &**inner
        else {
            return vec![];
        };
        if *back != site {
            return vec![];
        }
        let Expr::EvalAt {
            peer: origin,
            expr: inner2,
        } = &**payload
        else {
            return vec![];
        };
        let Expr::Send {
            dest: SendDest::Peer(mid),
            payload: x,
        } = &**inner2
        else {
            return vec![];
        };
        if mid != via {
            return vec![];
        }
        vec![delegate(site, *origin, (**x).clone())]
    }
}

/// Rule (12), right-to-left: *"data in transit from p0 to p2 may make an
/// intermediary stop at another peer p1"* — sometimes beneficial (e.g.
/// relaying through a well-connected gateway).
pub struct R12AddStop;

impl RewriteRule for R12AddStop {
    fn name(&self) -> &'static str {
        "R12-add-stop"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, model: &CostModel) -> Vec<Expr> {
        // Shape: eval@p1(send(site, X)) → eval@v(send(site, eval@p1(send(v, X))))
        let Expr::EvalAt {
            peer: origin,
            expr: inner,
        } = expr
        else {
            return vec![];
        };
        let Expr::Send {
            dest: SendDest::Peer(back),
            payload: x,
        } = &**inner
        else {
            return vec![];
        };
        if *back != site {
            return vec![];
        }
        (0..model.peer_count() as u32)
            .map(PeerId)
            .filter(|v| v != origin && *v != site)
            .map(|v| delegate(site, v, delegate(v, *origin, (**x).clone())))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Rule (13): transfer sharing.
// ---------------------------------------------------------------------

/// Rule (13): when two arguments of a query transfer the same remote
/// data, transfer it once and read it twice — `q(…, e, …, e, …) ≡
/// q'(…, e, …)`, where `q'` ([`axml_query::Query::share_param`]) reads the
/// one argument wherever `q` read either. The shared value is bound to a
/// parameter of one evaluation, so Σ is left as it was found; applied
/// again, the rule shares a third use as well.
pub struct R13ShareTransfer;

impl RewriteRule for R13ShareTransfer {
    fn name(&self) -> &'static str {
        "R13-share-transfer"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, model: &CostModel) -> Vec<Expr> {
        let Expr::Apply { query, args } = expr else {
            return vec![];
        };
        if args.len() < 2 {
            return vec![];
        }
        // Find two identical remote-data arguments: the first pair in
        // (i, j) order. Each argument's home and key are taken once; an
        // argument equal to a remote one is remote itself, so only
        // remote arguments need a key.
        let keys: Vec<Option<u128>> = args
            .iter()
            .map(|a| {
                let remote = data_home(model, site, a).is_some_and(|h| h != site);
                remote.then(|| a.fingerprint_hash())
            })
            .collect();
        let shared = keys.iter().enumerate().find_map(|(i, key)| {
            let key = Some((*key)?);
            let j = (i + 1..keys.len()).find(|&j| keys[j] == key)?;
            Some((i, j))
        });
        let Some((i, j)) = shared else { return vec![] };
        let mut args = args.clone();
        args.remove(j);
        vec![Expr::Apply {
            query: LocatedQuery::new(query.query.share_param(i, j), query.def_at),
            args,
        }]
    }
}

// ---------------------------------------------------------------------
// Rule (14): relocation of evaluation.
// ---------------------------------------------------------------------

/// Rule (14): `eval@p(e) ≡ eval@p1(send(p, eval@p(e)))` — any value-producing
/// expression may be computed elsewhere and shipped back. Candidates are
/// the peers the expression mentions (shipping to an unrelated peer is
/// never cheaper, so the search space stays bounded).
pub struct R14Relocate;

impl RewriteRule for R14Relocate {
    fn name(&self) -> &'static str {
        "R14-relocate"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, _model: &CostModel) -> Vec<Expr> {
        // Avoid stacking relocations and relocating pure side-effect nodes.
        if matches!(
            expr,
            Expr::EvalAt { .. } | Expr::Send { .. } | Expr::Deploy { .. } | Expr::Seq(_)
        ) {
            return vec![];
        }
        expr.mentioned_peers()
            .into_iter()
            .filter(|p| *p != site)
            .map(|p| delegate(site, p, expr.clone()))
            .collect()
    }
}

// ---------------------------------------------------------------------
// Rule (15): sc relocation.
// ---------------------------------------------------------------------

/// Rule (15): an `sc`-rooted tree with an explicit forward list evaluates
/// identically from any peer — the results go straight to the forward
/// list. (*"Notice there is no need to ship results back, since results
/// are sent directly to the locations in the forward list."*)
pub struct R15ScRelocate;

impl RewriteRule for R15ScRelocate {
    fn name(&self) -> &'static str {
        "R15-sc-relocate"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, _model: &CostModel) -> Vec<Expr> {
        let Expr::Sc {
            provider, forward, ..
        } = expr
        else {
            return vec![];
        };
        if forward.is_empty() {
            return vec![]; // default forward = back to the caller: site matters
        }
        let mut candidates = match provider {
            PeerRef::At(p) => vec![*p],
            PeerRef::Any => vec![],
        };
        candidates.extend(forward.iter().map(|a| a.peer));
        candidates.sort_unstable();
        candidates.dedup();
        candidates
            .into_iter()
            .filter(|p| *p != site)
            .map(|p| {
                let mut moved = expr.clone();
                moved.retarget_returns(site, p);
                Expr::EvalAt {
                    peer: p,
                    expr: Box::new(moved),
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------
// Rule (16): pushing queries over service calls.
// ---------------------------------------------------------------------

/// Rule (16): `q(sc(p1, s1, params))` — ship `q` to the provider and
/// evaluate `q(q1(params))` there, where `q1` is the (visible) query
/// implementing `s1`. Only the final results cross the wire.
pub struct R16PushOverSc;

impl RewriteRule for R16PushOverSc {
    fn name(&self) -> &'static str {
        "R16-push-over-sc"
    }

    fn apply_at(&self, site: PeerId, expr: &Expr, model: &CostModel) -> Vec<Expr> {
        let Expr::Apply { query, args } = expr else {
            return vec![];
        };
        if args.len() != 1 {
            return vec![];
        }
        let Expr::Sc {
            provider: PeerRef::At(p1),
            service,
            params,
            forward,
        } = &args[0]
        else {
            return vec![];
        };
        if !forward.is_empty() {
            return vec![]; // results don't come back: q has nothing to read
        }
        let Some(q1) = model.service_query(*p1, service) else {
            return vec![]; // no such service at p1
        };
        if *p1 == site {
            return vec![];
        }
        vec![delegate(
            site,
            *p1,
            Expr::Apply {
                query: query.clone(),
                args: vec![Expr::Apply {
                    query: LocatedQuery::new(q1.clone(), *p1),
                    args: params.clone(),
                }],
            },
        )]
    }
}

/// The standard rule set, in application order.
pub fn standard_rules() -> Vec<Box<dyn RewriteRule>> {
    vec![
        Box::new(R9Generic),
        Box::new(R10Delegate),
        Box::new(R11PushSelections),
        Box::new(R12RemoveStop),
        Box::new(R12AddStop),
        Box::new(R13ShareTransfer),
        Box::new(R14Relocate),
        Box::new(R15ScRelocate),
        Box::new(R16PushOverSc),
    ]
}

/// Can `expr` be *correctly* evaluated at `site`? The only site-sensitive
/// construct is `Apply`: its query's `doc("…")` sources read the
/// evaluation site's documents, so every dependency must be hosted there.
/// Rules may propose relocations that violate this; the rewrite driver
/// filters them out.
pub fn evaluable_at(model: &CostModel, site: PeerId, expr: &Expr) -> bool {
    match expr {
        Expr::Apply { query, args } => {
            query
                .query
                .doc_dependencies()
                .iter()
                .all(|d| model.doc_size(site, d).is_some())
                && args.iter().all(|a| evaluable_at(model, site, a))
        }
        Expr::EvalAt { peer, expr } => evaluable_at(model, *peer, expr),
        Expr::Send { payload, .. } => evaluable_at(model, site, payload),
        Expr::Sc { params, .. } => params.iter().all(|p| evaluable_at(model, site, p)),
        Expr::Seq(es) => es.iter().all(|e| evaluable_at(model, site, e)),
        Expr::Tree { .. } | Expr::Doc { .. } | Expr::Deploy { .. } => true,
    }
}

/// Apply every rule at every position of `expr` (evaluated at `site`),
/// returning whole rewritten expressions tagged with the rule name.
/// Descending into `EvalAt{p, …}` switches the evaluation site to `p`.
/// Candidates that would relocate a `doc(…)`-reading query away from its
/// documents are dropped ([`evaluable_at`]).
pub fn all_rewrites(
    rules: &[Box<dyn RewriteRule>],
    site: PeerId,
    expr: &Expr,
    model: &CostModel,
) -> Vec<(&'static str, Expr)> {
    let mut out = rewrites_unchecked(rules, site, expr, model);
    out.retain(|(_, e)| evaluable_at(model, site, e));
    out
}

fn rewrites_unchecked(
    rules: &[Box<dyn RewriteRule>],
    site: PeerId,
    expr: &Expr,
    model: &CostModel,
) -> Vec<(&'static str, Expr)> {
    let mut out = Vec::new();
    for rule in rules {
        for e2 in rule.apply_at(site, expr, model) {
            out.push((rule.name(), e2));
        }
    }
    let child_site = match expr {
        Expr::EvalAt { peer, .. } => *peer,
        _ => site,
    };
    for (i, child) in expr.children().iter().enumerate() {
        for (name, c2) in rewrites_unchecked(rules, child_site, child, model) {
            out.push((name, expr.with_child(i, c2)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::AxmlSystem;
    use axml_net::link::LinkCost;
    use axml_query::Query;
    use axml_xml::equiv::forest_equiv;
    use axml_xml::tree::Tree;

    fn catalog_xml(n: usize) -> String {
        let mut xml = String::from("<catalog>");
        for i in 0..n {
            xml.push_str(&format!(
                r#"<pkg name="p{i}"><size>{}</size></pkg>"#,
                i * 137 % 10000
            ));
        }
        xml.push_str("</catalog>");
        xml
    }

    fn system() -> (AxmlSystem, PeerId, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        let c = sys.add_peer("c");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        sys.net_mut().set_link(a, c, LinkCost::wan());
        sys.net_mut().set_link(b, c, LinkCost::lan());
        sys.install_doc(b, "catalog", Tree::parse(&catalog_xml(50)).unwrap())
            .unwrap();
        (sys, a, b, c)
    }

    fn sel_query() -> Query {
        Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 5000 return <big>{$p/@name}</big>"#,
        )
        .unwrap()
    }

    fn naive_apply(a: PeerId, b: PeerId) -> Expr {
        Expr::Apply {
            query: LocatedQuery::new(sel_query(), a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        }
    }

    /// Evaluate two plans on fresh systems, asserting equal values.
    fn assert_equivalent(build: impl Fn() -> (AxmlSystem, PeerId), e1: &Expr, e2: &Expr) {
        let (mut s1, site1) = build();
        let (mut s2, site2) = build();
        let v1 = s1.eval(site1, e1).unwrap();
        let v2 = s2.eval(site2, e2).unwrap();
        assert!(
            forest_equiv(&v1, &v2),
            "values differ:\n  {e1}\n  {e2}\n  {} vs {} trees",
            v1.len(),
            v2.len()
        );
    }

    #[test]
    fn r10_produces_equivalent_cheaper_plan() {
        let (sys, a, b, _c) = system();
        let model = CostModel::from_system(&sys);
        let naive = naive_apply(a, b);
        let rewrites = R10Delegate.apply_at(a, &naive, &model);
        assert_eq!(rewrites.len(), 1);
        assert_equivalent(
            || {
                let (s, a, _, _) = system();
                (s, a)
            },
            &naive,
            &rewrites[0],
        );
    }

    #[test]
    fn r11_decomposes_and_delegates() {
        let (sys, a, b, _c) = system();
        let model = CostModel::from_system(&sys);
        let naive = naive_apply(a, b);
        let rewrites = R11PushSelections.apply_at(a, &naive, &model);
        assert_eq!(rewrites.len(), 2, "pure decomposition + delegated σ");
        for r in &rewrites {
            assert_equivalent(
                || {
                    let (s, a, _, _) = system();
                    (s, a)
                },
                &naive,
                r,
            );
        }
    }

    #[test]
    fn r12_roundtrip_add_then_remove() {
        let (sys, a, b, c) = system();
        let model = CostModel::from_system(&sys);
        let direct = delegate(
            a,
            b,
            Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            },
        );
        let with_stops = R12AddStop.apply_at(a, &direct, &model);
        assert_eq!(with_stops.len(), 1, "only c is a candidate intermediary");
        let via_c = &with_stops[0];
        assert_equivalent(
            || {
                let (s, a, _, _) = system();
                (s, a)
            },
            &direct,
            via_c,
        );
        // removing the stop gives back the direct shape
        let removed = R12RemoveStop.apply_at(a, via_c, &model);
        assert_eq!(removed.len(), 1);
        assert_eq!(removed[0].fingerprint(), direct.fingerprint());
        let _ = c;
    }

    #[test]
    fn r13_shares_duplicate_transfers() {
        let (sys, a, b, _c) = system();
        let model = CostModel::from_system(&sys);
        let q2 = Query::parse(
            "pair",
            "for $x in $0//pkg for $y in $1//pkg where $x/@name = $y/@name return <m>{$x/@name}</m>",
        )
        .unwrap();
        let arg = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let e = Expr::Apply {
            query: LocatedQuery::new(q2, a),
            args: vec![arg.clone(), arg],
        };
        let shared = R13ShareTransfer.apply_at(a, &e, &model);
        assert_eq!(shared.len(), 1);
        // equivalent values, and Σ as it was found
        let (mut s1, _, _, _) = system();
        let (mut s2, _, _, _) = system();
        let before = s2.snapshot();
        let v1 = s1.eval(a, &e).unwrap();
        let v2 = s2.eval(a, &shared[0]).unwrap();
        assert!(forest_equiv(&v1, &v2));
        assert!(s2.snapshot() == before, "Σ changed: {}", shared[0]);
        // and the shared plan moved the catalog across the wan only once
        assert!(s2.stats().link(b, a).bytes < s1.stats().link(b, a).bytes);
    }

    /// A rule-(13) plan leaves nothing behind, so it runs again on the
    /// system it ran on, and the site hosts no document it did not host.
    #[test]
    fn r13_plans_run_again_on_one_system() {
        let (mut sys, a, b, _c) = system();
        let pair = Query::parse(
            "pair",
            "for $x in $0//pkg for $y in $1//pkg where $x/@name = $y/@name return <m>{$x/@name}</m>",
        )
        .unwrap();
        let cat = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let naive = Expr::Apply {
            query: LocatedQuery::new(pair, a),
            args: vec![cat.clone(), cat],
        };
        let want = system().0.eval(a, &naive).unwrap();
        let before = sys.snapshot();
        let opt = crate::optimizer::Optimizer::with_rules(vec![Box::new(R13ShareTransfer)]);
        for run in 0..3 {
            let plan = opt.optimize(&CostModel::from_system(&sys), a, &naive);
            assert_eq!(plan.trace, ["R13-share-transfer"], "run {run}");
            let got = sys.eval(a, &plan.expr).unwrap();
            assert!(forest_equiv(&want, &got), "run {run}");
            assert!(sys.snapshot() == before, "run {run}: Σ changed");
        }
    }

    #[test]
    fn r14_relocates_anywhere_mentioned() {
        let (sys, a, b, _c) = system();
        let model = CostModel::from_system(&sys);
        let e = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let rels = R14Relocate.apply_at(a, &e, &model);
        assert_eq!(rels.len(), 1);
        assert_equivalent(
            || {
                let (s, a, _, _) = system();
                (s, a)
            },
            &e,
            &rels[0],
        );
        // no stacking on EvalAt
        assert!(R14Relocate.apply_at(a, &rels[0], &model).is_empty());
    }

    #[test]
    fn r15_moves_sc_with_explicit_forward() {
        let (mut sys, a, b, c) = system();
        sys.register_declarative_service(b, "scan", r#"doc("catalog")//pkg/@name"#)
            .unwrap();
        sys.install_doc(c, "log", Tree::parse("<log/>").unwrap())
            .unwrap();
        let log_root = sys.peer(c).docs.get(&"log".into()).unwrap().tree().root();
        let model = CostModel::from_system(&sys);
        let sc = Expr::Sc {
            provider: PeerRef::At(b),
            service: "scan".into(),
            params: vec![],
            forward: vec![axml_xml::ids::NodeAddr::new(c, "log", log_root)],
        };
        let moved = R15ScRelocate.apply_at(a, &sc, &model);
        assert_eq!(moved.len(), 2, "provider and forward peer are candidates");
        // Without a forward list, no relocation.
        let sc_default = Expr::Sc {
            provider: PeerRef::At(b),
            service: "scan".into(),
            params: vec![],
            forward: vec![],
        };
        assert!(R15ScRelocate.apply_at(a, &sc_default, &model).is_empty());
    }

    #[test]
    fn r16_composes_over_visible_services() {
        let (mut sys, a, b, _c) = system();
        sys.register_declarative_service(
            b,
            "all-pkgs",
            r#"for $p in doc("catalog")//pkg return {$p}"#,
        )
        .unwrap();
        let model = CostModel::from_system(&sys);
        let outer = Query::parse(
            "fmt",
            r#"for $t in $0 where $t/size/text() > 5000 return <hit>{$t/@name}</hit>"#,
        )
        .unwrap();
        let e = Expr::Apply {
            query: LocatedQuery::new(outer, a),
            args: vec![Expr::Sc {
                provider: PeerRef::At(b),
                service: "all-pkgs".into(),
                params: vec![],
                forward: vec![],
            }],
        };
        let pushed = R16PushOverSc.apply_at(a, &e, &model);
        assert_eq!(pushed.len(), 1);
        // equivalence
        let build = || {
            let (mut s, a, b, c) = system();
            s.register_declarative_service(
                b,
                "all-pkgs",
                r#"for $p in doc("catalog")//pkg return {$p}"#,
            )
            .unwrap();
            let _ = c;
            (s, a)
        };
        let (mut s1, site) = build();
        let (mut s2, _) = build();
        let v1 = s1.eval(site, &e).unwrap();
        let v2 = s2.eval(site, &pushed[0]).unwrap();
        assert!(forest_equiv(&v1, &v2));
        // pushed plan ships far less over b→a
        assert!(s2.stats().link(b, a).bytes < s1.stats().link(b, a).bytes);
    }

    #[test]
    fn r9_enumerates_replicas() {
        let (mut sys, _a, b, c) = system();
        sys.catalog_mut().add_doc_replica("cat", b, "catalog");
        sys.catalog_mut().add_doc_replica("cat", c, "catalog-c");
        let model = CostModel::from_system(&sys);
        let e = Expr::Doc {
            name: "cat".into(),
            at: PeerRef::Any,
        };
        let opts = R9Generic.apply_at(PeerId(0), &e, &model);
        assert_eq!(opts.len(), 2);
    }

    #[test]
    fn all_rewrites_reaches_nested_positions() {
        let (sys, a, b, _c) = system();
        let model = CostModel::from_system(&sys);
        let rules = standard_rules();
        let naive = naive_apply(a, b);
        let rewrites = all_rewrites(&rules, a, &naive, &model);
        assert!(!rewrites.is_empty());
        // at least delegation and decomposition fire
        let names: Vec<_> = rewrites.iter().map(|(n, _)| *n).collect();
        assert!(names.contains(&"R10-delegate"), "{names:?}");
        assert!(names.contains(&"R11-push-selections"), "{names:?}");
        // nested: the Doc argument can itself be relocated (R14 at depth 1)
        assert!(names.contains(&"R14-relocate"), "{names:?}");
    }
}
