//! The cost-based optimizer: best-first search over rule applications.
//!
//! §3.3 supplies equivalence rules; this module supplies the *"optimization
//! methodology"*: starting from the naive expression, repeatedly apply
//! every rule at every position ([`crate::rules::all_rewrites`]), estimate
//! each candidate with the [`CostModel`], and keep expanding the most
//! promising plans (beam search with memoization on expression
//! fingerprints; small spaces are explored exhaustively). The result is an
//! [`Explained`] plan carrying the rewrite trace, so callers — and the
//! benchmarks — can see exactly which paper rules produced the final
//! strategy.
//!
//! A search is a pure function of the naive plan, the optimizer's
//! configuration and what the cost model told it, so each system keeps
//! the plans it chose (`PlanCache`) and a repeated search is a lookup
//! for as long as the peers whose statistics it read keep their stamp
//! and the model's other facts stand at the stamps they stood at
//! (DESIGN.md §3.5, "A plan is searched once per state it read").

use crate::cost::{Cost, CostModel, Facts};
use crate::expr::Expr;
use crate::rules::{all_rewrites, standard_rules, RewriteRule};
use axml_obs::{Obs, TraceEvent};
use axml_xml::ids::PeerId;
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

/// How many chosen plans a system keeps; a full cache is emptied before
/// the next one goes in.
const PLAN_CACHE_CAP: usize = 256;

/// The plans a system's optimizers chose, by what asked for them. Its
/// map is private to this module: a plan leaves it only through
/// [`PlanCache::reuse`], which checks what the search read.
#[derive(Debug, Default)]
pub(crate) struct PlanCache(Mutex<HashMap<PlanKey, Reuse>>);

impl PlanCache {
    /// The stored plan for `key`, if what its search read still stands
    /// in `model`.
    fn reuse(&self, key: &PlanKey, model: &CostModel) -> Option<Explained> {
        self.0
            .lock()
            .expect("a thread panicked holding the plan cache")
            .get(key)
            .filter(|r| r.facts == model.facts && model.reads_hold(&r.reads))
            .map(|r| r.plan.clone())
    }

    /// Keep a search's plan, replacing what `key` held.
    fn store(&self, key: PlanKey, reuse: Reuse) {
        let mut plans = self
            .0
            .lock()
            .expect("a thread panicked holding the plan cache");
        if plans.len() >= PLAN_CACHE_CAP && !plans.contains_key(&key) {
            plans.clear();
        }
        plans.insert(key, reuse);
    }
}

/// One search's question: the naive plan (its memo key), the site, and
/// the optimizer's configuration. A rule is known by its name.
#[derive(Debug, PartialEq, Eq, Hash)]
struct PlanKey {
    naive: u128,
    site: PeerId,
    rules: Vec<&'static str>,
    beam_width: usize,
    max_explored: usize,
    stale_rounds: usize,
}

/// One search's answer and what it depended on.
#[derive(Debug)]
struct Reuse {
    plan: Explained,
    /// The peers whose statistics the search read, with their stamps.
    reads: Vec<(PeerId, (u64, u64))>,
    /// The other facts of the model it searched.
    facts: Facts,
}

/// Total order on scalar plan costs for the beam's open list.
///
/// `partial_cmp(..).unwrap_or(Equal)` would treat a NaN estimate as equal
/// to everything, letting it float anywhere in the beam (and potentially
/// evict finite candidates non-deterministically). `f64::total_cmp` sorts
/// positive NaN after `+∞`, so poisoned candidates sink to the back and
/// finite plans keep a well-defined order. Infinite costs stay legal —
/// they are how the model prices unreachable links.
pub(crate) fn beam_order(a: f64, b: f64) -> std::cmp::Ordering {
    a.total_cmp(&b)
}

/// An optimized plan with provenance.
#[derive(Debug, Clone)]
pub struct Explained {
    /// The evaluation site.
    pub site: PeerId,
    /// The chosen expression.
    pub expr: Expr,
    /// Its estimated cost.
    pub cost: Cost,
    /// The sequence of rule names that produced it from the input.
    pub trace: Vec<&'static str>,
    /// How many candidate plans the search examined.
    pub explored: usize,
}

impl std::fmt::Display for Explained {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "plan @{}: {}", self.site, self.expr)?;
        writeln!(f, "  est. cost: {}", self.cost)?;
        if self.trace.is_empty() {
            writeln!(f, "  (already optimal under the rule set)")?;
        } else {
            writeln!(f, "  via: {}", self.trace.join(" → "))?;
        }
        write!(f, "  explored {} candidates", self.explored)
    }
}

/// The rule-driven optimizer.
pub struct Optimizer {
    rules: Vec<Box<dyn RewriteRule>>,
    /// How many of the cheapest open plans are expanded per round; four
    /// times as many stay open between rounds. 0 is read as 1.
    pub beam_width: usize,
    /// Cap on the candidates examined, the input plan included: the
    /// search stops at the candidate that reaches it, so
    /// [`Explained::explored`] never exceeds it (nor falls below 1).
    pub max_explored: usize,
    /// Stop after this many expansion rounds without improving the best
    /// plan (convergence cutoff; the rule space is shallow, so small
    /// values lose nothing — see experiment E8).
    pub stale_rounds: usize,
}

impl Optimizer {
    /// All paper rules, beam 8, up to 2000 candidates, 3 stale rounds.
    pub fn standard() -> Self {
        Optimizer {
            rules: standard_rules(),
            beam_width: 8,
            max_explored: 2000,
            stale_rounds: 3,
        }
    }

    /// An optimizer with a custom rule set (ablations).
    pub fn with_rules(rules: Vec<Box<dyn RewriteRule>>) -> Self {
        Optimizer {
            rules,
            beam_width: 8,
            max_explored: 2000,
            stale_rounds: 3,
        }
    }

    /// Names of the active rules.
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.rules.iter().map(|r| r.name()).collect()
    }

    /// Optimize `expr` for evaluation at `site` under `model`.
    pub fn optimize(&self, model: &CostModel, site: PeerId, expr: &Expr) -> Explained {
        self.optimize_with(model, site, expr, &mut Obs::new())
    }

    /// [`Optimizer::optimize`] with instrumentation: per-rule attempt and
    /// acceptance counters, the explored (each one cost-model estimate
    /// and one memo miss) and memo hit counters,
    /// and — when `obs` has a sink — a [`TraceEvent::RuleAttempted`] per
    /// candidate plus a final [`TraceEvent::PlanChosen`].
    ///
    /// A search this system already made, over the same statistics and
    /// facts, is not made again: its plan comes back as it was (`explored`
    /// included), no counter moves, and the one event is a `PlanChosen`
    /// with `explored: 0`.
    ///
    /// Typically called as
    /// `opt.optimize_with(&model, site, &e, sys.obs_mut())` so the search
    /// shows up in the same report as the evaluation (`CostModel` shares
    /// what it needs with the system by owned handles, so the borrows
    /// don't conflict).
    pub fn optimize_with(
        &self,
        model: &CostModel,
        site: PeerId,
        expr: &Expr,
        obs: &mut Obs,
    ) -> Explained {
        let key = PlanKey {
            naive: expr.fingerprint_hash(),
            site,
            rules: self.rule_names(),
            beam_width: self.beam_width,
            max_explored: self.max_explored,
            stale_rounds: self.stale_rounds,
        };
        if let Some(plan) = model.plans.reuse(&key, model) {
            obs.emit(|| TraceEvent::PlanChosen {
                site,
                explored: 0,
                cost: plan.cost.scalar(),
                trace: plan.trace.iter().map(|&r| r.into()).collect(),
            });
            return plan;
        }
        model.forget_reads();
        let plan = self.search(model, site, expr, obs);
        model.plans.store(
            key,
            Reuse {
                plan: plan.clone(),
                reads: model.reads(),
                facts: model.facts.clone(),
            },
        );
        plan
    }

    /// The beam search itself.
    fn search(&self, model: &CostModel, site: PeerId, expr: &Expr, obs: &mut Obs) -> Explained {
        let explored_before = obs.metrics.explored;
        let initial_cost = model.estimate(site, expr).cost;
        let mut best = Explained {
            site,
            expr: expr.clone(),
            cost: initial_cost,
            trace: Vec::new(),
            explored: 1,
        };
        let mut seen: HashSet<u128> = HashSet::new();
        seen.insert(expr.fingerprint_hash());
        obs.metrics.explored += 1;
        // A candidate's rule trace is its parent's and one rule more: kept
        // as (parent's step, rule) links, spelled out for a new best plan.
        let mut steps: Vec<(Option<usize>, &'static str)> = Vec::new();
        let trace_to = |steps: &[(Option<usize>, &'static str)], last: usize| {
            let mut trace = Vec::new();
            let mut at = Some(last);
            while let Some((parent, rule)) = at.map(|i| steps[i]) {
                trace.push(rule);
                at = parent;
            }
            trace.reverse();
            trace
        };
        // Open list: (scalar cost, expr, last step). Kept sorted; cheap first.
        let mut open: Vec<(f64, Expr, Option<usize>)> =
            vec![(initial_cost.scalar(), expr.clone(), None)];
        let mut explored = 1usize;
        let mut stale = 0usize;
        // A beam of width 0 would expand nothing: it is a beam of one.
        let width = self.beam_width.max(1);
        while !open.is_empty() && explored < self.max_explored && stale <= self.stale_rounds {
            let best_before = best.cost.scalar();
            // Expand up to beam_width cheapest open plans.
            open.sort_by(|a, b| beam_order(a.0, b.0));
            open.truncate(width * 4);
            let batch: Vec<_> = open.drain(..open.len().min(width)).collect();
            'batch: for (_, cur, parent) in batch {
                for (rule, candidate) in all_rewrites(&self.rules, site, &cur, model) {
                    if !seen.insert(candidate.fingerprint_hash()) {
                        obs.metrics.memo_hits += 1;
                        continue;
                    }
                    obs.metrics.explored += 1;
                    explored += 1;
                    let cost = model.estimate(site, &candidate).cost;
                    steps.push((parent, rule));
                    let step = steps.len() - 1;
                    let accepted = cost.scalar() < best.cost.scalar();
                    obs.record(TraceEvent::RuleAttempted {
                        rule: rule.into(),
                        accepted,
                        cost: cost.scalar(),
                    });
                    if accepted {
                        best = Explained {
                            site,
                            expr: candidate.clone(),
                            cost,
                            trace: trace_to(&steps, step),
                            explored,
                        };
                    }
                    open.push((cost.scalar(), candidate, Some(step)));
                    if explored >= self.max_explored {
                        // the cap ends the search, not just this plan's
                        // rewrites
                        break 'batch;
                    }
                }
            }
            if best.cost.scalar() < best_before {
                stale = 0;
            } else {
                stale += 1;
            }
        }
        best.explored = explored;
        debug_assert_eq!(
            obs.metrics.explored - explored_before,
            explored as u64,
            "metric and search agree on the explored count"
        );
        obs.emit(|| TraceEvent::PlanChosen {
            site,
            explored,
            cost: best.cost.scalar(),
            trace: best.trace.iter().map(|&r| r.into()).collect(),
        });
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{LocatedQuery, PeerRef, SendDest};
    use crate::system::AxmlSystem;
    use axml_net::link::LinkCost;
    use axml_query::Query;
    use axml_xml::equiv::forest_equiv;
    use axml_xml::tree::Tree;

    fn catalog_xml(n: usize) -> String {
        let mut xml = String::from("<catalog>");
        for i in 0..n {
            xml.push_str(&format!(
                r#"<pkg name="package-{i}"><size>{}</size><desc>description {i} of a software package</desc></pkg>"#,
                i * 137 % 10000
            ));
        }
        xml.push_str("</catalog>");
        xml
    }

    fn system() -> (AxmlSystem, PeerId, PeerId) {
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("client");
        let b = sys.add_peer("server");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        sys.install_doc(b, "catalog", Tree::parse(&catalog_xml(200)).unwrap())
            .unwrap();
        (sys, a, b)
    }

    fn selective_apply(a: PeerId, b: PeerId) -> Expr {
        let q = Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 9000 return <big>{$p/@name}</big>"#,
        )
        .unwrap();
        Expr::Apply {
            query: LocatedQuery::new(q, a),
            args: vec![Expr::Doc {
                name: "catalog".into(),
                at: PeerRef::At(b),
            }],
        }
    }

    #[test]
    fn optimizer_beats_naive_on_selective_remote_query() {
        let (sys, a, b) = system();
        let model = CostModel::from_system(&sys);
        let naive = selective_apply(a, b);
        let opt = Optimizer::standard();
        let plan = opt.optimize(&model, a, &naive);
        assert!(
            plan.cost.scalar() < model.scalar_cost(a, &naive),
            "optimizer must improve: {plan}"
        );
        assert!(!plan.trace.is_empty());
        // the winning strategy involves delegation or pushed selections
        assert!(
            plan.trace
                .iter()
                .any(|r| r.starts_with("R10") || r.starts_with("R11")),
            "{:?}",
            plan.trace
        );
        // and the optimized plan actually computes the same answer cheaper
        let (mut s1, _, _) = (system().0, 0, 0);
        let (mut s2, _, _) = (system().0, 0, 0);
        let v1 = s1.eval(a, &naive).unwrap();
        let v2 = s2.eval(a, &plan.expr).unwrap();
        assert!(forest_equiv(&v1, &v2));
        assert!(s2.stats().total_bytes() < s1.stats().total_bytes());
    }

    #[test]
    fn local_plan_stays_put() {
        let (sys, _a, b) = system();
        let model = CostModel::from_system(&sys);
        let local = Expr::Doc {
            name: "catalog".into(),
            at: PeerRef::At(b),
        };
        let opt = Optimizer::standard();
        let plan = opt.optimize(&model, b, &local);
        assert!(
            plan.trace.is_empty(),
            "local read can't be improved: {plan}"
        );
        assert_eq!(plan.cost.messages, 0.0);
    }

    #[test]
    fn explain_renders() {
        let (sys, a, b) = system();
        let model = CostModel::from_system(&sys);
        let plan = Optimizer::standard().optimize(&model, a, &selective_apply(a, b));
        let s = plan.to_string();
        assert!(s.contains("est. cost"), "{s}");
        assert!(s.contains("via:"), "{s}");
        assert!(s.contains("explored"), "{s}");
    }

    #[test]
    fn ablated_optimizer_is_weaker() {
        let (sys, a, b) = system();
        let model = CostModel::from_system(&sys);
        let naive = selective_apply(a, b);
        let full = Optimizer::standard().optimize(&model, a, &naive);
        let ablated = Optimizer::with_rules(vec![]).optimize(&model, a, &naive);
        assert!(full.cost.scalar() < ablated.cost.scalar());
        assert_eq!(ablated.explored, 1);
        assert!(Optimizer::standard()
            .rule_names()
            .contains(&"R16-push-over-sc"));
    }

    #[test]
    fn beam_order_keeps_nan_behind_finite_costs() {
        let mut costs = [f64::NAN, 1.0, f64::INFINITY, 0.5, f64::NAN];
        costs.sort_by(|a, b| beam_order(*a, *b));
        assert_eq!(costs[0], 0.5);
        assert_eq!(costs[1], 1.0);
        assert!(costs[2].is_infinite());
        assert!(costs[3].is_nan() && costs[4].is_nan());
        // and the order is total: equal NaNs compare Equal, not "anything"
        assert_eq!(beam_order(f64::NAN, f64::NAN), std::cmp::Ordering::Equal);
        assert_eq!(beam_order(0.0, f64::NAN), std::cmp::Ordering::Less);
    }

    #[test]
    fn degenerate_cost_model_keeps_search_deterministic() {
        // A pathological link prices every remote transfer at +∞; the
        // search must still terminate with a well-defined plan instead of
        // letting non-finite comparisons corrupt the beam.
        let build = || {
            let mut sys = AxmlSystem::new();
            let a = sys.add_peer("client");
            let b = sys.add_peer("server");
            sys.net_mut().set_link(
                a,
                b,
                LinkCost {
                    latency_ms: f64::INFINITY,
                    bytes_per_ms: f64::MIN_POSITIVE,
                    per_msg_bytes: 0,
                },
            );
            sys.install_doc(b, "catalog", Tree::parse(&catalog_xml(20)).unwrap())
                .unwrap();
            (sys, a, b)
        };
        let (sys, a, b) = build();
        let naive = selective_apply(a, b);
        // two independent searches, each the first on its own system
        let model = CostModel::from_system(&sys);
        let p1 = Optimizer::standard().optimize(&model, a, &naive);
        let p2 = Optimizer::standard().optimize(&CostModel::from_system(&build().0), a, &naive);
        assert!(p1.cost.scalar().is_infinite(), "all plans are remote: {p1}");
        assert_eq!(p1.expr.fingerprint(), p2.expr.fingerprint(), "stable");
        assert_eq!(p1.explored, p2.explored);
        assert_eq!(p1.trace, p2.trace);
        // and the first system reuses its plan, infinite cost and all
        let mut obs = Obs::new();
        let p3 = Optimizer::standard().optimize_with(&model, a, &naive, &mut obs);
        assert_eq!(obs.metrics.explored, 0, "a reuse");
        assert_eq!(p3.cost.scalar().to_bits(), p1.cost.scalar().to_bits());
    }

    #[test]
    fn the_explored_counter_follows_the_search() {
        let (sys, a, b) = system();
        let model = CostModel::from_system(&sys);
        let mut obs = Obs::new();
        let plan = Optimizer::standard().optimize_with(&model, a, &selective_apply(a, b), &mut obs);
        // every unique fingerprint is one explored candidate (a memo
        // miss); every duplicate is one hit
        assert_eq!(obs.metrics.explored, plan.explored as u64);
        assert!(obs.metrics.memo_hits > 0);
        // the same search again on this system is a reuse: the same plan,
        // and no counter moves
        let before = obs.metrics.to_json();
        let again =
            Optimizer::standard().optimize_with(&model, a, &selective_apply(a, b), &mut obs);
        assert_eq!(again.explored, plan.explored);
        assert_eq!(obs.metrics.to_json(), before);
        // and the invariant survives a second, cumulative search on
        // another system
        let (other, _, _) = system();
        let model = CostModel::from_system(&other);
        Optimizer::standard().optimize_with(&model, a, &selective_apply(a, b), &mut obs);
        assert_eq!(obs.metrics.explored, 2 * plan.explored as u64);
    }

    /// A reuse emits one `PlanChosen` with `explored: 0` and nothing else;
    /// what invalidates it is what the search read, and only that.
    #[test]
    fn a_reuse_is_one_plan_chosen_event_until_what_the_search_read_moves() {
        use axml_obs::VecSink;
        let (mut sys, a, b) = system();
        let naive = selective_apply(a, b);
        let search = |sys: &AxmlSystem| {
            let mut obs = Obs::new();
            let sink = VecSink::new();
            obs.set_sink(Box::new(sink.clone()));
            let plan = Optimizer::standard().optimize_with(
                &CostModel::from_system(sys),
                a,
                &naive,
                &mut obs,
            );
            (plan, sink.events())
        };
        let (cold, events) = search(&sys);
        assert!(events.len() > 1, "a search emits per candidate");
        let (warm, events) = search(&sys);
        assert_eq!(warm.expr.fingerprint(), cold.expr.fingerprint());
        assert_eq!(warm.explored, cold.explored);
        assert!(
            matches!(
                events.as_slice(),
                [TraceEvent::PlanChosen { explored: 0, .. }]
            ),
            "{events:?}"
        );
        // a document at the client is read by nobody's search here
        sys.install_doc(a, "note", Tree::parse("<n/>").unwrap())
            .unwrap();
        assert_eq!(
            search(&sys).1.len(),
            1,
            "the client's statistics were not read"
        );
        // the server's catalog was
        sys.feed(b, "catalog", Tree::parse(r#"<pkg name="x"/>"#).unwrap())
            .unwrap();
        assert!(
            search(&sys).1.len() > 1,
            "the server's statistics were read"
        );
        // and a link is a fact, compared by stamp
        assert_eq!(search(&sys).1.len(), 1);
        sys.net_mut().set_link(a, b, LinkCost::slow());
        assert!(search(&sys).1.len() > 1, "a link changed");
        sys.net_mut().set_link(a, b, LinkCost::wan());
        assert!(search(&sys).1.len() > 1, "and changed back");
    }

    #[test]
    fn max_explored_caps_the_whole_search() {
        // Reaching the cap used to leave only one plan's rewrites, so each
        // remaining plan of the batch admitted one more candidate.
        let (sys, a, b) = system();
        let model = CostModel::from_system(&sys);
        let naive = selective_apply(a, b);
        for cap in [1, 2, 5, 10, 17, 40] {
            let mut opt = Optimizer::standard();
            opt.max_explored = cap;
            let mut obs = Obs::new();
            let plan = opt.optimize_with(&model, a, &naive, &mut obs);
            assert!(
                plan.explored <= cap,
                "cap {cap}: explored {}",
                plan.explored
            );
            assert_eq!(obs.metrics.explored, plan.explored as u64, "cap {cap}");
        }
    }

    #[test]
    fn a_beam_of_width_zero_is_a_beam_of_one() {
        // Width 0 used to keep one plan open but expand none of it: the
        // search returned the naive plan with `explored == 1`.
        let (sys, a, b) = system();
        let model = CostModel::from_system(&sys);
        let naive = selective_apply(a, b);
        let search = |width| {
            let mut opt = Optimizer::standard();
            opt.beam_width = width;
            opt.optimize(&model, a, &naive)
        };
        let (zero, one) = (search(0), search(1));
        assert!(zero.explored > 1, "{zero}");
        assert_eq!(zero.explored, one.explored);
        assert_eq!(zero.trace, one.trace);
        assert_eq!(zero.expr.fingerprint(), one.expr.fingerprint());
        assert_eq!(zero.cost, one.cost);
    }

    #[test]
    fn relay_found_when_triangle_inequality_fails() {
        // a↔b is terrible, but a↔c and c↔b are fast: the optimizer should
        // route the fetch through c (rule (12) right-to-left).
        let mut sys = AxmlSystem::new();
        let a = sys.add_peer("a");
        let b = sys.add_peer("b");
        let c = sys.add_peer("relay");
        sys.net_mut().set_link(
            a,
            b,
            LinkCost {
                latency_ms: 500.0,
                bytes_per_ms: 10.0,
                per_msg_bytes: 256,
            },
        );
        sys.net_mut().set_link(a, c, LinkCost::lan());
        sys.net_mut().set_link(b, c, LinkCost::lan());
        sys.install_doc(b, "catalog", Tree::parse(&catalog_xml(100)).unwrap())
            .unwrap();
        let model = CostModel::from_system(&sys);
        let naive = Expr::EvalAt {
            peer: b,
            expr: Box::new(Expr::Send {
                dest: SendDest::Peer(a),
                payload: Box::new(Expr::Doc {
                    name: "catalog".into(),
                    at: PeerRef::At(b),
                }),
            }),
        };
        let plan = Optimizer::standard().optimize(&model, a, &naive);
        assert!(
            plan.trace.contains(&"R12-add-stop"),
            "expected relay: {plan}"
        );
        // and the relayed plan really is equivalent
        let mut sys2 = AxmlSystem::new();
        let _ = (
            sys2.add_peer("a"),
            sys2.add_peer("b"),
            sys2.add_peer("relay"),
        );
        sys2.install_doc(b, "catalog", Tree::parse(&catalog_xml(100)).unwrap())
            .unwrap();
        let v1 = sys2.eval(a, &naive).unwrap();
        let mut sys3 = AxmlSystem::new();
        let _ = (
            sys3.add_peer("a"),
            sys3.add_peer("b"),
            sys3.add_peer("relay"),
        );
        sys3.install_doc(b, "catalog", Tree::parse(&catalog_xml(100)).unwrap())
            .unwrap();
        let v2 = sys3.eval(a, &plan.expr).unwrap();
        assert!(forest_equiv(&v1, &v2));
    }
}
