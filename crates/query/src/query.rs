//! The top-level [`Query`] object: a named, declaratively-defined,
//! shippable query.
//!
//! §2.2: declarative services are implemented by *"declarative XML query
//! statements, possibly parameterized"* whose definitions are **visible to
//! other peers**. A [`Query`] therefore carries its own definition and can
//! be serialized as XML ([`Query::wire_xml`], read back by
//! [`Query::from_xml`]) — this is what crosses the wire when the algebra
//! ships code (`send(p2, q@p1)`, definition (8)).
//!
//! A query is either a *leaf* — its compiled [`Plan`], which ships as the
//! query text the plan prints and the receiver parses, whether the plan
//! was parsed or made by a rewrite — or a *composition* `q1(q2, …, qn)`
//! (§3.3, rule (11)): the inner queries all consume the composition's
//! inputs, and the outer query consumes their results.

use crate::delta::ContinuousEval;
use crate::error::{QueryError, QueryResult};
use crate::eval::{DocResolver, Forest, NoDocs};
use crate::parser::parse_plan;
use crate::plan::Plan;
use crate::rewrite;
use axml_xml::escape::{write_attr, write_text};
use axml_xml::ids::{DocName, QueryName};
use axml_xml::tree::Tree;
use std::fmt::{self, Write as _};
use std::sync::{Arc, OnceLock};

/// A named query: the unit the algebra ships, delegates and composes.
#[derive(Clone)]
pub struct Query {
    name: QueryName,
    arity: usize,
    def: Arc<QueryDef>,
}

/// What clones of a query share. Name, arity and kind never change
/// after construction, so everything derived from them alone is computed
/// at most once per query, however many plans carry a clone of it.
struct QueryDef {
    kind: QueryKind,
    /// The wire text and its 128-bit digest.
    wire: OnceLock<(String, u128)>,
    doc_dependencies: OnceLock<Vec<DocName>>,
    /// Rule (11)'s `(outer, pushed)`: the two derived queries exist once,
    /// and so do their own wire texts and digests.
    decomposed: OnceLock<Option<(Query, Query)>>,
}

#[allow(clippy::large_enum_variant)] // Leaf is by far the common case
enum QueryKind {
    Leaf(Plan),
    Composed { outer: Query, inners: Vec<Query> },
}

impl QueryDef {
    fn new(kind: QueryKind) -> Arc<Self> {
        Arc::new(QueryDef {
            kind,
            wire: OnceLock::new(),
            doc_dependencies: OnceLock::new(),
            decomposed: OnceLock::new(),
        })
    }
}

impl Query {
    /// Parse a query from source text. The arity is the number of
    /// parameters actually referenced (`$0 … $N`).
    pub fn parse(name: impl Into<QueryName>, src: &str) -> QueryResult<Self> {
        Self::parse_with_arity(name, src, 0)
    }

    /// Parse with a minimum arity (for services whose signature declares
    /// more parameters than the body reads).
    pub fn parse_with_arity(
        name: impl Into<QueryName>,
        src: &str,
        min_arity: usize,
    ) -> QueryResult<Self> {
        let plan = parse_plan(src, min_arity)?;
        Ok(Query {
            name: name.into(),
            arity: plan.arity,
            def: QueryDef::new(QueryKind::Leaf(plan)),
        })
    }

    /// Build a query directly from a plan (used by rewrites). It ships as
    /// the text the plan prints, which parses back to an equal query when
    /// the plan numbers its variable slots in binding order, as the parser
    /// does — and as rule (11)'s split and rule (13)'s sharing leave them.
    pub fn from_plan(name: impl Into<QueryName>, plan: Plan) -> Self {
        Query {
            name: name.into(),
            arity: plan.arity,
            def: QueryDef::new(QueryKind::Leaf(plan)),
        }
    }

    /// Compose `outer(inners…)` — rule (11). The outer query's arity must
    /// equal the number of inner queries; all inner queries must agree on
    /// their own arity, which becomes the composition's arity.
    pub fn compose(
        name: impl Into<QueryName>,
        outer: Query,
        inners: Vec<Query>,
    ) -> QueryResult<Self> {
        if outer.arity() != inners.len() {
            return Err(QueryError::ArityMismatch {
                expected: outer.arity(),
                got: inners.len(),
            });
        }
        let arity = inners.iter().map(Query::arity).max().unwrap_or(0);
        Ok(Query {
            name: name.into(),
            arity,
            def: QueryDef::new(QueryKind::Composed { outer, inners }),
        })
    }

    /// The query's name.
    pub fn name(&self) -> &QueryName {
        &self.name
    }

    /// Number of input parameters.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Is this a composition?
    pub fn is_composed(&self) -> bool {
        matches!(&self.def.kind, QueryKind::Composed { .. })
    }

    /// The compiled plan of a leaf query.
    pub fn plan(&self) -> Option<&Plan> {
        match &self.def.kind {
            QueryKind::Leaf(plan) => Some(plan),
            QueryKind::Composed { .. } => None,
        }
    }

    /// The outer/inner structure of a composition.
    pub fn composition(&self) -> Option<(&Query, &[Query])> {
        match &self.def.kind {
            QueryKind::Composed { outer, inners } => Some((outer, inners)),
            QueryKind::Leaf(_) => None,
        }
    }

    /// The compiled plans of every leaf of the query: its own, or for a
    /// composition the outer's, then each inner's.
    pub fn leaf_plans(&self) -> Vec<&Plan> {
        match &self.def.kind {
            QueryKind::Leaf(plan) => vec![plan],
            QueryKind::Composed { outer, inners } => std::iter::once(outer)
                .chain(inners)
                .flat_map(Query::leaf_plans)
                .collect(),
        }
    }

    /// Names of all `doc("…")` sources the query reads, across leaves and
    /// compositions — the documents whose changes can change the query's
    /// answer (the continuous-service trigger logic; where the optimizer
    /// may place the query). Collected once per query.
    pub fn doc_dependencies(&self) -> &[DocName] {
        use crate::plan::{SourceRef, StartRef};
        self.def.doc_dependencies.get_or_init(|| {
            let mut out: Vec<DocName> = Vec::new();
            for plan in self.leaf_plans() {
                plan.visit_paths(&mut |p| {
                    if let StartRef::Source(SourceRef::Doc(d)) = &p.start {
                        if !out.contains(d) {
                            out.push(d.clone());
                        }
                    }
                });
            }
            out
        })
    }

    /// Evaluate over input forests with no external documents.
    pub fn eval_batch(&self, inputs: &[Forest]) -> QueryResult<Vec<Tree>> {
        self.eval_with_docs(inputs, &NoDocs)
    }

    /// Evaluate over input forests, resolving `doc(…)` via `docs`.
    pub fn eval_with_docs(
        &self,
        inputs: &[Forest],
        docs: &dyn DocResolver,
    ) -> QueryResult<Vec<Tree>> {
        match &self.def.kind {
            QueryKind::Leaf(plan) => plan.eval(inputs, docs),
            QueryKind::Composed { outer, inners } => {
                let mid: Vec<Forest> = inners
                    .iter()
                    .map(|q| q.eval_with_docs(inputs, docs))
                    .collect::<QueryResult<_>>()?;
                outer.eval_with_docs(&mid, docs)
            }
        }
    }

    /// Start a continuous (incremental) evaluation of a **leaf** query.
    pub fn continuous<'d>(&self, docs: &'d dyn DocResolver) -> QueryResult<ContinuousEval<'d>> {
        match &self.def.kind {
            QueryKind::Leaf(plan) => Ok(ContinuousEval::new(plan.clone(), docs)),
            QueryKind::Composed { .. } => Err(QueryError::NotApplicable(
                "continuous evaluation of compositions: evaluate stage by stage".into(),
            )),
        }
    }

    /// Example 1 — decompose into `(outer, pushed)` with
    /// `self ≡ outer ∘ pushed`, where `pushed` carries the selections.
    /// Derived once per query: every call hands out clones of the same
    /// two queries.
    pub fn decompose_selection(&self) -> Option<(Query, Query)> {
        let derive = || {
            let (outer, pushed) = rewrite::decompose_selection(self.plan()?)?;
            Some((
                Query::from_plan(format!("{}·outer", self.name).as_str(), outer),
                Query::from_plan(format!("{}·pushed", self.name).as_str(), pushed),
            ))
        };
        self.def.decomposed.get_or_init(derive).clone()
    }

    /// Rule (13) — the query that reads one argument where `self` reads
    /// the same argument twice, as `$keep` and `$drop` (`keep < drop <
    /// arity`): `self(…, F, …, F, …) ≡ shared(…, F, …)`. Every read of
    /// `$drop` becomes a read of `$keep`, every later parameter moves one
    /// place down, and the arity drops by one. A composition shares the
    /// parameter in each inner query.
    pub fn share_param(&self, keep: usize, drop: usize) -> Query {
        use crate::plan::{SourceRef, StartRef};
        assert!(
            keep < drop && drop < self.arity,
            "share_param({keep}, {drop}) of a query of arity {}",
            self.arity
        );
        let name = format!("{}·shared", self.name);
        match &self.def.kind {
            QueryKind::Leaf(plan) => {
                let mut plan = plan.clone();
                rewrite::map_paths(&mut plan, &mut |p| {
                    if let StartRef::Source(SourceRef::Param(i)) = &mut p.start {
                        if *i == drop {
                            *i = keep;
                        } else if *i > drop {
                            *i -= 1;
                        }
                    }
                });
                plan.arity -= 1;
                Query::from_plan(name.as_str(), plan)
            }
            QueryKind::Composed { outer, inners } => {
                let inners = inners
                    .iter()
                    .map(|q| {
                        if q.arity > drop {
                            q.share_param(keep, drop)
                        } else {
                            q.clone()
                        }
                    })
                    .collect();
                Query::compose(name.as_str(), outer.clone(), inners)
                    .expect("the outer query's arity is unchanged")
            }
        }
    }

    // ---------------- wire format -------------------------------------

    /// Rebuild a query from its XML serialization: `node` of `tree` is
    /// the `<query>` element of a parsed [`Query::wire_xml`].
    pub fn from_xml(tree: &Tree, node: axml_xml::tree::NodeId) -> QueryResult<Query> {
        let name = tree
            .attr(node, "name")
            .ok_or_else(|| QueryError::Internal("query element lacks @name".into()))?
            .to_string();
        let arity: usize = tree
            .attr(node, "arity")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| QueryError::Internal("query element lacks @arity".into()))?;
        if let Some(src_el) = tree.first_child_labeled(node, "source") {
            let src = tree.text(src_el);
            return Query::parse_with_arity(name.as_str(), &src, arity);
        }
        if let Some(comp) = tree.first_child_labeled(node, "compose") {
            let parts: Vec<_> = tree.children_labeled(comp, "query").collect();
            if parts.is_empty() {
                return Err(QueryError::Internal("empty composition".into()));
            }
            let outer = Query::from_xml(tree, parts[0])?;
            let inners = parts[1..]
                .iter()
                .map(|&n| Query::from_xml(tree, n))
                .collect::<QueryResult<Vec<_>>>()?;
            return Query::compose(name.as_str(), outer, inners);
        }
        Err(QueryError::Internal(
            "query element has neither <source> nor <compose>".into(),
        ))
    }

    /// The query (definition included) as compact XML — §3.1: *"An
    /// expression can be viewed (serialized) as an XML tree."* This is
    /// the text that crosses the wire when the query is shipped, written
    /// straight from the definition, once per query (clones share it).
    pub fn wire_xml(&self) -> &str {
        &self.wire().0
    }

    /// A 128-bit digest of [`Query::wire_xml`], taken once per query: two
    /// queries have equal digests exactly when their wire texts are equal
    /// (up to a 2⁻¹²⁸ collision). The optimizer's memo key mixes this in
    /// instead of reading the text again for every candidate plan.
    pub fn wire_digest(&self) -> u128 {
        self.wire().1
    }

    fn wire(&self) -> &(String, u128) {
        self.def.wire.get_or_init(|| {
            let mut out = String::new();
            self.write_wire(&mut out)
                .expect("writing to a String cannot fail");
            let digest = fnv1a128(out.as_bytes());
            (out, digest)
        })
    }

    fn write_wire(&self, out: &mut String) -> fmt::Result {
        out.push_str("<query name=\"");
        write_attr(out, self.name.as_str())?;
        write!(out, "\" arity=\"{}\">", self.arity)?;
        match &self.def.kind {
            QueryKind::Leaf(plan) => {
                out.push_str("<source>");
                write!(XmlText(out), "{plan}")?;
                out.push_str("</source>");
            }
            QueryKind::Composed { outer, inners } => {
                out.push_str("<compose>");
                for q in std::iter::once(outer).chain(inners) {
                    out.push_str(q.wire_xml());
                }
                out.push_str("</compose>");
            }
        }
        out.push_str("</query>");
        Ok(())
    }

    /// Wire size of the shipped query (definition included) — what the
    /// cost model charges for code shipping (rule (10), definition (8)).
    pub fn wire_size(&self) -> usize {
        self.wire_xml().len()
    }
}

/// Escapes text as it is written into an element's content.
struct XmlText<'a>(&'a mut String);

impl fmt::Write for XmlText<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        write_text(self.0, s)
    }
}

/// 128-bit FNV-1a: wide enough to stand for the text it read.
fn fnv1a128(bytes: &[u8]) -> u128 {
    let mut h: u128 = 0x6c62272e07bb014262b821756295c58d;
    for &b in bytes {
        h = (h ^ u128::from(b)).wrapping_mul(0x0000000001000000000000000000013b);
    }
    h
}

impl PartialEq for Query {
    fn eq(&self, other: &Self) -> bool {
        if self.arity != other.arity {
            return false;
        }
        match (&self.def.kind, &other.def.kind) {
            (QueryKind::Leaf(a), QueryKind::Leaf(b)) => a == b,
            (
                QueryKind::Composed {
                    outer: oa,
                    inners: ia,
                },
                QueryKind::Composed {
                    outer: ob,
                    inners: ib,
                },
            ) => oa == ob && ia == ib,
            _ => false,
        }
    }
}

impl Eq for Query {}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.def.kind {
            QueryKind::Leaf(plan) => write!(f, "Query({} /{}: {plan})", self.name, self.arity),
            QueryKind::Composed { outer, inners } => {
                write!(f, "Query({} = {:?}(", self.name, outer.name)?;
                for (i, q) in inners.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{:?}", q.name)?;
                }
                write!(f, "))")
            }
        }
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::equiv::forest_equiv;

    fn catalog() -> Tree {
        Tree::parse(
            r#"<catalog>
                 <pkg name="vim"><size>4000</size></pkg>
                 <pkg name="gcc"><size>90000</size></pkg>
                 <pkg name="vi"><size>100</size></pkg>
               </catalog>"#,
        )
        .unwrap()
    }

    #[test]
    fn parse_and_eval() {
        let q = Query::parse(
            "big",
            r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p/@name}"#,
        )
        .unwrap();
        assert_eq!(q.arity(), 1);
        assert_eq!(q.name().as_str(), "big");
        let out = q.eval_batch(&[vec![catalog()]]).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(
            q.plan().unwrap().to_string(),
            "for $a in $0//pkg where $a/size/text() > 1000 return {$a/@name}"
        );
        assert!(!q.is_composed());
    }

    #[test]
    fn composition_evaluates_stagewise() {
        let inner = Query::parse(
            "sel",
            r#"for $p in $0//pkg where $p/size/text() > 1000 return {$p}"#,
        )
        .unwrap();
        let outer = Query::parse("fmt", "for $t in $0 return <big>{$t/@name}</big>").unwrap();
        let q = Query::compose("pipeline", outer, vec![inner]).unwrap();
        assert!(q.is_composed());
        assert_eq!(q.arity(), 1);
        let out = q.eval_batch(&[vec![catalog()]]).unwrap();
        let rendered: Vec<_> = out.iter().map(Tree::serialize).collect();
        assert_eq!(rendered, ["<big>vim</big>", "<big>gcc</big>"]);
    }

    #[test]
    fn compose_checks_arity() {
        let unary = Query::parse("u", "for $t in $0 return {$t}").unwrap();
        let e = Query::compose("bad", unary.clone(), vec![unary.clone(), unary]).unwrap_err();
        assert!(matches!(e, QueryError::ArityMismatch { .. }));
    }

    #[test]
    fn decompose_equivalence_rule11() {
        let q = Query::parse(
            "q",
            r#"for $p in $0//pkg where $p/size/text() > 1000 return <big>{$p/@name}</big>"#,
        )
        .unwrap();
        let (outer, pushed) = q.decompose_selection().unwrap();
        let composed = Query::compose("q'", outer, vec![pushed]).unwrap();
        let a = q.eval_batch(&[vec![catalog()]]).unwrap();
        let b = composed.eval_batch(&[vec![catalog()]]).unwrap();
        assert!(forest_equiv(&a, &b));
    }

    #[test]
    fn xml_roundtrip_leaf() {
        let q = Query::parse(
            "lookup",
            r#"for $p in $0//pkg where $p/@name = "vim" return {$p}"#,
        )
        .unwrap();
        let xml = Tree::parse(q.wire_xml()).unwrap();
        let back = Query::from_xml(&xml, xml.root()).unwrap();
        assert_eq!(q, back);
        assert_eq!(q.wire_xml(), xml.serialize());
        assert_eq!(q.wire_size(), xml.serialized_size());
    }

    #[test]
    fn xml_roundtrip_composed() {
        let inner = Query::parse("i", "for $p in $0//pkg return {$p}").unwrap();
        let outer = Query::parse("o", "for $t in $0 return <w>{$t}</w>").unwrap();
        let q = Query::compose("c", outer, vec![inner]).unwrap();
        let xml = Tree::parse(q.wire_xml()).unwrap();
        assert_eq!(q.wire_xml(), xml.serialize());
        let back = Query::from_xml(&xml, xml.root()).unwrap();
        assert_eq!(q, back);
        let a = q.eval_batch(&[vec![catalog()]]).unwrap();
        let b = back.eval_batch(&[vec![catalog()]]).unwrap();
        assert!(forest_equiv(&a, &b));
    }

    /// Two queries that differ only in their template are two queries,
    /// and so are their rewritten forms: rule (13)'s shared query and rule
    /// (11)'s outer query ship the template in their wire text, which
    /// parses back to the same query.
    #[test]
    fn rewritten_queries_keep_their_templates_apart() {
        let round_trip = |q: &Query| {
            let xml = Tree::parse(q.wire_xml()).unwrap();
            assert_eq!(&Query::from_xml(&xml, xml.root()).unwrap(), q);
        };
        let pair = |template: &str| {
            let src = format!(
                "for $x in $0//pkg for $y in $1//pkg where $x/size/text() > 1000 return {template}"
            );
            Query::parse("q", &src).unwrap()
        };
        let (a, b) = (pair("<big>{$x/@name}</big>"), pair("<small>{$y}</small>"));
        let (shared_a, shared_b) = (a.share_param(0, 1), b.share_param(0, 1));
        assert_ne!(shared_a.wire_digest(), shared_b.wire_digest());
        round_trip(&shared_a);

        let select = |template: &str| {
            let src = format!("for $p in $0//pkg where $p/size/text() > 1000 return {template}");
            Query::parse("q", &src).unwrap()
        };
        let (a, b) = (
            select("<big>{$p/@name}</big>"),
            select("<small>{$p/size}</small>"),
        );
        let ((outer_a, pushed_a), (outer_b, pushed_b)) = (
            a.decompose_selection().unwrap(),
            b.decompose_selection().unwrap(),
        );
        assert_ne!(outer_a.wire_digest(), outer_b.wire_digest());
        // The pushed halves are one query: the same scan and selection.
        assert_eq!(pushed_a.wire_digest(), pushed_b.wire_digest());
        round_trip(&outer_a);
        round_trip(&pushed_a);
    }

    #[test]
    fn from_xml_rejects_garbage() {
        let t = Tree::parse("<query/>").unwrap();
        assert!(Query::from_xml(&t, t.root()).is_err());
        let t2 = Tree::parse(r#"<query name="q" arity="0"/>"#).unwrap();
        assert!(Query::from_xml(&t2, t2.root()).is_err());
    }

    #[test]
    fn continuous_from_query() {
        let q = Query::parse("watch", "for $p in $0//pkg return {$p/@name}").unwrap();
        let mut c = q.continuous(&NoDocs).unwrap();
        let out = c.push(0, catalog()).unwrap();
        assert_eq!(out.len(), 3);
        // compositions refuse
        let comp = Query::compose(
            "c",
            Query::parse("o", "for $t in $0 return {$t}").unwrap(),
            vec![q],
        )
        .unwrap();
        assert!(comp.continuous(&NoDocs).is_err());
    }

    #[test]
    fn display_and_debug() {
        let q = Query::parse("q", "$0//pkg").unwrap();
        assert_eq!(q.to_string(), "q/1");
        assert_eq!(format!("{q:?}"), "Query(q /1: $0//pkg)");
    }
}
