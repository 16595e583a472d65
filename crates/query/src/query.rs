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
//! A query is its compiled [`Plan`], and it ships as the query text the
//! plan prints and the receiver parses, whether the plan was parsed or
//! made by a rewrite. Composition `q1(q2, …, qn)` is not a kind of query:
//! it belongs to the algebra, where rules (11) and (16) build it as an
//! `Apply` whose argument is an `Apply`.

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

/// A named query: the unit the algebra ships and delegates.
#[derive(Clone)]
pub struct Query {
    name: QueryName,
    def: Arc<QueryDef>,
}

/// What clones of a query share. The plan never changes after
/// construction, so everything derived from it (with the name) is
/// computed at most once per query, however many plans carry a clone of
/// it.
struct QueryDef {
    plan: Plan,
    /// The wire text and its 128-bit digest.
    wire: OnceLock<(String, u128)>,
    doc_dependencies: OnceLock<Vec<DocName>>,
    /// Rule (11)'s `(outer, pushed)`: the two derived queries exist once,
    /// and so do their own wire texts and digests.
    decomposed: OnceLock<Option<(Query, Query)>>,
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
        Ok(Self::from_plan(name, parse_plan(src, min_arity)?))
    }

    /// Build a query directly from a plan (used by rewrites). It ships as
    /// the text the plan prints, which parses back to an equal query when
    /// the plan numbers its variable slots in binding order, as the parser
    /// does — and as rule (11)'s split and rule (13)'s sharing leave them.
    pub fn from_plan(name: impl Into<QueryName>, plan: Plan) -> Self {
        Query {
            name: name.into(),
            def: Arc::new(QueryDef {
                plan,
                wire: OnceLock::new(),
                doc_dependencies: OnceLock::new(),
                decomposed: OnceLock::new(),
            }),
        }
    }

    /// The query's name.
    pub fn name(&self) -> &QueryName {
        &self.name
    }

    /// Number of input parameters.
    pub fn arity(&self) -> usize {
        self.def.plan.arity
    }

    /// The compiled plan.
    pub fn plan(&self) -> &Plan {
        &self.def.plan
    }

    /// Names of all `doc("…")` sources the query reads — the documents
    /// whose changes can change the query's answer (the continuous-service
    /// trigger logic; where the optimizer may place the query). Collected
    /// once per query.
    pub fn doc_dependencies(&self) -> &[DocName] {
        use crate::plan::{SourceRef, StartRef};
        self.def.doc_dependencies.get_or_init(|| {
            let mut out: Vec<DocName> = Vec::new();
            self.def.plan.visit_paths(&mut |p| {
                if let StartRef::Source(SourceRef::Doc(d)) = &p.start {
                    if !out.contains(d) {
                        out.push(d.clone());
                    }
                }
            });
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
        self.def.plan.eval(inputs, docs)
    }

    /// Start a continuous (incremental) evaluation of the query.
    ///
    /// Every query has one, so this never fails. It still answers a
    /// [`QueryResult`] because the benchmark harness calls `.map_err` on
    /// it; the wrapper goes with the other names that harness pins
    /// (ROADMAP item 2(b)).
    pub fn continuous<'d>(&self, docs: &'d dyn DocResolver) -> QueryResult<ContinuousEval<'d>> {
        Ok(ContinuousEval::new(self.def.plan.clone(), docs))
    }

    /// Example 1 — decompose into `(outer, pushed)` with
    /// `self ≡ outer ∘ pushed`, where `pushed` carries the selections.
    /// Derived once per query: every call hands out clones of the same
    /// two queries.
    pub fn decompose_selection(&self) -> Option<(Query, Query)> {
        let derive = || {
            let (outer, pushed) = rewrite::decompose_selection(&self.def.plan)?;
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
    /// place down, and the arity drops by one.
    pub fn share_param(&self, keep: usize, drop: usize) -> Query {
        use crate::plan::{SourceRef, StartRef};
        assert!(
            keep < drop && drop < self.arity(),
            "share_param({keep}, {drop}) of a query of arity {}",
            self.arity()
        );
        let mut plan = self.def.plan.clone();
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
        Query::from_plan(format!("{}·shared", self.name).as_str(), plan)
    }

    // ---------------- wire format -------------------------------------

    /// Rebuild a query from its XML serialization: `node` of `tree` is
    /// the `<query>` element of a parsed [`Query::wire_xml`].
    pub fn from_xml(tree: &Tree, node: axml_xml::tree::NodeId) -> QueryResult<Query> {
        let malformed = |what: &str| QueryError::Malformed(format!("query element lacks {what}"));
        let name = tree.attr(node, "name").ok_or_else(|| malformed("@name"))?;
        let arity: usize = tree
            .attr(node, "arity")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| malformed("@arity"))?;
        let src = tree
            .first_child_labeled(node, "source")
            .ok_or_else(|| malformed("<source>"))?;
        Query::parse_with_arity(name, &tree.text(src), arity)
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
        write!(out, "\" arity=\"{}\"><source>", self.arity())?;
        write!(XmlText(out), "{}", self.def.plan)?;
        out.push_str("</source></query>");
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
        self.def.plan == other.def.plan
    }
}

impl Eq for Query {}

impl fmt::Debug for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Query({} /{}: {})",
            self.name,
            self.arity(),
            self.def.plan
        )
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.name, self.arity())
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
            q.plan().to_string(),
            "for $a in $0//pkg where $a/size/text() > 1000 return {$a/@name}"
        );
    }

    #[test]
    fn decompose_equivalence_rule11() {
        let q = Query::parse(
            "q",
            r#"for $p in $0//pkg where $p/size/text() > 1000 return <big>{$p/@name}</big>"#,
        )
        .unwrap();
        let (outer, pushed) = q.decompose_selection().unwrap();
        let a = q.eval_batch(&[vec![catalog()]]).unwrap();
        // `outer(pushed($0))`, piped by hand.
        let mid = pushed.eval_batch(&[vec![catalog()]]).unwrap();
        let b = outer.eval_batch(&[mid]).unwrap();
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
        // The retired composition form is a query without a `<source>`.
        let t3 = Tree::parse(RETIRED_COMPOSE).unwrap();
        let e = Query::from_xml(&t3, t3.root()).unwrap_err();
        assert_eq!(
            e,
            QueryError::Malformed("query element lacks <source>".into())
        );
    }

    /// The `<compose>` wire form an older peer could send.
    const RETIRED_COMPOSE: &str = concat!(
        r#"<query name="c" arity="1"><compose>"#,
        r#"<query name="o" arity="1"><source>$0</source></query>"#,
        r#"<query name="i" arity="1"><source>$0//pkg</source></query>"#,
        r#"</compose></query>"#
    );

    #[test]
    fn continuous_from_query() {
        let q = Query::parse("watch", "for $p in $0//pkg return {$p/@name}").unwrap();
        let mut c = q.continuous(&NoDocs).unwrap();
        let out = c.push(0, catalog()).unwrap();
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn display_and_debug() {
        let q = Query::parse("q", "$0//pkg").unwrap();
        assert_eq!(q.to_string(), "q/1");
        assert_eq!(format!("{q:?}"), "Query(q /1: $0//pkg)");
    }
}
