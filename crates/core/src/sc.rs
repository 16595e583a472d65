//! `sc` elements inside AXML documents — §2.2 and the §2.3 extensions.
//!
//! An AXML document is an XML document in which some elements are labeled
//! `sc` (service call). An `sc` element has children:
//!
//! * `<peer>` — the providing peer (`p3`) or `any` (generic services),
//! * `<service>` — the service name,
//! * `<param1> … <paramN>` — the call parameters (arbitrary XML, possibly
//!   themselves containing `sc` elements),
//! * `<forw>` — zero or more forward targets `doc#node@pK` (§2.3: where
//!   the results should accumulate; default = the `sc`'s parent),
//! * optional `@id` and `@after` attributes implementing the activation
//!   chain of §2.2 (*"a call must be activated just after a response to
//!   another activated call has been received"*), and an optional
//!   `@mode="lazy"` for calls activated only when a query needs them.

use crate::error::{CoreError, CoreResult};
use crate::expr::{format_addr, parse_addr, PeerRef};
use axml_xml::ids::{NodeAddr, ServiceName};
use axml_xml::tree::{NodeId, Tree};

/// The label marking service-call elements.
pub const SC_LABEL: &str = "sc";

/// When an embedded call fires.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ActivationMode {
    /// Activate as soon as the document is installed / evaluated.
    #[default]
    Immediate,
    /// Activate only when a query over the document needs the result
    /// (lazy AXML, reference \[2\] of the paper).
    Lazy,
    /// Activate after each response of the call with the given id
    /// (continuous chaining, §2.2).
    After(String),
}

/// A parsed `sc` element.
#[derive(Debug, Clone, PartialEq)]
pub struct ScNode {
    /// Optional identifier (used by `@after` chains).
    pub id: Option<String>,
    /// The provider: a concrete peer, or `any` — resolved through the
    /// generic-service catalog.
    pub provider: PeerRef,
    /// The service to call.
    pub service: ServiceName,
    /// Parameter subtrees (copies).
    pub params: Vec<Tree>,
    /// Forward list; empty = default (the `sc`'s parent).
    pub forward: Vec<NodeAddr>,
    /// Activation mode.
    pub mode: ActivationMode,
}

impl ScNode {
    /// Is this node an `sc` element?
    pub fn is_sc(tree: &Tree, node: NodeId) -> bool {
        tree.label(node).is_some_and(|l| l.as_str() == SC_LABEL)
    }

    /// Parse the `sc` element at `node`.
    pub fn parse(tree: &Tree, node: NodeId) -> CoreResult<ScNode> {
        if !Self::is_sc(tree, node) {
            return Err(CoreError::Malformed("not an <sc> element".into()));
        }
        // Zero-copy parameter views into the host document's arena.
        let (provider, service, params, forward) =
            read_sc(tree, node, |param| Ok(tree.subtree(param)?))?;
        let mode = match (tree.attr(node, "mode"), tree.attr(node, "after")) {
            (_, Some(after)) => ActivationMode::After(after.to_string()),
            (Some("lazy"), None) => ActivationMode::Lazy,
            (Some("immediate") | None, None) => ActivationMode::Immediate,
            (Some(other), None) => {
                return Err(CoreError::Malformed(format!("unknown @mode `{other}`")))
            }
        };
        Ok(ScNode {
            id: tree.attr(node, "id").map(str::to_string),
            provider,
            service,
            params,
            forward,
            mode,
        })
    }

    /// The node a call at `node` in `tree` answers under by default (§2.2
    /// step 3: results accumulate as siblings of the `sc`): its parent.
    pub fn host(tree: &Tree, node: NodeId) -> CoreResult<NodeId> {
        tree.parent(node)
            .ok_or_else(|| CoreError::Malformed("sc element at document root".into()))
    }

    /// The parameter forests the call ships: one forest per parameter,
    /// holding its subtree.
    pub fn param_forests(&self) -> Vec<Vec<Tree>> {
        self.params.iter().map(|p| vec![p.clone()]).collect()
    }

    /// Append this call as an `sc` child of `parent` in `tree`; returns
    /// the new element.
    pub fn write(&self, tree: &mut Tree, parent: NodeId) -> NodeId {
        let sc = tree.add_element(parent, SC_LABEL);
        if let Some(id) = &self.id {
            tree.set_attr(sc, "id", id.clone()).expect("element");
        }
        match &self.mode {
            ActivationMode::Immediate => {}
            ActivationMode::Lazy => {
                tree.set_attr(sc, "mode", "lazy").expect("element");
            }
            ActivationMode::After(a) => {
                tree.set_attr(sc, "after", a.clone()).expect("element");
            }
        }
        tree.add_text_element(sc, "peer", self.provider.to_string());
        tree.add_text_element(sc, "service", self.service.as_str());
        for (i, p) in self.params.iter().enumerate() {
            let pe = tree.add_element(sc, format!("param{}", i + 1).as_str());
            tree.graft(pe, p, p.root())
                .expect("param wrapper is an element");
        }
        for a in &self.forward {
            tree.add_text_element(sc, "forw", format_addr(a));
        }
        sc
    }

    /// The params' parameter subtrees, wrapped in a fresh `<sc>`-rooted
    /// tree (round-trip helper).
    pub fn to_tree(&self) -> Tree {
        let mut t = Tree::new("holder");
        let root = t.root();
        let sc = self.write(&mut t, root);
        t.subtree(sc).expect("freshly written node is valid")
    }

    /// Find every `sc` element in the subtree of `node` (preorder),
    /// excluding `sc` elements nested inside another `sc`'s parameters
    /// (those activate with the inner call, not now).
    pub fn find_all(tree: &Tree, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        fn walk(tree: &Tree, n: NodeId, out: &mut Vec<NodeId>) {
            if ScNode::is_sc(tree, n) {
                out.push(n);
                return; // don't descend into params
            }
            for &c in tree.children(n) {
                walk(tree, c, out);
            }
        }
        walk(tree, node, &mut out);
        out
    }
}

/// Read what every `<sc>` element carries, in a document ([`ScNode`]) or
/// in a shipped expression ([`crate::expr::Expr::Sc`]): provider,
/// service, parameters and forward list. `param` reads the one child of
/// each `<paramN>` wrapper — a tree to the first, an expression to the
/// second.
pub(crate) fn read_sc<P>(
    tree: &Tree,
    node: NodeId,
    mut param: impl FnMut(NodeId) -> CoreResult<P>,
) -> CoreResult<(PeerRef, ServiceName, Vec<P>, Vec<NodeAddr>)> {
    let child = |label: &str| {
        tree.first_child_labeled(node, label)
            .ok_or_else(|| CoreError::Malformed(format!("<sc> lacks <{label}>")))
    };
    let provider = tree.text(child("peer")?).parse()?;
    let service = ServiceName::new(tree.text(child("service")?));
    let mut params = Vec::new();
    for i in 1.. {
        let Some(wrapper) = tree.first_child_labeled(node, &format!("param{i}")) else {
            break;
        };
        let &[inner] = tree.children(wrapper) else {
            return Err(CoreError::Malformed(format!(
                "<param{i}> must wrap exactly one child"
            )));
        };
        params.push(param(inner)?);
    }
    let forward = tree
        .children_labeled(node, "forw")
        .map(|c| parse_addr(&tree.text(c)))
        .collect::<CoreResult<Vec<_>>>()?;
    Ok((provider, service, params, forward))
}

#[cfg(test)]
mod tests {
    use super::*;
    use axml_xml::ids::PeerId;
    use axml_xml::tree::NodeId as N;

    fn sample() -> ScNode {
        ScNode {
            id: Some("c1".into()),
            provider: PeerRef::At(PeerId(2)),
            service: "lookup".into(),
            params: vec![
                Tree::parse("<q>vim</q>").unwrap(),
                Tree::parse("<opts><max>10</max></opts>").unwrap(),
            ],
            forward: vec![NodeAddr::new(PeerId(0), "inbox", N::from_index(0).unwrap())],
            mode: ActivationMode::After("c0".into()),
        }
    }

    #[test]
    fn write_parse_roundtrip() {
        let sc = sample();
        let t = sc.to_tree();
        let back = ScNode::parse(&t, t.root()).unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn roundtrip_generic_and_defaults() {
        let sc = ScNode {
            id: None,
            provider: PeerRef::Any,
            service: "search".into(),
            params: vec![],
            forward: vec![],
            mode: ActivationMode::Immediate,
        };
        let t = sc.to_tree();
        let back = ScNode::parse(&t, t.root()).unwrap();
        assert_eq!(sc, back);
    }

    #[test]
    fn lazy_mode_roundtrip() {
        let sc = ScNode {
            mode: ActivationMode::Lazy,
            id: None,
            ..sample()
        };
        let t = sc.to_tree();
        assert_eq!(
            ScNode::parse(&t, t.root()).unwrap().mode,
            ActivationMode::Lazy
        );
    }

    #[test]
    fn parse_from_handwritten_xml() {
        let t = Tree::parse(
            r#"<sc><peer>p3</peer><service>news</service>
               <param1><topic>db</topic></param1>
               <forw>feed#0@p0</forw></sc>"#,
        )
        .unwrap();
        let sc = ScNode::parse(&t, t.root()).unwrap();
        assert_eq!(sc.provider, PeerRef::At(PeerId(3)));
        assert_eq!(sc.service.as_str(), "news");
        assert_eq!(sc.params.len(), 1);
        assert_eq!(sc.params[0].serialize(), "<topic>db</topic>");
        assert_eq!(sc.forward.len(), 1);
        assert_eq!(sc.forward[0].peer, PeerId(0));
    }

    #[test]
    fn malformed_rejected() {
        for bad in [
            "<sc/>",
            "<sc><peer>p0</peer></sc>",
            "<sc><peer>zz</peer><service>s</service></sc>",
            "<notsc/>",
            r#"<sc mode="weird"><peer>p0</peer><service>s</service></sc>"#,
        ] {
            let t = Tree::parse(bad).unwrap();
            assert!(ScNode::parse(&t, t.root()).is_err(), "{bad}");
        }
    }

    #[test]
    fn find_all_skips_nested_params() {
        let t = Tree::parse(
            r#"<doc>
                 <sc><peer>p1</peer><service>a</service>
                   <param1><sc><peer>p2</peer><service>inner</service></sc></param1>
                 </sc>
                 <data/>
                 <sc><peer>p2</peer><service>b</service></sc>
               </doc>"#,
        )
        .unwrap();
        let found = ScNode::find_all(&t, t.root());
        assert_eq!(found.len(), 2);
        let services: Vec<_> = found
            .iter()
            .map(|&n| ScNode::parse(&t, n).unwrap().service.to_string())
            .collect();
        assert_eq!(services, ["a", "b"]);
    }
}
