//! Schemas: named element types, attribute declarations, validation.
//!
//! A [`Schema`] is a regular tree grammar: a finite map from [`TypeName`]s
//! to element types (attribute declarations + a content model). We impose
//! XML Schema's *Element Declarations Consistent* restriction — inside one
//! content model a label is bound to a single type — which makes top-down
//! single-pass validation deterministic.

use crate::content::{Content, Item};
use crate::error::{TypeError, TypeResult};
use axml_xml::tree::{NodeId, NodeKind, Tree};
use axml_xml::Label;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The name of a type in Θ.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeName(Arc<str>);

impl TypeName {
    /// Wrap a type name.
    pub fn new(s: impl AsRef<str>) -> Self {
        TypeName(Arc::from(s.as_ref()))
    }

    /// View as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Is this the wildcard type `xs:anyType`, which any tree validates
    /// against?
    pub fn is_any(&self) -> bool {
        &*self.0 == "xs:anyType"
    }
}

impl fmt::Display for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for TypeName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TypeName({:?})", &*self.0)
    }
}

impl From<&str> for TypeName {
    fn from(s: &str) -> Self {
        TypeName::new(s)
    }
}

impl From<String> for TypeName {
    fn from(s: String) -> Self {
        TypeName(Arc::from(s))
    }
}

/// Constraint on an attribute's value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// Any string.
    String,
    /// An integer (`i64`).
    Int,
    /// `true` or `false`.
    Bool,
    /// One of an enumerated set of strings.
    Enum(Vec<String>),
}

impl AttrValue {
    /// Does `v` satisfy this constraint?
    pub fn accepts(&self, v: &str) -> bool {
        match self {
            AttrValue::String => true,
            AttrValue::Int => v.parse::<i64>().is_ok(),
            AttrValue::Bool => v == "true" || v == "false",
            AttrValue::Enum(options) => options.iter().any(|o| o == v),
        }
    }
}

/// Declaration of one attribute on an element type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrDecl {
    /// Attribute name.
    pub name: Label,
    /// Must the attribute be present?
    pub required: bool,
    /// Value constraint.
    pub value: AttrValue,
}

impl AttrDecl {
    /// A required string attribute.
    pub fn required(name: impl Into<Label>) -> Self {
        AttrDecl {
            name: name.into(),
            required: true,
            value: AttrValue::String,
        }
    }

    /// An optional string attribute.
    pub fn optional(name: impl Into<Label>) -> Self {
        AttrDecl {
            name: name.into(),
            required: false,
            value: AttrValue::String,
        }
    }

    /// Override the value constraint.
    pub fn with_value(mut self, value: AttrValue) -> Self {
        self.value = value;
        self
    }
}

/// One named element type: attribute declarations plus a content model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementType {
    /// Declared attributes.
    pub attrs: Vec<AttrDecl>,
    /// Are attributes outside `attrs` allowed?
    pub open_attrs: bool,
    /// The content model.
    pub content: Content,
}

impl ElementType {
    /// A type with no attribute declarations (but open to any attribute)
    /// and the given content model.
    pub fn of(content: Content) -> Self {
        ElementType {
            attrs: Vec::new(),
            open_attrs: true,
            content,
        }
    }
}

/// A validated regular tree grammar.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    types: BTreeMap<TypeName, ElementType>,
}

/// Builder for [`Schema`] — collects definitions, then checks them.
#[derive(Debug, Default)]
pub struct SchemaBuilder {
    types: BTreeMap<TypeName, ElementType>,
    duplicate: Option<TypeName>,
}

impl SchemaBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Define a type with attributes open and the given content model.
    pub fn ty(self, name: impl Into<TypeName>, content: Content) -> Self {
        self.element_type(name, ElementType::of(content))
    }

    /// Define a full element type.
    pub fn element_type(mut self, name: impl Into<TypeName>, et: ElementType) -> Self {
        let name = name.into();
        if self.types.insert(name.clone(), et).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name);
        }
        self
    }

    /// Check the definitions and produce a [`Schema`].
    ///
    /// Verifies that (a) no type is defined twice, (b) every referenced
    /// type is defined (or is the wildcard), and (c) each content model is
    /// single-type (consistent element declarations).
    pub fn build(self) -> TypeResult<Schema> {
        if let Some(d) = self.duplicate {
            return Err(TypeError::DuplicateType(d.to_string()));
        }
        for (name, et) in &self.types {
            // (b) referenced types exist
            let mut missing: Option<TypeName> = None;
            et.content.for_each_binding(&mut |_, t| {
                if missing.is_none() && !t.is_any() && !self.types.contains_key(t) {
                    missing = Some(t.clone());
                }
            });
            if let Some(m) = missing {
                return Err(TypeError::UndefinedType {
                    name: m.to_string(),
                    referenced_from: name.to_string(),
                });
            }
            // (c) single-type restriction
            let mut seen: BTreeMap<Label, TypeName> = BTreeMap::new();
            let mut conflict: Option<TypeError> = None;
            et.content.for_each_binding(&mut |l, t| {
                if conflict.is_some() {
                    return;
                }
                match seen.get(l) {
                    Some(prev) if prev != t => {
                        conflict = Some(TypeError::InconsistentLabel {
                            label: l.to_string(),
                            in_type: name.to_string(),
                            first: prev.to_string(),
                            second: t.to_string(),
                        });
                    }
                    Some(_) => {}
                    None => {
                        seen.insert(*l, t.clone());
                    }
                }
            });
            if let Some(c) = conflict {
                return Err(c);
            }
        }
        Ok(Schema { types: self.types })
    }
}

impl Schema {
    /// Start building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::new()
    }

    /// Look up a type definition.
    pub fn get(&self, name: &TypeName) -> Option<&ElementType> {
        self.types.get(name)
    }

    /// Number of defined types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// True when no types are defined.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Validate the subtree of `tree` rooted at `node` against `ty`.
    pub fn validate_node(&self, tree: &Tree, node: NodeId, ty: &TypeName) -> TypeResult<()> {
        let mut path = String::new();
        self.validate_rec(tree, node, ty, &mut path)
    }

    /// Validate a whole tree against a named type.
    pub fn validate(&self, tree: &Tree, ty: impl Into<TypeName>) -> TypeResult<()> {
        self.validate_node(tree, tree.root(), &ty.into())
    }

    fn validate_rec(
        &self,
        tree: &Tree,
        node: NodeId,
        ty: &TypeName,
        path: &mut String,
    ) -> TypeResult<()> {
        if ty.is_any() {
            return Ok(());
        }
        let et = self.types.get(ty).ok_or_else(|| TypeError::Invalid {
            path: display_path(path),
            msg: format!("unknown type `{ty}`"),
        })?;
        let label = match tree.node(node).kind() {
            NodeKind::Element { label, .. } => *label,
            NodeKind::Text(_) => {
                return Err(TypeError::Invalid {
                    path: display_path(path),
                    msg: format!("expected an element of type `{ty}`, found text"),
                })
            }
        };
        let mark = path.len();
        path.push('/');
        path.push_str(label.as_str());

        // Attributes.
        for decl in &et.attrs {
            match tree.attr(node, decl.name.as_str()) {
                Some(v) if !decl.value.accepts(v) => {
                    return Err(TypeError::Invalid {
                        path: display_path(path),
                        msg: format!(
                            "attribute `{}` value `{v}` violates {:?}",
                            decl.name, decl.value
                        ),
                    });
                }
                Some(_) => {}
                None if decl.required => {
                    return Err(TypeError::Invalid {
                        path: display_path(path),
                        msg: format!("missing required attribute `{}`", decl.name),
                    });
                }
                None => {}
            }
        }
        if !et.open_attrs {
            for (name, _) in tree.attrs(node) {
                if !et.attrs.iter().any(|d| &d.name == name) {
                    return Err(TypeError::Invalid {
                        path: display_path(path),
                        msg: format!("undeclared attribute `{name}`"),
                    });
                }
            }
        }

        // Content model over the child item sequence.
        let items: Vec<Item> = tree
            .children(node)
            .iter()
            .map(|&c| match tree.node(c).kind() {
                NodeKind::Element { label, .. } => Item::Elem(*label),
                NodeKind::Text(_) => Item::Text,
            })
            .collect();
        if !et.content.matches(&items) {
            let found: Vec<String> = items
                .iter()
                .map(|i| match i {
                    Item::Elem(l) => l.to_string(),
                    Item::Text => "#text".into(),
                })
                .collect();
            return Err(TypeError::Invalid {
                path: display_path(path),
                msg: format!(
                    "children [{}] do not match content model {}",
                    found.join(", "),
                    et.content
                ),
            });
        }

        // Recurse into element children using the single-type bindings.
        for &c in tree.children(node) {
            if let NodeKind::Element { label, .. } = tree.node(c).kind() {
                if let Some(child_ty) = et.content.label_binding(label) {
                    self.validate_rec(tree, c, &child_ty.clone(), path)?;
                }
                // A child admitted only via AnyItem has no binding: skip.
            }
        }
        path.truncate(mark);
        Ok(())
    }
}

fn display_path(path: &str) -> String {
    if path.is_empty() {
        "/".to_string()
    } else {
        path.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog_schema() -> Schema {
        Schema::builder()
            .ty("CatalogT", Content::star(Content::elem("pkg", "PkgT")))
            .element_type(
                "PkgT",
                ElementType {
                    attrs: vec![
                        AttrDecl::required("name"),
                        AttrDecl::optional("arch")
                            .with_value(AttrValue::Enum(vec!["x86_64".into(), "aarch64".into()])),
                    ],
                    open_attrs: false,
                    content: Content::seq([
                        Content::elem("version", "TextT"),
                        Content::opt(Content::elem("deps", "DepsT")),
                    ]),
                },
            )
            .ty("DepsT", Content::star(Content::elem("dep", "TextT")))
            .ty("TextT", Content::opt(Content::Text))
            .build()
            .unwrap()
    }

    #[test]
    fn valid_document_passes() {
        let s = catalog_schema();
        let t = Tree::parse(
            r#"<catalog>
                 <pkg name="vim" arch="x86_64"><version>9.1</version></pkg>
                 <pkg name="gcc"><version>13</version>
                   <deps><dep>binutils</dep><dep>glibc</dep></deps></pkg>
               </catalog>"#,
        )
        .unwrap();
        s.validate(&t, "CatalogT").unwrap();
    }

    #[test]
    fn empty_catalog_ok() {
        let s = catalog_schema();
        let t = Tree::parse("<catalog/>").unwrap();
        s.validate(&t, "CatalogT").unwrap();
    }

    #[test]
    fn missing_required_attr() {
        let s = catalog_schema();
        let t = Tree::parse("<catalog><pkg><version>1</version></pkg></catalog>").unwrap();
        let e = s.validate(&t, "CatalogT").unwrap_err();
        match e {
            TypeError::Invalid { path, msg } => {
                assert!(path.contains("/catalog/pkg"), "{path}");
                assert!(msg.contains("name"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_enum_value() {
        let s = catalog_schema();
        let t = Tree::parse(
            r#"<catalog><pkg name="vim" arch="sparc"><version>1</version></pkg></catalog>"#,
        )
        .unwrap();
        assert!(s.validate(&t, "CatalogT").is_err());
    }

    #[test]
    fn undeclared_attr_rejected_when_closed() {
        let s = catalog_schema();
        let t =
            Tree::parse(r#"<catalog><pkg name="v" extra="1"><version>1</version></pkg></catalog>"#)
                .unwrap();
        let e = s.validate(&t, "CatalogT").unwrap_err();
        assert!(e.to_string().contains("undeclared"), "{e}");
    }

    #[test]
    fn content_model_violation() {
        let s = catalog_schema();
        // version missing
        let t = Tree::parse(r#"<catalog><pkg name="v"/></catalog>"#).unwrap();
        let e = s.validate(&t, "CatalogT").unwrap_err();
        assert!(e.to_string().contains("content model"), "{e}");
        // stray element
        let t2 =
            Tree::parse(r#"<catalog><pkg name="v"><version>1</version><junk/></pkg></catalog>"#)
                .unwrap();
        assert!(s.validate(&t2, "CatalogT").is_err());
    }

    #[test]
    fn deep_error_paths() {
        let s = catalog_schema();
        let t = Tree::parse(
            r#"<catalog><pkg name="v"><version>1</version>
               <deps><dep><bogus/></dep></deps></pkg></catalog>"#,
        )
        .unwrap();
        let e = s.validate(&t, "CatalogT").unwrap_err();
        assert!(e.to_string().contains("/catalog/pkg/deps/dep"), "{e}");
    }

    #[test]
    fn any_type_accepts_everything() {
        let s = catalog_schema();
        let t = Tree::parse("<whatever><x/><y>txt</y></whatever>").unwrap();
        s.validate(&t, "xs:anyType").unwrap();
    }

    #[test]
    fn duplicate_type_rejected() {
        let e = Schema::builder()
            .ty("T", Content::Empty)
            .ty("T", Content::Text)
            .build()
            .unwrap_err();
        assert!(matches!(e, TypeError::DuplicateType(_)));
    }

    #[test]
    fn undefined_reference_rejected() {
        let e = Schema::builder()
            .ty("T", Content::elem("a", "Missing"))
            .build()
            .unwrap_err();
        assert!(matches!(e, TypeError::UndefinedType { .. }));
    }

    #[test]
    fn any_reference_allowed() {
        Schema::builder()
            .ty("T", Content::elem("a", "xs:anyType"))
            .build()
            .unwrap();
    }

    #[test]
    fn inconsistent_labels_rejected() {
        let e = Schema::builder()
            .ty("A", Content::Empty)
            .ty("B", Content::Empty)
            .ty(
                "T",
                Content::choice([Content::elem("x", "A"), Content::elem("x", "B")]),
            )
            .build()
            .unwrap_err();
        assert!(matches!(e, TypeError::InconsistentLabel { .. }));
    }

    #[test]
    fn text_where_element_expected() {
        let s = catalog_schema();
        let t = Tree::parse("<catalog>oops<pkg name=\"v\"><version>1</version></pkg></catalog>")
            .unwrap();
        assert!(s.validate(&t, "CatalogT").is_err());
    }

    #[test]
    fn attr_value_kinds() {
        assert!(AttrValue::Int.accepts("-42"));
        assert!(!AttrValue::Int.accepts("4.2"));
        assert!(AttrValue::Bool.accepts("true"));
        assert!(!AttrValue::Bool.accepts("TRUE"));
        assert!(AttrValue::String.accepts("anything"));
        let e = AttrValue::Enum(vec!["a".into(), "b".into()]);
        assert!(e.accepts("a"));
        assert!(!e.accepts("c"));
    }

    #[test]
    fn schema_introspection() {
        let s = catalog_schema();
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert!(s.get(&"PkgT".into()).is_some());
        assert!(s.get(&"Nope".into()).is_none());
    }
}
