//! Service type signatures `(τin, τout)` — §2.1.
//!
//! *"The service is associated an unique type signature (τin, τout), where
//! τin ∈ Θⁿ for some integer n, and τout ∈ Θ."* A [`TreeType`] names one
//! τ: the expected root label plus the schema type its tree validates
//! against. A [`Signature`] is the full `(τin, τout)` pair, with
//! `check_input`/`check_output` validating actual forests.

use crate::error::{TypeError, TypeResult};
use crate::schema::{Schema, TypeName};
use axml_xml::tree::Tree;
use axml_xml::Label;
use std::fmt;

/// One tree type τ ∈ Θ: a root label plus the named schema type of its
/// content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeType {
    /// Expected root label, or `None` for "any label".
    pub root_label: Option<Label>,
    /// Schema type the tree must validate against.
    pub type_name: TypeName,
}

impl TreeType {
    /// A τ with a fixed root label.
    pub fn new(root_label: impl Into<Label>, type_name: impl Into<TypeName>) -> Self {
        TreeType {
            root_label: Some(root_label.into()),
            type_name: type_name.into(),
        }
    }

    /// The wildcard τ — any tree.
    pub fn any() -> Self {
        TreeType {
            root_label: None,
            type_name: TypeName::any(),
        }
    }

    /// Is this the wildcard?
    pub fn is_any(&self) -> bool {
        self.root_label.is_none() && self.type_name.is_any()
    }

    /// Validate one tree against this τ.
    pub fn check(&self, schema: &Schema, tree: &Tree) -> TypeResult<()> {
        if let Some(expected) = &self.root_label {
            match tree.label(tree.root()) {
                Some(l) if l == *expected => {}
                other => {
                    return Err(TypeError::Invalid {
                        path: "/".into(),
                        msg: format!(
                            "expected root `{expected}`, found `{}`",
                            other
                                .map(|l| l.to_string())
                                .unwrap_or_else(|| "#text".into())
                        ),
                    })
                }
            }
        }
        schema.validate(tree, self.type_name.clone())
    }

    /// Conservative subtype test: `self` accepts at least everything
    /// `other` accepts. Exact language inclusion for regular tree grammars
    /// is EXPTIME; we use the sound approximation `any ⊇ τ` and `τ ⊇ τ`.
    pub fn accepts_type(&self, other: &TreeType) -> bool {
        if self.is_any() {
            return true;
        }
        let label_ok = match (&self.root_label, &other.root_label) {
            (None, _) => true,
            (Some(a), Some(b)) => a == b,
            (Some(_), None) => false,
        };
        label_ok && (self.type_name.is_any() || self.type_name == other.type_name)
    }
}

impl fmt::Display for TreeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.root_label {
            Some(l) => write!(f, "{l}:{}", self.type_name),
            None => write!(f, "*:{}", self.type_name),
        }
    }
}

/// A full service signature `(τin ∈ Θⁿ, τout)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Input types, one per parameter.
    pub inputs: Vec<TreeType>,
    /// Output type: every response tree has this type.
    pub output: TreeType,
}

impl Signature {
    /// Build a signature.
    pub fn new(inputs: Vec<TreeType>, output: TreeType) -> Self {
        Signature { inputs, output }
    }

    /// The fully-wildcard signature of arity `n`.
    pub fn any(n: usize) -> Self {
        Signature {
            inputs: vec![TreeType::any(); n],
            output: TreeType::any(),
        }
    }

    /// Input arity `n`.
    pub fn arity(&self) -> usize {
        self.inputs.len()
    }

    /// Validate an input forest against `τin`.
    pub fn check_input(&self, schema: &Schema, params: &[Tree]) -> TypeResult<()> {
        if params.len() != self.inputs.len() {
            return Err(TypeError::Incompatible(format!(
                "arity mismatch: expected {} parameters, got {}",
                self.inputs.len(),
                params.len()
            )));
        }
        for (i, (ty, tree)) in self.inputs.iter().zip(params).enumerate() {
            ty.check(schema, tree)
                .map_err(|e| TypeError::Incompatible(format!("parameter {i}: {e}")))?;
        }
        Ok(())
    }

    /// Validate one response tree against `τout`.
    pub fn check_output(&self, schema: &Schema, tree: &Tree) -> TypeResult<()> {
        self.output.check(schema, tree)
    }

    /// Can a call site expecting `expected` safely invoke a service with
    /// this signature? (Conservative.)
    pub fn substitutable_for(&self, expected: &Signature) -> bool {
        self.arity() == expected.arity()
            && expected.output.accepts_type(&self.output)
            && self
                .inputs
                .iter()
                .zip(&expected.inputs)
                .all(|(mine, theirs)| mine.accepts_type(theirs))
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, t) in self.inputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, ") -> {}", self.output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::Content;
    use crate::schema::Schema;

    fn schema() -> Schema {
        Schema::builder()
            .ty("QT", Content::Text)
            .ty("RT", Content::star(Content::elem("hit", "HT")))
            .ty("HT", Content::Text)
            .build()
            .unwrap()
    }

    fn sig() -> Signature {
        Signature::new(
            vec![TreeType::new("query", "QT")],
            TreeType::new("results", "RT"),
        )
    }

    #[test]
    fn input_checks() {
        let s = schema();
        let q = Tree::parse("<query>vim</query>").unwrap();
        sig().check_input(&s, &[q]).unwrap();
    }

    #[test]
    fn arity_mismatch() {
        let s = schema();
        let e = sig().check_input(&s, &[]).unwrap_err();
        assert!(e.to_string().contains("arity"), "{e}");
        assert_eq!(sig().arity(), 1);
    }

    #[test]
    fn wrong_root_label() {
        let s = schema();
        let q = Tree::parse("<nope>vim</nope>").unwrap();
        let e = sig().check_input(&s, &[q]).unwrap_err();
        assert!(e.to_string().contains("expected root"), "{e}");
    }

    #[test]
    fn bad_content() {
        let s = schema();
        let q = Tree::parse("<query><sub/></query>").unwrap();
        assert!(sig().check_input(&s, &[q]).is_err());
    }

    #[test]
    fn output_checks() {
        let s = schema();
        let ok = Tree::parse("<results><hit>a</hit><hit>b</hit></results>").unwrap();
        sig().check_output(&s, &ok).unwrap();
        let bad = Tree::parse("<results><miss/></results>").unwrap();
        assert!(sig().check_output(&s, &bad).is_err());
    }

    #[test]
    fn any_signature_accepts_all() {
        let s = schema();
        let sig = Signature::any(2);
        let a = Tree::parse("<x/>").unwrap();
        let b = Tree::parse("<y><z>1</z></y>").unwrap();
        sig.check_input(&s, &[a, b]).unwrap();
    }

    #[test]
    fn substitutability() {
        let exact = sig();
        assert!(exact.substitutable_for(&exact));
        // a wildcard-input service can be used anywhere with same arity/out
        let loose = Signature::new(vec![TreeType::any()], TreeType::new("results", "RT"));
        assert!(loose.substitutable_for(&exact));
        // but an exact service cannot replace a wildcard-output contract…
        let wild_out = Signature::new(vec![TreeType::new("query", "QT")], TreeType::any());
        assert!(exact.substitutable_for(&wild_out));
        assert!(!wild_out.substitutable_for(&exact));
        // arity must match
        assert!(!Signature::any(2).substitutable_for(&exact));
    }

    #[test]
    fn tree_type_display() {
        assert_eq!(TreeType::new("a", "T").to_string(), "a:T");
        assert_eq!(TreeType::any().to_string(), "*:xs:anyType");
        assert_eq!(sig().to_string(), "(query:QT) -> results:RT");
    }

    #[test]
    fn accepts_type_rules() {
        let any = TreeType::any();
        let t = TreeType::new("a", "T");
        assert!(any.accepts_type(&t));
        assert!(!t.accepts_type(&any));
        assert!(t.accepts_type(&t));
        assert!(!t.accepts_type(&TreeType::new("b", "T")));
        assert!(!t.accepts_type(&TreeType::new("a", "U")));
    }
}
