//! Error types for schema construction and validation.

use std::fmt;

/// Result alias for this crate.
pub type TypeResult<T> = Result<T, TypeError>;

/// Errors from schema construction and validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeError {
    /// A content model references a type name that the schema never defines.
    UndefinedType {
        /// The missing type name.
        name: String,
        /// The type whose content model referenced it.
        referenced_from: String,
    },
    /// The same type name was defined twice.
    DuplicateType(String),
    /// A content model binds the same element label to two different types
    /// (violates the single-type / "element declarations consistent" rule).
    InconsistentLabel {
        /// The doubly-bound label.
        label: String,
        /// The enclosing type.
        in_type: String,
        /// The first bound type.
        first: String,
        /// The conflicting second bound type.
        second: String,
    },
    /// A tree failed validation.
    Invalid {
        /// Slash-separated path from the root to the offending node.
        path: String,
        /// What went wrong there.
        msg: String,
    },
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::UndefinedType {
                name,
                referenced_from,
            } => write!(
                f,
                "type `{name}` referenced from `{referenced_from}` is not defined"
            ),
            TypeError::DuplicateType(n) => write!(f, "type `{n}` defined twice"),
            TypeError::InconsistentLabel {
                label,
                in_type,
                first,
                second,
            } => write!(
                f,
                "label `{label}` in type `{in_type}` bound to both `{first}` and `{second}`"
            ),
            TypeError::Invalid { path, msg } => write!(f, "invalid at {path}: {msg}"),
        }
    }
}

impl std::error::Error for TypeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(TypeError::UndefinedType {
            name: "X".into(),
            referenced_from: "Y".into()
        }
        .to_string()
        .contains("not defined"));
        assert!(TypeError::DuplicateType("T".into())
            .to_string()
            .contains("twice"));
        assert!(TypeError::Invalid {
            path: "/a/b".into(),
            msg: "boom".into()
        }
        .to_string()
        .contains("/a/b"));
        assert!(TypeError::InconsistentLabel {
            label: "l".into(),
            in_type: "T".into(),
            first: "A".into(),
            second: "B".into()
        }
        .to_string()
        .contains("bound to both"));
    }
}
