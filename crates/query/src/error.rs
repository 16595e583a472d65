//! Error types for query parsing, planning and evaluation.

use std::fmt;

/// Result alias for this crate.
pub type QueryResult<T> = Result<T, QueryError>;

/// Errors from the query subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Syntax error in the textual query, with 1-based position.
    Syntax {
        /// Description of the problem.
        msg: String,
        /// 1-based character offset in the query text.
        offset: usize,
    },
    /// A `$var` was used without being bound by a `for`/`let` clause, or a
    /// parameter index exceeds the query's arity.
    UnboundVariable(String),
    /// A variable was bound twice.
    DuplicateVariable(String),
    /// Evaluation was given the wrong number of input forests.
    ArityMismatch {
        /// Declared arity of the query.
        expected: usize,
        /// Number of forests supplied.
        got: usize,
    },
    /// A `doc("…")` source could not be resolved by the evaluation context.
    UnresolvedDoc(String),
    /// A rewrite was requested on a query shape it does not apply to.
    NotApplicable(String),
    /// A wire form that does not describe a query: a `<query>` element
    /// without `@name`, `@arity` or `<source>`.
    Malformed(String),
    /// Internal invariant violation (a bug).
    Internal(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Syntax { msg, offset } => {
                write!(f, "syntax error at offset {offset}: {msg}")
            }
            QueryError::UnboundVariable(v) => write!(f, "unbound variable `{v}`"),
            QueryError::DuplicateVariable(v) => write!(f, "variable `{v}` bound twice"),
            QueryError::ArityMismatch { expected, got } => {
                write!(
                    f,
                    "arity mismatch: query takes {expected} inputs, got {got}"
                )
            }
            QueryError::UnresolvedDoc(d) => write!(f, "cannot resolve doc(\"{d}\")"),
            QueryError::NotApplicable(msg) => write!(f, "rewrite not applicable: {msg}"),
            QueryError::Malformed(msg) => write!(f, "malformed query wire form: {msg}"),
            QueryError::Internal(msg) => write!(f, "internal query error: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(QueryError::Syntax {
            msg: "x".into(),
            offset: 5
        }
        .to_string()
        .contains("offset 5"));
        assert!(QueryError::UnboundVariable("$x".into())
            .to_string()
            .contains("$x"));
        assert!(QueryError::ArityMismatch {
            expected: 2,
            got: 1
        }
        .to_string()
        .contains("takes 2"));
        assert!(QueryError::UnresolvedDoc("d".into())
            .to_string()
            .contains("d"));
        assert!(QueryError::NotApplicable("shape".into())
            .to_string()
            .contains("shape"));
        assert!(QueryError::Malformed("@name".into())
            .to_string()
            .contains("@name"));
        assert!(QueryError::Internal("bug".into())
            .to_string()
            .contains("bug"));
        assert!(QueryError::DuplicateVariable("$x".into())
            .to_string()
            .contains("twice"));
    }
}
