//! Error type for coverage-model construction and queries.

use std::fmt;

/// Errors produced by coverage-model construction and repository queries.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoverageError {
    /// Two events in one model share a name.
    DuplicateEvent(String),
    /// A queried event name does not exist in the model.
    UnknownEvent(String),
    /// A coverage vector's length does not match the model size.
    VectorSizeMismatch {
        /// Number of events declared by the model.
        expected: usize,
        /// Length of the offending vector.
        actual: usize,
    },
    /// A cross-product feature was declared with no values.
    EmptyFeature(String),
    /// A model was declared with no events.
    EmptyModel,
    /// A repository snapshot's global row is not the sum of its template
    /// rows, or a template appears twice: the snapshot was edited or
    /// damaged after it was taken.
    InconsistentSnapshot(String),
}

impl fmt::Display for CoverageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageError::DuplicateEvent(name) => {
                write!(f, "duplicate coverage event name `{name}`")
            }
            CoverageError::UnknownEvent(name) => {
                write!(f, "unknown coverage event `{name}`")
            }
            CoverageError::VectorSizeMismatch { expected, actual } => write!(
                f,
                "coverage vector has {actual} events but the model declares {expected}"
            ),
            CoverageError::EmptyFeature(name) => {
                write!(f, "cross-product feature `{name}` has no values")
            }
            CoverageError::EmptyModel => write!(f, "coverage model declares no events"),
            CoverageError::InconsistentSnapshot(why) => {
                write!(f, "inconsistent repository snapshot: {why}")
            }
        }
    }
}

impl std::error::Error for CoverageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoverageError::VectorSizeMismatch {
            expected: 4,
            actual: 2,
        };
        let msg = e.to_string();
        assert!(msg.contains('4') && msg.contains('2'));
        assert!(CoverageError::UnknownEvent("x".into())
            .to_string()
            .contains("`x`"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&CoverageError::EmptyModel);
    }
}
