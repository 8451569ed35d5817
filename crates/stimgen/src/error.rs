//! Error type for stimulus generation.

use std::fmt;

/// Errors produced while sampling parameters during stimulus generation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StimGenError {
    /// The sampled parameter is not defined in the resolved set (for a
    /// [`ParamId`](ascdg_template::ParamId) past its last slot, the id's
    /// display form, e.g. `param#7`).
    UnknownParam(String),
    /// The parameter exists but has the wrong kind for the requested
    /// sample (e.g. asking for an identifier from a range parameter).
    WrongKind {
        /// Offending parameter name.
        param: String,
        /// What the caller asked for.
        requested: &'static str,
    },
    /// A weighted draw landed on a value incompatible with the requested
    /// type (e.g. an `Ident` value when an integer was requested).
    IncompatibleValue {
        /// Offending parameter name.
        param: String,
        /// Display form of the drawn value.
        value: String,
        /// What the caller asked for.
        requested: &'static str,
    },
}

impl fmt::Display for StimGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StimGenError::UnknownParam(p) => {
                write!(f, "parameter `{p}` is not defined for this environment")
            }
            StimGenError::WrongKind { param, requested } => {
                write!(f, "parameter `{param}` cannot produce a {requested} sample")
            }
            StimGenError::IncompatibleValue {
                param,
                value,
                requested,
            } => write!(
                f,
                "parameter `{param}` drew `{value}`, which is not a valid {requested}"
            ),
        }
    }
}

impl std::error::Error for StimGenError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_param() {
        assert!(StimGenError::UnknownParam("X".into())
            .to_string()
            .contains("`X`"));
        let e = StimGenError::IncompatibleValue {
            param: "Op".into(),
            value: "load".into(),
            requested: "integer",
        };
        assert!(e.to_string().contains("load") && e.to_string().contains("integer"));
    }
}
