//! Error type for template parsing, validation and skeleton handling.

use std::fmt;

/// Errors produced by the template subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TemplateError {
    /// Syntax error while parsing the template text format.
    Parse {
        /// 1-based line of the error.
        line: usize,
        /// 1-based column of the error.
        col: usize,
        /// Human-readable description.
        message: String,
    },
    /// A weight parameter was declared with no values.
    EmptyWeights(String),
    /// A range parameter with `lo >= hi`.
    EmptyRange {
        /// Offending parameter name.
        param: String,
        /// Declared inclusive lower bound.
        lo: i64,
        /// Declared exclusive upper bound.
        hi: i64,
    },
    /// All weights of a parameter are zero, so no value can be drawn.
    AllZeroWeights(String),
    /// The same parameter appears twice in one template.
    DuplicateParam(String),
    /// A template references a parameter the registry does not define.
    UnknownParam(String),
    /// A weight parameter declares no such symbolic value.
    UnknownSymbol {
        /// The parameter.
        param: String,
        /// The symbol asked for.
        symbol: String,
    },
    /// An override's kind or values do not match the registry definition.
    IncompatibleOverride {
        /// Offending parameter name.
        param: String,
        /// Why the override is incompatible.
        reason: String,
    },
    /// A settings vector passed to `Skeleton::instantiate` has the wrong
    /// dimension.
    SettingsDimension {
        /// Number of free slots in the skeleton.
        expected: usize,
        /// Length of the supplied vector.
        actual: usize,
    },
    /// The library has no template with the requested name or index.
    UnknownTemplate(String),
    /// A template with this name already exists in the library.
    DuplicateTemplate(String),
    /// A resolved parameter set does not have the registry's slot layout
    /// (it was resolved by another registry), so the registry's parameter
    /// ids would address the wrong slots, or its symbols name other
    /// values.
    LayoutMismatch {
        /// First slot that differs.
        slot: usize,
        /// The registry's parameter in that slot (`None`: past its end), or
        /// for a symbol mismatch `Param.value` the registry numbers so.
        expected: Option<String>,
        /// The resolved set's parameter in that slot (`None`: past its
        /// end), or for a symbol mismatch `Param.value` it numbers so.
        found: Option<String>,
    },
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemplateError::Parse { line, col, message } => {
                write!(f, "parse error at {line}:{col}: {message}")
            }
            TemplateError::EmptyWeights(p) => {
                write!(f, "weight parameter `{p}` declares no values")
            }
            TemplateError::EmptyRange { param, lo, hi } => {
                write!(f, "range parameter `{param}` has empty range [{lo}, {hi})")
            }
            TemplateError::AllZeroWeights(p) => {
                write!(f, "all weights of parameter `{p}` are zero")
            }
            TemplateError::DuplicateParam(p) => {
                write!(f, "parameter `{p}` appears more than once")
            }
            TemplateError::UnknownParam(p) => {
                write!(f, "parameter `{p}` is not defined by the environment")
            }
            TemplateError::UnknownSymbol { param, symbol } => {
                write!(
                    f,
                    "parameter `{param}` declares no symbolic value `{symbol}`"
                )
            }
            TemplateError::IncompatibleOverride { param, reason } => {
                write!(f, "override of `{param}` is incompatible: {reason}")
            }
            TemplateError::SettingsDimension { expected, actual } => write!(
                f,
                "settings vector has {actual} entries but the skeleton has {expected} free slots"
            ),
            TemplateError::UnknownTemplate(n) => write!(f, "unknown template `{n}`"),
            TemplateError::DuplicateTemplate(n) => {
                write!(f, "a template named `{n}` already exists")
            }
            TemplateError::LayoutMismatch {
                slot,
                expected,
                found,
            } => {
                let name = |p: &Option<String>| {
                    p.as_ref()
                        .map_or_else(|| "no parameter".to_owned(), |n| format!("`{n}`"))
                };
                write!(
                    f,
                    "resolved parameters do not match the registry layout: \
                     slot {slot} holds {} where the registry declares {}",
                    name(found),
                    name(expected)
                )
            }
        }
    }
}

impl std::error::Error for TemplateError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_location() {
        let e = TemplateError::Parse {
            line: 3,
            col: 14,
            message: "expected `:`".into(),
        };
        assert_eq!(e.to_string(), "parse error at 3:14: expected `:`");
    }

    #[test]
    fn display_names_param() {
        assert!(TemplateError::AllZeroWeights("Mnemonic".into())
            .to_string()
            .contains("Mnemonic"));
        assert!(TemplateError::EmptyRange {
            param: "D".into(),
            lo: 5,
            hi: 5
        }
        .to_string()
        .contains("[5, 5)"));
    }

    #[test]
    fn is_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(TemplateError::EmptyWeights("w".into()));
        assert!(e.to_string().contains('w'));
    }
}
