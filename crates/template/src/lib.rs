//! The parametrized test-template language of AS-CDG.
//!
//! Verification environments for large designs expose hundreds of *parameters*
//! that bias the random stimuli generator. A **test-template** overrides a
//! small subset of them, leaving the rest at their environment defaults. This
//! crate implements the template substrate of the paper:
//!
//! * [`ParamDef`] — a parameter setting of one of the paper's two kinds:
//!   **weight** parameters (value/weight pairs used as a discrete
//!   distribution) and **range** parameters (uniform over a half-open integer
//!   range).
//! * [`TestTemplate`] — a named set of parameter overrides, with a builder,
//!   a canonical text format (modeled on the paper's Fig. 1), a
//!   [parser](TestTemplate::parse) and a printer (`Display`).
//! * [`ParamRegistry`] — an environment's full parameter catalogue with
//!   default definitions; templates are validated against it and resolved
//!   into [`ResolvedParams`], whose slots [`ParamId`]s index directly and
//!   which compiles each slot once into a draw table; symbolic values
//!   are numbered as [`Symbol`]s.
//! * [`Skeleton`] — a template with *marked* (free) weight settings, as
//!   produced by the Skeletonizer; [`Skeleton::instantiate`] turns a point
//!   in `[0,1]^d` back into a concrete [`TestTemplate`].
//! * [`TemplateLibrary`] — an indexed collection of templates (the
//!   environment's existing regression suite).
//!
//! # Examples
//!
//! ```
//! use ascdg_template::TestTemplate;
//!
//! let src = r#"
//! template lsu_stress {
//!   param Mnemonic: weights { load: 30, store: 30, add: 0, sync: 5 }
//!   param CacheDelay: range [0, 100)
//! }
//! "#;
//! let t = TestTemplate::parse(src)?;
//! assert_eq!(t.name(), "lsu_stress");
//! assert_eq!(t.params().len(), 2);
//! // The canonical printer round-trips through the parser.
//! let again = TestTemplate::parse(&t.to_string())?;
//! assert_eq!(t, again);
//! # Ok::<(), ascdg_template::TemplateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod library;
mod param;
mod parser;
mod registry;
mod skeleton;
mod template;
mod value;

pub use error::TemplateError;
pub use library::TemplateLibrary;
pub use param::{ParamDef, ParamKind, WeightedValue};
pub use registry::{Outcome, ParamId, ParamRegistry, ResolvedParams, SlotDraw, Symbol};
pub use skeleton::{Setting, Skeleton, SkeletonParam};
pub use template::{TemplateBuilder, TestTemplate};
pub use value::Value;
