//! Coverage infrastructure for AS-CDG.
//!
//! This crate provides the coverage substrate that every other part of the
//! AS-CDG system builds on:
//!
//! * [`CoverageModel`] — the declaration of a unit's coverage events,
//!   optionally with *cross-product* structure ([`CrossProduct`]) or a
//!   *family* grouping (e.g. `byp_reqs01..byp_reqs16`).
//! * [`CoverageVector`] — the boolean per-event outcome of simulating a
//!   single test-instance (a compact bitset).
//! * [`CoverageRepository`] — the accumulating store of coverage results,
//!   globally and per test-template, as maintained by a verification team's
//!   coverage database.
//! * [`EventStatus`] / [`StatusPolicy`] — the status convention used in the
//!   paper's evaluation (never-hit / lightly-hit / well-hit, where lightly
//!   hit means fewer than 100 hits *or* a hit rate below 1%).
//!
//! # Examples
//!
//! ```
//! use ascdg_coverage::{CoverageModel, CoverageRepository, CoverageVector, TemplateId};
//!
//! let model = CoverageModel::from_names("demo", ["ev_a", "ev_b"]).unwrap();
//! let repo = CoverageRepository::new(model.clone());
//!
//! let mut vec = CoverageVector::empty(model.len());
//! vec.set(model.id("ev_a").unwrap());
//! repo.record(TemplateId(0), &vec);
//!
//! assert_eq!(repo.global_stats(model.id("ev_a").unwrap()).hits, 1);
//! assert_eq!(repo.total_simulations(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::perf)]

mod cross;
mod error;
mod event;
mod family;
mod model;
mod plane;
mod repo;
mod status;
mod vector;

pub use cross::{CrossEvent, CrossProduct, Feature};
pub use error::CoverageError;
pub use event::{EventId, TemplateId};
pub use family::{family_index, family_of, EventFamily};
pub use model::CoverageModel;
pub use plane::{CoveragePlane, CoverageSink, PlaneLane, PLANE_LANES};
pub use repo::{CoverageRepository, HitStats, RepoSnapshot};
pub use status::{EventStatus, StatusCounts, StatusPolicy};
pub use vector::{CoverageVector, HitIter};
