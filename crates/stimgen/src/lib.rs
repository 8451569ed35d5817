//! The biased random stimuli generator of AS-CDG.
//!
//! A verification environment turns a test-template into *test-instances*:
//! concrete stimulus programs obtained by sampling every random decision
//! from the template's (or the environment default's) parameter
//! distributions. This crate provides:
//!
//! * [`ParamSampler`] — draws values from resolved weight/range parameters,
//!   addressed by [`ParamId`](ascdg_template::ParamId) and read from
//!   their compiled draw tables, with a deterministic, seedable RNG (the
//!   source of the paper's *dynamic noise*: same template, different
//!   seeds, different coverage); symbolic draws come back as
//!   [`Symbol`](ascdg_template::Symbol)s;
//! * [`instance_seed`] — the canonical seed derivation for instance `i` of a
//!   named template, so batch runs are reproducible and order-independent;
//! * [`SeedStream`] — the same derivation with the template-name hash
//!   precomputed, so batch hot loops derive per-simulation seeds with pure
//!   integer mixing (byte-identical to [`instance_seed`]);
//! * typed stimulus programs ([`IoProgram`], [`MemProgram`],
//!   [`FetchProgram`]) — the interface between the generator and the
//!   simulated units in `ascdg-duv`.
//!
//! # Examples
//!
//! ```
//! use ascdg_stimgen::{instance_seed, ParamSampler};
//! use ascdg_template::{ParamDef, ParamRegistry, TestTemplate};
//!
//! let mut reg = ParamRegistry::new();
//! reg.define(ParamDef::weights("Op", [("load", 80), ("store", 20)])?)?;
//! reg.define(ParamDef::range("Delay", 0, 8)?)?;
//! // Environments resolve parameter ids once, not per draw.
//! let (op, delay) = (reg.id("Op")?, reg.id("Delay")?);
//!
//! let template = TestTemplate::builder("t").build();
//! let resolved = reg.resolve(&template)?;
//! let mut sampler = ParamSampler::new(&resolved, instance_seed(1, "t", 0));
//! let drawn = sampler.sample_choice(op)?;
//! assert!(drawn == "load" || drawn == "store");
//! // Hot loops compare symbols, looked up once, instead of strings.
//! let store = reg.symbol(op, "store")?;
//! let again = ParamSampler::new(&resolved, instance_seed(1, "t", 0)).sample_symbol(op)?;
//! assert_eq!(again == store, drawn == "store");
//! let d = sampler.sample_int(delay)?;
//! assert!((0..8).contains(&d));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone, clippy::large_enum_variant)]

mod error;
mod sampler;
mod seed;
mod stimulus;

pub use error::StimGenError;
pub use sampler::ParamSampler;
pub use seed::{instance_seed, mix_seed, name_hash, SeedStream};
pub use stimulus::{FetchOp, FetchProgram, IoCommand, IoProgram, MemOp, MemProgram, MemRequest};
