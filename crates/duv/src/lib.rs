//! Simulated designs-under-verification (DUVs) for AS-CDG.
//!
//! The paper evaluates AS-CDG on units of IBM high-end processors. Those
//! designs are proprietary, so this crate provides cycle-based simulators
//! that reproduce the *coverage structure* the paper's evaluation relies on:
//!
//! * [`io_unit`] — a DMA engine with a CRC checker; its burst-length family
//!   `crc_004 .. crc_096` mirrors the paper's Fig. 3 I/O unit.
//! * [`l3cache`] — an L3 cache with a 16-credit bypass path; its
//!   buffer-fill family `byp_reqs01 .. byp_reqs16` mirrors Fig. 4.
//! * [`ifu`] — an SMT instruction-fetch unit with an 8-entry fetch buffer;
//!   its `entry × thread × sector × branch` cross-product (256 events, with
//!   the `entry7` slice architecturally unhittable) mirrors Fig. 5.
//!
//! A fourth, fully configurable [`synthetic`] environment provides
//! controlled CDG benchmarks with tunable hardness, in the spirit of the
//! authors' companion optimization paper.
//!
//! Each unit ships as a [`VerifEnv`]: the simulator plus its verification
//! environment — a parameter registry with default biases, a stock
//! test-template library (the "existing regression suite" the coarse-grained
//! search mines), and a coverage model. Everything above this crate is
//! black-box: the AS-CDG flow simulates only through
//! [`VerifEnv::simulate_plane`], whose default bridges to the one required
//! simulate method, [`VerifEnv::simulate_seeded`].
//!
//! # Examples
//!
//! ```
//! use ascdg_duv::io_unit::IoEnv;
//! use ascdg_duv::VerifEnv;
//!
//! let env = IoEnv::new();
//! let template = env.stock_library().get(0).unwrap().clone();
//! let coverage = env.simulate(&template, 1).unwrap();
//! assert_eq!(coverage.len(), env.coverage_model().len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone, clippy::large_enum_variant, clippy::perf)]

mod env;
mod error;
pub mod ifu;
pub mod io_unit;
pub mod kernel;
pub mod l3cache;
mod scratch;
pub mod synthetic;

pub use env::VerifEnv;
pub use error::EnvError;
pub use scratch::SimScratch;
