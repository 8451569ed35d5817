//! Derivative-free optimization (DFO) for noisy objectives.
//!
//! The heart of AS-CDG is an optimization loop over the settings of a
//! skeletonized test-template. The objective — the approximated-target value
//! estimated from `N` simulations — is only available through noisy samples,
//! so gradient methods are out; the paper uses the **implicit filtering**
//! algorithm (its Algorithm 1), which this crate implements together with
//! three baselines used in the ablation benches:
//!
//! * [`ImplicitFiltering`] — stencil search with step halving, robust to
//!   dynamic noise (supports center resampling as the paper recommends).
//! * [`RandomSearch`] — uniform sampling of the box.
//! * [`CompassSearch`] — deterministic coordinate pattern search.
//! * [`NelderMead`] — the classic simplex method, projected to the box.
//! * [`Spsa`] — simultaneous perturbation stochastic approximation, the
//!   classic two-samples-per-iteration method for noisy objectives.
//! * [`ImplicitFilteringBfgs`] — Kelley's full implicit filtering (stencil
//!   gradient + quasi-Newton model + line search), the algorithm of the
//!   paper's citation \[6\], for comparison with the simplified Algorithm 1.
//!
//! All methods **maximize** over a [`Bounds`] box (AS-CDG settings live in
//! `[0,1]^d`) and record a per-iteration [`Trace`] used to regenerate the
//! paper's Fig. 6.
//!
//! # Examples
//!
//! ```
//! use ascdg_opt::{Bounds, FnObjective, ImplicitFiltering, IfOptions, Optimizer};
//!
//! // Maximize a smooth bump centered at (0.7, 0.3).
//! let mut obj = FnObjective::new(2, |x: &[f64]| {
//!     -((x[0] - 0.7).powi(2) + (x[1] - 0.3).powi(2))
//! });
//! let opt = ImplicitFiltering::new(IfOptions::default());
//! let result = opt.maximize(&mut obj, &Bounds::unit(2), &[0.5, 0.5], 7);
//! assert!((result.best_x[0] - 0.7).abs() < 0.05);
//! assert!((result.best_x[1] - 0.3).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounds;
mod compass;
mod if_bfgs;
mod implicit_filtering;
mod nelder_mead;
mod objective;
mod random_search;
mod spsa;
pub mod testfn;
mod trace;

pub use bounds::Bounds;
pub use compass::{CompassOptions, CompassSearch};
pub use if_bfgs::{IfBfgsOptions, ImplicitFilteringBfgs};
pub use implicit_filtering::{DirectionMode, IfOptions, ImplicitFiltering};
pub use nelder_mead::{NelderMead, NmOptions};
pub use objective::{CountingObjective, FnObjective, Objective};
pub use random_search::{RandomSearch, RsOptions};
pub use spsa::{Spsa, SpsaOptions};
pub use trace::{record_trace, IterRecord, OptResult, Optimizer, StopReason, Trace, TraceMetrics};
