//! Experiment harness regenerating every figure of the AS-CDG paper.
//!
//! Each `fig*` function runs the corresponding experiment at a given
//! `scale` (1.0 = the paper's full simulation budgets; smaller values
//! shrink every budget proportionally) and returns the raw
//! [`FlowOutcome`]. The binaries in `src/bin/` print the paper-shaped
//! tables; the Criterion benches in `benches/` time scaled-down runs.
//!
//! | Experiment | Paper artifact | Function |
//! |---|---|---|
//! | Fig. 3 | I/O-unit CRC family hit table | [`fig3`] |
//! | Fig. 4 | L3 bypass family hit table | [`fig4`] |
//! | Fig. 5 | IFU cross-product status chart | [`fig5`] |
//! | Fig. 6 | L3 optimization progress | [`fig6`] |
//! | Ablations A1-A4, E1 | design-choice studies | [`ablation`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;

use ascdg_core::{CdgFlow, FlowConfig, FlowError, FlowOutcome};
use ascdg_duv::{ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env};
use ascdg_opt::Trace;

/// Runs the Fig. 3 experiment: AS-CDG against the uncovered members of the
/// I/O unit's `crc_*` family.
///
/// # Errors
///
/// Propagates any flow error.
pub fn fig3(scale: f64, seed: u64) -> Result<FlowOutcome, FlowError> {
    let config = FlowConfig::paper_io().scaled(scale);
    CdgFlow::new(IoEnv::new(), config).run_for_family("crc_", seed)
}

/// Runs the Fig. 4 experiment: AS-CDG against the uncovered members of the
/// L3 cache's `byp_reqs*` family.
///
/// # Errors
///
/// Propagates any flow error.
pub fn fig4(scale: f64, seed: u64) -> Result<FlowOutcome, FlowError> {
    let config = FlowConfig::paper_l3().scaled(scale);
    CdgFlow::new(L3Env::new(), config).run_for_family("byp_reqs", seed)
}

/// Runs the Fig. 5 experiment: AS-CDG against every uncovered event of the
/// IFU's 256-event cross product.
///
/// # Errors
///
/// Propagates any flow error.
pub fn fig5(scale: f64, seed: u64) -> Result<FlowOutcome, FlowError> {
    let config = FlowConfig::paper_ifu().scaled(scale);
    CdgFlow::new(IfuEnv::new(), config).run_for_uncovered(seed)
}

/// Runs the Fig. 6 experiment: the optimization-progress trace of the L3
/// run (the paper plots the maximal target value per iteration).
///
/// # Errors
///
/// Propagates any flow error.
pub fn fig6(scale: f64, seed: u64) -> Result<Trace, FlowError> {
    Ok(fig4(scale, seed)?.trace)
}

/// Parses `--scale <f>` and `--seed <n>` style CLI arguments shared by the
/// experiment binaries; returns `(scale, seed)` with the given defaults.
#[must_use]
pub fn parse_cli(default_scale: f64, default_seed: u64) -> (f64, u64) {
    let mut scale = default_scale;
    let mut seed = default_seed;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" if i + 1 < args.len() => {
                scale = args[i + 1].parse().unwrap_or(default_scale);
                i += 2;
            }
            "--seed" if i + 1 < args.len() => {
                seed = args[i + 1].parse().unwrap_or(default_seed);
                i += 2;
            }
            _ => i += 1,
        }
    }
    (scale, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_fig3_runs_and_improves() {
        let out = fig3(0.002, 3).unwrap();
        assert_eq!(out.unit, "io_unit");
        assert_eq!(out.phases.len(), 4);
    }

    #[test]
    fn tiny_fig5_runs() {
        let out = fig5(0.01, 3).unwrap();
        assert_eq!(out.model.len(), 256);
    }
}
