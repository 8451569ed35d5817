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

/// Parses the `--scale <f>` and `--seed <n>` flags the experiment
/// binaries share from `args` (the arguments after the program name),
/// defaulting to `scale` and `seed`; other arguments are left to the
/// caller.
///
/// # Errors
///
/// A flag without a value, a seed that is not an unsigned integer, or a
/// scale that is not a positive finite number.
pub fn parse_args(args: &[String], scale: f64, seed: u64) -> Result<(f64, u64), String> {
    let (mut scale, mut seed) = (scale, seed);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag != "--scale" && flag != "--seed" {
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        if flag == "--seed" {
            seed = value
                .parse()
                .map_err(|_| format!("--seed must be an unsigned integer, got `{value}`"))?;
        } else {
            scale = value
                .parse()
                .ok()
                .filter(|s: &f64| *s > 0.0 && s.is_finite())
                .ok_or_else(|| {
                    format!("--scale must be a positive finite number, got `{value}`")
                })?;
        }
    }
    Ok((scale, seed))
}

/// [`parse_args`] over the process arguments; on a bad flag, prints the
/// error and exits with status 2.
#[must_use]
pub fn parse_cli(default_scale: f64, default_seed: u64) -> (f64, u64) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse_args(&args, default_scale, default_seed).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
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

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_args_reads_flags_and_keeps_defaults() {
        assert_eq!(parse_args(&[], 0.5, 7), Ok((0.5, 7)));
        assert_eq!(
            parse_args(&args("all --seed 3 --scale 0.25"), 1.0, 7),
            Ok((0.25, 3))
        );
    }

    #[test]
    fn parse_args_rejects_bad_flags() {
        for line in [
            "--scale abc",
            "--scale 0",
            "--scale -1",
            "--scale inf",
            "--scale NaN",
            "--seed x",
            "--seed -3",
            "--scale",
            "no-approx --seed",
        ] {
            assert!(parse_args(&args(line), 1.0, 7).is_err(), "{line} accepted");
        }
    }

    #[test]
    fn tiny_fig5_runs() {
        let out = fig5(0.01, 3).unwrap();
        assert_eq!(out.model.len(), 256);
    }
}
