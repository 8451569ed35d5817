//! Experiment harness for the AS-CDG paper's design-choice studies.
//!
//! The paper's figures come from the `ascdg` CLI: `ascdg run --unit io`
//! (Fig. 3), `--unit l3` (Figs. 4 and 6) and `--unit ifu` (Fig. 5) print
//! the tables, the status chart, the per-feature breakdown and the
//! optimization trace, and `--json` writes the outcome. This crate holds
//! what the CLI does not run: the ablation studies ([`ablation`], binary
//! `ablation`), the per-template family-rate table (binary `calibrate`),
//! and the component Criterion benches in `benches/`.
//!
//! | Experiment | Paper artifact | Entry point |
//! |---|---|---|
//! | Ablations A1-A4, E1 | design-choice studies | [`ablation`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;

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
}
