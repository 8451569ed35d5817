//! Calibration tool: per-stock-template hit rates for each unit's target
//! family. Used to tune the simulated DUVs so the "Before CDG" columns
//! match the paper's shape (deep family members uncovered, shallow ones
//! covered, monotone decay in between).
//!
//! Usage: `calibrate [unit] [--sims <n>]` where `unit` is `io`, `l3`,
//! `ifu` or `all` (default), and `--sims` is the per-template simulation
//! count (default 2000). An unknown unit or flag, or a `--sims` that is
//! not a positive integer, prints the usage line and exits with status 2.

use ascdg_core::{pool_scope, FlowConfig, FlowEngine, Regression, TargetSpec};
use ascdg_coverage::{CoverageRepository, EventFamily, EventId, TemplateId};
use ascdg_duv::{ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env, VerifEnv};

const USAGE: &str = "usage: calibrate [io|l3|ifu|all] [--sims <n>]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (unit, sims) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2)
    });
    if unit == "all" || unit == "io" {
        family_rates(&IoEnv::new(), "crc_", sims);
    }
    if unit == "all" || unit == "l3" {
        family_rates(&L3Env::new(), "byp_reqs", sims);
    }
    if unit == "all" || unit == "ifu" {
        ifu_depth(&IfuEnv::new(), sims);
    }
}

/// The unit (default `all`) and per-template sims (default 2000) that
/// `args`, the arguments after the program name, ask for.
///
/// # Errors
///
/// An unknown unit, a flag other than `--sims`, or a `--sims` that is
/// missing, not an unsigned integer, or zero.
fn parse_args(args: &[String]) -> Result<(&str, u64), String> {
    let (mut unit, mut sims) = ("all", 2000);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sims" => {
                let value = args.next().ok_or("--sims needs a value")?;
                sims =
                    value.parse().ok().filter(|&n: &u64| n > 0).ok_or_else(|| {
                        format!("--sims must be a positive integer, got `{value}`")
                    })?;
            }
            "io" | "l3" | "ifu" | "all" => unit = arg,
            other => return Err(format!("unknown unit or flag `{other}`")),
        }
    }
    Ok((unit, sims))
}

/// A regression session over `env`'s stock library, `sims` per template;
/// its repository keeps every template's statistics apart.
fn regression<E: VerifEnv>(env: &E, sims: u64) -> CoverageRepository {
    let config = FlowConfig {
        regression_sims_per_template: sims,
        ..FlowConfig::quick()
    };
    let state = pool_scope(0, |pool| {
        let engine = FlowEngine::with_stages(env, config, pool, vec![Box::new(Regression)]);
        let mut cx = engine.session(TargetSpec::Uncovered, 1);
        engine.step(&mut cx).expect("simulate");
        cx.into_state()
    });
    let snapshot = state.repo.expect("the regression recorded its repository");
    CoverageRepository::from_snapshot(env.coverage_model().clone(), &snapshot).expect("own model")
}

fn family_rates<E: VerifEnv>(env: &E, stem: &str, sims: u64) {
    let model = env.coverage_model();
    let family = EventFamily::discover(model)
        .into_iter()
        .find(|f| f.stem() == stem)
        .expect("family exists");
    let events = family.events();
    println!(
        "\n=== {} family `{stem}` ({sims} sims/template) ===",
        env.unit_name()
    );
    print!("{:<22}", "template");
    for &e in &events {
        print!(" {:>9}", model.name(e).trim_start_matches(stem));
    }
    println!();
    let repo = regression(env, sims);
    for (i, t) in env.stock_library().iter() {
        print!("{:<22}", t.name());
        for &e in &events {
            print!(
                " {:>9.5}",
                repo.template_stats(TemplateId(i as u32), e).rate()
            );
        }
        println!();
    }
    print!("{:<22}", "AGGREGATE");
    for &e in &events {
        print!(" {:>9.5}", repo.global_stats(e).rate());
    }
    println!();
}

fn ifu_depth(env: &IfuEnv, sims: u64) {
    let model = env.coverage_model();
    let cp = model.cross_product().expect("IFU is a cross product");
    println!("\n=== ifu entry-depth reach ({sims} sims/template) ===");
    println!(
        "{:<22} per-entry hit rate (any thread/sector/branch)",
        "template"
    );
    let repo = regression(env, sims);
    let rate = |hits: &dyn Fn(EventId) -> u64, sims: u64, entry: usize| {
        cp.slice(0, entry).iter().map(|&e| hits(e)).sum::<u64>() as f64 / sims as f64
    };
    for (i, t) in env.stock_library().iter() {
        let template = TemplateId(i as u32);
        print!("{:<22}", t.name());
        for entry in 0..8 {
            let hits = |e| repo.template_stats(template, e).hits;
            let sims = repo.template_simulations(template);
            print!(" e{entry}:{:>8.5}", rate(&hits, sims, entry));
        }
        println!();
    }
    print!("{:<22}", "AGGREGATE");
    for entry in 0..8 {
        let hits = |e| repo.global_stats(e).hits;
        print!(
            " e{entry}:{:>8.5}",
            rate(&hits, repo.total_simulations(), entry)
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parse_args_reads_unit_and_sims_and_keeps_defaults() {
        assert_eq!(parse_args(&[]), Ok(("all", 2000)));
        assert_eq!(parse_args(&args("l3 --sims 500")), Ok(("l3", 500)));
        assert_eq!(parse_args(&args("--sims 7 ifu")), Ok(("ifu", 7)));
    }

    #[test]
    fn parse_args_rejects_bad_arguments() {
        for line in [
            "bogus",
            "--sims abc",
            "--sims 0",
            "--sims -3",
            "--sims",
            "io --seed 3",
        ] {
            assert!(parse_args(&args(line)).is_err(), "{line} accepted");
        }
    }
}
