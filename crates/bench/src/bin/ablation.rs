//! Runs the ablation studies (A1-A4) and the multi-target extension (E1).
//!
//! Usage: `ablation [study] [--scale <f>] [--seed <n>]` where `study` is
//! one of `no-approx`, `no-sample`, `optimizers`, `noise-n`,
//! `multi-target`, or `all` (default). An unknown study or a bad flag
//! exits with status 2; a failing study prints its error and exits 1.

use ascdg_bench::ablation;
use ascdg_core::FlowError;

/// The studies `all` runs, in order.
const STUDIES: &str = "no-approx no-sample optimizers noise-n multi-target";

const USAGE: &str = "usage: ablation [no-approx|no-sample|optimizers|noise-n|multi-target|all] \
                     [--scale <f>] [--seed <n>]";

fn main() {
    let (scale, seed) = ascdg_bench::parse_cli(0.05, 2021);
    let study = std::env::args()
        .nth(1)
        .filter(|s| !s.starts_with("--"))
        .unwrap_or_else(|| "all".to_owned());
    let studies: Vec<&str> = match study.as_str() {
        "all" => STUDIES.split(' ').collect(),
        s if STUDIES.split(' ').any(|known| known == s) => vec![s],
        _ => {
            eprintln!("error: unknown study `{study}`\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all("results").expect("create results dir");
    for study in studies {
        if let Err(e) = run(study, scale, seed) {
            eprintln!("error: {study} failed: {e}");
            std::process::exit(1);
        }
    }
}

fn run(study: &str, scale: f64, seed: u64) -> Result<(), FlowError> {
    match study {
        "no-approx" => {
            let r = ablation::no_approx(scale, seed)?;
            println!("A1 (approximated target):");
            println!(
                "  with approx target   -> real-target rate sum {:.5}",
                r.with_approx_target_rate
            );
            println!(
                "  real target directly -> real-target rate sum {:.5}",
                r.without_approx_target_rate
            );
            save("ablation_a1", &r);
        }
        "no-sample" => {
            let r = ablation::no_sample(scale, seed)?;
            println!("A2 (random-sample phase):");
            println!(
                "  with sampling start    -> best target value {:.5}",
                r.with_sampling
            );
            println!(
                "  cold start (same sims) -> best target value {:.5}",
                r.without_sampling
            );
            save("ablation_a2", &r);
        }
        "optimizers" => {
            let rows = ablation::optimizers(scale, seed)?;
            println!("A3 (optimizer comparison, equal evaluation budget):");
            for r in &rows {
                println!(
                    "  {:<20} best {:.5} ({} evals)",
                    r.name, r.best_value, r.evals
                );
            }
            save("ablation_a3", &rows);
        }
        "noise-n" => {
            let rows = ablation::noise_n(scale, seed, &[1, 5, 25, 100])?;
            println!("A4 (samples per point N, fixed total sims):");
            for r in &rows {
                println!(
                    "  N={:<4} assessed value {:.5} ({} iterations)",
                    r.n, r.assessed_value, r.iterations
                );
            }
            save("ablation_a4", &rows);
        }
        _ => {
            let r = ablation::multi_target(scale, seed)?;
            println!("E1 (shared multi-target search):");
            println!(
                "  shared:   {} sims, {} targets hit",
                r.shared_sims, r.shared_targets_hit
            );
            println!(
                "  separate: {} sims, {} targets hit",
                r.separate_sims, r.separate_targets_hit
            );
            save("ablation_e1", &r);
        }
    }
    Ok(())
}

fn save<T: serde::Serialize>(name: &str, value: &T) {
    let path = format!("results/{name}.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(value).expect("serialize"),
    )
    .expect("write artifact");
    eprintln!("wrote {path}");
}
