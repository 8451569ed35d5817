//! TAC as a regression-policy advisor — the original use of
//! Template-Aware Coverage (Gal et al., DAC 2017) that AS-CDG builds on:
//! find the coverage holes, shrink the regression to the templates that
//! matter, and flag the templates whose removal would lose events.
//!
//! ```sh
//! cargo run --release --example regression_policy
//! ```

use ascdg::core::{CdgFlow, FlowConfig};
use ascdg::coverage::StatusPolicy;
use ascdg::duv::{l3cache::L3Env, VerifEnv};
use ascdg::tac::{coverage_holes, minimal_regression, unique_coverage};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = L3Env::new();
    let mut config = FlowConfig::quick();
    config.regression_sims_per_template = 2000;
    config.threads = ascdg::core::machine_threads();
    let flow = CdgFlow::new(&env, config);

    println!("running the stock regression ...");
    let repo = flow.run_regression(1)?;
    let model = env.coverage_model();

    // 1. Where are the holes?
    let holes = coverage_holes(&repo, StatusPolicy::default());
    println!("\ncoverage holes ({} events below well-hit):", holes.len());
    for (e, stats) in holes.iter().take(10) {
        let (lo, hi) = stats.wilson_interval(1.96);
        println!(
            "  {:<22} {:>6} hits / {} sims (95% CI {:.4}%..{:.4}%)",
            model.name(*e),
            stats.hits,
            stats.sims,
            100.0 * lo,
            100.0 * hi
        );
    }

    // 2. Which templates could be retired?
    let keep = minimal_regression(&repo);
    println!(
        "\nminimal regression: {} of {} templates preserve all covered events:",
        keep.len(),
        env.stock_library().len()
    );
    for t in &keep {
        println!("  {}", env.stock_library().get(t.index()).unwrap().name());
    }

    // 3. Which templates are irreplaceable?
    println!("\ntemplates with unique coverage:");
    for (idx, template) in env.stock_library().iter() {
        let unique = unique_coverage(&repo, ascdg::coverage::TemplateId(idx as u32));
        if !unique.is_empty() {
            let names: Vec<&str> = unique.iter().map(|&e| model.name(e)).collect();
            println!("  {:<22} -> {:?}", template.name(), names);
        }
    }
    Ok(())
}
