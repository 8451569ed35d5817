//! The paper's Section VI future-work extension, live: one shared search
//! that services several target groups with a single simulation budget.
//!
//! ```sh
//! cargo run --release --example multi_target
//! ```

use ascdg::core::{ApproxTarget, CdgFlow, FlowConfig};
use ascdg::duv::{io_unit::IoEnv, VerifEnv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flow = CdgFlow::new(IoEnv::new(), FlowConfig::paper_io().scaled(0.05));
    let repo = flow.run_regression(7)?;
    let model = flow.env().coverage_model();

    // Two separate coverage holes: the mid-family and the deep tail.
    let groups = vec![
        vec![model.id("crc_032")?, model.id("crc_064")?],
        vec![model.id("crc_096")?],
    ];

    let shared = flow.run_multi_target(&repo, &groups, 11)?;
    println!(
        "shared search: {} simulations, {} of {} targets hit",
        shared.total_sims,
        shared.total_targets_hit(),
        groups.iter().map(Vec::len).sum::<usize>(),
    );
    for (i, g) in shared.groups.iter().enumerate() {
        println!("group {i}:");
        for (e, stats) in &g.per_target {
            println!(
                "  {:<8} {:>6} hits / {} sims ({:.2}%)",
                model.name(*e),
                stats.hits,
                stats.sims,
                100.0 * stats.rate()
            );
        }
    }
    println!("shared best template:\n{}", shared.best_template);

    // Compare against one full flow per group (double the budget).
    let mut separate_sims = 0;
    for (i, group) in groups.iter().enumerate() {
        let approx = ApproxTarget::auto(model, group, flow.config().neighbor_decay)?;
        let out = flow.run_phases(&repo, approx, 100 + i as u64)?;
        separate_sims += out
            .phases
            .iter()
            .filter(|p| p.name != ascdg::core::PHASE_BEFORE)
            .map(|p| p.sims)
            .sum::<u64>();
    }
    println!(
        "separate searches would have spent {separate_sims} simulations \
         ({}x the shared budget)",
        separate_sims / shared.total_sims.max(1)
    );
    Ok(())
}
