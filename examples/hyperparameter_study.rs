//! Studying the implicit-filtering hyperparameters on a live CDG
//! objective — the paper's Section IV-E observation that `n` (directions)
//! and `h` (initial stencil) "can affect the convergence rate of the
//! algorithm in terms of iterations and number of samples".
//!
//! ```sh
//! cargo run --release --example hyperparameter_study
//! ```

use ascdg::core::{pool_scope, ApproxTarget, BatchRunner, CdgObjective, Skeletonizer};
use ascdg::duv::{synthetic::SyntheticEnv, VerifEnv};
use ascdg::opt::{tune, Bounds, IfOptions};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A controlled benchmark unit keeps the study honest: the synthetic
    // environment's difficulty is known and fixed.
    let env = SyntheticEnv::default();
    let template = env.stock_library().by_name("syn_sweep").unwrap().1.clone();
    let skeleton = Skeletonizer::new().skeletonize(&template)?;
    let model = env.coverage_model();
    let target = ApproxTarget::from_family(model, &[model.id("fam_08")?], 0.5)?;
    let dim = skeleton.num_slots();
    println!("objective: synthetic fam_08, {dim} settings dimensions");

    // One pool serves every objective of the sweep.
    let cells = pool_scope(2, |pool| {
        let runner = BatchRunner::new(pool);
        let mut run_id = 0u64;
        tune::sweep_if(
            || {
                run_id += 1;
                CdgObjective::new(&env, &skeleton, &target, 20, runner.clone(), run_id)
            },
            &Bounds::unit(dim),
            &vec![0.5; dim],
            &IfOptions {
                max_iters: 12,
                ..IfOptions::default()
            },
            &[4, 8, 16],
            &[0.1, 0.25, 0.4],
            2,
            2021,
        )
    });

    println!(
        "{:>4} {:>6} {:>12} {:>12}",
        "n", "h", "mean best", "mean evals"
    );
    for c in &cells {
        println!(
            "{:>4} {:>6.2} {:>12.4} {:>12.1}",
            c.n_directions, c.initial_step, c.mean_best, c.mean_evals
        );
    }
    println!(
        "winner: n={} h={} (value {:.4})",
        cells[0].n_directions, cells[0].initial_step, cells[0].mean_best
    );
    Ok(())
}
