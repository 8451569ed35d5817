//! The random-sample phase (Section IV-D).
//!
//! Before optimizing, AS-CDG samples `n` random settings vectors that
//! uniformly span the skeleton's weights, simulating `N` instances of each.
//! The best sample seeds the optimizer — the paper's answer to the "almost
//! flat area reached by a random start".

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use ascdg_duv::VerifEnv;
use ascdg_opt::Objective;

use crate::CdgObjective;

/// The outcome of the random-sample phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleOutcome {
    /// The best settings vector found.
    pub best_settings: Vec<f64>,
    /// Its estimated approximated-target value.
    pub best_value: f64,
    /// Every sampled `(settings, value)` pair, in sampling order.
    pub samples: Vec<(Vec<f64>, f64)>,
}

/// Draws `n` uniform settings vectors, evaluates each with the objective's
/// `N` simulations, and returns the best.
///
/// The objective accumulates the phase's per-event statistics as a side
/// effect (read them via [`CdgObjective::phase_stats`]).
///
/// # Panics
///
/// Panics if `n` is zero — the flow always needs a starting point.
#[must_use]
pub fn random_sample<E: VerifEnv>(
    objective: &mut CdgObjective<'_, '_, E>,
    n: usize,
    seed: u64,
) -> SampleOutcome {
    assert!(n > 0, "the sampling phase needs at least one sample");
    let dim = objective.dim();
    let mut rng = StdRng::seed_from_u64(seed);
    // The samples are independent, so all of them are drawn up front (in
    // the same RNG order a draw-then-evaluate loop would use) and submitted
    // as one batch to the simulation pool.
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.random::<f64>()).collect())
        .collect();
    let values = objective.eval_batch(&xs);
    let mut samples = Vec::with_capacity(n);
    let mut best_settings = Vec::new();
    let mut best_value = f64::NEG_INFINITY;
    for (x, value) in xs.into_iter().zip(values) {
        if value > best_value {
            best_value = value;
            best_settings = x.clone();
        }
        samples.push((x, value));
    }
    SampleOutcome {
        best_settings,
        best_value,
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pool_scope, ApproxTarget, BatchRunner, Skeletonizer};
    use ascdg_duv::io_unit::IoEnv;

    #[test]
    fn sampling_finds_a_positive_start() {
        let env = IoEnv::new();
        let t = env
            .stock_library()
            .by_name("io_burst_stress")
            .unwrap()
            .1
            .clone();
        let sk = Skeletonizer::new().skeletonize(&t).unwrap();
        let model = env.coverage_model();
        let target = ApproxTarget::auto(model, &[model.id("crc_064").unwrap()], 0.5).unwrap();
        pool_scope(1, |pool| {
            let mut obj = CdgObjective::new(&env, &sk, &target, 8, BatchRunner::new(pool), 1);
            let out = random_sample(&mut obj, 12, 2);
            assert_eq!(out.samples.len(), 12);
            assert_eq!(out.best_settings.len(), sk.num_slots());
            assert!(out.best_value >= out.samples.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max));
            assert!(out.best_value > 0.0, "neighbors should show evidence");
            assert_eq!(obj.phase_stats().sims, 12 * 8);
        });
    }

    #[test]
    fn deterministic_per_seed() {
        let env = IoEnv::new();
        let t = env
            .stock_library()
            .by_name("io_burst_stress")
            .unwrap()
            .1
            .clone();
        let sk = Skeletonizer::new().skeletonize(&t).unwrap();
        let model = env.coverage_model();
        let target = ApproxTarget::auto(model, &[model.id("crc_032").unwrap()], 0.5).unwrap();
        pool_scope(1, |pool| {
            let run = |seed| {
                let mut obj = CdgObjective::new(&env, &sk, &target, 5, BatchRunner::new(pool), 9);
                random_sample(&mut obj, 6, seed)
            };
            assert_eq!(run(4), run(4));
            assert_ne!(run(4).samples, run(5).samples);
        });
    }

    #[test]
    #[should_panic(expected = "at least one sample")]
    fn zero_samples_panics() {
        let env = IoEnv::new();
        let t = env
            .stock_library()
            .by_name("io_burst_stress")
            .unwrap()
            .1
            .clone();
        let sk = Skeletonizer::new().skeletonize(&t).unwrap();
        let model = env.coverage_model();
        let target = ApproxTarget::auto(model, &[model.id("crc_032").unwrap()], 0.5).unwrap();
        pool_scope(1, |pool| {
            let mut obj = CdgObjective::new(&env, &sk, &target, 5, BatchRunner::new(pool), 9);
            let _ = random_sample(&mut obj, 0, 1);
        });
    }
}
