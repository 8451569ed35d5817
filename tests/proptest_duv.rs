//! Property-based tests over the simulated units: determinism, coverage
//! width, family monotonicity and thread-count invariance hold for *every*
//! stock template and seed, not just the hand-picked ones.

use proptest::prelude::*;

use ascdg::core::{pool_scope, BatchRunner};
use ascdg::coverage::EventFamily;
use ascdg::duv::{ifu::IfuEnv, io_unit::IoEnv, l3cache::L3Env, synthetic::SyntheticEnv, VerifEnv};

fn with_env<T>(which: usize, f: impl FnOnce(&dyn VerifEnv) -> T) -> T {
    match which % 4 {
        0 => f(&IoEnv::new()),
        1 => f(&L3Env::new()),
        2 => f(&IfuEnv::new()),
        _ => f(&SyntheticEnv::default()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Simulation is a pure function of (template, seed) on every unit.
    #[test]
    fn simulation_is_deterministic(which in 0usize..4, tpl in 0usize..12, seed in any::<u64>()) {
        with_env(which, |env| {
            let lib = env.stock_library();
            let t = lib.get(tpl % lib.len()).unwrap().clone();
            let a = env.simulate(&t, seed).unwrap();
            let b = env.simulate(&t, seed).unwrap();
            prop_assert_eq!(a, b);
            Ok(())
        })?;
    }

    /// Coverage vectors always match the model width.
    #[test]
    fn coverage_width_matches_model(which in 0usize..4, tpl in 0usize..12, seed in any::<u64>()) {
        with_env(which, |env| {
            let lib = env.stock_library();
            let t = lib.get(tpl % lib.len()).unwrap().clone();
            let cov = env.simulate(&t, seed).unwrap();
            prop_assert_eq!(cov.len(), env.coverage_model().len());
            Ok(())
        })?;
    }

    /// The target families are monotone within every single simulation:
    /// hitting a deeper member implies having hit every shallower one.
    #[test]
    fn families_are_monotone(which in 0usize..2, tpl in 0usize..12, seed in any::<u64>()) {
        with_env(which, |env| {
            let lib = env.stock_library();
            let t = lib.get(tpl % lib.len()).unwrap().clone();
            let cov = env.simulate(&t, seed).unwrap();
            let stem = if which == 0 { "crc_" } else { "byp_reqs" };
            let fam = EventFamily::discover(env.coverage_model())
                .into_iter()
                .find(|f| f.stem() == stem)
                .expect("family exists");
            let events = fam.events();
            for w in events.windows(2) {
                prop_assert!(
                    cov.get(w[1]) <= cov.get(w[0]),
                    "family `{stem}` not monotone"
                );
            }
            Ok(())
        })?;
    }

    /// Batch results are independent of the worker count.
    #[test]
    fn batch_is_thread_invariant(
        which in 0usize..4,
        tpl in 0usize..12,
        threads in 2usize..6,
        seed in any::<u64>(),
    ) {
        with_env(which, |env| {
            let lib = env.stock_library();
            let t = lib.get(tpl % lib.len()).unwrap().clone();
            let run = |threads| {
                pool_scope(threads, |pool| BatchRunner::new(pool).run(&env, &t, 24, seed))
            };
            let serial = run(1).unwrap();
            let parallel = run(threads).unwrap();
            prop_assert_eq!(serial, parallel);
            Ok(())
        })?;
    }

    /// Every stock template of every unit validates against its registry
    /// and produces at least one hit over a handful of simulations (no
    /// dead templates in the shipped libraries).
    #[test]
    fn stock_templates_are_alive(which in 0usize..4, tpl in 0usize..12) {
        with_env(which, |env| {
            let lib = env.stock_library();
            let t = lib.get(tpl % lib.len()).unwrap().clone();
            env.registry().validate(&t).unwrap();
            let stats = pool_scope(1, |pool| BatchRunner::new(pool).run(&env, &t, 10, 5)).unwrap();
            prop_assert!(
                stats.hits.iter().any(|&h| h > 0),
                "template `{}` hits nothing",
                t.name()
            );
            Ok(())
        })?;
    }
}
