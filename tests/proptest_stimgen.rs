//! Property-based tests for the stimuli generator: every draw stays inside
//! the parameter's declared domain, zero-weight values never appear, and
//! seeds behave like independent streams.

use proptest::prelude::*;

use ascdg::stimgen::{instance_seed, ParamSampler};
use ascdg::template::{ParamDef, ParamRegistry, TestTemplate, Value};

fn subranges() -> impl Strategy<Value = Vec<(i64, i64, u32)>> {
    // Disjoint, ordered subranges with weights; at least one positive.
    proptest::collection::vec((1i64..50, 0u32..100), 1..5).prop_map(|parts| {
        let mut out = Vec::new();
        let mut lo = -25;
        for (width, w) in parts {
            out.push((lo, lo + width, w));
            lo += width;
        }
        // Force drawability.
        if out.iter().all(|&(_, _, w)| w == 0) {
            out[0].2 = 1;
        }
        out
    })
}

proptest! {
    /// Range parameters draw only inside `[lo, hi)`.
    #[test]
    fn range_draws_in_domain(lo in -1000i64..1000, width in 1i64..500, seed in any::<u64>()) {
        let mut reg = ParamRegistry::new();
        reg.define(ParamDef::range("R", lo, lo + width).unwrap()).unwrap();
        let r = reg.id("R").unwrap();
        let resolved = reg.resolve(&TestTemplate::builder("t").build()).unwrap();
        let mut s = ParamSampler::new(&resolved, seed);
        for _ in 0..50 {
            let v = s.sample_int(r).unwrap();
            prop_assert!((lo..lo + width).contains(&v), "{v} outside [{lo}, {})", lo + width);
        }
    }

    /// Weighted subrange parameters draw integers inside the union of the
    /// positive-weight subranges only.
    #[test]
    fn weighted_subranges_respect_weights(ranges in subranges(), seed in any::<u64>()) {
        let mut reg = ParamRegistry::new();
        reg.define(
            ParamDef::weights(
                "W",
                ranges.iter().map(|&(lo, hi, w)| (Value::SubRange { lo, hi }, w)),
            )
            .unwrap(),
        )
        .unwrap();
        let w = reg.id("W").unwrap();
        let resolved = reg.resolve(&TestTemplate::builder("t").build()).unwrap();
        let mut s = ParamSampler::new(&resolved, seed);
        for _ in 0..100 {
            let v = s.sample_int(w).unwrap();
            let home = ranges.iter().find(|&&(lo, hi, _)| (lo..hi).contains(&v));
            prop_assert!(home.is_some(), "draw {v} outside every subrange");
            prop_assert!(home.unwrap().2 > 0, "draw {v} from zero-weight subrange");
        }
    }

    /// Symbolic draws never produce zero-weight values and respect rough
    /// frequency ordering for heavily skewed weights.
    #[test]
    fn symbolic_draws_respect_weights(seed in any::<u64>()) {
        let mut reg = ParamRegistry::new();
        reg.define(
            ParamDef::weights("Op", [("hot", 95u32), ("cold", 5u32), ("dead", 0u32)]).unwrap(),
        )
        .unwrap();
        let op = reg.id("Op").unwrap();
        let resolved = reg.resolve(&TestTemplate::builder("t").build()).unwrap();
        let mut s = ParamSampler::new(&resolved, seed);
        let mut hot = 0u32;
        for _ in 0..400 {
            match s.sample_choice(op).unwrap() {
                "hot" => hot += 1,
                "cold" => {}
                other => prop_assert!(false, "zero-weight value drawn: {other}"),
            }
        }
        // 95% expected; allow a wide band (binomial sd ~ 4.4).
        prop_assert!(hot > 330, "hot drawn only {hot}/400");
    }

    /// Same seed ⇒ identical stream; different instance indices ⇒
    /// (almost surely) different streams.
    #[test]
    fn seed_streams_are_independent(base in any::<u64>(), name in "[a-z]{1,10}") {
        let mut reg = ParamRegistry::new();
        reg.define(ParamDef::range("R", 0, 1_000_000).unwrap()).unwrap();
        let r = reg.id("R").unwrap();
        let resolved = reg.resolve(&TestTemplate::builder("t").build()).unwrap();
        let draw = |seed: u64| {
            let mut s = ParamSampler::new(&resolved, seed);
            (0..8).map(|_| s.sample_int(r).unwrap()).collect::<Vec<_>>()
        };
        let s0 = instance_seed(base, &name, 0);
        let s1 = instance_seed(base, &name, 1);
        prop_assert_eq!(draw(s0), draw(s0));
        prop_assert_ne!(draw(s0), draw(s1));
    }

    /// `rate` maps percent parameters into [0, 1].
    #[test]
    fn rate_is_a_probability(hi in 1i64..100, seed in any::<u64>()) {
        let mut reg = ParamRegistry::new();
        reg.define(ParamDef::range("P", 0, hi).unwrap()).unwrap();
        let p = reg.id("P").unwrap();
        let resolved = reg.resolve(&TestTemplate::builder("t").build()).unwrap();
        let mut s = ParamSampler::new(&resolved, seed);
        for _ in 0..20 {
            let r = s.rate(p).unwrap();
            prop_assert!((0.0..1.0).contains(&r));
        }
    }
}
