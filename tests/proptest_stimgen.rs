//! Property-based tests for the stimuli generator: every draw stays inside
//! the parameter's declared domain, zero-weight values never appear,
//! seeds behave like independent streams, and the compiled weighted draw
//! is the plain subtract-walk over the weights.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ascdg::stimgen::{instance_seed, ParamSampler};
use ascdg::template::{ParamDef, ParamRegistry, TestTemplate, Value};

/// Weight lists mixing zero weights, integers, subranges and symbols
/// (each symbol distinct), with a positive total.
fn weight_lists() -> impl Strategy<Value = Vec<(Value, u32)>> {
    proptest::collection::vec((0u8..3, -50i64..50, 1i64..20, 0u32..6), 1..7).prop_map(|parts| {
        let mut out: Vec<(Value, u32)> = parts
            .into_iter()
            .enumerate()
            .map(|(i, (kind, lo, width, w))| {
                let value = match kind {
                    0 => Value::Int(lo),
                    1 => Value::SubRange { lo, hi: lo + width },
                    _ => Value::ident(format!("v{i}").as_str()),
                };
                // Half of the small weights become zeros.
                (value, if w < 3 { 0 } else { w })
            })
            .collect();
        if out.iter().all(|&(_, w)| w == 0) {
            out[0].1 = 1;
        }
        out
    })
}

/// The weighted draw as written before draws were compiled: re-sum the
/// weights, draw below the total, then walk the values subtracting each
/// weight until the draw falls inside one.
fn subtract_walk<'v>(rng: &mut StdRng, values: &'v [(Value, u32)]) -> &'v Value {
    let total: u64 = values.iter().map(|&(_, w)| u64::from(w)).sum();
    let mut r = rng.random_range(0..total);
    for (value, w) in values {
        let w = u64::from(*w);
        if r < w {
            return value;
        }
        r -= w;
    }
    unreachable!("the draw is below the total");
}

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

    /// Compiled `sample_int`/`sample_choice` return what the subtract-walk
    /// returns, fail where it lands on the wrong kind of value, and leave
    /// the RNG where it leaves it — whether the slot is the registry
    /// default or an override listing the values in reverse order.
    #[test]
    fn compiled_draws_match_the_subtract_walk(
        values in weight_lists(),
        reverse in any::<bool>(),
        ops in proptest::collection::vec(any::<bool>(), 1..40),
        seed in any::<u64>(),
    ) {
        let mut reg = ParamRegistry::new();
        reg.define(ParamDef::weights("W", values.clone()).unwrap()).unwrap();
        let w = reg.id("W").unwrap();
        let mut slot = values;
        let mut template = TestTemplate::builder("t");
        if reverse {
            slot.reverse();
            template = template.weights("W", slot.clone()).unwrap();
        }
        let resolved = reg.resolve(&template.build()).unwrap();
        let mut sampler = ParamSampler::new(&resolved, seed);
        let mut rng = StdRng::seed_from_u64(seed);
        for int in ops {
            if int {
                let want = match subtract_walk(&mut rng, &slot) {
                    &Value::Int(i) => Some(i),
                    &Value::SubRange { lo, hi } => Some(rng.random_range(lo..hi)),
                    Value::Ident(_) => None,
                };
                prop_assert_eq!(sampler.sample_int(w).ok(), want);
            } else {
                let want = match subtract_walk(&mut rng, &slot) {
                    Value::Ident(name) => Some(name.as_str()),
                    _ => None,
                };
                prop_assert_eq!(sampler.sample_choice(w).ok(), want);
            }
        }
        // Same RNG position: the next raw draw agrees.
        prop_assert_eq!(sampler.uniform(0, i64::MAX), rng.random_range(0..i64::MAX));
    }
}
