//! Biased random sampling of resolved parameters.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ascdg_template::{ParamDef, ParamId, ParamKind, ResolvedParams, Value, WeightedValue};

use crate::StimGenError;

/// Draws random decisions from a template's resolved parameter set.
///
/// One sampler corresponds to one test-instance: it is created with the
/// instance's seed and consumed while generating the stimulus program.
/// Every random decision the environment makes — instruction mnemonics,
/// delays, addresses — goes through a parameter, exactly as the paper's
/// biased random generators do. Draws address parameters by [`ParamId`],
/// which the environment looks up once with
/// [`ParamRegistry::id`](ascdg_template::ParamRegistry::id), so a draw is
/// a slot index plus the RNG calls — no name lookup, no allocation.
///
/// # Examples
///
/// ```
/// use ascdg_stimgen::ParamSampler;
/// use ascdg_template::{ParamDef, ParamRegistry, TestTemplate};
///
/// let mut reg = ParamRegistry::new();
/// reg.define(ParamDef::range("Gap", 0, 4)?)?;
/// let gap = reg.id("Gap")?;
/// let resolved = reg.resolve(&TestTemplate::builder("t").build())?;
/// let mut s = ParamSampler::new(&resolved, 9);
/// for _ in 0..20 {
///     assert!((0..4).contains(&s.sample_int(gap)?));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ParamSampler<'a> {
    params: &'a ResolvedParams,
    rng: StdRng,
}

impl<'a> ParamSampler<'a> {
    /// Creates a sampler over `params` seeded with `seed`.
    #[must_use]
    pub fn new(params: &'a ResolvedParams, seed: u64) -> Self {
        ParamSampler {
            params,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    fn slot(&self, id: ParamId) -> Result<&'a ParamDef, StimGenError> {
        self.params
            .slot(id)
            .ok_or_else(|| StimGenError::UnknownParam(id.to_string()))
    }

    /// One weighted draw over a weight parameter's values, borrowing the
    /// drawn value.
    fn pick(&mut self, values: &'a [WeightedValue]) -> &'a Value {
        let total: u64 = values.iter().map(|w| u64::from(w.weight)).sum();
        debug_assert!(total > 0, "validated parameters have positive total");
        let mut r = self.rng.random_range(0..total);
        for wv in values {
            let w = u64::from(wv.weight);
            if r < w {
                return &wv.value;
            }
            r -= w;
        }
        unreachable!("weighted draw fell off the end");
    }

    /// Draws an integer from a parameter.
    ///
    /// Range parameters produce a uniform integer; weight parameters first
    /// draw a value, then resolve it: [`Value::Int`] is returned as-is and
    /// [`Value::SubRange`] is sampled uniformly — this is how skeletonized
    /// range parameters keep producing integers.
    ///
    /// # Errors
    ///
    /// Returns [`StimGenError::UnknownParam`] for an id past the resolved
    /// set's last slot, and [`StimGenError::IncompatibleValue`] if the draw
    /// lands on a symbolic value.
    pub fn sample_int(&mut self, id: ParamId) -> Result<i64, StimGenError> {
        let def = self.slot(id)?;
        let values = match def.kind() {
            ParamKind::Weights(values) => values,
            &ParamKind::Range { lo, hi } => return Ok(self.rng.random_range(lo..hi)),
        };
        match self.pick(values) {
            &Value::Int(i) => Ok(i),
            &Value::SubRange { lo, hi } => Ok(self.rng.random_range(lo..hi)),
            Value::Ident(s) => Err(StimGenError::IncompatibleValue {
                param: def.name().to_owned(),
                value: s.clone(),
                requested: "integer",
            }),
        }
    }

    /// Draws a symbolic choice from a weight parameter, borrowing the drawn
    /// identifier from the resolved set.
    ///
    /// # Errors
    ///
    /// Returns [`StimGenError::UnknownParam`] for an id past the resolved
    /// set's last slot, [`StimGenError::WrongKind`] for range parameters
    /// and [`StimGenError::IncompatibleValue`] if the draw lands on a
    /// non-symbolic value.
    pub fn sample_choice(&mut self, id: ParamId) -> Result<&'a str, StimGenError> {
        let def = self.slot(id)?;
        let ParamKind::Weights(values) = def.kind() else {
            return Err(StimGenError::WrongKind {
                param: def.name().to_owned(),
                requested: "symbolic choice",
            });
        };
        match self.pick(values) {
            Value::Ident(s) => Ok(s),
            other => Err(StimGenError::IncompatibleValue {
                param: def.name().to_owned(),
                value: other.to_string(),
                requested: "symbolic choice",
            }),
        }
    }

    /// Samples a rate parameter once and returns it as a probability in
    /// `[0, 1]` (the parameter is interpreted as a percentage).
    ///
    /// # Errors
    ///
    /// Propagates [`ParamSampler::sample_int`] failures.
    pub fn rate(&mut self, id: ParamId) -> Result<f64, StimGenError> {
        Ok(self.sample_int(id)? as f64 / 100.0)
    }

    /// Flips a coin with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.random::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Draws a uniform integer in `[lo, hi)` outside any parameter —
    /// for decisions the environment does not expose as parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        self.rng.random_range(lo..hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_template::{ParamRegistry, TestTemplate};

    fn registry() -> ParamRegistry {
        let mut reg = ParamRegistry::new();
        reg.define(
            ParamDef::weights("Op", [("load", 75u32), ("store", 25u32), ("sync", 0u32)]).unwrap(),
        )
        .unwrap();
        reg.define(ParamDef::range("Gap", 0, 10).unwrap()).unwrap();
        reg.define(
            ParamDef::weights(
                "Len",
                [
                    (Value::SubRange { lo: 1, hi: 9 }, 90u32),
                    (Value::SubRange { lo: 9, hi: 65 }, 10u32),
                    (Value::Int(128), 5u32),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        reg.define(ParamDef::range("ErrRate", 0, 100).unwrap())
            .unwrap();
        reg
    }

    fn resolved() -> ResolvedParams {
        registry()
            .resolve(&TestTemplate::builder("t").build())
            .unwrap()
    }

    fn id(name: &str) -> ParamId {
        registry().id(name).unwrap()
    }

    #[test]
    fn weighted_draw_respects_weights() {
        let r = resolved();
        let mut s = ParamSampler::new(&r, 1);
        let mut loads = 0;
        let n = 4000;
        for _ in 0..n {
            match s.sample_choice(id("Op")).unwrap() {
                "load" => loads += 1,
                "store" => {}
                other => panic!("zero-weight value drawn: {other}"),
            }
        }
        let frac = loads as f64 / n as f64;
        assert!((frac - 0.75).abs() < 0.03, "load fraction {frac}");
    }

    #[test]
    fn range_draws_stay_in_range() {
        let r = resolved();
        let mut s = ParamSampler::new(&r, 2);
        for _ in 0..200 {
            let v = s.sample_int(id("Gap")).unwrap();
            assert!((0..10).contains(&v));
        }
    }

    #[test]
    fn subrange_values_resolve_to_integers() {
        let r = resolved();
        let mut s = ParamSampler::new(&r, 3);
        let mut seen_small = false;
        let mut seen_exact = false;
        for _ in 0..2000 {
            let v = s.sample_int(id("Len")).unwrap();
            assert!((1..65).contains(&v) || v == 128, "out of domain: {v}");
            seen_small |= (1..9).contains(&v);
            seen_exact |= v == 128;
        }
        assert!(seen_small && seen_exact);
    }

    #[test]
    fn wrong_kind_errors() {
        let r = resolved();
        let mut s = ParamSampler::new(&r, 4);
        assert!(matches!(
            s.sample_choice(id("Gap")),
            Err(StimGenError::WrongKind { .. })
        ));
        assert!(matches!(
            s.sample_int(id("Op")),
            Err(StimGenError::IncompatibleValue { .. })
        ));
        // An id past the resolved set's slots is an error, not a panic.
        let mut wide = registry();
        wide.define(ParamDef::range("Extra", 0, 1).unwrap())
            .unwrap();
        assert!(matches!(
            s.sample_int(wide.id("Extra").unwrap()),
            Err(StimGenError::UnknownParam(_))
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let r = resolved();
        let draw = |seed| {
            let mut s = ParamSampler::new(&r, seed);
            (0..50)
                .map(|_| s.sample_int(id("Gap")).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(77), draw(77));
        assert_ne!(draw(77), draw(78));
    }

    #[test]
    fn rate_and_chance() {
        let r = resolved();
        let mut s = ParamSampler::new(&r, 5);
        let rate = s.rate(id("ErrRate")).unwrap();
        assert!((0.0..1.0).contains(&rate));
        let hits = (0..1000).filter(|_| s.chance(0.3)).count();
        assert!((200..400).contains(&hits), "chance(0.3) fired {hits}/1000");
        assert!(!s.chance(0.0));
        assert!(s.chance(1.0));
    }

    #[test]
    fn uniform_helper() {
        let r = resolved();
        let mut s = ParamSampler::new(&r, 7);
        for _ in 0..100 {
            assert!((5..8).contains(&s.uniform(5, 8)));
        }
    }

    #[test]
    #[should_panic(expected = "empty uniform range")]
    fn uniform_empty_range_panics() {
        let r = resolved();
        let mut s = ParamSampler::new(&r, 8);
        let _ = s.uniform(3, 3);
    }
}
