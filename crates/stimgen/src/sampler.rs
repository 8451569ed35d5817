//! Biased random sampling of resolved parameters.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ascdg_template::{Outcome, ParamId, ResolvedParams, SlotDraw, Symbol, Value};

use crate::StimGenError;

/// Draws random decisions from a template's resolved parameter set.
///
/// One sampler corresponds to one test-instance: it is created with the
/// instance's seed and consumed while generating the stimulus program.
/// Every random decision the environment makes — instruction mnemonics,
/// delays, addresses — goes through a parameter, exactly as the paper's
/// biased random generators do. Draws address parameters by [`ParamId`],
/// which the environment looks up once with
/// [`ParamRegistry::id`](ascdg_template::ParamRegistry::id), and read the
/// slot's compiled form ([`ResolvedParams::draw`]), so a draw is a slot
/// index, a scan of running weight totals and the RNG calls — no name
/// lookup, no string compare, no allocation. Symbolic draws return
/// [`Symbol`]s, which the environment compares against the ones it
/// looked up with
/// [`ParamRegistry::symbol`](ascdg_template::ParamRegistry::symbol).
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
    #[inline]
    #[must_use]
    pub fn new(params: &'a ResolvedParams, seed: u64) -> Self {
        ParamSampler {
            params,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The one draw path: a range slot's bounds, or one weighted draw over
    /// a weight slot as `(value position, decoded value)`; `None` for an
    /// id past the last slot.
    ///
    /// This and the draw methods over it are `#[inline(always)]`: a unit's
    /// generator calls them from many sites, where plain `#[inline]` left
    /// them out of line, and with the error construction outlined into
    /// [`ParamSampler::mismatch`] each inlined copy is a few instructions.
    #[inline(always)]
    fn draw(&mut self, id: ParamId) -> Option<Drawn> {
        Some(match self.params.draw(id)? {
            SlotDraw::Range { lo, hi } => Drawn::Range { lo, hi },
            SlotDraw::Weights {
                cumulative,
                outcomes,
            } => {
                let total = *cumulative.last().expect("weight slots hold values");
                debug_assert!(total > 0, "validated parameters have positive total");
                let r = self.rng.random_range(0..total);
                // The first value whose running total exceeds `r` (the
                // value a subtract-walk over the weights lands on) is the
                // number of totals not exceeding it, as the totals never
                // decrease; counting them takes no data-dependent branch.
                let pos = cumulative.iter().filter(|&&c| c <= r).count();
                Drawn::Value(pos, outcomes[pos])
            }
        })
    }

    /// The error for a draw from slot `id` that cannot produce the
    /// `requested` kind of sample. Kept out of line so the draw methods
    /// stay small enough to inline.
    #[cold]
    #[inline(never)]
    fn mismatch(&self, id: ParamId, drawn: Option<Drawn>, requested: &'static str) -> StimGenError {
        let Some(def) = self.params.slot(id) else {
            return StimGenError::UnknownParam(id.to_string());
        };
        let param = def.name().to_owned();
        match drawn {
            Some(Drawn::Value(pos, _)) => StimGenError::IncompatibleValue {
                param,
                value: def
                    .weighted_values()
                    .map_or_else(String::new, |ws| ws[pos].value.to_string()),
                requested,
            },
            _ => StimGenError::WrongKind { param, requested },
        }
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
    #[inline(always)]
    pub fn sample_int(&mut self, id: ParamId) -> Result<i64, StimGenError> {
        match self.draw(id) {
            Some(Drawn::Value(_, Outcome::Int(i))) => Ok(i),
            Some(Drawn::Range { lo, hi } | Drawn::Value(_, Outcome::SubRange { lo, hi })) => {
                Ok(self.rng.random_range(lo..hi))
            }
            other => Err(self.mismatch(id, other, "integer")),
        }
    }

    /// Draws a symbolic value from a weight parameter, as the [`Symbol`]
    /// its registry numbers it with.
    ///
    /// # Errors
    ///
    /// Returns [`StimGenError::UnknownParam`] for an id past the resolved
    /// set's last slot, [`StimGenError::WrongKind`] for range parameters
    /// and [`StimGenError::IncompatibleValue`] if the draw lands on a
    /// non-symbolic value.
    #[inline(always)]
    pub fn sample_symbol(&mut self, id: ParamId) -> Result<Symbol, StimGenError> {
        self.sample_symbol_at(id).map(|(_, sym)| sym)
    }

    /// [`ParamSampler::sample_symbol`], also returning the drawn value's
    /// position in the slot.
    #[inline(always)]
    fn sample_symbol_at(&mut self, id: ParamId) -> Result<(usize, Symbol), StimGenError> {
        match self.draw(id) {
            Some(Drawn::Value(pos, Outcome::Symbol(sym))) => Ok((pos, sym)),
            other => Err(self.mismatch(id, other, "symbolic choice")),
        }
    }

    /// Draws a symbolic choice from a weight parameter, borrowing the drawn
    /// identifier from the resolved set: [`ParamSampler::sample_symbol`]
    /// plus a name lookup, making the same RNG calls.
    ///
    /// # Errors
    ///
    /// Same as [`ParamSampler::sample_symbol`].
    pub fn sample_choice(&mut self, id: ParamId) -> Result<&'a str, StimGenError> {
        let (pos, _) = self.sample_symbol_at(id)?;
        let params: &'a ResolvedParams = self.params;
        match params
            .slot(id)
            .and_then(|def| def.weighted_values())
            .map(|ws| &ws[pos].value)
        {
            Some(Value::Ident(name)) => Ok(name),
            _ => unreachable!("symbol outcomes decode identifier values"),
        }
    }

    /// Samples a rate parameter once and returns it as a probability in
    /// `[0, 1]` (the parameter is interpreted as a percentage).
    ///
    /// # Errors
    ///
    /// Propagates [`ParamSampler::sample_int`] failures.
    #[inline]
    pub fn rate(&mut self, id: ParamId) -> Result<f64, StimGenError> {
        Ok(self.sample_int(id)? as f64 / 100.0)
    }

    /// Flips a coin with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.random::<f64>() < p.clamp(0.0, 1.0)
    }

    /// Draws a uniform integer in `[lo, hi)` outside any parameter —
    /// for decisions the environment does not expose as parameters.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty uniform range [{lo}, {hi})");
        self.rng.random_range(lo..hi)
    }
}

/// What one draw from a slot yields before the caller interprets it.
#[derive(Clone, Copy)]
enum Drawn {
    /// A range slot: the caller samples `[lo, hi)`.
    Range { lo: i64, hi: i64 },
    /// A weight slot's drawn value: its position and decoded form.
    Value(usize, Outcome),
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_template::{ParamDef, ParamRegistry, TestTemplate};

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
    fn symbols_name_the_choices_drawn_with_the_same_seed() {
        let (reg, r) = (registry(), resolved());
        let op = id("Op");
        let (mut by_symbol, mut by_name) = (ParamSampler::new(&r, 9), ParamSampler::new(&r, 9));
        for _ in 0..200 {
            let sym = by_symbol.sample_symbol(op).unwrap();
            let name = by_name.sample_choice(op).unwrap();
            assert_eq!(reg.symbol(op, name).unwrap(), sym);
        }
        assert!(matches!(
            by_symbol.sample_symbol(id("Gap")),
            Err(StimGenError::WrongKind { .. })
        ));
        assert!(matches!(
            by_symbol.sample_symbol(id("Len")),
            Err(StimGenError::IncompatibleValue { .. })
        ));
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
