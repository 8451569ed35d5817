//! The environment's parameter catalogue and template resolution.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::{ParamDef, ParamKind, TemplateError, TestTemplate, Value};

/// Dense index of a parameter within a [`ParamRegistry`]: its declaration
/// position, and the slot it occupies in every [`ResolvedParams`] resolved
/// by that registry.
///
/// Environments look their ids up once with [`ParamRegistry::id`] and draw
/// through them, so a simulation's draws are array indexing, not name
/// lookups. Ids are only meaningful relative to the registry that produced
/// them; [`ParamRegistry::check_layout`] guards resolved sets from another
/// registry.
///
/// # Examples
///
/// ```
/// use ascdg_template::{ParamDef, ParamRegistry, TestTemplate};
///
/// let mut reg = ParamRegistry::new();
/// reg.define(ParamDef::range("A", 0, 4)?)?;
/// reg.define(ParamDef::range("B", 0, 8)?)?;
/// let b = reg.id("B")?;
/// assert_eq!(b.index(), 1);
/// let resolved = reg.resolve(&TestTemplate::builder("t").build())?;
/// assert_eq!(resolved.slot(b).unwrap().name(), "B");
/// # Ok::<(), ascdg_template::TemplateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ParamId(u32);

impl ParamId {
    /// Returns the id as a `usize` slot index.
    #[inline]
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ParamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "param#{}", self.0)
    }
}

/// A symbolic value of a weight parameter, as its position in the
/// parameter's [`ParamRegistry`] default value list.
///
/// Environments look their symbols up once with
/// [`ParamRegistry::symbol`] and compare the symbols their draws return
/// against them: an integer compare, not a string compare. Like a
/// [`ParamId`], a symbol is only meaningful relative to the registry that
/// produced it; [`ParamRegistry::check_layout`] refuses a resolved set
/// whose symbols were numbered by another registry.
///
/// # Examples
///
/// ```
/// use ascdg_template::{ParamDef, ParamRegistry};
///
/// let mut reg = ParamRegistry::new();
/// reg.define(ParamDef::weights("Op", [("load", 50), ("store", 50)])?)?;
/// let op = reg.id("Op")?;
/// assert_eq!(reg.symbol(op, "store")?.index(), 1);
/// assert!(reg.symbol(op, "jump").is_err());
/// # Ok::<(), ascdg_template::TemplateError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the position as a `usize` index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One drawable outcome of a weight parameter, decoded at resolve time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A plain integer value.
    Int(i64),
    /// A half-open integer subrange `[lo, hi)`, sampled uniformly.
    SubRange {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// A symbolic value, numbered by the registry.
    Symbol(Symbol),
}

/// A slot of a [`ResolvedParams`] compiled for drawing (see
/// [`ResolvedParams::draw`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotDraw<'a> {
    /// A range parameter: uniform over `[lo, hi)`.
    Range {
        /// Inclusive lower bound.
        lo: i64,
        /// Exclusive upper bound.
        hi: i64,
    },
    /// A weight parameter. `cumulative[i]` is the sum of the weights of
    /// values `0..=i` (so the last entry is the positive total), and
    /// `outcomes[i]` is value `i` decoded; both follow the slot's value
    /// order.
    Weights {
        /// Running weight totals, one per value.
        cumulative: &'a [u64],
        /// The decoded values, one per value.
        outcomes: &'a [Outcome],
    },
}

/// The full set of parameters a verification environment exposes, each with
/// its default definition.
///
/// Real environments expose hundreds of parameters; a template overrides a
/// handful. The registry is the source of truth the stimuli generator falls
/// back to for every parameter a template leaves untouched, and the
/// validator that rejects overrides outside a parameter's declared domain.
///
/// # Examples
///
/// ```
/// use ascdg_template::{ParamDef, ParamRegistry, TestTemplate};
///
/// let mut reg = ParamRegistry::new();
/// reg.define(ParamDef::weights("Op", [("load", 50), ("store", 50)])?)?;
/// reg.define(ParamDef::range("Delay", 0, 100)?)?;
///
/// let t = TestTemplate::builder("t").range("Delay", 10, 20)?.build();
/// reg.validate(&t)?;
/// let resolved = reg.resolve(&t)?;
/// // Overridden parameter comes from the template...
/// assert!(resolved.get("Delay").unwrap().kind().is_range());
/// // ...everything else from the registry defaults.
/// assert_eq!(resolved.get("Op").unwrap().kind().total_weight(), 100);
/// # Ok::<(), ascdg_template::TemplateError>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ParamRegistry {
    params: Vec<ParamDef>,
}

impl ParamRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        ParamRegistry::default()
    }

    /// Defines a parameter with its default settings.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::DuplicateParam`] if the name is taken.
    pub fn define(&mut self, param: ParamDef) -> Result<(), TemplateError> {
        if self.get(param.name()).is_some() {
            return Err(TemplateError::DuplicateParam(param.name().to_owned()));
        }
        self.params.push(param);
        Ok(())
    }

    /// Looks up a parameter's default definition.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ParamDef> {
        self.params.iter().find(|p| p.name() == name)
    }

    /// The dense id of a parameter: its declaration position.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::UnknownParam`] for undefined names.
    pub fn id(&self, name: &str) -> Result<ParamId, TemplateError> {
        self.params
            .iter()
            .position(|p| p.name() == name)
            .map(|i| ParamId(u32::try_from(i).expect("registry fits u32 ids")))
            .ok_or_else(|| TemplateError::UnknownParam(name.to_owned()))
    }

    /// The [`Symbol`] of value `name` of weight parameter `id`: its
    /// position in the parameter's default value list.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::UnknownParam`] for an id past the last
    /// parameter and [`TemplateError::UnknownSymbol`] when the parameter
    /// declares no symbolic value `name`.
    pub fn symbol(&self, id: ParamId, name: &str) -> Result<Symbol, TemplateError> {
        let def = self
            .params
            .get(id.index())
            .ok_or_else(|| TemplateError::UnknownParam(id.to_string()))?;
        symbol_of(def, name).ok_or_else(|| TemplateError::UnknownSymbol {
            param: def.name().to_owned(),
            symbol: name.to_owned(),
        })
    }

    /// Checks that `resolved` has this registry's slot layout — the same
    /// parameter names in the same declaration order, with symbols
    /// numbered the way this registry numbers them — so that this
    /// registry's [`ParamId`]s and [`Symbol`]s mean the same in it.
    ///
    /// Environments call this once per simulate call, before any draw.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::LayoutMismatch`] naming the first slot that
    /// differs: a parameter in another position, one side running out, or
    /// a symbol whose number names another value here (`Param.value` on
    /// both sides).
    pub fn check_layout(&self, resolved: &ResolvedParams) -> Result<(), TemplateError> {
        let slots = self.params.len().max(resolved.slots.len());
        for slot in 0..slots {
            let expected = self.params.get(slot).map(ParamDef::name);
            let found = resolved.slots.get(slot).map(ParamDef::name);
            if expected != found {
                return Err(TemplateError::LayoutMismatch {
                    slot,
                    expected: expected.map(str::to_owned),
                    found: found.map(str::to_owned),
                });
            }
            let Draw::Weights { start, end } = resolved.draws[slot] else {
                continue;
            };
            let default = &self.params[slot];
            let values = resolved.slots[slot].weighted_values().unwrap_or_default();
            for (wv, outcome) in values.iter().zip(&resolved.outcomes[start..end]) {
                let (Value::Ident(name), &Outcome::Symbol(sym)) = (&wv.value, outcome) else {
                    continue;
                };
                let declared = default
                    .weighted_values()
                    .and_then(|ws| ws.get(sym.index()))
                    .map(|w| &w.value);
                if declared != Some(&wv.value) {
                    let declared =
                        declared.map_or_else(|| format!("#{}", sym.index()), ToString::to_string);
                    return Err(TemplateError::LayoutMismatch {
                        slot,
                        expected: Some(format!("{}.{declared}", default.name())),
                        found: Some(format!("{}.{name}", default.name())),
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of defined parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Returns `true` when no parameters are defined.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Iterates over all parameter definitions in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &ParamDef> + '_ {
        self.params.iter()
    }

    /// All parameter names in declaration order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.params.iter().map(ParamDef::name).collect()
    }

    /// Checks that every override in `template` targets a defined parameter
    /// and stays within its domain.
    ///
    /// Domain rules:
    ///
    /// * weight-over-weight: every overridden value must be declared by the
    ///   default (new values would be meaningless to the generator);
    /// * range-over-range: the override must be a subrange of the default;
    /// * weight-over-range: every value must be an integer or subrange
    ///   inside the default range (this is the shape the Skeletonizer
    ///   produces);
    /// * range-over-weight: rejected.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::UnknownParam`] or
    /// [`TemplateError::IncompatibleOverride`].
    pub fn validate(&self, template: &TestTemplate) -> Result<(), TemplateError> {
        for over in template.params() {
            let default = self
                .get(over.name())
                .ok_or_else(|| TemplateError::UnknownParam(over.name().to_owned()))?;
            self.check_compatible(default, over)?;
        }
        Ok(())
    }

    fn check_compatible(&self, default: &ParamDef, over: &ParamDef) -> Result<(), TemplateError> {
        let fail = |reason: String| {
            Err(TemplateError::IncompatibleOverride {
                param: over.name().to_owned(),
                reason,
            })
        };
        match (default.kind(), over.kind()) {
            (ParamKind::Weights(defaults), ParamKind::Weights(overrides)) => {
                for wv in overrides {
                    if !defaults.iter().any(|d| d.value == wv.value) {
                        return fail(format!(
                            "value `{}` is not declared by the environment default",
                            wv.value
                        ));
                    }
                }
                Ok(())
            }
            (&ParamKind::Range { lo, hi }, &ParamKind::Range { lo: olo, hi: ohi }) => {
                if olo < lo || ohi > hi {
                    return fail(format!(
                        "range [{olo}, {ohi}) exceeds the default range [{lo}, {hi})"
                    ));
                }
                Ok(())
            }
            (&ParamKind::Range { lo, hi }, ParamKind::Weights(overrides)) => {
                for wv in overrides {
                    let ok = match &wv.value {
                        Value::Int(i) => *i >= lo && *i < hi,
                        Value::SubRange { lo: slo, hi: shi } => *slo >= lo && *shi <= hi,
                        Value::Ident(_) => false,
                    };
                    if !ok {
                        return fail(format!(
                            "value `{}` falls outside the default range [{lo}, {hi})",
                            wv.value
                        ));
                    }
                }
                Ok(())
            }
            (ParamKind::Weights(_), ParamKind::Range { .. }) => {
                fail("cannot override a weight parameter with a range".to_owned())
            }
        }
    }

    /// Merges a template over the registry defaults: each overridden
    /// parameter replaces its slot in place, and the merged slots compile
    /// into one draw table.
    ///
    /// # Errors
    ///
    /// Propagates [`ParamRegistry::validate`] failures.
    pub fn resolve(&self, template: &TestTemplate) -> Result<ResolvedParams, TemplateError> {
        self.validate(template)?;
        let mut slots = self.params.clone();
        for over in template.params() {
            slots[self.id(over.name())?.index()] = over.clone();
        }
        Ok(self.compile(slots))
    }

    /// Compiles validated slots (one per parameter, in declaration order)
    /// into their draw table.
    fn compile(&self, slots: Vec<ParamDef>) -> ResolvedParams {
        let values = slots
            .iter()
            .filter_map(ParamDef::weighted_values)
            .map(<[_]>::len)
            .sum();
        let mut draws = Vec::with_capacity(slots.len());
        let mut cumulative = Vec::with_capacity(values);
        let mut outcomes = Vec::with_capacity(values);
        for (default, def) in self.params.iter().zip(&slots) {
            draws.push(match def.kind() {
                &ParamKind::Range { lo, hi } => Draw::Range { lo, hi },
                ParamKind::Weights(values) => {
                    let start = outcomes.len();
                    let mut total = 0u64;
                    for wv in values {
                        total += u64::from(wv.weight);
                        cumulative.push(total);
                        outcomes.push(match &wv.value {
                            &Value::Int(i) => Outcome::Int(i),
                            &Value::SubRange { lo, hi } => Outcome::SubRange { lo, hi },
                            Value::Ident(name) => Outcome::Symbol(
                                symbol_of(default, name)
                                    .expect("validated symbols are declared by the default"),
                            ),
                        });
                    }
                    Draw::Weights {
                        start,
                        end: outcomes.len(),
                    }
                }
            });
        }
        ResolvedParams {
            slots,
            draws,
            cumulative,
            outcomes,
        }
    }
}

/// The position of symbolic value `name` in `def`'s value list.
fn symbol_of(def: &ParamDef, name: &str) -> Option<Symbol> {
    def.weighted_values()?
        .iter()
        .position(|wv| matches!(&wv.value, Value::Ident(s) if s == name))
        .map(|i| Symbol(u32::try_from(i).expect("value lists fit u32 symbols")))
}

impl Extend<ParamDef> for ParamRegistry {
    /// Extends the registry, panicking on duplicate names (use
    /// [`ParamRegistry::define`] for fallible insertion).
    fn extend<T: IntoIterator<Item = ParamDef>>(&mut self, iter: T) {
        for p in iter {
            self.define(p).expect("duplicate parameter in extend");
        }
    }
}

impl FromIterator<ParamDef> for ParamRegistry {
    fn from_iter<T: IntoIterator<Item = ParamDef>>(iter: T) -> Self {
        let mut r = ParamRegistry::new();
        r.extend(iter);
        r
    }
}

/// The effective parameter set seen by the stimuli generator: template
/// overrides merged over registry defaults, one slot per registry
/// parameter in declaration order, so a [`ParamId`] indexes its slot.
///
/// Resolution also compiles every slot once into a flat draw table
/// ([`ResolvedParams::draw`]): a range slot keeps its bounds, a weight
/// slot its running weight totals and decoded values, so a draw neither
/// re-sums weights nor inspects [`Value`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedParams {
    slots: Vec<ParamDef>,
    /// One entry per slot.
    draws: Vec<Draw>,
    /// The weight slots' running totals, back to back.
    cumulative: Vec<u64>,
    /// The weight slots' decoded values, parallel to `cumulative`.
    outcomes: Vec<Outcome>,
}

/// A compiled slot: range bounds, or a weight slot's span of the flat
/// `cumulative`/`outcomes` tables.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Draw {
    Range { lo: i64, hi: i64 },
    Weights { start: usize, end: usize },
}

impl ResolvedParams {
    /// The effective definition of a parameter, looked up by name (a scan;
    /// simulation hot paths draw through [`ResolvedParams::slot`]).
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ParamDef> {
        self.slots.iter().find(|p| p.name() == name)
    }

    /// The effective definition in slot `id`, or `None` past the last slot.
    #[must_use]
    pub fn slot(&self, id: ParamId) -> Option<&ParamDef> {
        self.slots.get(id.index())
    }

    /// Slot `id` compiled for drawing, or `None` past the last slot.
    #[inline]
    #[must_use]
    pub fn draw(&self, id: ParamId) -> Option<SlotDraw<'_>> {
        Some(match *self.draws.get(id.index())? {
            Draw::Range { lo, hi } => SlotDraw::Range { lo, hi },
            Draw::Weights { start, end } => SlotDraw::Weights {
                cumulative: &self.cumulative[start..end],
                outcomes: &self.outcomes[start..end],
            },
        })
    }

    /// Number of parameters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when no parameters are present.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Iterates over effective definitions in registry declaration order
    /// (the `i`-th item is the slot of the parameter with index `i`).
    pub fn iter(&self) -> impl Iterator<Item = &ParamDef> + '_ {
        self.slots.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> ParamRegistry {
        let mut reg = ParamRegistry::new();
        reg.define(ParamDef::weights("Op", [("load", 50u32), ("store", 50u32)]).unwrap())
            .unwrap();
        reg.define(ParamDef::range("Delay", 0, 100).unwrap())
            .unwrap();
        reg
    }

    #[test]
    fn define_and_lookup() {
        let reg = registry();
        assert_eq!(reg.len(), 2);
        assert!(!reg.is_empty());
        assert_eq!(reg.names(), vec!["Op", "Delay"]);
        assert!(reg.get("Op").is_some());
        assert!(reg.get("op").is_none());
    }

    #[test]
    fn duplicate_define_rejected() {
        let mut reg = registry();
        assert!(matches!(
            reg.define(ParamDef::range("Op", 0, 1).unwrap()),
            Err(TemplateError::DuplicateParam(_))
        ));
    }

    #[test]
    fn unknown_param_rejected() {
        let reg = registry();
        let t = TestTemplate::builder("t")
            .range("Nope", 0, 1)
            .unwrap()
            .build();
        assert!(matches!(
            reg.validate(&t),
            Err(TemplateError::UnknownParam(_))
        ));
    }

    #[test]
    fn weight_over_weight_value_check() {
        let reg = registry();
        let ok = TestTemplate::builder("t")
            .weights("Op", [("load", 90u32)])
            .unwrap()
            .build();
        assert!(reg.validate(&ok).is_ok());
        let bad = TestTemplate::builder("t")
            .weights("Op", [("jump", 5u32)])
            .unwrap()
            .build();
        assert!(matches!(
            reg.validate(&bad),
            Err(TemplateError::IncompatibleOverride { .. })
        ));
    }

    #[test]
    fn range_over_range_containment() {
        let reg = registry();
        let ok = TestTemplate::builder("t")
            .range("Delay", 10, 20)
            .unwrap()
            .build();
        assert!(reg.validate(&ok).is_ok());
        let bad = TestTemplate::builder("t")
            .range("Delay", 50, 200)
            .unwrap()
            .build();
        assert!(reg.validate(&bad).is_err());
    }

    #[test]
    fn weights_over_range_subranges() {
        let reg = registry();
        let ok = TestTemplate::builder("t")
            .weights(
                "Delay",
                [
                    (Value::SubRange { lo: 0, hi: 50 }, 10u32),
                    (Value::SubRange { lo: 50, hi: 100 }, 1u32),
                    (Value::Int(99), 1u32),
                ],
            )
            .unwrap()
            .build();
        assert!(reg.validate(&ok).is_ok());
        let bad = TestTemplate::builder("t")
            .weights("Delay", [(Value::SubRange { lo: 50, hi: 101 }, 1u32)])
            .unwrap()
            .build();
        assert!(reg.validate(&bad).is_err());
        let bad_ident = TestTemplate::builder("t")
            .weights("Delay", [("fast", 1u32)])
            .unwrap()
            .build();
        assert!(reg.validate(&bad_ident).is_err());
    }

    #[test]
    fn range_over_weight_rejected() {
        let reg = registry();
        let bad = TestTemplate::builder("t")
            .range("Op", 0, 1)
            .unwrap()
            .build();
        assert!(reg.validate(&bad).is_err());
    }

    #[test]
    fn resolve_merges() {
        let reg = registry();
        let t = TestTemplate::builder("t")
            .weights("Op", [("store", 100u32)])
            .unwrap()
            .build();
        let r = reg.resolve(&t).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.get("Op").unwrap().weighted_values().unwrap()[0].value,
            Value::ident("store")
        );
        assert!(r.get("Delay").unwrap().kind().is_range());
        assert!(r.iter().count() == 2 && !r.is_empty());
    }

    #[test]
    fn resolve_over_cached_defaults_matches_resolve() {
        let reg = registry();
        let defaults = reg.resolve(&TestTemplate::builder("t").build()).unwrap();
        assert_eq!(defaults.len(), 2);
        let t = TestTemplate::builder("t")
            .weights("Op", [("store", 100u32)])
            .unwrap()
            .build();
        let merged = reg.resolve(&t).unwrap();
        // The override replaces its own slot; every other slot keeps the
        // registry default.
        assert_ne!(merged.get("Op"), defaults.get("Op"));
        assert_eq!(merged.get("Delay"), defaults.get("Delay"));
        assert_eq!(merged, reg.resolve(&t).unwrap());
        // An invalid override is rejected, not merged.
        let bad = TestTemplate::builder("t")
            .range("Delay", 50, 200)
            .unwrap()
            .build();
        assert!(reg.resolve(&bad).is_err());
    }

    #[test]
    fn ids_are_declaration_positions_and_index_slots() {
        let reg = registry();
        let (op, delay) = (reg.id("Op").unwrap(), reg.id("Delay").unwrap());
        assert_eq!((op.index(), delay.index()), (0, 1));
        assert_eq!(delay.to_string(), "param#1");
        assert!(matches!(reg.id("op"), Err(TemplateError::UnknownParam(_))));
        let t = TestTemplate::builder("t")
            .range("Delay", 10, 20)
            .unwrap()
            .build();
        let r = reg.resolve(&t).unwrap();
        // The override replaced its slot in place; order is declaration order.
        assert_eq!(r.slot(delay), t.params().first());
        assert_eq!(r.slot(op), reg.get("Op"));
        let names: Vec<_> = r.iter().map(ParamDef::name).collect();
        assert_eq!(names, reg.names());
    }

    #[test]
    fn foreign_layouts_are_refused() {
        let reg = registry();
        let mut defs: Vec<ParamDef> = reg.iter().cloned().collect();
        defs.reverse();
        let reordered: ParamRegistry = defs.into_iter().collect();
        let shorter: ParamRegistry = reg.iter().take(1).cloned().collect();
        // The same parameters in the same order, but `Op` lists its
        // symbols the other way round, so its symbol numbers differ.
        let resymboled: ParamRegistry = [
            ParamDef::weights("Op", [("store", 50u32), ("load", 50u32)]).unwrap(),
            reg.get("Delay").unwrap().clone(),
        ]
        .into_iter()
        .collect();
        let t = TestTemplate::builder("t").build();
        assert!(reg.check_layout(&reg.resolve(&t).unwrap()).is_ok());
        for foreign in [&reordered, &shorter, &resymboled] {
            let resolved = foreign.resolve(&t).unwrap();
            let err = reg.check_layout(&resolved).unwrap_err();
            assert!(matches!(err, TemplateError::LayoutMismatch { .. }), "{err}");
        }
        let err = reg
            .check_layout(&shorter.resolve(&t).unwrap())
            .unwrap_err()
            .to_string();
        assert!(err.contains("slot 1 holds no parameter"), "{err}");
        assert!(err.contains("`Delay`"), "{err}");
        // An override naming only one symbol is caught too.
        let store_only = TestTemplate::builder("t")
            .weights("Op", [("store", 1u32)])
            .unwrap()
            .build();
        let err = reg
            .check_layout(&resymboled.resolve(&store_only).unwrap())
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("slot 0 holds `Op.store` where the registry declares `Op.load`"),
            "{err}"
        );
    }

    #[test]
    fn symbols_are_default_positions() {
        let reg = registry();
        let (op, delay) = (reg.id("Op").unwrap(), reg.id("Delay").unwrap());
        assert_eq!(reg.symbol(op, "store").unwrap(), Symbol(1));
        assert!(matches!(
            reg.symbol(op, "jump"),
            Err(TemplateError::UnknownSymbol { .. })
        ));
        assert!(matches!(
            reg.symbol(delay, "load"),
            Err(TemplateError::UnknownSymbol { .. })
        ));
    }

    #[test]
    fn resolution_compiles_each_slot() {
        let reg = registry();
        let t = TestTemplate::builder("t")
            .weights("Op", [("store", 3u32), ("load", 0u32)])
            .unwrap()
            .weights(
                "Delay",
                [
                    (Value::Int(7), 2u32),
                    (Value::SubRange { lo: 10, hi: 20 }, 5u32),
                ],
            )
            .unwrap()
            .build();
        let r = reg.resolve(&t).unwrap();
        let (op, delay) = (reg.id("Op").unwrap(), reg.id("Delay").unwrap());
        // Symbols keep the registry's numbering, whatever the override's
        // value order.
        assert_eq!(
            r.draw(op),
            Some(SlotDraw::Weights {
                cumulative: &[3, 3],
                outcomes: &[Outcome::Symbol(Symbol(1)), Outcome::Symbol(Symbol(0))],
            })
        );
        assert_eq!(
            r.draw(delay),
            Some(SlotDraw::Weights {
                cumulative: &[2, 7],
                outcomes: &[Outcome::Int(7), Outcome::SubRange { lo: 10, hi: 20 }],
            })
        );
        let defaults = reg.resolve(&TestTemplate::builder("t").build()).unwrap();
        assert_eq!(
            defaults.draw(delay),
            Some(SlotDraw::Range { lo: 0, hi: 100 })
        );
        let mut wide = registry();
        wide.define(ParamDef::range("Extra", 0, 1).unwrap())
            .unwrap();
        assert_eq!(defaults.draw(wide.id("Extra").unwrap()), None);
    }

    #[test]
    fn from_iterator() {
        let reg: ParamRegistry = [
            ParamDef::range("A", 0, 1).unwrap(),
            ParamDef::range("B", 0, 1).unwrap(),
        ]
        .into_iter()
        .collect();
        assert_eq!(reg.len(), 2);
    }
}
