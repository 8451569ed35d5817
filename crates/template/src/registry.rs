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

    /// Checks that `resolved` has this registry's slot layout — the same
    /// parameter names in the same declaration order — so that this
    /// registry's [`ParamId`]s address the right slots in it.
    ///
    /// Environments call this once per simulate call, before any draw.
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::LayoutMismatch`] naming the first slot that
    /// differs (a parameter in another position, or one side running out).
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

    /// Merges a template over the registry defaults.
    ///
    /// # Errors
    ///
    /// Propagates [`ParamRegistry::validate`] failures.
    pub fn resolve(&self, template: &TestTemplate) -> Result<ResolvedParams, TemplateError> {
        self.resolve_over(&self.resolve_defaults(), template)
    }

    /// Pre-resolves the registry defaults alone (no template overrides).
    ///
    /// Batch runners resolve the defaults once and layer each template over
    /// the cached copy with [`ParamRegistry::resolve_over`], so resolving
    /// many templates rebuilds the full parameter map only once.
    #[must_use]
    pub fn resolve_defaults(&self) -> ResolvedParams {
        ResolvedParams {
            slots: self.params.clone(),
        }
    }

    /// Merges a template over pre-resolved `defaults`, replacing each
    /// overridden parameter's slot in place. When `defaults` came from this
    /// registry's [`ParamRegistry::resolve_defaults`], the result is
    /// identical to [`ParamRegistry::resolve`].
    ///
    /// # Errors
    ///
    /// Returns [`TemplateError::LayoutMismatch`] when `defaults` was
    /// resolved by a registry with another slot layout, and propagates
    /// [`ParamRegistry::validate`] failures.
    pub fn resolve_over(
        &self,
        defaults: &ResolvedParams,
        template: &TestTemplate,
    ) -> Result<ResolvedParams, TemplateError> {
        self.check_layout(defaults)?;
        self.validate(template)?;
        let mut slots = defaults.slots.clone();
        for over in template.params() {
            slots[self.id(over.name())?.index()] = over.clone();
        }
        Ok(ResolvedParams { slots })
    }
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
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedParams {
    slots: Vec<ParamDef>,
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
        let defaults = reg.resolve_defaults();
        assert_eq!(defaults.len(), 2);
        let t = TestTemplate::builder("t")
            .weights("Op", [("store", 100u32)])
            .unwrap()
            .build();
        assert_eq!(
            reg.resolve_over(&defaults, &t).unwrap(),
            reg.resolve(&t).unwrap()
        );
        // Invalid overrides are still rejected through the cached path.
        let bad = TestTemplate::builder("t")
            .range("Delay", 50, 200)
            .unwrap()
            .build();
        assert!(reg.resolve_over(&defaults, &bad).is_err());
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
        let t = TestTemplate::builder("t").build();
        assert!(reg.check_layout(&reg.resolve(&t).unwrap()).is_ok());
        for foreign in [&reordered, &shorter] {
            let resolved = foreign.resolve(&t).unwrap();
            let err = reg.check_layout(&resolved).unwrap_err();
            assert!(matches!(err, TemplateError::LayoutMismatch { .. }), "{err}");
            // Resolving over foreign defaults fails the same way instead of
            // writing an override into the wrong slot.
            assert_eq!(reg.resolve_over(&foreign.resolve_defaults(), &t), Err(err));
        }
        let err = reg
            .check_layout(&shorter.resolve_defaults())
            .unwrap_err()
            .to_string();
        assert!(err.contains("slot 1 holds no parameter"), "{err}");
        assert!(err.contains("`Delay`"), "{err}");
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
