//! Neighbor discovery and the approximated target (Section IV-A).
//!
//! The real CDG objective — the hit probability of the target events — has
//! no positive evidence anywhere in the search space, so every optimizer
//! would start "in the dark" on a flat landscape. AS-CDG instead maximizes
//! an **approximated target**: a weighted sum over *neighbor* events, events
//! whose coverage correlates with the target's. Three discovery strategies
//! from the literature are implemented, mirroring the paper:
//!
//! * **ordering / family** ([`ApproxTarget::from_family`]) — events like
//!   `byp_reqs01..16` have a natural fill order; weights decay with the
//!   distance along it (Wagner-style buffer-utilization neighbors);
//! * **cross-product structure** ([`ApproxTarget::from_cross_product`]) —
//!   weights decay with Hamming distance in feature space (Fine/Ziv-style);
//! * **[`ApproxTarget::auto`]** — picks the strategy the model supports,
//!   standing in for the paper's FRIENDS-style automatic selection.

use serde::{Deserialize, Serialize};

use ascdg_coverage::{CoverageModel, EventFamily, EventId};

use crate::FlowError;

/// Default geometric decay per unit of neighbor distance.
pub const DEFAULT_DECAY: f64 = 0.5;

/// The approximated target function: `T(t) = sum_e w_e * rate_e(t)`.
///
/// Weights are 1.0 on the target events themselves and decay geometrically
/// with neighbor distance, "giving more weight to events closer to our
/// target" as Section IV-A prescribes.
///
/// # Examples
///
/// ```
/// use ascdg_core::ApproxTarget;
/// use ascdg_coverage::CoverageModel;
///
/// let model = CoverageModel::from_names("u", ["fill1", "fill2", "fill3"]).unwrap();
/// let target = model.id("fill3").unwrap();
/// let at = ApproxTarget::from_family(&model, &[target], 0.5).unwrap();
/// // fill3 weighs 1.0, fill2 0.5, fill1 0.25.
/// let w: Vec<f64> = at.weights().iter().map(|&(_, w)| w).collect();
/// assert_eq!(w, vec![0.25, 0.5, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApproxTarget {
    targets: Vec<EventId>,
    weights: Vec<(EventId, f64)>,
}

impl ApproxTarget {
    /// Builds the target from an explicit weight list (weights must be
    /// positive; events are deduplicated by keeping the max weight).
    #[must_use]
    pub fn from_weights(
        targets: Vec<EventId>,
        weights: impl IntoIterator<Item = (EventId, f64)>,
    ) -> Self {
        let mut merged: Vec<(EventId, f64)> = Vec::new();
        for (e, w) in weights {
            if w <= 0.0 {
                continue;
            }
            match merged.iter_mut().find(|(m, _)| *m == e) {
                Some((_, mw)) => *mw = mw.max(w),
                None => merged.push((e, w)),
            }
        }
        merged.sort_by_key(|&(e, _)| e);
        ApproxTarget {
            targets,
            weights: merged,
        }
    }

    /// Ordering-based neighbors: weights decay with distance along the
    /// family's natural order.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownFamily`] if a target is not part of any
    /// family.
    pub fn from_family(
        model: &CoverageModel,
        targets: &[EventId],
        decay: f64,
    ) -> Result<Self, FlowError> {
        let decay = decay.clamp(0.0, 1.0);
        let mut weights: Vec<(EventId, f64)> = Vec::new();
        for &target in targets {
            let family = EventFamily::containing(model, target)
                .ok_or_else(|| FlowError::UnknownFamily(model.name(target).to_owned()))?;
            let pos = family
                .position(target)
                .expect("containing() returned this family");
            for (i, e) in family.events().into_iter().enumerate() {
                let d = pos.abs_diff(i) as i32;
                weights.push((e, decay.powi(d)));
            }
        }
        Ok(ApproxTarget::from_weights(targets.to_vec(), weights))
    }

    /// Cross-product neighbors: weights decay with Hamming distance in the
    /// model's feature space; only distances up to `max_distance` get
    /// non-zero weight.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Coverage`] if the model has no cross-product
    /// structure.
    pub fn from_cross_product(
        model: &CoverageModel,
        targets: &[EventId],
        decay: f64,
        max_distance: usize,
    ) -> Result<Self, FlowError> {
        let decay = decay.clamp(0.0, 1.0);
        let cp = model.cross_product().ok_or_else(|| {
            FlowError::Coverage(ascdg_coverage::CoverageError::UnknownEvent(
                "model has no cross-product structure".to_owned(),
            ))
        })?;
        let mut weights: Vec<(EventId, f64)> = Vec::new();
        for &target in targets {
            weights.push((target, 1.0));
            for d in 1..=max_distance {
                for e in cp.hamming_neighbors(target, d) {
                    weights.push((e, decay.powi(d as i32)));
                }
            }
        }
        Ok(ApproxTarget::from_weights(targets.to_vec(), weights))
    }

    /// Picks a strategy automatically: cross-product structure when the
    /// model has it, family ordering when the targets belong to families,
    /// and a uniform all-events fallback otherwise (every event is then a
    /// weak neighbor — the weakest but always-available signal).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NoTargets`] when `targets` is empty.
    pub fn auto(model: &CoverageModel, targets: &[EventId], decay: f64) -> Result<Self, FlowError> {
        if targets.is_empty() {
            return Err(FlowError::NoTargets("empty target set".to_owned()));
        }
        if model.cross_product().is_some() {
            return ApproxTarget::from_cross_product(model, targets, decay, 2);
        }
        if let Ok(t) = ApproxTarget::from_family(model, targets, decay) {
            return Ok(t);
        }
        let uniform = model.event_ids().map(|e| (e, 0.05));
        let mut t = ApproxTarget::from_weights(targets.to_vec(), uniform);
        for &target in targets {
            match t.weights.iter_mut().find(|(e, _)| *e == target) {
                Some((_, w)) => *w = 1.0,
                None => t.weights.push((target, 1.0)),
            }
        }
        t.weights.sort_by_key(|&(e, _)| e);
        Ok(t)
    }

    /// Builds the target from signed weights, in the spirit of the FRIENDS
    /// neighbor finder the paper cites: neighbors may carry *negative*
    /// information ("hitting this event correlates with missing the
    /// target"), which the objective then penalizes.
    ///
    /// Zero weights are dropped; duplicate events keep the weight with the
    /// largest magnitude.
    #[must_use]
    pub fn from_signed_weights(
        targets: Vec<EventId>,
        weights: impl IntoIterator<Item = (EventId, f64)>,
    ) -> Self {
        let mut merged: Vec<(EventId, f64)> = Vec::new();
        for (e, w) in weights {
            if w == 0.0 || !w.is_finite() {
                continue;
            }
            match merged.iter_mut().find(|(m, _)| *m == e) {
                Some((_, mw)) => {
                    if w.abs() > mw.abs() {
                        *mw = w;
                    }
                }
                None => merged.push((e, w)),
            }
        }
        merged.sort_by_key(|&(e, _)| e);
        ApproxTarget {
            targets,
            weights: merged,
        }
    }

    /// Data-driven neighbor discovery standing in for the FRIENDS tool:
    /// estimates, across the templates recorded in `repo`, how each
    /// event's per-template hit rate correlates with the *family
    /// signature* of the targets (the mean rate of the distance-1
    /// structural neighbors). Events with correlation above
    /// `min_correlation` become positive neighbors; events whose
    /// correlation is below `-min_correlation` become negative neighbors
    /// with weight `negative_scale * correlation`.
    ///
    /// The targets themselves always get weight 1.0.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::NoTargets`] for an empty target set.
    pub fn from_correlation(
        repo: &ascdg_coverage::CoverageRepository,
        targets: &[EventId],
        min_correlation: f64,
        negative_scale: f64,
    ) -> Result<Self, FlowError> {
        if targets.is_empty() {
            return Err(FlowError::NoTargets("empty target set".to_owned()));
        }
        let model = repo.model();
        // Reference signal: the structural neighbors' rates (the targets
        // themselves have no evidence, so they cannot be the signal).
        let reference = ApproxTarget::auto(model, targets, DEFAULT_DECAY)?;
        let templates = repo.templates();
        if templates.len() < 3 {
            // Too few observations for a meaningful correlation; fall back
            // to the structural neighbors alone.
            return Ok(reference);
        }
        let signature: Vec<f64> = templates
            .iter()
            .map(|&t| reference.value(|e| repo.template_stats(t, e).rate()))
            .collect();

        let mut weights: Vec<(EventId, f64)> = Vec::new();
        for e in model.event_ids() {
            let rates: Vec<f64> = templates
                .iter()
                .map(|&t| repo.template_stats(t, e).rate())
                .collect();
            let c = pearson(&signature, &rates);
            if c >= min_correlation {
                weights.push((e, c));
            } else if c <= -min_correlation {
                weights.push((e, negative_scale * c));
            }
        }
        for &t in targets {
            weights.retain(|&(e, _)| e != t);
            weights.push((t, 1.0));
        }
        Ok(ApproxTarget::from_signed_weights(targets.to_vec(), weights))
    }

    /// The real target events.
    #[must_use]
    pub fn targets(&self) -> &[EventId] {
        &self.targets
    }

    /// The weighted neighbor set (sorted by event id).
    #[must_use]
    pub fn weights(&self) -> &[(EventId, f64)] {
        &self.weights
    }

    /// Evaluates `T = sum_e w_e * rate(e)` against a rate oracle.
    pub fn value(&self, mut rate: impl FnMut(EventId) -> f64) -> f64 {
        self.weights.iter().map(|&(e, w)| w * rate(e)).sum()
    }
}

/// Pearson correlation of two equally-long samples (0 when degenerate).
fn pearson(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if n < 2.0 {
        return 0.0;
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / n;
    let (ma, mb) = (mean(a), mean(b));
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va <= 1e-18 || vb <= 1e-18 {
        0.0
    } else {
        cov / (va.sqrt() * vb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascdg_coverage::{CrossProduct, Feature};

    #[test]
    fn family_weights_decay_both_directions() {
        let model = CoverageModel::from_names("u", ["q1", "q2", "q3", "q4", "q5"]).unwrap();
        let t = model.id("q3").unwrap();
        let at = ApproxTarget::from_family(&model, &[t], 0.5).unwrap();
        let w: Vec<f64> = at.weights().iter().map(|&(_, w)| w).collect();
        assert_eq!(w, vec![0.25, 0.5, 1.0, 0.5, 0.25]);
        assert_eq!(at.targets(), &[t]);
    }

    #[test]
    fn multi_target_takes_max_weight() {
        let model = CoverageModel::from_names("u", ["q1", "q2", "q3"]).unwrap();
        let t2 = model.id("q2").unwrap();
        let t3 = model.id("q3").unwrap();
        let at = ApproxTarget::from_family(&model, &[t2, t3], 0.5).unwrap();
        let w: Vec<f64> = at.weights().iter().map(|&(_, w)| w).collect();
        // q1: max(0.5^1 from q2, 0.5^2 from q3); q2 and q3 are targets.
        assert_eq!(w, vec![0.5, 1.0, 1.0]);
    }

    #[test]
    fn non_family_event_errors() {
        let model = CoverageModel::from_names("u", ["alone", "f1", "f2"]).unwrap();
        let t = model.id("alone").unwrap();
        assert!(matches!(
            ApproxTarget::from_family(&model, &[t], 0.5),
            Err(FlowError::UnknownFamily(_))
        ));
    }

    #[test]
    fn cross_product_weights_by_hamming() {
        let cp = CrossProduct::new([Feature::numeric("a", 2), Feature::numeric("b", 2)]).unwrap();
        let model = CoverageModel::from_cross_product("u", cp).unwrap();
        let t = model.id("a0_b0").unwrap();
        let at = ApproxTarget::from_cross_product(&model, &[t], 0.5, 2).unwrap();
        let lookup = |name: &str| {
            let id = model.id(name).unwrap();
            at.weights()
                .iter()
                .find(|&&(e, _)| e == id)
                .map(|&(_, w)| w)
                .unwrap()
        };
        assert_eq!(lookup("a0_b0"), 1.0);
        assert_eq!(lookup("a0_b1"), 0.5);
        assert_eq!(lookup("a1_b0"), 0.5);
        assert_eq!(lookup("a1_b1"), 0.25);
    }

    #[test]
    fn auto_prefers_structure() {
        let cp = CrossProduct::new([Feature::numeric("a", 2), Feature::numeric("b", 2)]).unwrap();
        let model = CoverageModel::from_cross_product("u", cp).unwrap();
        let t = model.id("a1_b1").unwrap();
        let at = ApproxTarget::auto(&model, &[t], 0.5).unwrap();
        assert_eq!(at.weights().len(), 4);

        let flat = CoverageModel::from_names("u", ["x", "y"]).unwrap();
        let t = flat.id("x").unwrap();
        let at = ApproxTarget::auto(&flat, &[t], 0.5).unwrap();
        // Fallback: all events weakly weighted, target at 1.0.
        assert_eq!(at.weights().len(), 2);
        assert_eq!(at.weights()[0], (t, 1.0));
    }

    #[test]
    fn auto_rejects_empty_targets() {
        let model = CoverageModel::from_names("u", ["x"]).unwrap();
        assert!(matches!(
            ApproxTarget::auto(&model, &[], 0.5),
            Err(FlowError::NoTargets(_))
        ));
    }

    #[test]
    fn value_is_weighted_sum() {
        let model = CoverageModel::from_names("u", ["f1", "f2"]).unwrap();
        let t = model.id("f2").unwrap();
        let at = ApproxTarget::from_family(&model, &[t], 0.5).unwrap();
        // w = [0.5, 1.0]; rates = [0.2, 0.1] -> 0.5*0.2 + 1.0*0.1 = 0.2
        let v = at.value(|e| [0.2, 0.1][e.index()]);
        assert!((v - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_and_negative_weights_dropped() {
        let at = ApproxTarget::from_weights(
            vec![EventId(0)],
            [(EventId(0), 1.0), (EventId(1), 0.0), (EventId(2), -1.0)],
        );
        assert_eq!(at.weights().len(), 1);
    }

    #[test]
    fn signed_weights_keep_negatives() {
        let at = ApproxTarget::from_signed_weights(
            vec![EventId(0)],
            [(EventId(0), 1.0), (EventId(1), -0.5), (EventId(2), 0.0)],
        );
        assert_eq!(at.weights(), &[(EventId(0), 1.0), (EventId(1), -0.5)]);
        // Negative neighbors penalize the objective.
        let v = at.value(|e| [0.5, 1.0, 0.0][e.index()]);
        assert!((v - 0.0).abs() < 1e-12);
    }

    #[test]
    fn signed_weights_prefer_larger_magnitude() {
        let at = ApproxTarget::from_signed_weights(vec![], [(EventId(1), 0.2), (EventId(1), -0.9)]);
        assert_eq!(at.weights(), &[(EventId(1), -0.9)]);
    }

    #[test]
    fn pearson_basics() {
        assert!((pearson(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn correlation_discovery_finds_positive_and_negative() {
        use ascdg_coverage::{CoverageRepository, CoverageVector, TemplateId};
        // Family f1..f3; event "helper" co-occurs with the family, event
        // "anti" hits exactly when the family does not.
        let model = CoverageModel::from_names("u", ["f1", "f2", "f3", "helper", "anti"]).unwrap();
        let repo = CoverageRepository::new(model.clone());
        let record = |t: u32, names: &[&str], times: usize| {
            for _ in 0..times {
                let mut v = CoverageVector::empty(model.len());
                for n in names {
                    v.set(model.id(n).unwrap());
                }
                repo.record(TemplateId(t), &v);
            }
        };
        record(0, &["f1", "f2", "helper"], 20);
        record(1, &["f1", "helper"], 20);
        record(1, &["f1"], 20);
        record(2, &["anti"], 20);
        record(3, &["anti"], 10);
        record(3, &[], 10);

        let target = model.id("f3").unwrap();
        let at = ApproxTarget::from_correlation(&repo, &[target], 0.3, 0.5).unwrap();
        let weight_of = |name: &str| {
            let id = model.id(name).unwrap();
            at.weights()
                .iter()
                .find(|&&(e, _)| e == id)
                .map(|&(_, w)| w)
        };
        assert_eq!(weight_of("f3"), Some(1.0), "target keeps weight 1");
        assert!(
            weight_of("helper").is_some_and(|w| w > 0.0),
            "{:?}",
            at.weights()
        );
        assert!(
            weight_of("anti").is_some_and(|w| w < 0.0),
            "{:?}",
            at.weights()
        );
    }

    #[test]
    fn correlation_discovery_falls_back_with_few_templates() {
        use ascdg_coverage::{CoverageRepository, CoverageVector, TemplateId};
        let model = CoverageModel::from_names("u", ["f1", "f2"]).unwrap();
        let repo = CoverageRepository::new(model.clone());
        repo.record(TemplateId(0), &CoverageVector::empty(2));
        let target = model.id("f2").unwrap();
        let at = ApproxTarget::from_correlation(&repo, &[target], 0.3, 0.5).unwrap();
        // Falls back to structural (family) neighbors.
        assert_eq!(at.weights().len(), 2);
        assert!(ApproxTarget::from_correlation(&repo, &[], 0.3, 0.5).is_err());
    }
}
