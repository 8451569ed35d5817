//! Multi-target optimization (the paper's Section VI future work).
//!
//! AS-CDG's per-target simulation budget is reasonable for one event or a
//! small related group, but "may be too high when many uncovered events are
//! involved". The paper's stated direction is to *use the same simulations
//! for several target events*. This module implements that extension: one
//! combined objective over several target groups, sharing every simulation,
//! with per-group assessment of the harvested template.

use serde::{Deserialize, Serialize};

use ascdg_coverage::{CoverageRepository, EventId, HitStats};
use ascdg_duv::VerifEnv;
use ascdg_template::TestTemplate;

use crate::pool::pool_scope;
use crate::stages::{CoarseSearch, Harvest, Optimize, RandomSample, Skeletonize, Stage};
use crate::{ApproxTarget, CdgFlow, FlowEngine, FlowError, PHASE_BEFORE, PHASE_BEST};

/// Per-target-group assessment of the shared best template.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetGroupResult {
    /// The group's target events.
    pub targets: Vec<EventId>,
    /// Final per-target stats of the shared best template.
    pub per_target: Vec<(EventId, HitStats)>,
    /// How many of the group's targets the shared template hit at all.
    pub targets_hit: usize,
}

/// The outcome of a shared-simulation multi-target run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTargetOutcome {
    /// The harvested shared template.
    pub best_template: TestTemplate,
    /// Per-group assessment.
    pub groups: Vec<TargetGroupResult>,
    /// Total simulations spent across all phases (shared by every group).
    pub total_sims: u64,
}

impl MultiTargetOutcome {
    /// Total number of target events hit across all groups.
    #[must_use]
    pub fn total_targets_hit(&self) -> usize {
        self.groups.iter().map(|g| g.targets_hit).sum()
    }
}

impl<E: VerifEnv> CdgFlow<E> {
    /// Runs one shared search for several target groups at once,
    /// spending a single simulation budget instead of one per group.
    ///
    /// The combined objective is the sum of each group's approximated
    /// target, each normalized by its weight mass so no group dominates.
    ///
    /// # Errors
    ///
    /// Same failure modes as the single-target flow.
    pub fn run_multi_target(
        &self,
        repo: &CoverageRepository,
        groups: &[Vec<EventId>],
        seed: u64,
    ) -> Result<MultiTargetOutcome, FlowError> {
        if groups.is_empty() || groups.iter().all(Vec::is_empty) {
            return Err(FlowError::NoTargets("no target groups".to_owned()));
        }
        let model = self.env().coverage_model();
        let cfg = self.config();

        // Combined approximated target: normalized sum over the groups.
        let mut combined: Vec<(EventId, f64)> = Vec::new();
        for targets in groups {
            if targets.is_empty() {
                continue;
            }
            let at = ApproxTarget::auto(model, targets, cfg.neighbor_decay)?;
            let mass: f64 = at.weights().iter().map(|&(_, w)| w).sum();
            for &(e, w) in at.weights() {
                combined.push((e, w / mass.max(1e-12)));
            }
        }
        let all_targets: Vec<EventId> = groups.iter().flatten().copied().collect();
        let combined = ApproxTarget::from_weights(all_targets, combined);

        // Shared coarse search + sampling + optimization + harvest: the
        // single-target engine's stage prefix (no refinement stage — the
        // real multi-group objective is the combined one), run once for
        // every group on one persistent worker pool.
        let outcome = pool_scope(cfg.threads, |pool| {
            let engine =
                FlowEngine::with_stages(self.env(), cfg.clone(), pool, multi_target_stages());
            let mut cx = engine.session_with_repo(repo, combined, seed)?;
            engine.run(&mut cx)
        })?;

        // Assess the shared best template per group.
        let best = outcome
            .phase(PHASE_BEST)
            .cloned()
            .ok_or(FlowError::MissingStageState {
                stage: "multi-target",
                missing: "best-test statistics",
            })?;
        let groups_out: Vec<TargetGroupResult> = groups
            .iter()
            .filter(|t| !t.is_empty())
            .map(|targets| {
                let per_target: Vec<(EventId, HitStats)> = targets
                    .iter()
                    .map(|&e| {
                        (
                            e,
                            HitStats {
                                hits: best.hits[e.index()],
                                sims: best.sims,
                            },
                        )
                    })
                    .collect();
                let targets_hit = per_target.iter().filter(|(_, s)| s.hits > 0).count();
                TargetGroupResult {
                    targets: targets.clone(),
                    per_target,
                    targets_hit,
                }
            })
            .collect();

        // Every non-regression simulation was shared by all groups.
        let total_sims = outcome
            .phases
            .iter()
            .filter(|p| p.name != PHASE_BEFORE)
            .map(|p| p.sims)
            .sum();

        Ok(MultiTargetOutcome {
            best_template: outcome.best_template,
            groups: groups_out,
            total_sims,
        })
    }
}

/// The multi-target stage list: the single-target flow minus regression
/// (the caller supplies the repository) and minus refinement.
fn multi_target_stages<E: VerifEnv>() -> Vec<Box<dyn Stage<E>>> {
    vec![
        Box::new(CoarseSearch),
        Box::new(Skeletonize),
        Box::new(RandomSample),
        Box::new(Optimize::default()),
        Box::new(Harvest::with_suffix("multi_best")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlowConfig;
    use ascdg_duv::io_unit::IoEnv;

    #[test]
    fn shared_run_assesses_every_group() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        let repo = flow.run_regression(1).unwrap();
        let model = flow.env().coverage_model();
        let groups = vec![
            vec![model.id("crc_032").unwrap(), model.id("crc_064").unwrap()],
            vec![model.id("crc_096").unwrap()],
        ];
        let out = flow.run_multi_target(&repo, &groups, 5).unwrap();
        assert_eq!(out.groups.len(), 2);
        assert_eq!(out.groups[0].per_target.len(), 2);
        assert!(out.total_sims > 0);
        // The shared budget equals one flow's budget, not one per group.
        let cfg = flow.config();
        let expected_min = cfg.sample_templates as u64 * cfg.sample_sims + cfg.best_sims;
        assert!(out.total_sims >= expected_min);
        let _ = out.total_targets_hit();
    }

    #[test]
    fn empty_groups_rejected() {
        let flow = CdgFlow::new(IoEnv::new(), FlowConfig::quick());
        let repo = flow.run_regression(1).unwrap();
        assert!(matches!(
            flow.run_multi_target(&repo, &[], 1),
            Err(FlowError::NoTargets(_))
        ));
        assert!(matches!(
            flow.run_multi_target(&repo, &[vec![]], 1),
            Err(FlowError::NoTargets(_))
        ));
    }
}
