//! Structured flow events.
//!
//! The stage engine ([`FlowEngine`](crate::FlowEngine)) narrates a run as a
//! stream of typed [`FlowEvent`]s — stage boundaries, phase simulation
//! milestones, the coarse-search decision, per-iteration best-objective
//! progress. Any number of closures can listen through
//! [`SessionCx::subscribe`](crate::SessionCx::subscribe); each sees the
//! event together with the session state it was emitted from, so a
//! checkpoint is a subscriber that persists the state on
//! [`FlowEvent::StageCompleted`].

use serde::{Deserialize, Serialize};

use crate::PhaseStats;

/// One structured notification emitted while a flow session runs.
///
/// Events are serializable, so a subscriber can ship them to a log
/// aggregator or UI verbatim. They are observational: emitting or dropping
/// them never changes the deterministic [`FlowOutcome`](crate::FlowOutcome).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FlowEvent {
    /// A stage is about to run.
    StageStarted {
        /// Stage name (one of the `STAGE_*` constants).
        stage: String,
    },
    /// A stage finished, with the simulations it spent.
    StageCompleted {
        /// Stage name.
        stage: String,
        /// Simulations the stage ran (0 for analysis-only stages).
        sims: u64,
    },
    /// A stage was skipped because a resumed snapshot already completed it.
    StageSkipped {
        /// Stage name.
        stage: String,
    },
    /// The coarse-grained TAC search chose a stock template.
    CoarseChoice {
        /// Name of the chosen template.
        template: String,
        /// Relevant parameters mined from the top TAC templates.
        relevant_params: Vec<String>,
    },
    /// A simulation phase is about to run.
    PhaseStarted {
        /// Phase name (one of the `PHASE_*` constants).
        phase: String,
        /// The phase's planned simulation budget.
        planned_sims: u64,
    },
    /// A simulation phase finished, with its accumulated statistics.
    PhaseFinished {
        /// The phase's statistics.
        stats: PhaseStats,
    },
    /// Best objective value so far, per optimizer iteration (the trace
    /// hookup behind the paper's Fig. 6 series).
    BestObjective {
        /// Phase the value belongs to.
        phase: String,
        /// 0-based iteration (always 0 for the sampling phase).
        iteration: usize,
        /// Best approximated-target value observed so far.
        value: f64,
    },
}

/// The stable kind name of an event — the `name` field of the telemetry
/// trace's `Event` records.
pub(crate) fn event_name(event: &FlowEvent) -> &'static str {
    match event {
        FlowEvent::StageStarted { .. } => "StageStarted",
        FlowEvent::StageCompleted { .. } => "StageCompleted",
        FlowEvent::StageSkipped { .. } => "StageSkipped",
        FlowEvent::CoarseChoice { .. } => "CoarseChoice",
        FlowEvent::PhaseStarted { .. } => "PhaseStarted",
        FlowEvent::PhaseFinished { .. } => "PhaseFinished",
        FlowEvent::BestObjective { .. } => "BestObjective",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pool_scope, FlowConfig, FlowEngine, TargetSpec};
    use ascdg_duv::io_unit::IoEnv;

    fn sample_event() -> FlowEvent {
        FlowEvent::StageCompleted {
            stage: "optimize".to_owned(),
            sims: 42,
        }
    }

    /// Every subscriber sees every event, in subscription order, beside
    /// the state of the session that emitted it.
    #[test]
    fn bus_fans_out_to_every_subscriber() {
        let env = IoEnv::new();
        let mut log_a = Vec::new();
        let mut log_b = Vec::new();
        let mut count = 0usize;
        pool_scope(1, |pool| {
            let engine = FlowEngine::new(&env, FlowConfig::quick(), pool);
            let mut cx = engine.session(TargetSpec::Uncovered, 9);
            cx.subscribe(|event, _| log_a.push(event.clone()));
            cx.subscribe(|event, _| log_b.push(event.clone()));
            cx.subscribe(|_, state| {
                assert_eq!((state.unit.as_str(), state.seed), ("io_unit", 9));
                count += 1;
            });
            cx.emit(sample_event());
            cx.emit(FlowEvent::StageSkipped {
                stage: "harvest".to_owned(),
            });
        });
        assert_eq!(log_a.len(), 2);
        assert_eq!(log_a, log_b);
        assert_eq!(count, 2);
        assert_eq!(
            log_a,
            vec![
                sample_event(),
                FlowEvent::StageSkipped {
                    stage: "harvest".to_owned()
                }
            ]
        );
    }

    #[test]
    fn events_serialize_round_trip() {
        let e = FlowEvent::PhaseFinished {
            stats: PhaseStats {
                name: "Sampling phase".to_owned(),
                sims: 10,
                hits: vec![1, 0, 3],
            },
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: FlowEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
    }
}
