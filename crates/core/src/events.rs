//! Structured flow events and the subscriber bus.
//!
//! The stage engine ([`FlowEngine`](crate::FlowEngine)) narrates a run as a
//! stream of typed [`FlowEvent`]s — stage boundaries, phase simulation
//! milestones, the coarse-search decision, per-iteration best-objective
//! progress, checkpoints. Any number of [`FlowSubscriber`]s can listen on
//! the session's [`EventBus`].

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
    /// A session snapshot was taken after a completed stage.
    Checkpoint {
        /// The stage the snapshot covers (everything up to and including it).
        stage: String,
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
        FlowEvent::Checkpoint { .. } => "Checkpoint",
    }
}

/// A listener on the flow event stream.
///
/// Implementors receive every event in emission order. Subscribers must not
/// assume any particular thread: the engine emits from the thread driving
/// the stages (events never originate on simulation workers).
pub trait FlowSubscriber {
    /// Called once per emitted event.
    fn on_event(&mut self, event: &FlowEvent);
}

/// Forwarding impl so callers can subscribe a borrowed subscriber and keep
/// inspecting it after the run (e.g. [`EventLog`]).
impl<S: FlowSubscriber + ?Sized> FlowSubscriber for &mut S {
    fn on_event(&mut self, event: &FlowEvent) {
        (**self).on_event(event);
    }
}

/// Adapter turning a closure into a [`FlowSubscriber`]
/// (see [`EventBus::subscribe_fn`]).
struct FnSubscriber<F>(F);

impl<F: FnMut(&FlowEvent)> FlowSubscriber for FnSubscriber<F> {
    fn on_event(&mut self, event: &FlowEvent) {
        (self.0)(event);
    }
}

/// Fan-out bus: every emitted event reaches every subscriber, in
/// subscription order.
///
/// The lifetime parameter lets subscribers borrow caller state (a progress
/// bar, a mutable log) for the duration of the session.
#[derive(Default)]
pub struct EventBus<'bus> {
    subscribers: Vec<Box<dyn FlowSubscriber + 'bus>>,
}

impl<'bus> EventBus<'bus> {
    /// An empty bus.
    #[must_use]
    pub fn new() -> Self {
        EventBus::default()
    }

    /// Adds a subscriber.
    pub fn subscribe(&mut self, subscriber: impl FlowSubscriber + 'bus) {
        self.subscribers.push(Box::new(subscriber));
    }

    /// Adds a closure subscriber.
    pub fn subscribe_fn(&mut self, f: impl FnMut(&FlowEvent) + 'bus) {
        self.subscribe(FnSubscriber(f));
    }

    /// Number of subscribers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// Whether the bus has no subscribers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// Delivers one event to every subscriber.
    pub fn emit(&mut self, event: FlowEvent) {
        for s in &mut self.subscribers {
            s.on_event(&event);
        }
    }
}

impl std::fmt::Debug for EventBus<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("subscribers", &self.subscribers.len())
            .finish()
    }
}

/// A subscriber that records every event, for tests and post-run
/// inspection. Subscribe a `&mut EventLog` to keep the log afterwards.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventLog {
    events: Vec<FlowEvent>,
}

impl EventLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        EventLog::default()
    }

    /// The recorded events, in emission order.
    #[must_use]
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// Names of the stages that completed, in order.
    #[must_use]
    pub fn completed_stages(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::StageCompleted { stage, .. } => Some(stage.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Names of the stages that were skipped (resume), in order.
    #[must_use]
    pub fn skipped_stages(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                FlowEvent::StageSkipped { stage } => Some(stage.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl FlowSubscriber for EventLog {
    fn on_event(&mut self, event: &FlowEvent) {
        self.events.push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_event() -> FlowEvent {
        FlowEvent::StageCompleted {
            stage: "optimize".to_owned(),
            sims: 42,
        }
    }

    #[test]
    fn bus_fans_out_to_every_subscriber() {
        let mut log_a = EventLog::new();
        let mut log_b = EventLog::new();
        let mut count = 0usize;
        {
            let mut bus = EventBus::new();
            assert!(bus.is_empty());
            bus.subscribe(&mut log_a);
            bus.subscribe(&mut log_b);
            bus.subscribe_fn(|_| count += 1);
            assert_eq!(bus.len(), 3);
            bus.emit(sample_event());
            bus.emit(FlowEvent::StageSkipped {
                stage: "harvest".to_owned(),
            });
        }
        assert_eq!(log_a.events().len(), 2);
        assert_eq!(log_a, log_b);
        assert_eq!(count, 2);
        assert_eq!(log_a.completed_stages(), vec!["optimize"]);
        assert_eq!(log_a.skipped_stages(), vec!["harvest"]);
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
