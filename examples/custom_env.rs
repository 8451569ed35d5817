//! Bring your own design: AS-CDG is black-box, so any environment that
//! implements [`VerifEnv`] gets the whole flow for free.
//!
//! ```sh
//! cargo run --release --example custom_env
//! ```
//!
//! This example models a tiny "retry queue" unit: commands either complete
//! or bounce into a retry queue; `retry_depthN` fires when N retries are
//! simultaneously queued. The environment defaults make deep queues rare,
//! and one stock template carries the relevant parameters.
//!
//! The environment resolves every parameter and event name it uses once,
//! in `new()`. A simulation then draws through [`ParamId`]s and records
//! through [`EventId`]s: no name lookups, no formatting, no allocation
//! beyond the returned coverage vector.

use ascdg::core::{pool_scope, FlowConfig, FlowEngine, FlowEvent, TargetSpec};
use ascdg::coverage::{CoverageModel, CoverageVector, EventId};
use ascdg::duv::{EnvError, VerifEnv};
use ascdg::stimgen::ParamSampler;
use ascdg::template::{
    ParamDef, ParamId, ParamRegistry, ResolvedParams, TemplateLibrary, TestTemplate, Value,
};

/// Maximum retry-queue depth (the family size).
const MAX_DEPTH: usize = 6;

struct RetryQueueEnv {
    registry: ParamRegistry,
    model: CoverageModel,
    library: TemplateLibrary,
    cmd_count: ParamId,
    bounce_pct: ParamId,
    drain_rate: ParamId,
    /// `retry_depthN` ids indexed by depth-1.
    retry_depth: [EventId; MAX_DEPTH],
    cmd_done: EventId,
    bounce_seen: EventId,
}

impl RetryQueueEnv {
    fn new() -> Self {
        let sub = |lo, hi| Value::SubRange { lo, hi };
        let mut registry = ParamRegistry::new();
        registry
            .define(ParamDef::range("CmdCount", 20, 120).unwrap())
            .unwrap();
        // Bounce probability in percent: defaults concentrate on "rarely".
        registry
            .define(
                ParamDef::weights(
                    "BouncePct",
                    [(sub(0, 10), 90u32), (sub(10, 40), 10), (sub(40, 80), 0)],
                )
                .unwrap(),
            )
            .unwrap();
        // Retry-drain speed: how many retries complete per command slot.
        registry
            .define(ParamDef::range("DrainRate", 1, 4).unwrap())
            .unwrap();
        // An irrelevant knob, so the coarse search has something to reject.
        registry
            .define(ParamDef::range("TracePct", 0, 50).unwrap())
            .unwrap();

        let mut names: Vec<String> = (1..=MAX_DEPTH).map(|d| format!("retry_depth{d}")).collect();
        names.push("cmd_done".to_owned());
        names.push("bounce_seen".to_owned());

        let library: TemplateLibrary = [
            TestTemplate::builder("rq_smoke").build(),
            TestTemplate::builder("rq_tracing")
                .range("TracePct", 25, 50)
                .unwrap()
                .build(),
            // The template with the relevant parameters, mildly set.
            TestTemplate::builder("rq_bouncy")
                .weights(
                    "BouncePct",
                    [(sub(0, 10), 50u32), (sub(10, 40), 40), (sub(40, 80), 10)],
                )
                .unwrap()
                .range("DrainRate", 1, 3)
                .unwrap()
                .build(),
        ]
        .into_iter()
        .collect();

        let model = CoverageModel::from_names("retry_queue", names).unwrap();
        let event = |name: &str| model.id(name).unwrap();
        let param = |name: &str| registry.id(name).unwrap();
        RetryQueueEnv {
            cmd_count: param("CmdCount"),
            bounce_pct: param("BouncePct"),
            drain_rate: param("DrainRate"),
            retry_depth: std::array::from_fn(|d| event(&format!("retry_depth{}", d + 1))),
            cmd_done: event("cmd_done"),
            bounce_seen: event("bounce_seen"),
            registry,
            model,
            library,
        }
    }
}

impl VerifEnv for RetryQueueEnv {
    fn unit_name(&self) -> &str {
        "retry_queue"
    }

    fn registry(&self) -> &ParamRegistry {
        &self.registry
    }

    fn coverage_model(&self) -> &CoverageModel {
        &self.model
    }

    fn stock_library(&self) -> &TemplateLibrary {
        &self.library
    }

    fn simulate_seeded(
        &self,
        resolved: &ResolvedParams,
        sampler_seed: u64,
    ) -> Result<CoverageVector, EnvError> {
        // Ids index slots, so refuse parameters resolved by another
        // registry before the first draw.
        self.registry.check_layout(resolved)?;
        let mut s = ParamSampler::new(resolved, sampler_seed);
        let count = s.sample_int(self.cmd_count)?;
        let bounce = s.rate(self.bounce_pct)?;
        let drain = s.sample_int(self.drain_rate)? as usize;

        let mut cov = CoverageVector::empty(self.model.len());
        let mut queue = 0usize;
        for _ in 0..count {
            // Drain completed retries first.
            queue = queue.saturating_sub(drain.min(1 + queue / 3));
            if s.chance(bounce) {
                cov.set(self.bounce_seen);
                queue = (queue + 1).min(MAX_DEPTH);
                cov.set(self.retry_depth[queue - 1]);
            } else {
                cov.set(self.cmd_done);
            }
        }
        Ok(cov)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let env = RetryQueueEnv::new();
    let config = FlowConfig::quick().scaled(4.0);
    // The engine runs the same stage list against any `VerifEnv`; the
    // coarse-choice event shows which stock template it mined.
    let outcome = pool_scope(config.threads, |pool| {
        let engine = FlowEngine::new(&env, config.clone(), pool);
        let mut cx = engine.session(TargetSpec::Family("retry_depth".to_owned()), 7);
        cx.subscribe(|event, _| {
            if let FlowEvent::CoarseChoice {
                template,
                relevant_params,
            } = event
            {
                eprintln!("coarse search chose `{template}`; relevant: {relevant_params:?}");
            }
        });
        engine.run(&mut cx)
    })?;
    println!("{}", outcome.report());
    println!("best template:\n{}", outcome.best_template);
    Ok(())
}
