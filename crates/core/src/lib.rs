//! AS-CDG: the automatic scalable coverage-directed generation flow.
//!
//! This crate implements the paper's contribution on top of the substrate
//! crates (`ascdg-template`, `ascdg-stimgen`, `ascdg-duv`, `ascdg-coverage`,
//! `ascdg-tac`, `ascdg-opt`):
//!
//! 1. [`ApproxTarget`] / [`neighbors`] — replace the evidence-free real
//!    target with a weighted sum over neighboring events (Section IV-A);
//! 2. the **coarse-grained search** — a TAC query over the stock template
//!    library finds the templates, and thereby the parameters, most
//!    relevant to the target (Section IV-B);
//! 3. [`Skeletonizer`] — marks the tunable weights of the chosen template
//!    and splits its range parameters into weighted subranges
//!    (Section IV-C);
//! 4. [`sampling`] — the random-sample phase that finds a good starting
//!    point (Section IV-D);
//! 5. the **optimizer** — implicit filtering over the noisy simulation
//!    objective (Section IV-E);
//! 6. **harvesting** — the best template is re-assessed and handed back for
//!    the regression suite (Section IV-F).
//!
//! [`CdgFlow`] orchestrates all of it against any [`VerifEnv`]
//! (the CDG-Runner of the paper's Fig. 2), entirely black-box. The
//! [`BatchRunner`] stands in for the cluster batch environment.
//!
//! [`VerifEnv`]: ascdg_duv::VerifEnv
//!
//! # Examples
//!
//! ```no_run
//! use ascdg_core::{CdgFlow, FlowConfig};
//! use ascdg_duv::l3cache::L3Env;
//!
//! let flow = CdgFlow::new(L3Env::new(), FlowConfig::quick());
//! let outcome = flow.run_for_family("byp_reqs", 42)?;
//! println!("{}", outcome.report());
//! # Ok::<(), ascdg_core::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone, clippy::large_enum_variant, clippy::perf)]

mod batch;
mod campaign;
mod checkpoint;
mod engine;
mod error;
mod events;
mod flow;
pub mod manifest;
mod multi_target;
pub mod neighbors;
mod objective;
pub mod pool;
mod report;
pub mod sampling;
pub mod scheduler;
mod session;
mod skeletonizer;
mod stages;

pub use ascdg_telemetry::Telemetry;
pub use batch::{BatchRunner, BatchStats, ResolvedTemplate};
pub use campaign::{group_uncovered, CampaignGroup, CampaignOutcome, CampaignPlan, CampaignReport};
pub use checkpoint::{read_campaign_checkpoint, read_session_checkpoint, CheckpointWriter};
pub use engine::FlowEngine;
pub use error::FlowError;
pub use events::FlowEvent;
pub use flow::{
    CdgFlow, FlowConfig, FlowOutcome, PhaseStats, PhaseTiming, PHASE_BEFORE, PHASE_BEST,
    PHASE_OPTIMIZATION, PHASE_REFINEMENT, PHASE_SAMPLING,
};
pub use manifest::{CoverageSummary, RunManifest, MANIFEST_SCHEMA_VERSION};
pub use multi_target::{MultiTargetOutcome, TargetGroupResult};
pub use neighbors::ApproxTarget;
pub use objective::CdgObjective;
pub use pool::{machine_threads, pool_scope, pool_scope_with, SimPool};
pub use report::{
    render_cross_breakdown, render_family_table, render_status_chart, render_timings,
    render_trace_chart,
};
pub use scheduler::{AdmissionQueue, JobStatus, QueueSnapshot, SessionLifecycle};
pub use session::{
    CampaignEntry, CampaignProgress, CampaignSink, DetachedSession, GroupProgress, SessionCx,
    SessionState, StageSims, TargetSpec,
};
pub use skeletonizer::{Skeletonizer, SubrangeSpan};
pub use stages::{
    default_stages, CoarseSearch, Harvest, Optimize, RandomSample, Refine, Regression, Skeletonize,
    Stage, StageOutput, STAGE_COARSE, STAGE_HARVEST, STAGE_OPTIMIZE, STAGE_REFINE,
    STAGE_REGRESSION, STAGE_SAMPLE, STAGE_SKELETONIZE,
};
