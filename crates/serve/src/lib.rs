//! Serve mode: the long-lived, multi-tenant AS-CDG closure daemon.
//!
//! The paper's system is deployed as a service on the verification
//! team's batch farm: closure requests arrive continuously, with
//! different budgets and priorities, and share one pool of simulation
//! capacity. This crate reproduces that operational layer on top of the
//! flow engine:
//!
//! * [`protocol`] — the line-delimited JSON wire protocol (std-only TCP);
//! * [`daemon`] — the daemon itself: admission onto per-unit
//!   [`AdmissionQueue`](ascdg_core::AdmissionQueue)s over one shared
//!   `SimPool`, streamed progress, atomic checkpoints and
//!   restart recovery;
//! * [`http`] — the read-only HTTP/1.0 introspection plane
//!   (`/metrics`, `/status`, `/rates`, `/healthz`, `/ring`) plus the
//!   background snapshot sampler behind it;
//! * [`client`] — a small blocking client the CLI wraps.
//!
//! Determinism is inherited, not re-proven: requests are planned and
//! folded by the same `CampaignPlan` as one-shot campaigns, so a daemon
//! outcome is byte-identical to `ascdg campaign` at any tenant mix,
//! worker count, or number of mid-run restarts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::redundant_clone, clippy::large_enum_variant, clippy::perf)]

pub mod client;
pub mod daemon;
pub mod http;
pub mod protocol;

pub use client::{wait_for_addr, wait_for_http_addr, Client};
pub use daemon::{request_config, resolve_unit, serve, ServeOptions};
pub use http::{http_get, ClassDepth, DaemonStatus, GaugeReading, RatesReport, UnitStatus};
pub use protocol::{
    violation_code, ErrorCode, Request, RequestStatus, Response, SubmitSpec, MAX_LINE_BYTES,
};
