//! The AS-CDG benchmark: end-to-end metrics a user of the flow sees, and
//! a per-layer split that says where the time went.
//!
//! Four workloads exercise the layers differently (see `README.md` and
//! [`spec::LAYER_LINKS`]): stock-library `regression`s, full-budget
//! single-target `closure`s, whole-unit `campaign`s with overlapping
//! groups, and a closed loop of requests against an in-process `serve`
//! daemon. Each runs in its own worker process; a traced second run
//! replays the same inputs with the program's telemetry on and splits
//! every stage into simulation-chunk time and host time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layers;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod verdict;
pub mod workloads;
