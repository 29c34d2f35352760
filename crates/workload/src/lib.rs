//! Workloads for the checkpoint-based-preemption experiments.
//!
//! Three workload families drive the paper's evaluation, all rebuilt here:
//!
//! * [`google`] — a synthetic generator calibrated against the published
//!   aggregates of the 2011 Google cluster trace (priority mix of Table 1,
//!   latency-sensitivity mix of Table 2, heavy-tailed job shapes), used by
//!   the §2 characterization and the §3.3.2 / §4.2.1 trace-driven
//!   simulations;
//! * [`facebook`] — the 40-job / 7,000-task Facebook-derived workload of the
//!   §5 YARN experiments, including one production job larger than the whole
//!   cluster;
//! * [`kmeans`] — the iterative k-means job model (5 GB / 1.8 GB footprints)
//!   used by the sensitivity analyses and as the per-container program in
//!   the YARN experiments.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod facebook;
pub mod google;
pub mod kmeans;
pub mod mapreduce;

mod spec;

pub use spec::{JobId, JobSpec, LatencyClass, Priority, PriorityBand, TaskId, TaskSpec, Workload};
