//! Checkpoint-based preemptive cluster scheduling — the paper's core
//! contribution.
//!
//! This crate implements the scheduler of §3–§4 as a deterministic
//! trace-driven simulator over the `cbp-*` substrates:
//!
//! * **Preemption policies** ([`PreemptionPolicy`]): `Wait` (never preempt),
//!   `Kill` (the YARN/Borg status quo), `Checkpoint` (always suspend-resume,
//!   the "basic" policy), and `Adaptive` — the paper's Algorithm 1, which
//!   checkpoints a victim only when its at-risk progress exceeds the
//!   estimated `size/bw_write + size/bw_read + queue_time` overhead, using
//!   incremental dumps whenever a prior image exists, and kills otherwise.
//! * **Adaptive resumption** (Algorithm 2, [`RestorePlacement`]): a
//!   checkpointed task restores on whichever node minimizes
//!   queueing + read + network-fetch cost, not necessarily its origin.
//! * **Cost-aware eviction** ([`VictimSelection`]): victims are chosen by
//!   lowest estimated checkpoint cost (§5.2.2), against a naive
//!   lowest-priority/most-recent baseline for ablation.
//! * **Sequential checkpoint queues**: each node's storage device services
//!   one checkpoint/restore at a time; Algorithm 1's `queue_time` term comes
//!   from that queue.
//!
//! The simulator runs any [`cbp_workload::Workload`] and reports the
//! paper's metrics (wasted CPU-hours, energy, per-band response times,
//! CDFs, checkpoint CPU/I-O overheads) in a [`RunReport`]. Its typed
//! trace records feed the §2 preemption analysis
//! ([`analysis::PreemptionTracer`], Fig. 1 and Tables 1–2).
//!
//! ```
//! use cbp_core::{PreemptionPolicy, SimConfig};
//! use cbp_storage::MediaKind;
//! use cbp_workload::google::GoogleTraceConfig;
//!
//! let workload = GoogleTraceConfig::small(50.0).generate(1);
//! let config = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Ssd)
//!     .with_nodes(8);
//! let report = config.run(&workload);
//! assert_eq!(report.metrics.jobs_finished, workload.job_count() as u64);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod ckpt_path;
mod config;
pub mod fault_clock;
mod metrics;
mod pending;
pub mod scenario;
mod sim;
pub mod task;

pub use config::{PreemptionPolicy, QueueDiscipline, RestorePlacement, SimConfig, VictimSelection};
pub use metrics::{
    BandMetrics, PassWork, Recorder, RunCounts, RunLedger, RunMetrics, RunReport, TelemetryReport,
};
pub use sim::ClusterSim;
pub use task::TaskStatus;
