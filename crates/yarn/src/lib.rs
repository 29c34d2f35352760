//! A Hadoop YARN analog with checkpoint-based preemption (§5 of the paper).
//!
//! Where [`cbp_core`] is the paper's §3–§4 *trace-driven simulator*, this
//! crate rebuilds the paper's §5 *implementation*: the actual YARN component
//! protocol, at message granularity, over the same substrates —
//!
//! 1. a **ResourceManager** ([`components::ResourceManager`]) running a
//!    two-queue capacity scheduler (production / default). When the
//!    production queue is starved it selects victim containers
//!    **cost-aware** (lowest estimated checkpoint time, §5.2.2) and
//!    dispatches `ContainerPreemptEvent`s to the owning ApplicationMasters;
//! 2. a **DistributedShell ApplicationMaster** per job
//!    ([`components::AppMaster`]) whose *Preemption Manager* handles the
//!    event: under the adaptive policy it applies Algorithm 1 (checkpoint
//!    if at-risk progress exceeds the dump+restore+queue estimate, else
//!    kill), dumps via CRIU to HDFS, notifies the RM once resources are
//!    safely released, and re-requests a container for the suspended task;
//! 3. **NodeManagers** (node + storage device + energy meter) that execute
//!    dumps/restores through the per-node sequential checkpoint queue.
//!
//! Every RM↔AM interaction pays an RPC delay, so protocol latency — not
//! just storage bandwidth — shows up in the results, as on the real
//! cluster.
//!
//! ```
//! use cbp_core::PreemptionPolicy;
//! use cbp_storage::MediaKind;
//! use cbp_workload::facebook::FacebookConfig;
//! use cbp_yarn::YarnConfig;
//!
//! let workload = FacebookConfig {
//!     jobs: 6,
//!     total_tasks: 60,
//!     giant_job_tasks: 20,
//!     ..Default::default()
//! }
//! .generate(1);
//! let report = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Nvm)
//!     .run(&workload);
//! assert_eq!(report.metrics.jobs_finished, 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod components;
mod config;
mod sim;

pub use config::YarnConfig;
pub use sim::YarnSim;
