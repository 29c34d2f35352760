//! Trace analysis for the `cbp` simulators: spans, blame, aggregation
//! and regression diffing.
//!
//! `cbp-telemetry` records *what happened*; this crate answers *what it
//! cost*. It consumes the typed [`TraceRecord`] stream — either online,
//! attached to a running simulator as a [`Tracer`], or offline from a
//! JSONL trace file — and reconstructs per-task lifecycle spans in a
//! single streaming pass, then derives three analyses:
//!
//! * **Blame accounting** ([`span`]) — every task's lifetime is recorded
//!   once, as an ordered segment timeline that tiles the submit→finish
//!   interval *exactly*, in integer microseconds; its response time is
//!   that timeline folded into eight blame kinds (run, ready-queue wait,
//!   dump, checkpoint-queue wait, restore, retry/backoff, lost-work
//!   re-execution, suspended). The tiling is hard-asserted on every task
//!   and property-tested against randomized scenarios on both
//!   simulators.
//! * **Aggregation** ([`report`]) — per-priority-band penalty summaries
//!   (P² streaming quantiles via `cbp_telemetry::P2Quantile`, exponential
//!   penalty histograms via `cbp_telemetry::Histogram`), per-node
//!   dump/restore/eviction tallies, the top-K worst-penalized jobs, and
//!   a robust-statistics anomaly pass flagging tasks whose eviction
//!   count or restore latency is an outlier within their band.
//! * **Critical paths & what-if** ([`crit`]) — per-job causal chains
//!   (the segment timeline of the completion-determining task, tiling
//!   the job's submit→finish exactly), cluster-wide makespan/response
//!   attribution per band, counterfactual cost models (zero-cost dump,
//!   infinite device bandwidth, faults off) and inferno-compatible
//!   folded-stack export for flamegraph rendering.
//! * **Regression diffing** ([`diff`]) — [`ObsReport::to_json`] is
//!   byte-stable per trace, so reports can be archived as baselines and
//!   compared under configurable tolerances, with lower-is-better /
//!   higher-is-better direction awareness and a verdict roll-up.
//!
//! The `repro` harness (in `cbp-bench`) wires this end to end:
//! `repro <exp> --analyze report.json` attaches a collector online, and
//! `repro analyze trace.jsonl` replays a `--trace-out` file offline —
//! both produce byte-identical reports for the same run.
//!
//! [`TraceRecord`]: cbp_telemetry::TraceRecord
//! [`Tracer`]: cbp_telemetry::Tracer

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crit;
pub mod diff;
pub mod report;
pub mod span;

pub use crit::{extract_job_paths, paths_to_folded, CritBand, CritReport, JobPath, WhatIf};
pub use diff::{diff_reports, flatten_report, DiffReport, DiffRow, Tolerances, Verdict};
pub use report::{
    Anomaly, BandSummary, JobSummary, NodeSummary, ObsReport, SourceSummary, TotalsSummary,
    ANOMALY_K, REPORT_SCHEMA, REPORT_VERSION,
};
pub use span::{
    collect_jsonl, Band, Blame, MalformedRecord, NodeStats, SegKind, Segment, SharedCollector,
    SpanCollector, TaskSpan, Tasks,
};
