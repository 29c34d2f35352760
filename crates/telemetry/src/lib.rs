//! Observability for the `cbp` simulators: structured sim-time tracing, a
//! metrics registry, and columnar time-series sampling.
//!
//! The paper's argument is quantitative, but aggregate counters alone cannot
//! show *when* preemption storms happen, *why* a dump fell back to kill, or
//! how checkpoint-storage pressure evolves over simulated time. This crate
//! provides the three observability primitives the simulators
//! (`cbp-core::ClusterSim`, `cbp-yarn::YarnSim`) and the `repro` harness
//! thread through the stack:
//!
//! * [`trace`] — a [`Tracer`] trait over typed, sim-time-stamped
//!   [`TraceRecord`]s (task lifecycle, preemption decisions with policy +
//!   victim + reason, dump/restore start/finish with bytes and device,
//!   capacity fallbacks, node fail/recover, queue-depth changes). Ships a
//!   zero-overhead [`NullTracer`] (the default), a [`JsonlTracer`] writing
//!   one JSON object per line, and a [`ChromeTraceTracer`] emitting
//!   `chrome://tracing` / Perfetto-compatible `trace.json` where nodes are
//!   "threads" and dump/restore are duration events.
//! * [`metrics`] — a fixed-bucket [`Histogram`], the P² quantile estimator [`P2Quantile`] and the
//!   p50/p95/p99 [`StreamingQuantiles`] built on it, and a
//!   [`MetricsRegistry`] snapshot keyed `subsystem.metric` with unit
//!   metadata, serializable to deterministic JSON and renderable as a table.
//! * [`timeseries`] — a columnar [`TimeSeries`] the sims fill from a
//!   periodic sim-time probe (cluster utilization, pending depth per band,
//!   checkpoint-storage occupancy per node, device busy fraction), exported
//!   as columnar JSON for plotting.
//!
//! # Conventions
//!
//! * Timestamps cross this crate's API as **integer microseconds of
//!   simulated time** (`t_us`), mirroring `cbp_simkit::SimTime::as_micros`.
//!   The crate deliberately does not depend on `cbp-simkit` (or anything
//!   else) so it can sit below every layer and be tested in isolation.
//! * Metric names are `subsystem.metric` (e.g. `scheduler.kills`,
//!   `storage.write_latency_secs`); units are short strings (`"ops"`,
//!   `"s"`, `"cpu-hours"`, `"kWh"`, `"fraction"`).
//! * All JSON is hand-rolled with sorted keys and fixed field order, so the
//!   same seed produces **byte-identical** trace, metrics and time-series
//!   output across runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod reader;
#[cfg(test)]
mod test_rng;
pub mod timeseries;
pub mod trace;

pub use metrics::{
    Histogram, HistogramSnapshot, MetricEntry, MetricValue, MetricsRegistry, P2Quantile,
    QuantileSnapshot, StreamingQuantiles,
};
pub use reader::{
    schema_header, JsonlReader, LineCounts, TraceReadError, TRACE_SCHEMA, TRACE_SCHEMA_MIN_VERSION,
    TRACE_SCHEMA_VERSION,
};
pub use timeseries::TimeSeries;
pub use trace::{
    ChromeTraceTracer, JsonlTracer, MultiTracer, NullTracer, PreemptAction, SinkStatus,
    TraceRecord, Tracer,
};
