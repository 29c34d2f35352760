//! Wall-clock self-profiling for the `cbp` engine.
//!
//! PR 1/2 gave the simulators *sim-time* observability: what the simulated
//! cluster did, and when. This crate answers the orthogonal question the
//! ROADMAP's "as fast as the hardware allows" goal needs: where does the
//! *engine itself* spend host time? It provides:
//!
//! * [`scope()`] — a hierarchical RAII scope profiler. Scopes nest on a
//!   thread-local span stack; each distinct *path* of scope names becomes a
//!   node accumulating call count, total wall time and (with the
//!   `count-alloc` feature) allocation count. `cbp_simkit::run_until_observed`
//!   opens one scope per processed event, named by the simulation's
//!   [`event_kind`](https://docs.rs/) classification, so a profiled run
//!   yields a per-event-type timing + count breakdown for free.
//! * [`ProfReport`] — the deterministic tree report extracted by [`stop`]:
//!   children sorted by name, self time = total − Σ(children), rendered as
//!   an indented table or as byte-stable JSON (`{"schema":"cbp-prof",...}`).
//! * [`report::SpanEvent`] capture + [`ProfReport::to_chrome_trace`] — a
//!   **wall-clock** Chrome-trace sink, so profiler spans open in Perfetto
//!   alongside the existing *sim-time* trace from `cbp-telemetry`.
//! * [`alloc`] (feature `count-alloc`) — a counting global allocator
//!   (allocations + live/peak bytes) binaries can install to get an
//!   RSS-proxy per benchmark phase.
//!
//! # The null profiler, and overhead
//!
//! Profiling is **off by default** (the "null profiler" state): [`scope()`]
//! then costs a single thread-local boolean load and branch, allocates
//! nothing, and records nothing — instrumented hot paths behave
//! byte-identically to un-instrumented ones. [`start`] flips the
//! thread-local on; [`stop`] flips it off and returns the report. The
//! engine additionally hoists the flag out of its event loop, so a
//! non-profiled run pays one branch per loop, not per trace point.
//!
//! # Example
//!
//! ```
//! cbp_prof::start(cbp_prof::ProfOptions::default());
//! {
//!     let _outer = cbp_prof::scope("run");
//!     let _inner = cbp_prof::scope("event");
//! }
//! let report = cbp_prof::stop().expect("profiler was running");
//! assert_eq!(report.roots[0].name, "run");
//! assert_eq!(report.roots[0].children[0].name, "event");
//! assert!(!cbp_prof::enabled());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod report;
mod scope;

pub use report::{ProfNode, ProfReport, SpanEvent, PROF_SCHEMA, PROF_VERSION};
pub use scope::{enabled, scope, start, stop, ProfOptions, ScopeGuard, SPAN_CAP};
