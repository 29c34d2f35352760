//! The benchmark's own tracing: spans around every public call it makes,
//! a counting `Tracer` for exact per-record-kind counts, and extraction of
//! per-layer self times from the `cbp_prof` scope tree.
//!
//! Spans are recorded only in the traced pass. Each span also opens a
//! `cbp_prof` scope of the same name, so the scopes already inside the
//! program (`schedule_pass`, `criu_dump`, the per-event-kind dispatch
//! scopes, ...) nest under the benchmark's call that reached them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::Instant;

use cbp_prof::{ProfNode, ProfReport, ScopeGuard};
use cbp_telemetry::{TraceRecord, Tracer};

/// One closed span. All spans of one op share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    pub op: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Log {
    t0: Instant,
    op: u32,
    next_id: u32,
    stack: Vec<(u32, &'static str, u64)>,
    spans: Vec<Span>,
}

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
}

/// Starts span recording (and the `cbp_prof` scope profiler).
pub fn start() {
    LOG.with(|l| {
        *l.borrow_mut() = Some(Log {
            t0: Instant::now(),
            op: 0,
            next_id: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        })
    });
    ON.with(|o| o.set(true));
    cbp_prof::start(cbp_prof::ProfOptions::default());
}

/// Stops recording and returns the spans and the profiler tree.
pub fn stop() -> (Vec<Span>, ProfReport) {
    ON.with(|o| o.set(false));
    let prof = cbp_prof::stop().expect("profiler was started by spans::start");
    let log = LOG
        .with(|l| l.borrow_mut().take())
        .expect("spans::start was called");
    (log.spans, prof)
}

/// Sets the op id stamped on the spans that follow.
pub fn set_op(op: u32) {
    LOG.with(|l| {
        if let Some(log) = l.borrow_mut().as_mut() {
            log.op = op;
        }
    });
}

/// An open span; closes on drop. Inert while recording is off.
pub struct SpanGuard {
    prof: Option<ScopeGuard>,
}

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> SpanGuard {
    if !ON.with(|o| o.get()) {
        return SpanGuard { prof: None };
    }
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let log = l.as_mut().expect("recording is on");
        let id = log.next_id;
        log.next_id += 1;
        let now = log.t0.elapsed().as_nanos() as u64;
        log.stack.push((id, name, now));
    });
    SpanGuard {
        prof: Some(cbp_prof::scope(name)),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.prof.is_none() {
            return;
        }
        LOG.with(|l| {
            let mut l = l.borrow_mut();
            let Some(log) = l.as_mut() else { return };
            let Some((id, name, start_ns)) = log.stack.pop() else {
                return;
            };
            let end_ns = log.t0.elapsed().as_nanos() as u64;
            let parent = log.stack.last().map(|f| f.0);
            let op = log.op;
            log.spans.push(Span {
                op,
                id,
                parent,
                name,
                start_ns,
                end_ns,
            });
        });
    }
}

/// One JSON object per span, in close order.
pub fn spans_to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.id, parent, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

/// Total seconds spent in spans named `name`.
pub fn span_secs(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

/// Sums `(self_ns, calls)` over every tree node named `name`.
pub fn scope_totals(prof: &ProfReport, name: &str) -> (u64, u64) {
    fn walk(nodes: &[ProfNode], name: &str, acc: &mut (u64, u64)) {
        for n in nodes {
            if n.name == name {
                acc.0 += n.self_ns;
                acc.1 += n.calls;
            }
            walk(&n.children, name, acc);
        }
    }
    let mut acc = (0, 0);
    walk(&prof.roots, name, &mut acc);
    acc
}

/// Self time of the per-event-kind dispatch scopes the engine opens
/// directly under the benchmark's `sim.run` span.
pub fn dispatch_self_ns(prof: &ProfReport) -> u64 {
    fn walk(nodes: &[ProfNode], acc: &mut u64) {
        for n in nodes {
            if n.name == "sim.run" {
                *acc += n.children.iter().map(|c| c.self_ns).sum::<u64>();
            } else {
                walk(&n.children, acc);
            }
        }
    }
    let mut acc = 0;
    walk(&prof.roots, &mut acc);
    acc
}

/// Exact per-record-kind counts of a sim's trace stream.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct KindCounts {
    pub by_kind: BTreeMap<&'static str, u64>,
    /// `dump_fail` records that announced a retry.
    pub dump_fail_retries: u64,
}

impl KindCounts {
    pub fn add(&mut self, other: &KindCounts) {
        for (k, v) in &other.by_kind {
            *self.by_kind.entry(k).or_default() += v;
        }
        self.dump_fail_retries += other.dump_fail_retries;
    }

    pub fn get(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }
}

/// A `Tracer` that only counts; the caller keeps a handle to the counts.
#[derive(Clone, Default)]
pub struct CountingTracer(pub Rc<RefCell<KindCounts>>);

impl Tracer for CountingTracer {
    fn record(&mut self, _t_us: u64, rec: &TraceRecord) {
        let mut c = self.0.borrow_mut();
        *c.by_kind.entry(rec.name()).or_default() += 1;
        if let TraceRecord::DumpFail {
            will_retry: true, ..
        } = rec
        {
            c.dump_fail_retries += 1;
        }
    }
}

/// Every record kind the trace schema defines, so the per-layer output
/// names each one even when a workload never emits it.
pub const RECORD_KINDS: [&str; 32] = [
    "task_submit",
    "task_schedule",
    "task_finish",
    "task_evict",
    "preempt_decision",
    "dump_start",
    "dump_done",
    "dump_fallback",
    "dump_fail",
    "restore_fail",
    "am_escalate",
    "replication_repair",
    "restore_start",
    "restore_done",
    "node_fail",
    "node_recover",
    "node_down",
    "node_up",
    "partition_start",
    "partition_end",
    "breaker_open",
    "breaker_close",
    "gc_pass",
    "image_evict",
    "image_spill",
    "no_space",
    "chunk_done",
    "chunk_corrupt",
    "chunk_refetch",
    "resume_dump",
    "chain_truncate",
    "queue_depth",
];
