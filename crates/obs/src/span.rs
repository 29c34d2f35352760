//! Per-task lifecycle spans reconstructed from a [`TraceRecord`] stream.
//!
//! [`SpanCollector`] is a [`Tracer`]: it can be attached to a running
//! simulator (online) or fed from a JSONL trace via [`collect_jsonl`]
//! (offline). Either way it makes a single streaming pass over the
//! records, keeping per task a phase and the ordered [`Segment`]
//! timeline of its lifetime, and never buffering the record stream
//! itself. The timeline is the one account: a task's [`Blame`] is the
//! timeline folded by kind ([`TaskSpan::blame`]), and critical paths
//! read it as recorded.
//!
//! # Blame accounting
//!
//! Every task's wall-clock (sim-time) span from `task_submit` to
//! `task_finish` is tiled — exactly, in integer microseconds — by
//! segments of eight blame kinds:
//!
//! * **run** — productive execution that counted toward completion;
//! * **ready_wait** — pending-queue time before a fresh (non-restore)
//!   placement;
//! * **dump** — checkpoint dump service time (device busy writing);
//! * **ckpt_wait** — checkpoint device *queue* time, on both the dump
//!   side (evict → device start) and the restore side (placement →
//!   device start);
//! * **restore** — checkpoint restore service time;
//! * **retry** — recovery overhead from injected faults: time burnt by
//!   failed dump attempts (plus their backoff) and failed restore
//!   attempts, up to the point where the operation either succeeds, is
//!   abandoned for a kill fallback, or degenerates into a
//!   restart-from-scratch (`dump_fail` / `restore_fail` records);
//! * **lost** — intervals whose progress was discarded and must be
//!   re-executed: execution since the last resume point when a task is
//!   killed, time burnt by an aborted dump or restore, and previously
//!   credited run that a fresh restart re-executes after its image is
//!   lost;
//! * **suspended** — pending-queue time while holding a checkpoint
//!   image, waiting to be rescheduled for a restore.
//!
//! At every `task_finish` the sorted timeline is hard-asserted to tile
//! `submit..finish` with no gap or overlap, which implies the
//! conservation invariant `run + ready_wait + dump + ckpt_wait +
//! restore + retry + lost + suspended == finish - submit`; the property
//! tests in `cbp-bench` exercise it across randomized scenarios on both
//! simulators. A phase record earlier than the start of the task's
//! current phase is malformed: it would give a negative interval.
//!
//! Two subtleties are worth calling out:
//!
//! * The interval between `task_evict(reason="dump")` and the matching
//!   `dump_done` is split at `start_us` (the device service start the
//!   `dump_done` record carries) into ckpt_wait and dump. If the dump is
//!   instead aborted (`task_evict` or a kill arrives first), the whole
//!   interval *and* the execution since the last resume point become
//!   lost — an aborted dump saves nothing.
//! * A `task_schedule` with `restore=false` after the task had
//!   checkpointed (i.e. its image was lost to a node failure, or a kill
//!   discarded uncheckpointed progress and no image existed) moves all
//!   previously credited run to lost: that work will be re-executed. At
//!   `task_finish`, run therefore equals the task's true service time.

use std::cell::{OnceCell, RefCell};
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::rc::Rc;

use cbp_simkit::HandleMap;
use cbp_telemetry::{JsonlReader, TraceReadError, TraceRecord, Tracer};

#[cfg(test)]
mod reference;

/// Priority band, mirroring `cbp_workload::Priority::band` (Google-trace
/// convention: 0–1 free, 2–8 middle, 9+ production). Redefined here so
/// the analyzer sits below the workload layer and can consume any trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Band {
    /// Priorities 0–1: scavenger work, first to be preempted.
    Free,
    /// Priorities 2–8.
    Middle,
    /// Priorities 9 and above: latency-sensitive production work.
    Production,
}

impl Band {
    /// All bands, in reporting order.
    pub const ALL: [Band; 3] = [Band::Free, Band::Middle, Band::Production];

    /// The band a scheduler priority falls in.
    pub fn of_priority(p: u8) -> Band {
        match p {
            0..=1 => Band::Free,
            2..=8 => Band::Middle,
            _ => Band::Production,
        }
    }

    /// Short stable name (used in report JSON and tables).
    pub fn name(self) -> &'static str {
        match self {
            Band::Free => "free",
            Band::Middle => "middle",
            Band::Production => "production",
        }
    }

    /// Inclusive priority range `(min, max)` covered by the band.
    pub fn priority_range(self) -> (u8, u8) {
        match self {
            Band::Free => (0, 1),
            Band::Middle => (2, 8),
            Band::Production => (9, 11),
        }
    }
}

/// Response-time decomposition of one task (or an aggregate of tasks);
/// all fields are integer microseconds of simulated time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Blame {
    /// Productive execution that counted toward completion.
    pub run_us: u64,
    /// Pending-queue time before a fresh (non-restore) placement.
    pub ready_wait_us: u64,
    /// Checkpoint dump service time.
    pub dump_us: u64,
    /// Checkpoint device queue time (dump and restore sides).
    pub ckpt_wait_us: u64,
    /// Checkpoint restore service time.
    pub restore_us: u64,
    /// Recovery overhead: failed dump/restore attempts and their
    /// backoff, before the operation succeeded or was abandoned.
    pub retry_us: u64,
    /// Discarded work re-executed later (kills, aborted dumps/restores,
    /// lost images).
    pub lost_us: u64,
    /// Pending-queue time while holding a checkpoint image.
    pub suspended_us: u64,
}

impl Blame {
    /// Sum of all segments. For a finished task this equals
    /// `finish - submit` exactly (the conservation invariant).
    /// Saturates, like [`Blame::accumulate`].
    pub fn total_us(&self) -> u64 {
        self.components()
            .iter()
            .fold(0, |sum, &(_, us)| sum.saturating_add(us))
    }

    /// Everything that is not productive run: the preemption penalty.
    pub fn penalty_us(&self) -> u64 {
        self.total_us() - self.run_us
    }

    /// Accumulates another decomposition (for aggregates). The sums
    /// saturate at `u64::MAX`: a trace's times may be any `u64`, so sums
    /// over many tasks may not fit.
    pub fn accumulate(&mut self, other: &Blame) {
        self.run_us = self.run_us.saturating_add(other.run_us);
        self.ready_wait_us = self.ready_wait_us.saturating_add(other.ready_wait_us);
        self.dump_us = self.dump_us.saturating_add(other.dump_us);
        self.ckpt_wait_us = self.ckpt_wait_us.saturating_add(other.ckpt_wait_us);
        self.restore_us = self.restore_us.saturating_add(other.restore_us);
        self.retry_us = self.retry_us.saturating_add(other.retry_us);
        self.lost_us = self.lost_us.saturating_add(other.lost_us);
        self.suspended_us = self.suspended_us.saturating_add(other.suspended_us);
    }

    /// `(name, value)` pairs in canonical report order.
    pub fn components(&self) -> [(&'static str, u64); 8] {
        [
            ("run_us", self.run_us),
            ("ready_wait_us", self.ready_wait_us),
            ("dump_us", self.dump_us),
            ("ckpt_wait_us", self.ckpt_wait_us),
            ("restore_us", self.restore_us),
            ("retry_us", self.retry_us),
            ("lost_us", self.lost_us),
            ("suspended_us", self.suspended_us),
        ]
    }
}

/// Kind of one ordered lifecycle segment. Finer-grained than [`Blame`]:
/// checkpoint-device *queue* time is split by side (dump vs restore), so
/// counterfactual cost models can zero them independently — `Blame`'s
/// `ckpt_wait_us` folds `DumpQueue + RestoreQueue`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SegKind {
    /// Productive execution that counted toward completion.
    Run,
    /// Pending-queue time before a fresh (non-restore) placement.
    ReadyWait,
    /// Checkpoint device queue time on the dump side (evict → service).
    DumpQueue,
    /// Checkpoint dump service time.
    Dump,
    /// Pending-queue time while holding a checkpoint image.
    Suspended,
    /// Checkpoint device queue time on the restore side (placement →
    /// service).
    RestoreQueue,
    /// Checkpoint restore service time.
    Restore,
    /// Recovery overhead from failed dump/restore attempts and backoff.
    Retry,
    /// Discarded work: killed execution, aborted dumps/restores, and run
    /// that a later fresh start re-executed.
    Lost,
}

impl SegKind {
    /// All kinds, in canonical report order.
    pub const ALL: [SegKind; 9] = [
        SegKind::Run,
        SegKind::ReadyWait,
        SegKind::DumpQueue,
        SegKind::Dump,
        SegKind::Suspended,
        SegKind::RestoreQueue,
        SegKind::Restore,
        SegKind::Retry,
        SegKind::Lost,
    ];

    /// Short stable name (used in report JSON and folded stacks).
    pub fn name(self) -> &'static str {
        match self {
            SegKind::Run => "run",
            SegKind::ReadyWait => "ready_wait",
            SegKind::DumpQueue => "dump_queue",
            SegKind::Dump => "dump",
            SegKind::Suspended => "suspended",
            SegKind::RestoreQueue => "restore_queue",
            SegKind::Restore => "restore",
            SegKind::Retry => "retry",
            SegKind::Lost => "lost",
        }
    }

    /// Index into [`SegKind::ALL`] (for fixed-size accumulators): the
    /// variants are declared in that order.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One ordered interval of a task's lifetime (µs sim time; `end_us` is
/// exclusive). Zero-length intervals are never recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// What the task was doing (or waiting on) during the interval.
    pub kind: SegKind,
    /// Interval start (µs sim time).
    pub start_us: u64,
    /// Interval end (µs sim time, exclusive).
    pub end_us: u64,
}

impl Segment {
    /// Interval length in microseconds.
    pub fn dur_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// Where a task currently is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// In the pending queue since `since`. Whether the wait is
    /// classified ready_wait or suspended is decided retroactively by
    /// the `restore` flag of the next `task_schedule`.
    Queued { since: u64 },
    /// Executing on a node since `since`.
    Running { since: u64 },
    /// Evicted for a dump, waiting on the dump since `since` (the
    /// eviction or the last failed attempt). `run` is the execution
    /// interval since the last resume point, held back: a `Run` segment
    /// if the dump completes, `Lost` if it is aborted.
    DumpWait { since: u64, run: (u64, u64) },
    /// Placed for a restore, waiting on the image read since `since`
    /// (the placement or the last failed attempt).
    Restoring { since: u64 },
    /// Finished.
    Done,
}

impl Phase {
    /// When the phase began. `Done` gives 0: every phase record after
    /// the finish is malformed for its phase anyway.
    fn since(self) -> u64 {
        match self {
            Phase::Queued { since }
            | Phase::Running { since }
            | Phase::DumpWait { since, .. }
            | Phase::Restoring { since } => since,
            Phase::Done => 0,
        }
    }
}

/// The reconstructed lifecycle of one task.
#[derive(Debug, Clone)]
pub struct TaskSpan {
    /// Task id (simulator-scoped; YARN packs `(app << 32) | task`).
    pub task: u64,
    /// Owning job id.
    pub job: u64,
    /// Scheduler priority.
    pub priority: u8,
    /// Submission time (µs sim time).
    pub submit_us: u64,
    /// Completion time, if the task finished within the trace.
    pub finish_us: Option<u64>,
    /// `task_evict` records seen (any reason).
    pub evictions: u32,
    /// Evictions with reason `"kill"` or `"node-fail"`.
    pub kills: u32,
    /// Completed checkpoint dumps.
    pub dumps: u32,
    /// Completed checkpoint restores.
    pub restores: u32,
    /// Dump fallbacks (capacity, grace-expired, node-fail, ...).
    pub fallbacks: u32,
    /// Failed dump attempts (`dump_fail` records).
    pub dump_fails: u32,
    /// Failed restore attempts (`restore_fail` records).
    pub restore_fails: u32,
    /// RM escalations after an unresponsive AM (`am_escalate` records).
    pub escalations: u32,
    /// Bytes dump retries did not rewrite thanks to chunked resume
    /// (`resume_dump` records). The time saved is already inside the
    /// shorter retry spans; this credits the avoided I/O volume.
    pub resumed_bytes: u64,
    /// Corrupt chunks repaired in place by a DFS replica re-fetch
    /// (`chunk_refetch` records with `ok`).
    pub chunk_refetches: u32,
    /// Chain truncations to a valid prefix (`chain_truncate` records).
    pub chain_truncations: u32,
    /// Records that arrived in a phase where they make no sense. Tasks
    /// with `malformed > 0` are excluded from aggregation.
    pub malformed: u32,
    /// Ordered lifecycle intervals. Sorted by `start_us` — and
    /// guaranteed to tile `submit_us..finish_us` exactly — once the task
    /// finished.
    pub segments: Vec<Segment>,
    current: Phase,
}

impl TaskSpan {
    /// The band the task's priority falls in.
    pub fn band(&self) -> Band {
        Band::of_priority(self.priority)
    }

    /// Response time, if finished.
    pub fn response_us(&self) -> Option<u64> {
        self.finish_us.map(|f| f - self.submit_us)
    }

    /// Whether the task ran to completion within the trace.
    pub fn finished(&self) -> bool {
        self.finish_us.is_some()
    }

    /// Response-time decomposition: the segment timeline folded by kind.
    pub fn blame(&self) -> Blame {
        let mut us = [0u64; SegKind::ALL.len()];
        for s in &self.segments {
            us[s.kind.index()] += s.dur_us();
        }
        let of = |kind: SegKind| us[kind.index()];
        Blame {
            run_us: of(SegKind::Run),
            ready_wait_us: of(SegKind::ReadyWait),
            dump_us: of(SegKind::Dump),
            ckpt_wait_us: of(SegKind::DumpQueue) + of(SegKind::RestoreQueue),
            restore_us: of(SegKind::Restore),
            retry_us: of(SegKind::Retry),
            lost_us: of(SegKind::Lost),
            suspended_us: of(SegKind::Suspended),
        }
    }

    /// Appends `start..end` as a `kind` segment and returns its length.
    /// Zero-length intervals carry no blame and are not recorded.
    fn push(&mut self, kind: SegKind, start: u64, end: u64) -> u64 {
        if end > start {
            self.segments.push(Segment {
                kind,
                start_us: start,
                end_us: end,
            });
        }
        end - start
    }
}

/// The span of `task` if a phase record at `t` may advance it, or why the
/// record is malformed: the task was never submitted, or `t` is earlier
/// than the start of its current phase.
fn advance<'a>(
    spans: &'a mut Slab,
    index: &HandleMap<u64, u32>,
    task: u64,
    t: u64,
) -> Result<&'a mut TaskSpan, &'static str> {
    let &at = index.get(&task).ok_or("record before task_submit")?;
    let span = spans.get_mut(at);
    if t < span.current.since() {
        return Err("record earlier than the start of the task's current phase");
    }
    Ok(span)
}

/// Per-node tallies (service times and eviction counts observed on the
/// node). Unlike [`Blame`], these do not tile anything: they attribute
/// activity to the node where it happened. The time and byte sums
/// saturate, like [`Blame::accumulate`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// `task_evict` records on this node (any reason).
    pub evictions: u32,
    /// Evictions with reason `"kill"` or `"node-fail"`.
    pub kills: u32,
    /// Completed dumps on this node.
    pub dumps: u32,
    /// Dump service time on this node (µs).
    pub dump_us: u64,
    /// Completed restores on this node.
    pub restores: u32,
    /// Restore service time on this node (µs).
    pub restore_us: u64,
    /// Work discarded by evictions on this node (µs).
    pub lost_us: u64,
    /// Recovery overhead on this node (failed dump/restore attempts, µs).
    pub retry_us: u64,
    /// Blocks re-replicated after this node's datanode failures.
    pub repairs: u32,
    /// Bytes re-replicated for those repairs.
    pub repair_bytes: u64,
    /// Bytes dump retries on this node did not rewrite (chunked resume).
    pub resumed_bytes: u64,
    /// Tasks that finished on this node.
    pub finishes: u32,
}

/// Spans in submit order, in chunks of [`Slab::CHUNK`]: a span never
/// moves once pushed, a run allocates once per chunk, and no block is
/// larger than a chunk. (One growing block per collector, freed after
/// each trace, was handed back to the OS and faulted in again by the
/// next collector.)
#[derive(Debug, Default)]
struct Slab {
    chunks: Vec<Vec<TaskSpan>>,
    len: usize,
}

impl Slab {
    const CHUNK: usize = 64;

    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, span: TaskSpan) {
        if self.len.is_multiple_of(Self::CHUNK) {
            self.chunks.push(Vec::with_capacity(Self::CHUNK));
        }
        self.chunks.last_mut().expect("a chunk").push(span);
        self.len += 1;
    }

    fn get(&self, at: u32) -> &TaskSpan {
        let at = at as usize;
        &self.chunks[at / Self::CHUNK][at % Self::CHUNK]
    }

    fn get_mut(&mut self, at: u32) -> &mut TaskSpan {
        let at = at as usize;
        &mut self.chunks[at / Self::CHUNK][at % Self::CHUNK]
    }

    fn last(&self) -> Option<&TaskSpan> {
        self.chunks.last().and_then(|chunk| chunk.last())
    }
}

/// One accumulator per job, in order of first appearance, found by job
/// id. The job asked for last is checked first: walking spans in task-id
/// order meets a job's tasks one after another.
pub(crate) struct ByJob<T> {
    items: Vec<T>,
    index: HandleMap<u64, usize>,
    last: Option<(u64, usize)>,
}

impl<T> ByJob<T> {
    pub(crate) fn new() -> Self {
        ByJob {
            items: Vec::new(),
            index: HandleMap::default(),
            last: None,
        }
    }

    /// The accumulator of `job`, made by `new` on first use.
    pub(crate) fn get(&mut self, job: u64, new: impl FnOnce() -> T) -> &mut T {
        let at = match self.last {
            Some((last, at)) if last == job => at,
            _ => {
                let items = &mut self.items;
                let at = *self.index.entry(job).or_insert_with(|| {
                    items.push(new());
                    items.len() - 1
                });
                self.last = Some((job, at));
                at
            }
        };
        &mut self.items[at]
    }

    /// The accumulators, in order of first appearance.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.items
    }
}

/// Streaming span reconstruction over a trace record stream.
///
/// Feed it records via the [`Tracer`] impl (online) or [`collect_jsonl`]
/// (offline), then hand it to [`crate::ObsReport::build`].
///
/// Spans are kept in submit order and found through an index keyed by
/// task id. [`SpanCollector::tasks`] lists them in ascending task id, the
/// order every aggregate is fed in, from one sort made on first use (none
/// when the submits came in id order, as both simulators emit them).
#[derive(Debug, Default)]
pub struct SpanCollector {
    /// Spans in submit order.
    spans: Slab,
    /// Task id → position in `spans`.
    index: HandleMap<u64, u32>,
    /// Whether some submit had a lower task id than the one before it.
    unordered: bool,
    /// Positions in `spans` by ascending task id, when `unordered`; made
    /// by the first [`SpanCollector::tasks`] after the last submit.
    order: OnceCell<Vec<u32>>,
    nodes: BTreeMap<u32, NodeStats>,
    records: u64,
    malformed: u64,
    first_malformed: Option<MalformedRecord>,
}

/// The first malformed record a [`SpanCollector`] met: the witness
/// behind its [`SpanCollector::malformed`] count.
#[derive(Debug, Clone, Copy)]
pub struct MalformedRecord {
    /// The record's position in the stream, counting from 0.
    pub index: u64,
    /// Why the record is malformed.
    pub reason: &'static str,
    /// The record itself.
    pub record: TraceRecord,
}

impl std::fmt::Display for MalformedRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "record {}: {}: {:?}",
            self.index, self.reason, self.record
        )
    }
}

/// The spans of a [`SpanCollector`] in ascending task id.
#[derive(Debug, Clone)]
pub struct Tasks<'a> {
    spans: &'a Slab,
    /// Positions in `spans` to visit; `None` visits `spans` in order.
    order: Option<&'a [u32]>,
    next: std::ops::Range<usize>,
}

impl<'a> Iterator for Tasks<'a> {
    type Item = &'a TaskSpan;

    fn next(&mut self) -> Option<&'a TaskSpan> {
        let i = self.next.next()?;
        let at = self.order.map_or(i as u32, |order| order[i]);
        Some(self.spans.get(at))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for Tasks<'_> {}

impl SpanCollector {
    /// An empty collector. A malformed record is counted, on the
    /// collector and on its task (which is then left out of
    /// aggregation), and the first one is kept as the witness.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// The same as [`SpanCollector::new`]: there is one mode. Kept only
    /// for the benchmark harness, which still calls it.
    pub fn lenient() -> Self {
        SpanCollector::default()
    }

    /// Returns the collector unchanged: segment timelines are always
    /// recorded. Kept only for the benchmark harness, which still calls
    /// it.
    pub fn with_segments(self) -> Self {
        self
    }

    /// Records consumed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Malformed records seen so far.
    pub fn malformed(&self) -> u64 {
        self.malformed
    }

    /// The first malformed record seen, if any.
    pub fn first_malformed(&self) -> Option<&MalformedRecord> {
        self.first_malformed.as_ref()
    }

    /// The reconstructed spans in ascending task id.
    pub fn tasks(&self) -> Tasks<'_> {
        let order = self.unordered.then(|| {
            self.order
                .get_or_init(|| {
                    let mut order: Vec<u32> = (0..self.spans.len() as u32).collect();
                    order.sort_unstable_by_key(|&at| self.spans.get(at).task);
                    order
                })
                .as_slice()
        });
        Tasks {
            spans: &self.spans,
            order,
            next: 0..self.spans.len(),
        }
    }

    /// The span of task `task`, if it was submitted.
    pub fn task(&self, task: u64) -> Option<&TaskSpan> {
        self.index.get(&task).map(|&at| self.spans.get(at))
    }

    fn task_mut(&mut self, task: u64) -> Option<&mut TaskSpan> {
        let &at = self.index.get(&task)?;
        Some(self.spans.get_mut(at))
    }

    /// Per-node tallies, keyed by node id.
    pub fn nodes(&self) -> &BTreeMap<u32, NodeStats> {
        &self.nodes
    }

    fn bad(&mut self, task: u64, reason: &'static str, rec: &TraceRecord) {
        self.malformed += 1;
        let index = self.records - 1;
        self.first_malformed.get_or_insert(MalformedRecord {
            index,
            reason,
            record: *rec,
        });
        if let Some(span) = self.task_mut(task) {
            span.malformed += 1;
        }
    }

    fn node(&mut self, node: u32) -> &mut NodeStats {
        self.nodes.entry(node).or_default()
    }

    /// Consumes one record at sim time `t` (µs). This is the whole state
    /// machine; [`Tracer::record`] forwards here.
    pub fn observe(&mut self, t: u64, rec: &TraceRecord) {
        self.records += 1;
        match *rec {
            TraceRecord::TaskSubmit {
                task,
                job,
                priority,
            } => {
                let at = u32::try_from(self.spans.len()).expect("fewer than 2^32 tasks");
                let Entry::Vacant(slot) = self.index.entry(task) else {
                    return self.bad(task, "duplicate task_submit", rec);
                };
                slot.insert(at);
                if self.spans.last().is_some_and(|last| last.task > task) {
                    self.unordered = true;
                }
                self.order.take();
                self.spans.push(TaskSpan {
                    task,
                    job,
                    priority,
                    submit_us: t,
                    finish_us: None,
                    evictions: 0,
                    kills: 0,
                    dumps: 0,
                    restores: 0,
                    fallbacks: 0,
                    dump_fails: 0,
                    restore_fails: 0,
                    escalations: 0,
                    resumed_bytes: 0,
                    chunk_refetches: 0,
                    chain_truncations: 0,
                    malformed: 0,
                    segments: Vec::new(),
                    current: Phase::Queued { since: t },
                });
            }
            TraceRecord::TaskSchedule { task, restore, .. } => {
                let span = match advance(&mut self.spans, &self.index, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Queued { since } = span.current else {
                    return self.bad(task, "task_schedule while not queued", rec);
                };
                if restore {
                    span.push(SegKind::Suspended, since, t);
                    span.current = Phase::Restoring { since: t };
                } else {
                    // A fresh start re-executes everything credited so far
                    // (the image, if any, was unusable).
                    for s in span.segments.iter_mut() {
                        if s.kind == SegKind::Run {
                            s.kind = SegKind::Lost;
                        }
                    }
                    span.push(SegKind::ReadyWait, since, t);
                    span.current = Phase::Running { since: t };
                }
            }
            TraceRecord::TaskFinish { task, node } => {
                let span = match advance(&mut self.spans, &self.index, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Running { since } = span.current else {
                    return self.bad(task, "task_finish while not running", rec);
                };
                span.push(SegKind::Run, since, t);
                span.finish_us = Some(t);
                span.current = Phase::Done;
                // Held-back run segments (DumpDone credits) and abort-time
                // Lost segments were appended out of chronological order;
                // restore it. Non-empty intervals never overlap, so start
                // order is total.
                span.segments.sort_by_key(|s| s.start_us);
                let mut cursor = span.submit_us;
                for s in &span.segments {
                    assert_eq!(
                        s.start_us, cursor,
                        "segment timeline violated for task {task}: \
                         gap or overlap at {cursor} before {s:?}",
                    );
                    cursor = s.end_us;
                }
                assert_eq!(
                    cursor, t,
                    "segment timeline violated for task {task}: \
                     segments end at {cursor}, finish at {t}",
                );
                self.node(node).finishes += 1;
            }
            TraceRecord::TaskEvict { task, node, reason } => {
                let span = match advance(&mut self.spans, &self.index, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                span.evictions += 1;
                let hard = reason != "dump";
                if hard {
                    span.kills += 1;
                }
                let lost = match span.current {
                    Phase::Running { since } if hard => Some(span.push(SegKind::Lost, since, t)),
                    Phase::Running { since } => {
                        // reason == "dump": execution since the resume
                        // point is held back until the dump completes.
                        span.current = Phase::DumpWait {
                            since: t,
                            run: (since, t),
                        };
                        None
                    }
                    Phase::DumpWait { since, run } => {
                        // The in-flight dump was aborted: the held-back
                        // run and the dump time bought nothing.
                        let run = span.push(SegKind::Lost, run.0, run.1);
                        Some(run + span.push(SegKind::Lost, since, t))
                    }
                    Phase::Restoring { since } => Some(span.push(SegKind::Lost, since, t)),
                    Phase::Queued { .. } | Phase::Done => {
                        return self.bad(task, "task_evict while not placed", rec);
                    }
                };
                if let Some(lost) = lost {
                    span.current = Phase::Queued { since: t };
                    let ns = self.node(node);
                    ns.lost_us = ns.lost_us.saturating_add(lost);
                }
                let ns = self.node(node);
                ns.evictions += 1;
                if hard {
                    ns.kills += 1;
                }
            }
            TraceRecord::DumpDone {
                task,
                node,
                start_us,
            } => {
                let span = match advance(&mut self.spans, &self.index, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::DumpWait { since, run } = span.current else {
                    return self.bad(task, "dump_done without pending dump", rec);
                };
                // Split since..done at the device service start.
                let boundary = start_us.clamp(since, t);
                span.push(SegKind::Run, run.0, run.1);
                span.push(SegKind::DumpQueue, since, boundary);
                let dump_us = span.push(SegKind::Dump, boundary, t);
                span.dumps += 1;
                span.current = Phase::Queued { since: t };
                let ns = self.node(node);
                ns.dumps += 1;
                ns.dump_us = ns.dump_us.saturating_add(dump_us);
            }
            TraceRecord::RestoreDone {
                task,
                node,
                start_us,
            } => {
                let span = match advance(&mut self.spans, &self.index, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Restoring { since } = span.current else {
                    return self.bad(task, "restore_done without pending restore", rec);
                };
                let boundary = start_us.clamp(since, t);
                span.push(SegKind::RestoreQueue, since, boundary);
                let restore_us = span.push(SegKind::Restore, boundary, t);
                span.restores += 1;
                span.current = Phase::Running { since: t };
                let ns = self.node(node);
                ns.restores += 1;
                ns.restore_us = ns.restore_us.saturating_add(restore_us);
            }
            TraceRecord::DumpFallback { task, .. } => {
                // Always followed by the kill's task_evict (or, on node
                // failure, preceded by it); only counted here.
                if let Some(span) = self.task_mut(task) {
                    span.fallbacks += 1;
                }
            }
            TraceRecord::DumpFail { task, node, .. } => {
                let span = match advance(&mut self.spans, &self.index, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::DumpWait { since, run } = span.current else {
                    return self.bad(task, "dump_fail without pending dump", rec);
                };
                // The failed attempt (and any backoff before it) is
                // recovery overhead; the held-back run stays held back
                // for the next attempt or the fallback kill.
                let burnt = span.push(SegKind::Retry, since, t);
                span.dump_fails += 1;
                span.current = Phase::DumpWait { since: t, run };
                let ns = self.node(node);
                ns.retry_us = ns.retry_us.saturating_add(burnt);
            }
            TraceRecord::RestoreFail {
                task,
                node,
                will_retry,
                ..
            } => {
                let span = match advance(&mut self.spans, &self.index, task, t) {
                    Ok(span) => span,
                    Err(what) => return self.bad(task, what, rec),
                };
                let Phase::Restoring { since } = span.current else {
                    return self.bad(task, "restore_fail without pending restore", rec);
                };
                let burnt = span.push(SegKind::Retry, since, t);
                span.restore_fails += 1;
                span.current = if will_retry {
                    // Next attempt (e.g. from a surviving HDFS replica)
                    // begins now, on the same placement.
                    Phase::Restoring { since: t }
                } else {
                    // Restart from scratch: the task re-queues; the
                    // following task_schedule(restore=false) reclassifies
                    // the credited run as lost.
                    Phase::Queued { since: t }
                };
                let ns = self.node(node);
                ns.retry_us = ns.retry_us.saturating_add(burnt);
            }
            TraceRecord::AmEscalate { task, .. } => {
                // The victim keeps running until the forced kill's
                // task_evict arrives; only counted here.
                if let Some(span) = self.task_mut(task) {
                    span.escalations += 1;
                }
            }
            TraceRecord::ReplicationRepair {
                node,
                blocks,
                bytes,
            } => {
                let ns = self.node(node);
                ns.repairs = ns
                    .repairs
                    .saturating_add(blocks.min(u32::MAX as u64) as u32);
                ns.repair_bytes = ns.repair_bytes.saturating_add(bytes);
            }
            TraceRecord::ResumeDump {
                task,
                node,
                resumed_bytes,
                ..
            } => {
                // The time the resume saved is already reflected in the
                // shorter retry span (dump_fail → dump_done); credit the
                // avoided rewrite volume without touching the phase
                // machine, so the 8-way tiling stays exact.
                if let Some(span) = self.task_mut(task) {
                    span.resumed_bytes = span.resumed_bytes.saturating_add(resumed_bytes);
                }
                let ns = self.node(node);
                ns.resumed_bytes = ns.resumed_bytes.saturating_add(resumed_bytes);
            }
            TraceRecord::ChunkRefetch { task, ok, .. } => {
                // A successful targeted repair; its transfer time is inside
                // the surrounding restore span. Failed refetches are
                // followed by a restore_fail/chain_truncate that carries
                // the timing, so this is counter-only either way.
                if ok {
                    if let Some(span) = self.task_mut(task) {
                        span.chunk_refetches += 1;
                    }
                }
            }
            TraceRecord::ChainTruncate { task, .. } => {
                // Always paired with a restore_fail(will_retry=true) that
                // re-arms the restoring phase; only counted here.
                if let Some(span) = self.task_mut(task) {
                    span.chain_truncations += 1;
                }
            }
            // Bookkeeping-only records: the span machine does not need
            // them (dump/restore spans close on the *_done records, and
            // node-failure/crash evictions arrive as task_evict — a
            // "node-crash" reason classifies as a hard kill like any
            // other non-dump eviction, so chaos and breaker events keep
            // the 8-way tiling exact without extra state here). The
            // image-lifecycle records (gc_pass/image_evict/image_spill/
            // no_space) are bookkeeping too: an evicted chain costs
            // nothing until the task is re-placed (its scratch restart
            // arrives as a plain schedule without restore), a spill's
            // cost is inside the dump span it annotates, and a no-space
            // kill's waste lands with the matching task_evict.
            TraceRecord::DumpStart { .. }
            | TraceRecord::RestoreStart { .. }
            | TraceRecord::PreemptDecision { .. }
            | TraceRecord::NodeFail { .. }
            | TraceRecord::NodeRecover { .. }
            | TraceRecord::NodeDown { .. }
            | TraceRecord::NodeUp { .. }
            | TraceRecord::PartitionStart { .. }
            | TraceRecord::PartitionEnd { .. }
            | TraceRecord::BreakerOpen { .. }
            | TraceRecord::BreakerClose { .. }
            | TraceRecord::GcPass { .. }
            | TraceRecord::ImageEvict { .. }
            | TraceRecord::ImageSpill { .. }
            | TraceRecord::NoSpace { .. }
            | TraceRecord::ChunkDone { .. }
            | TraceRecord::ChunkCorrupt { .. }
            | TraceRecord::QueueDepth { .. } => {}
        }
    }
}

impl Tracer for SpanCollector {
    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        self.observe(t_us, rec);
    }
}

/// A cloneable handle to a [`SpanCollector`], so the collector can be
/// handed to a simulator as a `Box<dyn Tracer>` (possibly inside a
/// `MultiTracer`) while the caller keeps access to the results.
#[derive(Debug, Clone, Default)]
pub struct SharedCollector(Rc<RefCell<SpanCollector>>);

impl SharedCollector {
    /// Wraps a fresh collector.
    pub fn new() -> Self {
        SharedCollector::default()
    }

    /// Takes the collector out, leaving an empty one behind. Call after
    /// the simulation finished.
    pub fn take(&self) -> SpanCollector {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl Tracer for SharedCollector {
    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        self.0.borrow_mut().observe(t_us, rec);
    }
}

/// Replays a JSONL trace (as written by `cbp_telemetry::JsonlTracer`)
/// into a [`SpanCollector`].
pub fn collect_jsonl<R: BufRead>(input: R) -> Result<SpanCollector, TraceReadError> {
    let mut collector = SpanCollector::new();
    for item in JsonlReader::new(input)? {
        let (t_us, rec) = item?;
        collector.observe(t_us, &rec);
    }
    Ok(collector)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds a stream that must be well formed: a record the collector
    /// rejects fails the test with its witness.
    fn feed(collector: &mut SpanCollector, stream: &[(u64, TraceRecord)]) {
        feed_any(collector, stream);
        assert_eq!(
            collector.malformed(),
            0,
            "first: {:?}",
            collector.first_malformed()
        );
    }

    /// Feeds a stream that may hold malformed records.
    fn feed_any(collector: &mut SpanCollector, stream: &[(u64, TraceRecord)]) {
        for (t, rec) in stream {
            collector.observe(*t, rec);
        }
    }

    fn submit(task: u64) -> TraceRecord {
        TraceRecord::TaskSubmit {
            task,
            job: 1,
            priority: 0,
        }
    }

    fn sched(task: u64, restore: bool) -> TraceRecord {
        TraceRecord::TaskSchedule {
            task,
            node: 0,
            restore,
        }
    }

    fn evict(task: u64, reason: &'static str) -> TraceRecord {
        TraceRecord::TaskEvict {
            task,
            node: 0,
            reason,
        }
    }

    #[test]
    fn uninterrupted_task_is_pure_run_and_wait() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (100, submit(1)),
                (150, sched(1, false)),
                (1_150, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let span = c.task(1).unwrap();
        assert!(span.finished());
        assert_eq!(span.blame().ready_wait_us, 50);
        assert_eq!(span.blame().run_us, 1_000);
        assert_eq!(span.blame().penalty_us(), 50);
        assert_eq!(span.response_us(), Some(1_050));
        assert_eq!(c.nodes()[&0].finishes, 1);
    }

    #[test]
    fn dump_restore_cycle_tiles_exactly() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (10, sched(1, false)),
                // Ran 90, evicted for a dump; device starts at 110,
                // finishes at 140: ckpt_wait 10, dump 30.
                (100, evict(1, "dump")),
                (
                    140,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 110,
                    },
                ),
                // Suspended 60, restore placed at 200; device starts at
                // 205, done at 230: ckpt_wait 5, restore 25.
                (200, sched(1, true)),
                (
                    230,
                    TraceRecord::RestoreDone {
                        task: 1,
                        node: 0,
                        start_us: 205,
                    },
                ),
                (300, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let b = c.task(1).unwrap().blame();
        assert_eq!(b.ready_wait_us, 10);
        assert_eq!(b.run_us, 90 + 70);
        assert_eq!(b.ckpt_wait_us, 10 + 5);
        assert_eq!(b.dump_us, 30);
        assert_eq!(b.suspended_us, 60);
        assert_eq!(b.restore_us, 25);
        assert_eq!(b.lost_us, 0);
        assert_eq!(b.total_us(), 300);
        assert_eq!(c.task(1).unwrap().dumps, 1);
        assert_eq!(c.task(1).unwrap().restores, 1);
    }

    #[test]
    fn kill_loses_progress_since_resume_point() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (80, evict(1, "kill")),
                (100, sched(1, false)),
                (250, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let b = c.task(1).unwrap().blame();
        assert_eq!(b.lost_us, 80);
        assert_eq!(b.ready_wait_us, 20);
        assert_eq!(b.run_us, 150);
        assert_eq!(b.total_us(), 250);
        assert_eq!(c.task(1).unwrap().kills, 1);
        assert_eq!(c.nodes()[&0].lost_us, 80);
    }

    #[test]
    fn aborted_dump_loses_held_back_run() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (50, evict(1, "dump")),
                // Grace expires: the dump is abandoned and the task
                // killed. Run 50 and dump-wait 30 are both lost.
                (
                    80,
                    TraceRecord::DumpFallback {
                        task: 1,
                        node: 0,
                        reason: "grace-expired",
                    },
                ),
                (80, evict(1, "kill")),
                (90, sched(1, false)),
                (190, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let span = c.task(1).unwrap();
        assert_eq!(span.blame().lost_us, 80);
        assert_eq!(span.blame().dump_us, 0);
        assert_eq!(span.blame().run_us, 100);
        assert_eq!(span.blame().total_us(), 190);
        assert_eq!(span.fallbacks, 1);
        assert_eq!(span.evictions, 2);
        assert_eq!(span.dumps, 0);
    }

    #[test]
    fn lost_image_reclassifies_saved_run() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (60, evict(1, "dump")),
                (
                    70,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 60,
                    },
                ),
                // The image dies with its node: the next placement is a
                // fresh start, so the 60 µs credited at dump_done are
                // re-executed.
                (100, sched(1, false)),
                (260, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let b = c.task(1).unwrap().blame();
        assert_eq!(b.lost_us, 60);
        assert_eq!(b.run_us, 160);
        assert_eq!(b.dump_us, 10);
        assert_eq!(b.ready_wait_us, 30);
        assert_eq!(b.total_us(), 260);
    }

    #[test]
    fn restore_interrupted_by_failure_is_lost() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (40, evict(1, "dump")),
                (
                    50,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 40,
                    },
                ),
                (60, sched(1, true)),
                // Node fails mid-restore.
                (75, evict(1, "node-fail")),
                // The image survived elsewhere; restore again.
                (90, sched(1, true)),
                (
                    100,
                    TraceRecord::RestoreDone {
                        task: 1,
                        node: 0,
                        start_us: 92,
                    },
                ),
                (200, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let b = c.task(1).unwrap().blame();
        assert_eq!(b.run_us, 40 + 100);
        assert_eq!(b.lost_us, 15, "aborted restore time");
        assert_eq!(b.suspended_us, 10 + 15);
        assert_eq!(b.ckpt_wait_us, 2);
        assert_eq!(b.restore_us, 8);
        assert_eq!(b.dump_us, 10);
        assert_eq!(b.total_us(), 200);
        assert_eq!(c.task(1).unwrap().kills, 1, "node-fail counts as a kill");
    }

    #[test]
    fn start_us_outside_window_is_clamped() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (10, evict(1, "dump")),
                (
                    30,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 5, // before the evict: clamp to 10
                    },
                ),
                (40, sched(1, true)),
                (
                    60,
                    TraceRecord::RestoreDone {
                        task: 1,
                        node: 0,
                        start_us: 99, // after the done: clamp to 60
                    },
                ),
                (100, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let b = c.task(1).unwrap().blame();
        assert_eq!(b.dump_us, 20);
        // dump clamp contributes 0, restore clamp contributes 20.
        assert_eq!(b.ckpt_wait_us, 20);
        assert_eq!(b.restore_us, 0);
        assert_eq!(b.total_us(), 100);
    }

    #[test]
    fn dump_retry_burns_retry_not_lost() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                // Ran 50, evicted for a dump; attempt 0 fails at 70
                // (20 µs burnt), retry succeeds: device starts 75,
                // done 90.
                (50, evict(1, "dump")),
                (
                    70,
                    TraceRecord::DumpFail {
                        task: 1,
                        node: 0,
                        attempt: 0,
                        will_retry: true,
                    },
                ),
                (
                    90,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 75,
                    },
                ),
                (100, sched(1, true)),
                (
                    110,
                    TraceRecord::RestoreDone {
                        task: 1,
                        node: 0,
                        start_us: 102,
                    },
                ),
                (200, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let span = c.task(1).unwrap();
        let b = span.blame();
        assert_eq!(b.retry_us, 20, "failed attempt is retry, not lost");
        assert_eq!(b.run_us, 50 + 90);
        assert_eq!(b.ckpt_wait_us, 5 + 2);
        assert_eq!(b.dump_us, 15);
        assert_eq!(b.restore_us, 8);
        assert_eq!(b.suspended_us, 10);
        assert_eq!(b.lost_us, 0);
        assert_eq!(b.total_us(), 200);
        assert_eq!(span.dump_fails, 1);
        assert_eq!(span.dumps, 1);
        assert_eq!(c.nodes()[&0].retry_us, 20);
    }

    #[test]
    fn exhausted_dump_retries_fall_back_to_kill() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (40, evict(1, "dump")),
                (
                    60,
                    TraceRecord::DumpFail {
                        task: 1,
                        node: 0,
                        attempt: 0,
                        will_retry: true,
                    },
                ),
                (
                    90,
                    TraceRecord::DumpFail {
                        task: 1,
                        node: 0,
                        attempt: 1,
                        will_retry: false,
                    },
                ),
                (
                    90,
                    TraceRecord::DumpFallback {
                        task: 1,
                        node: 0,
                        reason: "dump-fail",
                    },
                ),
                (90, evict(1, "dump-fail")),
                (100, sched(1, false)),
                (200, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let span = c.task(1).unwrap();
        let b = span.blame();
        assert_eq!(b.retry_us, 20 + 30, "both failed attempts are retry");
        assert_eq!(b.lost_us, 40, "run since resume point dies with the kill");
        assert_eq!(b.run_us, 100);
        assert_eq!(b.ready_wait_us, 10);
        assert_eq!(b.total_us(), 200);
        assert_eq!(span.dump_fails, 2);
        assert_eq!(span.fallbacks, 1);
        assert_eq!(span.kills, 1, "dump-fail eviction is a hard kill");
    }

    #[test]
    fn restore_retry_then_scratch_restart() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (30, evict(1, "dump")),
                (
                    40,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 30,
                    },
                ),
                (50, sched(1, true)),
                // Attempt 0 fails transiently at 65, retry from another
                // replica fails for good at 80: restart from scratch.
                (
                    65,
                    TraceRecord::RestoreFail {
                        task: 1,
                        node: 0,
                        attempt: 0,
                        reason: "transient",
                        will_retry: true,
                    },
                ),
                (
                    80,
                    TraceRecord::RestoreFail {
                        task: 1,
                        node: 0,
                        attempt: 1,
                        reason: "corrupt-image",
                        will_retry: false,
                    },
                ),
                (100, sched(1, false)),
                (230, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let span = c.task(1).unwrap();
        let b = span.blame();
        assert_eq!(b.retry_us, 15 + 15);
        assert_eq!(
            b.lost_us, 30,
            "credited run is re-executed after the scratch restart"
        );
        assert_eq!(b.run_us, 130);
        assert_eq!(b.dump_us, 10);
        assert_eq!(b.suspended_us, 10);
        assert_eq!(b.ready_wait_us, 20, "re-queue wait before the fresh start");
        assert_eq!(b.restore_us, 0);
        assert_eq!(b.total_us(), 230);
        assert_eq!(span.restore_fails, 2);
        assert_eq!(span.restores, 0);
    }

    #[test]
    fn integrity_records_credit_without_breaking_tiling() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (30, evict(1, "dump")),
                // Attempt 0 fails at 45; the retry resumes past 64 MB of
                // durable chunks instead of rewriting all 128 MB.
                (
                    45,
                    TraceRecord::DumpFail {
                        task: 1,
                        node: 0,
                        attempt: 0,
                        will_retry: true,
                    },
                ),
                (
                    45,
                    TraceRecord::ChunkDone {
                        task: 1,
                        node: 0,
                        chunk: 1,
                        total: 2,
                    },
                ),
                (
                    45,
                    TraceRecord::ResumeDump {
                        task: 1,
                        node: 0,
                        resumed_bytes: 64_000_000,
                        total_bytes: 128_000_000,
                    },
                ),
                (
                    60,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 50,
                    },
                ),
                (70, sched(1, true)),
                // Validation: one chunk repaired from a replica, a second
                // stays corrupt — the chain is cut and re-read in place.
                (
                    80,
                    TraceRecord::ChunkCorrupt {
                        task: 1,
                        node: 0,
                        image: 7,
                        chunk: 0,
                    },
                ),
                (
                    80,
                    TraceRecord::ChunkRefetch {
                        task: 1,
                        node: 0,
                        chunk: 0,
                        ok: true,
                    },
                ),
                (
                    80,
                    TraceRecord::ChunkRefetch {
                        task: 1,
                        node: 0,
                        chunk: 1,
                        ok: false,
                    },
                ),
                (
                    80,
                    TraceRecord::ChainTruncate {
                        task: 1,
                        node: 0,
                        dropped: 1,
                        kept: 1,
                    },
                ),
                (
                    80,
                    TraceRecord::RestoreFail {
                        task: 1,
                        node: 0,
                        attempt: 0,
                        reason: "corrupt-image",
                        will_retry: true,
                    },
                ),
                (
                    95,
                    TraceRecord::RestoreDone {
                        task: 1,
                        node: 0,
                        start_us: 85,
                    },
                ),
                (195, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let span = c.task(1).unwrap();
        let b = span.blame();
        assert_eq!(b.retry_us, 15 + 10, "failed attempt + truncated read");
        assert_eq!(b.run_us, 130);
        assert_eq!(b.dump_us, 10);
        assert_eq!(b.restore_us, 10);
        assert_eq!(b.ckpt_wait_us, 5 + 5);
        assert_eq!(b.suspended_us, 10);
        assert_eq!(b.total_us(), 195, "integrity records never break tiling");
        assert_eq!(span.resumed_bytes, 64_000_000);
        assert_eq!(span.chunk_refetches, 1, "only the successful refetch");
        assert_eq!(span.chain_truncations, 1);
        assert_eq!(span.restore_fails, 1);
        assert_eq!(c.nodes()[&0].resumed_bytes, 64_000_000);
        assert_eq!(c.malformed(), 0);
    }

    #[test]
    fn escalation_and_repair_are_counted() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (
                    50,
                    TraceRecord::AmEscalate {
                        task: 1,
                        node: 0,
                        waited_us: 50,
                    },
                ),
                (50, evict(1, "kill")),
                (
                    55,
                    TraceRecord::ReplicationRepair {
                        node: 0,
                        blocks: 4,
                        bytes: 1 << 20,
                    },
                ),
                (60, sched(1, false)),
                (160, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        let span = c.task(1).unwrap();
        assert_eq!(span.escalations, 1);
        assert_eq!(span.blame().total_us(), 160);
        assert_eq!(c.nodes()[&0].repairs, 4);
        assert_eq!(c.nodes()[&0].repair_bytes, 1 << 20);
    }

    #[test]
    fn malformed_records_are_counted_and_excluded() {
        // A finish with no schedule: one malformed record, kept as the
        // witness.
        let mut c = SpanCollector::new();
        feed_any(
            &mut c,
            &[
                (0, submit(1)),
                (5, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        assert_eq!(c.malformed(), 1);
        let first = c.first_malformed().expect("a witness");
        assert_eq!(
            (first.index, first.reason),
            (1, "task_finish while not running")
        );
        assert!(matches!(
            first.record,
            TraceRecord::TaskFinish { task: 1, node: 0 }
        ));
        assert_eq!(
            first.to_string(),
            "record 1: task_finish while not running: TaskFinish { task: 1, node: 0 }"
        );

        let mut c = SpanCollector::new();
        assert!(c.first_malformed().is_none());
        feed_any(
            &mut c,
            &[
                (0, submit(1)),
                (5, TraceRecord::TaskFinish { task: 1, node: 0 }),
                (7, evict(9, "kill")), // unknown task
                // Placed before its submission: the schedule goes back in
                // time, so it is malformed and the task stays queued.
                (1_000, submit(2)),
                (500, sched(2, false)),
                (2_000, TraceRecord::TaskFinish { task: 2, node: 0 }),
            ],
        );
        assert_eq!(c.malformed(), 4);
        assert_eq!(c.first_malformed().unwrap().index, 1, "the first is kept");
        assert_eq!(c.task(1).unwrap().malformed, 1);
        assert!(!c.task(1).unwrap().finished());
        let span = c.task(2).unwrap();
        assert_eq!(span.malformed, 2, "the schedule and the finish");
        assert!(!span.finished());
        assert!(
            span.segments.is_empty(),
            "a malformed record adds no segment"
        );
        assert_eq!(span.blame(), Blame::default());
    }

    #[test]
    fn sums_saturate_at_u64_max() {
        // Two kills on one node whose lost work sums past u64::MAX.
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (u64::MAX, evict(1, "kill")),
                (0, submit(2)),
                (0, sched(2, false)),
                (100, evict(2, "kill")),
            ],
        );
        assert_eq!(c.nodes()[&0].lost_us, u64::MAX);
        let mut b = c.task(1).unwrap().blame();
        b.accumulate(&c.task(2).unwrap().blame());
        assert_eq!(b.lost_us, u64::MAX);
        b.run_us = 1;
        assert_eq!(b.total_us(), u64::MAX);

        // Repairs and resumed bytes on one node (and one task) past the
        // maximum.
        let big = 1 << 63;
        for _ in 0..2 {
            c.observe(
                200,
                &TraceRecord::ReplicationRepair {
                    node: 0,
                    blocks: u64::MAX,
                    bytes: big,
                },
            );
            c.observe(
                200,
                &TraceRecord::ResumeDump {
                    task: 1,
                    node: 0,
                    resumed_bytes: big,
                    total_bytes: big,
                },
            );
        }
        let n = &c.nodes()[&0];
        assert_eq!((n.repairs, n.repair_bytes), (u32::MAX, u64::MAX));
        assert_eq!(n.resumed_bytes, u64::MAX);
        assert_eq!(c.task(1).unwrap().resumed_bytes, u64::MAX);
        assert_eq!(c.malformed(), 0, "first: {:?}", c.first_malformed());
    }

    #[test]
    fn shared_collector_round_trips() {
        let shared = SharedCollector::new();
        let mut tracer: Box<dyn Tracer> = Box::new(shared.clone());
        tracer.record(0, &submit(3));
        tracer.record(4, &sched(3, false));
        tracer.record(10, &TraceRecord::TaskFinish { task: 3, node: 2 });
        tracer.finish();
        let collector = shared.take();
        assert_eq!(collector.records(), 3);
        assert_eq!(collector.task(3).unwrap().blame().run_us, 6);
    }

    #[test]
    fn kinds_index_their_place_in_all() {
        for (i, kind) in SegKind::ALL.into_iter().enumerate() {
            assert_eq!(kind.index(), i);
        }
    }

    fn kinds(c: &SpanCollector, task: u64) -> Vec<(SegKind, u64)> {
        c.task(task)
            .unwrap()
            .segments
            .iter()
            .map(|s| (s.kind, s.dur_us()))
            .collect()
    }

    #[test]
    fn segments_tile_dump_restore_cycle() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (10, sched(1, false)),
                (100, evict(1, "dump")),
                (
                    140,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 110,
                    },
                ),
                (200, sched(1, true)),
                (
                    230,
                    TraceRecord::RestoreDone {
                        task: 1,
                        node: 0,
                        start_us: 205,
                    },
                ),
                (300, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        assert_eq!(
            kinds(&c, 1),
            vec![
                (SegKind::ReadyWait, 10),
                (SegKind::Run, 90),
                (SegKind::DumpQueue, 10),
                (SegKind::Dump, 30),
                (SegKind::Suspended, 60),
                (SegKind::RestoreQueue, 5),
                (SegKind::Restore, 25),
                (SegKind::Run, 70),
            ],
        );
        // Blame folds the dump-side and restore-side queues into one.
        assert_eq!(c.task(1).unwrap().blame().ckpt_wait_us, 10 + 5);
    }

    #[test]
    fn segments_mark_aborted_dump_lost() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (50, evict(1, "dump")),
                (80, evict(1, "kill")),
                (90, sched(1, false)),
                (190, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        assert_eq!(
            kinds(&c, 1),
            vec![
                (SegKind::Lost, 50),
                (SegKind::Lost, 30),
                (SegKind::ReadyWait, 10),
                (SegKind::Run, 100),
            ],
        );
    }

    #[test]
    fn segments_reclassify_run_after_lost_image() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (60, evict(1, "dump")),
                (
                    70,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 60,
                    },
                ),
                (100, sched(1, false)),
                (260, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        // The 60 µs credited as run at dump_done are re-executed after
        // the fresh start, so the segment is retroactively lost.
        assert_eq!(
            kinds(&c, 1),
            vec![
                (SegKind::Lost, 60),
                (SegKind::Dump, 10),
                (SegKind::ReadyWait, 30),
                (SegKind::Run, 160),
            ],
        );
    }

    #[test]
    fn segments_cover_dump_retries() {
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (0, sched(1, false)),
                (50, evict(1, "dump")),
                (
                    70,
                    TraceRecord::DumpFail {
                        task: 1,
                        node: 0,
                        attempt: 0,
                        will_retry: true,
                    },
                ),
                (
                    90,
                    TraceRecord::DumpDone {
                        task: 1,
                        node: 0,
                        start_us: 75,
                    },
                ),
                (100, sched(1, true)),
                (
                    110,
                    TraceRecord::RestoreDone {
                        task: 1,
                        node: 0,
                        start_us: 102,
                    },
                ),
                (200, TraceRecord::TaskFinish { task: 1, node: 0 }),
            ],
        );
        assert_eq!(
            kinds(&c, 1),
            vec![
                (SegKind::Run, 50),
                (SegKind::Retry, 20),
                (SegKind::DumpQueue, 5),
                (SegKind::Dump, 15),
                (SegKind::Suspended, 10),
                (SegKind::RestoreQueue, 2),
                (SegKind::Restore, 8),
                (SegKind::Run, 90),
            ],
        );
    }

    #[test]
    fn evicted_never_rescheduled_holds_partial_blame() {
        // A task killed and never placed again (e.g. the trace was cut
        // short): its blame must stay internally consistent — the run
        // since the resume point is lost, nothing is credited as run —
        // and it must report as unfinished so aggregation excludes it.
        let mut c = SpanCollector::new();
        feed(
            &mut c,
            &[
                (0, submit(1)),
                (20, sched(1, false)),
                (90, evict(1, "kill")),
            ],
        );
        let span = c.task(1).unwrap();
        assert!(!span.finished());
        assert_eq!(span.response_us(), None);
        assert_eq!(span.blame().run_us, 0);
        assert_eq!(span.blame().ready_wait_us, 20);
        assert_eq!(span.blame().lost_us, 70);
        assert_eq!(span.blame().total_us(), 90, "blame covers submit..evict");
        assert_eq!(span.kills, 1);
        assert_eq!(
            kinds(&c, 1),
            vec![(SegKind::ReadyWait, 20), (SegKind::Lost, 70)],
        );
    }

    #[test]
    fn bands_cover_all_priorities() {
        for p in 0..=11u8 {
            let b = Band::of_priority(p);
            let (lo, hi) = b.priority_range();
            assert!(p >= lo && p <= hi, "priority {p} in {b:?}");
        }
        assert_eq!(Band::of_priority(200), Band::Production);
    }
}
