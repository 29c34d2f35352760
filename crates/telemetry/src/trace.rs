//! Structured, sim-time-stamped event tracing.
//!
//! The simulators emit typed [`TraceRecord`]s through a [`Tracer`] trait
//! object. Three sinks are provided:
//!
//! * [`NullTracer`] — the default; `enabled()` returns `false`, so a call
//!   site can skip building a record that only the tracer reads.
//! * [`JsonlTracer`] — one JSON object per line with a fixed field order,
//!   so the same seed produces byte-identical output.
//! * [`ChromeTraceTracer`] — a `chrome://tracing` / Perfetto-compatible
//!   `trace.json` where nodes are "threads" and dump/restore are duration
//!   events.
//!
//! [`MultiTracer`] fans a single record stream out to several sinks.

use std::io::Write;
use std::sync::{Arc, OnceLock};

use crate::json;

/// What a preemption decision resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PreemptAction {
    /// The victim is killed and its work since the last checkpoint is lost.
    Kill,
    /// The victim is checkpointed (dumped) so it can be restored later.
    Checkpoint,
}

impl PreemptAction {
    fn as_str(self) -> &'static str {
        match self {
            PreemptAction::Kill => "kill",
            PreemptAction::Checkpoint => "checkpoint",
        }
    }
}

/// A typed, sim-time-stamped trace record.
///
/// All fields are `Copy` (strings are `&'static str`) so simulators can
/// construct records inline without fighting the borrow checker, and so
/// tracing a record can never allocate when the tracer is disabled.
///
/// Timestamps are *not* part of the record: they are passed separately to
/// [`Tracer::record`] as integer microseconds of simulated time.
#[derive(Debug, Clone, Copy)]
pub enum TraceRecord {
    /// A task entered the pending queue.
    TaskSubmit {
        /// Task id (simulator-scoped).
        task: u64,
        /// Owning job id.
        job: u64,
        /// Scheduler priority (0..=11 in the Google trace).
        priority: u8,
    },
    /// A task was placed on a node and started (or resumed) running.
    TaskSchedule {
        /// Task id.
        task: u64,
        /// Node the task was placed on.
        node: u32,
        /// True if the task resumes from a checkpoint image.
        restore: bool,
    },
    /// A task ran to completion.
    TaskFinish {
        /// Task id.
        task: u64,
        /// Node the task finished on.
        node: u32,
    },
    /// A task was evicted from its node (killed, dumped, or failed).
    TaskEvict {
        /// Task id.
        task: u64,
        /// Node the task was evicted from.
        node: u32,
        /// Why the eviction happened. Vocabulary: `"kill"` (scheduler
        /// kill), `"dump"` (checkpoint-then-evict), `"dump-fail"`
        /// (eviction after a failed dump), `"node-fail"` (the host
        /// died organically, MTBF model), `"node-crash"` (a chaos-plan
        /// crash took the host down), and `"am-escalate"` (YarnSim: the
        /// application master ignored the graceful-preemption deadline
        /// and the RM forced the kill). Analyzers treat every reason
        /// except `"dump"` as a hard kill for lost-work accounting.
        reason: &'static str,
    },
    /// The scheduler chose what to do with a preemption victim.
    PreemptDecision {
        /// Victim task id.
        victim: u64,
        /// Node the victim runs on.
        node: u32,
        /// The resolved action.
        action: PreemptAction,
        /// Configured policy name (e.g. `"kill"`, `"checkpoint"`,
        /// `"adaptive"`).
        policy: &'static str,
        /// Why this action was chosen (e.g. `"policy"`,
        /// `"progress-at-risk"`).
        reason: &'static str,
    },
    /// A checkpoint dump started.
    DumpStart {
        /// Task being dumped.
        task: u64,
        /// Node the dump runs on.
        node: u32,
        /// Target device (e.g. `"hdd"`, `"ssd"`, `"nvm"`).
        device: &'static str,
        /// Bytes to be written.
        bytes: u64,
        /// True for an incremental (pre-dump-based) dump.
        incremental: bool,
    },
    /// A checkpoint dump finished.
    DumpDone {
        /// Task that was dumped.
        task: u64,
        /// Node the dump ran on.
        node: u32,
        /// Sim time (µs) the matching [`TraceRecord::DumpStart`] carried.
        start_us: u64,
    },
    /// A dump could not proceed and the victim fell back to a kill.
    DumpFallback {
        /// Task that fell back.
        task: u64,
        /// Node involved.
        node: u32,
        /// Why the fallback happened. Vocabulary: `"no-capacity"` (no
        /// device could absorb the image), `"storage-full"` (target
        /// device out of space), `"node-fail"` / `"node-crash"` (the
        /// host died mid-dump), `"breaker-open"` (the checkpoint
        /// path's circuit breaker degraded the preemption to a kill),
        /// and `"no-space"` (the image-lifecycle ladder — GC, eviction,
        /// spill — still could not find room for the image).
        reason: &'static str,
    },
    /// A checkpoint dump attempt failed (fault injection); the victim
    /// either retries after backoff or falls back to a kill.
    DumpFail {
        /// Task whose dump failed.
        task: u64,
        /// Node the dump ran on.
        node: u32,
        /// 0-based attempt index that failed.
        attempt: u32,
        /// Whether a retry is scheduled (`false` ⇒ kill fallback next).
        will_retry: bool,
    },
    /// A checkpoint restore attempt failed (fault injection); the task
    /// either retries from a surviving replica or restarts from scratch.
    RestoreFail {
        /// Task whose restore failed.
        task: u64,
        /// Node the restore ran on.
        node: u32,
        /// 0-based attempt index that failed.
        attempt: u32,
        /// Failure class (`"transient"`, `"corrupt-image"`,
        /// `"blocks-lost"`).
        reason: &'static str,
        /// Whether a retry is scheduled (`false` ⇒ restart from
        /// scratch).
        will_retry: bool,
    },
    /// The RM escalated an unresponsive AM's preemption request to a
    /// forced kill.
    AmEscalate {
        /// Victim task whose AM ignored the request.
        task: u64,
        /// Node the victim runs on.
        node: u32,
        /// How long the RM waited before escalating (µs).
        waited_us: u64,
    },
    /// HDFS re-replicated blocks lost with a failed datanode.
    ReplicationRepair {
        /// The failed datanode's node id.
        node: u32,
        /// Number of under-replicated blocks repaired.
        blocks: u64,
        /// Total bytes copied to restore the replication factor.
        bytes: u64,
    },
    /// A checkpoint restore started.
    RestoreStart {
        /// Task being restored.
        task: u64,
        /// Node the task restores onto.
        node: u32,
        /// Node holding the checkpoint image.
        origin: u32,
        /// Device the image is read from.
        device: &'static str,
        /// Bytes to read.
        bytes: u64,
        /// True if the image lives on a different node than the restore
        /// target.
        remote: bool,
    },
    /// A checkpoint restore finished.
    RestoreDone {
        /// Task that was restored.
        task: u64,
        /// Node the restore ran on.
        node: u32,
        /// Sim time (µs) the matching [`TraceRecord::RestoreStart`]
        /// carried.
        start_us: u64,
    },
    /// A node failed; its tasks are lost or must be restored elsewhere.
    NodeFail {
        /// The failed node.
        node: u32,
    },
    /// A failed node came back.
    NodeRecover {
        /// The recovered node.
        node: u32,
    },
    /// A chaos-plan crash took the node down (correlated failure-domain
    /// injection, distinct from [`TraceRecord::NodeFail`]'s organic MTBF
    /// failure). Running tasks are lost and the node's DFS replicas are
    /// unreadable until [`TraceRecord::NodeUp`].
    NodeDown {
        /// The crashed node.
        node: u32,
    },
    /// A chaos-crashed node came back up and re-registered with the DFS.
    NodeUp {
        /// The recovered node.
        node: u32,
    },
    /// A network partition isolated a rack: remote reads/writes across
    /// the partition pay the plan's penalty until
    /// [`TraceRecord::PartitionEnd`].
    PartitionStart {
        /// The isolated rack.
        rack: u32,
    },
    /// The network partition healed.
    PartitionEnd {
        /// The rack that was isolated.
        rack: u32,
    },
    /// A checkpoint-path circuit breaker tripped open: preemption on the
    /// affected node(s) degrades to kill (`DumpFallback("breaker-open")`)
    /// until a half-open probe succeeds.
    BreakerOpen {
        /// The node whose breaker opened (0 when `global`).
        node: u32,
        /// True for the cluster-wide breaker.
        global: bool,
    },
    /// A circuit breaker closed after a successful half-open probe.
    BreakerClose {
        /// The node whose breaker closed (0 when `global`).
        node: u32,
        /// True for the cluster-wide breaker.
        global: bool,
    },
    /// An image-lifecycle GC pass reclaimed dead reservations (leaked
    /// bytes, stale chains) on a pressured device.
    GcPass {
        /// The node whose device was collected.
        node: u32,
        /// Bytes reclaimed by the pass.
        reclaimed: u64,
        /// Live chains discarded as dead/stale (0 when only leaked
        /// reservations were reclaimed).
        chains: u64,
    },
    /// The lifecycle manager evicted a live checkpoint chain to make
    /// room for a new dump; the owning task falls back to a scratch
    /// restart on its next placement.
    ImageEvict {
        /// Task whose chain was evicted.
        task: u64,
        /// Node whose device held (and reclaimed) the chain bytes.
        node: u32,
        /// Bytes freed on that device.
        bytes: u64,
    },
    /// A dump that did not fit locally was spilled to a remote node's
    /// device via the DFS (pipeline cost now, remote restore later).
    ImageSpill {
        /// Task being dumped.
        task: u64,
        /// Node the task runs on (where the dump originated).
        node: u32,
        /// Remote node whose device absorbed the image.
        origin: u32,
        /// Bytes written remotely.
        bytes: u64,
    },
    /// The whole degradation ladder (GC → evict → spill) failed to place
    /// an image; the matching `DumpFallback("no-space")` kill follows.
    NoSpace {
        /// Task whose dump was abandoned.
        task: u64,
        /// Node the task runs on.
        node: u32,
        /// Bytes the dump needed and could not get anywhere.
        wanted: u64,
    },
    /// A dump interruption left a durable chunk frontier behind: chunks
    /// `0..=chunk` survived and the resumed retry starts after them.
    /// Emitted at interruption time (not per chunk — a healthy dump would
    /// otherwise emit hundreds of lines).
    ChunkDone {
        /// Task being dumped.
        task: u64,
        /// Node the dump ran on.
        node: u32,
        /// Highest durable chunk index (0-based).
        chunk: u64,
        /// Total chunks in the transfer.
        total: u64,
    },
    /// Restore-time validation flagged a chunk of a chain image as
    /// corrupt.
    ChunkCorrupt {
        /// Task being restored.
        task: u64,
        /// Node the restore runs on.
        node: u32,
        /// Id of the image the chunk belongs to.
        image: u64,
        /// Corrupt chunk index (0-based).
        chunk: u64,
    },
    /// A targeted re-fetch of a corrupt chunk from a DFS replica.
    ChunkRefetch {
        /// Task being restored.
        task: u64,
        /// Node the restore runs on.
        node: u32,
        /// Chunk index that was re-fetched.
        chunk: u64,
        /// Whether the replica read repaired the chunk.
        ok: bool,
    },
    /// A failed dump's retry resumed from its durable chunk frontier
    /// instead of re-dumping from byte zero.
    ResumeDump {
        /// Task being dumped.
        task: u64,
        /// Node the dump runs on.
        node: u32,
        /// Bytes already durable that the retry skips.
        resumed_bytes: u64,
        /// Total bytes of the dump.
        total_bytes: u64,
    },
    /// Chain validation truncated a task's image chain to its longest
    /// valid prefix; the task restores from an older image.
    ChainTruncate {
        /// Task whose chain was truncated.
        task: u64,
        /// Node the restore runs on.
        node: u32,
        /// Images dropped from the invalid suffix.
        dropped: u64,
        /// Images surviving in the valid prefix.
        kept: u64,
    },
    /// The pending-queue depth changed.
    QueueDepth {
        /// New total number of pending tasks.
        pending: u64,
    },
}

impl TraceRecord {
    /// Node the record is about, if any (used for Chrome trace tids).
    fn node(&self) -> Option<u32> {
        match *self {
            TraceRecord::TaskSubmit { .. }
            | TraceRecord::QueueDepth { .. }
            | TraceRecord::PartitionStart { .. }
            | TraceRecord::PartitionEnd { .. }
            | TraceRecord::BreakerOpen { .. }
            | TraceRecord::BreakerClose { .. } => None,
            TraceRecord::TaskSchedule { node, .. }
            | TraceRecord::TaskFinish { node, .. }
            | TraceRecord::TaskEvict { node, .. }
            | TraceRecord::PreemptDecision { node, .. }
            | TraceRecord::DumpStart { node, .. }
            | TraceRecord::DumpDone { node, .. }
            | TraceRecord::DumpFallback { node, .. }
            | TraceRecord::DumpFail { node, .. }
            | TraceRecord::RestoreFail { node, .. }
            | TraceRecord::AmEscalate { node, .. }
            | TraceRecord::ReplicationRepair { node, .. }
            | TraceRecord::RestoreStart { node, .. }
            | TraceRecord::RestoreDone { node, .. }
            | TraceRecord::GcPass { node, .. }
            | TraceRecord::ImageEvict { node, .. }
            | TraceRecord::ImageSpill { node, .. }
            | TraceRecord::NoSpace { node, .. }
            | TraceRecord::ChunkDone { node, .. }
            | TraceRecord::ChunkCorrupt { node, .. }
            | TraceRecord::ChunkRefetch { node, .. }
            | TraceRecord::ResumeDump { node, .. }
            | TraceRecord::ChainTruncate { node, .. }
            | TraceRecord::NodeFail { node }
            | TraceRecord::NodeRecover { node }
            | TraceRecord::NodeDown { node }
            | TraceRecord::NodeUp { node } => Some(node),
        }
    }
}

/// The JSONL layout of every record kind: its variant, its `event` name
/// and its payload fields in the order they are written, each with the
/// rule the reader decodes it by. The JSON key of a field is its name.
///
/// This table is the one place the layouts are spelt out. It is handed to
/// the macro named `$m`, and every piece of code that writes or reads a
/// record's fields is expanded from it: [`TraceRecord::name`], the payload
/// emitter shared by [`JsonlTracer`] and [`ChromeTraceTracer`], and both
/// decoders of [`crate::reader`]. So the order the emitter writes is the
/// order the canonical-line decoder expects.
///
/// Decode rules: `u64`; `id32`, a node or rack id that is an error above
/// `u32::MAX`; `sat32` and `sat8`, clamped to `u32` and `u8`; `bool`;
/// `str`, interned into the static vocabulary; and `action`, a
/// [`PreemptAction`].
macro_rules! record_layouts {
    ($m:ident) => {
        $m! {
            TaskSubmit "task_submit" { task: u64, job: u64, priority: sat8 },
            TaskSchedule "task_schedule" { task: u64, node: id32, restore: bool },
            TaskFinish "task_finish" { task: u64, node: id32 },
            TaskEvict "task_evict" { task: u64, node: id32, reason: str },
            PreemptDecision "preempt_decision" {
                victim: u64, node: id32, action: action, policy: str, reason: str
            },
            DumpStart "dump_start" {
                task: u64, node: id32, device: str, bytes: u64, incremental: bool
            },
            DumpDone "dump_done" { task: u64, node: id32, start_us: u64 },
            DumpFallback "dump_fallback" { task: u64, node: id32, reason: str },
            DumpFail "dump_fail" { task: u64, node: id32, attempt: sat32, will_retry: bool },
            RestoreFail "restore_fail" {
                task: u64, node: id32, attempt: sat32, reason: str, will_retry: bool
            },
            AmEscalate "am_escalate" { task: u64, node: id32, waited_us: u64 },
            ReplicationRepair "replication_repair" { node: id32, blocks: u64, bytes: u64 },
            RestoreStart "restore_start" {
                task: u64, node: id32, origin: id32, device: str, bytes: u64, remote: bool
            },
            RestoreDone "restore_done" { task: u64, node: id32, start_us: u64 },
            NodeFail "node_fail" { node: id32 },
            NodeRecover "node_recover" { node: id32 },
            NodeDown "node_down" { node: id32 },
            NodeUp "node_up" { node: id32 },
            PartitionStart "partition_start" { rack: id32 },
            PartitionEnd "partition_end" { rack: id32 },
            BreakerOpen "breaker_open" { node: id32, global: bool },
            BreakerClose "breaker_close" { node: id32, global: bool },
            GcPass "gc_pass" { node: id32, reclaimed: u64, chains: u64 },
            ImageEvict "image_evict" { task: u64, node: id32, bytes: u64 },
            ImageSpill "image_spill" { task: u64, node: id32, origin: id32, bytes: u64 },
            NoSpace "no_space" { task: u64, node: id32, wanted: u64 },
            ChunkDone "chunk_done" { task: u64, node: id32, chunk: u64, total: u64 },
            ChunkCorrupt "chunk_corrupt" { task: u64, node: id32, image: u64, chunk: u64 },
            ChunkRefetch "chunk_refetch" { task: u64, node: id32, chunk: u64, ok: bool },
            ResumeDump "resume_dump" {
                task: u64, node: id32, resumed_bytes: u64, total_bytes: u64
            },
            ChainTruncate "chain_truncate" { task: u64, node: id32, dropped: u64, kept: u64 },
            QueueDepth "queue_depth" { pending: u64 },
        }
    };
}
pub(crate) use record_layouts;

/// A payload field's value as JSON text.
trait PushJson {
    fn push_json(self, out: &mut String);
}

impl PushJson for u64 {
    fn push_json(self, out: &mut String) {
        json::push_u64(out, self);
    }
}

impl PushJson for u32 {
    fn push_json(self, out: &mut String) {
        json::push_u64(out, self.into());
    }
}

impl PushJson for u8 {
    fn push_json(self, out: &mut String) {
        json::push_u64(out, self.into());
    }
}

impl PushJson for bool {
    fn push_json(self, out: &mut String) {
        out.push_str(if self { "true" } else { "false" });
    }
}

impl PushJson for &str {
    fn push_json(self, out: &mut String) {
        json::push_str_escaped(out, self);
    }
}

impl PushJson for PreemptAction {
    fn push_json(self, out: &mut String) {
        json::push_str_escaped(out, self.as_str());
    }
}

macro_rules! impl_layouts {
    ($($variant:ident $name:literal { $($field:ident: $rule:ident),* $(,)? }),* $(,)?) => {
        impl TraceRecord {
            /// Short stable name of the event kind (used as the JSONL
            /// `event` field and the Chrome trace event name).
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceRecord::$variant { .. } => $name,)*
                }
            }

            /// Appends the record's payload fields as `"key":value` pairs
            /// (comma-prefixed) to a JSON object under construction, in
            /// the order of [`record_layouts`], so output is byte-stable.
            /// With `event`, the `,"event":"name"` member comes first,
            /// written as one literal.
            fn push_fields(&self, event: bool, out: &mut String) {
                match *self {
                    $(TraceRecord::$variant { $($field),* } => {
                        if event {
                            out.push_str(concat!(",\"event\":\"", $name, "\""));
                        }
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.push_json(out);
                        )*
                    })*
                }
            }
        }
    };
}
record_layouts!(impl_layouts);

/// Sink for sim-time-stamped trace records.
///
/// `t_us` is integer microseconds of simulated time (mirroring
/// `SimTime::as_micros`).
pub trait Tracer {
    /// Whether records reach the tracer. A call site can guard a record
    /// that only the tracer reads with this (or a cached copy of it), so
    /// the disabled path costs a single branch.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one record at sim time `t_us`.
    fn record(&mut self, t_us: u64, rec: &TraceRecord);

    /// Flushes and finalizes the sink (e.g. closes the Chrome trace JSON
    /// array). Must be called exactly once, after the last record.
    fn finish(&mut self) {}
}

/// The default tracer: discards everything and reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _t_us: u64, _rec: &TraceRecord) {}
}

/// The first I/O error a file-writing sink ([`JsonlTracer`],
/// [`ChromeTraceTracer`]) met. The sink keeps it here instead of
/// panicking and writes nothing after it, so its output ends early. Take
/// a handle with the sink's `status()` before handing the sink to a
/// simulator, and read it after the run.
#[derive(Debug, Clone, Default)]
pub struct SinkStatus(Arc<OnceLock<std::io::Error>>);

impl SinkStatus {
    /// The first write or flush error, if there was one.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.0.get()
    }
}

/// A writer that keeps its first error in a [`SinkStatus`] and skips
/// every write and flush after it.
struct Latched<W: Write> {
    out: W,
    status: SinkStatus,
}

impl<W: Write> Latched<W> {
    fn new(out: W) -> Self {
        Latched {
            out,
            status: SinkStatus::default(),
        }
    }

    fn write_all(&mut self, bytes: &[u8]) {
        self.attempt(|out| out.write_all(bytes));
    }

    fn flush(&mut self) {
        self.attempt(W::flush);
    }

    fn attempt(&mut self, op: impl FnOnce(&mut W) -> std::io::Result<()>) {
        if self.status.error().is_none() {
            if let Err(e) = op(&mut self.out) {
                let _ = self.status.0.set(e);
            }
        }
    }
}

/// Writes one JSON object per line: `{"t_us":N,"event":"...",...}`.
///
/// The first line is a schema header
/// (`{"schema":"cbp-trace","version":5}`, see
/// [`crate::reader::schema_header`]) so consumers can reject traces
/// written by an incompatible emitter. Field order is fixed (`t_us`,
/// `event`, then per-variant payload), so the same record stream
/// produces byte-identical output.
///
/// A failed write does not panic: the tracer stops writing and keeps the
/// error (see [`SinkStatus`]).
pub struct JsonlTracer<W: Write> {
    out: Latched<W>,
    buf: String,
}

impl<W: Write> JsonlTracer<W> {
    /// Creates a tracer writing to `out`. Writes the schema header line
    /// immediately.
    pub fn new(out: W) -> Self {
        let mut out = Latched::new(out);
        let mut header = crate::reader::schema_header();
        header.push('\n');
        out.write_all(header.as_bytes());
        JsonlTracer {
            out,
            buf: String::with_capacity(256),
        }
    }

    /// A handle on the first write error; it outlives the tracer.
    pub fn status(&self) -> SinkStatus {
        self.out.status.clone()
    }

    /// Unwraps the inner writer (flushing first).
    pub fn into_inner(mut self) -> W {
        self.out.flush();
        self.out.out
    }
}

impl<W: Write> Tracer for JsonlTracer<W> {
    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        self.buf.clear();
        self.buf.push_str("{\"t_us\":");
        json::push_u64(&mut self.buf, t_us);
        // Event names are `[a-z_]+`: nothing to escape.
        rec.push_fields(true, &mut self.buf);
        self.buf.push_str("}\n");
        self.out.write_all(self.buf.as_bytes());
    }

    fn finish(&mut self) {
        self.out.flush();
    }
}

/// Emits `chrome://tracing` / Perfetto-compatible `trace.json`.
///
/// Mapping:
/// * the whole cluster is one process (`pid` 1);
/// * each node is a "thread" (`tid` = node id + 1, with a `thread_name`
///   metadata event emitted lazily the first time a node appears);
/// * dump and restore are duration (`"ph":"X"`) events spanning
///   start→done, reconstructed from the `start_us` carried by the
///   `*Done` records;
/// * preemption decisions, fallbacks, evictions, task schedule/finish and
///   node fail/recover are instant (`"ph":"i"`) events on the node's
///   track;
/// * queue depth is a counter (`"ph":"C"`) track.
///
/// [`Tracer::finish`] must be called to close the JSON array; the output
/// is not valid JSON before that. Like [`JsonlTracer`], the tracer stops
/// writing at the first failed write and keeps the error.
pub struct ChromeTraceTracer<W: Write> {
    out: Latched<W>,
    buf: String,
    first: bool,
    /// Nodes that already have a `thread_name` metadata event.
    named: Vec<bool>,
    finished: bool,
}

impl<W: Write> ChromeTraceTracer<W> {
    /// Creates a tracer writing to `out`. Writes the opening of the
    /// top-level object immediately.
    pub fn new(out: W) -> Self {
        let mut out = Latched::new(out);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        ChromeTraceTracer {
            out,
            buf: String::with_capacity(256),
            first: true,
            named: Vec::new(),
            finished: false,
        }
    }

    /// A handle on the first write error; it outlives the tracer.
    pub fn status(&self) -> SinkStatus {
        self.out.status.clone()
    }

    fn sep(&mut self) {
        if self.first {
            self.first = false;
        } else {
            self.buf.push_str(",\n");
        }
    }

    fn ensure_named(&mut self, node: u32) {
        let idx = node as usize;
        if idx >= self.named.len() {
            self.named.resize(idx + 1, false);
        }
        if self.named[idx] {
            return;
        }
        self.named[idx] = true;
        self.sep();
        let _ = std::fmt::Write::write_fmt(
            &mut self.buf,
            format_args!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"node {}\"}}}}",
                node + 1,
                node
            ),
        );
    }

    /// Emits one event object. `ph` is the Chrome trace phase; `extra` is
    /// appended verbatim after the common fields (must start with `,` if
    /// non-empty).
    fn event(&mut self, name: &str, ph: char, tid: u64, t_us: u64, extra: &str) {
        self.sep();
        self.buf.push('{');
        json::push_key(&mut self.buf, "name");
        json::push_str_escaped(&mut self.buf, name);
        self.buf.push(',');
        json::push_key(&mut self.buf, "ph");
        self.buf.push('"');
        self.buf.push(ph);
        self.buf.push('"');
        self.buf.push_str(",\"pid\":1,\"tid\":");
        json::push_u64(&mut self.buf, tid);
        self.buf.push(',');
        json::push_key(&mut self.buf, "ts");
        json::push_u64(&mut self.buf, t_us);
        self.buf.push_str(extra);
        self.buf.push('}');
    }

    fn flush_buf(&mut self) {
        self.out.write_all(self.buf.as_bytes());
        self.buf.clear();
    }
}

impl<W: Write> Tracer for ChromeTraceTracer<W> {
    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        debug_assert!(!self.finished, "record after finish");
        if let Some(node) = rec.node() {
            self.ensure_named(node);
        }
        let tid = rec.node().map(|n| n as u64 + 1).unwrap_or(0);
        let mut extra = String::new();
        match *rec {
            TraceRecord::DumpDone { task, start_us, .. } => {
                let dur = t_us.saturating_sub(start_us);
                extra.push_str(",\"dur\":");
                json::push_u64(&mut extra, dur);
                extra.push_str(",\"args\":{\"task\":");
                json::push_u64(&mut extra, task);
                extra.push('}');
                // Complete events carry ts = start.
                self.event("dump", 'X', tid, start_us, &extra);
            }
            TraceRecord::RestoreDone { task, start_us, .. } => {
                let dur = t_us.saturating_sub(start_us);
                extra.push_str(",\"dur\":");
                json::push_u64(&mut extra, dur);
                extra.push_str(",\"args\":{\"task\":");
                json::push_u64(&mut extra, task);
                extra.push('}');
                self.event("restore", 'X', tid, start_us, &extra);
            }
            TraceRecord::QueueDepth { pending } => {
                extra.push_str(",\"args\":{\"pending\":");
                json::push_u64(&mut extra, pending);
                extra.push('}');
                self.event("pending_tasks", 'C', 0, t_us, &extra);
            }
            TraceRecord::DumpStart { .. } | TraceRecord::RestoreStart { .. } => {
                // Durations are reconstructed from the *Done records; the
                // start records would only duplicate them.
            }
            _ => {
                // Everything else becomes an instant event with the raw
                // payload as args.
                extra.push_str(",\"s\":\"t\",\"args\":{");
                let mut obj = String::new();
                rec.push_fields(false, &mut obj);
                // push_fields comma-prefixes every pair; drop the leading
                // comma to form a valid object body.
                extra.push_str(obj.strip_prefix(',').unwrap_or(&obj));
                extra.push('}');
                self.event(rec.name(), 'i', tid, t_us, &extra);
            }
        }
        if self.buf.len() >= 8192 {
            self.flush_buf();
        }
    }

    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.buf.push_str("\n]}\n");
        self.flush_buf();
        self.out.flush();
    }
}

/// Fans records out to several sinks. Enabled iff any sink is enabled.
#[derive(Default)]
pub struct MultiTracer {
    sinks: Vec<Box<dyn Tracer>>,
}

impl MultiTracer {
    /// Creates an empty fan-out (equivalent to [`NullTracer`]).
    pub fn new() -> Self {
        MultiTracer { sinks: Vec::new() }
    }

    /// Adds a sink.
    pub fn push(&mut self, sink: Box<dyn Tracer>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// True if no sinks are attached.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl Tracer for MultiTracer {
    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        for s in &mut self.sinks {
            s.record(t_us, rec);
        }
    }

    fn finish(&mut self) {
        for s in &mut self.sinks {
            s.finish();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> Vec<(u64, TraceRecord)> {
        vec![
            (
                0,
                TraceRecord::TaskSubmit {
                    task: 7,
                    job: 3,
                    priority: 9,
                },
            ),
            (0, TraceRecord::QueueDepth { pending: 1 }),
            (
                10,
                TraceRecord::TaskSchedule {
                    task: 7,
                    node: 2,
                    restore: false,
                },
            ),
            (10, TraceRecord::QueueDepth { pending: 0 }),
            (
                20,
                TraceRecord::PreemptDecision {
                    victim: 7,
                    node: 2,
                    action: PreemptAction::Checkpoint,
                    policy: "adaptive",
                    reason: "progress-at-risk",
                },
            ),
            (
                20,
                TraceRecord::DumpStart {
                    task: 7,
                    node: 2,
                    device: "ssd",
                    bytes: 1 << 20,
                    incremental: false,
                },
            ),
            (
                25,
                TraceRecord::TaskEvict {
                    task: 7,
                    node: 2,
                    reason: "dump",
                },
            ),
            (
                30,
                TraceRecord::DumpDone {
                    task: 7,
                    node: 2,
                    start_us: 20,
                },
            ),
            (
                40,
                TraceRecord::RestoreStart {
                    task: 7,
                    node: 5,
                    origin: 2,
                    device: "ssd",
                    bytes: 1 << 20,
                    remote: true,
                },
            ),
            (
                55,
                TraceRecord::RestoreDone {
                    task: 7,
                    node: 5,
                    start_us: 40,
                },
            ),
            (60, TraceRecord::NodeFail { node: 2 }),
            (70, TraceRecord::NodeRecover { node: 2 }),
            (72, TraceRecord::NodeDown { node: 2 }),
            (74, TraceRecord::NodeUp { node: 2 }),
            (76, TraceRecord::PartitionStart { rack: 1 }),
            (78, TraceRecord::PartitionEnd { rack: 1 }),
            (
                79,
                TraceRecord::BreakerOpen {
                    node: 2,
                    global: false,
                },
            ),
            (
                79,
                TraceRecord::BreakerClose {
                    node: 0,
                    global: true,
                },
            ),
            (
                80,
                TraceRecord::DumpFallback {
                    task: 9,
                    node: 1,
                    reason: "no-capacity",
                },
            ),
            (
                82,
                TraceRecord::DumpFail {
                    task: 9,
                    node: 1,
                    attempt: 0,
                    will_retry: true,
                },
            ),
            (
                84,
                TraceRecord::RestoreFail {
                    task: 7,
                    node: 5,
                    attempt: 1,
                    reason: "transient",
                    will_retry: false,
                },
            ),
            (
                86,
                TraceRecord::AmEscalate {
                    task: 9,
                    node: 1,
                    waited_us: 5,
                },
            ),
            (
                88,
                TraceRecord::ReplicationRepair {
                    node: 2,
                    blocks: 3,
                    bytes: 4096,
                },
            ),
            (
                89,
                TraceRecord::GcPass {
                    node: 1,
                    reclaimed: 1 << 21,
                    chains: 1,
                },
            ),
            (
                89,
                TraceRecord::ImageEvict {
                    task: 9,
                    node: 1,
                    bytes: 1 << 20,
                },
            ),
            (
                89,
                TraceRecord::ImageSpill {
                    task: 9,
                    node: 1,
                    origin: 5,
                    bytes: 1 << 20,
                },
            ),
            (
                89,
                TraceRecord::NoSpace {
                    task: 9,
                    node: 1,
                    wanted: 1 << 22,
                },
            ),
            (
                89,
                TraceRecord::DumpFallback {
                    task: 9,
                    node: 1,
                    reason: "no-space",
                },
            ),
            (
                90,
                TraceRecord::ChunkDone {
                    task: 9,
                    node: 1,
                    chunk: 2,
                    total: 8,
                },
            ),
            (
                90,
                TraceRecord::ResumeDump {
                    task: 9,
                    node: 1,
                    resumed_bytes: 3 << 20,
                    total_bytes: 8 << 20,
                },
            ),
            (
                91,
                TraceRecord::ChunkCorrupt {
                    task: 7,
                    node: 5,
                    image: 12,
                    chunk: 4,
                },
            ),
            (
                91,
                TraceRecord::ChunkRefetch {
                    task: 7,
                    node: 5,
                    chunk: 4,
                    ok: true,
                },
            ),
            (
                92,
                TraceRecord::ChainTruncate {
                    task: 7,
                    node: 5,
                    dropped: 2,
                    kept: 1,
                },
            ),
            (95, TraceRecord::TaskFinish { task: 7, node: 5 }),
        ]
    }

    #[test]
    fn jsonl_is_valid_and_byte_stable() {
        let run = || {
            let mut t = JsonlTracer::new(Vec::<u8>::new());
            for (ts, rec) in sample_stream() {
                t.record(ts, &rec);
            }
            t.finish();
            t.into_inner()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same stream must produce byte-identical output");
        let text = String::from_utf8(a).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), sample_stream().len() + 1, "header + records");
        for line in &lines {
            assert!(crate::json::is_valid(line), "invalid JSONL line: {line}");
        }
        assert_eq!(lines[0], crate::reader::schema_header());
        assert!(lines[1].starts_with("{\"t_us\":0,\"event\":\"task_submit\","));
        assert!(text.contains("\"action\":\"checkpoint\""));
        assert!(text.contains("\"policy\":\"adaptive\""));
        assert!(text.contains("\"device\":\"ssd\""));
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let mut t = ChromeTraceTracer::new(Vec::<u8>::new());
        for (ts, rec) in sample_stream() {
            t.record(ts, &rec);
        }
        t.finish();
        // finish() flushed everything into the sink; steal it back.
        let text = {
            // Write a second finish to prove idempotence, then inspect.
            t.finish();
            let ChromeTraceTracer { out, .. } = t;
            String::from_utf8(out.out).unwrap()
        };
        assert!(
            crate::json::is_valid(&text),
            "chrome trace must be one valid JSON value"
        );
        // Dump/restore become complete events with durations.
        assert!(text.contains("\"name\":\"dump\",\"ph\":\"X\""));
        assert!(text.contains("\"name\":\"restore\",\"ph\":\"X\""));
        assert!(text.contains("\"dur\":10"));
        assert!(text.contains("\"dur\":15"));
        // Nodes get thread_name metadata exactly once each.
        assert_eq!(text.matches("\"thread_name\"").count(), 3, "nodes 1, 2, 5");
        // Queue depth is a counter track.
        assert!(text.contains("\"name\":\"pending_tasks\",\"ph\":\"C\""));
    }

    /// A writer with room for `room` bytes; every call after that fails.
    #[derive(Default)]
    struct Full {
        room: usize,
        written: Vec<u8>,
        failed_calls: usize,
    }

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.room == 0 {
                self.failed_calls += 1;
                return Err(std::io::Error::other("device full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            self.written.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            if self.room == 0 {
                self.failed_calls += 1;
                return Err(std::io::Error::other("device full"));
            }
            Ok(())
        }
    }

    #[test]
    fn jsonl_tracer_keeps_the_first_write_error() {
        let header = crate::reader::schema_header().len() + 1;
        for room in [0, header, header + 10] {
            let mut t = JsonlTracer::new(Full {
                room,
                ..Full::default()
            });
            let status = t.status();
            for (ts, rec) in sample_stream() {
                t.record(ts, &rec);
            }
            t.finish();
            let err = status.error().expect("the write error is kept");
            assert_eq!(err.to_string(), "device full", "room {room}");
            let out = t.into_inner();
            assert_eq!(
                out.failed_calls, 1,
                "room {room}: no write after the first failure"
            );
            assert_eq!(out.written.len(), room);
        }
        let mut t = JsonlTracer::new(Vec::new());
        let status = t.status();
        t.record(1, &TraceRecord::NodeFail { node: 0 });
        t.finish();
        assert!(status.error().is_none(), "a healthy sink reports no error");
    }

    #[test]
    fn chrome_tracer_keeps_the_first_write_error() {
        let mut t = ChromeTraceTracer::new(Full {
            room: 100,
            ..Full::default()
        });
        let status = t.status();
        for (ts, rec) in sample_stream() {
            t.record(ts, &rec);
        }
        t.finish();
        assert_eq!(
            status.error().map(ToString::to_string).as_deref(),
            Some("device full")
        );
        assert_eq!(t.out.out.failed_calls, 1);
    }

    #[test]
    fn null_tracer_is_disabled() {
        let mut t = NullTracer;
        assert!(!t.enabled());
        t.record(0, &TraceRecord::NodeFail { node: 0 });
        t.finish();
    }

    #[test]
    fn multi_tracer_fans_out() {
        let mut m = MultiTracer::new();
        assert!(!m.enabled());
        assert!(m.is_empty());
        m.push(Box::new(NullTracer));
        assert!(!m.enabled(), "null sinks do not enable the fan-out");
        m.push(Box::new(JsonlTracer::new(std::io::sink())));
        assert!(m.enabled());
        assert_eq!(m.len(), 2);
        m.record(5, &TraceRecord::QueueDepth { pending: 3 });
        m.finish();
    }
}
