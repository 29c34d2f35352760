//! A per-node storage device with a sequential operation queue.

use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimDuration, SimTime};
use cbp_telemetry::Histogram;
use serde::{Deserialize, Serialize};

use crate::media::MediaSpec;

/// The direction of a device operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// A checkpoint dump (write).
    Write,
    /// A restore (read).
    Read,
}

/// The timing of one accepted device operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCompletion {
    /// When the operation actually started (after any queueing).
    pub start: SimTime,
    /// When the operation finishes.
    pub end: SimTime,
    /// How long the operation waited behind earlier operations.
    pub queued: SimDuration,
}

impl OpCompletion {
    /// Total latency from submission to completion.
    pub fn latency(&self) -> SimDuration {
        self.queued + self.end.since(self.start)
    }
}

/// A node-local storage device.
///
/// Operations are serviced strictly in submission order (FIFO): the paper's
/// implementation deliberately serializes checkpoint/restore per node
/// ("sequential checkpoint/restore to limit the number of concurrent
/// checkpoints on each node and minimize interference"), and the
/// ResourceManager consults the queue depth when estimating preemption cost.
///
/// The device also tracks cumulative busy time and bytes moved so the
/// harness can report the paper's Fig. 12 I/O-overhead percentages, and
/// checkpoint capacity usage for the §5.3.3 storage-overhead numbers.
#[derive(Debug, Clone)]
pub struct Device {
    spec: MediaSpec,
    busy_until: SimTime,
    queue_len: usize,
    used: ByteSize,
    peak_used: ByteSize,
    underflows: u64,
    busy_time: SimDuration,
    bytes_written: ByteSize,
    bytes_read: ByteSize,
    ops: u64,
    /// Submission→completion latency of every accepted write, seconds.
    write_latency: Histogram,
    /// Submission→completion latency of every accepted read, seconds.
    read_latency: Histogram,
}

/// Latency buckets shared by the per-device op histograms: 100 µs to
/// ~1.7 h in ×4 steps — wide enough for NVM memcpys and pathological
/// HDD queueing alike.
fn latency_buckets() -> Histogram {
    Histogram::exponential(1e-4, 4.0, 13)
}

impl Device {
    /// Creates an idle, empty device.
    pub fn new(spec: MediaSpec) -> Self {
        Device {
            spec,
            busy_until: SimTime::ZERO,
            queue_len: 0,
            used: ByteSize::ZERO,
            peak_used: ByteSize::ZERO,
            underflows: 0,
            busy_time: SimDuration::ZERO,
            bytes_written: ByteSize::ZERO,
            bytes_read: ByteSize::ZERO,
            ops: 0,
            write_latency: latency_buckets(),
            read_latency: latency_buckets(),
        }
    }

    /// The medium specification.
    pub fn spec(&self) -> &MediaSpec {
        &self.spec
    }

    /// Replaces the medium specification (used by bandwidth sweeps between
    /// runs; does not retime in-flight operations).
    pub fn set_spec(&mut self, spec: MediaSpec) {
        self.spec = spec;
    }

    /// How long a newly submitted operation would wait before starting —
    /// the `queue_time` term of the paper's Algorithm 1.
    pub fn queue_wait(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Number of operations currently queued or in service.
    ///
    /// This is a *model* of outstanding work: callers are expected to drive
    /// simulated time past `busy_until` before the count is meaningful again;
    /// [`Device::on_advance`] folds completed work back in.
    pub fn pending_ops(&self) -> usize {
        self.queue_len
    }

    /// Estimates, without submitting, when a `kind` operation of `size`
    /// submitted at `now` would complete.
    pub fn estimate(&self, now: SimTime, kind: OpKind, size: ByteSize) -> OpCompletion {
        let start = self.busy_until.max(now);
        let service = match kind {
            OpKind::Write => self.spec.write_time(size),
            OpKind::Read => self.spec.read_time(size),
        };
        OpCompletion {
            start,
            end: start + service,
            queued: start.saturating_since(now),
        }
    }

    /// Submits a checkpoint write of `size` bytes at time `now`.
    ///
    /// Returns the operation timing; the caller schedules a completion event
    /// at `.end`.
    pub fn submit_write(&mut self, now: SimTime, size: ByteSize) -> OpCompletion {
        let op = self.estimate(now, OpKind::Write, size);
        self.commit(now, op, OpKind::Write, size);
        op
    }

    /// Submits a restore read of `size` bytes at time `now`.
    pub fn submit_read(&mut self, now: SimTime, size: ByteSize) -> OpCompletion {
        let op = self.estimate(now, OpKind::Read, size);
        self.commit(now, op, OpKind::Read, size);
        op
    }

    /// Submits an operation whose service time was computed externally
    /// (e.g. an HDFS pipelined transfer that is slower than the raw device),
    /// still honouring this device's FIFO queue and accounting.
    pub fn submit_custom(
        &mut self,
        now: SimTime,
        kind: OpKind,
        size: ByteSize,
        service: SimDuration,
    ) -> OpCompletion {
        let start = self.busy_until.max(now);
        let op = OpCompletion {
            start,
            end: start + service,
            queued: start.saturating_since(now),
        };
        self.commit(now, op, kind, size);
        op
    }

    fn commit(&mut self, now: SimTime, op: OpCompletion, kind: OpKind, size: ByteSize) {
        let _prof = cbp_prof::scope("device_submit");
        self.on_advance(now);
        self.busy_until = op.end;
        self.queue_len += 1;
        self.ops += 1;
        self.busy_time += op.end.since(op.start);
        let latency = op.latency().as_secs_f64();
        match kind {
            OpKind::Write => {
                self.bytes_written += size;
                self.write_latency.record(latency);
            }
            OpKind::Read => {
                self.bytes_read += size;
                self.read_latency.record(latency);
            }
        }
    }

    /// Informs the device that simulated time has reached `now`, so finished
    /// operations can be drained from the pending count.
    pub fn on_advance(&mut self, now: SimTime) {
        if now >= self.busy_until {
            self.queue_len = 0;
        }
    }

    /// Reserves `size` bytes of checkpoint storage.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the device would exceed its capacity; the
    /// reservation is not applied.
    pub fn reserve(&mut self, size: ByteSize) -> Result<(), CapacityError> {
        let new_used = self.used + size;
        if new_used > self.spec.capacity() {
            return Err(CapacityError {
                requested: size,
                used: self.used,
                capacity: self.spec.capacity(),
            });
        }
        self.used = new_used;
        self.peak_used = self.peak_used.max(self.used);
        Ok(())
    }

    /// Releases `size` bytes of checkpoint storage (e.g. after the image is
    /// deleted on restore).
    ///
    /// Over-releasing never wraps: the usage saturates at zero and the
    /// mismatch is recorded in [`Device::accounting_underflows`] so the
    /// metrics registry can surface the accounting bug instead of a
    /// release-build `used` counter silently wrapping to ~2^64 bytes.
    pub fn release(&mut self, size: ByteSize) {
        if size > self.used {
            self.underflows += 1;
        }
        self.used = self.used.saturating_sub(size);
    }

    /// How many [`Device::release`] calls tried to release more than was
    /// reserved. Non-zero means a double-free in chain accounting.
    pub fn accounting_underflows(&self) -> u64 {
        self.underflows
    }

    /// Bytes a new dump reservation may still claim.
    ///
    /// Reservations are taken at dump *submission* (not completion), so
    /// `used` — and therefore this headroom — already accounts for every
    /// queued-but-unfinished dump on the device: a dump placed against it
    /// cannot oversubscribe the device however deep its queue is.
    pub fn headroom(&self) -> ByteSize {
        self.free_capacity()
    }

    /// Bytes currently holding checkpoint images.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// Bytes of checkpoint capacity still free.
    pub fn free_capacity(&self) -> ByteSize {
        self.spec.capacity().saturating_sub(self.used)
    }

    /// High-water mark of checkpoint storage.
    pub fn peak_used(&self) -> ByteSize {
        self.peak_used
    }

    /// Fraction of capacity currently used, in `[0, 1]`.
    pub fn used_fraction(&self) -> f64 {
        self.used.as_u64() as f64 / self.spec.capacity().as_u64() as f64
    }

    /// Peak fraction of capacity used, in `[0, 1]` (the §5.3.3 storage
    /// overhead metric).
    pub fn peak_used_fraction(&self) -> f64 {
        self.peak_used.as_u64() as f64 / self.spec.capacity().as_u64() as f64
    }

    /// Cumulative time the device has spent servicing operations.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Fraction of wall-clock time `[0, horizon]` the device was busy — the
    /// paper's Fig. 12b "I/O overhead" under its worst-case full-bandwidth
    /// assumption.
    pub fn busy_fraction(&self, horizon: SimDuration) -> f64 {
        if horizon.is_zero() {
            return 0.0;
        }
        (self.busy_time.as_secs_f64() / horizon.as_secs_f64()).min(1.0)
    }

    /// Total bytes written (checkpoint dumps).
    pub fn bytes_written(&self) -> ByteSize {
        self.bytes_written
    }

    /// Total bytes read (restores).
    pub fn bytes_read(&self) -> ByteSize {
        self.bytes_read
    }

    /// Total operations accepted.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Latency histogram (seconds, submission→completion) of accepted
    /// writes.
    pub fn write_latency(&self) -> &Histogram {
        &self.write_latency
    }

    /// Latency histogram (seconds, submission→completion) of accepted
    /// reads.
    pub fn read_latency(&self) -> &Histogram {
        &self.read_latency
    }
}

/// Returned when a checkpoint reservation would exceed device capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityError {
    /// The rejected reservation size.
    pub requested: ByteSize,
    /// Bytes already in use.
    pub used: ByteSize,
    /// Device capacity.
    pub capacity: ByteSize,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "checkpoint storage full: requested {} with {} of {} in use",
            self.requested, self.used, self.capacity
        )
    }
}

impl std::error::Error for CapacityError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::media::MediaSpec;
    use cbp_simkit::units::Bandwidth;

    fn test_spec() -> MediaSpec {
        // 100 MB/s both ways, no setup latency, 1 GB capacity: easy numbers.
        MediaSpec::custom(
            crate::MediaKind::Ssd,
            Bandwidth::from_mb_per_sec(100),
            Bandwidth::from_mb_per_sec(100),
            SimDuration::ZERO,
            ByteSize::from_gb(1),
        )
    }

    #[test]
    fn single_write_timing() {
        let mut dev = Device::new(test_spec());
        let op = dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100));
        assert_eq!(op.start, SimTime::ZERO);
        assert_eq!(op.end, SimTime::from_secs(1));
        assert_eq!(op.queued, SimDuration::ZERO);
        assert_eq!(op.latency(), SimDuration::from_secs(1));
    }

    #[test]
    fn fifo_queueing_accumulates_wait() {
        let mut dev = Device::new(test_spec());
        let a = dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100));
        let b = dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100));
        assert_eq!(a.queued, SimDuration::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(b.queued, SimDuration::from_secs(1));
        assert_eq!(b.end, SimTime::from_secs(2));
        assert_eq!(dev.pending_ops(), 2);
        assert_eq!(dev.queue_wait(SimTime::ZERO), SimDuration::from_secs(2));
    }

    #[test]
    fn queue_drains_with_time() {
        let mut dev = Device::new(test_spec());
        dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100));
        dev.on_advance(SimTime::from_secs(2));
        assert_eq!(dev.pending_ops(), 0);
        assert_eq!(dev.queue_wait(SimTime::from_secs(2)), SimDuration::ZERO);
        // A later op starts immediately.
        let op = dev.submit_read(SimTime::from_secs(2), ByteSize::from_mb(50));
        assert_eq!(op.queued, SimDuration::ZERO);
        assert_eq!(
            op.end,
            SimTime::from_secs(2) + SimDuration::from_millis(500)
        );
    }

    #[test]
    fn estimate_matches_submit_but_does_not_mutate() {
        let mut dev = Device::new(test_spec());
        let est = dev.estimate(SimTime::ZERO, OpKind::Write, ByteSize::from_mb(10));
        assert_eq!(dev.pending_ops(), 0);
        let real = dev.submit_write(SimTime::ZERO, ByteSize::from_mb(10));
        assert_eq!(est, real);
    }

    #[test]
    fn capacity_accounting() {
        let mut dev = Device::new(test_spec());
        dev.reserve(ByteSize::from_mb(600)).unwrap();
        assert!((dev.used_fraction() - 0.6).abs() < 1e-12);
        let err = dev.reserve(ByteSize::from_mb(600)).unwrap_err();
        assert_eq!(err.requested, ByteSize::from_mb(600));
        assert_eq!(dev.used(), ByteSize::from_mb(600)); // unchanged on error
        dev.reserve(ByteSize::from_mb(400)).unwrap();
        assert_eq!(dev.peak_used(), ByteSize::from_gb(1));
        dev.release(ByteSize::from_mb(1000));
        assert_eq!(dev.used(), ByteSize::ZERO);
        assert!((dev.peak_used_fraction() - 1.0).abs() < 1e-12);
        let msg = err.to_string();
        assert!(msg.contains("checkpoint storage full"), "{msg}");
    }

    #[test]
    fn busy_time_and_io_overhead() {
        let mut dev = Device::new(test_spec());
        dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100)); // 1 s
        dev.submit_read(SimTime::from_secs(5), ByteSize::from_mb(200)); // 2 s
        assert_eq!(dev.busy_time(), SimDuration::from_secs(3));
        assert!((dev.busy_fraction(SimDuration::from_secs(10)) - 0.3).abs() < 1e-12);
        assert_eq!(dev.bytes_written(), ByteSize::from_mb(100));
        assert_eq!(dev.bytes_read(), ByteSize::from_mb(200));
        assert_eq!(dev.ops(), 2);
        assert_eq!(dev.busy_fraction(SimDuration::ZERO), 0.0);
    }

    #[test]
    fn submit_custom_queues_like_native_ops() {
        let mut dev = Device::new(test_spec());
        dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100)); // busy 1 s
        let op = dev.submit_custom(
            SimTime::ZERO,
            OpKind::Write,
            ByteSize::from_mb(10),
            SimDuration::from_secs(5),
        );
        assert_eq!(op.start, SimTime::from_secs(1));
        assert_eq!(op.end, SimTime::from_secs(6));
        assert_eq!(op.queued, SimDuration::from_secs(1));
        assert_eq!(dev.bytes_written(), ByteSize::from_mb(110));
        assert_eq!(dev.busy_time(), SimDuration::from_secs(6));
    }

    #[test]
    fn latency_histograms_record_ops() {
        let mut dev = Device::new(test_spec());
        dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100)); // 1 s service
        dev.submit_read(SimTime::ZERO, ByteSize::from_mb(100)); // 1 s queued + 1 s
        assert_eq!(dev.write_latency().count(), 1);
        assert_eq!(dev.read_latency().count(), 1);
        assert!((dev.write_latency().sum() - 1.0).abs() < 1e-9);
        assert!((dev.read_latency().sum() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn over_release_saturates_and_counts_underflow() {
        // Regression: in release builds the old debug_assert compiled away
        // and `used` depended on ByteSize::saturating_sub alone with no
        // visibility. Over-release must clamp at zero and be counted.
        let mut dev = Device::new(test_spec());
        dev.reserve(ByteSize::from_mb(100)).unwrap();
        assert_eq!(dev.accounting_underflows(), 0);
        dev.release(ByteSize::from_mb(300)); // 200 MB more than reserved
        assert_eq!(dev.used(), ByteSize::ZERO, "must saturate, never wrap");
        assert_eq!(dev.accounting_underflows(), 1);
        dev.release(ByteSize::from_mb(1));
        assert_eq!(dev.accounting_underflows(), 2);
        // Exact releases never count.
        dev.reserve(ByteSize::from_mb(50)).unwrap();
        dev.release(ByteSize::from_mb(50));
        assert_eq!(dev.accounting_underflows(), 2);
        // The device remains fully usable afterwards.
        assert_eq!(dev.free_capacity(), dev.spec().capacity());
    }

    #[test]
    fn headroom_reflects_queued_reservations() {
        let mut dev = Device::new(test_spec());
        assert_eq!(dev.headroom(), ByteSize::from_gb(1));
        // A reservation taken at submission shrinks headroom immediately,
        // even though the write has not completed yet.
        dev.reserve(ByteSize::from_mb(600)).unwrap();
        dev.submit_write(SimTime::ZERO, ByteSize::from_mb(600));
        assert_eq!(dev.headroom(), ByteSize::from_mb(400));
        assert!(dev.reserve(ByteSize::from_mb(500)).is_err());
        assert_eq!(
            dev.headroom(),
            ByteSize::from_mb(400),
            "failed reserve must not change headroom"
        );
    }

    #[test]
    fn later_submission_does_not_queue_behind_finished_work() {
        let mut dev = Device::new(test_spec());
        dev.submit_write(SimTime::ZERO, ByteSize::from_mb(100)); // ends at 1 s
        let op = dev.submit_write(SimTime::from_secs(10), ByteSize::from_mb(100));
        assert_eq!(op.start, SimTime::from_secs(10));
        assert_eq!(op.queued, SimDuration::ZERO);
    }
}
