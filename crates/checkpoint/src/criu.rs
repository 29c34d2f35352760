//! The checkpoint/restore engine and cost estimator.

use cbp_simkit::units::ByteSize;
use cbp_simkit::{HandleMap, SimDuration, SimTime};
use cbp_storage::{CapacityError, Device, OpCompletion};

use crate::image::{CheckpointKind, ImageChain, ImageId, ImageRecord};
use crate::integrity::{ChunkManifest, DEFAULT_CHUNK_BYTES};
use crate::lifecycle::ImageLedger;
use crate::memory::TaskMemory;

/// Stream compression applied to checkpoint images (as `criu-image-streamer`
/// deployments do with lz4/zstd): images shrink by `ratio`, but the
/// compressor itself is bandwidth-limited, so the *effective* dump rate is
/// `min(media_write_bw, compress_throughput)` applied to the compressed
/// bytes. Worth it on slow media; pure overhead on NVM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionSpec {
    /// Compressed size as a fraction of the original, in `(0, 1]`.
    pub ratio: f64,
    /// Compressor throughput over *uncompressed* bytes.
    pub throughput: cbp_simkit::units::Bandwidth,
}

impl CompressionSpec {
    /// An lz4-class compressor: 2.2x reduction at ~700 MB/s per core.
    pub fn lz4() -> Self {
        CompressionSpec {
            ratio: 0.45,
            throughput: cbp_simkit::units::Bandwidth::from_mb_per_sec(700),
        }
    }

    /// A zstd-class compressor: 3x reduction at ~350 MB/s per core.
    pub fn zstd() -> Self {
        CompressionSpec {
            ratio: 0.33,
            throughput: cbp_simkit::units::Bandwidth::from_mb_per_sec(350),
        }
    }

    /// Bytes written to storage for `raw` input bytes.
    pub fn compressed_size(&self, raw: ByteSize) -> ByteSize {
        raw.mul_f64(self.ratio.clamp(f64::MIN_POSITIVE, 1.0))
    }
}

/// The outcome of submitting a checkpoint dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpResult {
    /// Device timing (the dump completes at `op.end`).
    pub op: OpCompletion,
    /// Bytes written.
    pub size: ByteSize,
    /// Whether this dump was full or incremental.
    pub kind: CheckpointKind,
    /// Reservations freed because a full dump replaced an older chain:
    /// `(origin_node, bytes)` pairs the caller must release on the owning
    /// devices.
    pub freed: Vec<(u32, ByteSize)>,
}

/// The outcome of submitting a restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreResult {
    /// Device timing (the process resumes at `op.end`).
    pub op: OpCompletion,
    /// Bytes read (the whole image chain).
    pub size: ByteSize,
}

/// The cost estimate of the paper's Algorithm 1:
///
/// ```text
/// overhead_chkpt = size/bw_write + size/bw_read + queue_time_dump
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadEstimate {
    /// `size / bw_write` (plus per-op setup).
    pub dump: SimDuration,
    /// `size / bw_read` (plus per-op setup).
    pub restore: SimDuration,
    /// Time the dump would wait behind other checkpoint operations.
    pub queue: SimDuration,
    /// Bytes the dump would write.
    pub size: ByteSize,
}

impl OverheadEstimate {
    /// The total overhead compared against task progress in Algorithm 1.
    pub fn total(&self) -> SimDuration {
        self.dump + self.restore + self.queue
    }
}

/// The CRIU engine: owns the per-task image catalog and performs dumps and
/// restores against [`Device`]s.
///
/// Task identity is an opaque `u64` supplied by the scheduler layer. See the
/// [crate-level example](crate) for typical usage.
#[derive(Debug, Default)]
pub struct Criu {
    chains: HandleMap<u64, ImageChain>,
    ledger: ImageLedger,
    incremental: bool,
    compression: Option<CompressionSpec>,
    max_chain_len: usize,
    chunk_bytes: u64,
    next_image: u64,
    full_dumps: u64,
    restores: u64,
}

/// Default bound on incremental-chain length before a consolidating full
/// dump (a restore must read the whole chain, so unbounded chains make
/// much-preempted tasks ever more expensive to resume).
pub const DEFAULT_MAX_CHAIN_LEN: usize = 8;

impl Criu {
    /// Creates an engine. `incremental` enables soft-dirty tracking
    /// (`--track-mem`); when disabled every dump is full — the ablation
    /// baseline.
    pub fn new(incremental: bool) -> Self {
        Criu {
            chains: HandleMap::default(),
            ledger: ImageLedger::new(),
            incremental,
            compression: None,
            max_chain_len: DEFAULT_MAX_CHAIN_LEN,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            next_image: 1,
            full_dumps: 0,
            restores: 0,
        }
    }

    /// Returns a copy-builder with a different transfer chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_chunk_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "chunk size must be positive");
        self.chunk_bytes = bytes;
        self
    }

    /// The transfer chunk size manifests are built at.
    pub fn chunk_bytes(&self) -> u64 {
        self.chunk_bytes
    }

    /// Returns a copy-builder with a different chain-length bound (at least
    /// 1). Once a task's chain reaches the bound, the next dump is a full
    /// consolidating dump that replaces the chain.
    pub fn with_max_chain_len(mut self, max: usize) -> Self {
        assert!(max >= 1, "chain bound must be at least 1");
        self.max_chain_len = max;
        self
    }

    /// Returns a copy-builder with stream compression enabled.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ratio <= 1`.
    pub fn with_compression(mut self, spec: CompressionSpec) -> Self {
        assert!(
            spec.ratio > 0.0 && spec.ratio <= 1.0,
            "compression ratio must be in (0, 1]"
        );
        self.compression = Some(spec);
        self
    }

    /// The configured compression, if any.
    pub fn compression(&self) -> Option<&CompressionSpec> {
        self.compression.as_ref()
    }

    /// True if `task` has a restorable image chain.
    pub fn has_image(&self, task: u64) -> bool {
        self.chains.get(&task).is_some_and(|c| !c.is_empty())
    }

    /// Total on-storage size of `task`'s image chain (what a restore reads).
    pub fn image_size(&self, task: u64) -> ByteSize {
        self.chains
            .get(&task)
            .map(ImageChain::total_size)
            .unwrap_or(ByteSize::ZERO)
    }

    /// The image chain for `task`, if any.
    pub fn chain(&self, task: u64) -> Option<&ImageChain> {
        self.chains.get(&task)
    }

    /// Every task with an image chain, in no particular order.
    pub fn chains(&self) -> impl Iterator<Item = (u64, &ImageChain)> {
        self.chains.iter().map(|(&task, chain)| (task, chain))
    }

    /// Bytes the next dump of `task` would write: the dirty bytes if an
    /// incremental dump is possible (image exists and the chain is below the
    /// consolidation bound), else the full footprint.
    pub fn next_dump_size(&self, task: u64, mem: &TaskMemory) -> (ByteSize, bool) {
        let chain_ok = self
            .chains
            .get(&task)
            .is_some_and(|c| !c.is_empty() && c.len() < self.max_chain_len);
        if self.incremental && chain_ok {
            (mem.dirty_bytes(), true)
        } else {
            (mem.size(), false)
        }
    }

    /// Estimates the Algorithm 1 preemption overhead of checkpointing `task`
    /// on `device` at time `now`, without side effects.
    pub fn estimate(
        &self,
        task: u64,
        mem: &TaskMemory,
        device: &Device,
        now: SimTime,
    ) -> OverheadEstimate {
        let (raw, _) = self.next_dump_size(task, mem);
        let spec = device.spec();
        let (size, dump) = match &self.compression {
            Some(c) => {
                let stored = c.compressed_size(raw);
                let t = spec.write_time(stored).max(c.throughput.transfer_time(raw));
                (stored, t)
            }
            None => (raw, spec.write_time(raw)),
        };
        OverheadEstimate {
            dump,
            // Algorithm 1 uses the dump size for the restore term too.
            restore: spec.read_time(size),
            queue: device.queue_wait(now),
            size,
        }
    }

    /// Dumps `task` to `device` at time `now`.
    ///
    /// If incremental tracking is enabled and a chain exists, only the dirty
    /// bytes are written; otherwise the full footprint is. On success the
    /// soft-dirty bits are cleared (the task is stopped during the dump, so
    /// no writes race with the scan).
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the device cannot hold the image; the
    /// catalog and dirty state are unchanged.
    pub fn dump(
        &mut self,
        task: u64,
        mem: &mut TaskMemory,
        origin_node: u32,
        device: &mut Device,
        now: SimTime,
    ) -> Result<DumpResult, CapacityError> {
        self.dump_with(task, mem, origin_node, device, now, None)
    }

    /// Like [`Criu::dump`], but with an externally computed service time
    /// (e.g. an HDFS pipelined write that is slower than the raw device).
    /// The operation still queues FIFO on `device`.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityError`] if the device cannot hold the image.
    pub fn dump_with(
        &mut self,
        task: u64,
        mem: &mut TaskMemory,
        origin_node: u32,
        device: &mut Device,
        now: SimTime,
        service: Option<SimDuration>,
    ) -> Result<DumpResult, CapacityError> {
        let _prof = cbp_prof::scope("criu_dump");
        let (raw_size, is_incremental) = self.next_dump_size(task, mem);
        // Compression shrinks what hits storage, but the dump cannot run
        // faster than the compressor consumes input.
        let (size, service) = match (&self.compression, service) {
            (Some(c), None) => {
                let stored = c.compressed_size(raw_size);
                let write = device.spec().write_time(stored);
                let compress = c.throughput.transfer_time(raw_size);
                (stored, Some(write.max(compress)))
            }
            (Some(c), Some(external)) => {
                let stored = c.compressed_size(raw_size);
                let compress = c.throughput.transfer_time(raw_size);
                (stored, Some(external.max(compress)))
            }
            (None, service) => (raw_size, service),
        };
        device.reserve(size)?;
        self.ledger.add(origin_node, size);
        // A full re-dump (incremental tracking off, or tracking lost)
        // replaces any older chain; the freed reservations are reported to
        // the caller.
        let freed = if !is_incremental {
            match self.chains.get_mut(&task) {
                Some(chain) => chain.clear(),
                None => Vec::new(),
            }
        } else {
            Vec::new()
        };
        for (node, bytes) in &freed {
            self.ledger.sub(*node, *bytes);
        }
        let op = match service {
            Some(service) => device.submit_custom(now, cbp_storage::OpKind::Write, size, service),
            None => device.submit_write(now, size),
        };
        let id = ImageId(self.next_image);
        self.next_image += 1;
        let kind = if is_incremental {
            CheckpointKind::Incremental {
                parent: self
                    .chains
                    .get(&task)
                    .and_then(ImageChain::tip)
                    .expect("incremental dump requires an existing chain")
                    .id,
            }
        } else {
            self.full_dumps += 1;
            CheckpointKind::Full
        };
        self.chains.entry(task).or_default().push(ImageRecord {
            id,
            kind,
            size,
            created: op.end,
            origin_node,
            manifest: ChunkManifest::build(id, size, self.chunk_bytes),
            progress: 0,
        });
        mem.clear_dirty();
        Ok(DumpResult {
            op,
            size,
            kind,
            freed,
        })
    }

    /// Restores `task` by reading its whole image chain from `device` at
    /// time `now`. Returns `None` if the task has no image.
    ///
    /// The images are retained after restore (the task may be preempted
    /// again and dump incrementally on top); call [`Criu::discard`] when the
    /// task finishes.
    pub fn restore(
        &mut self,
        task: u64,
        device: &mut Device,
        now: SimTime,
    ) -> Option<RestoreResult> {
        let _prof = cbp_prof::scope("criu_restore");
        let size = self.image_size(task);
        if size.is_zero() {
            return None;
        }
        self.restores += 1;
        let op = device.submit_read(now, size);
        Some(RestoreResult { op, size })
    }

    /// Drops `task`'s images, returning `(origin_node, bytes)` reservations
    /// for the caller to release on the owning devices.
    ///
    /// Discard is idempotent: a second call for the same task finds no
    /// chain and returns the empty list, so fault paths that race (e.g. a
    /// node crash landing on a task already being torn down) cannot
    /// double-free device reservations.
    pub fn discard(&mut self, task: u64) -> Vec<(u32, ByteSize)> {
        let freed = match self.chains.remove(&task) {
            Some(mut chain) => chain.clear(),
            None => Vec::new(),
        };
        for (node, bytes) in &freed {
            self.ledger.sub(*node, *bytes);
        }
        freed
    }

    /// Aborts the most recent image of `task` (e.g. a dump that was in
    /// flight when its node failed), returning its reservation for release.
    /// If the aborted image was the chain's only one, the chain disappears.
    pub fn abort_tip(&mut self, task: u64) -> Option<(u32, ByteSize)> {
        let chain = self.chains.get_mut(&task)?;
        let popped = chain.pop_tip()?;
        if chain.is_empty() {
            self.chains.remove(&task);
        }
        self.ledger.sub(popped.origin_node, popped.size);
        Some((popped.origin_node, popped.size))
    }

    /// Stamps the chain tip of `task` with an opaque scheduler-defined
    /// progress value (see [`ImageRecord::progress`]). Called right after a
    /// successful dump so a later prefix-truncation knows how much work the
    /// surviving tip actually captured. No-op if the task has no chain.
    pub fn set_tip_progress(&mut self, task: u64, progress: u64) {
        if let Some(tip) = self.chains.get_mut(&task).and_then(ImageChain::tip_mut) {
            tip.progress = progress;
        }
    }

    /// Flags `chunk` of `task`'s chain tip as corrupt (a per-chunk fault
    /// draw landed on the freshly dumped image). Returns false if the task
    /// has no chain or the chunk was out of range / already flagged.
    pub fn mark_tip_chunk_corrupt(&mut self, task: u64, chunk: u64) -> bool {
        self.chains
            .get_mut(&task)
            .and_then(ImageChain::tip_mut)
            .is_some_and(|tip| tip.manifest.mark_corrupt(chunk))
    }

    /// Clears the corrupt flag on `chunk` of image `idx` (oldest-first) of
    /// `task`'s chain after a successful replica re-fetch. Returns false if
    /// nothing was flagged there.
    pub fn repair_chunk(&mut self, task: u64, idx: usize, chunk: u64) -> bool {
        self.chains
            .get_mut(&task)
            .and_then(|c| c.image_mut(idx))
            .is_some_and(|img| img.manifest.repair(chunk))
    }

    /// Truncates `task`'s chain to its first `keep` images (restore from an
    /// older image after the suffix failed validation), returning the freed
    /// `(origin_node, bytes)` reservations for the caller to release.
    /// `keep == 0` removes the chain entirely, like [`Criu::discard`].
    pub fn truncate_chain(&mut self, task: u64, keep: usize) -> Vec<(u32, ByteSize)> {
        let Some(chain) = self.chains.get_mut(&task) else {
            return Vec::new();
        };
        let freed = chain.truncate(keep);
        if chain.is_empty() {
            self.chains.remove(&task);
        }
        for (node, bytes) in &freed {
            self.ledger.sub(*node, *bytes);
        }
        freed
    }

    /// Debug-build integrity audit over the whole catalog: every image's
    /// manifest must cover exactly the image's bytes with verifying
    /// checksums, and the per-node ledger must equal the bytes recomputed
    /// from the chains. The simulators call this (together with their
    /// device-reservation conservation check) after every event.
    ///
    /// # Panics
    ///
    /// Panics on any manifest ↔ catalog ↔ ledger inconsistency.
    pub fn assert_manifest_consistency(&self) {
        let mut per_node: Vec<u64> = Vec::new();
        for (task, chain) in &self.chains {
            for img in chain.images() {
                assert!(
                    img.manifest.verify(img.id),
                    "task {task}: image {:?} manifest failed checksum verification",
                    img.id
                );
                assert_eq!(
                    img.manifest.total_len(),
                    img.size,
                    "task {task}: image {:?} manifest covers {} but image is {}",
                    img.id,
                    img.manifest.total_len(),
                    img.size
                );
                let idx = img.origin_node as usize;
                if idx >= per_node.len() {
                    per_node.resize(idx + 1, 0);
                }
                per_node[idx] += img.size.as_u64();
            }
        }
        for (node, &bytes) in per_node.iter().enumerate() {
            assert_eq!(
                self.ledger.bytes_on(node as u32),
                ByteSize::from_bytes(bytes),
                "node {node}: ledger disagrees with catalog recomputation"
            );
        }
        // The total also covers ledger bytes on nodes the catalog no longer
        // references at all (those would slip past the per-node loop).
        assert_eq!(
            self.ledger.total(),
            ByteSize::from_bytes(per_node.iter().sum()),
            "ledger total disagrees with catalog recomputation"
        );
    }

    /// Live catalog bytes whose images reside on `node` — the ledger side
    /// of the conservation invariant *device reserved bytes == live catalog
    /// bytes*, maintained incrementally so per-event asserts are O(1).
    pub fn live_bytes_on(&self, node: u32) -> ByteSize {
        self.ledger.bytes_on(node)
    }

    /// Live catalog bytes across all nodes.
    pub fn live_bytes_total(&self) -> ByteSize {
        self.ledger.total()
    }

    /// True if any of `task`'s images lives on `node` (a node failure
    /// destroys local-FS images stored there).
    pub fn has_image_on(&self, task: u64, node: u32) -> bool {
        self.chains
            .get(&task)
            .is_some_and(|c| c.images().iter().any(|i| i.origin_node == node))
    }

    /// Number of full dumps performed.
    pub fn full_dumps(&self) -> u64 {
        self.full_dumps
    }

    /// Number of restores performed.
    pub fn restores(&self) -> u64 {
        self.restores
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_storage::MediaSpec;

    fn five_gb_task() -> TaskMemory {
        TaskMemory::new(ByteSize::from_gb(5))
    }

    /// Reproduces Table 3 end-to-end through the Criu engine: first dump is
    /// full (5 GB), second is incremental (10% dirty) and roughly an order
    /// of magnitude faster, on all three media.
    #[test]
    fn table3_first_vs_second_checkpoint() {
        for (spec, first_s, second_s) in [
            (MediaSpec::hdd(), 169.18, 15.34),
            (MediaSpec::ssd(), 43.73, 4.08),
            (MediaSpec::nvm(), 2.92, 0.28),
        ] {
            let mut criu = Criu::new(true);
            let mut dev = Device::new(spec);
            let mut mem = five_gb_task();

            let d1 = criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
            assert_eq!(d1.kind, CheckpointKind::Full);
            let t1 = d1.op.end.since(d1.op.start).as_secs_f64();
            assert!(
                (t1 - first_s).abs() / first_s < 0.10,
                "{}: first dump {t1:.2}s vs paper {first_s}s",
                spec.kind()
            );

            mem.touch_fraction(0.10);
            let now = SimTime::from_secs(1000);
            dev.on_advance(now);
            let d2 = criu.dump(1, &mut mem, 0, &mut dev, now).unwrap();
            assert!(matches!(d2.kind, CheckpointKind::Incremental { .. }));
            let t2 = d2.op.end.since(d2.op.start).as_secs_f64();
            assert!(
                (t2 - second_s).abs() / second_s < 0.25,
                "{}: second dump {t2:.2}s vs paper {second_s}s",
                spec.kind()
            );
            assert!(t1 / t2 > 8.0, "incremental should be ~10x faster");
        }
    }

    #[test]
    fn dump_clears_dirty_tracking() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        assert_eq!(mem.dirty_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn non_incremental_engine_always_dumps_full() {
        let mut criu = Criu::new(false);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        mem.touch_fraction(0.01);
        let d2 = criu
            .dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(10))
            .unwrap();
        assert_eq!(d2.kind, CheckpointKind::Full);
        assert_eq!(d2.size, ByteSize::from_gb(5));
        // The full re-dump replaced the old chain and reports its bytes as
        // freed for the caller to release.
        assert_eq!(d2.freed, vec![(0, ByteSize::from_gb(5))]);
        assert_eq!(criu.image_size(1), ByteSize::from_gb(5));
        assert_eq!(criu.full_dumps(), 2);
    }

    #[test]
    fn restore_reads_whole_chain() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        mem.touch_fraction(0.10);
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(100))
            .unwrap();
        let r = criu
            .restore(1, &mut dev, SimTime::from_secs(200))
            .expect("image exists");
        assert_eq!(r.size, ByteSize::from_mb(5500));
        assert_eq!(criu.restores(), 1);
    }

    #[test]
    fn restore_without_image_is_none() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        assert!(criu.restore(42, &mut dev, SimTime::ZERO).is_none());
    }

    #[test]
    fn discard_releases_reservations() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 3, &mut dev, SimTime::ZERO).unwrap();
        let freed = criu.discard(1);
        assert_eq!(freed, vec![(3, ByteSize::from_gb(5))]);
        for (_, bytes) in freed {
            dev.release(bytes);
        }
        assert_eq!(dev.used(), ByteSize::ZERO);
        assert!(!criu.has_image(1));
        assert!(criu.discard(1).is_empty());
    }

    #[test]
    fn capacity_error_leaves_state_clean() {
        let mut criu = Criu::new(true);
        let spec = MediaSpec::nvm().with_capacity(ByteSize::from_gb(1));
        let mut dev = Device::new(spec);
        let mut mem = five_gb_task();
        let err = criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO);
        assert!(err.is_err());
        assert!(!criu.has_image(1));
        assert_eq!(mem.dirty_bytes(), ByteSize::from_gb(5));
        assert_eq!(dev.used(), ByteSize::ZERO);
    }

    #[test]
    fn chain_consolidates_at_bound() {
        let mut criu = Criu::new(true).with_max_chain_len(3);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap(); // full
        for i in 0..2 {
            mem.touch_fraction(0.05);
            let d = criu
                .dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(10 * (i + 1)))
                .unwrap();
            assert!(matches!(d.kind, CheckpointKind::Incremental { .. }));
        }
        assert_eq!(criu.chain(1).unwrap().len(), 3);
        // The chain hit the bound: the next dump consolidates (full) and
        // frees the old chain.
        mem.touch_fraction(0.05);
        let d = criu
            .dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(100))
            .unwrap();
        assert_eq!(d.kind, CheckpointKind::Full);
        assert_eq!(d.size, ByteSize::from_gb(5));
        assert!(!d.freed.is_empty());
        assert_eq!(criu.chain(1).unwrap().len(), 1);
    }

    #[test]
    fn double_discard_is_idempotent() {
        // Regression: fault paths can race teardown (a node crash landing
        // on a task already being torn down). The second discard must find
        // nothing — returning freed bytes twice would double-free the
        // device reservation.
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        mem.touch_fraction(0.10);
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(100))
            .unwrap();
        let first = criu.discard(1);
        assert_eq!(first.len(), 2, "both chain images freed once");
        assert!(criu.discard(1).is_empty(), "second discard must be empty");
        assert!(criu.discard(1).is_empty(), "and stay empty");
        // abort_tip after discard is likewise a no-op.
        assert!(criu.abort_tip(1).is_none());
    }

    #[test]
    fn ledger_matches_catalog_through_dump_discard_abort() {
        let mut criu = Criu::new(true);
        let mut dev_a = Device::new(MediaSpec::nvm());
        let mut dev_b = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        let mut mem2 = TaskMemory::new(ByteSize::from_gb(2));

        // Full dump of task 1 on node 0, incremental on node 1 (spilled).
        criu.dump(1, &mut mem, 0, &mut dev_a, SimTime::ZERO)
            .unwrap();
        mem.touch_fraction(0.10);
        criu.dump(1, &mut mem, 1, &mut dev_b, SimTime::from_secs(10))
            .unwrap();
        criu.dump(2, &mut mem2, 0, &mut dev_a, SimTime::from_secs(20))
            .unwrap();

        let recompute = |criu: &Criu, node: u32| {
            let mut total = 0u64;
            for task in [1u64, 2] {
                if let Some(chain) = criu.chain(task) {
                    total += chain
                        .images()
                        .iter()
                        .filter(|i| i.origin_node == node)
                        .map(|i| i.size.as_u64())
                        .sum::<u64>();
                }
            }
            ByteSize::from_bytes(total)
        };
        for node in [0, 1] {
            assert_eq!(criu.live_bytes_on(node), recompute(&criu, node));
        }
        assert_eq!(
            criu.live_bytes_total(),
            criu.live_bytes_on(0) + criu.live_bytes_on(1)
        );

        // Abort the incremental tip on node 1, then discard task 2.
        criu.abort_tip(1).unwrap();
        assert_eq!(criu.live_bytes_on(1), ByteSize::ZERO);
        criu.discard(2);
        for node in [0, 1] {
            assert_eq!(criu.live_bytes_on(node), recompute(&criu, node));
        }
        // A full re-dump replaces the chain: ledger follows the freed set.
        mem.touch_fraction(1.0);
        criu.discard(1);
        assert_eq!(criu.live_bytes_total(), ByteSize::ZERO);
    }

    #[test]
    fn abort_tip_and_discard_on_empty_chain() {
        // Satellite regression: fault paths frequently hit tasks that never
        // checkpointed (or were already torn down) — both teardown entry
        // points must be harmless no-ops there.
        let mut criu = Criu::new(true);
        assert!(criu.abort_tip(42).is_none(), "no chain at all");
        assert!(criu.discard(42).is_empty());
        assert_eq!(criu.live_bytes_total(), ByteSize::ZERO);
        criu.assert_manifest_consistency();
    }

    #[test]
    fn abort_tip_on_single_image_chain_removes_chain() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 2, &mut dev, SimTime::ZERO).unwrap();
        let (node, bytes) = criu.abort_tip(1).expect("tip exists");
        assert_eq!((node, bytes), (2, ByteSize::from_gb(5)));
        assert!(!criu.has_image(1), "single-image chain disappears");
        assert!(criu.chain(1).is_none(), "no empty chain left behind");
        assert_eq!(criu.live_bytes_total(), ByteSize::ZERO);
        assert!(criu.abort_tip(1).is_none(), "second abort finds nothing");
        criu.assert_manifest_consistency();
    }

    #[test]
    fn discard_single_image_chain() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        assert_eq!(criu.discard(1), vec![(0, ByteSize::from_gb(5))]);
        assert!(criu.chain(1).is_none());
        assert_eq!(criu.live_bytes_total(), ByteSize::ZERO);
        criu.assert_manifest_consistency();
    }

    #[test]
    fn dumps_carry_chunk_manifests() {
        let mut criu = Criu::new(true).with_chunk_bytes(ByteSize::from_mb(64).as_u64());
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        let tip = criu.chain(1).unwrap().tip().unwrap();
        assert_eq!(tip.manifest.total_len(), tip.size);
        assert_eq!(tip.manifest.chunk_count(), 79, "ceil(5 GB / 64 MB)");
        assert!(tip.manifest.verify(tip.id));
        criu.assert_manifest_consistency();
    }

    #[test]
    fn truncate_chain_releases_suffix_and_keeps_prefix() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        criu.set_tip_progress(1, 111);
        for i in 0..2 {
            mem.touch_fraction(0.10);
            criu.dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(10 * (i + 1)))
                .unwrap();
            criu.set_tip_progress(1, 222 + i);
        }
        assert_eq!(criu.chain(1).unwrap().len(), 3);
        let before = criu.live_bytes_on(0);
        let freed = criu.truncate_chain(1, 1);
        assert_eq!(freed.len(), 2, "both incrementals freed");
        let freed_bytes: u64 = freed.iter().map(|(_, b)| b.as_u64()).sum();
        assert_eq!(
            criu.live_bytes_on(0),
            before.saturating_sub(ByteSize::from_bytes(freed_bytes))
        );
        let tip = criu.chain(1).unwrap().tip().unwrap();
        assert_eq!(tip.progress, 111, "surviving tip keeps its progress stamp");
        criu.assert_manifest_consistency();
        // Truncating to zero removes the chain like discard.
        let freed = criu.truncate_chain(1, 0);
        assert_eq!(freed.len(), 1);
        assert!(criu.chain(1).is_none());
        assert_eq!(criu.live_bytes_total(), ByteSize::ZERO);
    }

    #[test]
    fn chunk_corruption_mark_and_repair() {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = five_gb_task();
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        assert!(criu.mark_tip_chunk_corrupt(1, 3));
        assert!(!criu.mark_tip_chunk_corrupt(1, 3), "already flagged");
        assert!(!criu.mark_tip_chunk_corrupt(9, 0), "no such task");
        let tip = criu.chain(1).unwrap().tip().unwrap();
        assert_eq!(tip.manifest.corrupt_chunks(), vec![3]);
        assert!(criu.repair_chunk(1, 0, 3));
        assert!(!criu.repair_chunk(1, 0, 3), "already repaired");
        assert!(criu.chain(1).unwrap().tip().unwrap().manifest.is_clean());
        criu.assert_manifest_consistency();
    }

    #[test]
    fn estimate_is_algorithm1_formula() {
        let criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::hdd());
        let mem = five_gb_task();
        // Put an op in the queue so queue_time is non-zero.
        dev.submit_write(SimTime::ZERO, ByteSize::from_gb(1));
        let est = criu.estimate(1, &mem, &dev, SimTime::ZERO);
        assert_eq!(est.size, ByteSize::from_gb(5));
        assert_eq!(est.dump, dev.spec().write_time(ByteSize::from_gb(5)));
        assert_eq!(est.restore, dev.spec().read_time(ByteSize::from_gb(5)));
        assert_eq!(est.queue, dev.queue_wait(SimTime::ZERO));
        assert_eq!(est.total(), est.dump + est.restore + est.queue);
    }
}

#[cfg(test)]
mod compression_tests {
    use super::*;
    use crate::memory::TaskMemory;
    use cbp_simkit::units::ByteSize;
    use cbp_storage::MediaSpec;

    #[test]
    fn compression_shrinks_hdd_dumps() {
        let mut plain = Criu::new(true);
        let mut zipped = Criu::new(true).with_compression(CompressionSpec::lz4());
        let mut dev_a = Device::new(MediaSpec::hdd());
        let mut dev_b = Device::new(MediaSpec::hdd());
        let mut mem_a = TaskMemory::new(ByteSize::from_gb(5));
        let mut mem_b = TaskMemory::new(ByteSize::from_gb(5));

        let a = plain
            .dump(1, &mut mem_a, 0, &mut dev_a, SimTime::ZERO)
            .unwrap();
        let b = zipped
            .dump(1, &mut mem_b, 0, &mut dev_b, SimTime::ZERO)
            .unwrap();
        assert_eq!(b.size, ByteSize::from_gb_f64(5.0 * 0.45));
        // On HDD (30 MB/s) the compressor (700 MB/s) is never the
        // bottleneck: the dump speeds up by the full ratio.
        let ta = a.op.end.since(a.op.start).as_secs_f64();
        let tb = b.op.end.since(b.op.start).as_secs_f64();
        assert!(
            (tb / ta - 0.45).abs() < 0.05,
            "compressed dump {tb:.1}s vs plain {ta:.1}s"
        );
        assert_eq!(dev_b.used(), b.size);
    }

    #[test]
    fn compressor_throughput_binds_on_nvm() {
        let mut zipped = Criu::new(true).with_compression(CompressionSpec::zstd());
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = TaskMemory::new(ByteSize::from_gb(5));
        let d = zipped
            .dump(1, &mut mem, 0, &mut dev, SimTime::ZERO)
            .unwrap();
        // NVM writes 1.65 GB in ~1s, but zstd consumes 5 GB at 350 MB/s:
        // ~14.3s — compression makes NVM dumps slower, as expected.
        let t = d.op.end.since(d.op.start).as_secs_f64();
        assert!(
            (t - 5_000.0 / 350.0).abs() < 0.5,
            "zstd-bound NVM dump took {t:.1}s"
        );
        let plain_t = MediaSpec::nvm()
            .write_time(ByteSize::from_gb(5))
            .as_secs_f64();
        assert!(t > plain_t, "compression must not help NVM");
    }

    #[test]
    fn estimate_reflects_compression() {
        let zipped = Criu::new(true).with_compression(CompressionSpec::lz4());
        let plain = Criu::new(true);
        let dev = Device::new(MediaSpec::hdd());
        let mem = TaskMemory::new(ByteSize::from_gb(2));
        let ez = zipped.estimate(1, &mem, &dev, SimTime::ZERO);
        let ep = plain.estimate(1, &mem, &dev, SimTime::ZERO);
        assert!(ez.total() < ep.total());
        assert_eq!(ez.size, CompressionSpec::lz4().compressed_size(mem.size()));
    }

    #[test]
    #[should_panic(expected = "ratio")]
    fn bad_ratio_rejected() {
        let _ = Criu::new(true).with_compression(CompressionSpec {
            ratio: 0.0,
            throughput: cbp_simkit::units::Bandwidth::from_mb_per_sec(100),
        });
    }
}
