//! A CRIU-style application-transparent checkpoint/restore model.
//!
//! The paper suspends preempted tasks with CRIU (Checkpoint/Restore In
//! Userspace): the whole process state — dominated by memory content — is
//! dumped to storage, and later restored, possibly on another node via HDFS.
//! Two CRIU behaviours matter to the scheduler and are modelled
//! mechanistically here rather than as constants:
//!
//! 1. **Dump/restore latency** is proportional to image size over media
//!    bandwidth (plus per-node queueing, handled by
//!    [`cbp_storage::Device`]).
//! 2. **Incremental checkpoints** dump only pages written since the last
//!    checkpoint, tracked by the kernel's *soft-dirty* page-table bits.
//!    [`TaskMemory`] keeps an actual per-page dirty bitmap that tasks write
//!    into while running; a dump scans and clears it, exactly mirroring
//!    CRIU's `--track-mem` flow.
//!
//! The entry point is [`Criu`], which owns the image catalog:
//!
//! ```
//! use cbp_checkpoint::{Criu, TaskMemory};
//! use cbp_simkit::{units::ByteSize, SimTime};
//! use cbp_storage::{Device, MediaSpec};
//!
//! let mut criu = Criu::new(true);
//! let mut dev = Device::new(MediaSpec::nvm());
//! let mut mem = TaskMemory::new(ByteSize::from_gb(5));
//!
//! // First checkpoint: full image (all pages dirty since start).
//! let dump = criu.dump(7, &mut mem, 0, &mut dev, SimTime::ZERO)?;
//! assert_eq!(dump.size, ByteSize::from_gb(5));
//!
//! // The task runs on and rewrites 10% of its memory...
//! mem.touch_fraction(0.10);
//!
//! // ...so the second checkpoint is incremental and ~10% the size.
//! let dump2 = criu.dump(7, &mut mem, 0, &mut dev, SimTime::from_secs(60))?;
//! assert!(dump2.size < ByteSize::from_gb(1));
//! # Ok::<(), cbp_storage::CapacityError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod criu;
mod image;
mod integrity;
mod lifecycle;
mod memory;
mod nvram;

pub use criu::{
    CompressionSpec, Criu, DumpResult, OverheadEstimate, RestoreResult, DEFAULT_MAX_CHAIN_LEN,
};
pub use image::{CheckpointKind, ImageChain, ImageId, ImageRecord};
pub use integrity::{chunk_checksum, ChunkEntry, ChunkManifest, DEFAULT_CHUNK_BYTES};
pub use lifecycle::{plan_evictions, EvictionCandidate, ImageLedger};
pub use memory::{DirtyBitmap, TaskMemory, DEFAULT_PAGE_SIZE};
pub use nvram::{
    NvmPathComparison, NvramCheckpointer, NvramError, NvramResume, NvramSpec, NvramSuspend,
};
