//! Checkpoint image records and per-task image chains.

use cbp_simkit::units::ByteSize;
use cbp_simkit::SimTime;

use crate::integrity::ChunkManifest;

/// Identifier of one dumped image (unique within a [`crate::Criu`] catalog).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ImageId(pub u64);

/// Whether an image holds the whole address space or only pages dirtied
/// since the previous image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointKind {
    /// A complete dump.
    Full,
    /// A soft-dirty incremental dump layered on `parent`.
    Incremental {
        /// The image this delta applies on top of.
        parent: ImageId,
    },
}

/// One on-disk checkpoint image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageRecord {
    /// Image identity.
    pub id: ImageId,
    /// Full or incremental.
    pub kind: CheckpointKind,
    /// Bytes occupied on storage.
    pub size: ByteSize,
    /// When the dump completed.
    pub created: SimTime,
    /// Index of the node whose device holds the image (or whose DFS write
    /// originated there).
    pub origin_node: u32,
    /// Per-chunk integrity manifest recorded at dump time.
    pub manifest: ChunkManifest,
    /// Opaque scheduler-defined progress stamp (e.g. microseconds of
    /// completed work) captured when this image was dumped. Lets a chain
    /// truncated to a valid prefix roll the task's progress back to what
    /// the surviving tip actually captured.
    pub progress: u64,
}

/// The sequence of images that reconstructs one task: a full image followed
/// by zero or more incremental deltas.
///
/// A restore must read every image in the chain, so the restore cost of a
/// much-suspended task grows with its accumulated deltas — matching CRIU,
/// where each `--prev-images-dir` layer is read back.
#[derive(Debug, Clone, Default)]
pub struct ImageChain {
    images: Vec<ImageRecord>,
}

impl ImageChain {
    /// An empty chain (task never checkpointed).
    pub fn new() -> Self {
        ImageChain { images: Vec::new() }
    }

    /// Appends an image.
    ///
    /// # Panics
    ///
    /// Panics if a full image is appended onto a non-empty chain (that would
    /// orphan the existing images — call [`ImageChain::clear`] first), or an
    /// incremental is appended whose parent is not the chain tip. In debug
    /// builds, additionally rejects out-of-order or duplicate image ids:
    /// the catalog allocates ids monotonically, so a non-increasing id here
    /// means the caller is replaying or reordering dumps.
    pub fn push(&mut self, record: ImageRecord) {
        match record.kind {
            CheckpointKind::Full => {
                assert!(
                    self.images.is_empty(),
                    "full image onto non-empty chain; clear() the old chain first"
                );
            }
            CheckpointKind::Incremental { parent } => {
                let tip = self
                    .images
                    .last()
                    .expect("incremental image needs a parent chain");
                assert_eq!(tip.id, parent, "incremental parent must be the chain tip");
            }
        }
        if let Some(tip) = self.images.last() {
            debug_assert!(
                record.id > tip.id,
                "image ids must be strictly increasing along a chain \
                 (pushed {:?} onto tip {:?})",
                record.id,
                tip.id
            );
        }
        self.images.push(record);
    }

    /// The image records, oldest (full) first.
    pub fn images(&self) -> &[ImageRecord] {
        &self.images
    }

    /// The most recent image, if any.
    pub fn tip(&self) -> Option<&ImageRecord> {
        self.images.last()
    }

    /// True if the chain holds no images.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Number of images (1 full + N incrementals).
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// Total bytes on storage — also the bytes a restore must read.
    pub fn total_size(&self) -> ByteSize {
        self.images.iter().map(|i| i.size).sum()
    }

    /// The most recent image, mutably (progress stamping, chunk repair).
    pub fn tip_mut(&mut self) -> Option<&mut ImageRecord> {
        self.images.last_mut()
    }

    /// The image at position `idx` (oldest first), mutably.
    pub fn image_mut(&mut self, idx: usize) -> Option<&mut ImageRecord> {
        self.images.get_mut(idx)
    }

    /// Removes and returns the most recent image (aborting an in-flight
    /// dump). Returns `None` if the chain is empty.
    pub fn pop_tip(&mut self) -> Option<ImageRecord> {
        self.images.pop()
    }

    /// Drops every image after the first `keep` (truncation to a valid
    /// prefix), returning the freed `(origin_node, bytes)` reservations for
    /// the caller to release. `truncate(0)` empties the chain; a `keep` at
    /// or beyond the current length is a no-op.
    pub fn truncate(&mut self, keep: usize) -> Vec<(u32, ByteSize)> {
        if keep >= self.images.len() {
            return Vec::new();
        }
        let freed = self.images[keep..]
            .iter()
            .map(|i| (i.origin_node, i.size))
            .collect();
        self.images.truncate(keep);
        freed
    }

    /// Drops all images, returning the freed bytes per origin node so the
    /// caller can release device reservations.
    pub fn clear(&mut self) -> Vec<(u32, ByteSize)> {
        let freed = self
            .images
            .iter()
            .map(|i| (i.origin_node, i.size))
            .collect();
        self.images.clear();
        freed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, kind: CheckpointKind, mb: u64) -> ImageRecord {
        ImageRecord {
            id: ImageId(id),
            kind,
            size: ByteSize::from_mb(mb),
            created: SimTime::ZERO,
            origin_node: 0,
            manifest: ChunkManifest::build(
                ImageId(id),
                ByteSize::from_mb(mb),
                crate::integrity::DEFAULT_CHUNK_BYTES,
            ),
            progress: 0,
        }
    }

    #[test]
    fn chain_accumulates_sizes() {
        let mut c = ImageChain::new();
        assert!(c.is_empty());
        c.push(rec(1, CheckpointKind::Full, 5000));
        c.push(rec(
            2,
            CheckpointKind::Incremental { parent: ImageId(1) },
            500,
        ));
        c.push(rec(
            3,
            CheckpointKind::Incremental { parent: ImageId(2) },
            500,
        ));
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_size(), ByteSize::from_mb(6000));
        assert_eq!(c.tip().unwrap().id, ImageId(3));
    }

    #[test]
    fn clear_reports_freed_bytes() {
        let mut c = ImageChain::new();
        c.push(rec(1, CheckpointKind::Full, 100));
        let freed = c.clear();
        assert_eq!(freed, vec![(0, ByteSize::from_mb(100))]);
        assert!(c.is_empty());
    }

    #[test]
    #[should_panic(expected = "chain tip")]
    fn incremental_must_chain_to_tip() {
        let mut c = ImageChain::new();
        c.push(rec(1, CheckpointKind::Full, 100));
        c.push(rec(
            2,
            CheckpointKind::Incremental {
                parent: ImageId(99),
            },
            10,
        ));
    }

    #[test]
    #[should_panic(expected = "clear()")]
    fn full_onto_nonempty_rejected() {
        let mut c = ImageChain::new();
        c.push(rec(1, CheckpointKind::Full, 100));
        c.push(rec(2, CheckpointKind::Full, 100));
    }

    #[test]
    #[should_panic(expected = "needs a parent")]
    fn incremental_needs_parent() {
        let mut c = ImageChain::new();
        c.push(rec(
            1,
            CheckpointKind::Incremental { parent: ImageId(0) },
            10,
        ));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn duplicate_image_id_rejected() {
        let mut c = ImageChain::new();
        c.push(rec(5, CheckpointKind::Full, 100));
        c.push(rec(
            5,
            CheckpointKind::Incremental { parent: ImageId(5) },
            10,
        ));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "strictly increasing")]
    fn out_of_order_image_id_rejected() {
        let mut c = ImageChain::new();
        c.push(rec(9, CheckpointKind::Full, 100));
        c.push(rec(
            4,
            CheckpointKind::Incremental { parent: ImageId(9) },
            10,
        ));
    }

    #[test]
    fn truncate_keeps_prefix_and_reports_freed() {
        let mut c = ImageChain::new();
        c.push(rec(1, CheckpointKind::Full, 1000));
        c.push(rec(
            2,
            CheckpointKind::Incremental { parent: ImageId(1) },
            100,
        ));
        c.push(rec(
            3,
            CheckpointKind::Incremental { parent: ImageId(2) },
            50,
        ));
        assert!(c.truncate(3).is_empty(), "keep >= len is a no-op");
        let freed = c.truncate(1);
        assert_eq!(
            freed,
            vec![(0, ByteSize::from_mb(100)), (0, ByteSize::from_mb(50))]
        );
        assert_eq!(c.len(), 1);
        assert_eq!(c.tip().unwrap().id, ImageId(1));
        assert_eq!(c.truncate(0), vec![(0, ByteSize::from_mb(1000))]);
        assert!(c.is_empty());
    }
}
