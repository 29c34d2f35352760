//! Chunked checkpoint transfers: per-image chunk manifests.
//!
//! Every dumped image is logically split into fixed-size chunks (default
//! [`DEFAULT_CHUNK_BYTES`], ~64 MiB — the granularity `criu-image-streamer`
//! pipelines pages at). Each chunk carries a deterministic checksum in a
//! per-image [`ChunkManifest`] recorded on the [`crate::ImageRecord`]. The
//! manifest is what makes interrupted transfers *resumable* and corrupt
//! images *repairable* instead of total losses:
//!
//! - **Resumable dumps**: when a dump is interrupted (preemption race, node
//!   crash, device stall, breaker trip), the chunks written before the
//!   interruption are durable. The retry re-writes only the remaining
//!   suffix instead of starting from byte zero.
//! - **Targeted repair**: on restore the manifest is validated
//!   chunk-by-chunk. A corrupt chunk is first re-fetched from a DFS
//!   replica; only if that fails does the whole image become invalid, and
//!   even then the chain is truncated to its longest valid prefix (restore
//!   from an older image) before falling all the way back to a scratch
//!   restart.
//!
//! Checksums are a SplitMix64-style hash of `(image id, chunk index,
//! chunk length)` — deterministic per image so that replaying the same
//! `(seed, plan)` reproduces byte-identical manifests, and cheap enough to
//! recompute in the debug-build integrity audit after every event.

use cbp_simkit::units::ByteSize;

use crate::image::ImageId;

/// Default chunk size for checkpoint transfers: 64 decimal MB (~64 MiB).
/// Decimal because [`ByteSize`] — like every size in this repo — is decimal.
pub const DEFAULT_CHUNK_BYTES: u64 = 64 * 1_000_000;

/// SplitMix64 finalizer — the same mixer the fault plan uses, so manifest
/// checksums share its statistical quality without sharing its stream.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic checksum of one chunk of one image.
pub fn chunk_checksum(image: ImageId, chunk: u64, len: u64) -> u64 {
    mix(mix(mix(image.0) ^ chunk) ^ len)
}

/// One chunk's manifest entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkEntry {
    /// Chunk length in bytes (equal to the manifest chunk size except for a
    /// shorter final chunk).
    pub len: u64,
    /// Deterministic content checksum recorded at dump time.
    pub checksum: u64,
    /// Whether validation has flagged this chunk as corrupt (set by the
    /// fault layer, cleared by a successful replica re-fetch).
    pub corrupt: bool,
}

/// The per-image chunk manifest: chunk size plus one entry per chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkManifest {
    /// Nominal chunk size the image was split at.
    pub chunk_bytes: u64,
    /// Entries, in on-image order.
    pub chunks: Vec<ChunkEntry>,
}

impl Default for ChunkManifest {
    fn default() -> Self {
        ChunkManifest {
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            chunks: Vec::new(),
        }
    }
}

impl ChunkManifest {
    /// Builds the manifest for an image of `size` bytes split into
    /// `chunk_bytes`-sized chunks (final chunk may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_bytes` is zero.
    pub fn build(image: ImageId, size: ByteSize, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunk size must be positive");
        let total = size.as_u64();
        let count = total.div_ceil(chunk_bytes);
        let mut chunks = Vec::with_capacity(count as usize);
        for idx in 0..count {
            let len = (total - idx * chunk_bytes).min(chunk_bytes);
            chunks.push(ChunkEntry {
                len,
                checksum: chunk_checksum(image, idx, len),
                corrupt: false,
            });
        }
        ChunkManifest {
            chunk_bytes,
            chunks,
        }
    }

    /// Number of chunks.
    pub fn chunk_count(&self) -> u64 {
        self.chunks.len() as u64
    }

    /// Total bytes covered by the manifest (must equal the image size).
    pub fn total_len(&self) -> ByteSize {
        ByteSize::from_bytes(self.chunks.iter().map(|c| c.len).sum())
    }

    /// True if no chunk is currently flagged corrupt.
    pub fn is_clean(&self) -> bool {
        self.chunks.iter().all(|c| !c.corrupt)
    }

    /// Indices of the chunks currently flagged corrupt.
    pub fn corrupt_chunks(&self) -> Vec<u64> {
        self.chunks
            .iter()
            .enumerate()
            .filter(|(_, c)| c.corrupt)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Flags `chunk` corrupt. Returns false (and does nothing) for an
    /// out-of-range index or a chunk already flagged.
    pub fn mark_corrupt(&mut self, chunk: u64) -> bool {
        match self.chunks.get_mut(chunk as usize) {
            Some(c) if !c.corrupt => {
                c.corrupt = true;
                true
            }
            _ => false,
        }
    }

    /// Clears the corrupt flag on `chunk` after a successful replica
    /// re-fetch. Returns false for an out-of-range or clean chunk.
    pub fn repair(&mut self, chunk: u64) -> bool {
        match self.chunks.get_mut(chunk as usize) {
            Some(c) if c.corrupt => {
                c.corrupt = false;
                true
            }
            _ => false,
        }
    }

    /// Number of whole chunks durable after `frac` of the transfer
    /// completed — the floor, because a partially written chunk fails its
    /// checksum and is re-written by the resumed transfer.
    pub fn durable_chunks(&self, frac: f64) -> u64 {
        (self.chunk_count() as f64 * frac.clamp(0.0, 1.0)).floor() as u64
    }

    /// Bytes durable after `frac` of the transfer completed, rounded *down*
    /// to a chunk boundary (see [`ChunkManifest::durable_chunks`]).
    pub fn durable_bytes(&self, frac: f64) -> ByteSize {
        let done = self.durable_chunks(frac) as usize;
        let bytes: u64 = self.chunks.iter().take(done).map(|c| c.len).sum();
        ByteSize::from_bytes(bytes)
    }

    /// Recomputes every checksum against `image` and verifies the manifest
    /// shape: non-final chunks exactly `chunk_bytes` long, final chunk no
    /// longer. The `corrupt` flags are ignored — they record *detected*
    /// content corruption, not manifest damage.
    pub fn verify(&self, image: ImageId) -> bool {
        let last = self.chunks.len().saturating_sub(1);
        self.chunks.iter().enumerate().all(|(idx, c)| {
            let shape_ok = if idx < last {
                c.len == self.chunk_bytes
            } else {
                c.len <= self.chunk_bytes && c.len > 0
            };
            shape_ok && c.checksum == chunk_checksum(image, idx as u64, c.len)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_splits_with_short_final_chunk() {
        let m = ChunkManifest::build(ImageId(7), ByteSize::from_mb(150), DEFAULT_CHUNK_BYTES);
        assert_eq!(m.chunk_count(), 3, "150 MB at 64 MB = 3 chunks");
        assert_eq!(m.chunks[0].len, DEFAULT_CHUNK_BYTES);
        assert_eq!(m.chunks[1].len, DEFAULT_CHUNK_BYTES);
        assert_eq!(m.chunks[2].len, ByteSize::from_mb(22).as_u64());
        assert_eq!(m.total_len(), ByteSize::from_mb(150));
        assert!(m.verify(ImageId(7)));
        assert!(!m.verify(ImageId(8)), "checksums are keyed by image id");
    }

    #[test]
    fn exact_multiple_has_no_short_chunk() {
        let m = ChunkManifest::build(ImageId(1), ByteSize::from_mb(128), DEFAULT_CHUNK_BYTES);
        assert_eq!(m.chunk_count(), 2);
        assert!(m.chunks.iter().all(|c| c.len == DEFAULT_CHUNK_BYTES));
        assert!(m.verify(ImageId(1)));
    }

    #[test]
    fn empty_image_has_empty_manifest() {
        let m = ChunkManifest::build(ImageId(1), ByteSize::ZERO, DEFAULT_CHUNK_BYTES);
        assert_eq!(m.chunk_count(), 0);
        assert!(m.is_clean());
        assert!(m.verify(ImageId(1)), "vacuously valid");
    }

    #[test]
    fn corrupt_flag_roundtrip() {
        let mut m = ChunkManifest::build(ImageId(3), ByteSize::from_mb(200), DEFAULT_CHUNK_BYTES);
        assert!(m.is_clean());
        assert!(m.mark_corrupt(1));
        assert!(!m.mark_corrupt(1), "double-mark is a no-op");
        assert!(!m.mark_corrupt(99), "out of range");
        assert_eq!(m.corrupt_chunks(), vec![1]);
        assert!(!m.is_clean());
        assert!(m.verify(ImageId(3)), "corrupt flags don't fail verify");
        assert!(m.repair(1));
        assert!(!m.repair(1), "double-repair is a no-op");
        assert!(m.is_clean());
    }

    #[test]
    fn durable_bytes_floor_to_chunk_boundary() {
        let m = ChunkManifest::build(ImageId(5), ByteSize::from_mb(256), DEFAULT_CHUNK_BYTES);
        assert_eq!(m.chunk_count(), 4);
        assert_eq!(m.durable_bytes(0.0), ByteSize::ZERO);
        // 0.6 of 4 chunks = 2.4 -> floor 2 chunks durable.
        assert_eq!(m.durable_bytes(0.6), ByteSize::from_mb(128));
        assert_eq!(m.durable_bytes(1.0), ByteSize::from_mb(256));
        assert_eq!(m.durable_bytes(2.0), ByteSize::from_mb(256), "clamped");
        assert_eq!(m.durable_bytes(-1.0), ByteSize::ZERO, "clamped");
    }

    #[test]
    fn checksum_is_deterministic_and_key_sensitive() {
        let a = chunk_checksum(ImageId(1), 0, 64);
        assert_eq!(a, chunk_checksum(ImageId(1), 0, 64));
        assert_ne!(a, chunk_checksum(ImageId(2), 0, 64));
        assert_ne!(a, chunk_checksum(ImageId(1), 1, 64));
        assert_ne!(a, chunk_checksum(ImageId(1), 0, 65));
    }
}
