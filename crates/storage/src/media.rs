//! Media kinds and calibrated specifications.

use std::fmt;

use cbp_simkit::units::{Bandwidth, ByteSize};
use cbp_simkit::SimDuration;

/// The class of storage medium a checkpoint is written to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MediaKind {
    /// Spinning disk.
    Hdd,
    /// Flash SSD (the paper used an OCZ Deneva 2).
    Ssd,
    /// Byte-addressable non-volatile memory exposed via PMFS.
    Nvm,
}

impl MediaKind {
    /// All kinds, in the order the paper's figures enumerate them.
    pub const ALL: [MediaKind; 3] = [MediaKind::Hdd, MediaKind::Ssd, MediaKind::Nvm];

    /// The calibrated default specification for this medium.
    pub fn spec(self) -> MediaSpec {
        match self {
            MediaKind::Hdd => MediaSpec::hdd(),
            MediaKind::Ssd => MediaSpec::ssd(),
            MediaKind::Nvm => MediaSpec::nvm(),
        }
    }
}

impl fmt::Display for MediaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MediaKind::Hdd => "HDD",
            MediaKind::Ssd => "SSD",
            MediaKind::Nvm => "NVM",
        };
        f.write_str(s)
    }
}

/// A storage medium's performance and capacity envelope.
///
/// The defaults are calibrated so that a 5 GB full checkpoint reproduces the
/// paper's Table 3 latencies (HDD 169.18 s / SSD 43.73 s / PMFS 2.92 s):
///
/// | medium | write | read | capacity |
/// |--------|-------|------|----------|
/// | HDD    | 30 MB/s  | 60 MB/s  | 500 GB |
/// | SSD    | 115 MB/s | 240 MB/s | 120 GB |
/// | NVM    | 1.75 GB/s| 3.5 GB/s | 48 GB  |
///
/// (Effective bandwidths are well below device sequential maxima because a
/// CRIU dump interleaves many small image files with memory content.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaSpec {
    kind: MediaKind,
    write_bw: Bandwidth,
    read_bw: Bandwidth,
    /// Fixed per-operation setup cost (process-tree collection, file
    /// creation); dominated by transfer time for non-trivial images.
    setup: SimDuration,
    capacity: ByteSize,
}

impl MediaSpec {
    /// Calibrated spinning-disk spec.
    pub fn hdd() -> Self {
        MediaSpec {
            kind: MediaKind::Hdd,
            write_bw: Bandwidth::from_mb_per_sec(30),
            read_bw: Bandwidth::from_mb_per_sec(60),
            setup: SimDuration::from_millis(150),
            capacity: ByteSize::from_gb(500),
        }
    }

    /// Calibrated flash-SSD spec.
    pub fn ssd() -> Self {
        MediaSpec {
            kind: MediaKind::Ssd,
            write_bw: Bandwidth::from_mb_per_sec(115),
            read_bw: Bandwidth::from_mb_per_sec(240),
            setup: SimDuration::from_millis(30),
            capacity: ByteSize::from_gb(120),
        }
    }

    /// Calibrated NVM (PMFS) spec.
    pub fn nvm() -> Self {
        MediaSpec {
            kind: MediaKind::Nvm,
            write_bw: Bandwidth::from_gb_per_sec_f64(1.75),
            read_bw: Bandwidth::from_gb_per_sec_f64(3.5),
            setup: SimDuration::from_millis(5),
            capacity: ByteSize::from_gb(48),
        }
    }

    /// A custom spec (for tests and ablations).
    pub fn custom(
        kind: MediaKind,
        write_bw: Bandwidth,
        read_bw: Bandwidth,
        setup: SimDuration,
        capacity: ByteSize,
    ) -> Self {
        MediaSpec {
            kind,
            write_bw,
            read_bw,
            setup,
            capacity,
        }
    }

    /// The medium class.
    pub fn kind(&self) -> MediaKind {
        self.kind
    }

    /// Effective write bandwidth.
    pub fn write_bw(&self) -> Bandwidth {
        self.write_bw
    }

    /// Effective read bandwidth.
    pub fn read_bw(&self) -> Bandwidth {
        self.read_bw
    }

    /// Fixed per-operation setup latency.
    pub fn setup(&self) -> SimDuration {
        self.setup
    }

    /// Usable capacity for checkpoint images.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }

    /// Returns a copy with both read and write bandwidth set to `bw` —
    /// reproducing the paper's thermal-register throttle, which clamps the
    /// whole memory subsystem to one effective rate for the 1–5 GB/s sweeps.
    pub fn throttled(mut self, bw: Bandwidth) -> Self {
        self.write_bw = bw;
        self.read_bw = bw;
        self
    }

    /// Returns a copy with bandwidths scaled by `factor` (e.g. to model a
    /// degraded or shared device).
    pub fn scaled(mut self, factor: f64) -> Self {
        self.write_bw = self.write_bw.scaled(factor);
        self.read_bw = self.read_bw.scaled(factor);
        self
    }

    /// Returns a copy with the given capacity.
    pub fn with_capacity(mut self, capacity: ByteSize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Time to write `size` bytes once the device is free (setup + transfer).
    pub fn write_time(&self, size: ByteSize) -> SimDuration {
        self.setup + self.write_bw.transfer_time(size)
    }

    /// Time to read `size` bytes once the device is free (setup + transfer).
    pub fn read_time(&self, size: ByteSize) -> SimDuration {
        self.setup + self.read_bw.transfer_time(size)
    }

    /// Total dump + restore time for an image of `size` (the quantity plotted
    /// in the paper's Fig. 2a).
    pub fn round_trip_time(&self, size: ByteSize) -> SimDuration {
        self.write_time(size) + self.read_time(size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crate-level calibration contract: Table 3 first-checkpoint
    /// latencies of a 5 GB image, within a few percent.
    #[test]
    fn table3_calibration_anchors() {
        let five_gb = ByteSize::from_gb(5);
        let cases = [
            (MediaSpec::hdd(), 169.18),
            (MediaSpec::ssd(), 43.73),
            (MediaSpec::nvm(), 2.92),
        ];
        for (spec, paper_secs) in cases {
            let t = spec.write_time(five_gb).as_secs_f64();
            let rel = (t - paper_secs).abs() / paper_secs;
            assert!(
                rel < 0.05,
                "{}: modelled {t:.2}s vs paper {paper_secs}s ({:.1}% off)",
                spec.kind(),
                rel * 100.0
            );
        }
    }

    /// Fig. 2a shape: SSD 3–4× faster than HDD, NVM 10–15× faster than SSD
    /// on the full dump+restore round trip.
    #[test]
    fn fig2_speed_ratios() {
        let size = ByteSize::from_gb(10);
        let hdd = MediaSpec::hdd().round_trip_time(size).as_secs_f64();
        let ssd = MediaSpec::ssd().round_trip_time(size).as_secs_f64();
        let nvm = MediaSpec::nvm().round_trip_time(size).as_secs_f64();
        let hdd_over_ssd = hdd / ssd;
        let ssd_over_nvm = ssd / nvm;
        assert!(
            (3.0..=4.5).contains(&hdd_over_ssd),
            "HDD/SSD ratio {hdd_over_ssd:.2}"
        );
        assert!(
            (10.0..=16.0).contains(&ssd_over_nvm),
            "SSD/NVM ratio {ssd_over_nvm:.2}"
        );
        // And the 10 GB HDD round trip lands in the paper's 500–600 s band.
        assert!(
            (450.0..=620.0).contains(&hdd),
            "HDD 10 GB round trip {hdd:.0}s"
        );
    }

    #[test]
    fn throttle_sets_both_directions() {
        let bw = Bandwidth::from_gb_per_sec_f64(2.0);
        let spec = MediaSpec::nvm().throttled(bw);
        assert_eq!(spec.write_bw(), bw);
        assert_eq!(spec.read_bw(), bw);
        assert_eq!(spec.kind(), MediaKind::Nvm);
    }

    #[test]
    fn scaled_changes_bandwidth_not_capacity() {
        let spec = MediaSpec::hdd().scaled(2.0);
        assert_eq!(spec.write_bw(), Bandwidth::from_mb_per_sec(60));
        assert_eq!(spec.capacity(), MediaSpec::hdd().capacity());
    }

    #[test]
    fn zero_size_ops_cost_only_setup() {
        let spec = MediaSpec::ssd();
        assert_eq!(spec.write_time(ByteSize::ZERO), spec.setup());
        assert_eq!(spec.read_time(ByteSize::ZERO), spec.setup());
    }

    #[test]
    fn kind_round_trips_through_spec() {
        for kind in MediaKind::ALL {
            assert_eq!(kind.spec().kind(), kind);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(MediaKind::Hdd.to_string(), "HDD");
        assert_eq!(MediaKind::Ssd.to_string(), "SSD");
        assert_eq!(MediaKind::Nvm.to_string(), "NVM");
    }
}
