//! Checkpoint-image lifecycle management: the capacity-backpressure ladder.
//!
//! The paper's media (Table 3: 48 GB NVM, 120 GB SSD) fill quickly under
//! bursty preemption, and a naive engine treats a full device as just
//! another dump failure — retried and then killed. This module provides the
//! building blocks for degrading gracefully instead:
//!
//! 1. **Image ledger** ([`ImageLedger`]): per-device live-image byte counts
//!    maintained alongside the [`crate::Criu`] catalog, so the simulators
//!    can hard-assert the conservation invariant *device reserved bytes ==
//!    live catalog bytes (+ injected leaks)* after every event.
//! 2. **Degradation ladder** (planned here, driven by
//!    `cbp_core::ckpt_path`): when no device has room for a dump — free
//!    capacity already subtracts every queued-but-unfinished dump, because
//!    reservations are taken at submission — the checkpoint path first
//!    runs a **GC pass** (reclaiming dead/stale reservations), then
//!    **evicts** the cheapest-to-lose live chains ([`plan_evictions`]; the
//!    owning tasks fall back to scratch-restart), then **spills** the dump
//!    to a remote node's device via the DFS (paying pipeline cost; the
//!    restore becomes remote), and only then gives up with a
//!    `DumpFallback("no-space")` kill.
//!
//! The ladder itself lives in `cbp_core::ckpt_path`, the checkpoint-image
//! path both simulators share; everything here is pure bookkeeping, the
//! one definition of "cheapest to lose" and "conserved".

use cbp_simkit::units::ByteSize;

/// Per-node live-image byte ledger.
///
/// Mirrors every reservation the catalog holds: bytes are added when a dump
/// reserves storage on a node and subtracted when images are discarded,
/// aborted, or replaced. Indexed by origin-node id, growing on demand, so
/// per-event conservation checks are O(nodes) with no hashing.
#[derive(Debug, Default, Clone)]
pub struct ImageLedger {
    live: Vec<u64>,
}

impl ImageLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `bytes` of new image data on `node`.
    pub fn add(&mut self, node: u32, bytes: ByteSize) {
        let idx = node as usize;
        if idx >= self.live.len() {
            self.live.resize(idx + 1, 0);
        }
        self.live[idx] += bytes.as_u64();
    }

    /// Removes `bytes` of image data from `node`.
    ///
    /// Saturates at zero; the catalog never discards more than it recorded,
    /// so an underflow here is a bookkeeping bug the conservation assert
    /// will surface as a device/ledger mismatch.
    pub fn sub(&mut self, node: u32, bytes: ByteSize) {
        let idx = node as usize;
        if idx < self.live.len() {
            debug_assert!(
                self.live[idx] >= bytes.as_u64(),
                "ledger underflow on node {node}"
            );
            self.live[idx] = self.live[idx].saturating_sub(bytes.as_u64());
        } else {
            debug_assert!(bytes.is_zero(), "ledger underflow on unseen node {node}");
        }
    }

    /// Live image bytes recorded on `node`.
    pub fn bytes_on(&self, node: u32) -> ByteSize {
        ByteSize::from_bytes(self.live.get(node as usize).copied().unwrap_or(0))
    }

    /// Live image bytes across all nodes.
    pub fn total(&self) -> ByteSize {
        ByteSize::from_bytes(self.live.iter().sum())
    }
}

/// A live chain that could be evicted to make room on its device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvictionCandidate {
    /// Scheduler-level task id owning the chain.
    pub task: u64,
    /// What the cluster loses by evicting: the checkpointed progress that
    /// the task would have to recompute from scratch, in core-seconds.
    pub cost_core_secs: f64,
    /// Image bytes the eviction frees on the pressured device.
    pub bytes_on_node: ByteSize,
}

/// Picks which chains to evict to reclaim at least `shortfall` bytes.
///
/// Candidates are taken cheapest-first (by [`EvictionCandidate::cost_core_secs`],
/// tie-broken by task id for determinism) until the freed bytes cover the
/// shortfall. Returns the chosen victims in eviction order; if even evicting
/// everything cannot cover the shortfall, returns the empty plan — partial
/// eviction would destroy progress without letting the dump proceed, so the
/// caller should move to the next ladder rung (spill) instead.
pub fn plan_evictions(
    mut candidates: Vec<EvictionCandidate>,
    shortfall: ByteSize,
) -> Vec<EvictionCandidate> {
    let available: u64 = candidates.iter().map(|c| c.bytes_on_node.as_u64()).sum();
    if available < shortfall.as_u64() {
        return Vec::new();
    }
    candidates.sort_by(|a, b| {
        a.cost_core_secs
            .total_cmp(&b.cost_core_secs)
            .then(a.task.cmp(&b.task))
    });
    let mut freed = 0u64;
    let mut plan = Vec::new();
    for c in candidates {
        if freed >= shortfall.as_u64() {
            break;
        }
        freed += c.bytes_on_node.as_u64();
        plan.push(c);
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(task: u64, cost: f64, mb: u64) -> EvictionCandidate {
        EvictionCandidate {
            task,
            cost_core_secs: cost,
            bytes_on_node: ByteSize::from_mb(mb),
        }
    }

    #[test]
    fn ledger_tracks_per_node_bytes() {
        let mut l = ImageLedger::new();
        l.add(3, ByteSize::from_mb(100));
        l.add(0, ByteSize::from_mb(50));
        l.add(3, ByteSize::from_mb(25));
        assert_eq!(l.bytes_on(3), ByteSize::from_mb(125));
        assert_eq!(l.bytes_on(0), ByteSize::from_mb(50));
        assert_eq!(l.bytes_on(7), ByteSize::ZERO);
        assert_eq!(l.total(), ByteSize::from_mb(175));
        l.sub(3, ByteSize::from_mb(125));
        assert_eq!(l.bytes_on(3), ByteSize::ZERO);
        assert_eq!(l.total(), ByteSize::from_mb(50));
    }

    #[test]
    fn evictions_take_cheapest_first_until_covered() {
        let plan = plan_evictions(
            vec![cand(9, 30.0, 400), cand(2, 10.0, 100), cand(5, 20.0, 200)],
            ByteSize::from_mb(250),
        );
        assert_eq!(
            plan.iter().map(|c| c.task).collect::<Vec<_>>(),
            vec![2, 5],
            "cheapest two cover 300 MB >= 250 MB"
        );
    }

    #[test]
    fn evictions_tie_break_on_task_id() {
        let plan = plan_evictions(
            vec![cand(7, 5.0, 100), cand(3, 5.0, 100)],
            ByteSize::from_mb(150),
        );
        assert_eq!(plan.iter().map(|c| c.task).collect::<Vec<_>>(), vec![3, 7]);
    }

    #[test]
    fn hopeless_shortfall_yields_empty_plan() {
        let plan = plan_evictions(
            vec![cand(1, 1.0, 100), cand(2, 2.0, 100)],
            ByteSize::from_gb(1),
        );
        assert!(
            plan.is_empty(),
            "partial eviction must not destroy progress"
        );
    }
}
