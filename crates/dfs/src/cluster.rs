//! The DFS cluster: datanodes, placement, and transfer timing.

use std::rc::Rc;

use cbp_simkit::units::{Bandwidth, ByteSize};
use cbp_simkit::{SimDuration, SimRng};
use cbp_storage::MediaSpec;

use crate::namespace::{add_replica, live, remove_replica, FileId, FileInfo, Namespace};
use crate::DfsError;

/// Identifier of a datanode (index into the cluster's datanode table; the
/// scheduler layers use the same index for compute nodes, mirroring the
/// co-located NodeManager + DataNode deployment of the paper's testbed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DnId(pub u32);

/// DFS-wide configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DfsConfig {
    /// Block size (HDFS default is 128 MB).
    pub block_size: ByteSize,
    /// Replicas per block.
    pub replication: usize,
    /// Per-node network bandwidth (the pipeline cap for remote replicas).
    pub network_bw: Bandwidth,
    /// Fixed software overhead per block transfer (RPC, buffer copies); this
    /// is what keeps HDFS above the local file system in Fig. 2b even when
    /// bandwidth does not bind.
    pub per_block_overhead: SimDuration,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            block_size: ByteSize::from_mb(128),
            replication: 2,
            // 10 GbE as in a modern testbed: 1.25 GB/s.
            network_bw: Bandwidth::from_gb_per_sec_f64(1.25),
            per_block_overhead: SimDuration::from_millis(40),
        }
    }
}

/// A datanode's local state.
#[derive(Debug, Clone)]
struct DataNode {
    media: MediaSpec,
    used: ByteSize,
    alive: bool,
}

/// What the NameNode did after a datanode failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationRepair {
    /// Blocks that lost one replica and were re-replicated elsewhere.
    pub blocks_repaired: usize,
    /// Bytes the repair copies across the network.
    pub bytes_copied: ByteSize,
    /// Blocks whose last replica died — their data is gone.
    pub blocks_lost: usize,
}

/// Timing and identity of a completed DFS write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteReceipt {
    /// The created file.
    pub file: FileId,
    /// End-to-end pipelined write duration.
    pub duration: SimDuration,
    /// Number of blocks written.
    pub blocks: usize,
}

/// The byte split of a prospective read from a given node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadCost {
    /// Bytes served from a replica on the reading node.
    pub local_bytes: ByteSize,
    /// Bytes that must cross the network from other datanodes.
    pub remote_bytes: ByteSize,
    /// End-to-end read duration.
    pub duration: SimDuration,
}

/// The distributed file system: a NameNode ([`Namespace`]) plus datanodes.
///
/// Placement follows HDFS: the first replica lands on the writing node, the
/// remaining replicas on distinct live nodes chosen uniformly. Datanode
/// capacity is not modelled: each node's use is tracked
/// ([`DfsCluster::used_on`]), but no write is refused for lack of space.
/// Placement randomness comes from a seeded [`SimRng`], so runs are
/// reproducible.
#[derive(Debug)]
pub struct DfsCluster {
    config: DfsConfig,
    nodes: Vec<DataNode>,
    namespace: Namespace,
    rng: SimRng,
}

impl DfsCluster {
    /// Creates a cluster of `n` identical datanodes backed by `media`.
    pub fn homogeneous(config: DfsConfig, media: MediaSpec, n: usize, seed: u64) -> Self {
        assert!(n > 0, "a DFS needs at least one datanode");
        assert!(config.replication >= 1, "replication factor must be >= 1");
        DfsCluster {
            config,
            nodes: vec![
                DataNode {
                    media,
                    used: ByteSize::ZERO,
                    alive: true
                };
                n
            ],
            namespace: Namespace::new(),
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &DfsConfig {
        &self.config
    }

    /// The namespace (read-only).
    pub fn namespace(&self) -> &Namespace {
        &self.namespace
    }

    /// Bytes stored on a datanode (all replicas).
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownDataNode`] if `dn` is out of range.
    pub fn used_on(&self, dn: DnId) -> Result<ByteSize, DfsError> {
        self.node(dn).map(|n| n.used)
    }

    fn node(&self, dn: DnId) -> Result<&DataNode, DfsError> {
        self.nodes
            .get(dn.0 as usize)
            .ok_or(DfsError::UnknownDataNode(dn))
    }

    /// The effective pipelined write bandwidth through `dn`: capped by both
    /// the local disk and (when replicating) the network.
    fn pipeline_write_bw(&self, writer: &DataNode) -> Bandwidth {
        let disk = writer.media.write_bw();
        if self.config.replication > 1 {
            disk.min(self.config.network_bw)
        } else {
            disk
        }
    }

    /// Creates `path` with `size` bytes written from datanode `writer`.
    /// The namespace keeps `path` itself as the file's name, so a caller
    /// that holds on to an `Rc<str>` shares it instead of copying it.
    ///
    /// Returns the pipelined write timing. Replicas: one on `writer`, the
    /// rest on distinct other nodes (fewer if the cluster is smaller than
    /// the replication factor, as in HDFS).
    ///
    /// # Errors
    ///
    /// * [`DfsError::FileExists`] if the path is taken.
    /// * [`DfsError::UnknownDataNode`] if `writer` is out of range.
    /// * [`DfsError::WriterDown`] if `writer` is down.
    pub fn create(
        &mut self,
        path: impl Into<Rc<str>>,
        size: ByteSize,
        writer: DnId,
    ) -> Result<WriteReceipt, DfsError> {
        let path = path.into();
        if !self.node(writer)?.alive {
            return Err(DfsError::WriterDown(writer));
        }
        if self.namespace.contains(&path) {
            return Err(DfsError::FileExists(path.to_string()));
        }

        let block_size = self.config.block_size;
        let nblocks = size.as_u64().div_ceil(block_size.as_u64()) as usize;
        let alive = self.nodes.iter().filter(|n| n.alive).count();
        let want = self.config.replication.min(alive.max(1));
        let mut slots = Vec::with_capacity(nblocks * want);
        let mut remaining = size;
        while !remaining.is_zero() {
            let bsize = remaining.min(block_size);
            remaining = remaining.saturating_sub(bsize);
            let start = slots.len();
            self.place_replicas(writer, want, &mut slots);
            for &dn in &slots[start..] {
                self.nodes[dn.0 as usize].used += bsize;
            }
        }
        // Zero-byte files still occupy a namespace entry.
        let file = self
            .namespace
            .insert(path, FileInfo::new(size, block_size, want, slots))?;

        let writer_node = &self.nodes[writer.0 as usize];
        let bw = self.pipeline_write_bw(writer_node);
        let duration = writer_node.media.setup()
            + bw.transfer_time(size)
            + self.config.per_block_overhead * nblocks as u64;
        Ok(WriteReceipt {
            file,
            duration,
            blocks: nblocks,
        })
    }

    /// Appends one block's `want` replicas to `slots`: the writer, then
    /// distinct live nodes by rejection sampling (bounded because `want`
    /// is at most the live node count, or 1).
    fn place_replicas(&mut self, writer: DnId, want: usize, slots: &mut Vec<DnId>) {
        let start = slots.len();
        slots.push(writer);
        while slots.len() - start < want {
            let cand = DnId(self.rng.index(self.nodes.len()) as u32);
            if !slots[start..].contains(&cand) && self.nodes[cand.0 as usize].alive {
                slots.push(cand);
            }
        }
    }

    /// Marks `dn` dead and re-replicates every block that lost a replica
    /// onto other live datanodes, as the HDFS NameNode does. Blocks whose
    /// only replica lived on `dn` are lost.
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownDataNode`] if `dn` is out of range.
    pub fn fail_datanode(&mut self, dn: DnId) -> Result<ReplicationRepair, DfsError> {
        self.node(dn)?;
        if !self.nodes[dn.0 as usize].alive {
            // Already dead (overlapping failure reports for the same
            // datanode): every replica it held was re-replicated or
            // declared lost by the first report. Re-scanning would not
            // find anything but would advance the repair RNG, making the
            // outcome depend on how many times the failure was reported.
            return Ok(ReplicationRepair {
                blocks_repaired: 0,
                bytes_copied: ByteSize::ZERO,
                blocks_lost: 0,
            });
        }
        self.nodes[dn.0 as usize].alive = false;
        self.nodes[dn.0 as usize].used = ByteSize::ZERO;

        let live_nodes: Vec<u32> = (0..self.nodes.len() as u32)
            .filter(|&i| self.nodes[i as usize].alive)
            .collect();
        let mut repair = ReplicationRepair {
            blocks_repaired: 0,
            bytes_copied: ByteSize::ZERO,
            blocks_lost: 0,
        };
        let mut candidates: Vec<u32> = Vec::new();
        for file in self.namespace.files_mut() {
            for (size, slots) in file.slots_mut() {
                if !remove_replica(slots, dn) {
                    continue; // this block had no replica on dn
                }
                let replicas = live(slots);
                if replicas.is_empty() {
                    repair.blocks_lost += 1;
                    continue;
                }
                // Pick a live node not already holding the block.
                candidates.clear();
                candidates.extend(
                    live_nodes
                        .iter()
                        .copied()
                        .filter(|&i| !replicas.contains(&DnId(i))),
                );
                if !candidates.is_empty() {
                    let target = candidates[self.rng.index(candidates.len())];
                    add_replica(slots, DnId(target));
                    self.nodes[target as usize].used += size;
                    repair.blocks_repaired += 1;
                    repair.bytes_copied += size;
                }
            }
        }
        Ok(repair)
    }

    /// Brings `dn` back into service, empty (its old data was already
    /// re-replicated or lost). Recovering a live datanode does nothing.
    ///
    /// # Errors
    ///
    /// [`DfsError::UnknownDataNode`] if `dn` is out of range.
    pub fn recover_datanode(&mut self, dn: DnId) -> Result<(), DfsError> {
        if self.node(dn)?.alive {
            return Ok(());
        }
        self.nodes[dn.0 as usize].alive = true;
        debug_assert!(self.nodes[dn.0 as usize].used.is_zero());
        Ok(())
    }

    /// True if `dn` is in service.
    pub fn is_alive(&self, dn: DnId) -> bool {
        self.nodes.get(dn.0 as usize).is_some_and(|n| n.alive)
    }

    /// True if every block of `path` still has at least one replica.
    /// Files that lost blocks to datanode failures are unreadable until
    /// rewritten.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path is absent.
    pub fn is_readable(&self, path: &str) -> Result<bool, DfsError> {
        Ok(self
            .namespace
            .file(path)?
            .blocks()
            .all(|b| !b.replicas.is_empty()))
    }

    /// The cost of reading `path` in full from datanode `reader`, splitting
    /// block bytes into local and remote and timing the transfer
    /// (remote bytes are capped by `min(network, source disk read)`).
    ///
    /// # Errors
    ///
    /// * [`DfsError::NotFound`] if the path is absent.
    /// * [`DfsError::UnknownDataNode`] if `reader` is out of range.
    pub fn read_cost(&self, path: &str, reader: DnId) -> Result<ReadCost, DfsError> {
        let reader_node = self.node(reader)?;
        let file = self.namespace.file(path)?;
        let mut local = ByteSize::ZERO;
        let mut remote = ByteSize::ZERO;
        let mut remote_bw = self.config.network_bw;
        for b in file.blocks() {
            if b.is_local_to(reader) {
                local += b.size;
            } else if b.replicas.is_empty() {
                // Block lost to datanode failures: nothing to read. Callers
                // should gate on [`DfsCluster::is_readable`]; costing the
                // remnant keeps this estimator total.
                continue;
            } else {
                remote += b.size;
                // The slowest source disk in the replica set bounds us; use
                // the first replica's media (homogeneous in practice).
                if let Ok(src) = self.node(b.replicas[0]) {
                    remote_bw = remote_bw.min(src.media.read_bw());
                }
            }
        }
        let duration = reader_node.media.setup()
            + reader_node.media.read_bw().transfer_time(local)
            + remote_bw.transfer_time(remote)
            + self.config.per_block_overhead * file.block_count() as u64;
        Ok(ReadCost {
            local_bytes: local,
            remote_bytes: remote,
            duration,
        })
    }

    /// Deletes `path`, releasing replica space on every datanode.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path is absent.
    pub fn delete(&mut self, path: &str) -> Result<ByteSize, DfsError> {
        let file = self.namespace.remove(path)?;
        for b in file.blocks() {
            for &dn in b.replicas {
                let node = &mut self.nodes[dn.0 as usize];
                node.used = node.used.saturating_sub(b.size);
            }
        }
        Ok(file.size)
    }

    /// Total bytes stored across all datanodes (replication included).
    pub fn total_used(&self) -> ByteSize {
        self.nodes.iter().map(|n| n.used).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(n: usize, replication: usize) -> DfsCluster {
        let config = DfsConfig {
            replication,
            ..DfsConfig::default()
        };
        DfsCluster::homogeneous(config, MediaSpec::ssd(), n, 42)
    }

    #[test]
    fn create_places_first_replica_on_writer() {
        let mut dfs = cluster(5, 3);
        dfs.create("/f", ByteSize::from_mb(300), DnId(2)).unwrap();
        let file = dfs.namespace().file("/f").unwrap();
        assert_eq!(file.block_count(), 3); // 128 + 128 + 44 MB
        for b in file.blocks() {
            assert_eq!(b.replicas[0], DnId(2));
            assert_eq!(b.replicas.len(), 3);
            let mut sorted = b.replicas.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
        }
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let mut dfs = cluster(2, 3);
        dfs.create("/f", ByteSize::from_mb(10), DnId(0)).unwrap();
        let file = dfs.namespace().file("/f").unwrap();
        assert_eq!(file.block(0).replicas.len(), 2);
    }

    /// A replication factor above the cluster size costs no more slots
    /// than the cluster can fill.
    #[test]
    fn huge_replication_factor_is_capped() {
        let mut dfs = cluster(3, 1_000);
        dfs.create("/f", ByteSize::from_mb(300), DnId(1)).unwrap();
        let file = dfs.namespace().file("/f").unwrap();
        assert!(file.blocks().all(|b| b.replicas.len() == 3));
        assert_eq!(dfs.total_used(), ByteSize::from_mb(900));
    }

    #[test]
    fn usage_accounting_with_replication() {
        let mut dfs = cluster(4, 2);
        dfs.create("/f", ByteSize::from_mb(100), DnId(0)).unwrap();
        assert_eq!(dfs.total_used(), ByteSize::from_mb(200));
        assert_eq!(dfs.used_on(DnId(0)).unwrap(), ByteSize::from_mb(100));
        dfs.delete("/f").unwrap();
        assert_eq!(dfs.total_used(), ByteSize::ZERO);
    }

    #[test]
    fn read_local_vs_remote_split() {
        let mut dfs = cluster(8, 1); // replication 1: only the writer holds data
        dfs.create("/f", ByteSize::from_mb(256), DnId(3)).unwrap();
        let local = dfs.read_cost("/f", DnId(3)).unwrap();
        assert_eq!(local.local_bytes, ByteSize::from_mb(256));
        assert_eq!(local.remote_bytes, ByteSize::ZERO);
        let remote = dfs.read_cost("/f", DnId(4)).unwrap();
        assert_eq!(remote.local_bytes, ByteSize::ZERO);
        assert_eq!(remote.remote_bytes, ByteSize::from_mb(256));
        assert!(remote.duration >= local.duration);
    }

    /// Fig. 2b property: on the same medium, dumping through HDFS is slower
    /// than the raw device write.
    #[test]
    fn hdfs_write_slower_than_local_fs() {
        for media in [MediaSpec::hdd(), MediaSpec::ssd(), MediaSpec::nvm()] {
            let config = DfsConfig::default();
            let mut dfs = DfsCluster::homogeneous(config, media, 4, 1);
            let size = ByteSize::from_gb(5);
            let r = dfs.create("/f", size, DnId(0)).unwrap();
            let local = media.write_time(size);
            assert!(
                r.duration > local,
                "{}: HDFS {:?} <= local {:?}",
                media.kind(),
                r.duration,
                local
            );
        }
    }

    /// And the media ordering is preserved through HDFS.
    #[test]
    fn hdfs_preserves_media_ordering() {
        let size = ByteSize::from_gb(5);
        let mut times = Vec::new();
        for media in [MediaSpec::hdd(), MediaSpec::ssd(), MediaSpec::nvm()] {
            let mut dfs = DfsCluster::homogeneous(DfsConfig::default(), media, 4, 1);
            times.push(dfs.create("/f", size, DnId(0)).unwrap().duration);
        }
        assert!(times[0] > times[1], "HDD slower than SSD");
        assert!(times[1] > times[2], "SSD slower than NVM");
    }

    #[test]
    fn errors() {
        let mut dfs = cluster(2, 1);
        dfs.create("/f", ByteSize::from_mb(1), DnId(0)).unwrap();
        assert!(matches!(
            dfs.create("/f", ByteSize::from_mb(1), DnId(0)),
            Err(DfsError::FileExists(_))
        ));
        assert!(matches!(
            dfs.create("/g", ByteSize::from_mb(1), DnId(9)),
            Err(DfsError::UnknownDataNode(_))
        ));
        dfs.fail_datanode(DnId(1)).unwrap();
        assert_eq!(
            dfs.create("/g", ByteSize::from_mb(1), DnId(1)),
            Err(DfsError::WriterDown(DnId(1)))
        );
        assert!(matches!(
            dfs.read_cost("/nope", DnId(0)),
            Err(DfsError::NotFound(_))
        ));
        assert!(matches!(dfs.delete("/nope"), Err(DfsError::NotFound(_))));
        // Display formatting is meaningful.
        let msg = DfsError::WriterDown(DnId(1)).to_string();
        assert!(msg.contains("down"), "{msg}");
    }

    #[test]
    fn empty_file_allowed() {
        let mut dfs = cluster(2, 2);
        let r = dfs.create("/empty", ByteSize::ZERO, DnId(0)).unwrap();
        assert_eq!(r.blocks, 0);
        let cost = dfs.read_cost("/empty", DnId(1)).unwrap();
        assert_eq!(cost.local_bytes + cost.remote_bytes, ByteSize::ZERO);
    }

    #[test]
    fn datanode_failure_rereplicates() {
        let mut dfs = cluster(4, 2);
        dfs.create("/f", ByteSize::from_mb(256), DnId(0)).unwrap();
        let before = dfs.total_used();
        let repair = dfs.fail_datanode(DnId(0)).unwrap();
        assert!(!dfs.is_alive(DnId(0)));
        // Every block had a replica on node 0 (the writer): all repaired.
        assert_eq!(repair.blocks_repaired, 2);
        assert_eq!(repair.blocks_lost, 0);
        assert_eq!(repair.bytes_copied, ByteSize::from_mb(256));
        // Replication factor restored: total bytes unchanged.
        assert_eq!(dfs.total_used(), before);
        assert_eq!(dfs.used_on(DnId(0)).unwrap(), ByteSize::ZERO);
        // Every block readable from a live node, with no dead replicas.
        let file = dfs.namespace().file("/f").unwrap();
        for b in file.blocks() {
            assert_eq!(b.replicas.len(), 2);
            for &r in b.replicas {
                assert!(dfs.is_alive(r), "dead replica {r:?} survives in map");
            }
        }
        // Recovery brings the node back empty; new writes may use it.
        dfs.recover_datanode(DnId(0)).unwrap();
        assert!(dfs.is_alive(DnId(0)));
        dfs.create("/g", ByteSize::from_mb(10), DnId(0)).unwrap();
    }

    #[test]
    fn unreplicated_block_is_lost_on_failure() {
        let mut dfs = cluster(3, 1);
        dfs.create("/f", ByteSize::from_mb(100), DnId(1)).unwrap();
        let repair = dfs.fail_datanode(DnId(1)).unwrap();
        assert_eq!(repair.blocks_repaired, 0);
        assert_eq!(repair.blocks_lost, 1);
        let file = dfs.namespace().file("/f").unwrap();
        assert!(file.block(0).replicas.is_empty());
    }

    /// Regression: overlapping failure reports for the same block chain
    /// must not double-count repairs, perturb the repair RNG, or leave a
    /// block unreplicated while a healthy node could hold it.
    #[test]
    fn overlapping_failures_never_double_repair() {
        let mut dfs = cluster(4, 2);
        dfs.create("/f", ByteSize::from_mb(256), DnId(0)).unwrap();
        let first = dfs.fail_datanode(DnId(0)).unwrap();
        assert_eq!(first.blocks_repaired, 2);
        // A duplicate report for the dead node is a no-op.
        let dup = dfs.fail_datanode(DnId(0)).unwrap();
        assert_eq!(dup.blocks_repaired, 0);
        assert_eq!(dup.blocks_lost, 0);
        assert_eq!(dup.bytes_copied, ByteSize::ZERO);
        // A second, overlapping failure hits the same chain: with two
        // healthy nodes left, every block must still end up replicated.
        let second = dfs.fail_datanode(DnId(1)).unwrap();
        assert_eq!(second.blocks_lost, 0);
        assert!(dfs.is_readable("/f").unwrap());
        let file = dfs.namespace().file("/f").unwrap();
        for b in file.blocks() {
            assert!(
                !b.replicas.is_empty(),
                "block lost replicas while healthy nodes exist"
            );
            for &r in b.replicas {
                assert!(dfs.is_alive(r), "dead replica {r:?} survives in map");
            }
        }
        // Total repair work across the two reports covers each block at
        // most once per failure, never twice for the duplicate.
        assert_eq!(first.blocks_repaired + dup.blocks_repaired, 2);
    }

    /// The duplicate report must also leave the repair RNG untouched so
    /// later placements do not depend on how often a failure was seen.
    #[test]
    fn duplicate_failure_report_is_rng_neutral() {
        let mut a = cluster(6, 2);
        let mut b = cluster(6, 2);
        a.create("/f", ByteSize::from_mb(128), DnId(0)).unwrap();
        b.create("/f", ByteSize::from_mb(128), DnId(0)).unwrap();
        a.fail_datanode(DnId(0)).unwrap();
        b.fail_datanode(DnId(0)).unwrap();
        // Only `b` sees the duplicate report.
        b.fail_datanode(DnId(0)).unwrap();
        a.create("/g", ByteSize::from_mb(128), DnId(1)).unwrap();
        b.create("/g", ByteSize::from_mb(128), DnId(1)).unwrap();
        assert_eq!(
            a.namespace().file("/g").unwrap(),
            b.namespace().file("/g").unwrap()
        );
    }

    #[test]
    fn placement_avoids_dead_nodes() {
        let mut dfs = cluster(3, 3);
        dfs.fail_datanode(DnId(2)).unwrap();
        dfs.create("/f", ByteSize::from_mb(10), DnId(0)).unwrap();
        let file = dfs.namespace().file("/f").unwrap();
        // Only 2 live nodes: replication clamps to 2, none on the dead node.
        assert_eq!(file.block(0).replicas.len(), 2);
        assert!(!file.block(0).is_local_to(DnId(2)));
    }

    #[test]
    fn deterministic_placement_with_same_seed() {
        let mut a = cluster(10, 3);
        let mut b = cluster(10, 3);
        for i in 0..20 {
            let path = format!("/f{i}");
            a.create(path.as_str(), ByteSize::from_mb(64), DnId(0))
                .unwrap();
            b.create(path.as_str(), ByteSize::from_mb(64), DnId(0))
                .unwrap();
        }
        for i in 0..20 {
            let path = format!("/f{i}");
            assert_eq!(
                a.namespace().file(&path).unwrap(),
                b.namespace().file(&path).unwrap()
            );
        }
    }
}
