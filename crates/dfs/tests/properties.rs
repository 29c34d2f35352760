//! Property-based tests for the DFS: accounting conservation under random
//! create/read/delete sequences, and agreement with the simple
//! vector-per-block cluster the flat replica table replaced.

use std::collections::BTreeMap;

use cbp_dfs::{
    DfsCluster, DfsConfig, DfsError, DnId, FileId, ReadCost, ReplicationRepair, WriteReceipt,
};
use cbp_simkit::units::ByteSize;
use cbp_simkit::SimRng;
use cbp_storage::MediaSpec;
use proptest::prelude::*;

/// A reference block: its size and the datanodes holding a replica.
type RefBlock = (ByteSize, Vec<DnId>);

/// The reference cluster: every block owns a `Vec` of its replicas, and
/// placement, repair and costing are written the plain way. It draws from
/// the same seeded RNG in the same order, so a correct [`DfsCluster`]
/// matches it exactly.
struct RefDfs {
    config: DfsConfig,
    media: MediaSpec,
    used: Vec<ByteSize>,
    alive: Vec<bool>,
    /// Path → (size, blocks).
    files: BTreeMap<String, (ByteSize, Vec<RefBlock>)>,
    next_file: u64,
    rng: SimRng,
}

impl RefDfs {
    fn new(config: DfsConfig, media: MediaSpec, n: usize, seed: u64) -> Self {
        RefDfs {
            config,
            media,
            used: vec![ByteSize::ZERO; n],
            alive: vec![true; n],
            files: BTreeMap::new(),
            next_file: 0,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    fn place_replicas(&mut self, writer: DnId) -> Vec<DnId> {
        let mut replicas = vec![writer];
        let alive = self.alive.iter().filter(|&&a| a).count();
        let want = self.config.replication.min(alive.max(1));
        while replicas.len() < want {
            let cand = DnId(self.rng.index(self.alive.len()) as u32);
            if !replicas.contains(&cand) && self.alive[cand.0 as usize] {
                replicas.push(cand);
            }
        }
        replicas
    }

    fn create(
        &mut self,
        path: &str,
        size: ByteSize,
        writer: DnId,
    ) -> Result<WriteReceipt, DfsError> {
        if !self.alive[writer.0 as usize] {
            return Err(DfsError::WriterDown(writer));
        }
        if self.files.contains_key(path) {
            return Err(DfsError::FileExists(path.to_string()));
        }
        let mut blocks = Vec::new();
        let mut remaining = size;
        while !remaining.is_zero() {
            let bsize = remaining.min(self.config.block_size);
            remaining = remaining.saturating_sub(bsize);
            let replicas = self.place_replicas(writer);
            for &dn in &replicas {
                self.used[dn.0 as usize] += bsize;
            }
            blocks.push((bsize, replicas));
        }
        let nblocks = blocks.len();
        let file = FileId(self.next_file);
        self.next_file += 1;
        self.files.insert(path.to_string(), (size, blocks));
        let bw = if self.config.replication > 1 {
            self.media.write_bw().min(self.config.network_bw)
        } else {
            self.media.write_bw()
        };
        let duration = self.media.setup()
            + bw.transfer_time(size)
            + self.config.per_block_overhead * nblocks as u64;
        Ok(WriteReceipt {
            file,
            duration,
            blocks: nblocks,
        })
    }

    fn fail_datanode(&mut self, dn: DnId) -> ReplicationRepair {
        let mut repair = ReplicationRepair {
            blocks_repaired: 0,
            bytes_copied: ByteSize::ZERO,
            blocks_lost: 0,
        };
        if !self.alive[dn.0 as usize] {
            return repair;
        }
        self.alive[dn.0 as usize] = false;
        self.used[dn.0 as usize] = ByteSize::ZERO;
        let live: Vec<u32> = (0..self.alive.len() as u32)
            .filter(|&i| self.alive[i as usize])
            .collect();
        for (_, blocks) in self.files.values_mut() {
            for (size, replicas) in blocks {
                let before = replicas.len();
                replicas.retain(|&r| r != dn);
                if replicas.len() == before {
                    continue;
                }
                if replicas.is_empty() {
                    repair.blocks_lost += 1;
                    continue;
                }
                let candidates: Vec<u32> = live
                    .iter()
                    .copied()
                    .filter(|&i| !replicas.contains(&DnId(i)))
                    .collect();
                if !candidates.is_empty() {
                    let target = candidates[self.rng.index(candidates.len())];
                    replicas.push(DnId(target));
                    self.used[target as usize] += *size;
                    repair.blocks_repaired += 1;
                    repair.bytes_copied += *size;
                }
            }
        }
        repair
    }

    fn is_readable(&self, path: &str) -> Option<bool> {
        let (_, blocks) = self.files.get(path)?;
        Some(blocks.iter().all(|(_, r)| !r.is_empty()))
    }

    fn read_cost(&self, path: &str, reader: DnId) -> Option<ReadCost> {
        let (_, blocks) = self.files.get(path)?;
        let (mut local, mut remote) = (ByteSize::ZERO, ByteSize::ZERO);
        let mut remote_bw = self.config.network_bw;
        for (size, replicas) in blocks {
            if replicas.contains(&reader) {
                local += *size;
            } else if !replicas.is_empty() {
                remote += *size;
                remote_bw = remote_bw.min(self.media.read_bw());
            }
        }
        Some(ReadCost {
            local_bytes: local,
            remote_bytes: remote,
            duration: self.media.setup()
                + self.media.read_bw().transfer_time(local)
                + remote_bw.transfer_time(remote)
                + self.config.per_block_overhead * blocks.len() as u64,
        })
    }

    fn delete(&mut self, path: &str) -> Option<ByteSize> {
        let (size, blocks) = self.files.remove(path)?;
        for (bsize, replicas) in &blocks {
            for &dn in replicas {
                let used = &mut self.used[dn.0 as usize];
                *used = used.saturating_sub(*bsize);
            }
        }
        Some(size)
    }
}

#[derive(Debug, Clone)]
enum RefOp {
    Create { id: u8, mb: u32, writer: u8 },
    Read { id: u8, reader: u8 },
    Readable { id: u8 },
    Delete { id: u8 },
    Fail { dn: u8 },
    Recover { dn: u8 },
}

fn arb_ref_op() -> impl Strategy<Value = RefOp> {
    // Few paths so that creates collide and deletes hit; sizes up to a
    // handful of 128 MB blocks, empty files included.
    (0u8..100, 0u8..12, 0u32..700, 0u8..6).prop_map(|(pick, id, mb, dn)| match pick {
        0..=34 => RefOp::Create { id, mb, writer: dn },
        35..=54 => RefOp::Read { id, reader: dn },
        55..=64 => RefOp::Readable { id },
        65..=79 => RefOp::Delete { id },
        80..=91 => RefOp::Fail { dn },
        _ => RefOp::Recover { dn },
    })
}

#[derive(Debug, Clone)]
enum Op {
    Create { id: u16, mb: u32, writer: u8 },
    Read { id: u16, reader: u8 },
    Delete { id: u16 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u16..40, 1u32..2_000, 0u8..8).prop_map(|(id, mb, writer)| Op::Create { id, mb, writer }),
        (0u16..40, 0u8..8).prop_map(|(id, reader)| Op::Read { id, reader }),
        (0u16..40).prop_map(|id| Op::Delete { id }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Total replica bytes always equal the sum over live files of
    /// size × replica-count, and every read splits exactly into
    /// local + remote bytes.
    #[test]
    fn accounting_conserved(
        ops in proptest::collection::vec(arb_op(), 1..60),
        replication in 1usize..4,
        seed in 0u64..1000,
    ) {
        let config = DfsConfig { replication, ..DfsConfig::default() };
        let mut dfs = DfsCluster::homogeneous(config, MediaSpec::ssd(), 8, seed);
        let mut live: std::collections::HashMap<u16, u64> = Default::default();

        for op in ops {
            match op {
                Op::Create { id, mb, writer } => {
                    let path = format!("/f{id}");
                    let size = ByteSize::from_mb(mb as u64);
                    match dfs.create(path.as_str(), size, DnId(writer as u32)) {
                        Ok(receipt) => {
                            prop_assert!(!live.contains_key(&id), "create must fail on dup");
                            prop_assert!(receipt.duration.as_secs_f64() > 0.0);
                            live.insert(id, size.as_u64());
                        }
                        Err(_) => prop_assert!(live.contains_key(&id)),
                    }
                }
                Op::Read { id, reader } => {
                    let path = format!("/f{id}");
                    match dfs.read_cost(&path, DnId(reader as u32)) {
                        Ok(cost) => {
                            prop_assert!(live.contains_key(&id));
                            prop_assert_eq!(
                                (cost.local_bytes + cost.remote_bytes).as_u64(),
                                live[&id]
                            );
                        }
                        Err(_) => prop_assert!(!live.contains_key(&id)),
                    }
                }
                Op::Delete { id } => {
                    let path = format!("/f{id}");
                    match dfs.delete(&path) {
                        Ok(size) => {
                            prop_assert_eq!(size.as_u64(), live.remove(&id).unwrap_or(u64::MAX));
                        }
                        Err(_) => prop_assert!(!live.contains_key(&id)),
                    }
                }
            }
            // Invariant: total replica bytes == sum(live sizes) * replication
            // (replication capped by cluster size 8, which it never is here).
            let expected: u64 = live.values().sum::<u64>() * replication as u64;
            prop_assert_eq!(dfs.total_used().as_u64(), expected);
            prop_assert_eq!(dfs.namespace().file_count(), live.len());
        }
    }

    /// A writer always reads its own file fully locally.
    #[test]
    fn writer_reads_locally(mb in 1u64..4_000, writer in 0u32..6, seed in 0u64..100) {
        let mut dfs = DfsCluster::homogeneous(DfsConfig::default(), MediaSpec::nvm(), 6, seed);
        dfs.create("/self", ByteSize::from_mb(mb), DnId(writer)).unwrap();
        let cost = dfs.read_cost("/self", DnId(writer)).unwrap();
        prop_assert_eq!(cost.remote_bytes, ByteSize::ZERO);
        prop_assert_eq!(cost.local_bytes, ByteSize::from_mb(mb));
    }

    /// The flat replica table behaves exactly like one `Vec` per block:
    /// same receipts, read costs, repairs (the path-order sweep draws from
    /// the RNG in the same order), readability and per-node usage. A
    /// create from a down writer and a recover of a live node change
    /// nothing: no usage, and no RNG draw that would shift later ops.
    #[test]
    fn matches_the_vec_per_block_reference(
        ops in proptest::collection::vec(arb_ref_op(), 1..80),
        replication in 1usize..8,
        seed in 0u64..1000,
    ) {
        let config = DfsConfig { replication, ..DfsConfig::default() };
        let media = MediaSpec::hdd();
        let mut dfs = DfsCluster::homogeneous(config, media, 6, seed);
        let mut reference = RefDfs::new(config, media, 6, seed);
        for op in ops {
            match op {
                RefOp::Create { id, mb, writer } => {
                    let path = format!("/f{id}");
                    let size = ByteSize::from_mb(u64::from(mb));
                    let writer = DnId(u32::from(writer));
                    prop_assert_eq!(
                        dfs.create(path.as_str(), size, writer),
                        reference.create(&path, size, writer)
                    );
                }
                RefOp::Read { id, reader } => {
                    let path = format!("/f{id}");
                    let reader = DnId(u32::from(reader));
                    prop_assert_eq!(
                        dfs.read_cost(&path, reader).ok(),
                        reference.read_cost(&path, reader)
                    );
                }
                RefOp::Readable { id } => {
                    let path = format!("/f{id}");
                    prop_assert_eq!(dfs.is_readable(&path).ok(), reference.is_readable(&path));
                }
                RefOp::Delete { id } => {
                    let path = format!("/f{id}");
                    prop_assert_eq!(dfs.delete(&path).ok(), reference.delete(&path));
                }
                RefOp::Fail { dn } => {
                    let dn = DnId(u32::from(dn));
                    prop_assert_eq!(dfs.fail_datanode(dn).unwrap(), reference.fail_datanode(dn));
                }
                RefOp::Recover { dn } => {
                    prop_assert_eq!(dfs.recover_datanode(DnId(u32::from(dn))), Ok(()));
                    reference.alive[usize::from(dn)] = true;
                }
            }
            for dn in 0..6u32 {
                prop_assert_eq!(dfs.used_on(DnId(dn)).unwrap(), reference.used[dn as usize]);
            }
        }
    }
}
