//! The NameNode's view: files, blocks and replica locations.

use std::collections::btree_map::{BTreeMap, Entry};
use std::rc::Rc;

use cbp_simkit::units::ByteSize;

use crate::cluster::DnId;
use crate::DfsError;

/// Identifier of a file in the namespace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// Identifier of a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u64);

/// Marks an unused replica slot: a block that lost replicas to datanode
/// failures keeps its live ones at the front of its slots.
const NO_REPLICA: DnId = DnId(u32::MAX);

/// One replicated block: a view into its file's replica table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo<'a> {
    /// Block identity.
    pub id: BlockId,
    /// Bytes in this block (the final block of a file may be short).
    pub size: ByteSize,
    /// Datanodes holding a replica, pipeline order (first is the writer).
    pub replicas: &'a [DnId],
}

impl BlockInfo<'_> {
    /// True if `dn` holds a replica.
    pub fn is_local_to(&self, dn: DnId) -> bool {
        self.replicas.contains(&dn)
    }
}

/// A file: an ordered run of blocks whose replica locations share one
/// table, `stride` slots per block, so a file costs one allocation however
/// many blocks it has.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileInfo {
    /// File identity.
    pub id: FileId,
    /// Logical size.
    pub size: ByteSize,
    /// Size of every block but the last.
    block_size: ByteSize,
    /// The first block's id; the others follow in order.
    first_block: BlockId,
    /// Replica slots per block: the most replicas a block of this file
    /// ever holds (a repair only replaces a lost one).
    stride: usize,
    /// Each block's replicas, in pipeline order, then [`NO_REPLICA`] in
    /// the slots it has lost.
    slots: Vec<DnId>,
}

impl FileInfo {
    /// A file of `size` bytes cut into `block_size` blocks whose replica
    /// slots are `slots`, `stride` per block. Ids are set on insertion.
    pub(crate) fn new(
        size: ByteSize,
        block_size: ByteSize,
        stride: usize,
        slots: Vec<DnId>,
    ) -> Self {
        debug_assert!(stride >= 1 && slots.len().is_multiple_of(stride));
        FileInfo {
            id: FileId(0),
            size,
            block_size,
            first_block: BlockId(0),
            stride,
            slots,
        }
    }

    /// Number of blocks (zero for an empty file).
    pub fn block_count(&self) -> usize {
        self.slots.len() / self.stride
    }

    /// Block `i` of the file.
    ///
    /// # Panics
    ///
    /// If `i` is not below [`block_count`](Self::block_count).
    pub fn block(&self, i: usize) -> BlockInfo<'_> {
        let n = self.block_count();
        assert!(i < n, "block {i} of a {n}-block file");
        BlockInfo {
            id: BlockId(self.first_block.0 + i as u64),
            size: (self.size - self.block_size * i as u64).min(self.block_size),
            replicas: live(&self.slots[i * self.stride..(i + 1) * self.stride]),
        }
    }

    /// The blocks, in file order.
    pub fn blocks(&self) -> impl Iterator<Item = BlockInfo<'_>> {
        (0..self.block_count()).map(|i| self.block(i))
    }

    /// Each block's size and replica slots, for NameNode maintenance.
    pub(crate) fn slots_mut(&mut self) -> impl Iterator<Item = (ByteSize, &mut [DnId])> {
        let (size, block_size) = (self.size, self.block_size);
        self.slots
            .chunks_exact_mut(self.stride)
            .enumerate()
            .map(move |(i, slots)| ((size - block_size * i as u64).min(block_size), slots))
    }
}

/// The replicas a block's slots hold.
pub(crate) fn live(slots: &[DnId]) -> &[DnId] {
    let n = slots
        .iter()
        .position(|&d| d == NO_REPLICA)
        .unwrap_or(slots.len());
    &slots[..n]
}

/// Drops `dn` from a block's slots, keeping the rest in order. Returns
/// whether it held a replica.
pub(crate) fn remove_replica(slots: &mut [DnId], dn: DnId) -> bool {
    let n = live(slots).len();
    let Some(i) = slots[..n].iter().position(|&d| d == dn) else {
        return false;
    };
    slots[i..n].rotate_left(1);
    slots[n - 1] = NO_REPLICA;
    true
}

/// Adds `dn` in a block's first free slot.
pub(crate) fn add_replica(slots: &mut [DnId], dn: DnId) {
    let n = live(slots).len();
    slots[n] = dn;
}

/// The flat path → file catalog (HDFS directories add nothing the model
/// needs; paths are plain keys). Ordered so that NameNode maintenance
/// sweeps (re-replication after datanode failures) visit files — and
/// consume placement randomness — in a deterministic order. The map key
/// is the file's only copy of its path, shared with the caller that
/// created it.
#[derive(Debug, Default, Clone)]
pub struct Namespace {
    files: BTreeMap<Rc<str>, FileInfo>,
    next_file: u64,
    next_block: u64,
}

impl Namespace {
    /// An empty namespace.
    pub(crate) fn new() -> Self {
        Namespace::default()
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.files.len()
    }

    /// Looks up a file.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path is absent.
    pub fn file(&self, path: &str) -> Result<&FileInfo, DfsError> {
        self.files
            .get(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// True if `path` exists.
    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Registers `file` at `path`, giving it a file id and its blocks
    /// consecutive block ids.
    ///
    /// # Errors
    ///
    /// [`DfsError::FileExists`] if the path is taken (the caller must roll
    /// back its placements).
    pub(crate) fn insert(&mut self, path: Rc<str>, mut file: FileInfo) -> Result<FileId, DfsError> {
        let slot = match self.files.entry(path) {
            Entry::Vacant(slot) => slot,
            Entry::Occupied(taken) => return Err(DfsError::FileExists(taken.key().to_string())),
        };
        let id = FileId(self.next_file);
        self.next_file += 1;
        file.id = id;
        file.first_block = BlockId(self.next_block);
        self.next_block += file.block_count() as u64;
        slot.insert(file);
        Ok(id)
    }

    /// Removes a file, returning it for replica cleanup.
    ///
    /// # Errors
    ///
    /// [`DfsError::NotFound`] if the path is absent.
    pub(crate) fn remove(&mut self, path: &str) -> Result<FileInfo, DfsError> {
        self.files
            .remove(path)
            .ok_or_else(|| DfsError::NotFound(path.to_string()))
    }

    /// Iterates over all files with their paths, in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FileInfo)> {
        self.files.iter().map(|(path, file)| (&**path, file))
    }

    /// Mutable iteration, in path order, for NameNode maintenance
    /// (re-replication after a datanode failure).
    pub(crate) fn files_mut(&mut self) -> impl Iterator<Item = &mut FileInfo> {
        self.files.values_mut()
    }

    /// Total logical bytes stored (not counting replication).
    pub fn total_logical_bytes(&self) -> ByteSize {
        self.files.values().map(|f| f.size).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(mb: u64, stride: usize, slots: &[u32]) -> FileInfo {
        let slots = slots.iter().map(|&d| DnId(d)).collect();
        FileInfo::new(ByteSize::from_mb(mb), ByteSize::from_mb(64), stride, slots)
    }

    #[test]
    fn insert_lookup_remove() {
        let mut ns = Namespace::new();
        ns.insert("/a".into(), file(64, 2, &[0, 1])).unwrap();
        assert!(ns.contains("/a"));
        assert_eq!(ns.file_count(), 1);
        let f = ns.file("/a").unwrap();
        assert_eq!(f.size, ByteSize::from_mb(64));
        assert!(f.block(0).is_local_to(DnId(1)));
        assert!(!f.block(0).is_local_to(DnId(2)));
        let removed = ns.remove("/a").unwrap();
        assert_eq!(removed.block_count(), 1);
        assert!(!ns.contains("/a"));
    }

    #[test]
    fn duplicate_path_rejected() {
        let mut ns = Namespace::new();
        ns.insert("/a".into(), file(0, 1, &[])).unwrap();
        let err = ns.insert("/a".into(), file(0, 1, &[])).unwrap_err();
        assert_eq!(err, DfsError::FileExists("/a".into()));
    }

    #[test]
    fn missing_path_errors() {
        let mut ns = Namespace::new();
        assert!(matches!(ns.file("/x"), Err(DfsError::NotFound(_))));
        assert!(matches!(ns.remove("/x"), Err(DfsError::NotFound(_))));
    }

    #[test]
    fn blocks_are_cut_and_numbered_in_file_order() {
        let mut ns = Namespace::new();
        ns.insert("/a".into(), file(100, 1, &[3, 4])).unwrap();
        ns.insert("/b".into(), file(10, 1, &[5])).unwrap();
        let a: Vec<_> = ns.file("/a").unwrap().blocks().collect();
        assert_eq!(a[0].size, ByteSize::from_mb(64));
        assert_eq!(a[1].size, ByteSize::from_mb(36));
        assert_eq!(
            (a[0].replicas, a[1].replicas),
            (&[DnId(3)][..], &[DnId(4)][..])
        );
        let b = ns.file("/b").unwrap().block(0);
        assert_eq!(
            [a[0].id, a[1].id, b.id],
            [BlockId(0), BlockId(1), BlockId(2)]
        );
    }

    #[test]
    fn lost_replicas_free_their_slots_in_order() {
        let mut slots = [DnId(1), DnId(2), DnId(3)];
        assert!(remove_replica(&mut slots, DnId(2)));
        assert!(!remove_replica(&mut slots, DnId(2)));
        assert_eq!(live(&slots), &[DnId(1), DnId(3)]);
        add_replica(&mut slots, DnId(7));
        assert_eq!(live(&slots), &[DnId(1), DnId(3), DnId(7)]);
        for d in [1, 3, 7] {
            remove_replica(&mut slots, DnId(d));
        }
        assert!(live(&slots).is_empty());
    }

    #[test]
    fn totals() {
        let mut ns = Namespace::new();
        ns.insert("/a".into(), file(10, 1, &[0])).unwrap();
        ns.insert("/b".into(), file(20, 1, &[0])).unwrap();
        assert_eq!(ns.total_logical_bytes(), ByteSize::from_mb(30));
        assert_eq!(ns.iter().map(|(p, _)| p).collect::<Vec<_>>(), ["/a", "/b"]);
    }
}
