//! An HDFS-lite distributed file system model.
//!
//! The paper extends CRIU to dump checkpoint images to HDFS (via `libhdfs`)
//! so a suspended task can be restored **on any node** — the enabler for the
//! adaptive local/remote resumption policy (Algorithm 2). The scheduler
//! needs three things from HDFS, all provided here mechanistically:
//!
//! 1. a **namespace** mapping checkpoint paths to block lists,
//! 2. **block placement with replication** (first replica on the writing
//!    node, the rest spread across the cluster), which determines whether a
//!    restore on node *n* finds its blocks locally or must fetch them, and
//! 3. **transfer timing**: pipelined writes are capped by
//!    `min(disk, network)` bandwidth plus a fixed software overhead per
//!    block — reproducing Fig. 2b, where HDFS dump/restore is uniformly
//!    slower than the local file system on the same medium.
//!
//! ```
//! use cbp_dfs::{DfsCluster, DfsConfig, DnId};
//! use cbp_simkit::units::ByteSize;
//! use cbp_storage::MediaSpec;
//!
//! let mut dfs = DfsCluster::homogeneous(DfsConfig::default(), MediaSpec::ssd(), 4, 7);
//! let receipt = dfs.create("/ckpt/task-1", ByteSize::from_gb(1), DnId(0))?;
//! assert!(receipt.duration.as_secs_f64() > 0.0);
//! // Reading back on the writer is all-local; on another node it is not.
//! assert_eq!(dfs.read_cost("/ckpt/task-1", DnId(0))?.remote_bytes, ByteSize::ZERO);
//! # Ok::<(), cbp_dfs::DfsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod namespace;

pub use cluster::{DfsCluster, DfsConfig, DnId, ReadCost, ReplicationRepair, WriteReceipt};
pub use namespace::{BlockId, BlockInfo, FileId, FileInfo, Namespace};

use std::fmt;

/// Errors returned by DFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DfsError {
    /// The path already exists.
    FileExists(String),
    /// The path does not exist.
    NotFound(String),
    /// Not enough aggregate datanode capacity for the requested replicas.
    NoSpace {
        /// Bytes that could not be placed.
        requested: u64,
    },
    /// The referenced datanode id is out of range.
    UnknownDataNode(DnId),
    /// The writing datanode is down, so it can hold no replica.
    WriterDown(DnId),
}

impl fmt::Display for DfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfsError::FileExists(p) => write!(f, "file already exists: {p}"),
            DfsError::NotFound(p) => write!(f, "file not found: {p}"),
            DfsError::NoSpace { requested } => {
                write!(f, "insufficient datanode capacity for {requested} bytes")
            }
            DfsError::UnknownDataNode(id) => write!(f, "unknown datanode: {id:?}"),
            DfsError::WriterDown(id) => write!(f, "writer datanode is down: {id:?}"),
        }
    }
}

impl std::error::Error for DfsError {}
