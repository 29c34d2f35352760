//! Nodes and containers.

use std::collections::hash_map::Entry;
use std::fmt;

use cbp_simkit::HandleMap;

use crate::resources::Resources;

/// Identifier of a compute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a container (unique across the cluster for one run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContainerId(pub u64);

/// A resource lease on a node, running one task.
///
/// `task` is an opaque handle owned by the scheduler layer (a task index in
/// `cbp-core`, a container-attempt key in `cbp-yarn`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Container {
    id: ContainerId,
    resources: Resources,
    task: u64,
}

impl Container {
    /// Creates a container lease description.
    pub const fn new(id: ContainerId, resources: Resources, task: u64) -> Self {
        Container {
            id,
            resources,
            task,
        }
    }

    /// The container id.
    pub const fn id(&self) -> ContainerId {
        self.id
    }

    /// The reserved resources.
    pub const fn resources(&self) -> Resources {
        self.resources
    }

    /// The scheduler-level task handle.
    pub const fn task(&self) -> u64 {
        self.task
    }
}

/// Why an allocation was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocError {
    /// The node lacks free CPU or memory for the request.
    Insufficient {
        /// What was requested.
        requested: Resources,
        /// What was free.
        available: Resources,
    },
    /// A container with the same id is already on the node.
    DuplicateContainer(ContainerId),
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::Insufficient {
                requested,
                available,
            } => {
                write!(
                    f,
                    "insufficient resources: requested {requested}, available {available}"
                )
            }
            AllocError::DuplicateContainer(id) => {
                write!(f, "container {id:?} already allocated")
            }
        }
    }
}

impl std::error::Error for AllocError {}

/// A compute node: a capacity vector and the containers currently leased
/// from it.
///
/// Invariant (checked on every mutation): the sum of container resources
/// never exceeds capacity.
#[derive(Debug, Clone)]
pub struct Node {
    id: NodeId,
    capacity: Resources,
    allocated: Resources,
    containers: HandleMap<ContainerId, Container>,
}

impl Node {
    /// Creates an empty node with the given capacity.
    pub fn new(id: NodeId, capacity: Resources) -> Self {
        Node {
            id,
            capacity,
            allocated: Resources::ZERO,
            containers: HandleMap::default(),
        }
    }

    /// The node id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Total capacity.
    pub fn capacity(&self) -> Resources {
        self.capacity
    }

    /// Resources currently leased.
    pub fn allocated(&self) -> Resources {
        self.allocated
    }

    /// Resources currently free.
    pub fn available(&self) -> Resources {
        self.capacity.saturating_sub(&self.allocated)
    }

    /// CPU utilization in `[0, 1]` (drives the energy model).
    pub fn cpu_utilization(&self) -> f64 {
        self.allocated.cpu_fraction_of(&self.capacity)
    }

    /// True if `demand` currently fits.
    pub fn can_fit(&self, demand: &Resources) -> bool {
        demand.fits_in(&self.available())
    }

    /// Leases a container.
    ///
    /// # Errors
    ///
    /// [`AllocError::Insufficient`] if the demand exceeds free resources, or
    /// [`AllocError::DuplicateContainer`] if the id is already present; the
    /// node is unchanged on error.
    pub fn allocate(&mut self, container: Container) -> Result<(), AllocError> {
        let available = self.available();
        let Entry::Vacant(slot) = self.containers.entry(container.id()) else {
            return Err(AllocError::DuplicateContainer(container.id()));
        };
        if !container.resources().fits_in(&available) {
            return Err(AllocError::Insufficient {
                requested: container.resources(),
                available,
            });
        }
        slot.insert(container);
        self.allocated += container.resources();
        debug_assert!(self.allocated.fits_in(&self.capacity));
        Ok(())
    }

    /// Releases a container, returning it (e.g. so the caller can requeue
    /// its task). Returns `None` if the id is not on this node.
    pub fn release(&mut self, id: ContainerId) -> Option<Container> {
        let container = self.containers.remove(&id)?;
        self.allocated = self.allocated.saturating_sub(&container.resources());
        Some(container)
    }

    /// The container with the given id, if present.
    pub fn container(&self, id: ContainerId) -> Option<&Container> {
        self.containers.get(&id)
    }

    /// Number of containers on the node.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Iterates over containers (arbitrary order).
    pub fn containers(&self) -> impl Iterator<Item = &Container> {
        self.containers.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_simkit::units::ByteSize;

    fn node() -> Node {
        Node::new(NodeId(0), Resources::new_cores(24, ByteSize::from_gb(48)))
    }

    fn container(id: u64, cores: u64, gb: u64) -> Container {
        Container::new(
            ContainerId(id),
            Resources::new_cores(cores, ByteSize::from_gb(gb)),
            id,
        )
    }

    #[test]
    fn allocate_release_roundtrip() {
        let mut n = node();
        n.allocate(container(1, 4, 8)).unwrap();
        assert_eq!(n.allocated(), Resources::new_cores(4, ByteSize::from_gb(8)));
        assert_eq!(
            n.available(),
            Resources::new_cores(20, ByteSize::from_gb(40))
        );
        assert_eq!(n.container_count(), 1);
        assert_eq!(n.container(ContainerId(1)).unwrap().task(), 1);
        let released = n.release(ContainerId(1)).unwrap();
        assert_eq!(released.id(), ContainerId(1));
        assert_eq!(n.allocated(), Resources::ZERO);
        assert!(n.release(ContainerId(1)).is_none());
    }

    #[test]
    fn over_allocation_rejected_and_state_unchanged() {
        let mut n = node();
        n.allocate(container(1, 20, 40)).unwrap();
        let err = n.allocate(container(2, 8, 4)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert_eq!(n.container_count(), 1);
        // Memory-bound rejection too.
        let err = n.allocate(container(3, 1, 10)).unwrap_err();
        assert!(matches!(err, AllocError::Insufficient { .. }));
        assert!(err.to_string().contains("insufficient"));
    }

    #[test]
    fn duplicate_id_rejected() {
        let mut n = node();
        n.allocate(container(1, 1, 1)).unwrap();
        let err = n.allocate(container(1, 1, 1)).unwrap_err();
        assert_eq!(err, AllocError::DuplicateContainer(ContainerId(1)));
    }

    #[test]
    fn exact_fill_is_allowed() {
        let mut n = node();
        n.allocate(container(1, 24, 48)).unwrap();
        assert_eq!(n.available(), Resources::ZERO);
        assert!((n.cpu_utilization() - 1.0).abs() < 1e-12);
        assert!(!n.can_fit(&Resources::new(1, ByteSize::ZERO)));
    }

    #[test]
    fn utilization_tracks_cpu_only() {
        let mut n = node();
        n.allocate(container(1, 12, 2)).unwrap();
        assert!((n.cpu_utilization() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn many_small_containers() {
        let mut n = node();
        for i in 0..24 {
            n.allocate(container(i, 1, 2)).unwrap();
        }
        assert_eq!(n.container_count(), 24);
        assert!(matches!(
            n.allocate(container(99, 1, 2)),
            Err(AllocError::Insufficient { .. })
        ));
        assert_eq!(n.containers().count(), 24);
    }
}
