//! AdEle's online stage (paper Section III.C) and the baseline
//! elevator-selection policies it is compared against.
//!
//! The simulator consults an [`ElevatorSelector`] once per inter-layer
//! packet at its source router and feeds back the source-router
//! head/tail departure times ([`SourceFeedback`]) that drive AdEle's
//! local congestion estimate (Eq. 6–7).

mod adele_selector;
mod cda;
mod elevator_first;
mod selector;

pub use adele_selector::{skip_probability, AdeleSelector};
pub use cda::CdaSelector;
pub use elevator_first::ElevatorFirstSelector;
pub use selector::{
    Cycle, ElevatorSelector, NetworkProbe, SelectionContext, SourceFeedback, ZeroProbe,
};

#[cfg(test)]
pub(crate) mod testing {
    use super::{NetworkProbe, ZeroProbe};
    use noc_topology::{Coord, ElevatorId, ElevatorMask, Mesh3d, NodeId};
    use std::cell::Cell;

    /// A zero-congestion probe whose pillar health a test sets.
    pub(crate) struct FaultProbe {
        zero: ZeroProbe,
        failed: Cell<ElevatorMask>,
    }

    impl FaultProbe {
        pub(crate) fn new(mesh: Mesh3d) -> Self {
            Self {
                zero: ZeroProbe::new(mesh),
                failed: Cell::default(),
            }
        }

        /// Marks `elevator` failed (`true`) or recovered.
        pub(crate) fn set(&self, elevator: ElevatorId, failed: bool) {
            let mut mask = self.failed.get();
            mask.set(elevator, failed);
            self.failed.set(mask);
        }
    }

    impl NetworkProbe for FaultProbe {
        fn buffer_occupancy(&self, node: NodeId) -> u32 {
            self.zero.buffer_occupancy(node)
        }

        fn buffer_capacity_per_router(&self) -> u32 {
            self.zero.buffer_capacity_per_router()
        }

        fn node_at(&self, coord: Coord) -> NodeId {
            self.zero.node_at(coord)
        }

        fn failed_elevators(&self) -> ElevatorMask {
            self.failed.get()
        }
    }
}
