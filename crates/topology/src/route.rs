//! Elevator-First routing geometry.
//!
//! Elevator-First \[10\] routes a packet in three phases: XY within the
//! source layer toward a chosen elevator column, vertically along the TSV
//! pillar to the destination layer, then XY to the destination. Deadlock
//! freedom comes from (a) deterministic XY order inside each layer and
//! (b) splitting traffic into two virtual networks by vertical direction
//! ([`VirtualNet`]), so the channel-dependency graph is acyclic.
//!
//! This module is pure geometry: given a current coordinate, destination,
//! and the packet's elevator choice, it produces the next output port. The
//! cycle-level simulator (`noc-sim`) calls [`route_step`] on every head
//! flit.

use crate::{Coord, Direction, ElevatorId, ElevatorSet};

/// The two Elevator-First virtual networks.
///
/// Packets that must ascend (or stay on their layer) use [`VirtualNet::Ascend`];
/// descending packets use [`VirtualNet::Descend`]. A packet's virtual
/// network never changes mid-route because its vertical direction is fixed
/// at injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VirtualNet {
    /// Same-layer and upward traffic (virtual network 0).
    #[default]
    Ascend,
    /// Downward traffic (virtual network 1).
    Descend,
}

impl VirtualNet {
    /// Number of virtual networks (= virtual channels per input port).
    pub const COUNT: usize = 2;

    /// Virtual network for a packet travelling from layer `src_z` to
    /// `dst_z`.
    #[must_use]
    pub fn for_layers(src_z: u8, dst_z: u8) -> VirtualNet {
        if dst_z < src_z {
            VirtualNet::Descend
        } else {
            VirtualNet::Ascend
        }
    }

    /// Stable index in `0..VirtualNet::COUNT`.
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            VirtualNet::Ascend => 0,
            VirtualNet::Descend => 1,
        }
    }

    /// Builds a virtual network back from [`VirtualNet::index`].
    #[must_use]
    pub const fn from_index(index: usize) -> Option<VirtualNet> {
        match index {
            0 => Some(VirtualNet::Ascend),
            1 => Some(VirtualNet::Descend),
            _ => None,
        }
    }
}

/// Which leg of the three-phase Elevator-First route a packet is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutePhase {
    /// XY routing in the source layer toward the elevator column.
    ToElevator,
    /// Riding the TSV pillar toward the destination layer.
    Vertical,
    /// XY routing in the destination layer toward the destination node.
    ToDestination,
    /// Arrived: the next port is `Local`.
    AtDestination,
}

/// Classifies the current position of a packet routed via `elevator`
/// (or directly, if `None` — only legal for same-layer destinations).
#[must_use]
pub fn phase(cur: Coord, dst: Coord, elevator: Option<ElevatorCoord>) -> RoutePhase {
    if cur == dst {
        return RoutePhase::AtDestination;
    }
    if cur.z == dst.z {
        // Either a same-layer packet, or an inter-layer packet that has
        // already ridden the pillar down/up to the destination layer.
        return RoutePhase::ToDestination;
    }
    let elevator = elevator.expect("inter-layer packet must carry an elevator choice");
    if cur.x == elevator.x && cur.y == elevator.y {
        RoutePhase::Vertical
    } else {
        RoutePhase::ToElevator
    }
}

/// An elevator column as bare `(x, y)` — a convenience carried inside
/// packets so routing needs no `ElevatorSet` lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElevatorCoord {
    /// Column X position.
    pub x: u8,
    /// Column Y position.
    pub y: u8,
    /// The id within the originating [`ElevatorSet`], kept for statistics.
    pub id: ElevatorId,
}

impl ElevatorCoord {
    /// Looks up elevator `id` in `set`.
    #[must_use]
    pub fn from_set(set: &ElevatorSet, id: ElevatorId) -> Self {
        let (x, y) = set.column(id);
        Self { x, y, id }
    }
}

/// Deterministic XY step: exhaust X offset first, then Y (dimension order).
///
/// Returns `None` when `cur` already matches `target` in the XY plane.
#[must_use]
pub fn xy_step(cur: Coord, target_x: u8, target_y: u8) -> Option<Direction> {
    if cur.x < target_x {
        Some(Direction::East)
    } else if cur.x > target_x {
        Some(Direction::West)
    } else if cur.y < target_y {
        Some(Direction::North)
    } else if cur.y > target_y {
        Some(Direction::South)
    } else {
        None
    }
}

/// Next output port for a packet at `cur` heading to `dst` via `elevator`.
///
/// `elevator` must be `Some` for inter-layer packets and is ignored once
/// the packet reaches its destination layer.
///
/// # Panics
///
/// Panics if an inter-layer packet carries no elevator choice (a protocol
/// violation by the caller, not a data-dependent condition).
#[must_use]
pub fn route_step(cur: Coord, dst: Coord, elevator: Option<ElevatorCoord>) -> Direction {
    match phase(cur, dst, elevator) {
        RoutePhase::AtDestination => Direction::Local,
        RoutePhase::ToDestination => {
            xy_step(cur, dst.x, dst.y).expect("ToDestination implies XY offset remains")
        }
        RoutePhase::Vertical => {
            if dst.z > cur.z {
                Direction::Up
            } else {
                Direction::Down
            }
        }
        RoutePhase::ToElevator => {
            let e = elevator.expect("checked by phase()");
            xy_step(cur, e.x, e.y).expect("ToElevator implies XY offset remains")
        }
    }
}

/// Total hop count of the Elevator-First route `src → elevator → dst`
/// (Eq. 4: `d_se + d_e + d_ed`); same-layer pairs route directly.
#[must_use]
pub fn route_length(src: Coord, dst: Coord, elevator: Option<ElevatorCoord>) -> u32 {
    if src.z == dst.z {
        return src.xy_distance(dst);
    }
    let e = elevator.expect("inter-layer route needs an elevator");
    let pillar_src = Coord::new(e.x, e.y, src.z);
    let pillar_dst = Coord::new(e.x, e.y, dst.z);
    src.xy_distance(pillar_src) + (src.z.abs_diff(dst.z) as u32) + pillar_dst.xy_distance(dst)
}

/// Enumerates the router coordinates visited by the full Elevator-First
/// route, **including** both endpoints. Used by the CDA baseline to sum
/// buffer occupancy along a candidate path.
#[must_use]
pub fn route_coords(src: Coord, dst: Coord, elevator: Option<ElevatorCoord>) -> Vec<Coord> {
    let mut path = vec![src];
    let mut cur = src;
    // Route lengths are bounded by mesh diameter, but guard against a logic
    // error producing a loop.
    let limit = 4 * (Coord::new(0, 0, 0).manhattan(Coord::new(63, 63, 63)) as usize) + 8;
    for _ in 0..limit {
        if cur == dst {
            return path;
        }
        let dir = route_step(cur, dst, elevator);
        debug_assert_ne!(dir, Direction::Local);
        let next = match dir {
            Direction::East => Coord::new(cur.x + 1, cur.y, cur.z),
            Direction::West => Coord::new(cur.x - 1, cur.y, cur.z),
            Direction::North => Coord::new(cur.x, cur.y + 1, cur.z),
            Direction::South => Coord::new(cur.x, cur.y - 1, cur.z),
            Direction::Up => Coord::new(cur.x, cur.y, cur.z + 1),
            Direction::Down => Coord::new(cur.x, cur.y, cur.z - 1),
            Direction::Local => unreachable!("handled by cur == dst"),
        };
        path.push(next);
        cur = next;
    }
    unreachable!("route from {src} to {dst} did not terminate");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mesh3d;

    fn elevator(x: u8, y: u8) -> ElevatorCoord {
        ElevatorCoord {
            x,
            y,
            id: ElevatorId(0),
        }
    }

    #[test]
    fn virtual_net_by_direction() {
        assert_eq!(VirtualNet::for_layers(0, 3), VirtualNet::Ascend);
        assert_eq!(VirtualNet::for_layers(2, 2), VirtualNet::Ascend);
        assert_eq!(VirtualNet::for_layers(3, 1), VirtualNet::Descend);
        for i in 0..VirtualNet::COUNT {
            assert_eq!(VirtualNet::from_index(i).unwrap().index(), i);
        }
        assert_eq!(VirtualNet::from_index(2), None);
    }

    #[test]
    fn same_layer_routes_xy_without_elevator() {
        let src = Coord::new(0, 0, 1);
        let dst = Coord::new(2, 1, 1);
        let path = route_coords(src, dst, None);
        assert_eq!(path.len() as u32, src.manhattan(dst) + 1);
        assert_eq!(path.first(), Some(&src));
        assert_eq!(path.last(), Some(&dst));
        // X exhausted before Y.
        assert_eq!(path[1], Coord::new(1, 0, 1));
        assert_eq!(path[2], Coord::new(2, 0, 1));
    }

    #[test]
    fn inter_layer_route_passes_through_elevator() {
        let src = Coord::new(0, 0, 0);
        let dst = Coord::new(3, 3, 2);
        let e = elevator(1, 2);
        let path = route_coords(src, dst, Some(e));
        assert_eq!(path.len() as u32, route_length(src, dst, Some(e)) + 1);
        assert!(path.contains(&Coord::new(1, 2, 0)), "visits pillar base");
        assert!(
            path.contains(&Coord::new(1, 2, 2)),
            "exits pillar on dst layer"
        );
        assert_eq!(path.last(), Some(&dst));
    }

    #[test]
    fn phases_progress_in_order() {
        let src = Coord::new(0, 0, 0);
        let dst = Coord::new(3, 0, 1);
        let e = elevator(2, 0);
        let path = route_coords(src, dst, Some(e));
        let phases: Vec<_> = path.iter().map(|&c| phase(c, dst, Some(e))).collect();
        // Must be non-repeating groups: ToElevator*, Vertical+, ToDestination*, AtDestination.
        let mut order = Vec::new();
        for p in phases {
            if order.last() != Some(&p) {
                order.push(p);
            }
        }
        assert_eq!(
            order,
            vec![
                RoutePhase::ToElevator,
                RoutePhase::Vertical,
                RoutePhase::ToDestination,
                RoutePhase::AtDestination
            ]
        );
    }

    #[test]
    fn source_on_pillar_goes_straight_up() {
        let src = Coord::new(1, 1, 0);
        let dst = Coord::new(1, 1, 3);
        let e = elevator(1, 1);
        assert_eq!(route_step(src, dst, Some(e)), Direction::Up);
        assert_eq!(route_length(src, dst, Some(e)), 3);
    }

    #[test]
    fn arrival_yields_local() {
        let c = Coord::new(2, 2, 2);
        assert_eq!(route_step(c, c, None), Direction::Local);
        assert_eq!(phase(c, c, None), RoutePhase::AtDestination);
    }

    #[test]
    fn every_step_stays_in_mesh_and_terminates() {
        let mesh = Mesh3d::new(4, 4, 4).unwrap();
        let elevators = crate::ElevatorSet::new(&mesh, [(0, 0), (3, 1), (1, 3)]).unwrap();
        for src in mesh.coords() {
            for dst in mesh.coords() {
                if src == dst {
                    continue;
                }
                let choice = (src.z != dst.z)
                    .then(|| ElevatorCoord::from_set(&elevators, elevators.nearest(src)));
                let path = route_coords(src, dst, choice);
                assert!(path.iter().all(|&c| mesh.contains(c)));
                assert_eq!(path.last(), Some(&dst));
            }
        }
    }

    #[test]
    fn route_length_matches_eq4_decomposition() {
        let src = Coord::new(0, 3, 0);
        let dst = Coord::new(3, 0, 2);
        let e = elevator(2, 2);
        // d_se = 2+1 = 3, d_e = 2, d_ed = 1+2 = 3.
        assert_eq!(route_length(src, dst, Some(e)), 8);
    }
}
