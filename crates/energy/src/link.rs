//! Stable link identifiers derived from the topology.
//!
//! A [`LinkMap`] enumerates every **directed** physical link of a
//! PC-3DNoC — horizontal mesh links everywhere, vertical TSV links only on
//! elevator pillars — and assigns each a dense [`LinkId`]. The enumeration
//! order is canonical (node-id order, then port order), so link ids are
//! stable across runs for a given topology and can key flat telemetry
//! arrays with no hashing on the simulator's hot path.
//!
//! Besides the links themselves, the map defines the *lane* space used by
//! the [`crate::LinkLedger`]: one lane per directed link plus one NI lane
//! per router (the local-port FIFO fed by packet injection). Every buffer
//! write, buffer read and crossbar traversal in the network happens in the
//! FIFO of exactly one lane, which is what makes the hierarchical roll-ups
//! exact.

use noc_topology::{Coord, Direction, ElevatorId, ElevatorSet, Mesh3d, NodeId};

const PORTS: usize = Direction::COUNT;

/// Sentinel for "no link/lane" in the dense lookup tables.
const NONE: u32 = u32::MAX;

/// Dense index of a directed link within a [`LinkMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl LinkId {
    /// The index as `usize`, for container indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Dense index of a virtual channel (the Elevator-First virtual networks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VcId(pub u8);

impl VcId {
    /// The index as `usize`, for container indexing.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// One directed link: the driving router, the port it leaves through, and
/// the router it arrives at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkInfo {
    /// Driving (upstream) router.
    pub src: NodeId,
    /// Output port of the driving router.
    pub dir: Direction,
    /// Receiving (downstream) router.
    pub dst: NodeId,
}

/// The canonical directed-link enumeration of one topology.
#[derive(Debug, Clone)]
pub struct LinkMap {
    links: Vec<LinkInfo>,
    /// `out_link[node * PORTS + port]` — the link driven by that output
    /// port, or `NONE`.
    out_link: Vec<u32>,
    /// `in_lane[node * PORTS + port]` — the lane feeding that input port:
    /// the upstream link for mesh ports, the node's NI lane for `Local`,
    /// `NONE` for ports with no neighbour.
    in_lane: Vec<u32>,
    /// Coordinate of every router (dense node-id order).
    coords: Vec<Coord>,
    /// Elevator pillar each router sits on, if any.
    node_pillar: Vec<Option<ElevatorId>>,
    /// Elevator pillar of each *vertical* link (`None` for horizontal).
    link_pillar: Vec<Option<ElevatorId>>,
    layers: usize,
    pillar_count: usize,
}

impl LinkMap {
    /// Enumerates the directed links of `mesh` with TSVs on `elevators`.
    ///
    /// The order is canonical: for each router in dense node-id order, its
    /// outgoing links in [`Direction`] port order (vertical ports are
    /// skipped off-pillar, matching the fabric the simulator builds).
    #[must_use]
    pub fn new(mesh: &Mesh3d, elevators: &ElevatorSet) -> Self {
        let n = mesh.node_count();
        let coords: Vec<Coord> = mesh.coords().collect();
        let mut links = Vec::new();
        let mut link_pillar = Vec::new();
        let mut out_link = vec![NONE; n * PORTS];
        for (i, &c) in coords.iter().enumerate() {
            for dir in Direction::ALL {
                if dir == Direction::Local {
                    continue;
                }
                // Vertical links exist only on elevator pillars.
                if dir.is_vertical() && !elevators.is_elevator_router(c) {
                    continue;
                }
                let Some(next) = mesh.neighbour(c, dir) else {
                    continue;
                };
                let id = links.len() as u32;
                links.push(LinkInfo {
                    src: NodeId(i as u16),
                    dir,
                    dst: mesh.node_id(next).expect("in mesh"),
                });
                link_pillar.push(dir.is_vertical().then(|| {
                    elevators
                        .column_at(c)
                        .expect("vertical links exist only on pillars")
                }));
                out_link[i * PORTS + dir.index()] = id;
            }
        }
        // An input port is fed by the upstream router's opposite output.
        let link_count = links.len() as u32;
        let mut in_lane = vec![NONE; n * PORTS];
        for (i, &c) in coords.iter().enumerate() {
            in_lane[i * PORTS + Direction::Local.index()] = link_count + i as u32;
            for dir in Direction::ALL {
                if dir == Direction::Local {
                    continue;
                }
                if let Some(up) = mesh.neighbour(c, dir) {
                    let up = mesh.node_id(up).expect("in mesh").index();
                    in_lane[i * PORTS + dir.index()] =
                        out_link[up * PORTS + dir.opposite().index()];
                }
            }
        }
        let node_pillar = coords.iter().map(|&c| elevators.column_at(c)).collect();
        Self {
            links,
            out_link,
            in_lane,
            coords,
            node_pillar,
            link_pillar,
            layers: mesh.layers(),
            pillar_count: elevators.len(),
        }
    }

    /// Number of directed links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of routers.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.coords.len()
    }

    /// Number of lanes: one per link plus one NI lane per router.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.links.len() + self.coords.len()
    }

    /// Number of mesh layers.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Number of elevator pillars.
    #[must_use]
    pub fn pillar_count(&self) -> usize {
        self.pillar_count
    }

    /// Endpoint data of link `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn link(&self, id: LinkId) -> LinkInfo {
        self.links[id.index()]
    }

    /// Iterates over `(id, info)` in canonical order.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, LinkInfo)> + '_ {
        self.links
            .iter()
            .enumerate()
            .map(|(i, &info)| (LinkId(i as u32), info))
    }

    /// `true` if link `id` is a TSV (vertical) link.
    #[must_use]
    pub fn is_vertical(&self, id: LinkId) -> bool {
        self.link_pillar[id.index()].is_some()
    }

    /// The elevator pillar a vertical link belongs to (`None` for
    /// horizontal links).
    #[must_use]
    pub fn link_pillar(&self, id: LinkId) -> Option<ElevatorId> {
        self.link_pillar[id.index()]
    }

    /// The elevator pillar router `node` sits on, if any.
    #[must_use]
    pub fn node_pillar(&self, node: NodeId) -> Option<ElevatorId> {
        self.node_pillar[node.index()]
    }

    /// Coordinate of router `node`.
    #[must_use]
    pub fn coord(&self, node: NodeId) -> Coord {
        self.coords[node.index()]
    }

    /// The link driven by `(node, dir)`, if it exists.
    #[must_use]
    pub fn out_link(&self, node: NodeId, dir: Direction) -> Option<LinkId> {
        match self.out_link[node.index() * PORTS + dir.index()] {
            NONE => None,
            raw => Some(LinkId(raw)),
        }
    }

    /// The downstream router reached through `(node, dir)`, if any — the
    /// adjacency the simulator builds its fabric from, so the fabric and
    /// the telemetry can never disagree about which links exist.
    #[must_use]
    pub fn neighbour(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        self.out_link(node, dir).map(|l| self.links[l.index()].dst)
    }

    /// Raw lane feeding input port `port` of `node` (`u32::MAX` if the
    /// port has no upstream). Exposed as a raw index for the simulator's
    /// link table; see [`LinkLedger`](crate::LinkLedger) for the lane space.
    #[must_use]
    pub fn in_lane_raw(&self, node: usize, port: usize) -> u32 {
        self.in_lane[node * PORTS + port]
    }

    /// The NI lane of `node` (the lane of its local-port FIFO).
    #[must_use]
    pub fn ni_lane(&self, node: NodeId) -> usize {
        self.links.len() + node.index()
    }

    /// The router whose input FIFO backs `lane`: the downstream endpoint
    /// for link lanes, the node itself for NI lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= lane_count()`.
    #[must_use]
    pub fn lane_owner(&self, lane: usize) -> NodeId {
        if lane < self.links.len() {
            self.links[lane].dst
        } else {
            let node = lane - self.links.len();
            assert!(node < self.coords.len(), "lane {lane} out of range");
            NodeId(node as u16)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(3, 3, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1)]).unwrap();
        (mesh, elevators)
    }

    /// Directed-link count of an X×Y×Z partially connected mesh with E
    /// full pillars: per layer, 2·(X−1)·Y + 2·X·(Y−1) horizontal links;
    /// vertically, 2·E·(Z−1) TSV links.
    #[test]
    fn link_count_matches_closed_form() {
        let (mesh, elevators) = fixture();
        let map = LinkMap::new(&mesh, &elevators);
        let horizontal = 2 * (2 * 3 + 3 * 2) * 2; // per layer × 2 layers
        let vertical = 2; // one pillar, Z−1 = 1 undirected TSV edge
        assert_eq!(map.link_count(), horizontal + vertical);
        assert_eq!(map.node_count(), 18);
        assert_eq!(map.lane_count(), horizontal + vertical + 18);
        assert_eq!(
            map.links().filter(|&(id, _)| map.is_vertical(id)).count(),
            vertical
        );
    }

    #[test]
    fn out_links_exist_exactly_where_the_fabric_has_ports() {
        let (mesh, elevators) = fixture();
        let map = LinkMap::new(&mesh, &elevators);
        for node in mesh.node_ids() {
            let c = mesh.coord(node);
            for dir in Direction::ALL {
                let expected = dir != Direction::Local
                    && (!dir.is_vertical() || elevators.is_elevator_router(c))
                    && mesh.neighbour(c, dir).is_some();
                assert_eq!(map.out_link(node, dir).is_some(), expected, "{c} {dir}");
                assert_eq!(map.neighbour(node, dir).is_some(), expected);
            }
        }
    }

    #[test]
    fn in_lanes_mirror_the_upstream_out_link() {
        let (mesh, elevators) = fixture();
        let map = LinkMap::new(&mesh, &elevators);
        for (id, info) in map.links() {
            // The link's dst sees the link on the opposite input port.
            let lane = map.in_lane_raw(info.dst.index(), info.dir.opposite().index());
            assert_eq!(lane, id.0, "{info:?}");
            assert_eq!(map.lane_owner(lane as usize), info.dst);
        }
        // Local ports map to NI lanes owned by the node itself.
        for node in mesh.node_ids() {
            let lane = map.in_lane_raw(node.index(), Direction::Local.index());
            assert_eq!(lane as usize, map.ni_lane(node));
            assert_eq!(map.lane_owner(lane as usize), node);
        }
    }

    #[test]
    fn vertical_links_know_their_pillar() {
        let (mesh, elevators) = fixture();
        let map = LinkMap::new(&mesh, &elevators);
        for (id, info) in map.links() {
            match map.link_pillar(id) {
                Some(e) => {
                    assert!(map.is_vertical(id));
                    assert_eq!(elevators.column(e), (1, 1));
                    assert!(info.dir.is_vertical());
                }
                None => assert!(info.dir.is_horizontal()),
            }
        }
        let pillar = mesh.node_id(Coord::new(1, 1, 0)).unwrap();
        let corner = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        assert_eq!(map.node_pillar(pillar), Some(ElevatorId(0)));
        assert_eq!(map.node_pillar(corner), None);
    }
}
