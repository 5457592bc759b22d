//! The dense per-link/per-VC telemetry store and its hierarchical
//! roll-ups.
//!
//! A [`LinkLedger`] is a set of flat `u64` arrays indexed by
//! `lane × vc` — no hashing, no per-event allocation — sized once from a
//! [`LinkMap`]. The simulator counts flit events per FIFO lane while it
//! steps and adds them in bulk, next to the aggregate [`EnergyLedger`],
//! whenever a reader needs them; the roll-ups reconstruct that aggregate
//! **exactly** (counter for counter) at link, router, pillar, layer and
//! network granularity:
//!
//! * every buffer write/read and crossbar traversal is attributed to the
//!   *lane* whose FIFO it happened in (the upstream link for mesh ports,
//!   the router's NI lane for injections),
//! * every link traversal is attributed to the link (and the VC it used),
//! * NI events and static router-cycles are attributed to their router.
//!
//! A lane's events roll up to the router that owns the FIFO; a link's
//! traversals roll up to the router that drives the link; routers roll up
//! to their layer (and, for elevator routers, their pillar), and layers
//! roll up to the network total.

use crate::link::{LinkId, LinkMap};
use crate::model::{EnergyLedger, EnergyModel};
use noc_topology::{Direction, ElevatorId, NodeId};

/// Flat per-lane/per-VC event counters for one topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkLedger {
    vcs: usize,
    node_count: usize,
    /// Link traversals, indexed `link * vcs + vc`.
    link_flits: Vec<u64>,
    /// FIFO writes, indexed `lane * vcs + vc`.
    buffer_writes: Vec<u64>,
    /// FIFO reads (each paired with a crossbar traversal), indexed
    /// `lane * vcs + vc`.
    buffer_reads: Vec<u64>,
    /// NI events (injections + ejections) per router.
    ni_events: Vec<u64>,
    /// Measured cycles (shared by every router: static energy).
    cycles: u64,
}

impl LinkLedger {
    /// An all-zero ledger sized for `map` with `vcs` virtual channels.
    ///
    /// # Panics
    ///
    /// Panics if `vcs` is zero.
    #[must_use]
    pub fn new(map: &LinkMap, vcs: usize) -> Self {
        assert!(vcs >= 1, "at least one virtual channel");
        Self {
            vcs,
            node_count: map.node_count(),
            link_flits: vec![0; map.link_count() * vcs],
            buffer_writes: vec![0; map.lane_count() * vcs],
            buffer_reads: vec![0; map.lane_count() * vcs],
            ni_events: vec![0; map.node_count()],
            cycles: 0,
        }
    }

    /// Number of virtual channels per lane.
    #[must_use]
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Measured cycles counted so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets every counter to zero (new measurement window).
    pub fn reset(&mut self) {
        self.link_flits.fill(0);
        self.buffer_writes.fill(0);
        self.buffer_reads.fill(0);
        self.ni_events.fill(0);
        self.cycles = 0;
    }

    // ---- Bulk adds (the simulator's fold; counters only ever grow) ----

    /// Adds `flits` traversals of `link` on `vc`.
    pub fn add_link_flits(&mut self, link: LinkId, vc: usize, flits: u64) {
        self.link_flits[link.index() * self.vcs + vc] += flits;
    }

    /// Adds `writes` FIFO writes and `reads` FIFO reads (each paired with
    /// a crossbar traversal) in the FIFO of `lane` on `vc`.
    pub fn add_lane_events(&mut self, lane: usize, vc: usize, writes: u64, reads: u64) {
        self.buffer_writes[lane * self.vcs + vc] += writes;
        self.buffer_reads[lane * self.vcs + vc] += reads;
    }

    /// Adds `events` NI events (injections or ejections) at router `node`.
    pub fn add_ni_events(&mut self, node: NodeId, events: u64) {
        self.ni_events[node.index()] += events;
    }

    /// Records one measured cycle.
    #[inline]
    pub fn on_cycle(&mut self) {
        self.cycles += 1;
    }

    // ---- Queries ----

    /// Flits that crossed `link` on `vc`.
    #[must_use]
    pub fn link_flits(&self, link: LinkId, vc: usize) -> u64 {
        self.link_flits[link.index() * self.vcs + vc]
    }

    /// Flits that crossed `link`, summed over VCs.
    #[must_use]
    pub fn link_flits_total(&self, link: LinkId) -> u64 {
        self.over_vcs(&self.link_flits, link.index())
    }

    /// Flits written into the FIFO of `lane` on `vc`.
    #[must_use]
    pub fn buffer_writes(&self, lane: usize, vc: usize) -> u64 {
        self.buffer_writes[lane * self.vcs + vc]
    }

    /// Flits read out of the FIFO of `lane` on `vc`.
    #[must_use]
    pub fn buffer_reads(&self, lane: usize, vc: usize) -> u64 {
        self.buffer_reads[lane * self.vcs + vc]
    }

    /// One row of a `row × vc` counter array, summed over VCs.
    fn over_vcs(&self, counters: &[u64], row: usize) -> u64 {
        counters[row * self.vcs..(row + 1) * self.vcs].iter().sum()
    }

    /// Pure traversal energy of `link` (flits × per-hop link energy).
    #[must_use]
    pub fn link_traversal_nj(&self, map: &LinkMap, model: &EnergyModel, link: LinkId) -> f64 {
        let per_hop = if map.is_vertical(link) {
            model.link_vertical_nj
        } else {
            model.link_horizontal_nj
        };
        self.link_flits_total(link) as f64 * per_hop
    }

    /// Energy attributed to `link` as a *lane*: traversal energy plus the
    /// buffer writes/reads and crossbar traversals of the downstream FIFO
    /// it feeds — the energy this link's traffic causes.
    #[must_use]
    pub fn link_attributed_nj(&self, map: &LinkMap, model: &EnergyModel, link: LinkId) -> f64 {
        let writes = self.over_vcs(&self.buffer_writes, link.index());
        let reads = self.over_vcs(&self.buffer_reads, link.index());
        self.link_traversal_nj(map, model, link)
            + writes as f64 * model.buffer_write_nj
            + reads as f64 * (model.buffer_read_nj + model.crossbar_nj)
    }

    // ---- Hierarchical roll-ups ----

    /// The network-level roll-up: an aggregate [`EnergyLedger`] rebuilt
    /// from the per-lane counters. Equals the simulator's own aggregate
    /// ledger counter-for-counter (the telemetry invariant the test
    /// pyramid asserts).
    #[must_use]
    pub fn aggregate(&self, map: &LinkMap) -> EnergyLedger {
        let mut out = EnergyLedger {
            buffer_writes: self.buffer_writes.iter().sum(),
            buffer_reads: self.buffer_reads.iter().sum(),
            crossbar_traversals: self.buffer_reads.iter().sum(),
            horizontal_hops: 0,
            vertical_hops: 0,
            ni_events: self.ni_events.iter().sum(),
            router_cycles: self.cycles * self.node_count as u64,
        };
        for (id, _) in map.links() {
            let flits = self.link_flits_total(id);
            if map.is_vertical(id) {
                out.vertical_hops += flits;
            } else {
                out.horizontal_hops += flits;
            }
        }
        out
    }

    /// The one roll-up pass behind every grouped view: each router's
    /// events land in bucket `group_of(router)` of `groups` (`None` skips
    /// the router without looking at its counters). Lane events belong to
    /// the router owning the FIFO, link traversals to the driving router,
    /// NI events and static cycles to their router.
    fn roll_up(
        &self,
        map: &LinkMap,
        groups: usize,
        group_of: impl Fn(NodeId) -> Option<usize>,
    ) -> Vec<EnergyLedger> {
        let mut out = vec![EnergyLedger::default(); groups];
        for node in 0..self.node_count {
            let id = NodeId(node as u16);
            let Some(group) = group_of(id) else {
                continue;
            };
            let ledger = &mut out[group];
            for dir in Direction::ALL {
                let lane = map.in_lane_raw(node, dir.index());
                if lane != u32::MAX {
                    let reads = self.over_vcs(&self.buffer_reads, lane as usize);
                    ledger.buffer_writes += self.over_vcs(&self.buffer_writes, lane as usize);
                    ledger.buffer_reads += reads;
                    ledger.crossbar_traversals += reads;
                }
                if let Some(link) = map.out_link(id, dir) {
                    let flits = self.link_flits_total(link);
                    if dir.is_vertical() {
                        ledger.vertical_hops += flits;
                    } else {
                        ledger.horizontal_hops += flits;
                    }
                }
            }
            ledger.ni_events += self.ni_events[node];
            ledger.router_cycles += self.cycles;
        }
        out
    }

    /// Per-router roll-up; the element-wise sum over routers equals
    /// [`LinkLedger::aggregate`].
    #[must_use]
    pub fn router_ledgers(&self, map: &LinkMap) -> Vec<EnergyLedger> {
        self.roll_up(map, self.node_count, |node| Some(node.index()))
    }

    /// Per-layer roll-up (routers grouped by their `z`); the element-wise
    /// sum over layers equals [`LinkLedger::aggregate`].
    #[must_use]
    pub fn layer_ledgers(&self, map: &LinkMap) -> Vec<EnergyLedger> {
        self.roll_up(map, map.layers(), |node| Some(map.coord(node).z as usize))
    }

    /// Per-pillar roll-up: the routers of each elevator column summed over
    /// layers. A partial view (non-pillar routers belong to no pillar) —
    /// the TSV-vs-horizontal energy asymmetry per pillar.
    #[must_use]
    pub fn pillar_ledgers(&self, map: &LinkMap) -> Vec<EnergyLedger> {
        self.roll_up(map, map.pillar_count(), |node| {
            map.node_pillar(node).map(ElevatorId::index)
        })
    }

    /// TSV traversals per pillar (flits that crossed each pillar's
    /// vertical links, counting one per hop).
    #[must_use]
    pub fn pillar_tsv_flits(&self, map: &LinkMap) -> Vec<u64> {
        let mut out = vec![0u64; map.pillar_count()];
        for (id, _) in map.links() {
            if let Some(e) = map.link_pillar(id) {
                out[e.index()] += self.link_flits_total(id);
            }
        }
        out
    }

    /// Measured energy per TSV-crossing flit for each pillar: the pillar
    /// roll-up's total energy divided by its TSV traversals (0 where the
    /// pillar carried nothing) — the online signal AdEle's measured-energy
    /// override consumes.
    #[must_use]
    pub fn pillar_energy_per_tsv_flit(&self, map: &LinkMap, model: &EnergyModel) -> Vec<f64> {
        let flits = self.pillar_tsv_flits(map);
        self.pillar_ledgers(map)
            .iter()
            .zip(flits)
            .map(|(ledger, f)| {
                if f == 0 {
                    0.0
                } else {
                    ledger.total_nj(model) / f as f64
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_topology::{Coord, ElevatorSet, Mesh3d};

    fn fixture() -> (Mesh3d, ElevatorSet, LinkMap) {
        let mesh = Mesh3d::new(3, 3, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1)]).unwrap();
        let map = LinkMap::new(&mesh, &elevators);
        (mesh, elevators, map)
    }

    /// Simulates a hand-built event stream and checks every roll-up level
    /// sums to the same aggregate.
    #[test]
    fn rollups_are_exact_partitions() {
        let (mesh, _elevators, map) = fixture();
        let mut ledger = LinkLedger::new(&map, 2);

        // One flit injected at (0,0,0), forwarded east, delivered at (1,0,0).
        let src = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let dst = mesh.node_id(Coord::new(1, 0, 0)).unwrap();
        // Injection: into the local FIFO and out through the crossbar.
        ledger.add_ni_events(src, 1);
        ledger.add_lane_events(map.ni_lane(src), 0, 1, 1);
        let east = map.out_link(src, Direction::East).unwrap();
        ledger.add_link_flits(east, 0, 1);
        // Downstream FIFO write, then the read towards ejection.
        ledger.add_lane_events(east.index(), 0, 1, 1);
        ledger.add_ni_events(dst, 1);
        ledger.on_cycle();

        let agg = ledger.aggregate(&map);
        assert_eq!(
            agg,
            EnergyLedger {
                buffer_writes: 2,
                buffer_reads: 2,
                crossbar_traversals: 2,
                horizontal_hops: 1,
                vertical_hops: 0,
                ni_events: 2,
                router_cycles: map.node_count() as u64,
            }
        );

        let mut router_sum = EnergyLedger::default();
        for r in ledger.router_ledgers(&map) {
            router_sum.merge(&r);
        }
        assert_eq!(router_sum, agg, "router roll-up partitions the aggregate");

        let mut layer_sum = EnergyLedger::default();
        for l in ledger.layer_ledgers(&map) {
            layer_sum.merge(&l);
        }
        assert_eq!(layer_sum, agg, "layer roll-up partitions the aggregate");
    }

    #[test]
    fn attribution_lands_on_the_expected_routers() {
        let (mesh, _elevators, map) = fixture();
        let mut ledger = LinkLedger::new(&map, 2);
        let src = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let east = map.out_link(src, Direction::East).unwrap();
        ledger.add_link_flits(east, 1, 1);
        ledger.add_lane_events(east.index(), 1, 1, 0);

        let routers = ledger.router_ledgers(&map);
        // The driving router owns the hop, the receiving one the write.
        assert_eq!(routers[src.index()].horizontal_hops, 1);
        assert_eq!(routers[src.index()].buffer_writes, 0);
        let dst = map.link(east).dst;
        assert_eq!(routers[dst.index()].buffer_writes, 1);
        assert_eq!(ledger.link_flits(east, 1), 1);
        assert_eq!(ledger.link_flits(east, 0), 0);
        assert_eq!(ledger.link_flits_total(east), 1);
    }

    #[test]
    fn pillar_rollup_sees_tsv_traffic() {
        let (mesh, _elevators, map) = fixture();
        let mut ledger = LinkLedger::new(&map, 2);
        let pillar0 = mesh.node_id(Coord::new(1, 1, 0)).unwrap();
        let up = map.out_link(pillar0, Direction::Up).unwrap();
        ledger.add_link_flits(up, 0, 2);

        assert_eq!(ledger.pillar_tsv_flits(&map), vec![2]);
        let model = EnergyModel::default_45nm();
        let per_flit = ledger.pillar_energy_per_tsv_flit(&map, &model);
        // Two TSV hops and nothing else: energy/flit = link_vertical_nj.
        assert!((per_flit[0] - model.link_vertical_nj).abs() < 1e-12);
        assert_eq!(ledger.pillar_ledgers(&map)[0].vertical_hops, 2);
    }

    #[test]
    fn reset_zeroes_everything() {
        let (_, _, map) = fixture();
        let mut ledger = LinkLedger::new(&map, 2);
        ledger.add_link_flits(LinkId(0), 0, 1);
        ledger.add_lane_events(0, 1, 1, 0);
        ledger.add_ni_events(NodeId(3), 1);
        ledger.on_cycle();
        ledger.reset();
        assert_eq!(ledger.aggregate(&map), EnergyLedger::default());
        assert_eq!(ledger.cycles(), 0);
    }

    #[test]
    fn link_energy_views_split_traversal_and_lane_costs() {
        let (mesh, _elevators, map) = fixture();
        let model = EnergyModel::default_45nm();
        let mut ledger = LinkLedger::new(&map, 2);
        let src = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let east = map.out_link(src, Direction::East).unwrap();
        ledger.add_link_flits(east, 0, 1);
        ledger.add_lane_events(east.index(), 0, 1, 1);
        let traversal = ledger.link_traversal_nj(&map, &model, east);
        assert!((traversal - model.link_horizontal_nj).abs() < 1e-12);
        let attributed = ledger.link_attributed_nj(&map, &model, east);
        let expected = model.link_horizontal_nj
            + model.buffer_write_nj
            + model.buffer_read_nj
            + model.crossbar_nj;
        assert!((attributed - expected).abs() < 1e-12);
    }
}
