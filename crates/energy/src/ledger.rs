//! The simulator's flit-event counter store and its hierarchical
//! roll-ups.
//!
//! A [`LinkLedger`] is the one place flit events are counted: one write
//! count per router input FIFO `(node, port, vc)`, one ejection count per
//! router and the measured cycles — flat arrays sized once from a
//! [`LinkMap`], indexed in the simulator's flit-arena order
//! ([`LinkLedger::fifo`]), booked by `noc_sim::Network` itself with one
//! increment per event. Every other energy counter is *derived* when it
//! is read, and **exactly** (counter for counter):
//!
//! * a FIFO's `writes` are its buffer writes, its reads (below) its buffer
//!   reads, each paired with a crossbar traversal;
//! * a link's traversals on a VC are the `writes` of the downstream FIFO
//!   it feeds, horizontal or vertical by the link's direction;
//! * a router's flits are the `writes` summed over its FIFOs;
//! * NI events are the `Local` FIFOs' `writes` (injections) plus the
//!   ejections;
//! * static router-cycles are the measured cycles, once per router.
//!
//! The identities hold because the simulator books every event of a
//! cycle under one armed flag: a flit sent on a link, or injected by an
//! NI, in cycle `t` lands in the FIFO it feeds in that same cycle.
//!
//! # Reads are derived from occupancy
//!
//! A FIFO only gains flits by writes and only loses them by reads, so
//! over a window
//!
//! ```text
//! reads = writes + occupancy at open − occupancy at settle
//! ```
//!
//! The ledger keeps each FIFO's occupancy when the window opens
//! ([`LinkLedger::open`], on the first armed cycle) and when it last
//! settled ([`LinkLedger::settle`]), one byte each, instead of a read
//! counter. The simulator settles wherever it already completes the
//! ledger before anyone reads it (`Network::book_relays`: the window's
//! close, the mid-window energy push, a tracer's `window` record), always
//! at a cycle boundary; [`LinkLedger::close`] settles one last time and
//! freezes the value, so a settle after the window closed (a tracer in
//! the drain) changes nothing.
//!
//! The identity needs only that, at each settle, the writes booked so far
//! are every write of the window and the occupancies are the FIFOs' real
//! ones. Relays keep both true: a relay lane holds its one flit at every
//! cycle boundary, as the per-flit cycle (pop one, push the next) leaves
//! it, and the relays book the writes they owe (one per fed relay cycle)
//! before each settle; a relay that demotes unfed pops its lane then and
//! books one write fewer. The derived read count is therefore the per-flit
//! engine's, one per relay cycle included, without a per-hop increment.
//!
//! A window re-opened without a [`LinkLedger::reset`] keeps counting on
//! top of the closed one: the closed windows' occupancy terms are carried
//! in a per-FIFO correction allocated only then.
//!
//! The roll-ups attribute FIFO events to the router owning the FIFO, a
//! link's traversals to the router driving it, and NI events and static
//! cycles to their router; routers roll up to their layer (and, for
//! elevator routers, their pillar), and layers to the network total
//! ([`LinkLedger::aggregate`]).

use crate::link::{LinkId, LinkMap};
use crate::model::{EnergyLedger, EnergyModel};
use noc_topology::{Direction, ElevatorId, NodeId};

const PORTS: usize = Direction::COUNT;

/// A FIFO's write count.
type Count = u64;
/// A FIFO's occupancy at an open or a settle.
type Occupancy = u8;

// A FIFO costs the ledger its write count and two occupancy bytes.
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<Count>() + 2 * std::mem::size_of::<Occupancy>() <= 10);

/// Flat per-FIFO/per-VC event counters for one topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkLedger {
    vcs: usize,
    /// Flits written into each input FIFO, indexed [`LinkLedger::fifo`].
    writes: Vec<Count>,
    /// Each FIFO's occupancy when the window opened and when it last
    /// settled: its reads are derived from them (module docs).
    opened: Vec<Occupancy>,
    settled: Vec<Occupancy>,
    /// `opened − settled` of the windows closed before a re-open without
    /// reset, per FIFO; empty until one carries something.
    carried: Vec<i64>,
    /// Between an open and the next close or reset: a settle captures the
    /// occupancies.
    open: bool,
    /// Ejections into each router's NI.
    ejects: Vec<u64>,
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
        let fifos = map.node_count() * PORTS * vcs;
        Self {
            vcs,
            writes: vec![0; fifos],
            opened: vec![0; fifos],
            settled: vec![0; fifos],
            carried: Vec::new(),
            open: false,
            ejects: vec![0; map.node_count()],
            cycles: 0,
        }
    }

    /// Number of virtual channels per FIFO port.
    #[must_use]
    pub fn vcs(&self) -> usize {
        self.vcs
    }

    /// Measured cycles counted so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Resets every counter to zero (new measurement window, opened by the
    /// next [`Self::open`]).
    pub fn reset(&mut self) {
        self.writes.fill(0);
        self.opened.fill(0);
        self.settled.fill(0);
        self.carried = Vec::new();
        self.open = false;
        self.ejects.fill(0);
        self.cycles = 0;
    }

    // ---- The window's occupancies (module docs) ----

    /// `true` between an [`Self::open`] and the next close or reset.
    #[must_use]
    pub fn is_open(&self) -> bool {
        self.open
    }

    /// Opens a window on the FIFOs' occupancies `lens` (indexed
    /// [`Self::fifo`]); the reads counted since the last reset carry on.
    ///
    /// # Panics
    ///
    /// Panics if `lens` does not hold one occupancy per FIFO.
    pub fn open(&mut self, lens: &[u8]) {
        assert_eq!(lens.len(), self.writes.len(), "one occupancy per FIFO");
        if self.opened != self.settled {
            if self.carried.is_empty() {
                self.carried = vec![0; self.writes.len()];
            }
            for ((carried, &opened), &settled) in
                self.carried.iter_mut().zip(&self.opened).zip(&self.settled)
            {
                *carried += i64::from(opened) - i64::from(settled);
            }
        }
        self.opened.copy_from_slice(lens);
        self.settled.copy_from_slice(lens);
        self.open = true;
    }

    /// Settles the open window's reads at the FIFOs' occupancies `lens`;
    /// outside an open window it changes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the window is open and `lens` does not hold one occupancy
    /// per FIFO.
    pub fn settle(&mut self, lens: &[u8]) {
        if self.open {
            self.settled.copy_from_slice(lens);
        }
    }

    /// Settles the open window one last time and closes it: later settles
    /// change nothing until the next open.
    ///
    /// # Panics
    ///
    /// As [`Self::settle`].
    pub fn close(&mut self, lens: &[u8]) {
        if self.open {
            self.settle(lens);
            self.open = false;
        }
    }

    // ---- Booking (one increment per event; counters only ever grow) ----

    /// Dense index of input FIFO `(node, port, vc)`: node-major, then
    /// port, then VC — the simulator's flit-arena order, so a booking
    /// lands next to the FIFO slot the event touched.
    #[inline]
    #[must_use]
    pub fn fifo(&self, node: usize, port: usize, vc: usize) -> usize {
        (node * PORTS + port) * self.vcs + vc
    }

    /// Books one flit written into FIFO `fifo`.
    #[inline]
    pub fn on_write(&mut self, fifo: usize) {
        self.writes[fifo] += 1;
    }

    /// Books `writes` flits written into FIFO `fifo` at once.
    pub fn add_writes(&mut self, fifo: usize, writes: u64) {
        self.writes[fifo] += writes;
    }

    /// Books one flit ejected into router `node`'s NI.
    #[inline]
    pub fn on_eject(&mut self, node: usize) {
        self.ejects[node] += 1;
    }

    /// Books `n` flits ejected into router `node`'s NI at once.
    pub fn add_ejections(&mut self, node: usize, n: u64) {
        self.ejects[node] += n;
    }

    /// Books one measured cycle.
    #[inline]
    pub fn on_cycle(&mut self) {
        self.cycles += 1;
    }

    // ---- Queries ----

    /// Reads of FIFO `fifo`, derived as of the last settle (module docs).
    fn reads(&self, fifo: usize) -> u64 {
        let carried = self.carried.get(fifo).copied().unwrap_or(0);
        (self.writes[fifo] + u64::from(self.opened[fifo]))
            .wrapping_sub(u64::from(self.settled[fifo]))
            .wrapping_add_signed(carried)
    }

    /// Flits written into the FIFO of input `(node, port)` on `vc`.
    #[must_use]
    pub fn buffer_writes(&self, node: NodeId, port: Direction, vc: usize) -> u64 {
        self.writes[self.fifo(node.index(), port.index(), vc)]
    }

    /// Flits read out of the FIFO of input `(node, port)` on `vc`, as of
    /// the last settle.
    #[must_use]
    pub fn buffer_reads(&self, node: NodeId, port: Direction, vc: usize) -> u64 {
        self.reads(self.fifo(node.index(), port.index(), vc))
    }

    /// Writes of input port `(node, port)`, summed over VCs.
    fn port_writes(&self, node: usize, port: usize) -> u64 {
        let first = self.fifo(node, port, 0);
        self.writes[first..first + self.vcs].iter().sum()
    }

    /// `(writes, reads)` of input port `(node, port)`, summed over VCs.
    fn port_events(&self, node: usize, port: usize) -> (u64, u64) {
        let first = self.fifo(node, port, 0);
        let reads = (first..first + self.vcs).map(|f| self.reads(f)).sum();
        (self.port_writes(node, port), reads)
    }

    /// Flits that crossed `link` on `vc`: the writes of the FIFO it feeds.
    #[must_use]
    pub fn link_flits(&self, map: &LinkMap, link: LinkId, vc: usize) -> u64 {
        let info = map.link(link);
        self.buffer_writes(info.dst, info.dir.opposite(), vc)
    }

    /// Flits that crossed `link`, summed over VCs.
    #[must_use]
    pub fn link_flits_total(&self, map: &LinkMap, link: LinkId) -> u64 {
        let info = map.link(link);
        self.port_writes(info.dst.index(), info.dir.opposite().index())
    }

    /// Flits ejected into their destination NI: the flits delivered.
    #[must_use]
    pub fn ejections(&self) -> u64 {
        self.ejects.iter().sum()
    }

    /// Flits that entered each router (link arrivals + injections), in
    /// node order.
    #[must_use]
    pub fn router_flits(&self) -> Vec<u64> {
        (self.writes.chunks_exact(PORTS * self.vcs))
            .map(|writes| writes.iter().sum())
            .collect()
    }

    /// Pure traversal energy of `link` (flits × per-hop link energy).
    #[must_use]
    pub fn link_traversal_nj(&self, map: &LinkMap, model: &EnergyModel, link: LinkId) -> f64 {
        let per_hop = if map.is_vertical(link) {
            model.link_vertical_nj
        } else {
            model.link_horizontal_nj
        };
        self.link_flits_total(map, link) as f64 * per_hop
    }

    /// Energy attributed to `link` as a *lane*: traversal energy plus the
    /// buffer writes/reads and crossbar traversals of the downstream FIFO
    /// it feeds — the energy this link's traffic causes.
    #[must_use]
    pub fn link_attributed_nj(&self, map: &LinkMap, model: &EnergyModel, link: LinkId) -> f64 {
        let info = map.link(link);
        let (writes, reads) = self.port_events(info.dst.index(), info.dir.opposite().index());
        self.link_traversal_nj(map, model, link)
            + writes as f64 * model.buffer_write_nj
            + reads as f64 * (model.buffer_read_nj + model.crossbar_nj)
    }

    // ---- Hierarchical roll-ups ----

    /// The network total: the aggregate [`EnergyLedger`] of the window,
    /// derived from the FIFO counters (module docs). Every grouped
    /// roll-up partitions it exactly.
    #[must_use]
    pub fn aggregate(&self) -> EnergyLedger {
        let mut out = EnergyLedger {
            ni_events: self.ejections(),
            router_cycles: self.cycles * self.ejects.len() as u64,
            ..EnergyLedger::default()
        };
        for router in self.writes.chunks_exact(PORTS * self.vcs) {
            for (dir, port) in Direction::ALL
                .into_iter()
                .zip(router.chunks_exact(self.vcs))
            {
                let writes: u64 = port.iter().sum();
                out.buffer_writes += writes;
                if dir == Direction::Local {
                    out.ni_events += writes;
                } else if dir.is_vertical() {
                    out.vertical_hops += writes;
                } else {
                    out.horizontal_hops += writes;
                }
            }
        }
        // Summed lane by lane, the read identity is one identity of sums.
        let bytes = |lens: &[Occupancy]| lens.iter().map(|&len| u64::from(len)).sum::<u64>();
        out.buffer_reads = (out.buffer_writes + bytes(&self.opened))
            .wrapping_sub(bytes(&self.settled))
            .wrapping_add_signed(self.carried.iter().sum());
        out.crossbar_traversals = out.buffer_reads;
        out
    }

    /// The one roll-up pass behind every grouped view: each router's
    /// events land in bucket `group_of(router)` of `groups` (`None` skips
    /// the router without looking at its counters). FIFO events belong
    /// to the router owning the FIFO, link traversals to the driving
    /// router, NI events and static cycles to their router.
    fn roll_up(
        &self,
        map: &LinkMap,
        groups: usize,
        group_of: impl Fn(NodeId) -> Option<usize>,
    ) -> Vec<EnergyLedger> {
        let mut out = vec![EnergyLedger::default(); groups];
        for (node, &ejects) in self.ejects.iter().enumerate() {
            let id = NodeId(node as u16);
            let Some(group) = group_of(id) else {
                continue;
            };
            let ledger = &mut out[group];
            for dir in Direction::ALL {
                let (writes, reads) = self.port_events(node, dir.index());
                ledger.buffer_writes += writes;
                ledger.buffer_reads += reads;
                ledger.crossbar_traversals += reads;
                if dir == Direction::Local {
                    ledger.ni_events += writes;
                }
                if let Some(link) = map.out_link(id, dir) {
                    let flits = self.link_flits_total(map, link);
                    if dir.is_vertical() {
                        ledger.vertical_hops += flits;
                    } else {
                        ledger.horizontal_hops += flits;
                    }
                }
            }
            ledger.ni_events += ejects;
            ledger.router_cycles += self.cycles;
        }
        out
    }

    /// Per-router roll-up; the element-wise sum over routers equals
    /// [`LinkLedger::aggregate`].
    #[must_use]
    pub fn router_ledgers(&self, map: &LinkMap) -> Vec<EnergyLedger> {
        self.roll_up(map, self.ejects.len(), |node| Some(node.index()))
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
                out[e.index()] += self.link_flits_total(map, id);
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

    /// A ledger whose window opened on empty FIFOs, and those occupancies.
    fn opened(map: &LinkMap) -> (LinkLedger, Vec<u8>) {
        let mut ledger = LinkLedger::new(map, 2);
        let lens = vec![0; map.node_count() * PORTS * 2];
        ledger.open(&lens);
        (ledger, lens)
    }

    /// Books `flits` flits sent over `link` on `vc`: written into the
    /// downstream FIFO, which holds none of them at the next settle.
    fn hop(ledger: &mut LinkLedger, map: &LinkMap, link: LinkId, vc: usize, flits: u64) {
        let info = map.link(link);
        let fifo = ledger.fifo(info.dst.index(), info.dir.opposite().index(), vc);
        ledger.add_writes(fifo, flits);
    }

    /// Simulates a hand-built event stream and checks every roll-up level
    /// sums to the same aggregate.
    #[test]
    fn rollups_are_exact_partitions() {
        let (mesh, _elevators, map) = fixture();
        let (mut ledger, lens) = opened(&map);

        // One flit injected at (0,0,0), forwarded east, delivered at (1,0,0).
        let src = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let dst = mesh.node_id(Coord::new(1, 0, 0)).unwrap();
        // Injection: into the local FIFO and out through the crossbar.
        let local = ledger.fifo(src.index(), Direction::Local.index(), 0);
        ledger.on_write(local);
        // Downstream FIFO write, then the read towards ejection.
        hop(
            &mut ledger,
            &map,
            map.out_link(src, Direction::East).unwrap(),
            0,
            1,
        );
        ledger.on_eject(dst.index());
        ledger.on_cycle();
        // Both FIFOs are empty again: each wrote and read its flit.
        ledger.settle(&lens);

        let agg = ledger.aggregate();
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
        assert_eq!(ledger.router_flits()[dst.index()], 1);
        assert_eq!(ledger.buffer_reads(src, Direction::Local, 0), 1);

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
        let (mut ledger, mut lens) = opened(&map);
        let src = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let east = map.out_link(src, Direction::East).unwrap();
        let dst = map.link(east).dst;
        let fifo = ledger.fifo(dst.index(), Direction::West.index(), 1);
        ledger.on_write(fifo);
        // The flit is still buffered where it landed: no read yet.
        lens[fifo] = 1;
        ledger.settle(&lens);

        let routers = ledger.router_ledgers(&map);
        // The driving router owns the hop, the receiving one the write.
        assert_eq!(routers[src.index()].horizontal_hops, 1);
        assert_eq!(routers[src.index()].buffer_writes, 0);
        assert_eq!(routers[dst.index()].buffer_writes, 1);
        assert_eq!(routers[dst.index()].buffer_reads, 0);
        assert_eq!(routers[dst.index()].horizontal_hops, 0);
        assert_eq!(ledger.link_flits(&map, east, 1), 1);
        assert_eq!(ledger.link_flits(&map, east, 0), 0);
        assert_eq!(ledger.link_flits_total(&map, east), 1);
        assert_eq!(ledger.buffer_writes(dst, Direction::West, 1), 1);
    }

    #[test]
    fn pillar_rollup_sees_tsv_traffic() {
        let (mesh, _elevators, map) = fixture();
        let (mut ledger, mut lens) = opened(&map);
        let pillar0 = mesh.node_id(Coord::new(1, 1, 0)).unwrap();
        let up = map.out_link(pillar0, Direction::Up).unwrap();
        let above = map.link(up).dst;
        let fifo = ledger.fifo(above.index(), Direction::Down.index(), 0);
        // Two flits cross the TSV and wait in the FIFO above.
        ledger.add_writes(fifo, 2);
        lens[fifo] = 2;
        ledger.settle(&lens);

        assert_eq!(ledger.pillar_tsv_flits(&map), vec![2]);
        assert_eq!(ledger.pillar_ledgers(&map)[0].vertical_hops, 2);
        assert_eq!(ledger.aggregate().vertical_hops, 2);
        let model = EnergyModel::default_45nm();
        let per_flit = ledger.pillar_energy_per_tsv_flit(&map, &model);
        // Two TSV hops plus the two writes they cause above, all on the
        // pillar's routers.
        let expected = model.link_vertical_nj + model.buffer_write_nj;
        assert!((per_flit[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn reset_zeroes_everything() {
        let (_, _, map) = fixture();
        let (mut ledger, lens) = opened(&map);
        ledger.add_writes(ledger.fifo(4, 1, 1), 1);
        ledger.on_eject(3);
        ledger.on_cycle();
        ledger.close(&lens);
        assert_eq!(ledger.aggregate().buffer_reads, 1);
        ledger.reset();
        assert_eq!(ledger.aggregate(), EnergyLedger::default());
        assert_eq!(ledger.cycles(), 0);
        assert!(!ledger.is_open());
        assert_eq!(ledger, LinkLedger::new(&map, 2));
    }

    #[test]
    fn link_energy_views_split_traversal_and_lane_costs() {
        let (mesh, _elevators, map) = fixture();
        let model = EnergyModel::default_45nm();
        let (mut ledger, lens) = opened(&map);
        let src = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let east = map.out_link(src, Direction::East).unwrap();
        hop(&mut ledger, &map, east, 0, 1);
        ledger.settle(&lens);
        let traversal = ledger.link_traversal_nj(&map, &model, east);
        assert!((traversal - model.link_horizontal_nj).abs() < 1e-12);
        let attributed = ledger.link_attributed_nj(&map, &model, east);
        let expected = model.link_horizontal_nj
            + model.buffer_write_nj
            + model.buffer_read_nj
            + model.crossbar_nj;
        assert!((attributed - expected).abs() < 1e-12);
    }

    /// Reads are writes plus the flits buffered at the open minus those
    /// buffered at the last settle; settles outside an open window and
    /// after the close change nothing.
    #[test]
    fn reads_follow_occupancy_from_open_to_settle() {
        let (mesh, _elevators, map) = fixture();
        let mut ledger = LinkLedger::new(&map, 2);
        let node = mesh.node_id(Coord::new(2, 1, 1)).unwrap();
        let fifo = ledger.fifo(node.index(), Direction::North.index(), 1);
        let mut lens = vec![0; map.node_count() * PORTS * 2];
        let reads = |l: &LinkLedger| l.buffer_reads(node, Direction::North, 1);
        lens[fifo] = 3;
        ledger.settle(&lens);
        assert_eq!(reads(&ledger), 0, "no window open yet");
        ledger.open(&lens);
        assert!(ledger.is_open());
        // Two arrive, four leave: one of the five is still buffered.
        ledger.add_writes(fifo, 2);
        lens[fifo] = 1;
        ledger.settle(&lens);
        assert_eq!(reads(&ledger), 4);
        lens[fifo] = 0;
        ledger.close(&lens);
        assert_eq!(reads(&ledger), 5);
        lens[fifo] = 2;
        ledger.settle(&lens);
        ledger.close(&lens);
        assert_eq!(reads(&ledger), 5, "frozen at the close");
        assert_eq!(ledger.buffer_writes(node, Direction::North, 1), 2);
    }

    /// A window re-opened without a reset counts on top of the closed
    /// one, whatever the FIFO did in the unarmed gap.
    #[test]
    fn a_reopened_window_carries_the_closed_reads() {
        let (mesh, _elevators, map) = fixture();
        let (mut ledger, mut lens) = opened(&map);
        let node = mesh.node_id(Coord::new(0, 2, 0)).unwrap();
        let fifo = ledger.fifo(node.index(), Direction::Local.index(), 0);
        let reads = |l: &LinkLedger| l.buffer_reads(node, Direction::Local, 0);
        ledger.add_writes(fifo, 3);
        lens[fifo] = 1;
        ledger.close(&lens);
        assert_eq!(reads(&ledger), 2);
        // Unarmed gap: the FIFO fills to four, unbooked.
        lens[fifo] = 4;
        ledger.open(&lens);
        assert_eq!(reads(&ledger), 2, "the open books nothing");
        ledger.add_writes(fifo, 1);
        lens[fifo] = 0;
        ledger.close(&lens);
        assert_eq!(reads(&ledger), 2 + 5);
        assert_eq!(ledger.aggregate().buffer_writes, 4);
        ledger.reset();
        assert_eq!(ledger, LinkLedger::new(&map, 2));
    }
}
