//! The cycle-level network: routers, buffers, credits, wormhole switching.
//!
//! # Model
//!
//! Each router has 7 ports ([`noc_topology::Direction`]) with one FIFO per
//! virtual network per input port. An *output channel* `(port, vc)` is
//! owned by at most one packet at a time (wormhole): a head flit takes it,
//! the tail releases it, so flits of different packets never interleave
//! within a downstream FIFO. Each output **port** moves at most one flit
//! per cycle (the physical link), arbitrating round-robin across its
//! virtual channels and, for new grants, across requesting input ports.
//!
//! Credits count free slots of the downstream FIFO; they are decremented
//! at send time and returned (with one cycle of latency) when the
//! downstream router forwards the flit. The network interface participates
//! with the same mechanism on the `Local` port.
//!
//! # One cycle
//!
//! A cycle is computed in two phases, so results do not depend on router
//! iteration order: phase 1 only *reads* committed state and *stages* its
//! effects on other routers, and the exchange lands them (the `kernel`
//! module docs argue why their order is immaterial). The simulator's one
//! cycle body calls the steps below in order and, when someone is
//! watching, laps a clock after each; every lap is the `PhaseTimes` field
//! of the same name:
//!
//! * *inject* — due events fire and `Simulator::generate_traffic` queues
//!   new packets at their source NIs ([`Network::enqueue_packet`]);
//! * *compute* — `Network::phase1`, one pass over the worklist: per
//!   visited router, route & send, NI injection from its source queue,
//!   and whether it stays on next cycle's worklist;
//! * *exchange* — `Network::exchange` lands the staged flit arrivals and
//!   credit returns, the NI's included, then resolves the relays;
//! * *commit* — `Network::finish_cycle` replays, in router order, the
//!   packet-table effects phase 1 deferred, then `Simulator::post_step`
//!   closes the cycle.
//!
//! The network is stepped on the calling thread: this crate spawns no
//! thread and reads no environment variable. Parallelism lives in
//! `noc_exp`'s sweep pool, across independent runs.
//!
//! # The worklist
//!
//! An active-router bitmap keyed by node id makes phase 1 visit only
//! routers with buffered flits, staged arrivals or queued sources: idle
//! routers cost nothing, which is where big meshes spend most of their
//! cycles at low injection. Bitmap iteration is ascending node order, so
//! visit order (and with it feedback and statistics order) is the node
//! order of a full scan. Phase 1 keeps a router's bit while flits stay
//! buffered or packets stay queued, and every arrival sets the bit of the
//! router it lands in, so nothing rescans the worklist. A second bitmap
//! marks routers whose source queue is non-empty, and per-router masks
//! mark occupied input lanes and owned output channels. With no rescan to
//! heal a missed bit, these derived bits are audited instead
//! ([`Network::check_flow_conservation`], run every cycle by the lockstep
//! suites).
//!
//! # Dense state
//!
//! All per-cycle state lives in arenas sized once at construction:
//!
//! * every input FIFO is a fixed ring in one flat [`FlitArena`] slab
//!   (lane = router × port × VC), so a router's 14 occupancy counters sit
//!   in a single cache line,
//! * packets live in a recycling [`PacketTable`] owned by the caller, and
//!   each NI's source queue is a head/tail pair of its slots, linked
//!   through the table,
//! * one flat port table keyed by `(node, port)` holds, per port, the
//!   peer router and the peer's port, so a flit-hop reads one record per
//!   port it touches, for the send and the credit return alike,
//! * the one counter store is the [`LinkLedger`], indexed like the arena:
//!   while the measurement window is armed, an arrival books a write of
//!   the lane it lands in, an ejection one at its router, and phase 1 a
//!   measured cycle (the first opens the ledger on the lanes'
//!   occupancies). A lane's reads are derived from its writes and its
//!   occupancy at the open and at the last settle, and link, router, NI
//!   and aggregate energy counters from these when read (the `noc_energy`
//!   ledger module states the identities).
//!
//! Two shortcuts skip work and leave the same state; the `kernel` module
//! docs define and argue both. A router with one occupied input lane
//! *streams* its front flit without arbitration, and a lane carrying a
//! worm's body uncontended between two neighbours is a *relay*: a flag
//! check instead of a flit move, its lane counters booked in bulk.
//!
//! After construction, steady-state stepping performs no heap allocation
//! (the staging buffers reach their high-water capacity and stay there);
//! [`Network::heap_footprint`] exposes the reserved capacities so tests
//! can assert it.
//!
//! [`FlitArena`]: crate::arena::FlitArena

mod kernel;

use crate::arena::FlitArena;
use crate::flit::PacketId;
use crate::stats::StatsCollector;
use crate::table::PacketTable;
use adele::online::{Cycle, NetworkProbe, SourceFeedback};
use kernel::{arena_lane, local_lane, route_hops, Arrival, Effect, PortLink, Relay, RouterState};
use kernel::{SourceQueue, LOCAL, NO_OWNER, PORTS, VCS};
use noc_energy::{LinkLedger, LinkMap};
use noc_topology::{Coord, Direction, ElevatorId, ElevatorMask, ElevatorSet, Mesh3d, NodeId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The network fabric: routers, links, credits and NI queues, and the
/// switching state that steps them, indexed by node id.
#[derive(Debug, Clone)]
pub struct Network {
    mesh: Mesh3d,
    elevators: ElevatorSet,
    /// Elevators currently failed (fault events): the one record of
    /// pillar health. The fabric keeps forwarding in-flight flits through
    /// a failed pillar (drained power-down model); selectors read the mask
    /// through [`NetworkProbe::failed_elevators`] and stop choosing it.
    failed_elevators: ElevatorMask,
    /// Canonical directed-link enumeration: the single source of truth for
    /// which links exist (vertical links only on elevator pillars; the
    /// port table below mirrors it) and the key space of the per-link
    /// energy views.
    link_map: LinkMap,
    coords: Vec<Coord>,
    links: Vec<PortLink>,
    buffer_depth: u8,
    routers: Vec<RouterState>,
    /// The input FIFOs, one ring per `(router, port, vc)`.
    fifos: FlitArena,
    sources: Vec<SourceQueue>,
    /// NI credits towards the local input port, per VC.
    ni_credits: Vec<[u8; VCS]>,
    /// Flits buffered across all routers (incremental).
    buffered_total: u64,
    /// Packets waiting in the source queues (incremental).
    queued_total: u64,
    /// Worklist bitmap of routers to visit next cycle (bit = node id).
    active_bits: Vec<u64>,
    /// Previous cycle's worklist, swapped in as this cycle's visit set
    /// and zeroed word by word as phase 1 consumes it.
    work_bits: Vec<u64>,
    /// Routers whose source queue is non-empty (bit = node id): a pure
    /// cache of `sources[r].queue.is_empty()`, maintained at every
    /// enqueue and at the pop that empties a queue, so phase 1 injects
    /// without probing a source queue per visited router. Always a subset
    /// of the worklist. Derived state — not hashed.
    src_bits: Vec<u64>,
    /// Staged arrivals.
    arrivals: Vec<Arrival>,
    /// Staged `(router, output port, vc)` credit returns; port `Local`
    /// returns one to the router's NI.
    credits: Vec<(NodeId, u8, u8)>,
    /// Deferred packet-table/statistics effects, in emission order.
    effects: Vec<Effect>,
    /// Deferred source-departure feedback, in emission order.
    feedbacks: Vec<SourceFeedback>,
    /// The measurement window's flit events, FIFO lanes indexed like
    /// [`Self::fifos`] — the only telemetry anything books.
    ledger: LinkLedger,
    /// `true` if a flit moved or was injected this cycle.
    progress: bool,
    /// The relay slab, its free slots, the slot of each relay lane
    /// (indexed like [`Self::fifos`], read only where `relay_lanes` says
    /// the lane is a relay) and the live count.
    relays: Vec<Relay>,
    free: Vec<u32>,
    relay_of: Vec<u32>,
    relay_count: usize,
    /// Routers phase 1 skips: every occupied lane a relay and nothing for
    /// the NI to inject but what a source relay's NI feeds (bit = node id).
    relay_bits: Vec<u64>,
    /// The relays phase 1 visits, those the resolve decides on, and the
    /// promotion candidates as `(router, lane, channel)`.
    awake: Vec<u32>,
    unsettled: Vec<u32>,
    streamed: Vec<(u32, u8, u8)>,
    /// Cycles phase 1 has run (a frozen cycle runs none): the clock of
    /// the source relays' lazily fed flits.
    clock: u64,
    /// Wake-ups of source relays on the clock their NI feeds the `Tail`,
    /// `clock << 16 | router`, at most one per router: its bit in `timed`.
    timers: BinaryHeap<Reverse<u64>>,
    timed: Vec<u64>,
    /// Whether routers are promoted to relays (tests step without).
    promote: bool,
    /// Test builds: the flits each lane popped while armed, indexed like
    /// [`Self::fifos`] — the reads the ledger derives, counted instead.
    #[cfg(any(test, feature = "audit"))]
    pops: Vec<u64>,
}

impl Network {
    /// Builds an idle network.
    ///
    /// # Panics
    ///
    /// Panics if `buffer_depth` is zero.
    #[must_use]
    pub fn new(mesh: Mesh3d, elevators: ElevatorSet, buffer_depth: u8) -> Self {
        assert!(buffer_depth >= 1, "buffers need at least one slot");
        let link_map = LinkMap::new(&mesh, &elevators);
        let n = mesh.node_count();
        let links = PortLink::table(&link_map, n);
        let routers = (0..n)
            .map(|r| {
                let credit_mask: [bool; PORTS] =
                    std::array::from_fn(|p| links[r * PORTS + p].peer().is_some());
                RouterState::new(buffer_depth, credit_mask)
            })
            .collect();
        // Every staging buffer is drained each cycle, so reserving its
        // per-cycle worst case up front makes steady-state stepping
        // allocation-free from cycle 0. Each directed link carries at most
        // one flit per cycle (one send per output port) and returns at
        // most `VCS` credits per cycle (each input lane pops at most
        // once); each NI injects at most one flit per cycle and takes back
        // at most `VCS` credits (its LOCAL input lanes).
        let wired = links.iter().filter(|l| l.peer().is_some()).count();
        Self {
            coords: mesh.coords().collect(),
            ledger: LinkLedger::new(&link_map, VCS),
            mesh,
            elevators,
            failed_elevators: ElevatorMask::EMPTY,
            link_map,
            links,
            buffer_depth,
            routers,
            fifos: FlitArena::new(n * PORTS * VCS, buffer_depth),
            sources: vec![SourceQueue::default(); n],
            ni_credits: vec![[buffer_depth; VCS]; n],
            buffered_total: 0,
            queued_total: 0,
            active_bits: vec![0; n.div_ceil(64)],
            work_bits: vec![0; n.div_ceil(64)],
            src_bits: vec![0; n.div_ceil(64)],
            arrivals: Vec::with_capacity(wired + n),
            credits: Vec::with_capacity(VCS * (wired + n)),
            // Per cycle: one ejection plus `VCS` source departures per
            // router, one feedback per departure.
            effects: Vec::with_capacity((1 + VCS) * n),
            feedbacks: Vec::with_capacity(VCS * n),
            progress: false,
            // A router's relay lanes own distinct output ports, so at most
            // `PORTS` per router; every list below holds a relay or a
            // candidate at most once.
            relays: Vec::with_capacity(PORTS * n),
            free: Vec::with_capacity(PORTS * n),
            relay_of: vec![0; n * PORTS * VCS],
            relay_count: 0,
            relay_bits: vec![0; n.div_ceil(64)],
            awake: Vec::with_capacity(PORTS * n),
            unsettled: Vec::with_capacity(PORTS * n),
            streamed: Vec::with_capacity(PORTS * n),
            clock: 0,
            timers: BinaryHeap::with_capacity(n),
            timed: vec![0; n.div_ceil(64)],
            promote: true,
            #[cfg(any(test, feature = "audit"))]
            pops: vec![0; n * PORTS * VCS],
        }
    }

    /// The mesh this network is built on.
    #[must_use]
    pub fn mesh(&self) -> &Mesh3d {
        &self.mesh
    }

    /// The elevator set.
    #[must_use]
    pub fn elevators(&self) -> &ElevatorSet {
        &self.elevators
    }

    /// The canonical link enumeration of this fabric (what turns the
    /// ledger's per-FIFO counters into per-link views).
    #[must_use]
    pub fn link_map(&self) -> &LinkMap {
        &self.link_map
    }

    /// The flit-event counters booked while armed. Relays book lazily and
    /// reads are settled, so the counts are complete only after
    /// [`Self::book_relays`].
    #[must_use]
    pub(crate) fn link_ledger(&self) -> &LinkLedger {
        &self.ledger
    }

    /// Marks elevator `id` failed (`failed == true`) or repaired; the
    /// network keeps draining flits already routed through the pillar.
    pub(crate) fn set_elevator_failed(&mut self, id: ElevatorId, failed: bool) {
        self.failed_elevators.set(id, failed);
    }

    /// Queues a freshly created packet of `packets` at its source NI.
    pub fn enqueue_packet(&mut self, packets: &mut PacketTable, src: NodeId, id: PacketId) {
        let r = src.index();
        packets.enqueue(&mut self.sources[r].queue, id);
        self.queued_total += 1;
        self.active_bits[r / 64] |= 1 << (r % 64);
        self.src_bits[r / 64] |= 1 << (r % 64);
        // The NI may have a packet to inject: phase 1 visits the router.
        self.relay_bits[r / 64] &= !(1 << (r % 64));
    }

    /// Flits currently buffered in router FIFOs.
    #[must_use]
    pub fn buffered_flits(&self) -> u64 {
        self.buffered_total
    }

    /// Flits buffered in input lane `(node, port, vc)`.
    #[must_use]
    pub fn lane_occupancy(&self, node: NodeId, port: Direction, vc: usize) -> usize {
        let lane = local_lane(port.index(), vc);
        self.fifos.len(arena_lane(node.index(), lane))
    }

    /// Packets still waiting (fully or partially) in source queues.
    #[must_use]
    pub fn queued_packets(&self) -> u64 {
        self.queued_total
    }

    /// Heap capacity (in elements) reserved by the fabric's cycle state:
    /// the flit arena plus every reusable staging/worklist buffer, and the
    /// source queues' links in `packets`. Sized at construction or during
    /// warm-up and constant afterwards — the zero-allocation contract
    /// stepping is tested against.
    #[must_use]
    pub fn heap_footprint(&self, packets: &PacketTable) -> usize {
        self.fifos.capacity_flits()
            + self.arrivals.capacity()
            + self.credits.capacity()
            + self.active_bits.capacity()
            + self.work_bits.capacity()
            + self.src_bits.capacity()
            + self.effects.capacity()
            + self.feedbacks.capacity()
            + self.relays.capacity()
            + self.free.capacity()
            + self.relay_of.capacity()
            + self.relay_bits.capacity()
            + self.awake.capacity()
            + self.unsettled.capacity()
            + self.streamed.capacity()
            + self.timers.capacity()
            + self.timed.capacity()
            + packets.link_capacity()
    }

    /// The serial tail of a cycle: replays the deferred packet-table
    /// effects in router order and forwards feedback. Returns `true` if
    /// any flit moved or was injected (the deadlock watchdog's progress
    /// indicator).
    pub(crate) fn finish_cycle(
        &mut self,
        packets: &mut PacketTable,
        cycle: Cycle,
        stats: &mut StatsCollector,
        feedbacks: &mut Vec<SourceFeedback>,
    ) -> bool {
        // Phase 1 records its effects in ascending router order, so
        // delivery statistics and slot-retirement order follow the node
        // order. A packet's head left its source in a strictly earlier
        // cycle than its tail ejects (src != dst is enforced at
        // admission), so its `head_out_src` is final by the replay.
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Eject(flit) => {
                    if flit.kind().is_tail() {
                        let packet = packets.id_of(flit);
                        let pkt = packets.get_mut(packet);
                        pkt.delivered = Some(cycle);
                        stats.on_packet_delivered(pkt, cycle, || route_hops(&self.coords, pkt));
                        // The tail was the packet's last flit anywhere
                        // in the fabric: recycle its slot.
                        packets.retire(packet);
                    }
                }
                Effect::SrcDeparture(flit) => {
                    let pkt = packets.get_mut(packets.id_of(flit));
                    if flit.kind().is_head() {
                        pkt.head_out_src = Some(cycle);
                    }
                    if flit.kind().is_tail() {
                        pkt.tail_out_src = Some(cycle);
                    }
                }
            }
        }
        feedbacks.append(&mut self.feedbacks);
        self.progress
    }

    /// Samples the fabric-occupancy histograms at a window boundary: one
    /// queue-depth sample per router, one VC-occupancy sample per input
    /// lane. Pure functions of committed cycle state in node order.
    pub(crate) fn sample_fabric(&self, fabric: &mut noc_obs::FabricHists) {
        for (r, router) in self.routers.iter().enumerate() {
            fabric.queue_depth.record(u64::from(router.buffered));
            for lane in 0..PORTS * VCS {
                let occupancy = self.fifos.len(arena_lane(r, lane));
                fabric.vc_occupancy.record(occupancy as u64);
            }
        }
    }

    /// Routers on the committed next-cycle worklist — the number of
    /// routers that will do work next cycle. A deterministic gauge: the
    /// worklist bitmap is part of the hashed fabric state.
    #[must_use]
    pub fn worklist_occupancy(&self) -> u64 {
        (self.active_bits.iter())
            .map(|&w| u64::from(w.count_ones()))
            .sum()
    }

    /// An FNV-1a digest of the complete committed fabric state (router
    /// switching state, FIFO contents, source queues, NI credits,
    /// worklist) in node order — what the lockstep suites compare per
    /// cycle. A FIFO front is hashed as its packet's handle, whose
    /// generation `packets` holds.
    #[must_use]
    pub fn state_digest(&self, packets: &PacketTable) -> u64 {
        #[inline]
        fn mix(h: &mut u64, v: u64) {
            *h ^= v;
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let h = &mut digest;
        // Ascending router order, a fixed field order per router.
        for (r, router) in self.routers.iter().enumerate() {
            mix(h, u64::from(router.occ));
            mix(h, u64::from(router.own));
            for &b in &router.req_cache {
                mix(h, u64::from(b));
            }
            for p in 0..PORTS {
                for v in 0..VCS {
                    let owner = u64::from(router.owner[p][v]);
                    mix(
                        h,
                        if owner == u64::from(NO_OWNER) {
                            u64::MAX
                        } else {
                            ((owner / VCS as u64) << 8) | (owner % VCS as u64)
                        },
                    );
                    mix(h, u64::from(router.credits[p][v]));
                    mix(h, u64::from(router.rr_grant[p][v]));
                    let at = arena_lane(r, local_lane(p, v));
                    mix(h, self.fifos.len(at) as u64);
                    if let Some(front) = self.fifos.front(at) {
                        let id = packets.id_of(front);
                        mix(h, u64::from(id.slot()));
                        mix(h, u64::from(id.generation()));
                    }
                }
                mix(h, u64::from(router.rr_vc[p]));
            }
            mix(h, u64::from(router.buffered));
            mix(h, u64::from(router.quiet));
            // The worklist membership is part of committed state: it
            // decides which routers next cycle visits.
            mix(h, (self.active_bits[r / 64] >> (r % 64)) & 1);
            for v in 0..VCS {
                mix(h, u64::from(self.ni_credits[r][v]));
            }
            let queue = &self.sources[r].queue;
            mix(h, packets.queued(queue).count() as u64);
            for pid in packets.queued(queue) {
                mix(h, u64::from(pid.slot()));
                mix(h, u64::from(pid.generation()));
            }
            mix(h, u64::from(self.sent(r)));
        }
        digest
    }

    /// Verifies flit/credit conservation on every channel of the fabric
    /// at a cycle boundary: for each directed link, the upstream credit
    /// count plus the downstream FIFO occupancy equals the buffer depth
    /// (no flit or credit is ever lost or duplicated), and likewise for
    /// every NI channel. Also audits the derived bitmaps the stepping
    /// phase 1 relies on: every router with buffered flits or a non-empty
    /// source queue is on the worklist, the source bitmap mirrors the
    /// queues, and the `occ`/`own` masks mirror FIFO occupancy and the
    /// owner table.
    ///
    /// # Errors
    ///
    /// Returns the first violated channel or invariant, described.
    pub fn check_flow_conservation(&self) -> Result<(), String> {
        self.check_derived_state()?;
        let depth = u32::from(self.buffer_depth);
        for (g, router) in self.routers.iter().enumerate() {
            for p in 0..PORTS {
                if p == LOCAL {
                    continue;
                }
                let link = self.link(g, p);
                let Some(d) = link.peer() else {
                    continue;
                };
                let opp = Direction::ALL[link.peer_port as usize];
                for v in 0..VCS {
                    let credits = u32::from(router.credits[p][v]);
                    let occupancy = self.lane_occupancy(d, opp, v) as u32;
                    if credits + occupancy != depth {
                        return Err(format!(
                            "link {g}->{} port {p} vc {v}: credits {credits} + occupancy \
                             {occupancy} != depth {depth}",
                            d.index()
                        ));
                    }
                }
            }
            for v in 0..VCS {
                let credits = u32::from(self.ni_credits[g][v]);
                let occupancy = self.lane_occupancy(NodeId(g as u16), Direction::Local, v) as u32;
                if credits + occupancy != depth {
                    return Err(format!(
                        "NI channel at {g} vc {v}: credits {credits} + occupancy {occupancy} \
                         != depth {depth}"
                    ));
                }
            }
        }
        // The incremental total must agree with the ground truth.
        let truth: u64 = (self.routers.iter()).map(|r| u64::from(r.buffered)).sum();
        if truth != self.buffered_flits() {
            return Err(format!(
                "incremental buffered_flits {} != summed router occupancy {truth}",
                self.buffered_flits()
            ));
        }
        Ok(())
    }
}

impl NetworkProbe for Network {
    fn buffer_occupancy(&self, node: NodeId) -> u32 {
        self.routers[node.index()].buffered.into()
    }

    fn buffer_capacity_per_router(&self) -> u32 {
        (PORTS * VCS) as u32 * u32::from(self.buffer_depth)
    }

    fn node_at(&self, coord: Coord) -> NodeId {
        self.mesh.node_id(coord).expect("coordinate within mesh")
    }

    fn failed_elevators(&self) -> ElevatorMask {
        self.failed_elevators
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{Flit, FlitKind, Packet};
    use noc_topology::route::{ElevatorCoord, VirtualNet};

    impl Network {
        /// One cycle: the plain composition of the three calls the
        /// simulator's cycle body makes.
        fn step(
            &mut self,
            packets: &mut PacketTable,
            cycle: Cycle,
            stats: &mut StatsCollector,
            feedbacks: &mut Vec<SourceFeedback>,
        ) -> bool {
            let armed = stats.armed();
            self.phase1(packets, cycle, armed);
            self.exchange(packets, armed);
            self.finish_cycle(packets, cycle, stats, feedbacks)
        }

        fn router(&self, r: usize) -> &RouterState {
            &self.routers[r]
        }

        fn lane_flits(&self, r: usize, port: usize, vc: usize) -> Vec<Flit> {
            let lane = arena_lane(r, local_lane(port, vc));
            self.fifos.iter_lane(lane).collect()
        }

        fn is_idle(&self) -> bool {
            self.active_bits.iter().all(|&w| w == 0)
        }
    }

    fn fixture() -> (Mesh3d, ElevatorSet) {
        let mesh = Mesh3d::new(3, 3, 2).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1)]).unwrap();
        (mesh, elevators)
    }

    fn make_packet(
        mesh: &Mesh3d,
        elevators: &ElevatorSet,
        src: Coord,
        dst: Coord,
        flits: u16,
        created: Cycle,
    ) -> Packet {
        let elevator = (src.z != dst.z).then(|| ElevatorCoord::from_set(elevators, ElevatorId(0)));
        Packet {
            src: mesh.node_id(src).unwrap(),
            dst: mesh.node_id(dst).unwrap(),
            flits,
            vnet: VirtualNet::for_layers(src.z, dst.z),
            elevator,
            created,
            head_out_src: None,
            tail_out_src: None,
            delivered: None,
            measured: true,
        }
    }

    /// Inserts a packet into the table and queues it at its source.
    fn launch(net: &mut Network, table: &mut PacketTable, packet: Packet) -> PacketId {
        let src = packet.src;
        let id = table.insert(packet);
        net.enqueue_packet(table, src, id);
        id
    }

    /// The diagnostics of a network that failed to drain: live packets,
    /// buffered flits and the state digest.
    fn stall(net: &Network, table: &PacketTable, cycle: u64) -> String {
        format!(
            "stalled at cycle {cycle}: {} packets live, {} flits buffered, state digest {:016x}",
            table.live(),
            net.buffered_flits(),
            net.state_digest(table)
        )
    }

    /// Drives the network until every packet retires or `max` cycles pass,
    /// then books what the relays owe the ledger. A stall comes back with
    /// the full diagnostics ([`stall`]), so failing tests print them.
    fn drain(
        net: &mut Network,
        table: &mut PacketTable,
        stats: &mut StatsCollector,
        max: u64,
    ) -> Result<u64, String> {
        let mut feedbacks = Vec::new();
        for cycle in 0..max {
            net.step(table, cycle, stats, &mut feedbacks);
            // Delivered packets retire on the spot, so "all delivered"
            // is exactly "no live slots".
            if table.live() == 0 {
                net.book_relays();
                return Ok(cycle + 1);
            }
        }
        Err(stall(net, table, max))
    }

    #[test]
    fn single_packet_same_layer_delivers_with_expected_latency() {
        let (mesh, elevators) = fixture();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        stats.set_armed(true);
        let mut table = PacketTable::new();
        launch(
            &mut net,
            &mut table,
            make_packet(
                &mesh,
                &elevators,
                Coord::new(0, 0, 0),
                Coord::new(2, 1, 0),
                5,
                0,
            ),
        );
        let cycles = drain(&mut net, &mut table, &mut stats, 200).unwrap();
        // Zero-load closed form: every stage is one cycle deep — NI
        // injection, one cycle per router-to-router hop (2 in X, 1 in Y),
        // ejection — and the tail trails the head by `flits - 1` cycles.
        let (hops, flits) = (3, 5);
        assert_eq!(cycles, 1 + hops + 1 + (flits - 1));
        assert_eq!(net.link_ledger().ejections(), 5);
        assert_eq!(stats.delivered_packets, 1);
        assert_eq!(stats.packet_hists().unwrap().hops.max(), hops);
        // Created at cycle 0, delivered in the last of those cycles.
        assert_eq!(stats.total_latency, cycles - 1);
        assert_eq!(table.capacity(), 1, "the slot must recycle");
    }

    #[test]
    fn inter_layer_packet_rides_the_elevator() {
        let (mesh, elevators) = fixture();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        stats.set_armed(true);
        let mut table = PacketTable::new();
        launch(
            &mut net,
            &mut table,
            make_packet(
                &mesh,
                &elevators,
                Coord::new(0, 0, 0),
                Coord::new(2, 2, 1),
                10,
                0,
            ),
        );
        drain(&mut net, &mut table, &mut stats, 300).unwrap();
        // The pillar router on each layer must have seen the packet's flits.
        let pillar0 = mesh.node_id(Coord::new(1, 1, 0)).unwrap();
        let pillar1 = mesh.node_id(Coord::new(1, 1, 1)).unwrap();
        let router_flits = net.link_ledger().router_flits();
        assert!(router_flits[pillar0.index()] >= 10);
        assert!(router_flits[pillar1.index()] >= 10);
        // Eq. 4: 2 hops to the pillar, 1 up it, 2 from it.
        assert_eq!(stats.packet_hists().unwrap().hops.max(), 5);
    }

    #[test]
    fn source_feedback_fires_for_inter_layer_packets() {
        let (mesh, elevators) = fixture();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        let mut feedbacks = Vec::new();
        let mut table = PacketTable::new();
        let pkt = make_packet(
            &mesh,
            &elevators,
            Coord::new(0, 0, 0),
            Coord::new(0, 0, 1),
            8,
            0,
        );
        let src = pkt.src;
        launch(&mut net, &mut table, pkt);
        for cycle in 0..100 {
            net.step(&mut table, cycle, &mut stats, &mut feedbacks);
        }
        assert_eq!(feedbacks.len(), 1);
        let fb = feedbacks[0];
        assert_eq!(fb.src, src);
        assert_eq!(fb.elevator, ElevatorId(0));
        assert_eq!(fb.packet_flits, 8);
        assert!(fb.tail_departure > fb.head_departure);
        // Uncongested: head-to-tail spread is exactly flits-1 → cost 0.
        assert_eq!(fb.blocking_cost(), 0.0);
    }

    #[test]
    fn many_packets_conserve_flits() {
        let (mesh, elevators) = fixture();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        stats.set_armed(true);
        let mut table = PacketTable::new();
        let mut total_flits = 0u64;
        // All-to-one hotspot: heavy contention on the pillar.
        for src in mesh.coords() {
            let dst = Coord::new(2, 2, 1);
            if src == dst {
                continue;
            }
            total_flits += 6;
            launch(
                &mut net,
                &mut table,
                make_packet(&mesh, &elevators, src, dst, 6, 0),
            );
        }
        drain(&mut net, &mut table, &mut stats, 5000).unwrap();
        assert_eq!(net.link_ledger().ejections(), total_flits);
        assert_eq!(net.buffered_flits(), 0);
        assert_eq!(net.queued_packets(), 0);
        assert_eq!(table.live(), 0);
    }

    #[test]
    fn probe_reports_live_occupancy() {
        let (mesh, elevators) = fixture();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        let mut feedbacks = Vec::new();
        let src = Coord::new(0, 0, 0);
        let mut table = PacketTable::new();
        launch(
            &mut net,
            &mut table,
            make_packet(&mesh, &elevators, src, Coord::new(2, 0, 0), 10, 0),
        );
        assert_eq!(net.buffer_occupancy(NodeId(0)), 0);
        for cycle in 0..2 {
            net.step(&mut table, cycle, &mut stats, &mut feedbacks);
        }
        assert!(net.buffer_occupancy(net.node_at(src)) > 0);
        assert_eq!(net.buffer_capacity_per_router(), 56);
    }

    /// Wormhole correctness: within any input FIFO, the flits of a packet
    /// are contiguous and well-formed (Head, Body*, Tail) — no two packets
    /// ever interleave on a virtual channel. Checked every cycle of a
    /// heavily congested run through a single pillar, together with
    /// per-channel flit/credit conservation.
    #[test]
    fn wormhole_flits_never_interleave() {
        let mesh = Mesh3d::new(3, 3, 3).unwrap();
        let elevators = ElevatorSet::new(&mesh, [(1, 1)]).unwrap();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        let mut feedbacks = Vec::new();

        // All-to-one inter-layer hotspot through the single pillar.
        let dst = Coord::new(2, 2, 2);
        let mut table = PacketTable::new();
        for src in mesh.coords() {
            if src == dst {
                continue;
            }
            launch(
                &mut net,
                &mut table,
                make_packet(&mesh, &elevators, src, dst, 8, 0),
            );
        }

        for cycle in 0..2000 {
            net.step(&mut table, cycle, &mut stats, &mut feedbacks);
            net.check_flow_conservation().unwrap();
            // Invariant check over every FIFO lane.
            for r in 0..mesh.node_count() {
                for port in 0..PORTS {
                    for vc in 0..VCS {
                        let mut current: Option<u32> = None;
                        for (i, flit) in net.lane_flits(r, port, vc).into_iter().enumerate() {
                            match current {
                                None => {
                                    // A fresh packet must start with a head,
                                    // unless the FIFO holds the middle of a
                                    // packet whose head already left (only
                                    // legal at position 0).
                                    if flit.kind().is_head() {
                                        current = Some(flit.slot());
                                    } else {
                                        assert_eq!(
                                            i, 0,
                                            "mid-packet flit beyond slot 0 without a head"
                                        );
                                        current = Some(flit.slot());
                                    }
                                }
                                Some(p) => {
                                    assert_eq!(
                                        flit.slot(),
                                        p,
                                        "packets interleaved within one FIFO"
                                    );
                                }
                            }
                            if flit.kind().is_tail() {
                                current = None;
                            }
                        }
                        // Credits never exceed buffer depth.
                        assert!(net.router(r).credits[port][vc] <= 4);
                    }
                }
            }
            if table.live() == 0 {
                return;
            }
        }
        // Fail with the drain diagnostics rather than a bare message.
        panic!("hotspot run: {}", stall(&net, &table, 2000));
    }

    #[test]
    fn vertical_ports_absent_off_pillar() {
        let (mesh, elevators) = fixture();
        let net = Network::new(mesh, elevators, 4);
        let corner = mesh.node_id(Coord::new(0, 0, 0)).unwrap();
        let pillar = mesh.node_id(Coord::new(1, 1, 0)).unwrap();
        let peer = |node: NodeId, dir: Direction| net.link(node.index(), dir.index()).peer();
        assert!(peer(corner, Direction::Up).is_none());
        assert_eq!(
            peer(pillar, Direction::Up),
            mesh.node_id(Coord::new(1, 1, 1)).ok()
        );
        // Layer 0 has no Down anywhere.
        assert!(peer(pillar, Direction::Down).is_none());
    }

    /// The worklist's reason to exist: after a run drains, the network
    /// goes fully idle and a step visits nothing (and allocates nothing).
    #[test]
    fn idle_network_steps_touch_no_state() {
        let (mesh, elevators) = fixture();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        let mut table = PacketTable::new();
        launch(
            &mut net,
            &mut table,
            make_packet(
                &mesh,
                &elevators,
                Coord::new(0, 0, 0),
                Coord::new(2, 1, 0),
                5,
                0,
            ),
        );
        drain(&mut net, &mut table, &mut stats, 200).unwrap();
        assert!(net.is_idle(), "drained network has no active routers");
        let footprint = net.heap_footprint(&table);
        let mut feedbacks = Vec::new();
        for cycle in 200..400 {
            let progress = net.step(&mut table, cycle, &mut stats, &mut feedbacks);
            assert!(!progress);
        }
        assert_eq!(net.heap_footprint(&table), footprint);
    }

    /// Every clause of the two audits (`check_derived_state`, then the
    /// conservation sums) reports its own corruption, seeded one at a time
    /// into a copy of a mid-run fabric; the uncorrupted fabric passes.
    #[test]
    fn each_audit_clause_reports_its_corruption() {
        let (mesh, elevators) = fixture();
        let mut net = Network::new(mesh, elevators.clone(), 4);
        let mut stats = StatsCollector::new(1);
        let mut table = PacketTable::new();
        let dst = Coord::new(2, 2, 1);
        for src in mesh.coords().filter(|&src| src != dst) {
            let packet = make_packet(&mesh, &elevators, src, dst, 6, 0);
            launch(&mut net, &mut table, packet);
        }
        for cycle in 0..10 {
            net.step(&mut table, cycle, &mut stats, &mut Vec::new());
        }
        net.check_flow_conservation().unwrap();
        let busy = (net.routers.iter()).position(|r| r.buffered > 0).unwrap();
        let sink = mesh.node_id(dst).unwrap().index();
        assert!(net.sources[sink].queue.is_empty());
        // Router 0 sits off the pillar: its `Up` lanes and channels are
        // never used.
        let (east, up) = (
            Direction::East.index(),
            local_lane(Direction::Up.index(), 0),
        );
        assert!(net.link(0, east).peer().is_some() && net.link(0, up / VCS).peer().is_none());
        let bit = |r: usize| 1u64 << (r % 64);
        type Corrupt<'a> = &'a dyn Fn(&mut Network);
        let cases: [(&str, Corrupt); 8] = [
            ("link 0->", &|n| n.routers[0].credits[east][0] += 1),
            ("NI channel at 0", &|n| n.ni_credits[0][1] += 1),
            ("incremental buffered_flits", &|n| n.buffered_total += 1),
            ("off the worklist", &|n| {
                n.active_bits[busy / 64] &= !bit(busy)
            }),
            ("source bit", &|n| n.src_bits[sink / 64] |= bit(sink)),
            ("occ bit disagrees", &|n| n.routers[0].occ |= 1 << up),
            ("own bit disagrees", &|n| n.routers[0].own |= 1 << up),
            ("stale visit-set bits", &|n| n.work_bits[0] |= 1),
        ];
        for (clause, corrupt) in cases {
            let mut copy = net.clone();
            corrupt(&mut copy);
            let report = copy.check_flow_conservation();
            assert!(
                report.as_ref().is_err_and(|e| e.contains(clause)),
                "expected `{clause}`, got {report:?}"
            );
        }
    }

    /// A hand-driven fabric for the directed streaming-path cases: steps
    /// one cycle at a time and audits conservation plus the derived
    /// bitmaps at every boundary.
    struct Rig {
        mesh: Mesh3d,
        elevators: ElevatorSet,
        net: Network,
        table: PacketTable,
        stats: StatsCollector,
        cycle: Cycle,
    }

    /// The one VC same-layer packets travel on.
    const VC: usize = 0;

    impl Rig {
        fn new() -> Self {
            let (mesh, elevators) = fixture();
            let mut net = Network::new(mesh, elevators.clone(), 4);
            // Armed from the start: `feed` books before the first step.
            net.ledger.open(net.fifos.lens());
            let mut stats = StatsCollector::new(1);
            stats.set_armed(true);
            Self {
                mesh,
                elevators,
                net,
                table: PacketTable::new(),
                stats,
                cycle: 0,
            }
        }

        fn node(&self, x: u8, y: u8) -> NodeId {
            self.mesh.node_id(Coord::new(x, y, 0)).unwrap()
        }

        /// Registers a layer-0 packet without queueing it anywhere.
        fn packet(&mut self, src: (u8, u8), dst: (u8, u8), flits: u16) -> PacketId {
            let (src, dst) = (Coord::new(src.0, src.1, 0), Coord::new(dst.0, dst.1, 0));
            let packet = make_packet(&self.mesh, &self.elevators, src, dst, flits, self.cycle);
            assert_eq!(packet.vnet.index(), VC);
            self.table.insert(packet)
        }

        /// Plays the upstream neighbour of input `(node, port)` sending
        /// `kind` of `packet` at this cycle boundary: takes the upstream
        /// credit and commits the arrival through the real commit path,
        /// so conservation and the derived bitmaps stay exact.
        fn feed(&mut self, node: NodeId, port: Direction, packet: PacketId, kind: FlitKind) {
            let vc = self.table.get(packet).vnet.index();
            let net = &mut self.net;
            let link = net.link(node.index(), port.index());
            let up = link.peer().expect("fed port has an upstream").index();
            net.routers[up].credits[link.peer_port as usize][vc] -= 1;
            net.stage_arrival(node, port.index(), vc, Flit::new(packet, kind));
            net.exchange(&self.table, true);
            self.net.check_flow_conservation().unwrap();
        }

        /// Plays the upstream neighbour of input `(node, port)` sending
        /// `kind` of `packet` during the next cycle, and steps it.
        fn step_feeding(
            &mut self,
            node: NodeId,
            port: Direction,
            packet: PacketId,
            kind: FlitKind,
        ) {
            let vc = self.table.get(packet).vnet.index();
            let net = &mut self.net;
            let link = net.link(node.index(), port.index());
            let up = link.peer().expect("fed port has an upstream").index();
            net.routers[up].credits[link.peer_port as usize][vc] -= 1;
            net.stage_arrival(node, port.index(), vc, Flit::new(packet, kind));
            self.step();
        }

        fn step(&mut self) {
            self.net.step(
                &mut self.table,
                self.cycle,
                &mut self.stats,
                &mut Vec::new(),
            );
            self.cycle += 1;
            self.net.check_flow_conservation().unwrap();
        }

        fn router(&self, node: NodeId) -> &RouterState {
            self.net.router(node.index())
        }

        /// Kinds of the flits buffered in input lane `(node, port, VC)`.
        fn lane(&self, node: NodeId, port: Direction) -> Vec<FlitKind> {
            let flits = self.net.lane_flits(node.index(), port.index(), VC);
            flits.iter().map(|f| f.kind()).collect()
        }

        fn drain(&mut self) {
            while self.table.live() > 0 {
                assert!(self.cycle < 200, "directed case failed to drain");
                self.step();
            }
        }
    }

    const NORTH: usize = Direction::North.index();
    const LOCAL_LANE: usize = local_lane(LOCAL, VC);

    /// A worm relays east through router (1, 0, 0) on VC 0 while a
    /// descending worm owns the other VC's channel on that port with its
    /// lane there left empty; a `Body` landing in that lane demotes the
    /// relay (a case no scheduled workload reaches: the owner's flits only
    /// pause this long when its upstream is played by hand). Stepped in
    /// lockstep with a twin that never promotes.
    #[test]
    fn a_body_landing_in_an_empty_owner_lane_demotes_the_relay_on_its_port() {
        let mut rigs = [Rig::new(), Rig::new()];
        rigs[1].net.disable_relays();
        let east = Direction::East.index();
        let (r, lane) = (rigs[0].node(1, 0), local_lane(Direction::West.index(), VC));
        let mut ids = Vec::new();
        for rig in &mut rigs {
            let (src, dst) = (Coord::new(0, 0, 1), Coord::new(2, 0, 0));
            let x = make_packet(&rig.mesh, &rig.elevators, src, dst, 4, 0);
            let x = rig.table.insert(x);
            let w = rig.packet((0, 0), (2, 0), 20);
            ids.push((x, w));
        }
        let lockstep = |rigs: &mut [Rig; 2], op: &dyn Fn(&mut Rig, (PacketId, PacketId))| {
            for (rig, &ids) in rigs.iter_mut().zip(&ids) {
                op(rig, ids);
                rig.net.check_relays(&rig.table).unwrap();
            }
            assert_eq!(
                rigs[0].net.state_digest(&rigs[0].table),
                rigs[1].net.state_digest(&rigs[1].table)
            );
        };
        let relay_at_r = |rig: &Rig| rig.net.relay_lanes().contains(&(r.index(), lane, east));
        // X's head takes channel (East, 1) and leaves its lane empty.
        lockstep(&mut rigs, &|rig, (x, _)| {
            rig.feed(r, Direction::West, x, FlitKind::Head)
        });
        lockstep(&mut rigs, &|rig, _| rig.step());
        let owner = local_lane(Direction::West.index(), 1) as u8;
        assert_eq!(rigs[0].router(r).owner[east][1], owner);
        // W streams through r on (East, 0) until its lane there relays.
        lockstep(&mut rigs, &|rig, (_, w)| {
            let src = rig.node(0, 0);
            rig.net.enqueue_packet(&mut rig.table, src, w);
        });
        while !relay_at_r(&rigs[0]) {
            assert!(rigs[0].cycle < 20, "W's lane at r never relayed");
            lockstep(&mut rigs, &|rig, _| rig.step());
        }
        // X's body lands in its empty lane: it could compete for East.
        let west = Direction::West;
        lockstep(&mut rigs, &|rig, (x, _)| {
            rig.step_feeding(r, west, x, FlitKind::Body)
        });
        assert!(
            !relay_at_r(&rigs[0]),
            "the owner's body must demote the relay"
        );
        for kind in [FlitKind::Body, FlitKind::Tail] {
            lockstep(&mut rigs, &|rig, _| rig.step());
            lockstep(&mut rigs, &|rig, (x, _)| rig.step_feeding(r, west, x, kind));
        }
        while rigs[0].table.live() > 0 {
            assert!(rigs[0].cycle < 100, "directed case failed to drain");
            lockstep(&mut rigs, &|rig, _| rig.step());
        }
        assert_eq!(rigs[0].net.link_ledger(), rigs[1].net.link_ledger());
    }

    /// Streaming path, blocked head: a lone head whose output channel is
    /// held by a wormhole with nothing buffered makes no progress, the
    /// router goes quiet (and is skipped), and it resumes the cycle after
    /// the owner's next flit arrives.
    #[test]
    fn lone_head_waits_for_the_wormhole_holding_its_channel() {
        let mut rig = Rig::new();
        let r = rig.node(1, 1);
        // A enters r from the south, bound north; only its head so far.
        let a = rig.packet((1, 0), (1, 2), 2);
        rig.feed(r, Direction::South, a, FlitKind::Head);
        rig.step();
        let held = local_lane(Direction::South.index(), VC) as u8;
        assert_eq!(rig.router(r).owner[NORTH][VC], held);
        assert_eq!(rig.router(r).buffered, 0, "A's lane is empty again");
        // B starts at r, bound north too: one flit, so nothing trails it.
        let b = rig.packet((1, 1), (1, 2), 1);
        rig.net.enqueue_packet(&mut rig.table, r, b);
        rig.step(); // NI injection
        assert_eq!(rig.lane(r, Direction::Local), [FlitKind::Single]);
        assert!(!rig.router(r).quiet);

        rig.step(); // the only occupied lane fronts a blocked head
        assert_eq!(rig.lane(r, Direction::Local), [FlitKind::Single]);
        assert!(rig.router(r).quiet, "fruitless router must go quiet");
        assert_eq!(rig.router(r).req_cache[LOCAL_LANE], NORTH as u8);
        let digest = rig.net.state_digest(&rig.table);
        rig.step(); // skipped: nothing at all may change
        assert_eq!(rig.net.state_digest(&rig.table), digest);

        rig.feed(r, Direction::South, a, FlitKind::Tail);
        assert!(!rig.router(r).quiet, "an arrival wakes the router");
        rig.step(); // two lanes: the owner's tail wins, B still waits
        assert_eq!(rig.router(r).owner[NORTH][VC], NO_OWNER);
        assert_eq!(rig.lane(r, Direction::Local), [FlitKind::Single]);
        rig.step(); // B streams the cycle after
        assert_eq!(rig.router(r).buffered, 0, "B must have left");
        rig.drain();
        assert_eq!(rig.net.link_ledger().ejections(), 3);
    }

    /// Streaming path, no credit: a lone head whose downstream FIFO is
    /// full does not move, takes nothing, and keeps its cached request
    /// until the first credit comes back.
    #[test]
    fn credit_starved_lone_head_keeps_its_request() {
        let mut rig = Rig::new();
        let (r, d) = (rig.node(1, 1), rig.node(1, 2));
        let b = rig.packet((1, 1), (1, 2), 1);
        rig.net.enqueue_packet(&mut rig.table, r, b);
        rig.step(); // NI injection

        // Fill the downstream lane with a packet that ejects at d.
        let q = rig.packet((1, 1), (1, 2), 4);
        for kind in [
            FlitKind::Head,
            FlitKind::Body,
            FlitKind::Body,
            FlitKind::Tail,
        ] {
            rig.feed(d, Direction::South, q, kind);
        }
        assert_eq!(rig.router(r).credits[NORTH][VC], 0);
        let before = rig.router(r).clone();

        rig.step(); // blocked; d ejects Q's head and returns one credit
        let after = rig.router(r);
        assert_eq!(rig.lane(r, Direction::Local), [FlitKind::Single]);
        assert_eq!(after.req_cache[LOCAL_LANE], NORTH as u8, "request kept");
        assert_eq!(after.credits[NORTH][VC], 1);
        assert_eq!(after.owner, before.owner, "no channel taken");
        assert_eq!(
            (after.rr_grant, after.rr_vc),
            (before.rr_grant, before.rr_vc)
        );

        rig.step(); // the returned credit lets the head go
        assert_eq!(rig.router(r).buffered, 0);
        rig.drain();
        assert_eq!(rig.net.link_ledger().ejections(), 5);
    }

    /// Streaming path, single-flit packet: takes and releases the channel
    /// in one cycle and leaves the channel's round-robin pointers, owner,
    /// credits and the lane's cached request exactly as the arbitrated
    /// path does — forced on a twin fabric by a second occupied lane
    /// bound for a different output.
    #[test]
    fn lone_single_flit_matches_the_arbitrated_path() {
        let mut streamed = Rig::new();
        let mut arbitrated = Rig::new();
        let r = streamed.node(1, 1);
        for rig in [&mut streamed, &mut arbitrated] {
            let b = rig.packet((1, 1), (1, 2), 1);
            rig.net.enqueue_packet(&mut rig.table, r, b);
            rig.step(); // NI injection
        }
        let c = arbitrated.packet((1, 0), (2, 1), 1);
        arbitrated.feed(r, Direction::South, c, FlitKind::Single);
        assert!(streamed.router(r).occ.is_power_of_two());
        assert!(!arbitrated.router(r).occ.is_power_of_two());
        streamed.step();
        arbitrated.step();

        let (s, a) = (streamed.router(r), arbitrated.router(r));
        assert_eq!(s.buffered, 0);
        assert_eq!(s.owner[NORTH][VC], NO_OWNER, "released in the same cycle");
        assert_eq!(s.own, 0);
        assert_eq!(s.rr_grant[NORTH][VC], (LOCAL as u8 + 1) % PORTS as u8);
        assert_eq!(s.rr_vc[NORTH], ((VC + 1) % VCS) as u8);
        assert_eq!(s.credits[NORTH][VC], 3);
        assert_eq!(s.owner[NORTH], a.owner[NORTH]);
        assert_eq!(s.rr_grant[NORTH], a.rr_grant[NORTH]);
        assert_eq!(s.rr_vc[NORTH], a.rr_vc[NORTH]);
        assert_eq!(s.credits[NORTH], a.credits[NORTH]);
        assert_eq!(s.req_cache[LOCAL_LANE], a.req_cache[LOCAL_LANE]);
        assert_eq!((s.own, s.occ), (a.own, a.occ));
    }
}
