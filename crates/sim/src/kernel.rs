//! The stepping kernel: one [`Kernel`] owns the switching state of every
//! router — the flit arena, the worklist, the source queues and the armed
//! telemetry counters — and steps the fabric in two phases. Phase 1 reads
//! committed state and stages its effects on other routers in one
//! `{arrivals, credits}` pair; [`Kernel::commit`] applies them.
//!
//! # One pass per cycle
//!
//! [`Kernel::phase1`] walks the worklist bitmap once. Per visited router
//! it routes & sends (unless the router holds no flits or is `quiet`),
//! injects from the NI if the router's bit in the derived "non-empty
//! source queue" bitmap is set, and sets the router's next-cycle worklist
//! bit while flits stay buffered or packets stay queued. Arrival commits
//! set the bit of every router they land in, so nothing rescans the
//! worklist: besides landing what was staged (the NI's credit returns
//! included), [`Kernel::commit`] only resolves relays. With no rescan to
//! heal a missed bit, the bitmaps are audited instead ([`Kernel::check_derived_state`],
//! run every cycle by the lockstep suites).
//!
//! A flit-hop reads one [`PortLink`] record per port it touches — peer
//! router and peer port in one load — for the send and the credit return
//! alike.
//!
//! While the measurement window is armed, an arrival commit bumps the
//! `writes` of the FIFO lane it lands in, a send bumps the `reads` of the
//! lane it pops (and the router's `ejects` on ejection), and nothing else
//! is booked: [`LaneCount`] is indexed like the arena. Link, router, NI
//! and aggregate counters are derived from these at the fold
//! (`Network::drain_partials` states the identities).
//!
//! # Why streaming one lane is state-identical to arbitrating it
//!
//! When exactly one input lane `L` of a router is occupied
//! (`occ.is_power_of_two()`), [`Kernel::stream_lane`] moves its front
//! flit without building candidate tables or scanning either round-robin.
//! The outcome and every state write equal the arbitrated path's:
//!
//! * *At most one output channel is in play.* Arbitration considers a
//!   channel only if its wormhole owner has a flit buffered or a buffered
//!   head requests it. Only `L` is buffered; `L` holds at most one
//!   channel (its current packet's, from head grant to tail), and fronts
//!   a head only when it holds none (a tail clears the owner in the cycle
//!   it is sent). So `out_mask` and `vc_mask` carry at most one bit: the
//!   cached head request of `L`, else the `own` channel whose owner is
//!   `L`.
//! * *Each round-robin scan has one candidate.* The grant scan over input
//!   ports finds the only requesting lane wherever `rr_grant` starts, and
//!   the VC scan finds the only candidate VC wherever `rr_vc` starts; the
//!   gates in front of them (channel free or owned by `L`, a credit
//!   unless ejecting) are the ones `stream_lane` applies.
//! * *The writes are the same code.* `req_cache` is filled by the shared
//!   [`Kernel::front_request`] before either path decides, and a granted
//!   flit moves through the one [`Kernel::send`], which performs every
//!   `owner`/`own`/`rr_grant`/`rr_vc`/`credits`/`occ`/`req_cache` update,
//!   in the same cycle. A blocked lane writes nothing on either path.
//!
//! The choice between the paths is made from router state alone, per
//! router per cycle; no setting selects it.
//!
//! # Why a relay cycle is state-identical
//!
//! At a cycle boundary a router is a *relay* for the next cycle when its
//! only occupied input lane `L` is a non-`Local` lane holding exactly one
//! `Body` flit, that flit's packet owns a non-`Local` output channel
//! `(o, v)` with a credit, and its source queue is empty. The streaming
//! path would certainly send that flit next cycle. A relay cycle sends it
//! without moving it:
//!
//! * *Net zero.* If the relay is *fed* (its upstream sends into `L`) and
//!   *drained* (its downstream pops the lane `(o, v)` feeds), the per-flit
//!   cycle pops `L`'s `Body` and pushes the next: the same `{packet,
//!   Body}`, as a flit carries no sequence number, and the credit it takes
//!   comes straight back. Every other write is idempotent, as only a router
//!   that has just streamed out of `L` on `(o, v)` is promoted:
//!   `req_cache[L]` is already [`REQ_UNKNOWN`], `rr_vc[o]` points past `v`,
//!   `owner`/`own`/`rr_grant` keep the wormhole, `quiet` stays false.
//! * *Fed and drained come from the relays at the start of the cycle.*
//!   Only [`Kernel::resolve_relays`] promotes and demotes. A relay
//!   upstream always sends and a relay downstream always pops, so a relay
//!   stages nothing toward a relay on the matching lane or channel. Any
//!   other router sees in its `feeds_relay`/`fed_by_relay` masks that a
//!   send or a pop meets a relay, and sets the relay's flag instead of
//!   staging it (a `Tail` replaces the relay's flit), so the commit never
//!   touches a relay lane or channel. Phase 1 visits only *awake* relays:
//!   next to a non-relay, just promoted, or with a packet to inject.
//! * *The resolve* applies what did not net out: an unfed relay pops `L`,
//!   an undrained one spends the credit. Phase 1 keeps relays off the
//!   worklist, so a relay's worklist bit after the commit is a flit in
//!   another of its lanes (its NI injection included). Every relay left
//!   holds its flit and goes back on the worklist.
//! * *What differs at a boundary:* a relay lane's ring head, which is
//!   unobservable (`hash_state` reads `len` and `front`), and the lane
//!   counters. An armed relay cycle owes its lane one `reads` and, if
//!   fed, one `writes`, booked from the kernel's armed-cycle count at
//!   demotion and in `Network::drain_partials`; `Network::partials_clear`
//!   holds only when none are owed.
//! * *Fallbacks.* Everything else is the per-flit path. A relay demotes
//!   when not fed, not drained, fed a `Tail`, or when a flit lands in
//!   another of its lanes. It never ejects or sends from `Local`, so it
//!   defers no [`Effect`].
//!
//! # Why the result is independent of commit order
//!
//! Phase 1 only *reads* other routers' committed state and only *stages*
//! effects on them, and every staged effect commutes with every other
//! staged effect of the same cycle:
//!
//! * at most one flit arrives per `(router, port, vc)` lane per cycle
//!   (each upstream output port sends at most one flit, and exactly one
//!   upstream channel feeds each lane), so no two arrival commits touch
//!   the same FIFO,
//! * at most one credit returns per channel per cycle (each input lane
//!   pops at most once), so credit commits are disjoint too,
//! * worklist bits are idempotent and counters commute.
//!
//! The commit therefore lands the same state whatever order it applies
//! the staged effects in. For the same reason a router's sends and its NI
//! injection may be staged back to back in the one pass: neither reads
//! what the other writes.
//!
//! The only order-sensitive work of a cycle is what touches the shared
//! [`PacketTable`] and statistics (delivery bookkeeping, slot retirement,
//! departure feedback). Phase 1 *defers* those as [`Effect`]s, recorded in
//! ascending router order (the order it walks the worklist in), and the
//! owner of the cycle replays them in that order, so slot retirement order
//! (and with it every future [`PacketId`] assignment) is fixed.

use crate::arena::FlitArena;
use crate::flit::{Flit, FlitKind, PacketId};
use crate::table::PacketTable;
use adele::online::{Cycle, SourceFeedback};
use noc_energy::LinkMap;
use noc_topology::route::{self, VirtualNet};
use noc_topology::{Coord, Direction, NodeId};
use std::collections::VecDeque;

pub(crate) const PORTS: usize = Direction::COUNT;
pub(crate) const VCS: usize = VirtualNet::COUNT;
pub(crate) const LOCAL: usize = 0; // Direction::Local.index()

/// "This input lane fronts no routed head" marker in the per-cycle
/// request table (port indices are < [`PORTS`]).
const NO_REQUEST: u8 = u8::MAX;

/// Route-request cache sentinel: the lane's front changed since the last
/// route computation (or the lane is empty).
const REQ_UNKNOWN: u8 = u8::MAX;
/// Route-request cache sentinel: the current front is not a routable head
/// (a body/tail flit mid-wormhole). Distinct from [`REQ_UNKNOWN`] so
/// blocked non-head fronts are not re-inspected every cycle.
const REQ_NONE: u8 = u8::MAX - 1;

/// A router's relay record (module docs), all zero for any other router:
/// [`local_lane`] indices (never 0, `Local`) and neighbours resolved once.
#[derive(Debug, Clone, Copy, Default)]
struct Relay {
    /// Armed cycles the relay's lane counters are booked up to.
    booked: u64,
    /// Node ids of the upstream and the downstream neighbour.
    up: u32,
    down: u32,
    /// The relay's lane and channel, the upstream's channel into the lane,
    /// the downstream's lane the channel feeds, and [`FED`] | [`DRAINED`] |
    /// [`DEMOTE`] | [`AWAKE`].
    lane: u8,
    out: u8,
    up_out: u8,
    down_lane: u8,
    flags: u8,
}

/// Relay flags: fed, drained, to demote, and on next cycle's awake list.
const FED: u8 = 1;
const DRAINED: u8 = 2;
const DEMOTE: u8 = 4;
const AWAKE: u8 = 8;

/// Whether bit `i` of bitmap `bits` is set.
fn bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] >> (i % 64) & 1 == 1
}

/// Lane index of `(port, vc)` within one router's `PORTS × VCS` block
/// (the bit position used by the occupancy/owner masks).
#[inline]
pub(crate) const fn local_lane(port: usize, vc: usize) -> usize {
    port * VCS + vc
}

/// Arena index of [`local_lane`] `lane` of router `r`.
#[inline]
pub(crate) const fn arena_lane(r: usize, lane: usize) -> usize {
    r * PORTS * VCS + lane
}

/// Per-router switching state (flit storage lives in the kernel's arena).
#[derive(Debug, Clone)]
pub(crate) struct RouterState {
    /// Non-empty input lanes, bit [`local_lane`]`(port, vc)`. A pure
    /// cache of the arena's occupancy, maintained at every push/pop, so
    /// the per-cycle route-and-send pass iterates set bits instead of
    /// probing all `PORTS × VCS` FIFO fronts.
    pub(crate) occ: u32,
    /// Output channels with a live wormhole owner, bit
    /// [`local_lane`]`(port, vc)` — the same skip-the-scan trick for the
    /// owner table.
    pub(crate) own: u32,
    /// Cached routing decision for each input lane's front flit: an
    /// output-port index, [`REQ_NONE`] (front is not a routable head) or
    /// [`REQ_UNKNOWN`] (front changed since last computed). Routes are
    /// pure functions of the packet, so a blocked head no longer pays a
    /// packet-table read plus `route_step` every cycle it waits.
    pub(crate) req_cache: [u8; PORTS * VCS],
    /// Owner of each output channel `(port, vc)`: the input `(port, vc)`
    /// whose packet currently holds the wormhole.
    pub(crate) owner: [[Option<(u8, u8)>; VCS]; PORTS],
    /// Credits towards the downstream FIFO of each output channel.
    pub(crate) credits: [[u8; VCS]; PORTS],
    /// Round-robin pointer over input ports for new grants, per channel.
    pub(crate) rr_grant: [[u8; VCS]; PORTS],
    /// Round-robin pointer over VCs, per output port.
    pub(crate) rr_vc: [u8; PORTS],
    /// Total buffered flits (for probe queries and worklist re-arming).
    pub(crate) buffered: u32,
    /// `true` while the router is provably stuck: its last arbitration
    /// moved nothing, and no arrival or credit has touched it since.
    /// Arbitration is a pure function of the router's own FIFOs, owners
    /// and credits (packet routes are immutable), so until one of those
    /// changes the outcome cannot either — the route-and-send pass skips
    /// the router for the cost of one flag read. Cleared by every arrival
    /// and credit commit.
    pub(crate) quiet: bool,
    /// Output channels feeding a relay lane and input lanes a relay feeds,
    /// bit [`local_lane`]`(port, vc)`: derived state kept by the resolve.
    feeds_relay: u32,
    fed_by_relay: u32,
}

impl RouterState {
    fn new(buffer_depth: u8, credit_mask: [bool; PORTS]) -> Self {
        let mut credits = [[0u8; VCS]; PORTS];
        for p in 0..PORTS {
            if credit_mask[p] {
                credits[p] = [buffer_depth; VCS];
            }
        }
        Self {
            occ: 0,
            own: 0,
            req_cache: [REQ_UNKNOWN; PORTS * VCS],
            owner: [[None; VCS]; PORTS],
            credits,
            rr_grant: [[0; VCS]; PORTS],
            rr_vc: [0; PORTS],
            buffered: 0,
            quiet: false,
            feeds_relay: 0,
            fed_by_relay: 0,
        }
    }
}

/// Per-node injection queue (unbounded source queue behind the NI).
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceQueue {
    pub(crate) queue: VecDeque<PacketId>,
    /// Flits of the front packet already pushed into the local port.
    pub(crate) sent: u16,
}

/// One `(node, port)` entry of [`Topo::links`]: everything a flit-hop
/// needs to know about the far end of a port, in one 8-byte load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortLink {
    /// The router reached through this port ([`PortLink::NO_PEER`] for
    /// the local port and for ports the fabric does not wire).
    peer: NodeId,
    /// The peer's port facing this one: its *input* port for flits sent
    /// through this port, and its *output* port for credits returned
    /// through it (mesh links are bidirectional).
    pub(crate) peer_port: u8,
    /// Telemetry lane of this port's input FIFOs: the upstream link
    /// feeding it (lane id == link id), or the router's NI lane on the
    /// local port. Read by the telemetry fold only.
    pub(crate) in_lane: u32,
}

impl PortLink {
    /// `Mesh3d` caps the node count at `u16::MAX`, so this id is never a
    /// router's.
    const NO_PEER: NodeId = NodeId(u16::MAX);

    /// The router at the far end, if the port is wired.
    pub(crate) fn peer(&self) -> Option<NodeId> {
        (self.peer != Self::NO_PEER).then_some(self.peer)
    }
}

/// Immutable per-run lookup tables.
#[derive(Debug, Clone)]
pub(crate) struct Topo {
    pub(crate) coords: Vec<Coord>,
    /// The flat link table, `links[node * PORTS + port]`, mirrored port
    /// for port from the [`LinkMap`] so switching and telemetry can never
    /// disagree about which links exist.
    links: Vec<PortLink>,
    pub(crate) buffer_depth: u8,
}

impl Topo {
    pub(crate) fn new(coords: Vec<Coord>, map: &LinkMap, buffer_depth: u8) -> Self {
        let mut links = Vec::with_capacity(coords.len() * PORTS);
        for node in 0..coords.len() {
            for dir in Direction::ALL {
                links.push(PortLink {
                    peer: map
                        .neighbour(NodeId(node as u16), dir)
                        .unwrap_or(PortLink::NO_PEER),
                    peer_port: dir.opposite().index() as u8,
                    in_lane: map.in_lane_raw(node, dir.index()),
                });
            }
        }
        Self {
            coords,
            links,
            buffer_depth,
        }
    }

    pub(crate) fn node_count(&self) -> usize {
        self.coords.len()
    }

    /// The link record of `(node, port)`.
    #[inline]
    pub(crate) fn link(&self, node: usize, port: usize) -> &PortLink {
        &self.links[node * PORTS + port]
    }
}

/// Hop count of a packet's deterministic route (XY → elevator → XY):
/// derived from the coordinates and the selected elevator instead of a
/// per-flit counter, so the hot path carries no extra packet state.
pub(crate) fn route_hops(topo: &Topo, pkt: &crate::flit::Packet) -> u64 {
    let s = topo.coords[pkt.src.index()];
    let d = topo.coords[pkt.dst.index()];
    let xy =
        |ax: u8, ay: u8, bx: u8, by: u8| u64::from(ax.abs_diff(bx)) + u64::from(ay.abs_diff(by));
    match pkt.elevator {
        None => xy(s.x, s.y, d.x, d.y),
        Some(e) => xy(s.x, s.y, e.x, e.y) + u64::from(s.z.abs_diff(d.z)) + xy(e.x, e.y, d.x, d.y),
    }
}

/// A packet-table/statistics side effect deferred out of phase 1,
/// replayed by the cycle owner in router order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect {
    /// A flit ejected into its destination NI (`tail` ends the packet).
    Eject {
        /// The ejected flit's packet.
        packet: PacketId,
        /// `true` if the flit was the packet's tail.
        tail: bool,
    },
    /// A head and/or tail flit left its source router (single-flit
    /// packets depart as both at once).
    SrcDeparture {
        /// The departing flit's packet.
        packet: PacketId,
        /// The head left the source this cycle.
        head: bool,
        /// The tail left the source this cycle.
        tail: bool,
    },
}

/// An arbitration outcome: input lane `(ip, iv)` sends its front flit on
/// VC `v` of the arbitrated output port.
#[derive(Debug, Clone, Copy)]
struct Grant {
    v: usize,
    ip: usize,
    iv: usize,
    /// `true` if the flit is a head taking the channel (a new wormhole),
    /// `false` if it follows the channel's current owner.
    is_new: bool,
}

/// Armed flit events in one FIFO lane since the last telemetry fold.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LaneCount {
    /// Flits committed into the lane.
    pub(crate) writes: u64,
    /// Flits popped out of it (each paired with a crossbar traversal).
    pub(crate) reads: u64,
}

/// The fabric's cycle state: every router's switching state, its flit
/// arena, worklist, source queues and telemetry counters, indexed by node
/// id.
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    /// The fabric's immutable lookup tables.
    pub(crate) topo: Topo,
    pub(crate) routers: Vec<RouterState>,
    /// The input FIFOs, one ring per `(router, port, vc)`.
    pub(crate) fifos: FlitArena,
    pub(crate) sources: Vec<SourceQueue>,
    /// NI credits towards the local input port, per VC.
    pub(crate) ni_credits: Vec<[u8; VCS]>,
    /// Flits buffered across all routers (incremental).
    pub(crate) buffered_total: u64,
    /// Packets waiting in the source queues (incremental).
    pub(crate) queued_total: u64,
    /// Worklist bitmap of routers to visit next cycle (bit = node id).
    pub(crate) active_bits: Vec<u64>,
    /// Previous cycle's worklist, swapped in as this cycle's visit set
    /// and zeroed word by word as phase 1 consumes it.
    work_bits: Vec<u64>,
    /// Routers whose source queue is non-empty (bit = node id): a pure
    /// cache of `sources[r].queue.is_empty()`, maintained at every
    /// enqueue and at the pop that empties a queue, so phase 1 injects
    /// without probing a `VecDeque` per visited router. Always a subset
    /// of the worklist. Derived state — not hashed.
    pub(crate) src_bits: Vec<u64>,
    /// Staged `(router, input port, vc, flit)` arrivals.
    arrivals: Vec<(NodeId, u8, u8, Flit)>,
    /// Staged `(router, output port, vc)` credit returns; port `Local`
    /// returns one to the router's NI.
    credits: Vec<(NodeId, u8, u8)>,
    /// Deferred packet-table/statistics effects, in emission order.
    pub(crate) effects: Vec<Effect>,
    /// Deferred source-departure feedback, in emission order.
    pub(crate) feedbacks: Vec<SourceFeedback>,
    /// Armed events per FIFO lane, indexed like [`Self::fifos`] — the
    /// only telemetry the stepping kernel books (see the module docs).
    /// Drained on demand by `Network::drain_partials`.
    pub(crate) lane_counts: Vec<LaneCount>,
    /// Armed ejections per router: the one event no lane counter tells
    /// apart (an ejecting pop and a forwarding pop are both `reads`).
    /// Drained on demand.
    pub(crate) ejects: Vec<u64>,
    /// `true` if a flit moved or was injected this cycle.
    pub(crate) progress: bool,
    /// Relay record per router, cached as a bitmap and a count.
    relay: Vec<Relay>,
    relay_bits: Vec<u64>,
    relay_count: usize,
    /// The relays phase 1 visits, those the resolve decides on, and the
    /// promotion candidates (module docs) as `(router, lane, channel)`.
    awake: Vec<u32>,
    unsettled: Vec<u32>,
    streamed: Vec<(u32, u8, u8)>,
    /// Armed cycles so far: the clock of the relays' lazy booking.
    armed_cycles: u64,
    /// Whether routers are promoted to relays (tests step without).
    pub(crate) promote: bool,
}

impl Kernel {
    pub(crate) fn new(topo: Topo) -> Self {
        let n = topo.node_count();
        let depth = topo.buffer_depth;
        let routers = (0..n)
            .map(|r| {
                let credit_mask: [bool; PORTS] =
                    std::array::from_fn(|p| topo.link(r, p).peer().is_some());
                RouterState::new(depth, credit_mask)
            })
            .collect();
        // Every staging buffer is drained each cycle, so reserving its
        // per-cycle worst case up front makes steady-state stepping
        // allocation-free from cycle 0. Each directed link carries at most
        // one flit per cycle (one send per output port) and returns at
        // most `VCS` credits per cycle (each input lane pops at most
        // once); each NI injects at most one flit per cycle and takes back
        // at most `VCS` credits (its LOCAL input lanes).
        let links = topo.links.iter().filter(|l| l.peer().is_some()).count();
        Self {
            topo,
            routers,
            fifos: FlitArena::new(n * PORTS * VCS, depth),
            sources: vec![SourceQueue::default(); n],
            ni_credits: vec![[depth; VCS]; n],
            buffered_total: 0,
            queued_total: 0,
            active_bits: vec![0; n.div_ceil(64)],
            work_bits: vec![0; n.div_ceil(64)],
            src_bits: vec![0; n.div_ceil(64)],
            arrivals: Vec::with_capacity(links + n),
            credits: Vec::with_capacity(VCS * (links + n)),
            // Per cycle: one ejection plus `VCS` source departures per
            // router, one feedback per departure.
            effects: Vec::with_capacity((1 + VCS) * n),
            feedbacks: Vec::with_capacity(VCS * n),
            lane_counts: vec![LaneCount::default(); n * PORTS * VCS],
            ejects: vec![0; n],
            progress: false,
            relay: vec![Relay::default(); n],
            relay_bits: vec![0; n.div_ceil(64)],
            relay_count: 0,
            awake: Vec::with_capacity(n),
            // Each relay at most twice: next to a non-relay, and demoted.
            unsettled: Vec::with_capacity(2 * n),
            streamed: Vec::with_capacity(n),
            armed_cycles: 0,
            promote: true,
        }
    }

    /// Queues a freshly created packet at router `r`'s source NI.
    pub(crate) fn enqueue(&mut self, r: usize, id: PacketId) {
        self.sources[r].queue.push_back(id);
        self.queued_total += 1;
        self.active_bits[r / 64] |= 1 << (r % 64);
        self.src_bits[r / 64] |= 1 << (r % 64);
        self.wake(r); // only an awake relay injects
    }

    /// Phase 1 of the cycle, one pass over the worklist: per visited
    /// router, route & send, then NI injection if its source queue is
    /// non-empty, then its next-cycle worklist bit. Only reads the packet
    /// table; every effect on another router or the NI is staged
    /// (arrivals, credits, deferred [`Effect`]s).
    pub(crate) fn phase1(&mut self, packets: &PacketTable, cycle: Cycle, armed: bool) {
        self.armed_cycles += u64::from(armed);

        // Take this cycle's worklist bitmap; `active_bits` (all zero: the
        // previous pass consumed every word) accumulates next cycle's.
        std::mem::swap(&mut self.active_bits, &mut self.work_bits);

        // Awake relays first; the others have nothing to do (module docs).
        self.progress = self.relay_count > 0;
        while let Some(r) = self.awake.pop() {
            self.relay_cycle(r as usize, packets);
        }

        for w in 0..self.work_bits.len() {
            let mut bits = std::mem::take(&mut self.work_bits[w]) & !self.relay_bits[w];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits ^= bit;
                let router = &self.routers[r];
                // A router only queued at its source NI has nothing to
                // switch; a quiet one is provably stuck since its last
                // arbitration.
                if router.buffered > 0 && !router.quiet {
                    let moved = self.process_router(r, packets, cycle, armed);
                    self.progress |= moved;
                    // A fruitless arbitration stays fruitless until an
                    // arrival or credit changes the router's inputs.
                    self.routers[r].quiet = !moved;
                }
                if self.src_bits[w] & bit != 0 {
                    self.inject(r, packets);
                }
                // Re-arm while flits stay buffered (quiet routers
                // included) or packets stay queued; everything else goes
                // idle and costs nothing until an arrival commit or an
                // enqueue sets its bit again.
                if self.routers[r].buffered > 0 || self.src_bits[w] & bit != 0 {
                    self.active_bits[w] |= bit;
                }
            }
        }
    }

    /// Phase 1 of awake relay `r` (module docs): the send, flagged
    /// against its relay neighbours, then the NI injection.
    fn relay_cycle(&mut self, r: usize, packets: &PacketTable) {
        let (rec, vcs) = (self.relay[r], VCS as u8);
        if rec.lane == 0 {
            return; // demoted since it was woken
        }
        let fed = self.relay[rec.up as usize].out == rec.up_out;
        let drained = self.relay[rec.down as usize].lane == rec.down_lane;
        self.relay[r].flags = if fed { FED } else { 0 } | if drained { DRAINED } else { 0 };
        if !(fed && drained) {
            self.unsettled.push(r as u32);
        }
        if !fed {
            let up = NodeId(rec.up as u16);
            self.credits.push((up, rec.up_out / vcs, rec.up_out % vcs));
        }
        if !drained {
            let at = arena_lane(r, rec.lane.into());
            let flit = self.fifos.front(at).expect("a relay holds a flit");
            let down = NodeId(rec.down as u16);
            let arrival = (down, rec.down_lane / vcs, rec.down_lane % vcs, flit);
            self.arrivals.push(arrival);
        }
        if bit(&self.src_bits, r) {
            self.inject(r, packets);
        }
    }

    /// Takes a send over `link` on `vc` into the relay lane it feeds, in
    /// place of the flit the relay sent; its write is the relay's.
    #[inline(never)]
    fn relay_arrival(&mut self, link: &PortLink, vc: usize, flit: Flit) {
        let down = link.peer.index();
        self.relay[down].flags |= FED;
        if flit.kind.is_tail() {
            self.relay[down].flags |= DEMOTE;
            let at = arena_lane(down, local_lane(link.peer_port.into(), vc));
            self.fifos.pop_front(at);
            self.fifos.push_back(at, flit);
        }
    }

    /// Puts router `r`, if a relay, on next cycle's awake list.
    fn wake(&mut self, r: usize) {
        let rec = &mut self.relay[r];
        if rec.lane != 0 && rec.flags & AWAKE == 0 {
            rec.flags |= AWAKE;
            self.awake.push(r as u32);
        }
    }

    /// NI injection at router `r`, whose source queue is non-empty:
    /// stages the front packet's next flit into the local input port if
    /// the NI holds a credit for its VC.
    #[inline(always)]
    fn inject(&mut self, r: usize, packets: &PacketTable) {
        let pid = *self.sources[r]
            .queue
            .front()
            .expect("source bit implies a queued packet");
        let pkt = packets.get(pid);
        let vc = pkt.vnet.index();
        if self.ni_credits[r][vc] == 0 {
            return;
        }
        let kind = FlitKind::for_position(self.sources[r].sent, pkt.flits);
        self.ni_credits[r][vc] -= 1;
        self.arrivals.push((
            NodeId(r as u16),
            LOCAL as u8,
            vc as u8,
            Flit { packet: pid, kind },
        ));
        let sq = &mut self.sources[r];
        sq.sent += 1;
        if sq.sent == pkt.flits {
            sq.queue.pop_front();
            sq.sent = 0;
            self.queued_total -= 1;
            if sq.queue.is_empty() {
                self.src_bits[r / 64] &= !(1 << (r % 64));
            }
        }
        self.progress = true;
    }

    /// Commits the cycle: lands the staged flit arrivals and credit
    /// returns (the NI's included), draining them in place, then resolves
    /// the relays. The staged effects of one cycle touch disjoint
    /// lanes and channels (see the module docs), so their order is
    /// immaterial.
    pub(crate) fn commit(&mut self, armed: bool) {
        for (node, port, vc, flit) in self.arrivals.drain(..) {
            let r = node.index();
            let lane = local_lane(port.into(), vc.into());
            let at = arena_lane(r, lane);
            debug_assert!(
                self.fifos.len(at) < self.topo.buffer_depth as usize,
                "credit protocol violated: FIFO overflow at {node}"
            );
            self.fifos.push_back(at, flit);
            let router = &mut self.routers[r];
            if router.occ & (1 << lane) == 0 {
                // The lane was empty: this flit is its new front.
                router.occ |= 1 << lane;
                router.req_cache[lane] = REQ_UNKNOWN;
            }
            router.buffered += 1;
            router.quiet = false;
            self.buffered_total += 1;
            if armed {
                self.lane_counts[at].writes += 1;
            }
            // An arrival is next cycle's work wherever it lands.
            self.active_bits[r / 64] |= 1 << (r % 64);
        }
        for (node, port, vc) in self.credits.drain(..) {
            let (r, port, vc) = (node.index(), usize::from(port), usize::from(vc));
            let c = if port == LOCAL {
                // The NI's: no router reads it, so none wakes.
                &mut self.ni_credits[r][vc]
            } else {
                let router = &mut self.routers[r];
                router.quiet = false;
                &mut router.credits[port][vc]
            };
            *c += 1;
            debug_assert!(*c <= self.topo.buffer_depth, "credit overflow at {node}");
        }
        self.resolve_relays(armed);
    }

    /// Ends the cycle's relays (module docs): demotes those not fed, not
    /// drained or disturbed, applying and booking what did not net out, and
    /// promotes the candidates that qualify.
    fn resolve_relays(&mut self, armed: bool) {
        // Phase 1 keeps relays off the worklist, so a bit there is an
        // arrival the commit landed in another lane of the relay.
        for w in 0..self.relay_bits.len() {
            let mut hit = self.active_bits[w] & self.relay_bits[w];
            while hit != 0 {
                let r = w * 64 + hit.trailing_zeros() as usize;
                hit &= hit - 1;
                self.relay[r].flags |= DEMOTE;
                self.unsettled.push(r as u32);
            }
        }
        while let Some(r) = self.unsettled.pop() {
            let (r, rec) = (r as usize, self.relay[r as usize]);
            if rec.lane == 0 || rec.flags & !AWAKE == FED | DRAINED {
                // Listed twice, or kept: next to a non-relay, it has work.
                self.wake(r);
                continue;
            }
            self.relay[r] = Relay::default();
            self.relay_bits[r / 64] &= !(1 << (r % 64));
            self.relay_count -= 1;
            self.routers[rec.up as usize].feeds_relay &= !(1 << rec.up_out);
            self.routers[rec.down as usize].fed_by_relay &= !(1 << rec.down_lane);
            let (at, fed) = (arena_lane(r, rec.lane.into()), rec.flags & FED != 0);
            let owed = self.armed_cycles - rec.booked;
            self.lane_counts[at].reads += owed;
            self.lane_counts[at].writes += owed - u64::from(armed && !fed);
            let router = &mut self.routers[r];
            if !fed {
                // The pop the relay cycle owed: the lane empties.
                self.fifos.pop_front(at);
                self.buffered_total -= 1;
                router.buffered -= 1;
                router.occ &= !(1 << rec.lane);
            }
            let (o, v) = (usize::from(rec.out) / VCS, usize::from(rec.out) % VCS);
            router.credits[o][v] -= u8::from(rec.flags & DRAINED == 0);
            // A flit left, a queued packet or an arrival keeps it listed.
            if fed || bit(&self.src_bits, r) {
                self.active_bits[r / 64] |= 1 << (r % 64);
            }
            self.wake(rec.up as usize); // its relay neighbours lose one
            self.wake(rec.down as usize);
        }
        // A relay's lane is refilled: it stays on the worklist.
        for w in 0..self.relay_bits.len() {
            self.active_bits[w] |= self.relay_bits[w];
        }
        while let Some((r, lane, out)) = self.streamed.pop() {
            self.promote_relay(r as usize, lane.into(), out.into());
        }
    }

    /// Books what every relay owes its lane counters: all its cycles so
    /// far were fed, since it is still a relay.
    pub(crate) fn book_relays(&mut self) {
        let relays = self.relay.iter_mut();
        for (r, rec) in relays.enumerate().filter(|(_, rec)| rec.lane != 0) {
            let owed = self.armed_cycles - std::mem::replace(&mut rec.booked, self.armed_cycles);
            let counts = &mut self.lane_counts[arena_lane(r, rec.lane.into())];
            counts.reads += owed;
            counts.writes += owed;
        }
    }

    /// `true` if no relay owes its lane counters anything.
    pub(crate) fn relays_booked(&self) -> bool {
        (self.relay.iter()).all(|rec| rec.lane == 0 || rec.booked == self.armed_cycles)
    }

    /// The output port requested by the front flit of input lane `b`
    /// (a [`local_lane`] index with its `occ` bit set), or [`REQ_NONE`]
    /// if the front is not a routable head. The route of a given front is
    /// constant, so a blocked head reuses the cached request.
    #[inline]
    fn front_request(&mut self, r: usize, b: usize, packets: &PacketTable) -> u8 {
        let cached = self.routers[r].req_cache[b];
        if cached != REQ_UNKNOWN {
            return cached;
        }
        let front = self
            .fifos
            .front(arena_lane(r, b))
            .expect("occ bit implies a flit");
        let mut request = REQ_NONE;
        if front.kind.is_head() {
            let pkt = packets.get(front.packet);
            if pkt.vnet.index() == b % VCS {
                request = route::route_step(
                    self.topo.coords[r],
                    self.topo.coords[pkt.dst.index()],
                    pkt.elevator,
                )
                .index() as u8;
            }
        }
        self.routers[r].req_cache[b] = request;
        request
    }

    /// Routes & sends for one active router. With a single occupied input
    /// lane there is nothing to arbitrate ([`Self::stream_lane`]);
    /// otherwise computes, once, which output each buffered head flit
    /// requests and arbitrates only the output ports that have a
    /// requesting head or a live wormhole with buffered flits.
    fn process_router(
        &mut self,
        r: usize,
        packets: &PacketTable,
        cycle: Cycle,
        armed: bool,
    ) -> bool {
        let occ = self.routers[r].occ;
        if occ.is_power_of_two() {
            let b = occ.trailing_zeros() as usize;
            return self.stream_lane(r, b, packets, cycle, armed);
        }
        // Output ports worth arbitrating: wormhole owners with flits
        // ready. Only channels with their `own` bit set can have an
        // owner, so iterate the mask instead of scanning the table.
        let mut out_mask: u8 = 0;
        // VCs per output that can possibly field a candidate (live owner
        // or requesting head); arbitration skips the rest unseen.
        let mut vc_mask = [0u8; PORTS];
        let mut own_bits = self.routers[r].own;
        while own_bits != 0 {
            let b = own_bits.trailing_zeros() as usize;
            own_bits &= own_bits - 1;
            let (o, v) = (b / VCS, b % VCS);
            let (ip, iv) = self.routers[r].owner[o][v].expect("own bit implies an owner");
            if occ & (1 << local_lane(ip as usize, iv as usize)) != 0 {
                out_mask |= 1 << o;
                vc_mask[o] |= 1 << v;
            }
        }
        // …and the requested output of every head flit at a FIFO front
        // (owned lanes never front a head: the owner is cleared the moment
        // the previous tail is sent). Only non-empty lanes — the set bits
        // of `occ` — can front anything.
        let mut head_request = [[NO_REQUEST; VCS]; PORTS];
        let mut occ_bits = occ;
        while occ_bits != 0 {
            let b = occ_bits.trailing_zeros() as usize;
            occ_bits &= occ_bits - 1;
            let request = self.front_request(r, b, packets);
            if request < PORTS as u8 {
                head_request[b / VCS][b % VCS] = request;
                out_mask |= 1 << request;
                vc_mask[request as usize] |= 1 << (b % VCS);
            }
        }

        let mut progress = false;
        let mut input_used = [[false; VCS]; PORTS];
        while out_mask != 0 {
            let o = out_mask.trailing_zeros() as usize;
            out_mask &= out_mask - 1;
            if let Some(grant) = self.arbitrate(r, o, vc_mask[o], &head_request, &input_used) {
                input_used[grant.ip][grant.iv] = true;
                self.send(r, o, grant, packets, cycle, armed);
                progress = true;
            }
        }
        progress
    }

    /// The streaming path: input lane `b` is the router's only occupied
    /// lane, so at most one output channel can be requested or
    /// owned-and-ready and both round-robin scans of [`Self::arbitrate`]
    /// could only find that one candidate (see the module docs). Resolves
    /// it directly, applies the same owner and credit gates, and moves
    /// the flit through the same [`Self::send`].
    fn stream_lane(
        &mut self,
        r: usize,
        b: usize,
        packets: &PacketTable,
        cycle: Cycle,
        armed: bool,
    ) -> bool {
        let (ip, iv) = (b / VCS, b % VCS);
        let request = self.front_request(r, b, packets);
        let router = &self.routers[r];
        let (o, v, is_new) = if request < PORTS as u8 {
            // A head asks for a new grant on its own VC; a channel still
            // held by another wormhole (whose lane is empty) blocks it.
            if router.owner[request as usize][iv].is_some() {
                return false;
            }
            (request as usize, iv, true)
        } else {
            // Mid-wormhole: the flit follows the channel its head took.
            let lane = Some((ip as u8, iv as u8));
            let mut own_bits = router.own;
            loop {
                if own_bits == 0 {
                    return false;
                }
                let c = own_bits.trailing_zeros() as usize;
                own_bits &= own_bits - 1;
                if router.owner[c / VCS][c % VCS] == lane {
                    break (c / VCS, c % VCS, false);
                }
            }
        };
        if o != LOCAL && router.credits[o][v] == 0 {
            return false;
        }
        let grant = Grant { v, ip, iv, is_new };
        self.send(r, o, grant, packets, cycle, armed);
        // A candidate if it sent no tail and the lane holds no second flit.
        let out = local_lane(o, v);
        let held = self.routers[r].own >> out & 1 != 0;
        if ip != LOCAL && o != LOCAL && held && self.fifos.len(arena_lane(r, b)) < 2 {
            self.streamed.push((r as u32, b as u8, out as u8));
        }
        true
    }

    /// Makes router `r`, which streamed out of lane `lane` on channel
    /// `out` this cycle, a relay if it now qualifies (module docs).
    fn promote_relay(&mut self, r: usize, lane: usize, out: usize) {
        let at = arena_lane(r, lane);
        let (router, o, v) = (&self.routers[r], out / VCS, out % VCS);
        // A `Body` behind the flit just sent is the same packet's, which
        // keeps the channel; behind a backed-up lane it would not last.
        let body = self.fifos.front(at).map(|f| f.kind) == Some(FlitKind::Body);
        let lone = self.promote && router.occ == 1 << lane && self.fifos.len(at) == 1 && body;
        let credits = router.credits[o][v];
        let flowing = credits > 0 && credits + 1 >= self.topo.buffer_depth;
        if !(lone && flowing && !bit(&self.src_bits, r)) {
            return;
        }
        let (input, output) = (self.topo.link(r, lane / VCS), self.topo.link(r, o));
        let rec = Relay {
            booked: self.armed_cycles,
            up: input.peer.index() as u32,
            down: output.peer.index() as u32,
            lane: lane as u8,
            out: out as u8,
            up_out: local_lane(input.peer_port.into(), lane % VCS) as u8,
            down_lane: local_lane(output.peer_port.into(), v) as u8,
            flags: 0,
        };
        self.relay[r] = rec;
        self.relay_bits[r / 64] |= 1 << (r % 64);
        self.relay_count += 1;
        self.routers[rec.up as usize].feeds_relay |= 1 << rec.up_out;
        self.routers[rec.down as usize].fed_by_relay |= 1 << rec.down_lane;
        self.wake(r);
    }

    /// Arbitrates one output port of one router among several occupied
    /// input lanes: picks (at most) one `(input lane, VC)` to send this
    /// cycle. Reads state only; [`Self::send`] applies the grant.
    fn arbitrate(
        &self,
        r: usize,
        o: usize,
        vc_mask: u8,
        head_request: &[[u8; VCS]; PORTS],
        input_used: &[[bool; VCS]; PORTS],
    ) -> Option<Grant> {
        let router = &self.routers[r];
        // Gather, per VC, the input (port, vc) able to send on (o, vc).
        let mut candidates: [Option<Grant>; VCS] = [None; VCS];
        let mut vcs = vc_mask;
        while vcs != 0 {
            let v = vcs.trailing_zeros() as usize;
            vcs &= vcs - 1;
            let has_credit = o == LOCAL || router.credits[o][v] > 0;
            if !has_credit {
                continue;
            }
            if let Some((ip, iv)) = router.owner[o][v] {
                let (ip, iv) = (ip as usize, iv as usize);
                if input_used[ip][iv] {
                    continue;
                }
                if router.occ & (1 << local_lane(ip, iv)) != 0 {
                    candidates[v] = Some(Grant {
                        v,
                        ip,
                        iv,
                        is_new: false,
                    });
                }
            } else {
                // New grant: round-robin over input ports whose head flit
                // requests this output. Inputs popped earlier this cycle
                // are flagged used, so a stale request is never granted.
                let start = router.rr_grant[o][v] as usize;
                for t in 0..PORTS {
                    let p = (start + t) % PORTS;
                    if input_used[p][v] || head_request[p][v] != o as u8 {
                        continue;
                    }
                    candidates[v] = Some(Grant {
                        v,
                        ip: p,
                        iv: v,
                        is_new: true,
                    });
                    break;
                }
            }
        }

        // Port-level VC arbitration: one flit per output port per cycle.
        let start_vc = router.rr_vc[o] as usize;
        (0..VCS).find_map(|t| candidates[(start_vc + t) % VCS])
    }

    /// Moves one granted flit out of router `r` through output
    /// `(o, grant.v)` — the only implementation of flit movement, shared
    /// by the streaming and arbitrated paths: pops the input lane,
    /// updates owner / round-robin / credit state, stages the credit
    /// return and the downstream arrival (or the ejection), and books
    /// telemetry and source-departure feedback.
    #[allow(clippy::too_many_arguments)] // the per-cycle context of one hop
    fn send(
        &mut self,
        r: usize,
        o: usize,
        grant: Grant,
        packets: &PacketTable,
        cycle: Cycle,
        armed: bool,
    ) {
        let Grant { v, ip, iv, is_new } = grant;

        // Dequeue and update switching state.
        let in_lane_bit = local_lane(ip, iv);
        let in_fifo = arena_lane(r, in_lane_bit);
        let flit = self.fifos.pop_front(in_fifo);
        self.buffered_total -= 1;
        let emptied = self.fifos.is_empty(in_fifo);
        let router = &mut self.routers[r];
        router.buffered -= 1;
        // The lane's front changed: drop its cached route and, if it
        // emptied, its occupancy bit.
        router.req_cache[in_lane_bit] = REQ_UNKNOWN;
        if emptied {
            router.occ &= !(1 << in_lane_bit);
        }
        let out_lane_bit = local_lane(o, v);
        if is_new {
            router.owner[o][v] = Some((ip as u8, iv as u8));
            router.own |= 1 << out_lane_bit;
            router.rr_grant[o][v] = ((ip + 1) % PORTS) as u8;
        }
        if flit.kind.is_tail() {
            router.owner[o][v] = None;
            router.own &= !(1 << out_lane_bit);
        }
        router.rr_vc[o] = ((v + 1) % VCS) as u8;
        if o != LOCAL {
            router.credits[o][v] -= 1;
        }
        let to_relay = router.feeds_relay >> out_lane_bit & 1 != 0;
        let from_relay = router.fed_by_relay >> in_lane_bit & 1 != 0;

        // Credit return to the upstream of the freed input slot.
        let input = *self.topo.link(r, ip);
        if ip == LOCAL {
            self.credits.push((NodeId(r as u16), LOCAL as u8, iv as u8));
        } else if from_relay {
            // The relay upstream spent this credit in its own relay cycle.
            self.relay[input.peer.index()].flags |= DRAINED;
        } else {
            debug_assert!(input.peer().is_some(), "input port implies neighbour");
            self.credits.push((input.peer, input.peer_port, iv as u8));
        }

        if armed {
            self.lane_counts[in_fifo].reads += 1;
        }

        if o == LOCAL {
            // Ejection into the NI sink. Packet bookkeeping (delivery
            // statistics and histograms, slot retirement) is deferred to
            // the cycle owner.
            if armed {
                self.ejects[r] += 1;
            }
            self.effects.push(Effect::Eject {
                packet: flit.packet,
                tail: flit.kind.is_tail(),
            });
            return;
        }

        let output = *self.topo.link(r, o);
        debug_assert!(output.peer().is_some(), "credit implies neighbour");
        if to_relay {
            self.relay_arrival(&output, v, flit);
        } else {
            self.arrivals
                .push((output.peer, output.peer_port, v as u8, flit));
        }

        // Source-router departure feedback (Eq. 6 inputs). A flit is
        // leaving its source exactly when it exits through a LOCAL
        // input lane (flits only ever enter LOCAL lanes at their
        // injection NI, and XY-then-vertical routing never revisits
        // the source), so transit flits skip the packet-table read.
        // The head/tail timestamps are deferred; the feedback itself
        // only needs reads that are stable within the cycle (the head
        // of a multi-flit packet departed in an *earlier* cycle, and
        // a single-flit packet's head departs right now).
        if ip == LOCAL && (flit.kind.is_head() || flit.kind.is_tail()) {
            self.effects.push(Effect::SrcDeparture {
                packet: flit.packet,
                head: flit.kind.is_head(),
                tail: flit.kind.is_tail(),
            });
            if flit.kind.is_tail() {
                let pkt = packets.get(flit.packet);
                debug_assert_eq!(
                    pkt.src,
                    NodeId(r as u16),
                    "LOCAL input lane implies source router"
                );
                if let Some(elevator) = pkt.elevator {
                    let head_departure = if flit.kind.is_head() {
                        cycle // single-flit packet: head departs now
                    } else {
                        pkt.head_out_src.unwrap_or(cycle)
                    };
                    self.feedbacks.push(SourceFeedback {
                        src: pkt.src,
                        elevator: elevator.id,
                        head_departure,
                        tail_departure: cycle,
                        packet_flits: pkt.flits,
                    });
                }
            }
        }
    }

    /// Verifies, at a cycle boundary, the derived bitmaps the one-pass
    /// kernel trusts instead of re-deriving: since phase 1 re-arms routers
    /// itself and injects from `src_bits`, no later rescan heals a missed
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, described.
    pub(crate) fn check_derived_state(&self) -> Result<(), String> {
        if self.work_bits.iter().any(|&w| w != 0) {
            return Err("stale visit-set bits".to_string());
        }
        for (r, router) in self.routers.iter().enumerate() {
            let queued = !self.sources[r].queue.is_empty();
            if bit(&self.src_bits, r) != queued {
                return Err(format!(
                    "router {r}: source bit {} but queue non-empty is {queued}",
                    bit(&self.src_bits, r)
                ));
            }
            if (router.buffered > 0 || queued) && !bit(&self.active_bits, r) {
                return Err(format!(
                    "router {r}: {} flits buffered, queued = {queued}, but off the worklist",
                    router.buffered
                ));
            }
            for p in 0..PORTS {
                for v in 0..VCS {
                    let lane_bit = 1 << local_lane(p, v);
                    let occupied = !self.fifos.is_empty(arena_lane(r, local_lane(p, v)));
                    if (router.occ & lane_bit != 0) != occupied {
                        return Err(format!(
                            "router {r} lane ({p}, {v}): occ bit disagrees with FIFO \
                             occupancy {occupied}"
                        ));
                    }
                    let owned = router.owner[p][v].is_some();
                    if (router.own & lane_bit != 0) != owned {
                        return Err(format!(
                            "router {r} channel ({p}, {v}): own bit disagrees with owner \
                             {:?}",
                            router.owner[p][v]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Heap capacity (in elements) reserved by the cycle state — the
    /// zero-allocation contract's sum.
    pub(crate) fn heap_footprint(&self) -> usize {
        self.fifos.capacity_flits()
            + self.arrivals.capacity()
            + self.credits.capacity()
            + self.active_bits.capacity()
            + self.work_bits.capacity()
            + self.src_bits.capacity()
            + self.effects.capacity()
            + self.feedbacks.capacity()
            + self.lane_counts.capacity()
            + self.ejects.capacity()
            + self.relay.capacity()
            + self.relay_bits.capacity()
            + self.awake.capacity()
            + self.unsettled.capacity()
            + self.streamed.capacity()
            + self
                .sources
                .iter()
                .map(|s| s.queue.capacity())
                .sum::<usize>()
    }

    /// Folds the committed state into `h` (FNV-1a) in ascending router
    /// order with a fixed per-router field order.
    pub(crate) fn hash_state(&self, h: &mut u64) {
        #[inline]
        fn mix(h: &mut u64, v: u64) {
            *h ^= v;
            *h = h.wrapping_mul(0x0100_0000_01b3);
        }
        for (r, router) in self.routers.iter().enumerate() {
            mix(h, u64::from(router.occ));
            mix(h, u64::from(router.own));
            for &b in &router.req_cache {
                mix(h, u64::from(b));
            }
            for p in 0..PORTS {
                for v in 0..VCS {
                    mix(
                        h,
                        match router.owner[p][v] {
                            None => u64::MAX,
                            Some((ip, iv)) => (u64::from(ip) << 8) | u64::from(iv),
                        },
                    );
                    mix(h, u64::from(router.credits[p][v]));
                    mix(h, u64::from(router.rr_grant[p][v]));
                    let at = arena_lane(r, local_lane(p, v));
                    mix(h, self.fifos.len(at) as u64);
                    if let Some(front) = self.fifos.front(at) {
                        mix(h, u64::from(front.packet.slot()));
                        mix(h, u64::from(front.packet.generation()));
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
            let sq = &self.sources[r];
            mix(h, sq.queue.len() as u64);
            for &pid in &sq.queue {
                mix(h, u64::from(pid.slot()));
                mix(h, u64::from(pid.generation()));
            }
            mix(h, u64::from(sq.sent));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Kernel {
        pub(crate) fn relay_count(&self) -> usize {
            self.relay_count
        }

        /// Stages `flit` into input lane `(node, port, vc)`, as its
        /// upstream's send would, for the next [`Self::commit`].
        pub(crate) fn stage_arrival(&mut self, node: NodeId, port: usize, vc: usize, flit: Flit) {
            self.arrivals.push((node, port as u8, vc as u8, flit));
        }

        /// Verifies, at a cycle boundary, what every relay cycle relies on
        /// (module docs): the relay's own state is what a relay cycle
        /// leaves as it found, its neighbours carry its marks, and a relay
        /// off the awake list nets out with relay neighbours and injects
        /// nothing.
        pub(crate) fn check_relays(&self) -> Result<(), String> {
            if !self.unsettled.is_empty() || !self.streamed.is_empty() {
                return Err("relays left unresolved".to_string());
            }
            let marks =
                |m: fn(&RouterState) -> u32| self.routers.iter().map(|r| m(r).count_ones()).sum();
            let bits: u32 = self.relay_bits.iter().map(|w| w.count_ones()).sum();
            let marked = [marks(|r| r.feeds_relay), marks(|r| r.fed_by_relay), bits];
            if marked != [self.relay_count as u32; 3] {
                return Err("relay marks are off".to_string());
            }
            for (r, rec) in self
                .relay
                .iter()
                .enumerate()
                .filter(|(_, rec)| rec.lane != 0)
            {
                if !bit(&self.relay_bits, r) {
                    return Err(format!("router {r}: relay off the relay bitmap"));
                }
                // Everything a relay cycle leaves as it found (module docs);
                // a relay asleep nets out with relay neighbours and injects
                // nothing.
                let (lane, out) = (usize::from(rec.lane), usize::from(rec.out));
                let (o, v) = (out / VCS, out % VCS);
                let (router, at) = (&self.routers[r], arena_lane(r, lane));
                let settled = self.relay[rec.up as usize].out == rec.up_out
                    && self.relay[rec.down as usize].lane == rec.down_lane
                    && self.sources[r].queue.is_empty();
                let awake = rec.flags & AWAKE != 0 && self.awake.contains(&(r as u32));
                let holds = (settled || awake)
                    && self.routers[rec.up as usize].feeds_relay >> rec.up_out & 1 == 1
                    && self.routers[rec.down as usize].fed_by_relay >> rec.down_lane & 1 == 1
                    && router.occ == 1 << lane
                    && self.fifos.len(at) == 1
                    && self
                        .fifos
                        .front(at)
                        .is_some_and(|f| f.kind == FlitKind::Body)
                    && router.owner[o][v] == Some(((lane / VCS) as u8, (lane % VCS) as u8))
                    && router.credits[o][v] > 0
                    && router.req_cache[lane] == REQ_UNKNOWN
                    && router.rr_vc[o] as usize == (v + 1) % VCS
                    && !router.quiet;
                if !holds {
                    return Err(format!(
                        "router {r}: relay of lane {lane} no longer qualifies"
                    ));
                }
            }
            Ok(())
        }
    }
}
