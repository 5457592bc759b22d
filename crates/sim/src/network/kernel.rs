//! The switching internals of [`Network`] — phase 1, the exchange and the
//! relay resolve — and why each shortcut they take leaves the same state
//! as the per-flit cycle the `network` module docs describe.
//!
//! # Why streaming one lane is state-identical to arbitrating it
//!
//! When exactly one input lane `L` of a router is occupied
//! (`occ.is_power_of_two()`), [`Network::stream_lane`] moves its front
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
//!   [`Network::front_request`] before either path decides, and a granted
//!   flit moves through the one [`Network::send`], which performs every
//!   `owner`/`own`/`rr_grant`/`rr_vc`/`credits`/`occ`/`req_cache` update,
//!   in the same cycle. A blocked lane writes nothing on either path.
//!
//! The choice between the paths is made from router state alone, per
//! router per cycle; no setting selects it.
//!
//! # Why a relay cycle is state-identical
//!
//! At a cycle boundary an input lane `L` of router `r` is a *relay* for
//! the next cycle when `L` holds exactly one `Body` flit, that flit's
//! packet owns an output channel `(o, v)` (with a credit unless `o` is
//! `Local`), its upstream feeds it (a router, or the NI for a `Local`
//! lane), and nothing else in `r` is an arbitration candidate for port
//! `o`: no other occupied lane owns a channel on `o`, and no other front
//! is a head asking for `o` on a free channel. `r` may hold other flits;
//! its relay lanes own distinct ports, so it has at most [`PORTS`]. The
//! per-flit cycle would certainly send that flit next cycle. A relay
//! cycle sends it without moving it. Its two neighbours are routers, or
//! its NI at either end of a worm: a *source relay* (`L` is `Local`) is
//! fed by the NI injecting the packet, a *sink relay* (`o` is `Local`) is
//! drained by the NI it ejects into.
//!
//! * *Port `o` has one candidate,* as on the streaming path: the grant
//!   scan over input ports and the VC scan over `o`'s channels each find
//!   only `L`, wherever `rr_grant` and `rr_vc` start, and `L`'s credit
//!   gate is open. `L` fronts a `Body`, which requests nothing, and owns
//!   only `(o, v)`, so it is a candidate for no other port; no other lane
//!   is one for `o`. Port `o`'s grant and every other port's therefore
//!   share nothing: `input_used` marks `L` for `o` alone, and only `o`'s
//!   grant writes `o`'s channels. Phase 1 arbitrates `r` with its relay
//!   lanes masked out of `occ` (their channels drop out of `out_mask`; a
//!   head asking for a relay's own channel is granted nothing either way),
//!   which leaves every other port's outcome as it is, the streaming path
//!   included when one lane is left. The masked
//!   arbitration skips `front_request` on `L`, whose `REQ_NONE` the send
//!   would overwrite, and the send itself, which nets out (next). The
//!   per-flit cycle moves `L`'s flit, so a router with a live relay lane
//!   counts as having moved and never goes `quiet`; arrivals and credits
//!   only ever clear the flag.
//! * *Net zero.* If the relay is *fed* (its upstream sends into `L`) and
//!   *drained* (its downstream pops the lane `(o, v)` feeds), the per-flit
//!   cycle pops `L`'s `Body` and pushes the next: the same `{packet,
//!   Body}`, as a flit carries no sequence number, and the credit it takes
//!   comes straight back. Every other write is idempotent, as only a lane
//!   that has just sent a flit on `(o, v)` is promoted: `req_cache[L]` is
//!   already [`REQ_UNKNOWN`], `rr_vc[o]` points past `v`,
//!   `owner`/`own`/`rr_grant` keep the wormhole, `quiet` stays false.
//! * *The NI ends.* A source relay's NI holds a credit (`L` holds one flit
//!   of a deeper FIFO) and the front packet's next flit is a `Body`, so the
//!   per-flit cycle injects it: the NI's credit goes out and comes back,
//!   and only `SourceQueue::sent` moves, by one per relay cycle. It is
//!   settled lazily from the fabric's clock of phase-1 passes (read
//!   through [`Network::sent`] until the relay demotes), and a timer wakes
//!   the relay on the clock its NI feeds the `Tail`, which replaces the
//!   relay's flit, pops the source queue and demotes it. Meanwhile the
//!   router's NI injects nothing else. A sink relay's ejection takes no
//!   credit, so it is always drained; the per-flit ejection of a `Body`
//!   books a read and an ejection and defers an [`Effect::Eject`] that
//!   `finish_cycle` ignores (only a `Tail` delivers a packet), so a sink
//!   relay books both lazily and defers nothing.
//! * *Fed and drained come from the relays at the start of the cycle.*
//!   Only [`Network::resolve_relays`] promotes and demotes. A relay
//!   upstream always sends and a relay downstream always pops, so a relay
//!   stages nothing toward a relay on the matching lane or channel: its
//!   own router's `fed_by_relay`/`feeds_relay` marks say which. Any other
//!   lane sees in the same marks that a send or a pop meets a relay, and
//!   sets the relay's flag instead of staging it (a `Tail` replaces the
//!   relay's flit), so the exchange never touches a relay lane or channel.
//!   Phase 1 visits only *awake* relays: next to a non-relay lane, just
//!   promoted, or fed a `Tail` by their NI. A worm streaming from its
//!   source to its sink keeps none awake. It skips a router whose occupied
//!   lanes are all relays and whose NI has nothing else to inject, until
//!   an arrival or an enqueue gives it other work.
//! * *The resolve* applies what did not net out: an unfed relay pops `L`,
//!   an undrained one spends the credit, a demoted source relay settles
//!   `sent`, and a demoted relay's router goes on the worklist if it
//!   holds a flit or a queued packet, as the per-flit cycle leaves it.
//!   Every relay left holds its flit and stays on the worklist.
//! * *What differs at a boundary:* a relay lane's ring head, which is
//!   unobservable (`hash_state` reads `len` and `front`), a source relay's
//!   `sent` (hashed through [`Network::sent`]), and the counter store. An
//!   armed relay cycle owes its lane, if fed, one write (a source relay's
//!   the NI's injection), and a sink relay its router one ejection,
//!   booked from the ledger's measured-cycle count at demotion and by
//!   [`Network::book_relays`], which the simulator runs before anyone
//!   reads the ledger. Its read needs no booking: the ledger derives reads
//!   from writes and lane occupancy, which a relay lane keeps at one flit
//!   (the `noc_energy` ledger module docs).
//! * *Fallbacks.* Everything else is the per-flit path. A relay demotes
//!   when not fed, not drained, fed a `Tail`, or when another lane of its
//!   router gets a front that could compete for `o`: an arrival into an
//!   empty lane (an NI injection included) or a pop that leaves a new
//!   front. The check runs where the front changes and routes a head with
//!   `route_step` without writing `req_cache`, which is hashed; its answer
//!   holds for the cycle, as `o`'s channels change only by `o`'s grants.
//!   Any lane that sent a flit other than a `Tail`, streamed or
//!   arbitrated, is a promotion candidate. The head and the `Tail` of a
//!   packet always move one flit at a time, so the only [`Effect`]s a
//!   relay skips are a sink's `Body` ejections.
//!
//! # Why the result is independent of exchange order
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
//! The exchange therefore lands the same state whatever order it applies
//! the staged effects in. For the same reason a router's sends and its NI
//! injection may be staged back to back in the one pass: neither reads
//! what the other writes.
//!
//! The only order-sensitive work of a cycle is what touches the shared
//! [`PacketTable`] and statistics (delivery bookkeeping, slot retirement,
//! departure feedback). Phase 1 *defers* those as [`Effect`]s, recorded in
//! ascending router order (the order it walks the worklist in), and the
//! owner of the cycle replays them in that order, so slot retirement order
//! (and with it every future [`PacketId`](crate::PacketId) assignment) is fixed.

use super::Network;
use crate::flit::{Flit, FlitKind};
use crate::table::{PacketTable, SlotQueue};
use adele::online::{Cycle, SourceFeedback};
use noc_energy::LinkMap;
use noc_topology::route::{self, VirtualNet};
use noc_topology::{Coord, Direction, NodeId};
use std::cmp::Reverse;

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

/// A relay lane's record (module docs) in the fabric's relay slab; a
/// free slot's lane is [`NO_LANE`]. Neighbours are read from the link
/// table when needed.
#[derive(Debug, Clone, Copy)]
pub(super) struct Relay {
    /// The measured cycle the relay's lane counters are booked up to, and
    /// the fabric clock at which a source relay's `SourceQueue::sent` was
    /// last settled: its NI has fed one flit per relay cycle since.
    booked: u64,
    since: u64,
    router: u32,
    /// The relay's lane and channel, and [`FED`] | [`DRAINED`] |
    /// [`DEMOTE`] | [`AWAKE`] | [`LISTED`].
    lane: u8,
    out: u8,
    flags: u8,
}

/// Lane sentinel of a free relay slot.
const NO_LANE: u8 = u8::MAX;

impl Relay {
    fn is_live(&self) -> bool {
        self.lane != NO_LANE
    }

    /// A source relay: its lane is `Local`, fed by its NI.
    fn at_source(&self) -> bool {
        usize::from(self.lane) < VCS
    }

    /// A sink relay: its channel is `Local`, drained by its NI.
    fn at_sink(&self) -> bool {
        usize::from(self.out) < VCS
    }
}

/// Relay flags: fed, drained, to demote, on next cycle's awake list, and
/// on the resolve's list.
const FED: u8 = 1;
const DRAINED: u8 = 2;
const DEMOTE: u8 = 4;
const AWAKE: u8 = 8;
const LISTED: u8 = 16;

/// A router's `Local` input lanes, bits [`local_lane`]`(LOCAL, v)`.
const LOCAL_LANES: u16 = (1 << VCS) - 1;

// A router's lanes and channels are the bits of a `u16` mask, and a lane
// index fits the owner byte below [`NO_OWNER`].
const _: () = assert!(PORTS * VCS <= 16);

/// Owner sentinel of an output channel no wormhole holds (lane indices
/// are < `PORTS × VCS`).
pub(crate) const NO_OWNER: u8 = u8::MAX;

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

/// Per-router switching state (flit storage lives in the fabric's arena).
#[derive(Debug, Clone)]
pub(crate) struct RouterState {
    /// Non-empty input lanes, bit [`local_lane`]`(port, vc)`. A pure
    /// cache of the arena's occupancy, maintained at every push/pop, so
    /// the per-cycle route-and-send pass iterates set bits instead of
    /// probing all `PORTS × VCS` FIFO fronts.
    pub(crate) occ: u16,
    /// Output channels with a live wormhole owner, bit
    /// [`local_lane`]`(port, vc)` — the same skip-the-scan trick for the
    /// owner table.
    pub(crate) own: u16,
    /// Cached routing decision for each input lane's front flit: an
    /// output-port index, [`REQ_NONE`] (front is not a routable head) or
    /// [`REQ_UNKNOWN`] (front changed since last computed). Routes are
    /// pure functions of the packet, so a blocked head no longer pays a
    /// packet-table read plus `route_step` every cycle it waits.
    pub(crate) req_cache: [u8; PORTS * VCS],
    /// Owner of each output channel `(port, vc)`: the [`local_lane`] of
    /// the input whose packet currently holds the wormhole, or
    /// [`NO_OWNER`].
    pub(crate) owner: [[u8; VCS]; PORTS],
    /// Credits towards the downstream FIFO of each output channel.
    pub(crate) credits: [[u8; VCS]; PORTS],
    /// Round-robin pointer over input ports for new grants, per channel.
    pub(crate) rr_grant: [[u8; VCS]; PORTS],
    /// Round-robin pointer over VCs, per output port.
    pub(crate) rr_vc: [u8; PORTS],
    /// Total buffered flits (for probe queries and worklist re-arming);
    /// at most `PORTS × VCS × 255`.
    pub(crate) buffered: u16,
    /// `true` while the router is provably stuck: its last arbitration
    /// moved nothing, and no arrival or credit has touched it since.
    /// Arbitration is a pure function of the router's own FIFOs, owners
    /// and credits (packet routes are immutable), so until one of those
    /// changes the outcome cannot either — the route-and-send pass skips
    /// the router for the cost of one flag read. Cleared by every arrival
    /// and credit commit.
    pub(crate) quiet: bool,
    /// Relay lanes, output channels feeding a relay lane and input lanes a
    /// relay feeds, bit [`local_lane`]`(port, vc)`: derived state kept by
    /// the resolve.
    relay_lanes: u16,
    feeds_relay: u16,
    fed_by_relay: u16,
}

// The switching record of every router stays within 76 bytes.
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<RouterState>() <= 76);

impl RouterState {
    pub(super) fn new(buffer_depth: u8, credit_mask: [bool; PORTS]) -> Self {
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
            owner: [[NO_OWNER; VCS]; PORTS],
            credits,
            rr_grant: [[0; VCS]; PORTS],
            rr_vc: [0; PORTS],
            buffered: 0,
            quiet: false,
            relay_lanes: 0,
            feeds_relay: 0,
            fed_by_relay: 0,
        }
    }
}

/// Per-node injection queue (unbounded source queue behind the NI),
/// linked through the packet table's slots.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceQueue {
    pub(crate) queue: SlotQueue,
    /// Flits of the front packet already pushed into the local port.
    pub(crate) sent: u16,
}

/// One `(node, port)` entry of the port table: everything a flit-hop
/// needs to know about the far end of a port, in one 4-byte load.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PortLink {
    /// The router reached through this port ([`PortLink::NO_PEER`] for
    /// the local port and for ports the fabric does not wire).
    peer: NodeId,
    /// The peer's port facing this one: its *input* port for flits sent
    /// through this port, and its *output* port for credits returned
    /// through it (mesh links are bidirectional).
    pub(crate) peer_port: u8,
}

impl PortLink {
    /// `Mesh3d` caps the node count at `u16::MAX`, so this id is never a
    /// router's.
    const NO_PEER: NodeId = NodeId(u16::MAX);

    /// The port table of `nodes` routers, `[node * PORTS + port]`,
    /// mirrored port for port from `map` so switching and telemetry can
    /// never disagree about which links exist.
    pub(crate) fn table(map: &LinkMap, nodes: usize) -> Vec<Self> {
        let mut links = Vec::with_capacity(nodes * PORTS);
        for node in 0..nodes {
            for dir in Direction::ALL {
                links.push(PortLink {
                    peer: map
                        .neighbour(NodeId(node as u16), dir)
                        .unwrap_or(PortLink::NO_PEER),
                    peer_port: dir.opposite().index() as u8,
                });
            }
        }
        links
    }

    /// The router at the far end, if the port is wired.
    pub(crate) fn peer(&self) -> Option<NodeId> {
        (self.peer != Self::NO_PEER).then_some(self.peer)
    }
}

/// Hop count of a packet's deterministic route (XY → elevator → XY, Eq. 4):
/// derived from the coordinates and the selected elevator instead of a
/// per-flit counter, so the hot path carries no extra packet state. A
/// packet carries an elevator exactly when it changes layer.
pub(crate) fn route_hops(coords: &[Coord], pkt: &crate::flit::Packet) -> u64 {
    let s = coords[pkt.src.index()];
    let d = coords[pkt.dst.index()];
    u64::from(route::route_length(s, d, pkt.elevator))
}

/// A packet-table/statistics side effect deferred out of phase 1,
/// replayed by the cycle owner in router order, which looks the flit's
/// packet up in the table.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Effect {
    /// A flit ejected into its destination NI (a tail ends the packet).
    Eject(Flit),
    /// A head and/or tail flit left its source router (single-flit
    /// packets depart as both at once).
    SrcDeparture(Flit),
}

/// A staged `(router, input port, vc, flit)` arrival.
pub(super) type Arrival = (NodeId, u8, u8, Flit);

// A staged arrival is two words in release builds.
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<Arrival>() == 8);

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

impl Network {
    /// The link record of `(node, port)`.
    #[inline]
    pub(super) fn link(&self, node: usize, port: usize) -> PortLink {
        self.links[node * PORTS + port]
    }

    /// Phase 1 of the cycle, one pass over the worklist: per visited
    /// router, route & send, then NI injection if its source queue is
    /// non-empty, then its next-cycle worklist bit. Only reads the packet
    /// table; every effect on another router or the NI is staged
    /// (arrivals, credits, deferred [`Effect`]s).
    pub(crate) fn phase1(&mut self, packets: &PacketTable, cycle: Cycle, armed: bool) {
        // The window's first measured cycle opens the ledger on the lanes'
        // occupancies (its reads are derived from them), and the first
        // unmeasured one closes it if nobody did at the disarm: nothing
        // has moved since that boundary.
        if armed {
            if !self.ledger.is_open() {
                self.ledger.open(self.fifos.lens());
            }
            self.ledger.on_cycle();
        } else if self.ledger.is_open() {
            self.close_ledger();
        }

        // Take this cycle's worklist bitmap; `active_bits` (all zero: the
        // previous pass consumed every word) accumulates next cycle's.
        std::mem::swap(&mut self.active_bits, &mut self.work_bits);

        // Awake relays first, those a timer wakes included; the others
        // have nothing to do (module docs).
        self.clock += 1;
        while let Some(&Reverse(timer)) = self.timers.peek() {
            if timer >> 16 > self.clock {
                break;
            }
            self.timers.pop();
            let r = (timer & 0xFFFF) as usize;
            self.timed[r / 64] &= !(1 << (r % 64));
            if let Some(i) = self.source_relay(r) {
                self.wake(i);
            }
        }
        self.progress = self.relay_count > 0;
        while let Some(i) = self.awake.pop() {
            self.relay_cycle(i as usize, packets);
        }

        for w in 0..self.work_bits.len() {
            let mut bits = std::mem::take(&mut self.work_bits[w]) & !self.relay_bits[w];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits ^= bit;
                let router = &self.routers[r];
                // Arbitration skips the relay lanes (module docs). A router
                // only queued at its source NI has nothing to switch; a
                // quiet one is provably stuck since its last arbitration.
                let (lanes, relays) = (router.occ & !router.relay_lanes, router.relay_lanes);
                if lanes != 0 && !router.quiet {
                    let moved = self.process_router(r, lanes, packets, cycle, armed);
                    self.progress |= moved;
                    // A fruitless arbitration stays fruitless until an
                    // arrival or credit changes the router's inputs; a
                    // relay lane moves every cycle.
                    self.routers[r].quiet = !moved && relays == 0;
                }
                // A source relay's NI feeds it in its relay cycle.
                let queued = self.src_bits[w] & bit != 0;
                if queued && relays & LOCAL_LANES == 0 {
                    self.inject(r, packets);
                }
                // Re-arm while flits stay buffered (quiet routers
                // included) or packets stay queued; everything else goes
                // idle and costs nothing until an arrival commit or an
                // enqueue sets its bit again. A router left with relay
                // lanes only is skipped, and re-armed by the resolve.
                let router = &self.routers[r];
                let queued = self.src_bits[w] & bit != 0;
                if relays != 0 && router.occ == relays && (!queued || relays & LOCAL_LANES != 0) {
                    self.relay_bits[w] |= bit;
                } else if router.buffered > 0 || queued {
                    self.active_bits[w] |= bit;
                }
            }
        }
    }

    /// Phase 1 of awake relay `i` (module docs): the send, flagged
    /// against its relay neighbours (an NI neighbour always feeds or
    /// drains it), then its NI's feed at a source.
    fn relay_cycle(&mut self, i: usize, packets: &PacketTable) {
        let rec = self.relays[i];
        if !rec.is_live() {
            self.relays[i].flags = 0; // demoted since it was woken
            return;
        }
        let (r, lane, out) = (
            rec.router as usize,
            usize::from(rec.lane),
            usize::from(rec.out),
        );
        let router = &self.routers[r];
        let fed = rec.at_source() || router.fed_by_relay >> lane & 1 != 0;
        let drained = rec.at_sink() || router.feeds_relay >> out & 1 != 0;
        self.relays[i].flags = if fed { FED } else { 0 } | if drained { DRAINED } else { 0 };
        if !(fed && drained) {
            self.list(i);
        }
        if !fed {
            let input = self.link(r, lane / VCS);
            self.credits
                .push((input.peer, input.peer_port, (lane % VCS) as u8));
        }
        if !drained {
            let output = self.link(r, out / VCS);
            let flit = (self.fifos.front(arena_lane(r, lane))).expect("a relay holds a flit");
            let arrival = (output.peer, output.peer_port, (out % VCS) as u8, flit);
            self.arrivals.push(arrival);
        }
        if rec.at_source() {
            self.feed_source_relay(i, packets);
        }
    }

    /// The NI's side of source relay `i`'s cycle: it has fed a `Body`
    /// every relay cycle since `since`, and feeds the `Tail` on the clock
    /// its timer is set to. The `Tail` replaces the relay's flit, ends
    /// the packet's injection and demotes the relay.
    fn feed_source_relay(&mut self, i: usize, packets: &PacketTable) {
        let r = self.relays[i].router as usize;
        let sent = self.sent(r);
        let sq = &mut self.sources[r];
        let packet = packets
            .front(&sq.queue)
            .expect("a source relay's NI injects");
        let flits = packets.get(packet).flits;
        if sent < flits {
            self.set_timer(r, self.clock + u64::from(flits - sent));
            return;
        }
        debug_assert_eq!(sent, flits, "the timer fires on the Tail's clock");
        packets.dequeue(&mut sq.queue);
        sq.sent = 0;
        self.queued_total -= 1;
        if sq.queue.is_empty() {
            self.src_bits[r / 64] &= !(1 << (r % 64));
        }
        let at = arena_lane(r, self.relays[i].lane.into());
        self.fifos.pop_front(at);
        let kind = FlitKind::Tail;
        self.fifos.push_back(at, Flit::new(packet, kind));
        self.relays[i].since = self.clock;
        self.demote(i);
    }

    /// Wakes router `r` on clock `at`, unless a timer already set wakes
    /// it no later (it then runs [`Self::feed_source_relay`], which sets
    /// this one again).
    fn set_timer(&mut self, r: usize, at: u64) {
        if !bit(&self.timed, r) {
            self.timed[r / 64] |= 1 << (r % 64);
            self.timers.push(Reverse(at << 16 | r as u64));
        }
    }

    /// The slot of router `r`'s source relay, if it has one.
    fn source_relay(&self, r: usize) -> Option<usize> {
        let lanes = self.routers[r].relay_lanes & LOCAL_LANES;
        (lanes != 0).then(|| self.slot(r, lanes.trailing_zeros() as usize))
    }

    /// The slot of relay lane `lane` of router `r`.
    fn slot(&self, r: usize, lane: usize) -> usize {
        self.relay_of[arena_lane(r, lane)] as usize
    }

    /// The slot of the relay lane of router `r` that owns channel `out`.
    fn channel_relay(&self, r: usize, out: usize) -> usize {
        let owner = self.routers[r].owner[out / VCS][out % VCS];
        debug_assert_ne!(owner, NO_OWNER, "a relay owns its channel");
        self.slot(r, owner.into())
    }

    /// Flits of router `r`'s front packet its NI has fed: a source
    /// relay's `sent` lags by the relay cycles since it was settled.
    pub(super) fn sent(&self, r: usize) -> u16 {
        let lag = self
            .source_relay(r)
            .map_or(0, |i| self.clock - self.relays[i].since);
        self.sources[r].sent + lag as u16
    }

    /// Takes a send over `link` on `vc` into the relay lane it feeds, in
    /// place of the flit the relay sent; its write is the relay's.
    #[inline(never)]
    fn relay_arrival(&mut self, link: &PortLink, vc: usize, flit: Flit) {
        let (down, lane) = (link.peer.index(), local_lane(link.peer_port.into(), vc));
        let i = self.slot(down, lane);
        self.relays[i].flags |= FED;
        if flit.kind().is_tail() {
            self.relays[i].flags |= DEMOTE;
            let at = arena_lane(down, lane);
            self.fifos.pop_front(at);
            self.fifos.push_back(at, flit);
        }
    }

    /// Puts relay `i`, if live, on next cycle's awake list.
    fn wake(&mut self, i: usize) {
        let rec = &mut self.relays[i];
        if rec.is_live() && rec.flags & AWAKE == 0 {
            rec.flags |= AWAKE;
            self.awake.push(i as u32);
        }
    }

    /// Puts relay `i` on the resolve's list, once.
    fn list(&mut self, i: usize) {
        let rec = &mut self.relays[i];
        if rec.flags & LISTED == 0 {
            rec.flags |= LISTED;
            self.unsettled.push(i as u32);
        }
    }

    /// Flags relay `i` for demotion at the resolve.
    fn demote(&mut self, i: usize) {
        self.relays[i].flags |= DEMOTE;
        self.list(i);
    }

    /// NI injection at router `r`, whose source queue is non-empty:
    /// stages the front packet's next flit into the local input port if
    /// the NI holds a credit for its VC.
    #[inline(always)]
    fn inject(&mut self, r: usize, packets: &PacketTable) {
        let pid =
            (packets.front(&self.sources[r].queue)).expect("source bit implies a queued packet");
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
            Flit::new(pid, kind),
        ));
        let sq = &mut self.sources[r];
        sq.sent += 1;
        if sq.sent == pkt.flits {
            packets.dequeue(&mut sq.queue);
            sq.sent = 0;
            self.queued_total -= 1;
            if sq.queue.is_empty() {
                self.src_bits[r / 64] &= !(1 << (r % 64));
            }
        }
        self.progress = true;
    }

    /// The exchange: lands the staged flit arrivals and credit returns
    /// (the NI's included), draining them in place, then resolves the
    /// relays. The staged effects of one cycle touch disjoint
    /// lanes and channels (see the module docs), so their order is
    /// immaterial.
    pub(crate) fn exchange(&mut self, packets: &PacketTable, armed: bool) {
        for k in 0..self.arrivals.len() {
            let (node, port, vc, flit) = self.arrivals[k];
            let r = node.index();
            let lane = local_lane(port.into(), vc.into());
            let at = arena_lane(r, lane);
            debug_assert!(
                self.fifos.len(at) < self.buffer_depth as usize,
                "credit protocol violated: FIFO overflow at {node}"
            );
            self.fifos.push_back(at, flit);
            let router = &mut self.routers[r];
            let fresh = router.occ & (1 << lane) == 0;
            if fresh {
                // The lane was empty: this flit is its new front.
                router.occ |= 1 << lane;
                router.req_cache[lane] = REQ_UNKNOWN;
            }
            router.buffered += 1;
            router.quiet = false;
            self.buffered_total += 1;
            if armed {
                self.ledger.on_write(at);
            }
            // An arrival is next cycle's work wherever it lands.
            self.active_bits[r / 64] |= 1 << (r % 64);
            if fresh && self.routers[r].relay_lanes != 0 {
                self.disturb(r, lane, packets);
            }
        }
        self.arrivals.clear();
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
            debug_assert!(*c <= self.buffer_depth, "credit overflow at {node}");
        }
        self.resolve_relays(packets, armed);
    }

    /// Ends the cycle's relays (module docs): demotes those not fed, not
    /// drained or disturbed, applying and booking what did not net out, and
    /// promotes the candidates that qualify.
    fn resolve_relays(&mut self, packets: &PacketTable, armed: bool) {
        // Phase 1 keeps the routers it skipped off the worklist, so a bit
        // there is an arrival the exchange landed in another of their lanes:
        // next cycle visits them. Every relay goes back on the worklist, as
        // its lane is refilled.
        for w in 0..self.relay_bits.len() {
            let skipped = self.relay_bits[w];
            self.relay_bits[w] &= !self.active_bits[w];
            self.active_bits[w] |= skipped;
        }
        while let Some(i) = self.unsettled.pop() {
            let i = i as usize;
            self.relays[i].flags &= !LISTED;
            if self.relays[i].flags & !AWAKE == FED | DRAINED {
                // Kept: next to a non-relay, it has work.
                self.wake(i);
            } else {
                self.retire(i, armed);
            }
        }
        while let Some((r, lane, out)) = self.streamed.pop() {
            self.promote_relay(r as usize, lane.into(), out.into(), packets);
        }
    }

    /// Demotes relay `i`: applies what its cycle did not net out (an unfed
    /// relay pops its lane, an undrained one spends the credit, a source
    /// relay settles `sent`), books what it owes and frees its slot.
    fn retire(&mut self, i: usize, armed: bool) {
        let rec = self.relays[i];
        let (r, lane, out) = (
            rec.router as usize,
            usize::from(rec.lane),
            usize::from(rec.out),
        );
        if rec.at_source() {
            self.sources[r].sent += (self.clock - rec.since) as u16;
        }
        // A slot still on the awake list keeps its flag, so a relay
        // promoted into it is not listed twice.
        self.relays[i] = Relay {
            lane: NO_LANE,
            flags: rec.flags & AWAKE,
            ..rec
        };
        self.free.push(i as u32);
        self.relay_count -= 1;
        // Its relay neighbours lose one: their marks go, and they wake.
        let router = &self.routers[r];
        let (relay_up, relay_down) = (
            router.fed_by_relay >> lane & 1,
            router.feeds_relay >> out & 1,
        );
        if !rec.at_source() {
            let input = self.link(r, lane / VCS);
            let (up, up_out) = (
                input.peer.index(),
                local_lane(input.peer_port.into(), lane % VCS),
            );
            self.routers[up].feeds_relay &= !(1 << up_out);
            if relay_up != 0 {
                self.wake(self.channel_relay(up, up_out));
            }
        }
        if !rec.at_sink() {
            let output = self.link(r, out / VCS);
            let (down, down_lane) = (
                output.peer.index(),
                local_lane(output.peer_port.into(), out % VCS),
            );
            self.routers[down].fed_by_relay &= !(1 << down_lane);
            if relay_down != 0 {
                self.wake(self.slot(down, down_lane));
            }
        }
        let (at, fed) = (arena_lane(r, lane), rec.flags & FED != 0);
        self.book(r, &rec, u64::from(armed && !fed));
        let router = &mut self.routers[r];
        router.relay_lanes &= !(1 << lane);
        if !fed {
            // The pop the relay cycle owed: the lane empties.
            self.fifos.pop_front(at);
            self.buffered_total -= 1;
            router.buffered -= 1;
            router.occ &= !(1 << lane);
        }
        router.credits[out / VCS][out % VCS] -= u8::from(rec.flags & DRAINED == 0);
        // Next cycle visits the router if it holds a flit or a queued
        // packet, as the per-flit cycle leaves it.
        let (w, bit) = (r / 64, 1u64 << (r % 64));
        self.relay_bits[w] &= !bit;
        if router.buffered > 0 || self.src_bits[w] & bit != 0 {
            self.active_bits[w] |= bit;
        } else {
            self.active_bits[w] &= !bit;
        }
    }

    /// Books what relay `rec` of router `r` owes the ledger since it was
    /// last booked: per measured cycle one write of its lane (`unfed`
    /// fewer) and, at a sink, one ejection.
    fn book(&mut self, r: usize, rec: &Relay, unfed: u64) {
        let owed = self.ledger.cycles() - rec.booked;
        let at = arena_lane(r, rec.lane.into());
        self.ledger.add_writes(at, owed - unfed);
        if rec.at_sink() {
            self.ledger.add_ejections(r, owed);
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.pops[at] += owed;
        }
    }

    /// Books what every relay owes its lane counters (all its cycles so
    /// far were fed, since it is still a relay) and settles the ledger's
    /// reads at the lanes' occupancies. After this the ledger is complete
    /// at this cycle boundary; booking again adds nothing.
    pub(crate) fn book_relays(&mut self) {
        self.book_relay_debts();
        self.ledger.settle(self.fifos.lens());
        self.audit_reads();
    }

    /// Closes the measurement window: books the relays and settles the
    /// ledger one last time, which freezes it until the next window opens.
    pub(crate) fn close_ledger(&mut self) {
        self.book_relay_debts();
        self.ledger.close(self.fifos.lens());
        self.audit_reads();
    }

    /// The writes and ejections every live relay owes the ledger.
    fn book_relay_debts(&mut self) {
        let now = self.ledger.cycles();
        for i in 0..self.relays.len() {
            let rec = self.relays[i];
            if rec.is_live() {
                self.book(rec.router as usize, &rec, 0);
                self.relays[i].booked = now;
            }
        }
    }

    /// Zeroes the ledger for a new measurement window, dropping what the
    /// relays owed the old one.
    pub(crate) fn reset_ledger(&mut self) {
        self.ledger.reset();
        for rec in &mut self.relays {
            rec.booked = 0;
        }
        #[cfg(any(test, feature = "audit"))]
        self.pops.fill(0);
    }

    /// Checks, lane for lane, the ledger's derived reads against the pop
    /// tally (test builds only).
    fn audit_reads(&self) {
        #[cfg(any(test, feature = "audit"))]
        if let Err(why) = self.check_reads() {
            panic!("{why}");
        }
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
        let request = self.route_front(r, b, packets);
        self.routers[r].req_cache[b] = request;
        request
    }

    /// [`Self::front_request`] without the cache write.
    fn peek_request(&self, r: usize, b: usize, packets: &PacketTable) -> u8 {
        match self.routers[r].req_cache[b] {
            REQ_UNKNOWN => self.route_front(r, b, packets),
            cached => cached,
        }
    }

    /// The output port the front of occupied lane `b` of router `r`
    /// requests, or [`REQ_NONE`] if it is not a routable head.
    fn route_front(&self, r: usize, b: usize, packets: &PacketTable) -> u8 {
        let front = self
            .fifos
            .front(arena_lane(r, b))
            .expect("occ bit implies a flit");
        if !front.kind().is_head() {
            return REQ_NONE;
        }
        let pkt = packets.packet_of(front);
        if pkt.vnet.index() != b % VCS {
            return REQ_NONE;
        }
        let (here, there) = (self.coords[r], self.coords[pkt.dst.index()]);
        route::route_step(here, there, pkt.elevator).index() as u8
    }

    /// The output port occupied lane `b` of router `r` is an arbitration
    /// candidate for: the port of the channel its packet owns, else the
    /// port its head requests if that head's channel is free.
    fn claim(&self, r: usize, b: usize, packets: &PacketTable) -> Option<usize> {
        let router = &self.routers[r];
        let mut own_bits = router.own;
        while own_bits != 0 {
            let c = own_bits.trailing_zeros() as usize;
            own_bits &= own_bits - 1;
            if usize::from(router.owner[c / VCS][c % VCS]) == b {
                return Some(c / VCS);
            }
        }
        let o = usize::from(self.peek_request(r, b, packets));
        (o < PORTS && router.owner[o][b % VCS] == NO_OWNER).then_some(o)
    }

    /// The relay lane of router `r` whose channel is on port `o`, if any
    /// (a router's relay lanes own distinct ports).
    fn relay_on_port(&self, r: usize, o: usize) -> Option<usize> {
        let router = &self.routers[r];
        (router.owner[o].iter())
            .filter(|&&l| l != NO_OWNER)
            .map(|&l| usize::from(l))
            .find(|&l| router.relay_lanes >> l & 1 != 0)
    }

    /// Lane `b` of router `r`, which has relay lanes, has a new front: a
    /// relay whose port it could now compete for demotes (module docs).
    #[inline(never)]
    fn disturb(&mut self, r: usize, b: usize, packets: &PacketTable) {
        let Some(o) = self.claim(r, b, packets) else {
            return;
        };
        if let Some(lane) = self.relay_on_port(r, o) {
            self.demote(self.slot(r, lane));
        }
    }

    /// Routes & sends for one active router among its occupied input
    /// lanes `occ` (its relay lanes masked out). With a single one there is
    /// nothing to arbitrate ([`Self::stream_lane`]); otherwise computes,
    /// once, which output each buffered head flit requests and arbitrates
    /// only the output ports that have a requesting head or a live wormhole
    /// with buffered flits.
    fn process_router(
        &mut self,
        r: usize,
        occ: u16,
        packets: &PacketTable,
        cycle: Cycle,
        armed: bool,
    ) -> bool {
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
            let owner = self.routers[r].owner[o][v];
            debug_assert_ne!(owner, NO_OWNER, "own bit implies an owner");
            if occ & (1 << owner) != 0 {
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
            let lanes = (occ, &head_request, &input_used);
            if let Some(grant) = self.arbitrate(r, o, vc_mask[o], lanes) {
                input_used[grant.ip][grant.iv] = true;
                self.send(r, o, grant, packets, cycle, armed);
                progress = true;
            }
        }
        progress
    }

    /// The streaming path: input lane `b` is the router's only occupied
    /// lane but its relay lanes, so at most one output channel can be requested or
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
            if router.owner[request as usize][iv] != NO_OWNER {
                return false;
            }
            (request as usize, iv, true)
        } else {
            // Mid-wormhole: the flit follows the channel its head took.
            let mut own_bits = router.own;
            loop {
                if own_bits == 0 {
                    return false;
                }
                let c = own_bits.trailing_zeros() as usize;
                own_bits &= own_bits - 1;
                if usize::from(router.owner[c / VCS][c % VCS]) == b {
                    break (c / VCS, c % VCS, false);
                }
            }
        };
        if o != LOCAL && router.credits[o][v] == 0 {
            return false;
        }
        let grant = Grant { v, ip, iv, is_new };
        self.send(r, o, grant, packets, cycle, armed);
        true
    }

    /// Makes lane `lane` of router `r`, which sent on channel `out` this
    /// cycle, a relay if it now qualifies (module docs).
    fn promote_relay(&mut self, r: usize, lane: usize, out: usize, packets: &PacketTable) {
        let at = arena_lane(r, lane);
        let (router, o, v) = (&self.routers[r], out / VCS, out % VCS);
        // A `Body` behind the flit just sent is the same packet's, which
        // keeps the channel; behind a backed-up lane it would not last.
        let Some(front) = self.fifos.front(at) else {
            return;
        };
        let lone = self.promote && self.fifos.len(at) == 1;
        let credits = router.credits[o][v];
        let flowing = o == LOCAL || credits > 0 && credits + 1 >= self.buffer_depth;
        if !(lone && front.kind() == FlitKind::Body && flowing) {
            return;
        }
        let (source, sink) = (lane / VCS == LOCAL, o == LOCAL);
        // A source relay's NI feeds it: the `Body` is the front packet's,
        // and the NI holds a credit and has more than the `Tail` to feed.
        if source {
            let sq = &self.sources[r];
            debug_assert_eq!(packets.front(&sq.queue), Some(packets.id_of(front)));
            let flits = packets.packet_of(front).flits;
            if self.ni_credits[r][lane % VCS] == 0 || sq.sent + 1 >= flits {
                return;
            }
        }
        // Nothing else in the router may compete for the port.
        let mut others = router.occ & !(1 << lane);
        while others != 0 {
            let b = others.trailing_zeros() as usize;
            others &= others - 1;
            if self.claim(r, b, packets) == Some(o) {
                return;
            }
        }
        let rec = Relay {
            booked: self.ledger.cycles(),
            since: self.clock,
            router: r as u32,
            lane: lane as u8,
            out: out as u8,
            flags: 0,
        };
        let i = match self.free.pop() {
            Some(i) => {
                let i = i as usize;
                // Still on the awake list if its last relay was woken.
                let flags = self.relays[i].flags & AWAKE;
                self.relays[i] = Relay { flags, ..rec };
                i
            }
            None => {
                self.relays.push(rec);
                self.relays.len() - 1
            }
        };
        self.relay_of[at] = i as u32;
        self.relay_count += 1;
        if !source {
            let input = self.link(r, lane / VCS);
            let up_out = local_lane(input.peer_port.into(), lane % VCS);
            self.routers[input.peer.index()].feeds_relay |= 1 << up_out;
        }
        if !sink {
            let output = self.link(r, o);
            let down_lane = local_lane(output.peer_port.into(), v);
            self.routers[output.peer.index()].fed_by_relay |= 1 << down_lane;
        }
        let router = &mut self.routers[r];
        router.relay_lanes |= 1 << lane;
        // Phase 1 skips a router holding relay lanes only.
        let relays = router.relay_lanes;
        if router.occ == relays && (relays & LOCAL_LANES != 0 || !bit(&self.src_bits, r)) {
            self.relay_bits[r / 64] |= 1 << (r % 64);
        }
        self.wake(i);
    }

    /// Arbitrates one output port of one router among several occupied
    /// input lanes: picks (at most) one `(input lane, VC)` to send this
    /// cycle. Reads state only; [`Self::send`] applies the grant.
    fn arbitrate(
        &self,
        r: usize,
        o: usize,
        vc_mask: u8,
        (occ, head_request, input_used): (u16, &[[u8; VCS]; PORTS], &[[bool; VCS]; PORTS]),
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
            let owner = router.owner[o][v];
            if owner != NO_OWNER {
                let (ip, iv) = (usize::from(owner) / VCS, usize::from(owner) % VCS);
                if input_used[ip][iv] {
                    continue;
                }
                if occ & (1 << owner) != 0 {
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
        let disturbs = !emptied && router.relay_lanes != 0;
        let out_lane_bit = local_lane(o, v);
        if is_new {
            router.owner[o][v] = in_lane_bit as u8;
            router.own |= 1 << out_lane_bit;
            router.rr_grant[o][v] = ((ip + 1) % PORTS) as u8;
        }
        if flit.kind().is_tail() {
            router.owner[o][v] = NO_OWNER;
            router.own &= !(1 << out_lane_bit);
        }
        router.rr_vc[o] = ((v + 1) % VCS) as u8;
        if o != LOCAL {
            router.credits[o][v] -= 1;
        }
        let to_relay = router.feeds_relay >> out_lane_bit & 1 != 0;
        let from_relay = router.fed_by_relay >> in_lane_bit & 1 != 0;
        // A relay candidate if it sent no tail and the lane holds no
        // second flit.
        if !flit.kind().is_tail() && self.fifos.len(in_fifo) < 2 {
            let candidate = (r as u32, in_lane_bit as u8, out_lane_bit as u8);
            self.streamed.push(candidate);
        }
        if disturbs {
            self.disturb(r, in_lane_bit, packets);
        }

        // Credit return to the upstream of the freed input slot.
        let input = self.link(r, ip);
        if ip == LOCAL {
            self.credits.push((NodeId(r as u16), LOCAL as u8, iv as u8));
        } else if from_relay {
            // The relay upstream spent this credit in its own relay cycle.
            let up_out = local_lane(input.peer_port.into(), iv);
            let i = self.channel_relay(input.peer.index(), up_out);
            self.relays[i].flags |= DRAINED;
        } else {
            debug_assert!(input.peer().is_some(), "input port implies neighbour");
            self.credits.push((input.peer, input.peer_port, iv as u8));
        }

        #[cfg(any(test, feature = "audit"))]
        if armed {
            self.pops[in_fifo] += 1;
        }

        if o == LOCAL {
            // Ejection into the NI sink. Packet bookkeeping (delivery
            // statistics and histograms, slot retirement) is deferred to
            // the cycle owner.
            if armed {
                self.ledger.on_eject(r);
            }
            self.effects.push(Effect::Eject(flit));
            return;
        }

        let output = self.link(r, o);
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
        if ip == LOCAL && (flit.kind().is_head() || flit.kind().is_tail()) {
            self.effects.push(Effect::SrcDeparture(flit));
            if flit.kind().is_tail() {
                let pkt = packets.packet_of(flit);
                debug_assert_eq!(
                    pkt.src,
                    NodeId(r as u16),
                    "LOCAL input lane implies source router"
                );
                if let Some(elevator) = pkt.elevator {
                    let head_departure = if flit.kind().is_head() {
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
    /// phase 1 trusts instead of re-deriving: since it re-arms routers
    /// itself and injects from `src_bits`, no later rescan heals a missed
    /// bit.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant, described.
    pub(super) fn check_derived_state(&self) -> Result<(), String> {
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
                    let owned = router.owner[p][v] != NO_OWNER;
                    if (router.own & lane_bit != 0) != owned {
                        return Err(format!(
                            "router {r} channel ({p}, {v}): own bit disagrees with owner \
                             lane {}",
                            router.owner[p][v]
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(any(test, feature = "audit"))]
impl Network {
    /// Steps the per-flit engine only: no router is ever promoted to a
    /// relay (the relay oracle's reference side).
    pub(crate) fn disable_relays(&mut self) {
        self.promote = false;
    }

    /// Flits each input lane popped while armed since the last reset, in
    /// arena order: a send's pop, and one per relay cycle (booked with the
    /// relay's writes) — the per-flit engine's read count, tallied.
    pub(crate) fn pop_tally(&self) -> &[u64] {
        &self.pops
    }

    /// Verifies that the ledger's derived reads equal the pop tally on
    /// every lane.
    ///
    /// # Errors
    ///
    /// Returns the first lane that disagrees, described.
    pub(crate) fn check_reads(&self) -> Result<(), String> {
        for (r, coord) in self.coords.iter().enumerate() {
            for port in Direction::ALL {
                for vc in 0..VCS {
                    let reads = self.ledger.buffer_reads(NodeId(r as u16), port, vc);
                    let pops = self.pops[arena_lane(r, local_lane(port.index(), vc))];
                    if reads != pops {
                        return Err(format!(
                            "router {r} at {coord} lane ({port}, {vc}): derived reads {reads} \
                             != pop tally {pops}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Network {
        /// Relays at the current cycle boundary, i.e. the sends the next
        /// cycle makes as relay cycles.
        pub(crate) fn relay_count(&self) -> usize {
            self.relay_count
        }

        /// Stages `flit` into input lane `(node, port, vc)`, as its
        /// upstream's send would, for the next [`Self::exchange`].
        pub(crate) fn stage_arrival(&mut self, node: NodeId, port: usize, vc: usize, flit: Flit) {
            self.arrivals.push((node, port as u8, vc as u8, flit));
        }

        fn live_relays(&self) -> impl Iterator<Item = (usize, &Relay)> {
            (self.relays.iter().enumerate()).filter(|(_, rec)| rec.is_live())
        }

        /// Relays at the current cycle boundary fed by their NI and
        /// drained by it: the source and the sink relays.
        pub(crate) fn end_relay_counts(&self) -> (usize, usize) {
            self.live_relays().fold((0, 0), |(src, sink), (_, rec)| {
                (
                    src + usize::from(rec.at_source()),
                    sink + usize::from(rec.at_sink()),
                )
            })
        }

        /// Relay lanes at the current cycle boundary whose router holds
        /// flits in another lane, and those of them at NI ends.
        pub(crate) fn busy_relay_counts(&self) -> (usize, usize) {
            let busy = self
                .live_relays()
                .map(|(_, rec)| rec)
                .filter(|rec| self.routers[rec.router as usize].occ != 1 << rec.lane);
            busy.fold((0, 0), |(all, ends), rec| {
                (
                    all + 1,
                    ends + usize::from(rec.at_source() || rec.at_sink()),
                )
            })
        }

        /// Live relays at the current cycle boundary as `(router, lane,
        /// output port)`.
        pub(crate) fn relay_lanes(&self) -> Vec<(usize, usize, usize)> {
            let lanes = self.live_relays().map(|(_, rec)| {
                let (lane, out) = (usize::from(rec.lane), usize::from(rec.out));
                (rec.router as usize, lane, out / VCS)
            });
            lanes.collect()
        }

        /// Whether the front of an occupied non-relay lane of router `r`
        /// other than `lane` is a head asking for port `o` on a free
        /// channel.
        pub(crate) fn head_claims(
            &self,
            (r, lane, o): (usize, usize, usize),
            packets: &PacketTable,
        ) -> bool {
            let router = &self.routers[r];
            let lanes = router.occ & !router.relay_lanes & !(1 << lane);
            (0..PORTS * VCS).any(|b| {
                let head = self
                    .fifos
                    .front(arena_lane(r, b))
                    .is_some_and(|f| f.kind().is_head());
                lanes >> b & 1 != 0 && head && self.claim(r, b, packets) == Some(o)
            })
        }

        /// Relay lanes whose router holds other flits, none of which can
        /// move next cycle: a router the per-flit engine keeps from going
        /// quiet only by the relay's send.
        pub(crate) fn stuck_mate_count(&self, packets: &PacketTable) -> usize {
            let can_send = |r: usize, b: usize| {
                let router = &self.routers[r];
                let Some(p) = self.claim(r, b, packets) else {
                    return false;
                };
                let v = (0..VCS)
                    .find(|&v| usize::from(router.owner[p][v]) == b)
                    .unwrap_or(b % VCS);
                p == LOCAL || router.credits[p][v] > 0
            };
            let stuck = |rec: &Relay| {
                let r = rec.router as usize;
                let others = self.routers[r].occ & !self.routers[r].relay_lanes;
                others != 0 && (0..PORTS * VCS).all(|b| others >> b & 1 == 0 || !can_send(r, b))
            };
            self.live_relays().filter(|(_, rec)| stuck(rec)).count()
        }

        /// Relays the next cycle's phase 1 visits: the awake list plus
        /// the source relays whose timer fires.
        pub(crate) fn awake_relay_count(&self) -> usize {
            let next = self.clock + 1;
            let timed = (self.timers.iter())
                .filter(|Reverse(timer)| {
                    let r = (timer & 0xFFFF) as usize;
                    let asleep = self
                        .source_relay(r)
                        .map(|i| self.relays[i].flags & AWAKE == 0);
                    timer >> 16 <= next && asleep == Some(true)
                })
                .count();
            self.awake.len() + timed
        }

        /// The non-relay lanes the next cycle certainly sends a lone `Body`
        /// out of, uncontended (what a relay would carry), as `(arena lane,
        /// whether its router holds flits in another lane)`.
        pub(crate) fn lone_body_lanes(&self, packets: &PacketTable) -> Vec<(usize, bool)> {
            let mut lanes = Vec::new();
            for (r, router) in self.routers.iter().enumerate() {
                let mut own_bits = router.own;
                while own_bits != 0 {
                    let c = own_bits.trailing_zeros() as usize;
                    own_bits &= own_bits - 1;
                    let (o, v) = (c / VCS, c % VCS);
                    let lane = usize::from(router.owner[o][v]);
                    let at = arena_lane(r, lane);
                    let lone = self.fifos.len(at) == 1
                        && self.fifos.front(at).map(Flit::kind) == Some(FlitKind::Body);
                    let others = router.occ & !(1 << lane);
                    let free = (0..PORTS * VCS)
                        .filter(|b| others >> b & 1 != 0)
                        .all(|b| self.claim(r, b, packets) != Some(o));
                    if lone
                        && free
                        && (o == LOCAL || router.credits[o][v] > 0)
                        && router.relay_lanes >> lane & 1 == 0
                    {
                        lanes.push((at, others != 0));
                    }
                }
            }
            lanes
        }

        /// Verifies, at a cycle boundary, what every relay cycle relies on
        /// (module docs): the relay lane's state is what a relay cycle
        /// leaves as it found, nothing else in its router competes for its
        /// port, the masked arbitration leaves its router awake and on the
        /// worklist, its neighbours carry its marks, a relay off the awake
        /// list nets out with relay neighbours, and a source relay's NI can
        /// feed it and wakes it by the `Tail`'s clock.
        pub(crate) fn check_relays(&self, packets: &PacketTable) -> Result<(), String> {
            if !self.unsettled.is_empty() || !self.streamed.is_empty() {
                return Err("relays left unresolved".to_string());
            }
            let marks =
                |m: fn(&RouterState) -> u16| self.routers.iter().map(|r| m(r).count_ones()).sum();
            let live = self.live_relays().count() as u32;
            let marked = [
                marks(|r| r.feeds_relay),
                marks(|r| r.fed_by_relay),
                marks(|r| r.relay_lanes),
                live,
            ];
            let (sources, sinks) = self.end_relay_counts();
            let count = self.relay_count;
            if marked != [count - sources, count - sinks, count, count].map(|c| c as u32) {
                return Err("relay marks are off".to_string());
            }
            for (r, router) in self.routers.iter().enumerate() {
                let relays = router.relay_lanes;
                let queued = bit(&self.src_bits, r) && relays & LOCAL_LANES == 0;
                if bit(&self.relay_bits, r) && (relays == 0 || router.occ != relays || queued) {
                    return Err(format!("router {r}: skipped with other work"));
                }
            }
            for (i, rec) in self.live_relays() {
                let r = rec.router as usize;
                let (lane, out) = (usize::from(rec.lane), usize::from(rec.out));
                let (o, v) = (out / VCS, out % VCS);
                let (router, at) = (&self.routers[r], arena_lane(r, lane));
                if router.relay_lanes >> lane & 1 == 0 || self.slot(r, lane) != i {
                    return Err(format!("router {r}: relay of lane {lane} is not indexed"));
                }
                let Some(front) = self.fifos.front(at) else {
                    return Err(format!("router {r}: relay of lane {lane} is empty"));
                };
                let sq = &self.sources[r];
                let fed = router.fed_by_relay >> lane & 1 != 0;
                let (ni_feeds, settled) = if rec.at_source() {
                    // `left` flits for its NI to feed, the `Tail` last.
                    let left = packets.packet_of(front).flits.checked_sub(self.sent(r));
                    let timer = (self.timers.iter())
                        .find(|Reverse(timer)| timer & 0xFFFF == r as u64)
                        .map_or(0, |Reverse(timer)| timer >> 16);
                    let feeds = packets.front(&sq.queue) == Some(packets.id_of(front))
                        && self.ni_credits[r][lane] > 0
                        && left.is_some_and(|left| left > 0);
                    let tail_at = self.clock + u64::from(left.unwrap_or(0));
                    (feeds, self.clock < timer && timer <= tail_at)
                } else {
                    (true, fed)
                };
                let drained = rec.at_sink() || router.feeds_relay >> out & 1 != 0;
                let awake = rec.flags & AWAKE != 0 && self.awake.contains(&(i as u32));
                // Its relay neighbours' marks, and the relays they name.
                let input = self.link(r, lane / VCS);
                let output = self.link(r, o);
                let up_out = local_lane(input.peer_port.into(), lane % VCS);
                let down_lane = local_lane(output.peer_port.into(), v);
                let marked_up = rec.at_source()
                    || self.routers[input.peer.index()].feeds_relay >> up_out & 1 == 1;
                let marked_down = rec.at_sink()
                    || self.routers[output.peer.index()].fed_by_relay >> down_lane & 1 == 1;
                let up_relay = !fed || {
                    let up = &self.routers[input.peer.index()];
                    let owner = up.owner[up_out / VCS][up_out % VCS];
                    owner != NO_OWNER && up.relay_lanes >> owner & 1 == 1
                };
                let down_relay = !drained
                    || rec.at_sink()
                    || self.routers[output.peer.index()].relay_lanes >> down_lane & 1 == 1;
                // Nothing else in the router is a candidate for its port.
                let others = router.occ & !(1 << lane);
                let uncontended = (0..PORTS * VCS)
                    .filter(|b| others >> b & 1 != 0)
                    .all(|b| self.claim(r, b, packets) != Some(o));
                let holds = ni_feeds
                    && (settled && drained || awake)
                    && rec.flags & (LISTED | DEMOTE) == 0
                    && marked_up
                    && marked_down
                    && up_relay
                    && down_relay
                    && uncontended
                    && self.fifos.len(at) == 1
                    && front.kind() == FlitKind::Body
                    && usize::from(router.owner[o][v]) == lane
                    && (rec.at_sink() || router.credits[o][v] > 0)
                    && router.req_cache[lane] == REQ_UNKNOWN
                    && router.rr_vc[o] as usize == (v + 1) % VCS
                    && !router.quiet
                    && bit(&self.active_bits, r);
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
