//! Flits and packet bookkeeping.

use adele::online::Cycle;
use noc_topology::route::{ElevatorCoord, VirtualNet};
use noc_topology::NodeId;

/// Position of a flit within its packet. The discriminant is the kind's
/// two bits in a [`Flit`]: bit 0 opens a wormhole, bit 1 closes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FlitKind {
    /// First flit; carries routing information.
    Head = 0b01,
    /// Intermediate flit.
    Body = 0b00,
    /// Last flit; releases wormhole resources.
    Tail = 0b10,
    /// A single-flit packet (head and tail at once).
    Single = 0b11,
}

impl FlitKind {
    /// `true` for flits that open a wormhole (Head, Single).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::Single)
    }

    /// `true` for flits that close a wormhole (Tail, Single).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::Single)
    }

    /// The kind of flit number `seq` in a packet of `total` flits.
    #[must_use]
    pub fn for_position(seq: u16, total: u16) -> FlitKind {
        debug_assert!(total >= 1 && seq < total);
        match (seq, total) {
            (_, 1) => FlitKind::Single,
            (0, _) => FlitKind::Head,
            (s, t) if s + 1 == t => FlitKind::Tail,
            _ => FlitKind::Body,
        }
    }
}

/// Generation-tagged handle to a slot of the simulator's
/// [`PacketTable`](crate::PacketTable).
///
/// The slot index addresses dense storage; the generation distinguishes
/// successive packets that recycled the same slot. A retired handle can
/// therefore never alias the slot's next occupant: the table bumps the
/// slot generation on every insert and retire, and its accessors assert
/// (in debug builds) that a handle's generation matches the slot's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId {
    slot: u32,
    generation: u32,
}

impl PacketId {
    /// Builds a handle from its parts (the table is the usual author).
    #[must_use]
    pub const fn new(slot: u32, generation: u32) -> Self {
        Self { slot, generation }
    }

    /// The slot index as `usize`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.slot as usize
    }

    /// The raw slot index.
    #[must_use]
    pub const fn slot(self) -> u32 {
        self.slot
    }

    /// The generation the slot had when this handle was issued.
    #[must_use]
    pub const fn generation(self) -> u32 {
        self.generation
    }
}

/// One flit in a buffer or on a link: a single 32-bit word, the owning
/// packet's [`PacketTable`](crate::PacketTable) slot in the low 30 bits
/// and its [`FlitKind`] in the top 2. All per-packet state lives in the
/// packet table, which also supplies the slot's generation wherever a
/// [`PacketId`] is needed ([`PacketTable::id_of`](crate::PacketTable::id_of)):
/// a flit exists only while its packet is live, so the two generations
/// agree. Debug builds also carry the generation the flit was made under,
/// so a flit that outlived its packet trips the table's stale-handle
/// assertion.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    word: u32,
    #[cfg(debug_assertions)]
    generation: u32,
}

impl Flit {
    /// Packet slots a flit can address: 2^30.
    pub const SLOTS: u32 = 1 << 30;

    /// The flit of kind `kind` of packet `packet`.
    ///
    /// # Panics
    ///
    /// Panics if the packet's slot is 2^30 or more ([`Self::SLOTS`]).
    #[must_use]
    #[inline]
    pub const fn new(packet: PacketId, kind: FlitKind) -> Self {
        assert!(
            packet.slot() < Self::SLOTS,
            "a flit addresses at most 2^30 packet slots"
        );
        Self {
            word: packet.slot() | (kind as u32) << 30,
            #[cfg(debug_assertions)]
            generation: packet.generation(),
        }
    }

    /// The owning packet's slot in the packet table.
    #[must_use]
    #[inline]
    pub const fn slot(self) -> u32 {
        self.word & (Self::SLOTS - 1)
    }

    /// Head/Body/Tail/Single.
    #[must_use]
    #[inline]
    pub const fn kind(self) -> FlitKind {
        match self.word >> 30 {
            0 => FlitKind::Body,
            1 => FlitKind::Head,
            2 => FlitKind::Tail,
            _ => FlitKind::Single,
        }
    }

    /// The generation of the packet the flit was made for (debug builds).
    #[cfg(debug_assertions)]
    pub(crate) const fn generation(self) -> u32 {
        self.generation
    }
}

impl std::fmt::Debug for Flit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Flit");
        s.field("slot", &self.slot()).field("kind", &self.kind());
        #[cfg(debug_assertions)]
        s.field("generation", &self.generation);
        s.finish()
    }
}

// A flit is one word in release builds (debug builds add the generation).
#[cfg(not(debug_assertions))]
const _: () = assert!(std::mem::size_of::<Flit>() == 4);

/// Full per-packet bookkeeping.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Source router.
    pub src: NodeId,
    /// Destination router.
    pub dst: NodeId,
    /// Length in flits.
    pub flits: u16,
    /// Virtual network (fixed at creation by vertical direction).
    pub vnet: VirtualNet,
    /// Elevator choice (``None`` for same-layer packets).
    pub elevator: Option<ElevatorCoord>,
    /// Cycle the packet entered its source queue.
    pub created: Cycle,
    /// Cycle the head flit left the source router, once it has.
    pub head_out_src: Option<Cycle>,
    /// Cycle the tail flit left the source router, once it has.
    pub tail_out_src: Option<Cycle>,
    /// Cycle the tail flit was ejected at the destination, once delivered.
    pub delivered: Option<Cycle>,
    /// Whether the packet was created inside the measurement window.
    pub measured: bool,
}

impl Packet {
    /// End-to-end packet latency (creation → tail ejection), if delivered.
    #[must_use]
    pub fn latency(&self) -> Option<u64> {
        self.delivered.map(|d| d.saturating_sub(self.created))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_by_position() {
        assert_eq!(FlitKind::for_position(0, 1), FlitKind::Single);
        assert_eq!(FlitKind::for_position(0, 10), FlitKind::Head);
        assert_eq!(FlitKind::for_position(5, 10), FlitKind::Body);
        assert_eq!(FlitKind::for_position(9, 10), FlitKind::Tail);
    }

    #[test]
    fn head_tail_predicates() {
        assert!(FlitKind::Head.is_head() && !FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail() && !FlitKind::Tail.is_head());
        assert!(FlitKind::Single.is_head() && FlitKind::Single.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    fn packet() -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            flits: 10,
            vnet: VirtualNet::Ascend,
            elevator: None,
            created: 100,
            head_out_src: None,
            tail_out_src: None,
            delivered: None,
            measured: true,
        }
    }

    #[test]
    fn latency_requires_delivery() {
        let mut p = packet();
        assert_eq!(p.latency(), None);
        p.delivered = Some(150);
        assert_eq!(p.latency(), Some(50));
    }

    #[test]
    fn the_word_round_trips_slot_and_kind() {
        use FlitKind::{Body, Head, Single, Tail};
        for slot in [0, 1, Flit::SLOTS - 1] {
            for kind in [Head, Body, Tail, Single] {
                let flit = Flit::new(PacketId::new(slot, 3), kind);
                assert_eq!((flit.slot(), flit.kind()), (slot, kind));
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^30 packet slots")]
    fn a_slot_beyond_the_word_is_refused() {
        let _ = Flit::new(PacketId::new(Flit::SLOTS, 1), FlitKind::Head);
    }

    /// A flit read after its packet retired, and its slot went to the
    /// next packet, must not alias that packet.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PacketId")]
    fn a_flit_outliving_its_packet_is_caught() {
        let mut table = crate::PacketTable::new();
        let id = table.insert(packet());
        let flit = Flit::new(id, FlitKind::Tail);
        table.retire(id);
        assert_eq!(table.insert(packet()).slot(), flit.slot());
        let _ = table.packet_of(flit);
    }
}
