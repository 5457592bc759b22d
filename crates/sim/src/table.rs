//! The recycling packet table: dense slots, a free list and
//! generation-tagged handles.
//!
//! Before this table, the simulator appended every packet of a run to a
//! `Vec<Packet>` that only ever grew — a multi-million-cycle run kept the
//! bookkeeping of millions of long-delivered packets resident, and asking
//! "how many measured packets are still in flight?" was an O(packets)
//! scan. The table bounds memory by the number of packets actually *in
//! flight*: a slot is recycled the moment its packet's tail flit is
//! ejected, and the measured-outstanding count is maintained incrementally
//! at insert/orphan/retire so the drain loop's completion check is O(1).
//!
//! Slot reuse is made safe by generations: each slot carries a counter
//! bumped on every insert *and* every retire (live slots have odd
//! generations), and every [`PacketId`] records the generation it was
//! issued under. A stale handle — one that outlived its packet — can never
//! silently alias the slot's next occupant; the accessors assert the match
//! in debug builds, and [`PacketTable::is_live`] exposes the check.
//!
//! A [`Flit`] carries only its packet's slot; the table supplies the
//! generation ([`PacketTable::id_of`]), so the table holds at most
//! [`Flit::SLOTS`] packets at once.
//!
//! The source queues behind the NIs are threaded through the table too: a
//! [`SlotQueue`] is a head/tail pair of slots, linked by one `next` slot
//! per table slot. A packet waits on at most one queue (its source's),
//! from its admission until its tail is injected, long before its slot
//! retires, so one link per slot serves every queue of the fabric and no
//! queue owns a heap buffer.

use crate::flit::{Flit, Packet, PacketId};

/// End-of-queue marker of a slot link.
const NIL: u32 = u32::MAX;

/// A FIFO of packets linked through a [`PacketTable`]'s slots (module
/// docs); every operation goes through the table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotQueue {
    /// Front and back slots; `head` is [`NIL`] when the queue is empty
    /// (`tail` is then stale).
    head: u32,
    tail: u32,
}

impl Default for SlotQueue {
    fn default() -> Self {
        Self {
            head: NIL,
            tail: NIL,
        }
    }
}

impl SlotQueue {
    /// `true` if no packet waits on the queue.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.head == NIL
    }
}

/// Dense recycling storage for in-flight packets.
#[derive(Debug, Clone, Default)]
pub struct PacketTable {
    /// Slot storage. Retired slots keep their last value (never read:
    /// accessors assert handle generations first).
    packets: Vec<Packet>,
    /// Per-slot generation; odd while the slot is live.
    generations: Vec<u32>,
    /// Retired slots available for reuse (LIFO, so slot assignment is
    /// deterministic and recently-touched memory is reused first).
    free: Vec<u32>,
    /// Per slot: the slot queued behind it on its [`SlotQueue`] ([`NIL`]
    /// at a queue's tail; stale once the packet has left its queue).
    next: Vec<u32>,
    /// Measured packets not yet fully delivered.
    measured_outstanding: usize,
    /// Packets ever inserted (diagnostics; shows how much the free list
    /// recycled).
    total_created: u64,
}

impl PacketTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `packet`, recycling a retired slot if one is free.
    ///
    /// # Panics
    ///
    /// Panics if every one of the [`Flit::SLOTS`] (2^30) slots a flit can
    /// address holds a live packet.
    pub fn insert(&mut self, packet: Packet) -> PacketId {
        self.total_created += 1;
        if packet.measured {
            self.measured_outstanding += 1;
        }
        if let Some(slot) = self.free.pop() {
            let s = slot as usize;
            self.generations[s] = self.generations[s].wrapping_add(1); // even → odd
            self.packets[s] = packet;
            PacketId::new(slot, self.generations[s])
        } else {
            assert!(
                self.packets.len() < Flit::SLOTS as usize,
                "packet table full: a flit addresses at most 2^30 packet slots"
            );
            let slot = self.packets.len() as u32;
            self.packets.push(packet);
            self.generations.push(1);
            self.next.push(NIL);
            PacketId::new(slot, 1)
        }
    }

    /// The packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `id` is stale (its packet was retired).
    #[must_use]
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        debug_assert_eq!(
            self.generations[id.index()],
            id.generation(),
            "stale PacketId {id:?}"
        );
        &self.packets[id.index()]
    }

    /// Mutable access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `id` is stale.
    #[must_use]
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        debug_assert_eq!(
            self.generations[id.index()],
            id.generation(),
            "stale PacketId {id:?}"
        );
        &mut self.packets[id.index()]
    }

    /// The handle of the packet `flit` belongs to.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the flit outlived its packet.
    #[must_use]
    #[inline]
    pub fn id_of(&self, flit: Flit) -> PacketId {
        let slot = flit.slot();
        let id = PacketId::new(slot, self.generations[slot as usize]);
        #[cfg(debug_assertions)]
        assert_eq!(
            id.generation(),
            flit.generation(),
            "stale PacketId {:?}",
            PacketId::new(slot, flit.generation())
        );
        id
    }

    /// The packet `flit` belongs to.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the flit outlived its packet.
    #[must_use]
    #[inline]
    pub fn packet_of(&self, flit: Flit) -> &Packet {
        #[cfg(debug_assertions)]
        let _ = self.id_of(flit);
        &self.packets[flit.slot() as usize]
    }

    /// Retires `id`'s packet, freeing its slot for reuse. Called by the
    /// network the cycle a packet's tail flit is ejected (no flit of the
    /// packet can remain anywhere once its tail has left).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `id` is stale or already retired.
    pub fn retire(&mut self, id: PacketId) {
        let s = id.index();
        debug_assert_eq!(self.generations[s], id.generation(), "double retire {id:?}");
        debug_assert!(self.generations[s] % 2 == 1, "retiring a vacant slot");
        if self.packets[s].measured {
            self.measured_outstanding -= 1;
        }
        self.generations[s] = self.generations[s].wrapping_add(1); // odd → even
        self.free.push(id.slot());
    }

    /// `true` if `id` still addresses the packet it was issued for.
    #[must_use]
    pub fn is_live(&self, id: PacketId) -> bool {
        id.generation() % 2 == 1 && self.generations.get(id.index()) == Some(&id.generation())
    }

    /// Measured packets not yet fully delivered — maintained incrementally,
    /// so the drain loop's completion check costs O(1) instead of a scan
    /// over every packet ever created.
    #[must_use]
    pub fn measured_outstanding(&self) -> usize {
        self.measured_outstanding
    }

    /// Packets currently in flight (live slots).
    #[must_use]
    pub fn live(&self) -> usize {
        self.packets.len() - self.free.len()
    }

    /// Slots allocated — the high-water mark of concurrently in-flight
    /// packets, *not* the number of packets ever created.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.packets.len()
    }

    /// Packets ever inserted.
    #[must_use]
    pub fn total_created(&self) -> u64 {
        self.total_created
    }

    /// Capacity (in elements) of the queue links — the only heap the
    /// source queues use.
    pub(crate) fn link_capacity(&self) -> usize {
        self.next.capacity()
    }

    /// The handle of the live packet in `slot`.
    fn id_at(&self, slot: u32) -> PacketId {
        let generation = self.generations[slot as usize];
        debug_assert!(generation % 2 == 1, "a queued slot is live");
        PacketId::new(slot, generation)
    }

    /// Appends `id` to `queue`; the packet must be on no queue.
    pub(crate) fn enqueue(&mut self, queue: &mut SlotQueue, id: PacketId) {
        let slot = id.slot();
        self.next[slot as usize] = NIL;
        if queue.head == NIL {
            queue.head = slot;
        } else {
            self.next[queue.tail as usize] = slot;
        }
        queue.tail = slot;
    }

    /// The packet at the front of `queue`, if any.
    #[inline]
    pub(crate) fn front(&self, queue: &SlotQueue) -> Option<PacketId> {
        (queue.head != NIL).then(|| self.id_at(queue.head))
    }

    /// Removes the front packet of non-empty `queue`.
    #[inline]
    pub(crate) fn dequeue(&self, queue: &mut SlotQueue) {
        debug_assert_ne!(queue.head, NIL, "dequeue from an empty queue");
        queue.head = self.next[queue.head as usize];
    }

    /// The packets of `queue`, front first.
    pub(crate) fn queued<'a>(&'a self, queue: &SlotQueue) -> impl Iterator<Item = PacketId> + 'a {
        let first = (queue.head != NIL).then_some(queue.head);
        std::iter::successors(first, |&slot| {
            let next = self.next[slot as usize];
            (next != NIL).then_some(next)
        })
        .map(|slot| self.id_at(slot))
    }

    /// Strips the measured flag from every in-flight packet and zeroes the
    /// outstanding count: packets created before a measurement window must
    /// not leak into its figures when they eventually deliver.
    pub fn orphan_unfinished(&mut self) {
        for (packet, &generation) in self.packets.iter_mut().zip(&self.generations) {
            if generation % 2 == 1 {
                packet.measured = false;
            }
        }
        self.measured_outstanding = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adele::online::Cycle;
    use noc_topology::route::VirtualNet;
    use noc_topology::NodeId;

    fn packet(measured: bool, created: Cycle) -> Packet {
        Packet {
            src: NodeId(0),
            dst: NodeId(1),
            flits: 4,
            vnet: VirtualNet::Ascend,
            elevator: None,
            created,
            head_out_src: None,
            tail_out_src: None,
            delivered: None,
            measured,
        }
    }

    #[test]
    fn slots_recycle_with_fresh_generations() {
        let mut table = PacketTable::new();
        let a = table.insert(packet(false, 1));
        let b = table.insert(packet(false, 2));
        assert_eq!(table.capacity(), 2);
        table.retire(a);
        assert!(!table.is_live(a));
        assert!(table.is_live(b));

        let c = table.insert(packet(false, 3));
        // The slot is reused, the handle is not.
        assert_eq!(c.index(), a.index());
        assert_ne!(c, a);
        assert!(table.is_live(c));
        assert!(!table.is_live(a));
        assert_eq!(table.capacity(), 2, "recycling must not grow the table");
        assert_eq!(table.total_created(), 3);
        assert_eq!(table.get(c).created, 3);
    }

    #[test]
    fn measured_outstanding_tracks_insert_retire_orphan() {
        let mut table = PacketTable::new();
        let a = table.insert(packet(true, 1));
        let _b = table.insert(packet(false, 2));
        let c = table.insert(packet(true, 3));
        assert_eq!(table.measured_outstanding(), 2);
        table.retire(a);
        assert_eq!(table.measured_outstanding(), 1);
        table.orphan_unfinished();
        assert_eq!(table.measured_outstanding(), 0);
        assert!(!table.get(c).measured, "orphaning clears the flag");
        table.retire(c);
        assert_eq!(table.measured_outstanding(), 0);
        assert_eq!(table.live(), 1);
    }

    #[test]
    fn slot_queues_are_fifos_sharing_the_links() {
        let mut table = PacketTable::new();
        let (mut a, mut b) = (SlotQueue::default(), SlotQueue::default());
        let ids: Vec<PacketId> = (0..5).map(|t| table.insert(packet(false, t))).collect();
        for (i, &id) in ids.iter().enumerate() {
            let queue = if i % 2 == 0 { &mut a } else { &mut b };
            table.enqueue(queue, id);
        }
        fn order(table: &PacketTable, queue: &SlotQueue) -> Vec<PacketId> {
            table.queued(queue).collect()
        }
        assert_eq!(order(&table, &a), [ids[0], ids[2], ids[4]]);
        assert_eq!(order(&table, &b), [ids[1], ids[3]]);
        table.dequeue(&mut a);
        assert_eq!(table.front(&a), Some(ids[2]));
        // A recycled slot joins another queue with a fresh link.
        table.retire(ids[0]);
        let c = table.insert(packet(false, 9));
        table.enqueue(&mut b, c);
        assert_eq!(order(&table, &b), [ids[1], ids[3], c]);
        assert_eq!(order(&table, &a), [ids[2], ids[4]]);
        for _ in 0..2 {
            table.dequeue(&mut a);
        }
        assert!(a.is_empty() && table.front(&a).is_none());
        table.enqueue(&mut a, ids[2]);
        assert_eq!(order(&table, &a), [ids[2]]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PacketId")]
    fn stale_handles_are_caught() {
        let mut table = PacketTable::new();
        let a = table.insert(packet(false, 1));
        table.retire(a);
        let _ = table.insert(packet(false, 2));
        let _ = table.get(a);
    }
}
