//! A flat ring-buffer arena for router input FIFOs.
//!
//! Every input FIFO of every router lives in one contiguous slab: lane `l`
//! owns the fixed slice `slots[l * depth .. (l + 1) * depth]`, used as a
//! ring addressed by a per-lane head index and length. The arena is sized
//! once at construction (`lanes × depth` flit slots) and never reallocates,
//! so the simulator's per-cycle buffer traffic touches no allocator — and
//! the per-lane occupancy bytes are themselves contiguous, so scanning a
//! router's 14 lanes for work reads a single cache line instead of chasing
//! 14 heap-allocated `VecDeque`s.

use crate::flit::{Flit, FlitKind, PacketId};

/// Fixed-capacity ring-buffer FIFOs over one flat slab.
#[derive(Debug, Clone)]
pub(crate) struct FlitArena {
    /// `lanes × depth` flit slots; lane `l` owns `[l*depth, (l+1)*depth)`.
    slots: Vec<Flit>,
    /// Ring head of each lane (offset within the lane's slice).
    heads: Vec<u8>,
    /// Occupancy of each lane.
    lens: Vec<u8>,
    depth: u8,
}

/// Filler for never-written slots. The lane lengths guard every read, so
/// it is never returned; in debug builds it also carries generation 0,
/// which is never live in a [`crate::PacketTable`], so a lookup of it would
/// trip the table's stale-handle assertion.
const VACANT: Flit = Flit::new(PacketId::new(0, 0), FlitKind::Single);

impl FlitArena {
    /// An empty arena of `lanes` FIFOs, `depth` flits each.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub(crate) fn new(lanes: usize, depth: u8) -> Self {
        assert!(depth >= 1, "buffers need at least one slot");
        Self {
            slots: vec![VACANT; lanes * depth as usize],
            heads: vec![0; lanes],
            lens: vec![0; lanes],
            depth,
        }
    }

    /// Occupancy of `lane`.
    #[inline]
    pub(crate) fn len(&self, lane: usize) -> usize {
        self.lens[lane] as usize
    }

    /// Occupancy of every lane, in lane order.
    pub(crate) fn lens(&self) -> &[u8] {
        &self.lens
    }

    /// `true` if `lane` holds no flits.
    #[inline]
    pub(crate) fn is_empty(&self, lane: usize) -> bool {
        self.lens[lane] == 0
    }

    /// The oldest flit of `lane`, if any.
    #[inline]
    pub(crate) fn front(&self, lane: usize) -> Option<Flit> {
        if self.lens[lane] == 0 {
            None
        } else {
            Some(self.slots[lane * self.depth as usize + self.heads[lane] as usize])
        }
    }

    /// Appends `flit` to `lane`.
    #[inline]
    pub(crate) fn push_back(&mut self, lane: usize, flit: Flit) {
        let depth = self.depth as usize;
        let len = self.lens[lane] as usize;
        debug_assert!(len < depth, "lane {lane} overflow");
        let at = self.heads[lane] as usize + len;
        let at = if at >= depth { at - depth } else { at };
        self.slots[lane * depth + at] = flit;
        self.lens[lane] += 1;
    }

    /// Removes and returns the oldest flit of `lane`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the lane is empty; release builds
    /// return the stale slot, which the credit protocol never permits.
    #[inline]
    pub(crate) fn pop_front(&mut self, lane: usize) -> Flit {
        let depth = self.depth as usize;
        debug_assert!(self.lens[lane] > 0, "lane {lane} underflow");
        let head = self.heads[lane] as usize;
        let flit = self.slots[lane * depth + head];
        let next = head + 1;
        self.heads[lane] = if next == depth { 0 } else { next as u8 };
        self.lens[lane] -= 1;
        flit
    }

    /// The flits of `lane`, oldest first (invariant tests).
    #[cfg(test)]
    pub(crate) fn iter_lane(&self, lane: usize) -> impl Iterator<Item = Flit> + '_ {
        let depth = self.depth as usize;
        let head = self.heads[lane] as usize;
        (0..self.lens[lane] as usize).map(move |i| self.slots[lane * depth + (head + i) % depth])
    }

    /// Total flit slots allocated (fixed for the arena's lifetime).
    pub(crate) fn capacity_flits(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flit(slot: u32) -> Flit {
        Flit::new(PacketId::new(slot, 1), FlitKind::Body)
    }

    #[test]
    fn lanes_are_independent_rings() {
        let mut arena = FlitArena::new(3, 2);
        arena.push_back(0, flit(10));
        arena.push_back(2, flit(20));
        arena.push_back(2, flit(21));
        assert_eq!(arena.len(0), 1);
        assert!(arena.is_empty(1));
        assert_eq!(arena.len(2), 2);
        assert_eq!(arena.front(2), Some(flit(20)));
        assert_eq!(arena.pop_front(2), flit(20));
        assert_eq!(arena.pop_front(2), flit(21));
        assert_eq!(arena.pop_front(0), flit(10));
        assert!(arena.front(0).is_none());
    }

    #[test]
    fn ring_wraps_without_reallocating() {
        let mut arena = FlitArena::new(1, 3);
        let cap = arena.capacity_flits();
        // Push/pop far past the capacity: the ring must wrap in place.
        arena.push_back(0, flit(0));
        for i in 1..100 {
            arena.push_back(0, flit(i));
            assert_eq!(arena.pop_front(0), flit(i - 1));
        }
        assert_eq!(arena.len(0), 1);
        assert_eq!(arena.capacity_flits(), cap);
    }

    #[test]
    fn iter_lane_yields_fifo_order_across_wrap() {
        let mut arena = FlitArena::new(2, 4);
        for i in 0..4 {
            arena.push_back(1, flit(i));
        }
        arena.pop_front(1);
        arena.pop_front(1);
        arena.push_back(1, flit(4));
        arena.push_back(1, flit(5));
        let seen: Vec<u32> = arena.iter_lane(1).map(Flit::slot).collect();
        assert_eq!(seen, vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_depth_is_rejected() {
        let _ = FlitArena::new(4, 0);
    }
}
