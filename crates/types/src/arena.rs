//! A slab arena for in-flight packets.
//!
//! The simulator's hot path used to move ~100-byte [`Packet`] values through
//! every event, scheduler queue and heap sift. The arena replaces those
//! moves with a 4-byte [`PacketId`]: a packet is inserted once when its
//! endhost creates it, referenced by id while it traverses sendbox queues,
//! bottleneck buffers and the event queue, and its slot is recycled through
//! a free list when it is consumed at the far endhost (or dropped). In
//! steady state a simulation performs **zero allocations per packet hop**:
//! every insert after warm-up pops a recycled slot.
//!
//! Ids are plain indices; the arena does not reference-count. Ownership
//! discipline is the simulator's event graph: exactly one queue or event
//! holds a given id at any time, and whoever consumes the packet frees it.
//! Debug builds track slot occupancy and panic on use-after-free or
//! double-free; release builds have zero bookkeeping overhead beyond the
//! free list.

use crate::packet::Packet;

/// Arena handle of an in-flight packet. 4 bytes — this is what event queues
/// and schedulers move around instead of the packet itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(u32);

// Declared here rather than in `codec` because the field is private.
serde::layout!(value PacketId { 0 });

impl PacketId {
    /// The raw slot index (exposed for diagnostics only).
    pub fn index(self) -> u32 {
        self.0
    }

    /// Rebuilds an id from a raw index. Only meaningful to code that also
    /// controls the arena the index refers to — the snapshot codec uses it
    /// to round-trip ids that are rewritten on adoption anyway.
    pub fn from_index(index: u32) -> PacketId {
        PacketId(index)
    }
}

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// Slab arena of [`Packet`]s with free-list recycling.
///
/// # Example
///
/// ```
/// use bundler_types::{flow::ipv4, FlowId, FlowKey, Nanos, Packet, PacketArena};
///
/// let mut arena = PacketArena::new();
/// let key = FlowKey::tcp(ipv4(10, 0, 0, 1), 4000, ipv4(10, 1, 0, 1), 443);
/// let id = arena.insert(Packet::data(FlowId(1), key, 0, 1460, Nanos::ZERO));
/// assert_eq!(arena[id].payload, 1460);   // index by id, not by value
/// arena.free(id);                        // consume: the slot recycles
/// let id2 = arena.insert(Packet::data(FlowId(2), key, 0, 100, Nanos::ZERO));
/// assert_eq!(id2.index(), id.index(), "freed slot is reused");
/// assert_eq!(arena.recycled(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: usize,
    inserted: u64,
    recycled: u64,
    #[cfg(debug_assertions)]
    occupied: Vec<bool>,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an arena with room for `capacity` packets before it grows.
    pub fn with_capacity(capacity: usize) -> Self {
        PacketArena {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            ..Default::default()
        }
    }

    /// Inserts a packet, recycling a freed slot when one is available.
    pub fn insert(&mut self, pkt: Packet) -> PacketId {
        self.live += 1;
        self.inserted += 1;
        match self.free.pop() {
            Some(i) => {
                self.recycled += 1;
                self.slots[i as usize] = pkt;
                #[cfg(debug_assertions)]
                {
                    self.occupied[i as usize] = true;
                }
                PacketId(i)
            }
            None => {
                let i = self.slots.len();
                assert!(i < u32::MAX as usize, "packet arena exhausted u32 ids");
                self.slots.push(pkt);
                #[cfg(debug_assertions)]
                self.occupied.push(true);
                PacketId(i as u32)
            }
        }
    }

    /// Read access to a live packet.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.occupied[id.0 as usize],
            "use-after-free of {id} (slot is on the free list)"
        );
        &self.slots[id.0 as usize]
    }

    /// Write access to a live packet (queues use this to stamp
    /// `enqueued_at`; the simulator recycles a request packet in place as
    /// its response).
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(
            self.occupied[id.0 as usize],
            "use-after-free of {id} (slot is on the free list)"
        );
        &mut self.slots[id.0 as usize]
    }

    /// Returns the packet's slot to the free list. The id must not be used
    /// afterwards (checked in debug builds).
    #[inline]
    pub fn free(&mut self, id: PacketId) {
        #[cfg(debug_assertions)]
        {
            assert!(
                self.occupied[id.0 as usize],
                "double free of {id} (slot already on the free list)"
            );
            self.occupied[id.0 as usize] = false;
        }
        self.free.push(id.0);
        self.live -= 1;
    }

    /// Clones the packet out and frees its slot.
    pub fn remove(&mut self, id: PacketId) -> Packet {
        let pkt = self.get(id).clone();
        self.free(id);
        pkt
    }

    /// Number of live (inserted, not yet freed) packets.
    pub fn live(&self) -> usize {
        self.live
    }

    /// True if no packets are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots ever allocated (the arena's high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Lifetime count of inserts.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Lifetime count of inserts served from the free list. Once the
    /// simulation warms up, `recycled` tracks `inserted` one-for-one: the
    /// steady state allocates nothing.
    pub fn recycled(&self) -> u64 {
        self.recycled
    }
}

impl std::ops::Index<PacketId> for PacketArena {
    type Output = Packet;
    #[inline]
    fn index(&self, id: PacketId) -> &Packet {
        self.get(id)
    }
}

impl std::ops::IndexMut<PacketId> for PacketArena {
    #[inline]
    fn index_mut(&mut self, id: PacketId) -> &mut Packet {
        self.get_mut(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{ipv4, FlowId, FlowKey};
    use crate::time::Nanos;

    fn pkt(flow: u64) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000, ipv4(10, 0, 1, 1), 80),
            0,
            1460,
            Nanos::ZERO,
        )
    }

    #[test]
    fn insert_get_free_roundtrip() {
        let mut a = PacketArena::new();
        let id = a.insert(pkt(7));
        assert_eq!(a[id].flow.0, 7);
        assert_eq!(a.live(), 1);
        a.get_mut(id).payload = 99;
        assert_eq!(a[id].payload, 99);
        a.free(id);
        assert!(a.is_empty());
    }

    #[test]
    fn slots_are_recycled_lifo() {
        let mut a = PacketArena::new();
        let a0 = a.insert(pkt(0));
        let a1 = a.insert(pkt(1));
        assert_eq!(a.capacity(), 2);
        a.free(a0);
        a.free(a1);
        // The next inserts reuse the two freed slots; no growth.
        let b0 = a.insert(pkt(2));
        let b1 = a.insert(pkt(3));
        assert_eq!(a.capacity(), 2);
        assert_eq!(a.recycled(), 2);
        assert_eq!(a.inserted(), 4);
        assert_eq!(a[b0].flow.0, 2);
        assert_eq!(a[b1].flow.0, 3);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut a = PacketArena::new();
        // Warm up with 8 concurrent packets.
        let ids: Vec<PacketId> = (0..8).map(|i| a.insert(pkt(i))).collect();
        for id in ids {
            a.free(id);
        }
        let high_water = a.capacity();
        // A long churn of insert/free pairs never grows the arena.
        for i in 0..10_000u64 {
            let id = a.insert(pkt(i));
            a.free(id);
        }
        assert_eq!(a.capacity(), high_water);
        assert_eq!(a.recycled(), 10_000, "every churn insert reuses a slot");
    }

    #[test]
    fn remove_returns_the_packet() {
        let mut a = PacketArena::new();
        let id = a.insert(pkt(42));
        let p = a.remove(id);
        assert_eq!(p.flow.0, 42);
        assert!(a.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_is_caught_in_debug() {
        let mut a = PacketArena::new();
        let id = a.insert(pkt(0));
        a.free(id);
        a.free(id);
    }
}
