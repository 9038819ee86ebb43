//! Drop-tail FIFO queue.
//!
//! This is the "status quo" queue discipline: a single queue with a finite
//! capacity that drops arriving packets when full. Both the emulated
//! bottleneck router and the Bundler-with-FIFO configuration in Figure 9 use
//! it.

use std::collections::VecDeque;

use bundler_types::{Nanos, PacketArena, PacketId};

use crate::{Enqueued, PktRef, SchedStats, Scheduler};

/// How the FIFO capacity is expressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Capacity {
    /// Maximum number of packets.
    Packets(usize),
    /// Maximum number of bytes.
    Bytes(u64),
    /// No limit (used for the sendbox queue, which Bundler wants to absorb
    /// arbitrarily large standing queues shifted from the network).
    Unbounded,
}

/// A drop-tail FIFO queue.
#[derive(Debug)]
pub struct DropTailFifo {
    queue: VecDeque<PktRef>,
    capacity: Capacity,
    bytes: u64,
    stats: SchedStats,
}

impl DropTailFifo {
    /// Creates a FIFO with the given capacity.
    pub fn new(capacity: Capacity) -> Self {
        DropTailFifo {
            queue: VecDeque::new(),
            capacity,
            bytes: 0,
            stats: SchedStats::default(),
        }
    }

    /// Creates a FIFO bounded by a packet count.
    pub fn with_packet_capacity(pkts: usize) -> Self {
        Self::new(Capacity::Packets(pkts))
    }

    /// Creates a FIFO bounded by a byte count.
    pub fn with_byte_capacity(bytes: u64) -> Self {
        Self::new(Capacity::Bytes(bytes))
    }

    /// Creates a FIFO with no capacity limit.
    pub fn unbounded() -> Self {
        Self::new(Capacity::Unbounded)
    }

    /// Returns the configured capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Peeks at the head-of-line packet without removing it.
    pub fn peek(&self) -> Option<PacketId> {
        self.queue.front().map(|p| p.id)
    }

    fn would_overflow(&self, size: u32) -> bool {
        match self.capacity {
            Capacity::Packets(max) => self.queue.len() + 1 > max,
            Capacity::Bytes(max) => self.bytes + size as u64 > max,
            Capacity::Unbounded => false,
        }
    }
}

impl Scheduler for DropTailFifo {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let size = arena[pkt].size;
        if self.would_overflow(size) {
            self.stats.dropped += 1;
            self.stats.dropped_bytes += size as u64;
            return Enqueued::Dropped(pkt);
        }
        arena[pkt].enqueued_at = now;
        self.bytes += size as u64;
        self.stats.enqueued += 1;
        self.queue.push_back(PktRef { id: pkt, size });
        Enqueued::Queued
    }

    fn dequeue(&mut self, _arena: &mut PacketArena, _now: Nanos) -> Option<PacketId> {
        let p = self.queue.pop_front()?;
        self.bytes -= p.size as u64;
        self.stats.dequeued += 1;
        Some(p.id)
    }

    fn len_packets(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }

    fn for_each_pkt_mut(&mut self, f: &mut dyn FnMut(&mut PacketId)) {
        for p in self.queue.iter_mut() {
            f(&mut p.id);
        }
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

serde::layout!(state DropTailFifo { queue, bytes, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};

    fn pkt(flow: u64, size: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000, ipv4(10, 0, 1, 1), 80),
            0,
            size,
            Nanos::ZERO,
        )
    }

    fn enq(q: &mut DropTailFifo, a: &mut PacketArena, p: Packet, now: Nanos) -> Enqueued {
        let id = a.insert(p);
        q.enqueue(id, a, now)
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut a = PacketArena::new();
        let mut q = DropTailFifo::with_packet_capacity(10);
        for i in 0..5 {
            assert!(!enq(&mut q, &mut a, pkt(i, 100), Nanos::ZERO).is_drop());
        }
        let ids: Vec<_> = std::iter::from_fn(|| q.dequeue(&mut a, Nanos::ZERO)).collect();
        let order: Vec<u64> = ids.iter().map(|&id| a[id].flow.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn packet_capacity_drops_tail() {
        let mut a = PacketArena::new();
        let mut q = DropTailFifo::with_packet_capacity(2);
        assert!(!enq(&mut q, &mut a, pkt(0, 100), Nanos::ZERO).is_drop());
        assert!(!enq(&mut q, &mut a, pkt(1, 100), Nanos::ZERO).is_drop());
        let third = enq(&mut q, &mut a, pkt(2, 100), Nanos::ZERO);
        match third {
            Enqueued::Dropped(id) => {
                assert_eq!(a[id].flow.0, 2);
                a.free(id);
            }
            _ => panic!("expected drop"),
        }
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.len_packets(), 2);
    }

    #[test]
    fn byte_capacity_enforced() {
        let mut a = PacketArena::new();
        let mut q = DropTailFifo::with_byte_capacity(300);
        // Each packet is payload + 40 header bytes = 140.
        assert!(!enq(&mut q, &mut a, pkt(0, 100), Nanos::ZERO).is_drop());
        assert!(!enq(&mut q, &mut a, pkt(1, 100), Nanos::ZERO).is_drop());
        assert!(enq(&mut q, &mut a, pkt(2, 100), Nanos::ZERO).is_drop());
        assert_eq!(q.len_bytes(), 280);
    }

    #[test]
    fn unbounded_never_drops() {
        let mut a = PacketArena::new();
        let mut q = DropTailFifo::unbounded();
        for i in 0..10_000 {
            assert!(!enq(&mut q, &mut a, pkt(i, 1460), Nanos::ZERO).is_drop());
        }
        assert_eq!(q.len_packets(), 10_000);
    }

    #[test]
    fn enqueue_stamps_enqueued_at() {
        let mut a = PacketArena::new();
        let mut q = DropTailFifo::unbounded();
        enq(&mut q, &mut a, pkt(0, 100), Nanos::from_millis(7));
        let head = q.peek().unwrap();
        assert_eq!(a[head].enqueued_at, Nanos::from_millis(7));
    }

    #[test]
    fn bytes_tracks_dequeues() {
        let mut a = PacketArena::new();
        let mut q = DropTailFifo::unbounded();
        enq(&mut q, &mut a, pkt(0, 100), Nanos::ZERO);
        enq(&mut q, &mut a, pkt(1, 200), Nanos::ZERO);
        assert_eq!(q.len_bytes(), 140 + 240);
        q.dequeue(&mut a, Nanos::ZERO);
        assert_eq!(q.len_bytes(), 240);
        q.dequeue(&mut a, Nanos::ZERO);
        assert_eq!(q.len_bytes(), 0);
        assert!(q.dequeue(&mut a, Nanos::ZERO).is_none());
    }
}
