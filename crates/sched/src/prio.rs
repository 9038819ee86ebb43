//! Strict priority scheduling across operator-assigned traffic classes.
//!
//! The paper (§7.2) notes that by strictly prioritizing one traffic class
//! over another at the sendbox, Bundler achieves 65 % lower median FCTs for
//! the higher-priority class. Each [`TrafficClass`] gets its own FIFO; lower
//! class numbers are always served first.

use std::collections::VecDeque;

use bundler_types::{Nanos, PacketArena, PacketId, TrafficClass};
use serde::binary::{DecodeError, Reader, State};

use crate::{Enqueued, PktRef, SchedStats, Scheduler};

/// Number of distinct priority levels supported.
pub const NUM_CLASSES: usize = 8;

/// Strict-priority scheduler.
#[derive(Debug)]
pub struct StrictPriority {
    queues: Vec<VecDeque<PktRef>>,
    capacity_pkts: usize,
    total_pkts: usize,
    total_bytes: u64,
    stats: SchedStats,
}

impl StrictPriority {
    /// Creates a strict-priority scheduler with a shared packet capacity.
    pub fn new(capacity_pkts: usize) -> Self {
        StrictPriority {
            queues: (0..NUM_CLASSES).map(|_| VecDeque::new()).collect(),
            capacity_pkts,
            total_pkts: 0,
            total_bytes: 0,
            stats: SchedStats::default(),
        }
    }

    /// Packets queued in a particular class.
    pub fn class_len(&self, class: TrafficClass) -> usize {
        self.queues
            .get(class.0 as usize % NUM_CLASSES)
            .map(|q| q.len())
            .unwrap_or(0)
    }

    fn drop_from_lowest_priority(&mut self) -> Option<PktRef> {
        for q in self.queues.iter_mut().rev() {
            if let Some(p) = q.pop_back() {
                self.total_pkts -= 1;
                self.total_bytes -= p.size as u64;
                return Some(p);
            }
        }
        None
    }
}

impl Scheduler for StrictPriority {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let (class, size) = {
            let p = arena.get_mut(pkt);
            p.enqueued_at = now;
            ((p.class.0 as usize) % NUM_CLASSES, p.size)
        };
        self.total_pkts += 1;
        self.total_bytes += size as u64;
        self.stats.enqueued += 1;
        self.queues[class].push_back(PktRef { id: pkt, size });
        if self.total_pkts > self.capacity_pkts {
            if let Some(dropped) = self.drop_from_lowest_priority() {
                self.stats.dropped += 1;
                self.stats.dropped_bytes += dropped.size as u64;
                return Enqueued::Dropped(dropped.id);
            }
        }
        Enqueued::Queued
    }

    fn dequeue(&mut self, _arena: &mut PacketArena, _now: Nanos) -> Option<PacketId> {
        for q in self.queues.iter_mut() {
            if let Some(p) = q.pop_front() {
                self.total_pkts -= 1;
                self.total_bytes -= p.size as u64;
                self.stats.dequeued += 1;
                return Some(p.id);
            }
        }
        None
    }

    fn len_packets(&self) -> usize {
        self.total_pkts
    }

    fn len_bytes(&self) -> u64 {
        self.total_bytes
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }

    fn for_each_pkt_mut(&mut self, f: &mut dyn FnMut(&mut PacketId)) {
        for q in self.queues.iter_mut() {
            for p in q.iter_mut() {
                f(&mut p.id);
            }
        }
    }

    fn name(&self) -> &'static str {
        "prio"
    }
}

/// Strict priority has no snapshot layout.
impl State for StrictPriority {
    /// # Panics
    ///
    /// Always: a run that checkpoints must pick a snapshot-capable policy.
    fn save_state(&self, _out: &mut Vec<u8>) {
        panic!("checkpointing requires a snapshot-capable queue discipline, and prio is not one");
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        Err(r.error("scheduler does not support checkpointing"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};

    fn pkt(flow: u64, class: TrafficClass) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000, ipv4(10, 0, 1, 1), 80),
            0,
            1000,
            Nanos::ZERO,
        )
        .with_class(class)
    }

    fn enq(s: &mut StrictPriority, a: &mut PacketArena, p: Packet) -> Enqueued {
        let id = a.insert(p);
        s.enqueue(id, a, Nanos::ZERO)
    }

    #[test]
    fn high_class_always_served_first() {
        let mut a = PacketArena::new();
        let mut s = StrictPriority::new(1000);
        for _ in 0..10 {
            enq(&mut s, &mut a, pkt(0, TrafficClass::BULK));
        }
        enq(&mut s, &mut a, pkt(1, TrafficClass::HIGH));
        enq(&mut s, &mut a, pkt(2, TrafficClass::BEST_EFFORT));
        let flow_of = |s: &mut StrictPriority, a: &mut PacketArena| {
            let id = s.dequeue(a, Nanos::ZERO).unwrap();
            a[id].flow.0
        };
        assert_eq!(flow_of(&mut s, &mut a), 1);
        assert_eq!(flow_of(&mut s, &mut a), 2);
        assert_eq!(flow_of(&mut s, &mut a), 0);
    }

    #[test]
    fn fifo_within_a_class() {
        let mut a = PacketArena::new();
        let mut s = StrictPriority::new(1000);
        for i in 0..5 {
            enq(&mut s, &mut a, pkt(i, TrafficClass::BEST_EFFORT));
        }
        let ids: Vec<_> = std::iter::from_fn(|| s.dequeue(&mut a, Nanos::ZERO)).collect();
        let order: Vec<u64> = ids.iter().map(|&id| a[id].flow.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_drops_lowest_priority_first() {
        let mut a = PacketArena::new();
        let mut s = StrictPriority::new(3);
        enq(&mut s, &mut a, pkt(0, TrafficClass::HIGH));
        enq(&mut s, &mut a, pkt(1, TrafficClass::BULK));
        enq(&mut s, &mut a, pkt(2, TrafficClass::HIGH));
        // Fourth packet overflows; the BULK packet must be the victim even
        // though the arriving packet is HIGH.
        match enq(&mut s, &mut a, pkt(3, TrafficClass::HIGH)) {
            Enqueued::Dropped(id) => {
                assert_eq!(a[id].class, TrafficClass::BULK);
                a.free(id);
            }
            _ => panic!("expected drop"),
        }
        assert_eq!(s.class_len(TrafficClass::HIGH), 3);
        assert_eq!(s.class_len(TrafficClass::BULK), 0);
    }

    #[test]
    fn class_len_and_counters() {
        let mut a = PacketArena::new();
        let mut s = StrictPriority::new(10);
        enq(&mut s, &mut a, pkt(0, TrafficClass::HIGH));
        enq(&mut s, &mut a, pkt(1, TrafficClass::BULK));
        assert_eq!(s.class_len(TrafficClass::HIGH), 1);
        assert_eq!(s.class_len(TrafficClass::BULK), 1);
        assert_eq!(s.len_packets(), 2);
        s.dequeue(&mut a, Nanos::ZERO);
        s.dequeue(&mut a, Nanos::ZERO);
        assert!(s.is_empty());
        assert_eq!(s.len_bytes(), 0);
    }
}
