//! Strict priority scheduling across operator-assigned traffic classes.
//!
//! The paper (§7.2) notes that by strictly prioritizing one traffic class
//! over another at the sendbox, Bundler achieves 65 % lower median FCTs for
//! the higher-priority class. Each
//! [`TrafficClass`](bundler_types::TrafficClass) gets its own FIFO; lower
//! class numbers are always served first.

use std::collections::VecDeque;

use bundler_types::{Nanos, PacketArena, PacketId};

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

// The capacity is configuration; the class count goes out as the queue
// vector's length, and a restore refuses any other.
serde::layout!(state StrictPriority { queues, total_pkts, total_bytes, stats }
    check |s| s.queues.len() == NUM_CLASSES
        && crate::queued(&s.queues) == (s.total_pkts, s.total_bytes),
    "prio class count or totals do not match the class queues");

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet, TrafficClass};
    use serde::binary::{Encode, Reader, State};

    /// Packets queued in `class`.
    fn class_len(s: &StrictPriority, class: TrafficClass) -> usize {
        s.queues[usize::from(class.0)].len()
    }

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
        assert_eq!(class_len(&s, TrafficClass::HIGH), 3);
        assert_eq!(class_len(&s, TrafficClass::BULK), 0);
    }

    #[test]
    fn class_len_and_counters() {
        let mut a = PacketArena::new();
        let mut s = StrictPriority::new(10);
        enq(&mut s, &mut a, pkt(0, TrafficClass::HIGH));
        enq(&mut s, &mut a, pkt(1, TrafficClass::BULK));
        assert_eq!(class_len(&s, TrafficClass::HIGH), 1);
        assert_eq!(class_len(&s, TrafficClass::BULK), 1);
        assert_eq!(s.len_packets(), 2);
        s.dequeue(&mut a, Nanos::ZERO);
        s.dequeue(&mut a, Nanos::ZERO);
        assert!(s.is_empty());
        assert_eq!(s.len_bytes(), 0);
    }

    /// Packets in several classes, one of them partly drained.
    fn backlogged(a: &mut PacketArena) -> StrictPriority {
        let mut s = StrictPriority::new(100);
        for (i, class) in [
            TrafficClass::HIGH,
            TrafficClass::BULK,
            TrafficClass::BEST_EFFORT,
        ]
        .into_iter()
        .cycle()
        .take(9)
        .enumerate()
        {
            enq(&mut s, a, pkt(i as u64, class));
        }
        let id = s.dequeue(a, Nanos::ZERO).unwrap();
        a.free(id);
        s
    }

    #[test]
    fn state_round_trips_and_drains_identically() {
        let mut a = PacketArena::new();
        let mut s = backlogged(&mut a);
        let mut bytes = Vec::new();
        s.save_state(&mut bytes);
        let mut pkts = Vec::new();
        s.for_each_pkt_mut(&mut |id| pkts.push(a[*id].clone()));

        let mut a2 = PacketArena::new();
        let mut s2 = StrictPriority::new(100);
        let mut r = Reader::new(&bytes);
        s2.load_state(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes after restore");
        let mut next = pkts.into_iter();
        s2.for_each_pkt_mut(&mut |id| *id = a2.insert(next.next().expect("packet for each ref")));
        let mut resaved = Vec::new();
        s2.save_state(&mut resaved);
        assert_eq!(bytes, resaved, "restore must be lossless");
        let drain = |s: &mut StrictPriority, a: &mut PacketArena| -> Vec<u64> {
            std::iter::from_fn(|| s.dequeue(a, Nanos::ZERO).map(|id| a[id].flow.0)).collect()
        };
        assert_eq!(drain(&mut s, &mut a), drain(&mut s2, &mut a2));
    }

    #[test]
    fn restore_rejects_totals_the_classes_do_not_hold() {
        let mut a = PacketArena::new();
        let s = backlogged(&mut a);
        crate::tests::assert_rejects_patched_totals(&s, || Box::new(StrictPriority::new(100)));
    }

    #[test]
    fn restore_rejects_another_class_count() {
        let mut bytes = Vec::new();
        vec![VecDeque::<PktRef>::new(); NUM_CLASSES - 1].encode(&mut bytes);
        (0usize, 0u64, SchedStats::default()).encode(&mut bytes);
        let err = StrictPriority::new(100)
            .load_state(&mut Reader::new(&bytes))
            .unwrap_err();
        assert_eq!(
            err.what,
            "prio class count or totals do not match the class queues"
        );
    }
}
