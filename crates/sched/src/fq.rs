//! Ideal per-flow fair queueing.
//!
//! This scheduler keeps one queue per flow id (not per hash bucket) and
//! serves them with a byte-accurate round-robin. It is the scheduler used by
//! the paper's "In-Network" baseline, which deploys fair queueing directly at
//! the (emulated) bottleneck router — the configuration that is *not*
//! deployable in practice but bounds how much of the possible benefit
//! Bundler captures (Figure 9: Bundler is within 15 % of it).

use bundler_types::{IdHashMap, Nanos, PacketArena, PacketId};
use serde::binary::{decode_len, Decode, DecodeError, Encode, Reader, State};

use crate::rr::{FlowQueue, RoundRobin};
use crate::{Enqueued, PktRef, SchedStats, Scheduler};

/// Ideal per-flow fair queueing scheduler.
#[derive(Debug)]
pub struct FairQueue {
    /// Deficit round robin over the flows, keyed by flow id.
    rr: RoundRobin<IdHashMap<u64, FlowQueue>>,
}

impl FairQueue {
    /// Creates a fair queue with the given total packet capacity.
    pub fn new(capacity_pkts: usize) -> Self {
        FairQueue {
            rr: RoundRobin::new(IdHashMap::default(), capacity_pkts),
        }
    }

    /// Number of distinct backlogged flows.
    pub fn backlogged_flows(&self) -> usize {
        self.rr.active.len()
    }
}

impl Scheduler for FairQueue {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let p = arena.get_mut(pkt);
        p.enqueued_at = now;
        let (key, size) = (p.flow.0, p.size);
        self.rr.enqueue(key, PktRef { id: pkt, size })
    }

    fn dequeue(&mut self, _arena: &mut PacketArena, _now: Nanos) -> Option<PacketId> {
        self.rr.dequeue().map(|p| p.id)
    }

    fn len_packets(&self) -> usize {
        self.rr.total_pkts
    }

    fn len_bytes(&self) -> u64 {
        self.rr.total_bytes
    }

    fn stats(&self) -> SchedStats {
        self.rr.stats
    }

    fn for_each_pkt_mut(&mut self, f: &mut dyn FnMut(&mut PacketId)) {
        self.rr.for_each_active_pkt_mut(f);
    }

    fn name(&self) -> &'static str {
        "fq"
    }
}

// Flow queues sort by flow id so the byte stream is canonical — the map's
// iteration order must not leak into the snapshot. The round-robin order is
// state, serialized as flow ids.
impl State for FairQueue {
    fn save_state(&self, out: &mut Vec<u8>) {
        let mut ids: Vec<u64> = self.rr.queues.keys().copied().collect();
        ids.sort_unstable();
        ids.len().encode(out);
        for id in &ids {
            id.encode(out);
            self.rr.queues[id].encode(out);
        }
        self.rr.active.encode(out);
        self.rr.save_totals(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let n = decode_len(r, "fq flow count")?;
        self.rr.queues.clear();
        for _ in 0..n {
            let (id, fq) = <(u64, FlowQueue)>::decode(r)?;
            self.rr.queues.insert(id, fq);
        }
        self.rr.active = Decode::decode(r)?;
        self.rr
            .load_totals(r, "fq totals do not match the active flow queues")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};

    fn pkt(flow: u64, size: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 3000, ipv4(10, 0, 1, 1), 80),
            0,
            size,
            Nanos::ZERO,
        )
    }

    fn enq(s: &mut FairQueue, a: &mut PacketArena, p: Packet) -> Enqueued {
        let id = a.insert(p);
        s.enqueue(id, a, Nanos::ZERO)
    }

    #[test]
    fn no_hash_collisions_between_flows() {
        // Unlike SFQ, flows with the same five-tuple hash are still isolated
        // because the queue is keyed on FlowId.
        let mut a = PacketArena::new();
        let mut fq = FairQueue::new(1000);
        for _ in 0..10 {
            enq(&mut fq, &mut a, pkt(0, 1000));
            enq(&mut fq, &mut a, pkt(1, 1000));
        }
        assert_eq!(fq.backlogged_flows(), 2);
        let mut counts = [0usize; 2];
        for _ in 0..10 {
            let id = fq.dequeue(&mut a, Nanos::ZERO).unwrap();
            counts[a[id].flow.0 as usize] += 1;
        }
        assert_eq!(counts[0], 5);
        assert_eq!(counts[1], 5);
    }

    #[test]
    fn short_flow_bypasses_long_flow() {
        let mut a = PacketArena::new();
        let mut fq = FairQueue::new(10_000);
        for _ in 0..500 {
            enq(&mut fq, &mut a, pkt(0, 1460));
        }
        enq(&mut fq, &mut a, pkt(7, 100));
        let mut pos = None;
        for i in 0..502 {
            let id = fq.dequeue(&mut a, Nanos::ZERO).unwrap();
            if a[id].flow.0 == 7 {
                pos = Some(i);
                break;
            }
        }
        assert!(pos.unwrap() <= 2);
    }

    #[test]
    fn restore_rejects_totals_the_flows_do_not_hold() {
        let mut a = PacketArena::new();
        let mut fq = FairQueue::new(1000);
        for i in 0..6 {
            enq(&mut fq, &mut a, pkt(i % 3, 500));
        }
        crate::tests::assert_rejects_patched_totals(&fq, || Box::new(FairQueue::new(1000)));
    }

    #[test]
    fn capacity_and_cleanup() {
        let mut a = PacketArena::new();
        let mut fq = FairQueue::new(4);
        for _ in 0..4 {
            assert!(!enq(&mut fq, &mut a, pkt(0, 500)).is_drop());
        }
        assert!(enq(&mut fq, &mut a, pkt(1, 500)).is_drop());
        while fq.dequeue(&mut a, Nanos::ZERO).is_some() {}
        assert_eq!(fq.backlogged_flows(), 0);
        assert_eq!(fq.len_bytes(), 0);
    }
}
