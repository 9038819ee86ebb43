//! Ideal per-flow fair queueing.
//!
//! This scheduler keeps one queue per flow id (not per hash bucket) and
//! serves them with a byte-accurate round-robin. It is the scheduler used by
//! the paper's "In-Network" baseline, which deploys fair queueing directly at
//! the (emulated) bottleneck router — the configuration that is *not*
//! deployable in practice but bounds how much of the possible benefit
//! Bundler captures (Figure 9: Bundler is within 15 % of it).

use std::collections::VecDeque;

use bundler_types::{FlowId, IdHashMap, Nanos, PacketArena, PacketId};
use serde::binary::{decode_len, Decode, DecodeError, Encode, Reader, State};

use crate::longest::LongestTracker;
use crate::{Enqueued, PktRef, SchedStats, Scheduler};

#[derive(Debug, Default)]
struct FlowQueue {
    queue: VecDeque<PktRef>,
    bytes: u64,
    deficit: i64,
}

serde::layout!(value FlowQueue { queue, bytes, deficit });

/// Ideal per-flow fair queueing scheduler.
#[derive(Debug)]
pub struct FairQueue {
    quantum: u32,
    capacity_pkts: usize,
    flows: IdHashMap<FlowId, FlowQueue>,
    active: VecDeque<FlowId>,
    /// Longest-flow (by packets) key for overflow drops. Ties resolve by
    /// the larger flow id rather than active-list position, a policy-free
    /// choice that stays deterministic.
    longest: LongestTracker,
    total_pkts: usize,
    total_bytes: u64,
    stats: SchedStats,
}

impl FairQueue {
    /// Creates a fair queue with the given total packet capacity.
    pub fn new(capacity_pkts: usize) -> Self {
        FairQueue {
            quantum: 1514,
            capacity_pkts,
            flows: IdHashMap::default(),
            active: VecDeque::new(),
            longest: LongestTracker::new(),
            total_pkts: 0,
            total_bytes: 0,
            stats: SchedStats::default(),
        }
    }

    /// Number of distinct backlogged flows.
    pub fn backlogged_flows(&self) -> usize {
        self.active.len()
    }

    fn drop_from_longest(&mut self) -> Option<PktRef> {
        let longest = FlowId(self.longest.longest()?);
        let fq = self.flows.get_mut(&longest)?;
        let p = fq.queue.pop_back()?;
        fq.bytes -= p.size as u64;
        self.total_pkts -= 1;
        self.total_bytes -= p.size as u64;
        self.longest.set(longest.0, fq.queue.len() as u64);
        if fq.queue.is_empty() {
            self.active.retain(|&k| k != longest);
        }
        Some(p)
    }
}

impl Scheduler for FairQueue {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let (key, size) = {
            let p = arena.get_mut(pkt);
            p.enqueued_at = now;
            (p.flow, p.size)
        };
        let fq = self.flows.entry(key).or_default();
        let newly_active = fq.queue.is_empty();
        fq.bytes += size as u64;
        fq.queue.push_back(PktRef { id: pkt, size });
        let occupancy = fq.queue.len() as u64;
        self.total_pkts += 1;
        self.total_bytes += size as u64;
        self.stats.enqueued += 1;
        if newly_active {
            fq.deficit = self.quantum as i64;
            self.active.push_back(key);
        }
        self.longest.set(key.0, occupancy);
        if self.total_pkts > self.capacity_pkts {
            if let Some(dropped) = self.drop_from_longest() {
                self.stats.dropped += 1;
                self.stats.dropped_bytes += dropped.size as u64;
                return Enqueued::Dropped(dropped.id);
            }
        }
        Enqueued::Queued
    }

    fn dequeue(&mut self, _arena: &mut PacketArena, _now: Nanos) -> Option<PacketId> {
        let mut rotations = 0usize;
        let max_rotations = self.active.len().saturating_mul(2).max(2);
        while let Some(&key) = self.active.front() {
            rotations += 1;
            if rotations > max_rotations && self.total_pkts > 0 {
                break;
            }
            let fq = self.flows.get_mut(&key).expect("active flow exists");
            match fq.queue.front() {
                None => {
                    self.active.pop_front();
                }
                Some(head) if fq.deficit >= head.size as i64 => {
                    let p = fq.queue.pop_front().expect("head exists");
                    fq.deficit -= p.size as i64;
                    fq.bytes -= p.size as u64;
                    self.total_pkts -= 1;
                    self.total_bytes -= p.size as u64;
                    self.longest.set(key.0, fq.queue.len() as u64);
                    if fq.queue.is_empty() {
                        self.active.pop_front();
                        self.flows.remove(&key);
                    }
                    self.stats.dequeued += 1;
                    return Some(p.id);
                }
                Some(_) => {
                    fq.deficit += self.quantum as i64;
                    self.active.rotate_left(1);
                }
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
        // Active-list order, never map order: a freshly built restorer's
        // map iterates differently from the instance that saved, so only
        // this order pairs queued packets with their refs positionally.
        // Every non-empty flow is on the active list.
        for key in &self.active {
            let fq = self.flows.get_mut(key).expect("active flow exists");
            for p in fq.queue.iter_mut() {
                f(&mut p.id);
            }
        }
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
        let mut ids: Vec<FlowId> = self.flows.keys().copied().collect();
        ids.sort_unstable();
        ids.len().encode(out);
        for id in &ids {
            id.encode(out);
            self.flows[id].encode(out);
        }
        self.active.encode(out);
        (self.total_pkts, self.total_bytes, self.stats).encode(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let n = decode_len(r, "fq flow count")?;
        self.flows.clear();
        for _ in 0..n {
            let (id, fq) = <(FlowId, FlowQueue)>::decode(r)?;
            self.longest.set(id.0, fq.queue.len() as u64);
            self.flows.insert(id, fq);
        }
        self.active = Decode::decode(r)?;
        if !self.active.iter().all(|id| self.flows.contains_key(id)) {
            return Err(r.error("fq active flow unknown"));
        }
        (self.total_pkts, self.total_bytes, self.stats) = Decode::decode(r)?;
        // The active list is the packet walk: it must reach every queued
        // packet exactly once, and the totals must count exactly those.
        let totals = (self.total_pkts, self.total_bytes);
        if crate::queued(self.flows.values().map(|f| &f.queue)) != totals
            || crate::queued(self.active.iter().map(|id| &self.flows[id].queue)) != totals
        {
            return Err(r.error("fq totals do not match the active flow queues"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowKey, Packet};

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
        crate::assert_rejects_patched_totals(&fq, || Box::new(FairQueue::new(1000)));
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
