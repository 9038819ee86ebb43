//! Deficit Round Robin (Shreedhar & Varghese, SIGCOMM 1995).
//!
//! DRR keeps an exact per-flow queue (keyed on the five-tuple digest rather
//! than a fixed bucket array) and serves backlogged flows round-robin, each
//! receiving a byte quantum per round. It is the building block for the
//! "ideal" fair queue used by the In-Network baseline and is exposed as a
//! sendbox policy in its own right.

use std::collections::VecDeque;

use bundler_types::{IdHashMap, Nanos, PacketArena, PacketId};
use serde::binary::{decode_len, Decode, DecodeError, Encode, Reader, State};

use crate::longest::LongestTracker;
use crate::{Enqueued, PktRef, SchedStats, Scheduler};

/// Configuration for [`Drr`].
#[derive(Debug, Clone, Copy)]
pub struct DrrConfig {
    /// Bytes a flow may send per round.
    pub quantum_bytes: u32,
    /// Total packet capacity; overflow drops from the longest flow queue.
    pub total_capacity_pkts: usize,
}

impl Default for DrrConfig {
    fn default() -> Self {
        DrrConfig {
            quantum_bytes: 1514,
            total_capacity_pkts: 4096,
        }
    }
}

#[derive(Debug, Default)]
struct FlowQueue {
    queue: VecDeque<PktRef>,
    bytes: u64,
    deficit: i64,
}

serde::layout!(value FlowQueue { queue, bytes, deficit });

/// Deficit Round Robin scheduler with exact per-flow queues.
#[derive(Debug)]
pub struct Drr {
    config: DrrConfig,
    flows: IdHashMap<u64, FlowQueue>,
    active: VecDeque<u64>,
    /// Longest-flow (by packets) key for overflow drops. Ties resolve by
    /// the larger flow digest rather than active-list position, a
    /// policy-free choice that stays deterministic.
    longest: LongestTracker,
    total_pkts: usize,
    total_bytes: u64,
    stats: SchedStats,
}

impl Drr {
    /// Creates a DRR scheduler.
    pub fn new(config: DrrConfig) -> Self {
        Drr {
            config,
            flows: IdHashMap::default(),
            active: VecDeque::new(),
            longest: LongestTracker::new(),
            total_pkts: 0,
            total_bytes: 0,
            stats: SchedStats::default(),
        }
    }

    /// Number of distinct flows currently backlogged.
    pub fn backlogged_flows(&self) -> usize {
        self.active.len()
    }

    fn drop_from_longest(&mut self) -> Option<PktRef> {
        let longest = self.longest.longest()?;
        let fq = self.flows.get_mut(&longest)?;
        let p = fq.queue.pop_back()?;
        fq.bytes -= p.size as u64;
        self.total_pkts -= 1;
        self.total_bytes -= p.size as u64;
        self.longest.set(longest, fq.queue.len() as u64);
        if fq.queue.is_empty() {
            self.active.retain(|&k| k != longest);
        }
        Some(p)
    }
}

impl Scheduler for Drr {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let (key, size) = {
            let p = arena.get_mut(pkt);
            p.enqueued_at = now;
            (p.key.digest(), p.size)
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
            fq.deficit = self.config.quantum_bytes as i64;
            self.active.push_back(key);
        }
        self.longest.set(key, occupancy);
        if self.total_pkts > self.config.total_capacity_pkts {
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
                    self.longest.set(key, fq.queue.len() as u64);
                    if fq.queue.is_empty() {
                        self.active.pop_front();
                        self.flows.remove(&key);
                    }
                    self.stats.dequeued += 1;
                    return Some(p.id);
                }
                Some(_) => {
                    fq.deficit += self.config.quantum_bytes as i64;
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
        // Active-list order, never map order: the traversal must be the
        // same on the instance that saved a snapshot and the freshly built
        // one restoring it, so queued packets pair up positionally. Every
        // non-empty flow is on the active list.
        for key in &self.active {
            let fq = self.flows.get_mut(key).expect("active flow exists");
            for p in fq.queue.iter_mut() {
                f(&mut p.id);
            }
        }
    }

    fn name(&self) -> &'static str {
        "drr"
    }
}

// Flows go out in active-list order — the canonical traversal — so map
// iteration order never leaks into the byte stream, and the active list is
// implied by that order. Stale empty map entries (left behind by overflow
// drops) carry no state and are not written.
impl State for Drr {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.active.len().encode(out);
        for key in &self.active {
            key.encode(out);
            self.flows[key].encode(out);
        }
        (self.total_pkts, self.total_bytes, self.stats).encode(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let n = decode_len(r, "drr flow count")?;
        self.flows.clear();
        self.active.clear();
        self.longest = LongestTracker::new();
        for _ in 0..n {
            let (key, fq) = <(u64, FlowQueue)>::decode(r)?;
            if fq.queue.is_empty() {
                return Err(r.error("drr active flow has no packets"));
            }
            self.longest.set(key, fq.queue.len() as u64);
            self.active.push_back(key);
            if self.flows.insert(key, fq).is_some() {
                return Err(r.error("drr duplicate flow key"));
            }
        }
        (self.total_pkts, self.total_bytes, self.stats) = Decode::decode(r)?;
        if crate::queued(self.flows.values().map(|f| &f.queue))
            != (self.total_pkts, self.total_bytes)
        {
            return Err(r.error("drr totals do not match the flow queues"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};

    fn pkt(flow: u64, size: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 2000 + flow as u16, ipv4(10, 0, 1, 1), 80),
            0,
            size,
            Nanos::ZERO,
        )
    }

    fn enq(s: &mut Drr, a: &mut PacketArena, p: Packet) -> Enqueued {
        let id = a.insert(p);
        s.enqueue(id, a, Nanos::ZERO)
    }

    #[test]
    fn equal_share_between_two_backlogged_flows() {
        let mut a = PacketArena::new();
        let mut d = Drr::new(DrrConfig::default());
        for _ in 0..50 {
            enq(&mut d, &mut a, pkt(0, 1460));
            enq(&mut d, &mut a, pkt(1, 1460));
        }
        let mut counts = [0usize; 2];
        for _ in 0..40 {
            let id = d.dequeue(&mut a, Nanos::ZERO).unwrap();
            counts[a[id].flow.0 as usize] += 1;
        }
        assert_eq!(counts[0] + counts[1], 40);
        let diff = counts[0].abs_diff(counts[1]);
        assert!(diff <= 1, "counts {counts:?} should be nearly equal");
    }

    #[test]
    fn byte_fairness_with_unequal_packet_sizes() {
        // Flow 0 sends 1460-byte packets, flow 1 sends 292-byte packets.
        // After many rounds, bytes served should be roughly equal even though
        // packet counts differ by ~5x.
        let mut a = PacketArena::new();
        let mut d = Drr::new(DrrConfig {
            quantum_bytes: 1500,
            total_capacity_pkts: 100_000,
        });
        for _ in 0..200 {
            enq(&mut d, &mut a, pkt(0, 1460));
        }
        for _ in 0..1000 {
            enq(&mut d, &mut a, pkt(1, 292 - 40));
        }
        let mut bytes = [0u64; 2];
        for _ in 0..600 {
            if let Some(id) = d.dequeue(&mut a, Nanos::ZERO) {
                bytes[a[id].flow.0 as usize] += a[id].size as u64;
            }
        }
        let ratio = bytes[0] as f64 / bytes[1] as f64;
        assert!(
            (0.7..1.4).contains(&ratio),
            "byte ratio {ratio} not near 1 ({bytes:?})"
        );
    }

    #[test]
    fn flow_state_is_cleaned_up() {
        let mut a = PacketArena::new();
        let mut d = Drr::new(DrrConfig::default());
        enq(&mut d, &mut a, pkt(0, 100));
        assert_eq!(d.backlogged_flows(), 1);
        d.dequeue(&mut a, Nanos::ZERO);
        assert_eq!(d.backlogged_flows(), 0);
        assert!(d.flows.is_empty(), "idle flow queues must be removed");
    }

    #[test]
    fn capacity_drop_comes_from_longest_flow() {
        let mut a = PacketArena::new();
        let mut d = Drr::new(DrrConfig {
            total_capacity_pkts: 5,
            ..Default::default()
        });
        for _ in 0..5 {
            enq(&mut d, &mut a, pkt(0, 1000));
        }
        match enq(&mut d, &mut a, pkt(1, 1000)) {
            Enqueued::Dropped(id) => assert_eq!(a[id].flow.0, 0),
            _ => panic!("expected drop"),
        }
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        let mut a = PacketArena::new();
        let mut d = Drr::new(DrrConfig::default());
        // Mixed backlog across three flows, partially drained so deficits
        // and round-robin position are mid-flight.
        for i in 0..30u64 {
            enq(&mut d, &mut a, pkt(i % 3, 400 + (i as u32 % 5) * 300));
        }
        for _ in 0..7 {
            let id = d.dequeue(&mut a, Nanos::ZERO).unwrap();
            a.free(id);
        }

        let mut bytes = Vec::new();
        d.save_state(&mut bytes);
        let mut pkts = Vec::new();
        d.for_each_pkt_mut(&mut |id| pkts.push(a[*id].clone()));

        let mut a2 = PacketArena::new();
        let mut d2 = Drr::new(DrrConfig::default());
        let mut r = serde::binary::Reader::new(&bytes);
        d2.load_state(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes after restore");
        let mut next = pkts.into_iter();
        d2.for_each_pkt_mut(&mut |id| *id = a2.insert(next.next().expect("packet for each ref")));
        assert!(next.next().is_none());

        let mut resaved = Vec::new();
        d2.save_state(&mut resaved);
        assert_eq!(bytes, resaved, "restore must be lossless");
        assert_eq!(d.backlogged_flows(), d2.backlogged_flows());
        // Identical drain: same (flow, size) sequence from both instances.
        loop {
            let x = d.dequeue(&mut a, Nanos::ZERO).map(|id| {
                let v = (a[id].flow.0, a[id].size);
                a.free(id);
                v
            });
            let y = d2.dequeue(&mut a2, Nanos::ZERO).map(|id| {
                let v = (a2[id].flow.0, a2[id].size);
                a2.free(id);
                v
            });
            assert_eq!(x, y, "divergent drain after restore");
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn truncated_state_fails_loudly() {
        let mut a = PacketArena::new();
        let mut d = Drr::new(DrrConfig::default());
        enq(&mut d, &mut a, pkt(0, 500));
        let mut bytes = Vec::new();
        d.save_state(&mut bytes);
        bytes.truncate(bytes.len() - 1);
        let mut d2 = Drr::new(DrrConfig::default());
        let mut r = serde::binary::Reader::new(&bytes);
        assert!(d2.load_state(&mut r).is_err());
    }

    #[test]
    fn dequeue_on_empty_is_none() {
        let mut a = PacketArena::new();
        let mut d = Drr::new(DrrConfig::default());
        assert!(d.dequeue(&mut a, Nanos::ZERO).is_none());
    }
}
