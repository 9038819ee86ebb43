//! Deficit Round Robin (Shreedhar & Varghese, SIGCOMM 1995).
//!
//! DRR keeps an exact per-flow queue (keyed on the five-tuple digest rather
//! than a fixed bucket array) and serves backlogged flows round-robin, each
//! receiving a byte quantum per round. It is the building block for the
//! "ideal" fair queue used by the In-Network baseline and is exposed as a
//! sendbox policy in its own right.

use bundler_types::{IdHashMap, Nanos, PacketArena, PacketId};
use serde::binary::{decode_len, Decode, DecodeError, Encode, Reader, State};

use crate::rr::{FlowQueue, RoundRobin};
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

/// Deficit Round Robin scheduler with exact per-flow queues.
#[derive(Debug)]
pub struct Drr {
    /// Deficit round robin over the flows, keyed by five-tuple digest.
    rr: RoundRobin<IdHashMap<u64, FlowQueue>>,
}

impl Drr {
    /// Creates a DRR scheduler.
    pub fn new(config: DrrConfig) -> Self {
        Drr {
            rr: RoundRobin::new(
                IdHashMap::default(),
                config.quantum_bytes,
                config.total_capacity_pkts,
            ),
        }
    }

    /// Number of distinct flows currently backlogged.
    pub fn backlogged_flows(&self) -> usize {
        self.rr.active.len()
    }
}

impl Scheduler for Drr {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let p = arena.get_mut(pkt);
        p.enqueued_at = now;
        let (key, size) = (p.key.digest(), p.size);
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
        "drr"
    }
}

// Flows go out in active-list order — the canonical traversal — so map
// iteration order never leaks into the byte stream, and the active list is
// implied by that order. Stale empty map entries (left behind by overflow
// drops) carry no state and are not written.
impl State for Drr {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.rr.active.len().encode(out);
        for key in &self.rr.active {
            key.encode(out);
            self.rr.queues[key].encode(out);
        }
        self.rr.save_totals(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let n = decode_len(r, "drr flow count")?;
        self.rr.queues.clear();
        self.rr.active.clear();
        for _ in 0..n {
            let (key, fq) = <(u64, FlowQueue)>::decode(r)?;
            if fq.queue.is_empty() {
                return Err(r.error("drr active flow has no packets"));
            }
            self.rr.active.push_back(key);
            if self.rr.queues.insert(key, fq).is_some() {
                return Err(r.error("drr duplicate flow key"));
            }
        }
        self.rr
            .load_totals(r, "drr totals do not match the flow queues")
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
        assert!(d.rr.queues.is_empty(), "idle flow queues must be removed");
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
