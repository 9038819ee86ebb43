//! Stochastic Fairness Queueing (SFQ), after McKenney (INFOCOM 1990).
//!
//! SFQ hashes each flow's five-tuple into one of a fixed number of buckets
//! and serves the buckets round-robin, one quantum of bytes at a time. It is
//! the paper's default sendbox scheduling policy: short flows no longer wait
//! behind long flows' queues, which is where most of Bundler's FCT
//! improvement comes from (Figure 9).

use bundler_types::{Nanos, PacketArena, PacketId};
use serde::binary::{Decode, DecodeError, Encode, Reader, State};

use crate::rr::{FlowQueue, RoundRobin};
use crate::{Enqueued, PktRef, SchedStats, Scheduler};

/// Number of hash buckets, the Linux default. A flow's bucket is its
/// five-tuple digest modulo this; the hash is never perturbed, so runs are
/// reproducible.
const BUCKETS: usize = 128;

/// Stochastic Fairness Queueing scheduler.
#[derive(Debug)]
pub struct Sfq {
    /// Deficit round robin over the hash buckets, keyed by bucket index.
    rr: RoundRobin<Vec<FlowQueue>>,
    /// Sojourn recording, boxed so the disabled (default) case costs one
    /// pointer. SFQ has no AQM drop state; only overflow drops export.
    obs: Option<Box<bundler_obs::SchedObs>>,
}

impl Sfq {
    /// Creates an SFQ scheduler holding at most `capacity_pkts` packets
    /// across its buckets; past that, a packet is dropped from the longest
    /// bucket, as in the Linux implementation.
    pub fn new(capacity_pkts: usize) -> Self {
        let buckets = (0..BUCKETS).map(|_| FlowQueue::default()).collect();
        Sfq {
            rr: RoundRobin::new(buckets, capacity_pkts),
            obs: None,
        }
    }
}

impl Scheduler for Sfq {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let p = arena.get_mut(pkt);
        p.enqueued_at = now;
        let (bucket, size) = (p.key.digest() % BUCKETS as u64, p.size);
        self.rr.enqueue(bucket, PktRef { id: pkt, size })
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: Nanos) -> Option<PacketId> {
        let p = self.rr.dequeue()?;
        if let Some(obs) = self.obs.as_deref_mut() {
            let sojourn = now.saturating_since(arena[p.id].enqueued_at);
            obs.sojourn.record(sojourn.as_nanos());
        }
        Some(p.id)
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
        for bucket in self.rr.queues.iter_mut() {
            for p in bucket.queue.iter_mut() {
                f(&mut p.id);
            }
        }
    }

    fn name(&self) -> &'static str {
        "sfq"
    }

    fn set_obs(&mut self, on: bool) {
        self.obs = on.then(Default::default);
    }

    fn take_obs(&mut self) -> Option<bundler_obs::SchedObs> {
        self.obs.take().map(|mut obs| {
            obs.aqm_drops = self.rr.stats.dropped;
            *obs
        })
    }
}

// The bucket count is the constant `BUCKETS`; it goes out anyway, as the
// bucket vector's length, and a load refuses any other count rather than
// silently re-hash flows into different buckets.
impl State for Sfq {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.rr.queues.encode(out);
        self.rr.active.encode(out);
        self.rr.save_totals(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let buckets = Vec::<FlowQueue>::decode(r)?;
        if buckets.len() != self.rr.queues.len() {
            return Err(r.error("sfq bucket count mismatch"));
        }
        self.rr.queues = buckets;
        self.rr.active = Decode::decode(r)?;
        self.rr
            .load_totals(r, "sfq totals do not match the bucket queues")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};

    fn pkt(flow: u64, size: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(
                ipv4(10, 0, 0, 1),
                1000 + flow as u16,
                ipv4(10, 0, 1, (flow % 250) as u8 + 1),
                80,
            ),
            0,
            size,
            Nanos::ZERO,
        )
    }

    fn enq(s: &mut Sfq, a: &mut PacketArena, p: Packet) -> Enqueued {
        let id = a.insert(p);
        s.enqueue(id, a, Nanos::ZERO)
    }

    #[test]
    fn interleaves_two_flows() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(1024);
        // Flow 0 dumps 10 packets, then flow 1 dumps 10 packets.
        for _ in 0..10 {
            enq(&mut s, &mut a, pkt(0, 1000));
        }
        for _ in 0..10 {
            enq(&mut s, &mut a, pkt(1, 1000));
        }
        let ids: Vec<_> = std::iter::from_fn(|| s.dequeue(&mut a, Nanos::ZERO)).collect();
        let order: Vec<u64> = ids.iter().map(|&id| a[id].flow.0).collect();
        assert_eq!(order.len(), 20);
        // In the first 10 dequeues both flows must appear (fair interleaving),
        // unlike FIFO where flow 0 would fully drain first.
        let first_half: Vec<u64> = order[..10].to_vec();
        assert!(first_half.contains(&0));
        assert!(first_half.contains(&1));
    }

    #[test]
    fn short_flow_not_stuck_behind_long_flow() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(1024);
        for _ in 0..100 {
            enq(&mut s, &mut a, pkt(0, 1460));
        }
        // A single-packet "short flow" arrives after the long flow's burst.
        enq(&mut s, &mut a, pkt(1, 100));
        // It must be served within the first couple of dequeues, not after
        // all 100 packets of flow 0.
        let mut position = None;
        for i in 0..102 {
            if let Some(id) = s.dequeue(&mut a, Nanos::ZERO) {
                if a[id].flow.0 == 1 {
                    position = Some(i);
                    break;
                }
            }
        }
        assert!(
            position.expect("short flow served") <= 2,
            "short flow served at {position:?}"
        );
    }

    #[test]
    fn drops_from_longest_bucket_when_full() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(10);
        for _ in 0..10 {
            assert!(!enq(&mut s, &mut a, pkt(0, 1000)).is_drop());
        }
        // Flow 1's packet arrives when the scheduler is full; the drop must
        // come from flow 0 (the longest bucket), not from flow 1.
        match enq(&mut s, &mut a, pkt(1, 1000)) {
            Enqueued::Dropped(id) => {
                assert_eq!(a[id].flow.0, 0);
                a.free(id);
            }
            _ => panic!("expected a drop"),
        }
        assert_eq!(s.len_packets(), 10);
        assert_eq!(s.stats().dropped, 1);
    }

    #[test]
    fn many_flows_served_fairly() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(1024);
        const FLOWS: u64 = 32;
        const PER_FLOW: usize = 8;
        for f in 0..FLOWS {
            for _ in 0..PER_FLOW {
                enq(&mut s, &mut a, pkt(f, 1000));
            }
        }
        // After FLOWS dequeues, the per-flow counts should be nearly equal
        // (hash collisions can pair some flows in one bucket).
        let mut counts = vec![0usize; FLOWS as usize];
        for _ in 0..FLOWS {
            let id = s.dequeue(&mut a, Nanos::ZERO).unwrap();
            counts[a[id].flow.0 as usize] += 1;
        }
        let served: usize = counts.iter().filter(|&&c| c > 0).count();
        assert!(
            served >= (FLOWS as usize) / 2,
            "only {served} distinct flows served in first round"
        );
    }

    #[test]
    fn conserves_packets_and_bytes() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(1024);
        let mut in_bytes = 0u64;
        for f in 0..5 {
            for i in 0..7 {
                let p = pkt(f, 100 + i * 10);
                in_bytes += p.size as u64;
                enq(&mut s, &mut a, p);
            }
        }
        assert_eq!(s.len_packets(), 35);
        assert_eq!(s.len_bytes(), in_bytes);
        let mut out_bytes = 0u64;
        let mut n = 0;
        while let Some(id) = s.dequeue(&mut a, Nanos::ZERO) {
            out_bytes += a[id].size as u64;
            a.free(id);
            n += 1;
        }
        assert_eq!(n, 35);
        assert_eq!(out_bytes, in_bytes);
        assert!(s.is_empty());
    }

    #[test]
    fn obs_export_carries_sojourns_and_overflow_drops() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(4);
        assert!(s.take_obs().is_none(), "disabled by default");
        s.set_obs(true);
        for _ in 0..6 {
            if let Enqueued::Dropped(id) = enq(&mut s, &mut a, pkt(0, 1000)) {
                a.free(id);
            }
        }
        while let Some(id) = s.dequeue(&mut a, Nanos::from_millis(3)) {
            a.free(id);
        }
        let obs = s.take_obs().expect("enabled");
        assert_eq!(obs.sojourn.count(), 4, "one sojourn per delivery");
        assert_eq!(obs.aqm_drops, 2, "overflow drops export");
        assert_eq!(obs.drop_entries, 0, "SFQ has no AQM drop state");
        assert!(s.take_obs().is_none(), "take drains the export");
    }

    #[test]
    fn restore_rejects_totals_the_buckets_do_not_hold() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(1024);
        for i in 0..6 {
            enq(&mut s, &mut a, pkt(i % 3, 500));
        }
        crate::tests::assert_rejects_patched_totals(&s, || Box::new(Sfq::new(1024)));
    }

    #[test]
    fn restore_rejects_a_different_bucket_count() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(1024);
        enq(&mut s, &mut a, pkt(0, 500));
        crate::tests::assert_rejects_patched_bucket_count(
            &s,
            Box::new(Sfq::new(1024)),
            "sfq bucket count mismatch",
        );
    }

    #[test]
    fn empty_dequeue_returns_none() {
        let mut a = PacketArena::new();
        let mut s = Sfq::new(1024);
        assert!(s.dequeue(&mut a, Nanos::ZERO).is_none());
    }
}
