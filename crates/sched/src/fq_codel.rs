//! FQ-CoDel: fair queueing with per-queue CoDel (RFC 8290).
//!
//! Flows are hashed into buckets (like SFQ), buckets are served with deficit
//! round robin, and each bucket runs its own CoDel drop state machine. New
//! flows get a scheduling boost (the "new flow" list is served before the
//! "old flow" list), which is what gives sparse latency-sensitive flows very
//! low delay. The paper reports that Bundler with FQ-CoDel cuts median
//! end-to-end RTTs by 97 %.

use std::collections::VecDeque;

use bundler_types::{Nanos, PacketArena, PacketId};
use serde::binary::{Decode, DecodeError, Encode, Reader, State};

use crate::codel::{CodelState, CodelVerdict};
use crate::longest::LongestTracker;
use crate::{Enqueued, PktRef, SchedStats, Scheduler, QUANTUM_BYTES};

/// Number of hash buckets, RFC 8290's default. A flow's bucket is its
/// five-tuple digest modulo this, as in SFQ.
const BUCKETS: usize = 1024;

#[derive(Debug)]
struct Bucket {
    queue: VecDeque<PktRef>,
    bytes: u64,
    deficit: i64,
    codel: CodelState,
    /// Whether this bucket is currently on the new-flows or old-flows list
    /// (or neither).
    membership: Membership,
}

serde::layout!(state Bucket { queue, bytes, deficit, codel, membership });

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Membership {
    None,
    New,
    Old,
}

serde::layout!(enum Membership { 0 => None, 1 => New, 2 => Old });

/// FQ-CoDel scheduler.
#[derive(Debug)]
pub struct FqCodel {
    buckets: Vec<Bucket>,
    new_flows: VecDeque<usize>,
    old_flows: VecDeque<usize>,
    /// Longest-bucket (by bytes) index for overflow drops.
    longest: LongestTracker,
    total_pkts: usize,
    total_bytes: u64,
    stats: SchedStats,
    /// Total packet capacity across all buckets.
    capacity: usize,
    /// Sojourn recording, boxed so the disabled (default) case costs one
    /// pointer; per-bucket drop-state counters live in each `CodelState`.
    obs: Option<Box<bundler_obs::SchedObs>>,
}

impl FqCodel {
    /// Creates an FQ-CoDel scheduler holding at most `capacity_pkts`
    /// packets across its buckets.
    pub fn new(capacity_pkts: usize) -> Self {
        let buckets = (0..BUCKETS)
            .map(|_| Bucket {
                queue: VecDeque::new(),
                bytes: 0,
                deficit: 0,
                codel: CodelState::default(),
                membership: Membership::None,
            })
            .collect();
        FqCodel {
            buckets,
            new_flows: VecDeque::new(),
            old_flows: VecDeque::new(),
            longest: LongestTracker::new(),
            total_pkts: 0,
            total_bytes: 0,
            stats: SchedStats::default(),
            capacity: capacity_pkts,
            obs: None,
        }
    }

    /// Total packets dropped by per-bucket CoDel (not tail overflow).
    pub fn aqm_drops(&self) -> u64 {
        self.buckets.iter().map(|b| b.codel.total_drops).sum()
    }

    fn drop_from_longest(&mut self) -> Option<PktRef> {
        let longest = self.longest.longest()? as usize;
        let b = &mut self.buckets[longest];
        let p = b.queue.pop_back()?;
        b.bytes -= p.size as u64;
        self.total_pkts -= 1;
        self.total_bytes -= p.size as u64;
        self.longest.set(longest as u64, b.bytes);
        Some(p)
    }

    /// Serves one packet from the bucket at the head of `list`, applying
    /// CoDel. Returns the packet, or None if the head bucket needs rotation
    /// or removal (caller loops).
    fn serve_head(&mut self, from_new: bool, arena: &mut PacketArena, now: Nanos) -> HeadOutcome {
        let idx = {
            let list = if from_new {
                &self.new_flows
            } else {
                &self.old_flows
            };
            match list.front() {
                Some(&i) => i,
                None => return HeadOutcome::ListEmpty,
            }
        };
        let bucket = &mut self.buckets[idx];

        if bucket.deficit <= 0 {
            // Out of deficit: add a quantum and move to the end of the old
            // list (new flows that exhaust their quantum become old flows).
            bucket.deficit += QUANTUM_BYTES;
            if from_new {
                self.new_flows.pop_front();
            } else {
                self.old_flows.pop_front();
            }
            bucket.membership = Membership::Old;
            self.old_flows.push_back(idx);
            return HeadOutcome::Rotated;
        }

        loop {
            match bucket.queue.pop_front() {
                None => {
                    // Bucket empty: remove from its list. An empty new flow
                    // moves to the old list once (per RFC) so it keeps its
                    // quantum priority briefly; we simplify by removing it.
                    if from_new {
                        self.new_flows.pop_front();
                    } else {
                        self.old_flows.pop_front();
                    }
                    bucket.membership = Membership::None;
                    return HeadOutcome::Rotated;
                }
                Some(p) => {
                    bucket.bytes -= p.size as u64;
                    self.total_pkts -= 1;
                    self.total_bytes -= p.size as u64;
                    self.longest.set(idx as u64, bucket.bytes);
                    let sojourn = now.saturating_since(arena[p.id].enqueued_at);
                    match bucket.codel.on_dequeue(sojourn, bucket.bytes, now) {
                        CodelVerdict::Drop => {
                            self.stats.dropped += 1;
                            self.stats.dropped_bytes += p.size as u64;
                            // AQM drops consume the packet immediately.
                            arena.free(p.id);
                            continue;
                        }
                        CodelVerdict::Deliver => {
                            if let Some(obs) = self.obs.as_deref_mut() {
                                obs.sojourn.record(sojourn.as_nanos());
                            }
                            bucket.deficit -= p.size as i64;
                            self.stats.dequeued += 1;
                            return HeadOutcome::Packet(p.id);
                        }
                    }
                }
            }
        }
    }
}

enum HeadOutcome {
    Packet(PacketId),
    Rotated,
    ListEmpty,
}

impl Scheduler for FqCodel {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let (size, digest) = {
            let p = arena.get_mut(pkt);
            p.enqueued_at = now;
            (p.size, p.key.digest())
        };
        let idx = (digest % BUCKETS as u64) as usize;
        let bucket = &mut self.buckets[idx];
        bucket.bytes += size as u64;
        bucket.queue.push_back(PktRef { id: pkt, size });
        self.longest.set(idx as u64, bucket.bytes);
        self.total_pkts += 1;
        self.total_bytes += size as u64;
        self.stats.enqueued += 1;
        if bucket.membership == Membership::None {
            bucket.membership = Membership::New;
            bucket.deficit = QUANTUM_BYTES;
            self.new_flows.push_back(idx);
        }
        if self.total_pkts > self.capacity {
            if let Some(dropped) = self.drop_from_longest() {
                self.stats.dropped += 1;
                self.stats.dropped_bytes += dropped.size as u64;
                return Enqueued::Dropped(dropped.id);
            }
        }
        Enqueued::Queued
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: Nanos) -> Option<PacketId> {
        let mut guard = 0usize;
        let max_iter = (self.new_flows.len() + self.old_flows.len()).saturating_mul(3) + 4;
        loop {
            guard += 1;
            if guard > max_iter {
                return None;
            }
            // New flows are always served before old flows.
            let outcome = if !self.new_flows.is_empty() {
                self.serve_head(true, arena, now)
            } else if !self.old_flows.is_empty() {
                self.serve_head(false, arena, now)
            } else {
                return None;
            };
            match outcome {
                HeadOutcome::Packet(p) => return Some(p),
                HeadOutcome::Rotated | HeadOutcome::ListEmpty => continue,
            }
        }
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
        for bucket in self.buckets.iter_mut() {
            for p in bucket.queue.iter_mut() {
                f(&mut p.id);
            }
        }
    }

    fn name(&self) -> &'static str {
        "fq_codel"
    }

    fn set_obs(&mut self, on: bool) {
        self.obs = on.then(Default::default);
    }

    fn take_obs(&mut self) -> Option<bundler_obs::SchedObs> {
        self.obs.take().map(|mut obs| {
            obs.aqm_drops = self.aqm_drops();
            for b in &self.buckets {
                obs.drop_entries += b.codel.drop_entries;
                obs.drop_exits += b.codel.drop_exits;
            }
            *obs
        })
    }
}

// The bucket count is the constant `BUCKETS`; it goes out anyway, and a
// load refuses any other count rather than silently re-hash flows into
// different buckets.
impl State for FqCodel {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.buckets.len().encode(out);
        for b in &self.buckets {
            b.save_state(out);
        }
        self.new_flows.encode(out);
        self.old_flows.encode(out);
        (self.total_pkts, self.total_bytes, self.stats).encode(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        if usize::decode(r)? != self.buckets.len() {
            return Err(r.error("fq_codel bucket count mismatch"));
        }
        for (i, b) in self.buckets.iter_mut().enumerate() {
            b.load_state(r)?;
            // Longest tracking is by bytes for this policy.
            self.longest.set(i as u64, b.bytes);
        }
        self.new_flows = Decode::decode(r)?;
        self.old_flows = Decode::decode(r)?;
        let n = self.buckets.len();
        if self
            .new_flows
            .iter()
            .chain(&self.old_flows)
            .any(|&idx| idx >= n)
        {
            return Err(r.error("fq_codel flow-list bucket out of range"));
        }
        (self.total_pkts, self.total_bytes, self.stats) = Decode::decode(r)?;
        if crate::queued(self.buckets.iter().map(|b| &b.queue))
            != (self.total_pkts, self.total_bytes)
        {
            return Err(r.error("fq_codel totals do not match the bucket queues"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, Duration, FlowId, FlowKey, Packet};

    fn pkt(flow: u64, size: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(
                ipv4(10, 0, 0, 1),
                1000 + flow as u16,
                ipv4(10, 0, 1, (flow % 200) as u8 + 1),
                80,
            ),
            0,
            size,
            Nanos::ZERO,
        )
    }

    fn enq(s: &mut FqCodel, a: &mut PacketArena, p: Packet, now: Nanos) -> Enqueued {
        let id = a.insert(p);
        s.enqueue(id, a, now)
    }

    #[test]
    fn sparse_flow_gets_priority_over_bulk_flow() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        for _ in 0..200 {
            enq(&mut s, &mut a, pkt(0, 1460), Nanos::ZERO);
        }
        // Drain a bit so flow 0 becomes an "old" flow.
        for _ in 0..5 {
            s.dequeue(&mut a, Nanos::from_millis(1));
        }
        // A sparse flow's packet arrives; it lands on the new-flows list and
        // must be served next.
        enq(&mut s, &mut a, pkt(1, 100), Nanos::from_millis(2));
        let next = s.dequeue(&mut a, Nanos::from_millis(2)).unwrap();
        assert_eq!(
            a[next].flow.0, 1,
            "sparse flow should be served immediately"
        );
    }

    #[test]
    fn codel_drops_under_standing_queue() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        for _ in 0..500 {
            enq(&mut s, &mut a, pkt(0, 1460), Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        let mut delivered = 0;
        while !s.is_empty() {
            now += Duration::from_millis(2);
            if let Some(id) = s.dequeue(&mut a, now) {
                a.free(id);
                delivered += 1;
            }
        }
        assert!(s.aqm_drops() > 0);
        assert!(delivered > 0);
        assert_eq!(delivered + s.aqm_drops() as usize, 500);
        assert!(
            a.is_empty(),
            "every packet either delivered+freed or AQM-freed"
        );
    }

    #[test]
    fn obs_export_carries_sojourns_and_drop_transitions() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        assert!(s.take_obs().is_none(), "disabled by default");
        s.set_obs(true);
        // Standing queue: force CoDel into (and out of) its dropping state.
        for _ in 0..200 {
            enq(&mut s, &mut a, pkt(0, 1460), Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        while !s.is_empty() {
            now += Duration::from_millis(1);
            if let Some(id) = s.dequeue(&mut a, now) {
                a.free(id);
            }
        }
        let obs = s.take_obs().expect("enabled");
        assert!(obs.sojourn.count() > 0, "delivered sojourns recorded");
        assert_eq!(obs.aqm_drops, s.aqm_drops());
        assert!(obs.drop_entries > 0, "entered dropping state");
        assert!(
            obs.drop_exits <= obs.drop_entries,
            "cannot exit more episodes than were entered"
        );
        assert!(s.take_obs().is_none(), "take drains the export");
    }

    #[test]
    fn fair_between_two_bulk_flows() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        for _ in 0..100 {
            enq(&mut s, &mut a, pkt(0, 1460), Nanos::ZERO);
            enq(&mut s, &mut a, pkt(1, 1460), Nanos::ZERO);
        }
        let mut counts = [0usize; 2];
        for _ in 0..50 {
            let id = s.dequeue(&mut a, Nanos::ZERO).unwrap();
            counts[a[id].flow.0 as usize] += 1;
        }
        assert!(
            counts[0] > 15 && counts[1] > 15,
            "both flows should be served: {counts:?}"
        );
    }

    #[test]
    fn total_capacity_enforced() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10);
        let mut drops = 0;
        for i in 0..20 {
            if enq(&mut s, &mut a, pkt(i % 3, 1000), Nanos::ZERO).is_drop() {
                drops += 1;
            }
        }
        assert_eq!(s.len_packets(), 10);
        assert_eq!(drops, 10);
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        // Standing queues across several flows, drained far enough that
        // some buckets are mid-CoDel-episode and lists are mid-rotation.
        // Flows 45 and 81 share a bucket, so collisions are exercised.
        const FLOWS: [u64; 5] = [0, 1, 2, 45, 81];
        for i in 0..300 {
            enq(&mut s, &mut a, pkt(FLOWS[i % 5], 1460), Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        for _ in 0..150 {
            now += Duration::from_millis(2);
            if let Some(id) = s.dequeue(&mut a, now) {
                a.free(id);
            }
        }
        assert!(s.aqm_drops() > 0, "want drop state in the snapshot");

        let mut bytes = Vec::new();
        s.save_state(&mut bytes);
        let mut pkts = Vec::new();
        s.for_each_pkt_mut(&mut |id| pkts.push(a[*id].clone()));

        let mut a2 = PacketArena::new();
        let mut s2 = FqCodel::new(10240);
        let mut r = serde::binary::Reader::new(&bytes);
        s2.load_state(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes after restore");
        let mut next = pkts.into_iter();
        s2.for_each_pkt_mut(&mut |id| *id = a2.insert(next.next().expect("packet for each ref")));
        assert!(next.next().is_none());

        let mut resaved = Vec::new();
        s2.save_state(&mut resaved);
        assert_eq!(bytes, resaved, "restore must be lossless");
        // Identical drain: same (flow, size) sequence and drop counts.
        loop {
            now += Duration::from_millis(2);
            let x = s.dequeue(&mut a, now).map(|id| {
                let v = (a[id].flow.0, a[id].size);
                a.free(id);
                v
            });
            let y = s2.dequeue(&mut a2, now).map(|id| {
                let v = (a2[id].flow.0, a2[id].size);
                a2.free(id);
                v
            });
            assert_eq!(x, y, "divergent drain after restore");
            assert_eq!(s.aqm_drops(), s2.aqm_drops());
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn restore_into_wrong_geometry_is_rejected() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        enq(&mut s, &mut a, pkt(0, 500), Nanos::ZERO);
        crate::tests::assert_rejects_patched_bucket_count(
            &s,
            Box::new(FqCodel::new(10240)),
            "fq_codel bucket count mismatch",
        );
    }

    #[test]
    fn restore_rejects_totals_the_buckets_do_not_hold() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        for i in 0..6 {
            enq(&mut s, &mut a, pkt(i % 3, 500), Nanos::ZERO);
        }
        crate::tests::assert_rejects_patched_totals(&s, || Box::new(FqCodel::new(10240)));
    }

    #[test]
    fn empty_dequeue_is_none() {
        let mut a = PacketArena::new();
        let mut s = FqCodel::new(10240);
        assert!(s.dequeue(&mut a, Nanos::ZERO).is_none());
        enq(&mut s, &mut a, pkt(0, 100), Nanos::ZERO);
        assert!(s.dequeue(&mut a, Nanos::ZERO).is_some());
        assert!(s.dequeue(&mut a, Nanos::ZERO).is_none());
    }
}
