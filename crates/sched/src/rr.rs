//! The deficit-round-robin core of [`Sfq`](crate::sfq::Sfq),
//! [`Drr`](crate::drr::Drr) and [`FairQueue`](crate::fq::FairQueue).
//!
//! The three policies differ only in how a packet picks its queue — an SFQ
//! hash bucket, a five-tuple digest, a flow id — and in where the queues
//! live: a fixed bucket array, or a map keyed by flow.
//! Everything else is written here once: the active list, byte-quantum
//! dequeue (Shreedhar & Varghese, SIGCOMM 1995), drop-from-longest on
//! overflow, and the totals a snapshot checks.

use std::collections::VecDeque;

use bundler_types::{IdHashMap, PacketId};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::longest::LongestTracker;
use crate::{Enqueued, PktRef, SchedStats};

/// One queue of a round robin: its packets, their bytes, and the byte
/// allowance it has left in the current round.
#[derive(Debug, Default)]
pub(crate) struct FlowQueue {
    pub(crate) queue: VecDeque<PktRef>,
    pub(crate) bytes: u64,
    pub(crate) deficit: i64,
}

serde::layout!(value FlowQueue { queue, bytes, deficit });

/// Where a [`RoundRobin`] keeps its queues, by `u64` key.
pub(crate) trait Queues {
    /// The queue for `key`, created empty if the store has none.
    fn entry(&mut self, key: u64) -> &mut FlowQueue;
    /// The queue for `key`, if the store has one.
    fn get(&self, key: u64) -> Option<&FlowQueue>;
    /// Mutable access to the queue for `key`, if the store has one.
    fn get_mut(&mut self, key: u64) -> Option<&mut FlowQueue>;
    /// A dequeue has just emptied `key`'s queue.
    fn drained(&mut self, key: u64);
    /// Every queue the store holds, with its key, in no particular order.
    fn iter(&self) -> impl Iterator<Item = (u64, &FlowQueue)>;
}

/// SFQ's buckets: the key is the bucket index, and a bucket outlives its
/// backlog.
impl Queues for Vec<FlowQueue> {
    fn entry(&mut self, key: u64) -> &mut FlowQueue {
        &mut self[key as usize]
    }

    fn get(&self, key: u64) -> Option<&FlowQueue> {
        <[FlowQueue]>::get(self, key as usize)
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut FlowQueue> {
        <[FlowQueue]>::get_mut(self, key as usize)
    }

    fn drained(&mut self, _key: u64) {}

    fn iter(&self) -> impl Iterator<Item = (u64, &FlowQueue)> {
        <[FlowQueue]>::iter(self)
            .enumerate()
            .map(|(i, q)| (i as u64, q))
    }
}

/// DRR's digests and FQ's flow ids: a flow that a dequeue drains is
/// removed. One that an overflow drop drains stays behind, empty — FQ's
/// layout writes such flows, so they are state.
impl Queues for IdHashMap<u64, FlowQueue> {
    fn entry(&mut self, key: u64) -> &mut FlowQueue {
        self.entry(key).or_default()
    }

    fn get(&self, key: u64) -> Option<&FlowQueue> {
        self.get(&key)
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut FlowQueue> {
        self.get_mut(&key)
    }

    fn drained(&mut self, key: u64) {
        self.remove(&key);
    }

    fn iter(&self) -> impl Iterator<Item = (u64, &FlowQueue)> {
        self.iter().map(|(&k, q)| (k, q))
    }
}

/// Deficit round robin over the queues of `Q`.
#[derive(Debug)]
pub(crate) struct RoundRobin<Q> {
    pub(crate) queues: Q,
    /// Keys of the backlogged queues, in service order.
    pub(crate) active: VecDeque<u64>,
    /// Longest queue (by packets) for overflow drops. Ties resolve to the
    /// larger key rather than active-list position, a policy-free choice
    /// that stays deterministic.
    longest: LongestTracker,
    pub(crate) total_pkts: usize,
    pub(crate) total_bytes: u64,
    pub(crate) stats: SchedStats,
    /// Bytes a queue may send per round.
    quantum: i64,
    /// Total packet capacity across all queues.
    capacity: usize,
}

impl<Q: Queues> RoundRobin<Q> {
    pub(crate) fn new(queues: Q, quantum_bytes: u32, capacity_pkts: usize) -> Self {
        RoundRobin {
            queues,
            active: VecDeque::new(),
            longest: LongestTracker::new(),
            total_pkts: 0,
            total_bytes: 0,
            stats: SchedStats::default(),
            quantum: quantum_bytes as i64,
            capacity: capacity_pkts,
        }
    }

    /// Queues `p` under `key`; past capacity, drops from the tail of the
    /// longest queue, as Linux SFQ does.
    pub(crate) fn enqueue(&mut self, key: u64, p: PktRef) -> Enqueued {
        let fq = self.queues.entry(key);
        let newly_active = fq.queue.is_empty();
        fq.bytes += p.size as u64;
        fq.queue.push_back(p);
        let occupancy = fq.queue.len() as u64;
        if newly_active {
            // A queue entering the active list starts a fresh round.
            fq.deficit = self.quantum;
            self.active.push_back(key);
        }
        self.total_pkts += 1;
        self.total_bytes += p.size as u64;
        self.stats.enqueued += 1;
        self.longest.set(key, occupancy);
        if self.total_pkts > self.capacity {
            if let Some(dropped) = self.drop_from_longest() {
                self.stats.dropped += 1;
                self.stats.dropped_bytes += dropped.size as u64;
                return Enqueued::Dropped(dropped.id);
            }
        }
        Enqueued::Queued
    }

    /// The next packet in deficit-round-robin order: the queue at the head
    /// of the active list sends while its deficit covers its head packet,
    /// then moves to the back of the list with a fresh quantum.
    pub(crate) fn dequeue(&mut self) -> Option<PktRef> {
        let mut visits = 0;
        let max_visits = self.active.len().saturating_mul(2).max(2);
        while let Some(&key) = self.active.front() {
            visits += 1;
            if visits > max_visits && self.total_pkts > 0 {
                // Defensive bound; with positive quanta this should never be
                // hit, but a scheduling bug must not hang the datapath.
                break;
            }
            let fq = self.queues.get_mut(key).expect("active queue exists");
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
                    let remaining = fq.queue.len() as u64;
                    self.longest.set(key, remaining);
                    if remaining == 0 {
                        self.active.pop_front();
                        self.queues.drained(key);
                    }
                    self.stats.dequeued += 1;
                    return Some(p);
                }
                Some(_) => {
                    fq.deficit += self.quantum;
                    self.active.rotate_left(1);
                }
            }
        }
        None
    }

    fn drop_from_longest(&mut self) -> Option<PktRef> {
        let longest = self.longest.longest()?;
        let fq = self.queues.get_mut(longest)?;
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

    /// Visits every queued packet in active-list order — never map order:
    /// the traversal must be the same on the instance that saved a snapshot
    /// and the freshly built one restoring it, so queued packets pair up
    /// positionally. Every non-empty queue is on the active list.
    pub(crate) fn for_each_active_pkt_mut(&mut self, f: &mut dyn FnMut(&mut PacketId)) {
        for &key in &self.active {
            let fq = self.queues.get_mut(key).expect("active queue exists");
            for p in fq.queue.iter_mut() {
                f(&mut p.id);
            }
        }
    }

    /// Writes the totals and counters that close every round robin's
    /// layout.
    pub(crate) fn save_totals(&self, out: &mut Vec<u8>) {
        (self.total_pkts, self.total_bytes, self.stats).encode(out);
    }

    /// Reads what [`RoundRobin::save_totals`] wrote, once the queues and
    /// the active list are loaded, and rebuilds the longest-queue tracker.
    /// Rejects an active list naming a queue the store lacks, and totals
    /// that do not count exactly the packets of the queues — and of the
    /// active list, which is the packet walk: it must reach every queued
    /// packet exactly once, or the first dequeue underflows.
    pub(crate) fn load_totals(
        &mut self,
        r: &mut Reader<'_>,
        mismatch: &'static str,
    ) -> Result<(), DecodeError> {
        (self.total_pkts, self.total_bytes, self.stats) = Decode::decode(r)?;
        self.longest = LongestTracker::new();
        for (key, fq) in self.queues.iter() {
            self.longest.set(key, fq.queue.len() as u64);
        }
        let walk: Option<Vec<_>> = self
            .active
            .iter()
            .map(|&key| self.queues.get(key).map(|fq| &fq.queue))
            .collect();
        let Some(walk) = walk else {
            return Err(r.error("active queue unknown"));
        };
        let totals = (self.total_pkts, self.total_bytes);
        if crate::queued(walk) != totals
            || crate::queued(self.queues.iter().map(|(_, fq)| &fq.queue)) != totals
        {
            return Err(r.error(mismatch));
        }
        Ok(())
    }
}
