//! Packet schedulers and rate limiters for the Bundler sendbox datapath.
//!
//! The paper's prototype patches the Linux TBF qdisc so that any child qdisc
//! can be attached below the rate limiter. This crate reproduces that
//! structure in a datapath-agnostic way:
//!
//! * [`Scheduler`] is the qdisc interface (enqueue / dequeue / occupancy).
//! * Work-conserving schedulers: [`fifo::DropTailFifo`], [`sfq::Sfq`],
//!   [`drr::Drr`], [`fq::FairQueue`], [`fq_codel::FqCodel`],
//!   [`prio::StrictPriority`].
//! * AQM: [`codel::CodelState`], the CoDel drop law FQ-CoDel runs per flow.
//! * Rate enforcement: [`tbf::TokenBucket`] and [`tbf::Tbf`], the token
//!   bucket filter with a pluggable inner scheduler.
//!
//! The paper runs its sendbox qdiscs at their Linux defaults and varies only
//! the policy, so a scheduler's one setting is its packet capacity
//! ([`Policy::build`]). The rest are constants in the module that reads
//! them: the round-robin quantum (`QUANTUM_BYTES`, one MTU, shared by SFQ,
//! DRR, FQ and FQ-CoDel), `sfq::BUCKETS`, `fq_codel::BUCKETS`, and
//! CoDel's `codel::{TARGET, INTERVAL}`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codel;
pub mod drr;
pub mod fifo;
pub mod fq;
pub mod fq_codel;
mod longest;
pub mod prio;
mod rr;
pub mod sfq;
pub mod tbf;

use std::collections::VecDeque;

use bundler_types::{Nanos, PacketArena, PacketId};
use serde::binary::{Decode, DecodeError, Encode, Reader, State};

/// Outcome of handing a packet to a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Enqueued {
    /// The packet was accepted and queued.
    Queued,
    /// A packet was dropped to make room (either the arriving packet or, for
    /// schedulers like SFQ, a packet from the longest queue). The packet
    /// stays in the arena: ownership of the id passes back to the caller,
    /// who inspects it if desired and frees it.
    Dropped(PacketId),
}

impl Enqueued {
    /// True if the enqueue resulted in a drop.
    pub fn is_drop(&self) -> bool {
        matches!(self, Enqueued::Dropped(_))
    }
}

/// Internal queue entry shared by the scheduler implementations: the arena
/// id plus the packet's cached wire size, so occupancy accounting and
/// deficit checks never dereference the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PktRef {
    /// Arena handle of the queued packet.
    pub id: PacketId,
    /// Cached wire size in bytes.
    pub size: u32,
}

/// Aggregate counters every scheduler maintains.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Packets accepted into the scheduler.
    pub enqueued: u64,
    /// Packets handed back out of the scheduler.
    pub dequeued: u64,
    /// Packets dropped (at enqueue or, for AQMs, at dequeue).
    pub dropped: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
}

/// A packet scheduler (qdisc).
///
/// All schedulers are driven by caller-supplied timestamps so the same code
/// runs inside the discrete-event simulator and on a real datapath, and all
/// packets are referenced by [`PacketId`] into a caller-owned
/// [`PacketArena`]: queueing a packet moves 8 bytes, not the packet.
///
/// Schedulers read header fields (five-tuple hash, class, size) through the
/// arena at enqueue time, stamp `enqueued_at` on the arena'd packet, and —
/// for AQMs like CoDel that drop at dequeue — free AQM-dropped packets back
/// to the arena directly (reported through [`SchedStats::dropped`]).
/// Enqueue-time drops instead hand the victim's id back via
/// [`Enqueued::Dropped`]; the caller frees it.
///
/// A scheduler's [`State`] — queued packet refs, per-queue bookkeeping,
/// counters — loads into a freshly built scheduler of the same policy and
/// configuration. Queued packet ids are placeholders in it: a
/// restore rewrites them via [`Scheduler::for_each_pkt_mut`]. Observability
/// exports ([`Scheduler::take_obs`]) are host-local and not part of it.
pub trait Scheduler: Send + State {
    /// Offers a packet to the scheduler.
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued;

    /// Removes and returns the next packet to transmit, if any. The caller
    /// owns the returned id (and eventually frees it).
    fn dequeue(&mut self, arena: &mut PacketArena, now: Nanos) -> Option<PacketId>;

    /// Number of packets currently queued.
    fn len_packets(&self) -> usize;

    /// Number of bytes currently queued.
    fn len_bytes(&self) -> u64;

    /// True if no packets are queued.
    fn is_empty(&self) -> bool {
        self.len_packets() == 0
    }

    /// Lifetime counters.
    fn stats(&self) -> SchedStats;

    /// Human-readable name used in experiment output.
    fn name(&self) -> &'static str;

    /// Visits every queued packet id exactly once, allowing the caller to
    /// rewrite ids in place. The traversal must not change the scheduler's
    /// structure or state, and repeated calls on an unmodified scheduler
    /// must visit packets in the same order — the simulator relies on this
    /// to save a queue's packets by value after its [`State`] and, on
    /// loading, to rewrite the placeholder ids to the packets' new
    /// [`PacketArena`] slots in the same order.
    fn for_each_pkt_mut(&mut self, f: &mut dyn FnMut(&mut PacketId));

    /// Enables (or disables) observability export. When enabled, AQM-aware
    /// schedulers record per-packet sojourn times and drop-state
    /// transitions into a [`bundler_obs::SchedObs`] carried *inside* the
    /// scheduler. Enabling starts a fresh export. Default: no-op, for
    /// schedulers with nothing beyond [`SchedStats`] to export.
    fn set_obs(&mut self, _on: bool) {}

    /// Takes the accumulated observability export, if recording was
    /// enabled. Default: `None`.
    fn take_obs(&mut self) -> Option<bundler_obs::SchedObs> {
        None
    }
}

impl State for Box<dyn Scheduler> {
    fn save_state(&self, out: &mut Vec<u8>) {
        (**self).save_state(out)
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        (**self).load_state(r)
    }
}

/// Bytes a flow queue may send per round-robin visit, in SFQ, DRR, FQ and
/// FQ-CoDel alike: one Ethernet MTU, the Linux default.
const QUANTUM_BYTES: i64 = 1514;

/// Packets and bytes held in `queues`: what a decoded scheduler's
/// `total_pkts`/`total_bytes` must equal, or the first dequeue underflows
/// them.
fn queued<'a>(queues: impl IntoIterator<Item = &'a VecDeque<PktRef>>) -> (usize, u64) {
    queues.into_iter().fold((0, 0), |(pkts, bytes), q| {
        let size = q.iter().fold(0u64, |b, p| b.saturating_add(p.size.into()));
        (pkts + q.len(), bytes.saturating_add(size))
    })
}

impl Encode for PktRef {
    fn encode(&self, out: &mut Vec<u8>) {
        // The arena id is host-local: a restore re-inserts the packets and
        // rewrites every stored id in traversal order, so the value here is
        // never read back. Write a zeroed id instead of the live one — the
        // snapshot bytes must not depend on arena allocation order, which
        // differs between the single-threaded and sharded hosts.
        PacketId::from_index(0).encode(out);
        self.size.encode(out);
    }
}

impl Decode for PktRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PktRef {
            id: PacketId::decode(r)?,
            size: u32::decode(r)?,
        })
    }
}

serde::layout!(value SchedStats { enqueued, dequeued, dropped, dropped_bytes });

/// The scheduling policies Bundler experiments select between, used by the
/// simulator and the experiment harness to construct a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Single drop-tail FIFO queue (no scheduling benefit).
    Fifo,
    /// Stochastic Fairness Queueing, the paper's default sendbox policy.
    Sfq,
    /// FQ-CoDel: per-flow queues with CoDel AQM in each.
    FqCodel,
    /// Ideal per-flow fair queueing (used for the "In-Network" baseline).
    FairQueue,
    /// Deficit Round Robin across flow queues.
    Drr,
    /// Strict priority across traffic classes.
    StrictPriority,
}

impl Policy {
    /// Instantiates the scheduler for this policy with a total capacity of
    /// `capacity_pkts` packets.
    pub fn build(self, capacity_pkts: usize) -> Box<dyn Scheduler> {
        match self {
            Policy::Fifo => Box::new(fifo::DropTailFifo::with_packet_capacity(capacity_pkts)),
            Policy::Sfq => Box::new(sfq::Sfq::new(capacity_pkts)),
            Policy::FqCodel => Box::new(fq_codel::FqCodel::new(capacity_pkts)),
            Policy::FairQueue => Box::new(fq::FairQueue::new(capacity_pkts)),
            Policy::Drr => Box::new(drr::Drr::new(capacity_pkts)),
            Policy::StrictPriority => Box::new(prio::StrictPriority::new(capacity_pkts)),
        }
    }

    /// All policies, useful for sweeps.
    pub fn all() -> &'static [Policy] {
        &[
            Policy::Fifo,
            Policy::Sfq,
            Policy::FqCodel,
            Policy::FairQueue,
            Policy::Drr,
            Policy::StrictPriority,
        ]
    }
}

impl std::fmt::Display for Policy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Policy::Fifo => "fifo",
            Policy::Sfq => "sfq",
            Policy::FqCodel => "fq_codel",
            Policy::FairQueue => "fq",
            Policy::Drr => "drr",
            Policy::StrictPriority => "prio",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};

    /// Saves `s`, then patches its `total_pkts` and, separately, its
    /// `total_bytes` — the two counters just before the closing
    /// [`SchedStats`] — and requires a fresh scheduler to refuse each.
    pub(crate) fn assert_rejects_patched_totals(
        s: &dyn Scheduler,
        fresh: impl Fn() -> Box<dyn Scheduler>,
    ) {
        let mut bytes = Vec::new();
        s.save_state(&mut bytes);
        let stats = serde::binary::encode_to_vec(&s.stats()).len();
        for at in [bytes.len() - stats - 16, bytes.len() - stats - 8] {
            let mut patched = bytes.clone();
            patched[at] ^= 1;
            let loaded = fresh().load_state(&mut Reader::new(&patched));
            assert!(loaded.is_err(), "{}: total at byte {at} patched", s.name());
        }
    }

    /// Saves `s`, lowers the bucket count its state opens with by one, and
    /// requires `fresh` to refuse the bytes with `what`.
    pub(crate) fn assert_rejects_patched_bucket_count(
        s: &dyn Scheduler,
        mut fresh: Box<dyn Scheduler>,
        what: &str,
    ) {
        let mut bytes = Vec::new();
        s.save_state(&mut bytes);
        let count = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        bytes[..8].copy_from_slice(&(count - 1).to_le_bytes());
        let err = fresh.load_state(&mut Reader::new(&bytes)).unwrap_err();
        assert_eq!(err.what, what, "{}: bucket count patched", s.name());
    }

    fn pkt(flow: u64) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000 + flow as u16, ipv4(10, 0, 1, 1), 80),
            0,
            1460,
            Nanos::ZERO,
        )
    }

    #[test]
    fn policy_builders_produce_working_schedulers() {
        for &policy in Policy::all() {
            let mut arena = PacketArena::new();
            let mut s = policy.build(100);
            assert!(s.is_empty(), "{policy} should start empty");
            let id = arena.insert(pkt(1));
            assert!(!s.enqueue(id, &mut arena, Nanos::ZERO).is_drop());
            assert_eq!(s.len_packets(), 1);
            let out = s.dequeue(&mut arena, Nanos::from_millis(1));
            assert!(out.is_some(), "{policy} should dequeue the packet");
            assert_eq!(out, Some(id));
            assert!(s.is_empty());
            assert_eq!(s.stats().enqueued, 1);
            assert_eq!(s.stats().dequeued, 1);
            arena.free(id);
            assert!(arena.is_empty(), "{policy} should leave no live packets");
        }
    }

    /// FNV-1a, the digest the workspace's snapshot pins use.
    fn digest(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x1_0000_01b3)
        })
    }

    /// Offers packet `seq` of `flow` at `now`: the size and the traffic
    /// class vary with both, and an overflow victim is freed.
    fn offer(s: &mut dyn Scheduler, arena: &mut PacketArena, flow: u64, seq: u64, now: Nanos) {
        let p = Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000 + flow as u16, ipv4(10, 0, 1, 1), 80),
            seq,
            200 + (seq * 97 % 1300) as u32,
            now,
        )
        .with_class(bundler_types::TrafficClass(flow as u8 % 3));
        let id = arena.insert(p);
        if let Enqueued::Dropped(victim) = s.enqueue(id, arena, now) {
            arena.free(victim);
        }
    }

    /// Pins each policy's saved state, `(len, digest)`, and the digest of
    /// its dequeue order after a fixed script: a 60-packet burst over six
    /// flows into a 40-packet scheduler, which overflows, then one arrival
    /// and one departure every 2 ms for 1.2 s, which keeps a standing queue
    /// long enough to put FQ-CoDel's CoDel in its dropping state. A moved
    /// pin is a layout or scheduling behaviour change.
    #[test]
    fn scheduler_state_bytes_are_pinned() {
        const FLOWS: [u64; 10] = [0, 1, 0, 2, 0, 3, 4, 0, 5, 1];
        let mut got = Vec::new();
        for &policy in Policy::all() {
            let mut arena = PacketArena::new();
            let mut s = policy.build(40);
            s.set_obs(true);
            let mut now = Nanos::ZERO;
            for seq in 0..60 {
                offer(&mut *s, &mut arena, FLOWS[seq as usize % 10], seq, now);
            }
            let mut order = Vec::new();
            for seq in 60..660 {
                now += bundler_types::Duration::from_millis(2);
                offer(&mut *s, &mut arena, FLOWS[seq as usize % 10], seq, now);
                if let Some(id) = s.dequeue(&mut arena, now) {
                    order.extend_from_slice(&arena[id].seq.to_le_bytes());
                    arena.free(id);
                }
            }
            assert!(s.stats().dropped > 0, "{policy}: no drops");
            if policy == Policy::FqCodel {
                let obs = s.take_obs().expect("enabled");
                assert!(obs.drop_entries > 0, "CoDel never entered dropping");
            }
            let mut bytes = Vec::new();
            s.save_state(&mut bytes);
            got.push((s.name(), bytes.len(), digest(&bytes), digest(&order)));
        }
        let want = [
            ("fifo", 360, 0x715e_db68_4af6_52d5, 0x5555_e0be_4577_4ecf),
            ("sfq", 3480, 0x85ea_1513_89e1_fd97, 0xaf3a_1201_e6e4_2a07),
            (
                "fq_codel",
                68_720,
                0x3f7c_61be_fb25_2900,
                0x76eb_51dd_159e_9053,
            ),
            ("fq", 536, 0x1f22_3544_241d_7aea, 0xaf3a_1201_e6e4_2a07),
            ("drr", 496, 0x7c99_33ef_7546_6aea, 0xaf3a_1201_e6e4_2a07),
            ("prio", 432, 0xa4f3_0f37_b483_aecb, 0xc40a_dc0f_f662_8173),
        ];
        assert_eq!(got, want, "saved scheduler state or dequeue order moved");
    }

    #[test]
    fn policy_display_names_are_stable() {
        let names: Vec<String> = Policy::all().iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["fifo", "sfq", "fq_codel", "fq", "drr", "prio"]);
    }
}
