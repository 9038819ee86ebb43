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
/// configuration. Queued packet ids are placeholders in it: like migration,
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
            Policy::Sfq => Box::new(sfq::Sfq::new(sfq::SfqConfig {
                total_capacity_pkts: capacity_pkts,
                ..Default::default()
            })),
            Policy::FqCodel => Box::new(fq_codel::FqCodel::new(fq_codel::FqCodelConfig {
                total_capacity_pkts: capacity_pkts,
                ..Default::default()
            })),
            Policy::FairQueue => Box::new(fq::FairQueue::new(capacity_pkts)),
            Policy::Drr => Box::new(drr::Drr::new(drr::DrrConfig {
                total_capacity_pkts: capacity_pkts,
                ..Default::default()
            })),
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

    #[test]
    fn policy_display_names_are_stable() {
        let names: Vec<String> = Policy::all().iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["fifo", "sfq", "fq_codel", "fq", "drr", "prio"]);
    }
}
