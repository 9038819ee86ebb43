//! The discrete-event queue and the canonical event-ordering keys.
//!
//! Events are ordered by `(timestamp, key)`. The key is not a global
//! insertion counter: it is `(logical process, per-process sequence)`,
//! assigned by whichever logical process *scheduled* the event. A logical
//! process (LP) is a unit of simulation state that only interacts with the
//! rest of the world through timestamped events: each bundle complex (its
//! flows' endhosts, its sendbox datapath and its remote receivebox) is one
//! LP, the direct cross-traffic endhosts are one LP, and the shared
//! bottleneck (paths + load balancer) is the net LP.
//!
//! Because each LP's sequence numbers depend only on that LP's own
//! execution history, the total `(timestamp, key)` order is *canonical*:
//! it does not change when LPs are partitioned across shards. That is the
//! property that lets `bundler-shard` run workers in parallel and still
//! merge cross-shard mailboxes into exactly the order the single-threaded
//! engine produces — bit-identical results for any shard count.
//!
//! [`EventQueue`] is a hierarchical calendar queue
//! ([`bundler_core::wheel::CalendarQueue`]): O(1) amortized push/pop with
//! per-level occupancy bitmaps. Its pop order is property-tested against
//! the reference binary heap in `bundler_core::wheel` and
//! `tests/properties.rs`.
//!
//! [`Event`] itself is deliberately small: packets live in a
//! [`PacketArena`](bundler_types::PacketArena) and events carry 4-byte
//! [`PacketId`]s, flow arrivals reference the workload table by index, and
//! the out-of-band feedback messages are small `Copy` structs. A
//! compile-time guard keeps future variants from re-bloating the enum (it
//! used to carry whole ~100-byte `Packet`s through every heap sift).
//!
//! The wheel holds less still. An entry is copied at every hop from
//! `schedule` to `pop` (bucket, cascade, sorted buffer, return value), and
//! the only payload wider than eight bytes is `CongestionAckArrive`'s
//! 40-byte ACK — so inside this module (and nowhere else) the queue is a
//! `CalendarQueue<Slim>`: a 16-byte `{ tag, v }`, 32 bytes with the wheel's
//! `(deadline, key)`, half of what an inline `Event` made it. `schedule`
//! packs, `pop` and `extract_if` unpack, and callers only ever see whole
//! `Event`s. The tag is the byte the snapshot codec writes for the variant
//! (one table, `event_tags!`, numbers the variants for both), and the one
//! wide payload parks in a side slab the queue owns, because feedback in
//! flight *is* queue state — it exists exactly from `schedule` to
//! `pop`/`extract_if`, which hand it back by value, so snapshots never
//! see a slot number.

use bundler_core::feedback::{BundleId, CongestionAck, EpochSizeUpdate};
use bundler_core::wheel::CalendarQueue;
use bundler_types::{Duration, FlowId, Nanos, PacketId};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// Canonical event-ordering key: logical process in the top 16 bits, that
/// process's schedule sequence in the low 48. Ties on timestamp resolve by
/// key, so the total order is `(timestamp, lp, lp sequence)` — invariant
/// under sharding (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey(pub u64);

impl EventKey {
    /// Bits reserved for the per-LP sequence.
    pub const SEQ_BITS: u32 = 48;

    /// Builds a key. `seq` must fit in 48 bits (≈ 2.8 × 10^14 schedules
    /// per LP — unreachable in practice, checked in debug builds).
    #[inline]
    pub fn new(lp: u16, seq: u64) -> Self {
        debug_assert!(seq < (1u64 << Self::SEQ_BITS), "LP sequence overflow");
        EventKey(((lp as u64) << Self::SEQ_BITS) | seq)
    }

    /// The logical process that scheduled the event.
    #[inline]
    pub fn lp(self) -> u16 {
        (self.0 >> Self::SEQ_BITS) as u16
    }

    /// The scheduling process's sequence number.
    #[inline]
    pub fn seq(self) -> u64 {
        self.0 & ((1u64 << Self::SEQ_BITS) - 1)
    }
}

impl std::fmt::Display for EventKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "lp{}#{}", self.lp(), self.seq())
    }
}

/// Everything that can happen in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A new application flow starts at its sender. The payload indexes the
    /// simulation's workload table ([`crate::workload::FlowSpec`]s are too
    /// big to carry in every event).
    FlowArrival {
        /// Index into the simulation's workload table.
        spec: u32,
    },
    /// A data or ACK packet reaches the bottleneck stage (net LP). The
    /// sub-path is picked by the load balancer when the event is handled,
    /// so the pick sequence is part of the net LP's canonical history.
    ArriveBottleneck {
        /// The packet.
        pkt: PacketId,
    },
    /// The given path finished serializing its current packet and should
    /// pick the next one (net LP).
    PathDequeue {
        /// Index of the path.
        path: u32,
    },
    /// A packet arrives at the destination site (after the bottleneck and
    /// forward propagation delay).
    ArriveDestination {
        /// The packet.
        pkt: PacketId,
    },
    /// A transport ACK (or response packet) arrives back at the source site.
    ArriveSource {
        /// The packet.
        pkt: PacketId,
    },
    /// A Bundler congestion ACK reaches the sendbox (routed by the bundle
    /// id the ACK itself carries).
    CongestionAckArrive {
        /// The ACK.
        ack: CongestionAck,
    },
    /// A Bundler epoch-size update reaches the receivebox (routed by the
    /// bundle id the update itself carries).
    EpochUpdateArrive {
        /// The update.
        update: EpochSizeUpdate,
    },
    /// Periodic control-plane tick for the given bundle's sendbox — one
    /// event per bundle in every edge mode, so tick order is canonical per
    /// LP regardless of how bundles are sharded.
    ControlTick {
        /// Index of the bundle.
        bundle: u32,
    },
    /// The given bundle's token bucket may have tokens to release another
    /// packet.
    SendboxRelease {
        /// Index of the bundle.
        bundle: u32,
    },
    /// Retransmission-timeout check for a flow.
    RtoCheck {
        /// The flow to check.
        flow: FlowId,
    },
    /// Periodic statistics sample for one logical process: each bundle LP
    /// samples its own series, the direct LP samples cross-traffic
    /// throughput. (One global sample event would have to read every
    /// shard's state at once; the bottleneck paths sample per-path via
    /// [`Event::PathSample`] for the same reason.)
    Sample {
        /// The logical process to sample.
        lp: u16,
    },
    /// Integration step for the fluid cross-traffic tier of one bottleneck
    /// path (keyed on [`crate::runtime::LP_FLUID`] with the path's own
    /// sequence stream, so fluid steps interleave canonically with packet
    /// events at the same timestamp and touch only that path's state —
    /// which is what lets a net shard integrate its owned paths without
    /// seeing the others). Only scheduled when
    /// [`crate::sim::SimulationConfig::cross_traffic`] is set.
    FluidUpdate {
        /// Global index of the path to integrate.
        path: u32,
    },
    /// Periodic statistics sample for one bottleneck path (net LP, on the
    /// path's own sequence stream). Per-path rather than one net-wide
    /// sample so the event touches only state its owning net shard holds.
    PathSample {
        /// Global index of the path to sample.
        path: u32,
    },
}

serde::layout!(value EventKey { 0 });

/// Writes the variant numbering once: each row is a variant's tag — the
/// byte the snapshot codec writes first, and the one [`Slim`] carries — its
/// variant and its one field. `Encode`, `Decode`, [`Slim::pack`],
/// [`Slim::unpack`] and [`Slim::take`] all come from these rows.
macro_rules! event_tags {
    ($($tag:literal => $variant:ident { $field:ident: $ty:ty },)*) => {
        impl Encode for Event {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $(Event::$variant { $field } => {
                        out.push($tag);
                        $field.encode(out);
                    })*
                }
            }
        }

        impl Decode for Event {
            fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                Ok(match u8::decode(r)? {
                    $($tag => Event::$variant { $field: <$ty>::decode(r)? },)*
                    _ => return Err(r.error("unknown event tag")),
                })
            }
        }

        impl Slim {
            /// Packs `event`, parking a congestion ACK in `acks`. Inlined
            /// into `schedule`, whose callers name the variant, so the
            /// match folds to one constant tag at every call site.
            #[inline]
            fn pack(event: Event, acks: &mut AckSlab) -> Slim {
                match event {
                    $(Event::$variant { $field } => Slim { tag: $tag, v: $field.to_word(acks) },)*
                }
            }

            /// The event this entry stands for, for looking at an entry
            /// that stays queued: a parked ACK is read, not released.
            #[inline]
            fn unpack(self, acks: &AckSlab) -> Event {
                match self.tag {
                    $($tag => Event::$variant { $field: Word::from_word(self.v, acks) },)*
                    tag => unreachable!("Slim::pack mints no tag {tag}"),
                }
            }

            /// [`Slim::unpack`] for an entry that has left the queue: frees
            /// the slot of a parked ACK.
            #[inline]
            fn take(self, acks: &mut AckSlab) -> Event {
                let event = self.unpack(acks);
                if self.tag == TAG_PARKED {
                    acks.free.push(self.v as u32);
                }
                event
            }
        }

        /// The tag of the one variant whose field parks in the [`AckSlab`].
        const TAG_PARKED: u8 = {
            let mut tag = u8::MAX;
            $(if <$ty as Word>::PARKED {
                tag = $tag;
            })*
            tag
        };
    };
}

event_tags! {
    0 => FlowArrival { spec: u32 },
    1 => ArriveBottleneck { pkt: PacketId },
    2 => PathDequeue { path: u32 },
    3 => ArriveDestination { pkt: PacketId },
    4 => ArriveSource { pkt: PacketId },
    5 => CongestionAckArrive { ack: CongestionAck },
    6 => EpochUpdateArrive { update: EpochSizeUpdate },
    7 => ControlTick { bundle: u32 },
    8 => SendboxRelease { bundle: u32 },
    9 => RtoCheck { flow: FlowId },
    10 => Sample { lp: u16 },
    11 => FluidUpdate { path: u32 },
    12 => PathSample { path: u32 },
}

/// Hard ceiling on the event size: the largest variant is
/// `CongestionAckArrive` (a 40-byte `CongestionAck` plus the tag). Packets
/// are referenced by [`PacketId`]; if a future variant pushes past this,
/// put its payload in an arena or a side table instead.
pub const MAX_EVENT_SIZE: usize = 48;

const _: () = assert!(
    std::mem::size_of::<Event>() <= MAX_EVENT_SIZE,
    "Event grew past MAX_EVENT_SIZE: move the new variant's payload into an \
     arena or side table instead of carrying it inline"
);

/// The calendar queue's finest slot width: 2^13 ns ≈ 8.2 µs, stated as
/// the exact power of two because [`CalendarQueue::new`] rounds down to
/// one. Sub-slot ordering is exact regardless (the current slot drains
/// through a small sorted buffer), so this only trades bucket occupancy
/// against slot hops; this width measured best across the canonical
/// scenarios at the simulated link rates.
const WHEEL_QUANTUM: Duration = Duration(1 << 13);

/// What the wheel holds for one [`Event`] (see the module docs for why):
/// the variant's tag from the `event_tags!` table, which the snapshot codec
/// writes too, and one [`Word`] — the variant's whole payload, or for
/// `CongestionAckArrive` the [`AckSlab`] slot its [`CongestionAck`] is
/// parked in.
#[derive(Debug, Clone, Copy)]
struct Slim {
    tag: u8,
    v: u64,
}

const _: () = assert!(std::mem::size_of::<Slim>() == 16);

/// How a variant's one field rides in [`Slim::v`]: the whole value, or —
/// for the one payload wider than a word — its [`AckSlab`] slot. The
/// narrowing casts in `from_word` undo `to_word`'s widening ones.
trait Word {
    /// Whether the word is an [`AckSlab`] slot the value is parked in.
    const PARKED: bool = false;

    fn to_word(self, acks: &mut AckSlab) -> u64;
    fn from_word(v: u64, acks: &AckSlab) -> Self;
}

impl Word for u16 {
    #[inline]
    fn to_word(self, _: &mut AckSlab) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_word(v: u64, _: &AckSlab) -> Self {
        v as u16
    }
}

impl Word for u32 {
    #[inline]
    fn to_word(self, _: &mut AckSlab) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_word(v: u64, _: &AckSlab) -> Self {
        v as u32
    }
}

impl Word for PacketId {
    #[inline]
    fn to_word(self, _: &mut AckSlab) -> u64 {
        u64::from(self.index())
    }
    #[inline]
    fn from_word(v: u64, _: &AckSlab) -> Self {
        PacketId::from_index(v as u32)
    }
}

impl Word for FlowId {
    #[inline]
    fn to_word(self, _: &mut AckSlab) -> u64 {
        self.0
    }
    #[inline]
    fn from_word(v: u64, _: &AckSlab) -> Self {
        FlowId(v)
    }
}

impl Word for EpochSizeUpdate {
    #[inline]
    fn to_word(self, _: &mut AckSlab) -> u64 {
        u64::from(self.bundle.0) << 32 | u64::from(self.epoch_size)
    }
    #[inline]
    fn from_word(v: u64, _: &AckSlab) -> Self {
        EpochSizeUpdate {
            bundle: BundleId((v >> 32) as u32),
            epoch_size: v as u32,
        }
    }
}

impl Word for CongestionAck {
    const PARKED: bool = true;

    #[inline]
    fn to_word(self, acks: &mut AckSlab) -> u64 {
        u64::from(acks.park(self))
    }
    #[inline]
    fn from_word(v: u64, acks: &AckSlab) -> Self {
        acks.slots[v as usize]
    }
}

/// The congestion ACKs in flight, the one payload too wide for a [`Slim`].
/// Freed slots are reused, so the slab holds at most the largest number of
/// ACKs ever pending at once.
#[derive(Default)]
struct AckSlab {
    slots: Vec<CongestionAck>,
    free: Vec<u32>,
}

impl AckSlab {
    #[inline]
    fn park(&mut self, ack: CongestionAck) -> u32 {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = ack;
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len()).expect("under 2^32 ACKs in flight");
                self.slots.push(ack);
                slot
            }
        }
    }
}

/// Time-ordered event queue over `(timestamp, EventKey)`.
pub struct EventQueue {
    inner: CalendarQueue<Slim>,
    acks: AckSlab,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            inner: CalendarQueue::new(WHEEL_QUANTUM),
            acks: AckSlab::default(),
        }
    }

    /// The current simulation time (the timestamp of the last popped event).
    pub fn now(&self) -> Nanos {
        self.inner.now()
    }

    /// Schedules `event` at absolute time `at` under the canonical `key`.
    /// Events scheduled in the past are clamped to the current time (they
    /// run "immediately").
    #[inline]
    pub fn schedule(&mut self, at: Nanos, key: EventKey, event: Event) {
        let entry = Slim::pack(event, &mut self.acks);
        self.inner.schedule_keyed(at, key.0, entry);
    }

    /// The `(timestamp, key)` of the next event without popping it — how
    /// the sharded driver decides whether the next event still belongs to
    /// the current time window.
    #[inline]
    pub fn peek(&mut self) -> Option<(Nanos, EventKey)> {
        self.inner.peek_key().map(|(t, k)| (t, EventKey(k)))
    }

    /// Pops the next event, advancing the clock to its timestamp.
    // Inlined so the solo loop folds the unpacking into its dispatch: left
    // out of line, `fct_quo` ran 15 % slower (release, 2-vCPU x86-64).
    #[inline(always)]
    pub fn pop(&mut self) -> Option<(Nanos, Event)> {
        let (at, entry) = self.inner.pop()?;
        Some((at, entry.take(&mut self.acks)))
    }

    /// Pops the maximal *run* of pending events sharing the next event's
    /// `(timestamp, logical process)` into `buf` (cleared first), advancing
    /// the clock. Returns the run length (0 when the queue is empty).
    ///
    /// Within one `(timestamp, lp)` pair keys are totally ordered by the
    /// LP's own sequence, so the run is exactly the consecutive prefix of
    /// the canonical order. A caller that schedules while it consumes must
    /// still merge against the buffered run: a handler can schedule a
    /// *different* LP's event at the same timestamp with a key that sorts
    /// before the rest of the run.
    ///
    /// No host drains its queue this way: the single-threaded loop pops one
    /// event at a time, as the sharded ones always did (the batching saved
    /// nothing — every buffered event was still dispatched alone, behind
    /// two extra peeks). The one caller left is the repository benchmark's
    /// `sim.event.sched_pop_ns` kernel (`benchmark/src/kernels.rs`), which
    /// a performance change may not edit; the next `[benchmark]` change
    /// re-points it at [`EventQueue::pop`] and deletes this with its two
    /// tests.
    pub fn pop_run(&mut self, buf: &mut Vec<(Nanos, EventKey, Event)>) -> usize {
        buf.clear();
        let Some((t0, k0)) = self.peek() else {
            return 0;
        };
        let lp = k0.lp();
        loop {
            let (t, key) = match self.peek() {
                Some((t, key)) if t == t0 && key.lp() == lp => (t, key),
                _ => break,
            };
            let (_, event) = self.pop().expect("peeked event must pop");
            buf.push((t, key, event));
        }
        buf.len()
    }

    /// Removes and returns every pending event matching `pred`, sorted by
    /// the canonical `(timestamp, key)` order; everything else stays
    /// queued, undisturbed. O(pending) — this is how a checkpoint lifts
    /// the pending events out of a queue, never how the hot path runs.
    pub fn extract_if(
        &mut self,
        mut pred: impl FnMut(&Event) -> bool,
    ) -> Vec<(Nanos, EventKey, Event)> {
        let acks = &self.acks;
        let removed = self.inner.extract_if(|entry| pred(&entry.unpack(acks)));
        let mut out: Vec<(Nanos, EventKey, Event)> = removed
            .into_iter()
            .map(|(at, key, entry)| (at, EventKey(key), entry.take(&mut self.acks)))
            .collect();
        out.sort_unstable_by_key(|&(at, key, _)| (at, key));
        out
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use bundler_core::wheel::BinaryHeapQueue;
    use proptest::prelude::*;

    use super::*;

    fn key(lp: u16, seq: u64) -> EventKey {
        EventKey::new(lp, seq)
    }

    /// The variant the codec numbers `tag`, its fields cut from the words.
    fn event(tag: u8, a: u64, b: u64, c: u64, d: u64) -> Event {
        let pkt = PacketId::from_index(a as u32);
        match tag {
            0 => Event::FlowArrival { spec: a as u32 },
            1 => Event::ArriveBottleneck { pkt },
            2 => Event::PathDequeue { path: a as u32 },
            3 => Event::ArriveDestination { pkt },
            4 => Event::ArriveSource { pkt },
            5 => Event::CongestionAckArrive {
                ack: CongestionAck {
                    bundle: BundleId(a as u32),
                    packet_hash: b,
                    bytes_received: c,
                    packets_received: d,
                    observed_at: Nanos(a ^ d),
                },
            },
            6 => Event::EpochUpdateArrive {
                update: EpochSizeUpdate {
                    bundle: BundleId(a as u32),
                    epoch_size: b as u32,
                },
            },
            7 => Event::ControlTick { bundle: a as u32 },
            8 => Event::SendboxRelease { bundle: a as u32 },
            9 => Event::RtoCheck { flow: FlowId(a) },
            10 => Event::Sample { lp: a as u16 },
            11 => Event::FluidUpdate { path: a as u32 },
            12 => Event::PathSample { path: a as u32 },
            _ => unreachable!("13 variants"),
        }
    }

    /// A uniform word, with the two ends of the range over-represented.
    fn word() -> impl Strategy<Value = u64> {
        (any::<u64>(), 0u8..8).prop_map(|(w, pick)| match pick {
            0 => 0,
            1 => u64::MAX,
            _ => w,
        })
    }

    fn tag_of(e: Event) -> u8 {
        Slim::pack(e, &mut AckSlab::default()).tag
    }

    fn slab_in_use(q: &EventQueue) -> usize {
        q.acks.slots.len() - q.acks.free.len()
    }

    #[test]
    fn slim_tag_is_the_codec_tag() {
        for tag in 0..13u8 {
            let e = event(tag, 1, 2, 3, 4);
            let mut bytes = Vec::new();
            e.encode(&mut bytes);
            assert_eq!(bytes[0], tag);
            assert_eq!(tag_of(e), tag, "{e:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn unpack_inverts_pack(tag in 0u8..13, a in word(), b in word(), c in word(), d in word()) {
            let e = event(tag, a, b, c, d);
            let mut acks = AckSlab::default();
            let entry = Slim::pack(e, &mut acks);
            prop_assert_eq!(entry.unpack(&acks), e);
        }
    }

    proptest! {
        /// `EventQueue` against the reference heap holding whole `Event`s:
        /// the same `(time, key, event)` comes out of every `pop`, `peek`
        /// and `extract_if`, and no ACK slot outlives its event.
        #[test]
        fn queue_agrees_with_a_heap_of_whole_events(
            ops in collection::vec((0u8..8, 0u8..13, 0u8..5, 0u64..1000, word(), 0u16..4), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut heap: BinaryHeapQueue<Event> = BinaryHeapQueue::new();
            let pop_both = |q: &mut EventQueue, heap: &mut BinaryHeapQueue<Event>| {
                prop_assert_eq!(q.peek(), heap.peek_key().map(|(t, k)| (t, EventKey(k))));
                let popped = q.pop();
                prop_assert_eq!(popped, heap.pop());
                prop_assert_eq!(q.now(), heap.now());
                popped.is_some()
            };
            for (i, (op, tag, scale, r, w, lp)) in ops.into_iter().enumerate() {
                let i = i as u64;
                match op {
                    // Schedule; two of the five schedule ops are always an
                    // ACK, on top of the 1-in-13 among the rest.
                    0..=4 => {
                        let tag = if op < 2 { TAG_PARKED } else { tag };
                        // `b` = the op index: every payload is distinct.
                        let e = event(tag, w, i, w.rotate_left(17), !w);
                        let now = q.now().as_nanos();
                        let at = Nanos(match scale {
                            0 => now,                       // same instant
                            1 => now + r,                   // same slot
                            2 => now + r * 10_000,          // ≤ 10 ms: low levels
                            3 => now + r * 100_000_000,     // ≤ 100 s: high levels
                            _ => r * 1_000,                 // absolute: often past, clamped
                        });
                        q.schedule(at, key(lp, i), e);
                        heap.schedule_keyed(at, key(lp, i).0, e);
                    }
                    5 => {
                        pop_both(&mut q, &mut heap);
                    }
                    6 => {
                        prop_assert_eq!(q.peek(), heap.peek_key().map(|(t, k)| (t, EventKey(k))));
                    }
                    _ => {
                        // Half of the pending ACKs, or every event of one
                        // variant.
                        let pred = |e: &Event| match e {
                            Event::CongestionAckArrive { ack } if tag % 2 == 0 => {
                                ack.packet_hash % 2 == r % 2
                            }
                            other => tag_of(*other) == tag,
                        };
                        let got = q.extract_if(pred);
                        let mut want: Vec<_> = heap
                            .extract_if(pred)
                            .into_iter()
                            .map(|(at, k, e)| (at, EventKey(k), e))
                            .collect();
                        want.sort_unstable_by_key(|&(at, k, _)| (at, k));
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(q.len(), heap.len());
                let acks_pending = heap
                    .extract_if(|e| matches!(e, Event::CongestionAckArrive { .. }))
                    .into_iter()
                    .map(|(at, k, e)| heap.schedule_keyed(at, k, e))
                    .count();
                prop_assert_eq!(slab_in_use(&q), acks_pending);
            }
            while pop_both(&mut q, &mut heap) {}
            prop_assert_eq!(slab_in_use(&q), 0);
        }
    }

    #[test]
    fn ack_slots_are_reused_and_extract_if_frees_them() {
        let ack = |i: u64| event(TAG_PARKED, i, i, i, i);
        let mut q = EventQueue::new();
        let mut next_out = 0u64;
        for i in 0..10_000u64 {
            q.schedule(Nanos(i * 100), key(1, i), ack(i));
            if q.len() == 8 {
                // Drain a varying number, so slots free out of order.
                for _ in 0..=i % 8 {
                    assert_eq!(q.pop(), Some((Nanos(next_out * 100), ack(next_out))));
                    next_out += 1;
                }
            }
        }
        assert!(q.acks.slots.len() <= 8, "{} slots", q.acks.slots.len());

        while q.pop().is_some() {}
        assert_eq!(slab_in_use(&q), 0);
        for i in 0..6u64 {
            q.schedule(Nanos::from_secs(1), key(1, 10_000 + i), ack(i));
        }
        q.schedule(Nanos::from_secs(2), key(0, 1), Event::Sample { lp: 0 });
        assert_eq!(slab_in_use(&q), 6);
        let removed = q.extract_if(|e| matches!(e, Event::CongestionAckArrive { .. }));
        let removed: Vec<Event> = removed.into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(removed, (0..6).map(ack).collect::<Vec<_>>());
        assert_eq!(slab_in_use(&q), 0);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn event_key_packs_lp_and_seq() {
        let k = key(7, 42);
        assert_eq!(k.lp(), 7);
        assert_eq!(k.seq(), 42);
        assert_eq!(k.to_string(), "lp7#42");
        // Order is (lp, seq) lexicographic on the packed word.
        assert!(key(0, u64::MAX >> 17) < key(1, 0));
        assert!(key(3, 5) < key(3, 6));
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(5), key(0, 1), Event::Sample { lp: 0 });
        q.schedule(Nanos::from_millis(1), key(0, 2), Event::Sample { lp: 0 });
        q.schedule(Nanos::from_millis(3), key(0, 3), Event::Sample { lp: 0 });
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(t, _)| t.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn ties_break_by_key() {
        let mut q = EventQueue::new();
        // Scheduled out of key order: pops must sort by (lp, seq).
        q.schedule(
            Nanos::from_millis(1),
            key(2, 1),
            Event::ControlTick { bundle: 2 },
        );
        q.schedule(
            Nanos::from_millis(1),
            key(0, 9),
            Event::ControlTick { bundle: 0 },
        );
        q.schedule(
            Nanos::from_millis(1),
            key(1, 4),
            Event::ControlTick { bundle: 1 },
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| match e {
                Event::ControlTick { bundle } => bundle,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn clock_advances_and_past_events_clamp() {
        let mut q = EventQueue::new();
        q.schedule(Nanos::from_millis(10), key(0, 1), Event::Sample { lp: 0 });
        assert_eq!(q.pop().unwrap().0, Nanos::from_millis(10));
        assert_eq!(q.now(), Nanos::from_millis(10));
        // Scheduling "in the past" runs at the current time, never earlier.
        q.schedule(Nanos::from_millis(1), key(0, 2), Event::Sample { lp: 0 });
        assert_eq!(q.pop().unwrap().0, Nanos::from_millis(10));
    }

    #[test]
    fn peek_matches_pop_without_consuming() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek(), None);
        q.schedule(Nanos::from_millis(2), key(1, 3), Event::Sample { lp: 1 });
        q.schedule(Nanos::from_millis(1), key(4, 7), Event::Sample { lp: 4 });
        assert_eq!(q.peek(), Some((Nanos::from_millis(1), key(4, 7))));
        assert_eq!(q.len(), 2, "peek must not consume");
        assert_eq!(q.pop().unwrap().0, Nanos::from_millis(1));
        assert_eq!(q.peek(), Some((Nanos::from_millis(2), key(1, 3))));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(Nanos::ZERO, key(0, 1), Event::Sample { lp: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_run_pulls_whole_same_timestamp_lp_runs() {
        let mut q = EventQueue::new();
        let t1 = Nanos::from_millis(1);
        let t2 = Nanos::from_millis(2);
        q.schedule(t1, key(3, 1), Event::ControlTick { bundle: 3 });
        q.schedule(t1, key(3, 2), Event::SendboxRelease { bundle: 3 });
        q.schedule(t1, key(5, 1), Event::ControlTick { bundle: 5 });
        q.schedule(t2, key(3, 3), Event::ControlTick { bundle: 3 });
        let mut buf = Vec::new();
        // Run 1: both lp-3 events at t1, not the lp-5 one.
        assert_eq!(q.pop_run(&mut buf), 2);
        assert_eq!(
            buf.iter().map(|&(t, k, _)| (t, k)).collect::<Vec<_>>(),
            vec![(t1, key(3, 1)), (t1, key(3, 2))]
        );
        // Run 2: lp 5 at t1. Run 3: lp 3 again at t2.
        assert_eq!(q.pop_run(&mut buf), 1);
        assert_eq!(buf[0].1, key(5, 1));
        assert_eq!(q.pop_run(&mut buf), 1);
        assert_eq!((buf[0].0, buf[0].1), (t2, key(3, 3)));
        assert_eq!(q.pop_run(&mut buf), 0, "empty queue yields no run");
        assert!(buf.is_empty());
    }

    #[test]
    fn pop_run_sequence_matches_one_at_a_time_pops() {
        // Property: concatenating pop_run buffers replays exactly the pop()
        // sequence for an adversarial schedule (many ties, interleaved LPs,
        // clamped past events).
        let mut a = EventQueue::new();
        let mut b = EventQueue::new();
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        for i in 0..500u64 {
            // xorshift: cheap deterministic pseudo-randomness.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = Nanos::from_micros((x % 97) * ((x >> 32) & 7));
            let lp = (x % 5) as u16;
            let k = key(lp, i);
            let ev = Event::Sample { lp };
            a.schedule(t, k, ev);
            b.schedule(t, k, ev);
        }
        let singles: Vec<(Nanos, u16)> = std::iter::from_fn(|| {
            let (t, k) = b.peek()?;
            b.pop();
            Some((t, k.lp()))
        })
        .collect();
        let mut runs = Vec::new();
        let mut buf = Vec::new();
        while a.pop_run(&mut buf) > 0 {
            runs.extend(buf.iter().map(|&(t, k, _)| (t, k.lp())));
        }
        assert_eq!(runs, singles);
    }

    #[test]
    fn event_stays_arena_sized() {
        // The compile-time guard enforces the bound; this records the
        // actual number so a future bump is a conscious decision.
        let size = std::mem::size_of::<Event>();
        assert!(
            size <= MAX_EVENT_SIZE,
            "Event is {size} bytes (cap {MAX_EVENT_SIZE})"
        );
    }
}
