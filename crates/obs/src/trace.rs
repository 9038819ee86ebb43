//! Structured trace recorder: typed `Copy` records in per-shard rings.
//!
//! Each shard pushes into a fixed-capacity ring sized for one conservative
//! window's worth of records; at every window barrier the ring is drained
//! into a larger per-shard sink (single-threaded runs drain at sample
//! events instead). Overflow drops the *newest* record and counts it, so a
//! hot window can never starve the spans recorded later in the run — unless
//! a stream sink is attached, in which case `ShardObs::record` spills the
//! full ring into the stream and nothing is dropped.
//!
//! Records carry sim-time (`at`) and wall-time (`wall_ns`). Only sim-time
//! and the event payload participate in [`first_divergence`], which is how
//! two runs' traces are diffed to localize a digest divergence: wall time
//! and shard placement legitimately differ between runs.

use bundler_types::Nanos;

use crate::stream::{push_u64, scan_u64};

/// One-shot notice that some trace ring overflowed this process (opt-in
/// via `BUNDLER_SHARD_DEBUG`). Dropped records only thin the trace — the
/// simulation itself is unaffected — but a diff against a truncated trace
/// can miss the first divergence, so it is worth knowing about.
fn note_first_drop(cap: usize) {
    static WARNED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    if !WARNED.swap(true, std::sync::atomic::Ordering::Relaxed) {
        crate::logsink::debug_log(format_args!(
            "trace ring full ({cap} records in one window); dropping newest \
             records (counted in TraceRing::dropped)"
        ));
    }
}

/// Default ring capacity: one window's worth of records.
pub const RING_CAPACITY: usize = 1 << 16;

/// Default per-shard sink capacity.
pub const SINK_CAPACITY: usize = 1 << 20;

/// Generates, from the one table of record kinds below, the [`TraceKind`]
/// enum, each kind's stream tag, the line protocol's field renderer, its
/// general parser and its fast path for canonical lines (`crate::stream`),
/// and the kind half of [`TraceRecord::portable_key`].
macro_rules! trace_kinds {
    ($(
        $(#[$doc:meta])*
        $num:literal $tag:literal $kind:ident {
            $( $(#[$fdoc:meta])* $field:ident: $ty:ty, )*
        } key($($key:ident),*);
    )*) => {
        /// What happened. Every variant is `Copy` and allocation-free.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum TraceKind {
            $( $(#[$doc])* $kind { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        impl TraceKind {
            /// The kind's stable lowercase tag, the stream line's `"k"`.
            pub(crate) fn tag(&self) -> &'static str {
                match self {
                    $( TraceKind::$kind { .. } => $tag, )*
                }
            }

            /// Appends `,"name":value` per field, in declared order: one
            /// byte literal per field and no formatter.
            pub(crate) fn render_fields(&self, out: &mut Vec<u8>) {
                match *self {
                    $( TraceKind::$kind { $($field),* } => {
                        $(
                            out.extend_from_slice(
                                concat!(",\"", stringify!($field), "\":").as_bytes(),
                            );
                            push_u64(out, $field as u64);
                        )*
                    } )*
                }
            }

            /// The kind tagged `tag`, its fields read through `get`. `None`
            /// for an unknown tag, a missing field, or a value too wide for
            /// its field.
            pub(crate) fn parse(
                tag: &[u8],
                get: impl Fn(&str) -> Option<u64>,
            ) -> Option<TraceKind> {
                Some(match tag {
                    $( t if t == $tag.as_bytes() => TraceKind::$kind {
                        $( $field: TryFrom::try_from(get(stringify!($field))?).ok()?, )*
                    }, )*
                    _ => return None,
                })
            }

            /// The kind tagged `tag`, read from its fields exactly as
            /// [`TraceKind::render_fields`] writes them, starting at
            /// `line[i]`: each field's literal `,"name":` and then its
            /// digits, in declared order. Returns the kind and the index
            /// past its last field; `None` for anything else, which the
            /// general parser then reads.
            #[inline]
            pub(crate) fn parse_canonical(
                tag: &[u8],
                line: &[u8],
                mut i: usize,
            ) -> Option<(TraceKind, usize)> {
                let kind = match tag {
                    $( t if t == $tag.as_bytes() => TraceKind::$kind {
                        $( $field: {
                            let key = concat!(",\"", stringify!($field), "\":").as_bytes();
                            if line.get(i..i + key.len())? != key {
                                return None;
                            }
                            let (v, next) = scan_u64(line, i + key.len())?;
                            i = next;
                            TryFrom::try_from(v).ok()?
                        }, )*
                    }, )*
                    _ => return None,
                };
                Some((kind, i))
            }

            /// The kind's number and its up-to-three key fields, zero-padded.
            fn key(&self) -> (u8, u64, u64, u64) {
                match *self {
                    $( TraceKind::$kind { $($key,)* .. } => {
                        let [a, b, c, ..] = [$($key as u64,)* 0, 0, 0];
                        ($num, a, b, c)
                    } )*
                }
            }
        }
    };
}

// One row per kind: its docs, its number in the portable key, its stream
// tag, the variant with each field's doc and type, and `key(..)` — the
// fields, in order, that enter the portable key. A new kind is one row here
// plus its mapping in `crate::perfetto` if it should show there, and an arm
// in `TraceRecord::is_portable` if it describes the host, not the network.
trace_kinds! {
    /// A packet entered a sendbox scheduler.
    0 "enq" Enqueue {
        /// Bundle index.
        bundle: u32,
    } key(bundle);

    /// A packet was released by a sendbox after `sojourn_ns` queued.
    1 "deq" Dequeue {
        /// Bundle index.
        bundle: u32,
        /// Sendbox sojourn time, ns.
        sojourn_ns: u64,
    } key(bundle, sojourn_ns);

    /// A packet was dropped at a sendbox.
    2 "drop" Drop {
        /// Bundle index.
        bundle: u32,
    } key(bundle);

    /// The bundle's mode state machine changed state.
    3 "mode" ModeChange {
        /// Bundle index.
        bundle: u32,
        /// New mode, as `Mode as u8` (0 = delay-control, 1 = pass-through,
        /// 2 = disabled).
        mode: u8,
    } key(bundle, mode);

    /// A control tick set the bundle's pacing rate (emitted every tick, so
    /// a rate track needs no cached state to survive a restore).
    4 "rate" RateChange {
        /// Bundle index.
        bundle: u32,
        /// New pacing rate, bits/sec.
        rate_bps: u64,
    } key(bundle, rate_bps);

    /// An epoch boundary update left the sendbox toward the receivebox.
    5 "epoch" Epoch {
        /// Bundle index.
        bundle: u32,
        /// New epoch size, in packets (always a power of two).
        size_pkts: u64,
    } key(bundle, size_pkts);

    // 6 ("migrate", bundle migration) is retired: never reuse the number
    // or the tag, so an old stream or portable key cannot read as another
    // kind.

    /// One worker shard's conservative window (span).
    7 "window" WorkerWindow {
        /// Window index.
        windex: u64,
        /// Sim-time width of the window, ns.
        width_ns: u64,
        /// Wall time spent processing events, ns.
        busy_ns: u64,
        /// Wall time spent blocked on barriers, ns.
        stall_ns: u64,
        /// Events handled in the window.
        events: u64,
    } key(windex, events);

    /// One driver net phase (span, shared bottleneck).
    8 "netphase" NetPhase {
        /// Window index the phase served.
        windex: u64,
        /// Sim-time width of the window, ns.
        width_ns: u64,
        /// Wall duration of the phase, ns.
        wall_dur_ns: u64,
        /// Net events handled.
        events: u64,
    } key(windex, events);

    /// The fluid cross-traffic tier's queue level on one bottleneck
    /// sub-path, recorded at each integration step (counter track in the
    /// Chrome trace).
    9 "fluid" FluidLevel {
        /// Bottleneck sub-path index.
        path: u32,
        /// Fluid backlog sharing the path's buffer, bytes.
        backlog_bytes: u64,
        /// Capacity the tier is draining from the path, bits/sec.
        rate_bps: u64,
    } key(path, backlog_bytes, rate_bps);

    /// A sampled flow was admitted and classified at the site edge (the
    /// root span of the flow's lifecycle).
    10 "flow_admit" FlowAdmit {
        /// Flow id.
        flow: u64,
        /// Bundle the flow was classified to (`u32::MAX` for direct
        /// traffic that bypasses every bundle).
        bundle: u32,
        /// Flow size in bytes, from the workload spec.
        size_bytes: u64,
    } key(flow, bundle, size_bytes);

    /// A sampled flow's packet left the sendbox after queueing
    /// `sojourn_ns` (the flow's sendbox span, one record per packet).
    11 "flow_sendbox" FlowSendbox {
        /// Flow id.
        flow: u64,
        /// Sendbox sojourn of this packet, ns.
        sojourn_ns: u64,
    } key(flow, sojourn_ns);

    /// A sampled flow's packet left the shared bottleneck queue after
    /// `sojourn_ns` (the flow's bottleneck span, recorded by the net side).
    12 "flow_bn" FlowBottleneck {
        /// Flow id.
        flow: u64,
        /// Bottleneck-queue sojourn of this packet, ns.
        sojourn_ns: u64,
    } key(flow, sojourn_ns);

    /// A sampled flow completed: its last byte was acknowledged back at
    /// the source. Carries the sendbox totals accumulated while the flow
    /// was in flight, so the delay decomposition survives ring overflow of
    /// the per-packet records.
    13 "flow_end" FlowEnd {
        /// Flow id.
        flow: u64,
        /// Flow completion time, ns.
        fct_ns: u64,
        /// Total sendbox sojourn across the flow's packets, ns.
        sendbox_ns: u64,
        /// FCT slowdown in milli-units (1000 = 1.0x).
        slowdown_milli: u64,
    } key(flow, fct_ns, sendbox_ns);

    /// An online health monitor fired (see [`crate::health::HealthKind`]).
    14 "health" Health {
        /// `HealthKind as u8`.
        kind: u8,
        /// What the event is about: bundle index, aggregate index or shard.
        subject: u32,
        /// Kind-specific magnitude (backlog bytes, flap count, rate…).
        value: u64,
    } key(kind, subject, value);

    /// One fluid cross-traffic aggregate's state at an integration step
    /// (per-aggregate counter track in the Chrome trace).
    15 "fluid_agg" FluidAgg {
        /// Aggregate index within the fluid tier.
        agg: u32,
        /// Bottleneck sub-path the aggregate loads.
        path: u32,
        /// The aggregate's current AIMD rate, bits/sec.
        rate_bps: u64,
    } key(agg, path, rate_bps);
}

/// One trace record: sim-time, wall-time, origin shard, payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation timestamp.
    pub at: Nanos,
    /// Wall-clock nanoseconds since the process's first stamp (annotation
    /// only — never read back into simulation state).
    pub wall_ns: u64,
    /// Originating shard ([`crate::NET_SHARD`] for the net/driver side).
    pub shard: u16,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceRecord {
    /// The run-portable projection of this record: sim-time plus the
    /// payload fields that are a function of the simulation alone. Wall
    /// times, shard placement and wall-derived span fields are masked out.
    pub fn portable_key(&self) -> (u64, u8, u64, u64, u64) {
        let (kind, a, b, c) = self.kind.key();
        (self.at.as_nanos(), kind, a, b, c)
    }

    /// True for the per-event datapath records that trace simulated
    /// behavior (and can be diffed between runs); false for the host-side
    /// span records (windows, phases, mailbox health) that
    /// describe execution.
    pub fn is_portable(&self) -> bool {
        !matches!(
            self.kind,
            TraceKind::WorkerWindow { .. }
                | TraceKind::NetPhase { .. }
                | TraceKind::Health {
                    kind: 3, // the retired mailbox watchdog's tag: host-side
                    ..
                }
        )
    }
}

/// Index of the first record at which two traces' *portable* projections
/// diverge, or `None` if one is a prefix of the other (compare lengths).
/// Feed it the portable-filtered, sim-time-sorted traces of two runs to
/// localize where a digest divergence began.
pub fn first_divergence(a: &[TraceRecord], b: &[TraceRecord]) -> Option<usize> {
    a.iter()
        .zip(b.iter())
        .position(|(x, y)| x.portable_key() != y.portable_key())
}

/// A fixed-capacity ring of trace records plus its drain sink.
#[derive(Debug, Clone)]
pub struct TraceRing {
    buf: Vec<TraceRecord>,
    cap: usize,
    sink: Vec<TraceRecord>,
    sink_cap: usize,
    /// Records lost to ring or sink overflow (drop-newest).
    pub dropped: u64,
}

impl Default for TraceRing {
    fn default() -> Self {
        TraceRing::with_capacity(RING_CAPACITY, SINK_CAPACITY)
    }
}

impl TraceRing {
    /// Creates a ring with explicit capacities (mainly for tests).
    pub fn with_capacity(cap: usize, sink_cap: usize) -> Self {
        TraceRing {
            buf: Vec::new(),
            cap,
            sink: Vec::new(),
            sink_cap,
            dropped: 0,
        }
    }

    /// Pushes a record; drops it (counted) if the ring is full.
    #[inline]
    pub fn push(&mut self, rec: TraceRecord) {
        if self.is_full() {
            if self.dropped == 0 {
                note_first_drop(self.cap);
            }
            self.dropped += 1;
        } else {
            self.buf.push(rec);
        }
    }

    /// True when the next [`TraceRing::push`] would drop its record.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.cap
    }

    /// Records currently waiting in the ring (not yet drained).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if the ring holds no undrained records.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Takes the undrained records, leaving `empty` (cleared) in their
    /// place: the streaming exporter hands them to its writer at a barrier
    /// instead of draining to the in-memory sink, so memory stays
    /// ring-capacity sized however long the run is.
    pub fn take_pending(&mut self, mut empty: Vec<TraceRecord>) -> Vec<TraceRecord> {
        empty.clear();
        std::mem::replace(&mut self.buf, empty)
    }

    /// Discards the undrained records (capacity retained).
    pub fn clear_pending(&mut self) {
        self.buf.clear();
    }

    /// Drains the ring into the sink, respecting the sink capacity.
    /// Called at every window barrier (sharded) or sample event
    /// (single-threaded) so the ring only ever needs one window's capacity.
    pub fn drain_to_sink(&mut self) {
        let room = self.sink_cap.saturating_sub(self.sink.len());
        if room < self.buf.len() {
            self.dropped += (self.buf.len() - room) as u64;
            self.buf.truncate(room);
        }
        self.sink.append(&mut self.buf);
    }

    /// Finalizes the ring: drains any residue and returns the collected
    /// records and the overflow count.
    pub fn into_records(mut self) -> (Vec<TraceRecord>, u64) {
        self.drain_to_sink();
        (self.sink, self.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            at: Nanos(at_ns),
            wall_ns: at_ns * 7 + 13, // arbitrary: must not affect diffing
            shard: 0,
            kind,
        }
    }

    #[test]
    fn ring_overflow_drops_newest_and_counts() {
        let mut ring = TraceRing::with_capacity(2, 10);
        for i in 0..5 {
            ring.push(rec(i, TraceKind::Enqueue { bundle: i as u32 }));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped, 3);
        let (records, dropped) = ring.into_records();
        assert_eq!(records.len(), 2);
        assert_eq!(dropped, 3);
        // Oldest records survive.
        assert_eq!(records[0].kind, TraceKind::Enqueue { bundle: 0 });
    }

    #[test]
    fn barrier_drain_frees_the_ring() {
        let mut ring = TraceRing::with_capacity(4, 100);
        for window in 0..10u64 {
            for i in 0..4u64 {
                ring.push(rec(window * 100 + i, TraceKind::Enqueue { bundle: 1 }));
            }
            ring.drain_to_sink(); // the window barrier
            assert!(ring.is_empty());
        }
        let (records, dropped) = ring.into_records();
        assert_eq!(records.len(), 40);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn sink_capacity_is_respected() {
        let mut ring = TraceRing::with_capacity(10, 5);
        for i in 0..8 {
            ring.push(rec(i, TraceKind::Drop { bundle: 0 }));
        }
        let (records, dropped) = ring.into_records();
        assert_eq!(records.len(), 5);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn divergence_ignores_wall_time_and_shard() {
        let a = vec![
            rec(10, TraceKind::Enqueue { bundle: 1 }),
            rec(
                20,
                TraceKind::Dequeue {
                    bundle: 1,
                    sojourn_ns: 10,
                },
            ),
        ];
        let mut b = a.clone();
        b[0].wall_ns = 999;
        b[1].shard = 3;
        assert_eq!(first_divergence(&a, &b), None);

        b[1].kind = TraceKind::Dequeue {
            bundle: 1,
            sojourn_ns: 11,
        };
        assert_eq!(first_divergence(&a, &b), Some(1));
    }

    #[test]
    fn span_records_are_not_portable() {
        assert!(rec(0, TraceKind::Enqueue { bundle: 0 }).is_portable());
        assert!(!rec(
            0,
            TraceKind::WorkerWindow {
                windex: 0,
                width_ns: 1,
                busy_ns: 1,
                stall_ns: 1,
                events: 1
            }
        )
        .is_portable());
    }
}
