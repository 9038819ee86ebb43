//! Deterministic observability for the Bundler simulator.
//!
//! Three subsystems, all designed so that turning them on never changes a
//! simulation result:
//!
//! * a **metrics registry** ([`metrics`]) — fixed-slot counters, max-merge
//!   gauges and log-linear histograms ([`hist::LogLinearHist`]) recorded per
//!   shard and merged with commutative integer operations, so the *portable*
//!   snapshot is bit-identical across shard counts;
//! * a **structured trace recorder** ([`trace`]) — per-shard fixed-capacity
//!   ring buffers of typed `Copy` records stamped with sim-time *and*
//!   wall-time, drained at window barriers and exported as Chrome
//!   trace-event JSON ([`perfetto`]) loadable in Perfetto;
//! * a **phase profiler** ([`phase`]) — per-window worker busy/barrier-stall
//!   and net-phase wall timing for the sharded runtime.
//!
//! Wall-clock stamps are *outputs only*: nothing in this crate feeds an
//! `Instant` back into simulation state, which is why tracing a run cannot
//! perturb it (see ARCHITECTURE.md, "Observability").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod health;
pub mod hist;
pub mod logsink;
pub mod metrics;
pub mod perfetto;
pub mod phase;
pub mod stream;
pub mod trace;

use std::sync::OnceLock;
use std::time::Instant;

use bundler_types::Nanos;

pub use flow::{decompose, BundleObsState, FlowDecomp, FlowSampler, FlowSpan, FlowTrace};
pub use health::{HealthKind, HealthState};
pub use hist::LogLinearHist;
pub use metrics::{CounterId, GaugeId, HistId, HostMetrics, MetricsShard, SchedObs};
pub use phase::{NetPhaseProfile, NetWindow, PhaseBreakdown, PhaseProfile, WindowPhase};
pub use stream::{StreamSink, StreamedRecord};
pub use trace::{TraceKind, TraceRecord, TraceRing};

/// How much observability a run records. Ordered: each level includes
/// everything below it.
///
/// `Off` is the hot-path default: every instrumentation site is a single
/// branch on this niche enum and records nothing, so the event loop keeps
/// its allocation-free steady state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum ObsLevel {
    /// No metrics, no traces: instrumentation compiles to a skipped branch.
    #[default]
    Off,
    /// Counters, gauges, histograms and phase profiling — no per-event
    /// trace records.
    Metrics,
    /// Metrics plus the structured trace recorder (Perfetto export).
    Full,
}

impl ObsLevel {
    /// True if metrics (and phase profiling) are recorded.
    pub fn metrics_on(self) -> bool {
        self >= ObsLevel::Metrics
    }

    /// True if structured trace records are recorded.
    pub fn trace_on(self) -> bool {
        self >= ObsLevel::Full
    }
}

impl std::fmt::Display for ObsLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ObsLevel::Off => "off",
            ObsLevel::Metrics => "metrics",
            ObsLevel::Full => "full",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for ObsLevel {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ObsLevel::Off),
            "metrics" => Ok(ObsLevel::Metrics),
            "full" => Ok(ObsLevel::Full),
            other => Err(format!("unknown obs level {other:?} (off|metrics|full)")),
        }
    }
}

/// The shard id used for records produced by the shared net/driver side
/// (the bottleneck paths live outside any worker shard).
pub const NET_SHARD: u16 = u16::MAX;

/// The shard id for net shard `k` when the bottleneck itself is sharded:
/// ids count *down* from [`NET_SHARD`], so shard 0 — the solo net core —
/// keeps exactly the historical id and worker shard ids (counting up from
/// zero) can never collide with net ones.
pub fn net_shard_id(k: usize) -> u16 {
    NET_SHARD - k as u16
}

/// Width of the net-side shard-id range below [`NET_SHARD`]. Any id at or
/// above `NET_SHARD - MAX_NET_OBS_SHARDS` is a net shard; consumers (e.g.
/// the Perfetto exporter) use this to tell net records from worker records.
pub const MAX_NET_OBS_SHARDS: u16 = 4096;

/// Nanoseconds of wall time since the first observability stamp in this
/// process. Monotonic; used only to annotate trace records and phase
/// profiles — never read back by simulation code.
pub fn wall_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Per-shard observability state: one of these lives inside each worker
/// core and inside the net core, so recording never takes a lock.
#[derive(Debug, Clone, Default)]
pub struct ShardObs {
    /// The level this run records at.
    pub level: ObsLevel,
    /// The owning shard's partition index ([`NET_SHARD`] for the net side).
    pub shard: u16,
    /// Portable metrics: partition-invariant per-event facts. Merged
    /// snapshots are bit-identical across shard counts.
    pub metrics: MetricsShard,
    /// Host metrics: partition-*dependent* facts (mailbox depth, window
    /// timings) that describe how this particular run was executed.
    pub host: HostMetrics,
    /// Fixed-capacity trace ring, drained into its sink at window barriers.
    pub ring: TraceRing,
    /// Per-window phase timings (sharded runs only).
    pub phases: Vec<WindowPhase>,
    /// Deterministic flow-span sampler (`None` disables flow tracing).
    pub sampler: Option<FlowSampler>,
    /// Streaming JSONL sink shared by every shard of the run (`None`
    /// keeps everything in memory, PR 6 style).
    pub stream: Option<StreamSink>,
    /// Per-shard stream sequence counter (push order within the shard).
    pub seq: u64,
    /// Edge-trigger state for the fluid-collapse monitor (net side only):
    /// whether each aggregate was at its floor rate at the last check.
    pub fluid_floor: Vec<bool>,
}

impl ShardObs {
    /// Creates the per-shard state for `shard` at `level`.
    pub fn new(level: ObsLevel, shard: u16) -> Self {
        ShardObs {
            level,
            shard,
            metrics: MetricsShard::default(),
            host: HostMetrics::default(),
            ring: TraceRing::default(),
            phases: Vec::new(),
            sampler: None,
            stream: None,
            seq: 0,
            fluid_floor: Vec::new(),
        }
    }

    /// True if metrics are recorded.
    #[inline]
    pub fn metrics_on(&self) -> bool {
        self.level.metrics_on()
    }

    /// True if trace records are recorded.
    #[inline]
    pub fn trace_on(&self) -> bool {
        self.level.trace_on()
    }

    /// Pushes a trace record stamped with sim-time `at` and the current
    /// wall clock. No-op below [`ObsLevel::Full`].
    ///
    /// With a stream attached the wall clock is not read (the line
    /// protocol never exports the envelope stamp) and a full ring spills
    /// into the stream instead of dropping: the sink bounds memory there,
    /// so no record is lost however many one window produces.
    #[inline]
    pub fn record(&mut self, at: Nanos, kind: TraceKind) {
        if self.level.trace_on() {
            let wall_ns = match &self.stream {
                Some(stream) => {
                    if self.ring.is_full() {
                        stream.flush_ring(&mut self.ring, &mut self.seq);
                    }
                    0
                }
                None => wall_now_ns(),
            };
            self.ring.push(TraceRecord {
                at,
                wall_ns,
                shard: self.shard,
                kind,
            });
        }
    }

    /// True if flow tracing is on and the deterministic sampler picks this
    /// flow. Pure: every shard and the net side agree without coordination.
    #[inline]
    pub fn flow_sampled(&self, flow: u64) -> bool {
        self.level.trace_on() && self.sampler.as_ref().is_some_and(|s| s.picks(flow))
    }

    /// Barrier flush. With a stream attached, hands the sink's writer the
    /// ring's pending records (numbered from the shard's sequence counter)
    /// and a cumulative metrics meta line, and the ring goes on with an
    /// emptied buffer — memory stays ring-capacity sized. Without one,
    /// drains the ring into its in-memory sink exactly as before.
    pub fn flush(&mut self, at: Nanos) {
        if let Some(stream) = &self.stream {
            if self.level.trace_on() {
                stream.flush_ring(&mut self.ring, &mut self.seq);
            }
            if self.level.metrics_on() {
                stream.write_metrics(at, self.shard, &self.metrics);
            }
        } else if self.level.trace_on() {
            self.ring.drain_to_sink();
        }
    }
}

/// The merged observability output of a finished run, carried on
/// `SimReport::obs` (and excluded from `SimStats`, so digests never see it).
#[derive(Debug, Clone, Default)]
pub struct ObsReport {
    /// The level the run recorded at.
    pub level: ObsLevel,
    /// Merged portable metrics — bit-identical for any shard count.
    pub metrics: MetricsShard,
    /// Merged host metrics — partition-dependent by nature.
    pub host: HostMetrics,
    /// Per-shard phase profiles (empty for single-threaded runs).
    pub worker_phases: Vec<PhaseProfile>,
    /// Net-phase wall timing per window (empty for single-threaded runs).
    pub net_phase: NetPhaseProfile,
    /// All trace records, merged across shards and sorted by sim-time.
    pub trace: Vec<TraceRecord>,
    /// Records lost to ring/sink overflow across all shards.
    pub trace_dropped: u64,
}

impl ObsReport {
    /// Exports the trace as Chrome trace-event JSON for Perfetto.
    pub fn to_chrome_trace(&self) -> String {
        perfetto::to_chrome_trace(self)
    }

    /// Busy/stall/net wall-time fractions across the sharded run.
    pub fn phase_breakdown(&self) -> PhaseBreakdown {
        phase::breakdown(&self.worker_phases, &self.net_phase)
    }

    /// Renders the merged in-memory trace in the streaming line protocol.
    /// Per-shard sequence numbers are reconstructed in iteration order —
    /// the merged trace is a stable sort by sim-time over per-shard push
    /// order, so this is byte-identical to the same run's streamed lines
    /// as [`stream::read`] orders them.
    pub fn to_jsonl(&self) -> String {
        stream::render_lines(&self.trace)
    }

    /// Per-flow delay decompositions reduced from the merged trace.
    pub fn flow_decompositions(&self) -> Vec<FlowDecomp> {
        flow::decompose(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_parsing() {
        assert!(ObsLevel::Off < ObsLevel::Metrics);
        assert!(ObsLevel::Metrics < ObsLevel::Full);
        assert!(!ObsLevel::Off.metrics_on());
        assert!(ObsLevel::Metrics.metrics_on());
        assert!(!ObsLevel::Metrics.trace_on());
        assert!(ObsLevel::Full.trace_on());
        for level in [ObsLevel::Off, ObsLevel::Metrics, ObsLevel::Full] {
            assert_eq!(level.to_string().parse::<ObsLevel>(), Ok(level));
        }
        assert!("verbose".parse::<ObsLevel>().is_err());
        assert_eq!(ObsLevel::default(), ObsLevel::Off);
    }

    #[test]
    fn shard_obs_records_only_at_full() {
        let mut off = ShardObs::new(ObsLevel::Metrics, 0);
        off.record(
            Nanos::from_millis(1),
            TraceKind::Epoch {
                bundle: 0,
                size_pkts: 10,
            },
        );
        assert_eq!(off.ring.len(), 0);

        let mut full = ShardObs::new(ObsLevel::Full, 3);
        full.record(
            Nanos::from_millis(1),
            TraceKind::Epoch {
                bundle: 0,
                size_pkts: 10,
            },
        );
        assert_eq!(full.ring.len(), 1);
    }

    #[test]
    fn a_full_ring_spills_into_the_stream_and_drops_without_one() {
        let ring = || TraceRing::with_capacity(8, 8);
        let push_100 = |obs: &mut ShardObs| {
            for i in 0..100u64 {
                obs.record(Nanos(i), TraceKind::Drop { bundle: i as u32 });
            }
        };

        let (sink, buf) = StreamSink::to_shared_vec();
        let mut streamed = ShardObs::new(ObsLevel::Full, 2);
        streamed.ring = ring();
        streamed.stream = Some(sink);
        push_100(&mut streamed);
        assert!(streamed.ring.len() <= 8, "the ring never outgrows its cap");
        streamed.flush(Nanos(100));
        assert_eq!(streamed.ring.dropped, 0);
        let text = buf.contents();
        let parsed: Vec<StreamedRecord> = text.lines().filter_map(stream::parse_line).collect();
        assert_eq!(parsed.len(), 100, "every record reached the stream");
        for (i, r) in parsed.iter().enumerate() {
            assert_eq!(r.seq, i as u64, "seq is contiguous across spills");
            assert_eq!(r.rec.kind, TraceKind::Drop { bundle: i as u32 });
            assert_eq!(r.rec.wall_ns, 0);
        }

        // Without a stream the ring is the only bound: drop and count.
        let mut in_memory = ShardObs::new(ObsLevel::Full, 2);
        in_memory.ring = ring();
        push_100(&mut in_memory);
        assert_eq!(in_memory.ring.len(), 8);
        assert_eq!(in_memory.ring.dropped, 92);
    }

    #[test]
    fn wall_clock_is_monotonic() {
        let a = wall_now_ns();
        let b = wall_now_ns();
        assert!(b >= a);
    }
}
