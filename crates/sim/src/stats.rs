//! Statistics collection: flow completion times, slowdowns, throughput and
//! queue-delay time series — plus [`SimStats`], the comparable digest of a
//! run used to assert that engines and hosts are bit-identical.

use bundler_agent::AgentStats;
use bundler_core::sendbox::SendboxStats;
use bundler_core::SendboxTelemetry;
use bundler_types::{Duration, Nanos, Rate};

/// Record of one completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FctRecord {
    /// Flow size in bytes.
    pub size_bytes: u64,
    /// Flow start time.
    pub start: Nanos,
    /// Flow completion time (duration from start to last byte acked).
    pub fct: Duration,
    /// Completion time the same flow would have had on an unloaded network
    /// (one RTT plus serialization at the bottleneck rate).
    pub unloaded_fct: Duration,
    /// Which bundle (if any) the flow belonged to; `None` for cross traffic.
    pub bundle: Option<usize>,
}

serde::layout!(value FctRecord { size_bytes, start, fct, unloaded_fct, bundle });

impl FctRecord {
    /// Slowdown: completion time divided by the unloaded completion time.
    /// 1.0 is optimal.
    pub fn slowdown(&self) -> f64 {
        if self.unloaded_fct.is_zero() {
            1.0
        } else {
            (self.fct.as_secs_f64() / self.unloaded_fct.as_secs_f64()).max(1.0)
        }
    }
}

/// Computes the `q`-th quantile (0.0–1.0) of `values` by linear
/// interpolation. Returns `None` for empty input.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let q = q.clamp(0.0, 1.0);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(values[lo])
    } else {
        let frac = pos - lo as f64;
        Some(values[lo] * (1.0 - frac) + values[hi] * frac)
    }
}

/// Summary statistics over a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Mean.
    pub mean: f64,
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics; returns `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let p50 = quantile(&mut v, 0.5)?;
        let p90 = quantile(&mut v, 0.9)?;
        let p99 = quantile(&mut v, 0.99)?;
        let max = v.last().copied()?;
        Some(Summary {
            count: values.len(),
            mean,
            p50,
            p90,
            p99,
            max,
        })
    }
}

/// A time series of (time, value) samples.
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    /// The samples, in time order.
    pub samples: Vec<(Nanos, f64)>,
}

serde::layout!(value TimeSeries { samples });

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries {
            samples: Vec::new(),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, at: Nanos, value: f64) {
        self.samples.push((at, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of the values between `from` and `to` (inclusive).
    pub fn mean_between(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let vals: Vec<f64> = self
            .samples
            .iter()
            .filter(|(t, _)| *t >= from && *t <= to)
            .map(|&(_, v)| v)
            .collect();
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    /// Maximum value over the whole series.
    pub fn max(&self) -> Option<f64> {
        self.samples
            .iter()
            .map(|&(_, v)| v)
            .fold(None, |acc, v| match acc {
                None => Some(v),
                Some(a) => Some(a.max(v)),
            })
    }
}

/// Grouping of request sizes used by the paper's Figure 9 panels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Requests of at most 10 KB.
    Small,
    /// Requests between 10 KB and 1 MB.
    Medium,
    /// Requests larger than 1 MB.
    Large,
}

impl SizeClass {
    /// Classifies a flow size.
    pub fn of(size_bytes: u64) -> SizeClass {
        if size_bytes <= 10_000 {
            SizeClass::Small
        } else if size_bytes <= 1_000_000 {
            SizeClass::Medium
        } else {
            SizeClass::Large
        }
    }

    /// All classes in display order.
    pub fn all() -> [SizeClass; 3] {
        [SizeClass::Small, SizeClass::Medium, SizeClass::Large]
    }
}

impl std::fmt::Display for SizeClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SizeClass::Small => write!(f, "<=10KB"),
            SizeClass::Medium => write!(f, "10KB-1MB"),
            SizeClass::Large => write!(f, ">1MB"),
        }
    }
}

/// The full output of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Completed request records.
    pub fcts: Vec<FctRecord>,
    /// Number of completed requests.
    pub completed: usize,
    /// Number of requests still unfinished when the simulation ended.
    pub unfinished: usize,
    /// Queue delay at the bottleneck (aggregated over sub-paths), sampled
    /// periodically, in milliseconds.
    pub bottleneck_queue_delay_ms: TimeSeries,
    /// Queue delay at each bundle's sendbox, in milliseconds.
    pub sendbox_queue_delay_ms: Vec<TimeSeries>,
    /// Throughput of bundled traffic delivered to receivers, in Mbit/s,
    /// per bundle.
    pub bundle_throughput_mbps: Vec<TimeSeries>,
    /// Throughput of un-bundled cross traffic, in Mbit/s.
    pub cross_throughput_mbps: TimeSeries,
    /// The pacing rate the sendbox enforced over time (Mbit/s), per bundle;
    /// empty when no Bundler is deployed.
    pub bundle_pacing_rate_mbps: Vec<TimeSeries>,
    /// Bundler's own RTT estimate over time (ms), per bundle; empty when no
    /// Bundler is deployed.
    pub bundle_rtt_estimate_ms: Vec<TimeSeries>,
    /// Bundler's own receive-rate estimate over time (Mbit/s), per bundle.
    pub bundle_recv_rate_estimate_mbps: Vec<TimeSeries>,
    /// Ground-truth RTT over time (ms): base RTT plus the bottleneck
    /// queueing delay at the sampling instant.
    pub actual_rtt_ms: TimeSeries,
    /// Per-bundle mode timeline: (time, mode name).
    pub mode_timeline: Vec<Vec<(Nanos, String)>>,
    /// Per-bundle out-of-order measurement fraction at the end of the run.
    pub out_of_order_fraction: Vec<f64>,
    /// Packets dropped at the bottleneck.
    pub bottleneck_drops: u64,
    /// Total bytes delivered to receivers (all traffic).
    pub bytes_delivered: u64,
    /// Ping (request/response) RTT samples in milliseconds, per bundle.
    pub ping_rtts_ms: Vec<Vec<f64>>,
    /// Final site-agent telemetry export, when the run used an agent edge
    /// ([`SimulationConfig::multi_bundle`](crate::SimulationConfig::multi_bundle)).
    pub agent_telemetry: Option<bundler_agent::AgentTelemetry>,
    /// The site agent's own counters, when the run used an agent edge.
    pub agent_stats: Option<bundler_agent::AgentStats>,
    /// Total events the simulation loop processed. Together with the wall
    /// time around [`Simulation::run`](crate::Simulation::run) this is the
    /// simulator-throughput metric (`events/sec`) the perf trajectory in
    /// `BENCH_*.json` tracks.
    pub events_processed: u64,
    /// Total packets created over the run (arena inserts: data, ACKs, pings
    /// and retransmissions).
    pub packets_created: u64,
    /// How many of those packet allocations were served from the arena's
    /// free list; `packets_created - packets_recycled` is the arena
    /// high-water mark, everything else was alloc-free.
    pub packets_recycled: u64,
    /// Observability output, present when the run had
    /// `SimulationConfig::obs` above `Off`. Boxed: reports are cloned in
    /// tests and the obs payload can dwarf the rest. Deliberately
    /// **excluded** from [`SimStats`] — its portable half is
    /// shard-count-invariant by construction, but its host half (phase
    /// timings, migration traffic, wall stamps) legitimately varies run to
    /// run.
    pub obs: Option<Box<bundler_obs::ObsReport>>,
}

/// The deterministic digest of a simulation run: every output that must be
/// *bit-identical* across event engines and across shard counts. Excluded
/// by design: `packets_recycled` (arena recycling is a host implementation
/// detail — a sharded run re-inserts packets as they migrate between
/// per-shard arenas) and wall-clock measurements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Completed / unfinished request counts.
    pub completed: usize,
    /// Requests still unfinished at the end of the run.
    pub unfinished: usize,
    /// Logical events handled across all cores.
    pub events_processed: u64,
    /// Packets created by endhosts (data, ACKs, pings, retransmissions).
    pub packets_created: u64,
    /// Packets dropped at the bottleneck.
    pub bottleneck_drops: u64,
    /// Bytes delivered through the bottleneck.
    pub bytes_delivered: u64,
    /// Every completion record: (size, start ns, fct ns, bundle).
    pub fcts: Vec<(u64, u64, u64, Option<usize>)>,
    /// Ping RTT samples per bundle (milliseconds, exact f64 bits).
    pub ping_rtts_ms: Vec<Vec<f64>>,
    /// Bottleneck queue-delay series.
    pub bottleneck_queue_delay: Vec<(Nanos, f64)>,
    /// Ground-truth RTT series.
    pub actual_rtt: Vec<(Nanos, f64)>,
    /// Cross-traffic throughput series.
    pub cross_throughput: Vec<(Nanos, f64)>,
    /// Per-bundle series: throughput, pacing rate, RTT estimate, receive
    /// rate estimate, sendbox queue delay.
    pub bundle_series: Vec<[Vec<(Nanos, f64)>; 5]>,
    /// Per-bundle mode timelines.
    pub mode_timeline: Vec<Vec<(Nanos, String)>>,
    /// Per-bundle out-of-order measurement fraction.
    pub out_of_order_fraction: Vec<f64>,
    /// Final agent telemetry (global bundle index, snapshot) and summed
    /// counters, when a multi-bundle edge ran.
    pub telemetry: Option<Vec<(usize, SendboxTelemetry)>>,
    /// Summed agent counters, when a multi-bundle edge ran.
    pub agent_stats: Option<AgentStats>,
    /// Telemetry counter totals, when a multi-bundle edge ran.
    pub telemetry_totals: Option<SendboxStats>,
}

impl SimStats {
    /// Extracts the digest from a report.
    pub fn of(report: &SimReport) -> SimStats {
        SimStats {
            completed: report.completed,
            unfinished: report.unfinished,
            events_processed: report.events_processed,
            packets_created: report.packets_created,
            bottleneck_drops: report.bottleneck_drops,
            bytes_delivered: report.bytes_delivered,
            fcts: report
                .fcts
                .iter()
                .map(|f| (f.size_bytes, f.start.as_nanos(), f.fct.as_nanos(), f.bundle))
                .collect(),
            ping_rtts_ms: report.ping_rtts_ms.clone(),
            bottleneck_queue_delay: report.bottleneck_queue_delay_ms.samples.clone(),
            actual_rtt: report.actual_rtt_ms.samples.clone(),
            cross_throughput: report.cross_throughput_mbps.samples.clone(),
            bundle_series: (0..report.bundle_throughput_mbps.len())
                .map(|b| {
                    [
                        report.bundle_throughput_mbps[b].samples.clone(),
                        report.bundle_pacing_rate_mbps[b].samples.clone(),
                        report.bundle_rtt_estimate_ms[b].samples.clone(),
                        report.bundle_recv_rate_estimate_mbps[b].samples.clone(),
                        report.sendbox_queue_delay_ms[b].samples.clone(),
                    ]
                })
                .collect(),
            mode_timeline: report.mode_timeline.clone(),
            out_of_order_fraction: report.out_of_order_fraction.clone(),
            telemetry: report
                .agent_telemetry
                .as_ref()
                .map(|t| t.bundles.iter().map(|b| (b.index, b.snapshot)).collect()),
            agent_stats: report.agent_stats,
            telemetry_totals: report.agent_telemetry.as_ref().map(|t| t.totals()),
        }
    }
}

impl SimReport {
    /// Slowdowns of all completed bundled requests (any bundle).
    pub fn slowdowns(&self) -> Vec<f64> {
        self.fcts
            .iter()
            .filter(|r| r.bundle.is_some())
            .map(|r| r.slowdown())
            .collect()
    }

    /// Slowdowns of completed requests in a specific size class.
    pub fn slowdowns_in_class(&self, class: SizeClass) -> Vec<f64> {
        self.fcts
            .iter()
            .filter(|r| r.bundle.is_some() && SizeClass::of(r.size_bytes) == class)
            .map(|r| r.slowdown())
            .collect()
    }

    /// FCTs (milliseconds) of completed bundled requests in a size class.
    pub fn fcts_in_class_ms(&self, class: SizeClass) -> Vec<f64> {
        self.fcts
            .iter()
            .filter(|r| r.bundle.is_some() && SizeClass::of(r.size_bytes) == class)
            .map(|r| r.fct.as_millis_f64())
            .collect()
    }

    /// Median slowdown over all completed bundled requests.
    pub fn median_slowdown(&self) -> Option<f64> {
        let mut s = self.slowdowns();
        quantile(&mut s, 0.5)
    }

    /// The given quantile of slowdown over all completed bundled requests.
    pub fn slowdown_quantile(&self, q: f64) -> Option<f64> {
        let mut s = self.slowdowns();
        quantile(&mut s, q)
    }

    /// Mean throughput of a bundle over the run, in Mbit/s.
    pub fn mean_bundle_throughput_mbps(&self, bundle: usize) -> Option<f64> {
        let ts = self.bundle_throughput_mbps.get(bundle)?;
        ts.mean_between(Nanos::ZERO, Nanos::MAX)
    }

    /// Total delivered goodput as a rate over `horizon`.
    pub fn delivered_rate(&self, horizon: Duration) -> Rate {
        Rate::from_bytes_over(self.bytes_delivered, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let mut v = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&mut v, 0.0), Some(1.0));
        assert_eq!(quantile(&mut v, 1.0), Some(4.0));
        assert_eq!(quantile(&mut v, 0.5), Some(2.5));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn summary_computes_percentiles() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&values).unwrap();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.p99 - 99.01).abs() < 0.1);
        assert_eq!(s.max, 100.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn slowdown_is_at_least_one() {
        let r = FctRecord {
            size_bytes: 1000,
            start: Nanos::ZERO,
            fct: Duration::from_millis(40),
            unloaded_fct: Duration::from_millis(50),
            bundle: Some(0),
        };
        assert_eq!(r.slowdown(), 1.0);
        let r2 = FctRecord {
            fct: Duration::from_millis(100),
            ..r
        };
        assert!((r2.slowdown() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn size_classes() {
        assert_eq!(SizeClass::of(500), SizeClass::Small);
        assert_eq!(SizeClass::of(10_000), SizeClass::Small);
        assert_eq!(SizeClass::of(10_001), SizeClass::Medium);
        assert_eq!(SizeClass::of(1_000_000), SizeClass::Medium);
        assert_eq!(SizeClass::of(5_000_000), SizeClass::Large);
        assert_eq!(SizeClass::all().len(), 3);
        assert_eq!(SizeClass::Small.to_string(), "<=10KB");
    }

    #[test]
    fn time_series_helpers() {
        let mut ts = TimeSeries::new();
        assert!(ts.is_empty());
        ts.push(Nanos::from_millis(0), 1.0);
        ts.push(Nanos::from_millis(10), 3.0);
        ts.push(Nanos::from_millis(20), 5.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(
            ts.mean_between(Nanos::ZERO, Nanos::from_millis(10)),
            Some(2.0)
        );
        assert_eq!(ts.max(), Some(5.0));
        assert_eq!(
            ts.mean_between(Nanos::from_secs(1), Nanos::from_secs(2)),
            None
        );
    }

    #[test]
    fn report_slowdown_filters_by_bundle_and_class() {
        let mk = |size, fct_ms, bundle| FctRecord {
            size_bytes: size,
            start: Nanos::ZERO,
            fct: Duration::from_millis(fct_ms),
            unloaded_fct: Duration::from_millis(50),
            bundle,
        };
        let report = SimReport {
            fcts: vec![
                mk(1000, 100, Some(0)),
                mk(1000, 200, Some(0)),
                mk(1000, 500, None),
                mk(50_000, 100, Some(0)),
            ],
            completed: 4,
            ..Default::default()
        };
        assert_eq!(report.slowdowns().len(), 3, "cross-traffic flows excluded");
        assert_eq!(report.slowdowns_in_class(SizeClass::Small).len(), 2);
        assert_eq!(report.slowdowns_in_class(SizeClass::Medium).len(), 1);
        assert!(report.median_slowdown().unwrap() >= 2.0);
    }
}
