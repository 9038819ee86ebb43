//! Offline analysis of exported observability streams.
//!
//! The streaming export (`SimulationConfig::stream`) writes one JSON line
//! per trace record; `ObsReport::to_jsonl` renders the in-memory trace in
//! the same protocol. Everything here consumes that line format: parse,
//! restore the canonical `(at, shard, seq)` order, and reduce to the
//! figures the paper argues with — FCT-slowdown CDFs, the queue-shift
//! ratio (how much queueing delay sits at the shared bottleneck vs. in
//! the sendbox), per-bundle throughput/delay series and Jain's fairness.
//! The `obs_query` binary is a thin printer over these functions.

use bundler_obs::{decompose, stream, FlowDecomp, HealthKind, TraceKind, TraceRecord};
use bundler_types::Nanos;

/// Parses an exported stream (or `to_jsonl` output) into trace records in
/// canonical merged order. Meta lines (`{"meta":...}`) and malformed lines
/// are skipped, matching the stream module's contract.
pub fn load_records(text: &str) -> Vec<TraceRecord> {
    // Record lines average about 90 bytes: this seldom regrows, and the
    // capacity a stream does not fill is never touched.
    let mut parsed: Vec<stream::StreamedRecord> = Vec::with_capacity(text.len() / 64);
    parsed.extend(text.lines().filter_map(stream::parse_line));
    stream::sort_canonical(&mut parsed);
    parsed.into_iter().map(|r| r.rec).collect()
}

/// One point of an FCT-slowdown CDF: `(percentile, slowdown)`.
pub type CdfPoint = (f64, f64);

/// FCT-slowdown CDF over completed sampled flows, at the canonical
/// percentiles (p10 … p99.9). Empty when no flow completed.
pub fn fct_slowdown_cdf(decomp: &[FlowDecomp]) -> Vec<CdfPoint> {
    if decomp.is_empty() {
        return Vec::new();
    }
    let mut slow: Vec<u64> = decomp.iter().map(|d| d.slowdown_milli).collect();
    slow.sort_unstable();
    [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9]
        .iter()
        .map(|&p| {
            let idx = ((p / 100.0) * (slow.len() - 1) as f64).round() as usize;
            (p, slow[idx.min(slow.len() - 1)] as f64 / 1000.0)
        })
        .collect()
}

/// Where sampled flows spent their queueing delay, split at the median
/// completion — the paper's queue-shift story in two numbers: the first
/// half of completions lands while delay control is still ramping (queue
/// at the shared bottleneck), the second half after it engages, when the
/// bottleneck share of queueing delay should have shrunk (the queue moved
/// into the sendbox, where scheduling policy can act on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueShift {
    /// Completed flows in the early half.
    pub early_flows: usize,
    /// Completed flows in the late half.
    pub late_flows: usize,
    /// Mean bottleneck share of queueing delay over the first half of
    /// completions.
    pub early_bottleneck_share: f64,
    /// Mean bottleneck share over the second half of completions.
    pub late_bottleneck_share: f64,
    /// Mean bottleneck share over every completed flow.
    pub overall_bottleneck_share: f64,
}

/// Computes [`QueueShift`] over completed flow decompositions. Returns
/// `None` with fewer than two completions (no halves to compare).
pub fn queue_shift(decomp: &[FlowDecomp]) -> Option<QueueShift> {
    if decomp.len() < 2 {
        return None;
    }
    let mut by_end: Vec<&FlowDecomp> = decomp.iter().collect();
    by_end.sort_by_key(|d| (d.end_at, d.flow));
    let mean_share = |flows: &[&FlowDecomp]| {
        flows.iter().map(|d| d.bottleneck_share()).sum::<f64>() / flows.len().max(1) as f64
    };
    let (early, late) = by_end.split_at(by_end.len() / 2);
    Some(QueueShift {
        early_flows: early.len(),
        late_flows: late.len(),
        early_bottleneck_share: mean_share(early),
        late_bottleneck_share: mean_share(late),
        overall_bottleneck_share: mean_share(&by_end),
    })
}

/// Per-bundle reduction of the sampled flows: delivery, delay and the
/// control-plane rate track.
#[derive(Debug, Clone, PartialEq)]
pub struct BundleRow {
    /// Bundle index (`u32::MAX` = direct, unbundled traffic).
    pub bundle: u32,
    /// Completed sampled flows.
    pub flows: usize,
    /// Bytes those flows carried.
    pub bytes: u64,
    /// Mean FCT, milliseconds.
    pub mean_fct_ms: f64,
    /// Mean FCT slowdown (1.0 = ideal).
    pub mean_slowdown: f64,
    /// Mean share of queueing delay at the bottleneck.
    pub bottleneck_share: f64,
    /// Goodput over the bundle's active span, Mbit/s.
    pub throughput_mbps: f64,
    /// Rate-change records seen for this bundle (the control track).
    pub rate_changes: usize,
    /// Last pacing rate the controller set, Mbit/s.
    pub last_rate_mbps: f64,
}

/// Reduces the trace + decompositions into one row per bundle, ascending
/// index with direct traffic (if any) last.
pub fn bundle_rows(trace: &[TraceRecord], decomp: &[FlowDecomp]) -> Vec<BundleRow> {
    use std::collections::BTreeMap;
    struct Acc {
        flows: usize,
        bytes: u64,
        fct_ns: u64,
        slowdown_milli: u64,
        share: f64,
        first: Nanos,
        last: Nanos,
    }
    let mut sizes: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rates: BTreeMap<u32, (usize, u64)> = BTreeMap::new();
    for rec in trace {
        match rec.kind {
            TraceKind::FlowAdmit {
                flow, size_bytes, ..
            } => {
                sizes.insert(flow, size_bytes);
            }
            TraceKind::RateChange { bundle, rate_bps } => {
                let e = rates.entry(bundle).or_insert((0, 0));
                e.0 += 1;
                e.1 = rate_bps;
            }
            _ => {}
        }
    }
    let mut acc: BTreeMap<u32, Acc> = BTreeMap::new();
    for d in decomp {
        let bytes = sizes.get(&d.flow).copied().unwrap_or(0);
        let e = acc.entry(d.bundle).or_insert(Acc {
            flows: 0,
            bytes: 0,
            fct_ns: 0,
            slowdown_milli: 0,
            share: 0.0,
            first: d.admitted_at,
            last: d.end_at,
        });
        e.flows += 1;
        e.bytes += bytes;
        e.fct_ns += d.fct_ns;
        e.slowdown_milli += d.slowdown_milli;
        e.share += d.bottleneck_share();
        e.first = e.first.min(d.admitted_at);
        e.last = e.last.max(d.end_at);
    }
    acc.into_iter()
        .map(|(bundle, a)| {
            let n = a.flows.max(1) as f64;
            let span_s = (a.last.saturating_since(a.first).as_nanos() as f64 / 1e9).max(1e-9);
            let (rate_changes, last_rate_bps) = rates.get(&bundle).copied().unwrap_or((0, 0));
            BundleRow {
                bundle,
                flows: a.flows,
                bytes: a.bytes,
                mean_fct_ms: a.fct_ns as f64 / n / 1e6,
                mean_slowdown: a.slowdown_milli as f64 / n / 1000.0,
                bottleneck_share: a.share / n,
                throughput_mbps: a.bytes as f64 * 8.0 / span_s / 1e6,
                rate_changes,
                last_rate_mbps: last_rate_bps as f64 / 1e6,
            }
        })
        .collect()
}

/// Jain's fairness index over a set of allocations: `(Σx)² / (n·Σx²)`,
/// 1.0 when all equal, → 1/n under maximal skew. `None` for an empty or
/// all-zero input.
pub fn jains_fairness(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let sum: f64 = xs.iter().sum();
    let sq: f64 = xs.iter().map(|x| x * x).sum();
    if sq <= 0.0 {
        return None;
    }
    Some(sum * sum / (xs.len() as f64 * sq))
}

/// Health-event counts by monitor kind, ascending kind.
pub fn health_summary(trace: &[TraceRecord]) -> Vec<(HealthKind, u64)> {
    let mut counts: std::collections::BTreeMap<u8, u64> = std::collections::BTreeMap::new();
    for rec in trace {
        if let TraceKind::Health { kind, .. } = rec.kind {
            *counts.entry(kind).or_insert(0) += 1;
        }
    }
    counts
        .into_iter()
        .filter_map(|(k, n)| HealthKind::from_u8(k).map(|k| (k, n)))
        .collect()
}

/// Everything `obs_query` prints, reduced in one pass.
pub struct TraceAnalysis {
    /// Records in canonical order.
    pub records: Vec<TraceRecord>,
    /// Per-flow delay decompositions of completed sampled flows.
    pub decomp: Vec<FlowDecomp>,
    /// FCT-slowdown CDF points.
    pub cdf: Vec<CdfPoint>,
    /// Early/late bottleneck-share comparison.
    pub shift: Option<QueueShift>,
    /// Per-bundle reductions.
    pub bundles: Vec<BundleRow>,
    /// Jain's fairness over per-bundle throughput.
    pub fairness: Option<f64>,
    /// Health-event counts by kind.
    pub health: Vec<(HealthKind, u64)>,
}

/// Runs the whole reduction over an exported stream's text.
pub fn analyze(text: &str) -> TraceAnalysis {
    let records = load_records(text);
    let decomp = decompose(&records);
    let cdf = fct_slowdown_cdf(&decomp);
    let shift = queue_shift(&decomp);
    let bundles = bundle_rows(&records, &decomp);
    let fairness = jains_fairness(
        &bundles
            .iter()
            .filter(|b| b.bundle != u32::MAX)
            .map(|b| b.throughput_mbps)
            .collect::<Vec<_>>(),
    );
    let health = health_summary(&records);
    TraceAnalysis {
        records,
        decomp,
        cdf,
        shift,
        bundles,
        fairness,
        health,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, shard: u16, kind: TraceKind) -> String {
        stream::render_line(
            &TraceRecord {
                at: Nanos(at_ns),
                wall_ns: 0,
                shard,
                kind,
            },
            0,
        )
    }

    #[test]
    fn jains_index_bounds() {
        assert_eq!(jains_fairness(&[1.0, 1.0, 1.0]), Some(1.0));
        let skew = jains_fairness(&[1.0, 0.0, 0.0]).unwrap();
        assert!((skew - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(jains_fairness(&[]), None);
        assert_eq!(jains_fairness(&[0.0]), None);
    }

    /// Malformed lines — truncated JSON, missing fields, unknown record
    /// kinds, non-numeric values, raw garbage, blank lines — are skipped
    /// exactly like the stream contract says, while every well-formed
    /// line around them is still reduced. A partially synced or
    /// crash-truncated export must never abort the analysis.
    #[test]
    fn malformed_lines_are_skipped_around_valid_ones() {
        let good = [
            rec(
                0,
                0,
                TraceKind::FlowAdmit {
                    flow: 1,
                    bundle: 0,
                    size_bytes: 5_000,
                },
            ),
            rec(
                1_000_000,
                0,
                TraceKind::FlowEnd {
                    flow: 1,
                    fct_ns: 1_000_000,
                    sendbox_ns: 6000,
                    slowdown_milli: 1100,
                },
            ),
        ];
        let full = good.join("\n");
        assert_eq!(load_records(&full).len(), 2, "control: both lines parse");

        // A crash mid-write truncates the last line at an arbitrary byte.
        // No strict prefix of a line is a record — a value cut short
        // (`"slowdown_milli":11` from `1100`) must not be admitted as a
        // smaller one — and the intact line before it always survives.
        let last = &good[1];
        for cut in 0..last.len() {
            let text = format!("{}\n{}", good[0], &last[..cut]);
            assert_eq!(
                load_records(&text).len(),
                1,
                "truncation at byte {cut}: {:?}",
                &last[..cut]
            );
        }

        let noisy = [
            "",                                                                    // blank
            "not json at all",                                                     // raw garbage
            "{\"at\":12,\"shard\":0,\"seq\":1}",                                   // missing kind
            "{\"at\":12,\"shard\":0,\"seq\":1,\"k\":\"?\"}",                       // unknown kind
            "{\"at\":\"soon\",\"shard\":0,\"seq\":1,\"k\":\"drop\",\"bundle\":0}", // non-numeric at
            "{\"k\":\"drop\",\"bundle\":0}",                                       // missing header
            "\u{0}\u{1}\u{2}",                                                     // binary noise
            good[0].as_str(),
            "{\"meta\":\"metrics\",\"at\":0,\"shard\":0,\"c\":[0]}", // meta: skipped by contract
            good[1].as_str(),
        ]
        .join("\n");
        let a = analyze(&noisy);
        assert_eq!(a.records.len(), 2, "only the two well-formed records");
        assert_eq!(a.decomp.len(), 1, "the flow still decomposes");
        assert_eq!(a.bundles.len(), 1);
        assert_eq!(a.bundles[0].bytes, 5_000);
    }

    /// A stream with no parseable line reduces to the empty analysis —
    /// every summary degrades to its empty form instead of erroring.
    #[test]
    fn analyze_of_pure_garbage_is_empty() {
        let a = analyze("}{invalid\n\n\u{7f}\u{0}]\n{\"at\":}\n");
        assert!(a.records.is_empty());
        assert!(a.decomp.is_empty());
        assert!(a.cdf.is_empty(), "no flows, no CDF points");
        assert_eq!(a.shift, None, "fewer than two completions");
        assert!(a.bundles.is_empty());
        assert_eq!(a.fairness, None);
        assert!(a.health.is_empty());
    }

    #[test]
    fn analyze_reduces_a_tiny_stream() {
        let lines = [
            rec(
                0,
                0,
                TraceKind::FlowAdmit {
                    flow: 1,
                    bundle: 0,
                    size_bytes: 10_000,
                },
            ),
            rec(
                100,
                u16::MAX,
                TraceKind::FlowBottleneck {
                    flow: 1,
                    sojourn_ns: 4000,
                },
            ),
            rec(
                1_000_000,
                0,
                TraceKind::FlowEnd {
                    flow: 1,
                    fct_ns: 1_000_000,
                    sendbox_ns: 6000,
                    slowdown_milli: 1500,
                },
            ),
            rec(
                2_000_000,
                0,
                TraceKind::FlowAdmit {
                    flow: 2,
                    bundle: 0,
                    size_bytes: 10_000,
                },
            ),
            rec(
                3_000_000,
                0,
                TraceKind::FlowEnd {
                    flow: 2,
                    fct_ns: 1_000_000,
                    sendbox_ns: 6000,
                    slowdown_milli: 1200,
                },
            ),
            rec(
                500,
                0,
                TraceKind::Health {
                    kind: HealthKind::QueueGrowth as u8,
                    subject: 0,
                    value: 3,
                },
            ),
            "{\"meta\":\"metrics\",\"at\":0,\"shard\":0,\"c\":[0]}".to_string(),
        ];
        let a = analyze(&lines.join("\n"));
        assert_eq!(a.decomp.len(), 2, "two completed flows");
        assert_eq!(a.records.len(), 6, "meta line skipped");
        assert!(!a.cdf.is_empty());
        let shift = a.shift.expect("one flow per half");
        assert_eq!((shift.early_flows, shift.late_flows), (1, 1));
        assert!(shift.early_bottleneck_share > shift.late_bottleneck_share);
        assert_eq!(a.bundles.len(), 1);
        assert_eq!(a.bundles[0].flows, 2);
        assert_eq!(a.bundles[0].bytes, 20_000);
        assert_eq!(a.health, vec![(HealthKind::QueueGrowth, 1)]);
    }
}
