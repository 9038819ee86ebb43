//! Flow-span tracing: a deterministic sampler picks flows at admission and
//! their full lifecycle — classify, sendbox sojourn, bottleneck sojourn,
//! delivery, FCT — is recorded as linked trace records and reduced into a
//! per-flow **delay decomposition** (sendbox vs bottleneck vs propagation).
//!
//! Determinism contract: the sampling decision is a pure function of the
//! flow id and the configured seed, so every shard (and the net side)
//! independently agrees on which flows are traced without exchanging any
//! state. Per-flow accumulators ([`FlowSpanTable`]) live in the record of
//! the flow's logical process and travel with it when a bundle migrates, so
//! the [`TraceKind::FlowEnd`] record is identical wherever the flow happens
//! to finish.
//!
//! [`TraceKind::FlowEnd`]: crate::trace::TraceKind::FlowEnd

use std::collections::BTreeMap;

use bundler_types::{splitmix64, Nanos};

use crate::health::HealthState;
use crate::trace::{TraceKind, TraceRecord};

/// Flow-span tracing configuration: which flows the deterministic sampler
/// picks. Carried on `SimulationConfig::flow_trace`; `None` disables flow
/// tracing entirely (no per-flow records, no accumulators).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowTrace {
    /// Sample one flow in this many (1 traces every flow). The pick is a
    /// seeded hash of the flow id, so the sampled population is spread
    /// evenly over the workload rather than being a time prefix.
    pub sample_one_in: u64,
    /// Seed mixed into the per-flow hash.
    pub seed: u64,
}

impl Default for FlowTrace {
    fn default() -> Self {
        FlowTrace {
            sample_one_in: 16,
            seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

impl FlowTrace {
    /// Traces every flow (tests and small scenarios).
    pub fn all(seed: u64) -> Self {
        FlowTrace {
            sample_one_in: 1,
            seed,
        }
    }
}

/// The seeded sampler: a pure function of (seed, flow id), shared by every
/// shard and the net side.
#[derive(Debug, Clone, Copy)]
pub struct FlowSampler {
    cfg: FlowTrace,
}

impl FlowSampler {
    /// Builds the sampler from its configuration.
    pub fn new(cfg: FlowTrace) -> Self {
        FlowSampler { cfg }
    }

    /// True if the flow is traced. Pure: no state, no clock — every caller
    /// at every hook reaches the same verdict from the flow id alone.
    #[inline]
    pub fn picks(&self, flow: u64) -> bool {
        let one_in = self.cfg.sample_one_in.max(1);
        one_in == 1 || splitmix64(flow ^ self.cfg.seed).is_multiple_of(one_in)
    }
}

/// Per-flow accumulator while a sampled flow is in flight: what the flow
/// has experienced at the sendbox so far. Folded into the single
/// `FlowEnd` record at delivery, so the decomposition is robust even if
/// individual per-packet records were thinned by ring overflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowSpan {
    /// When the flow was admitted at the site edge.
    pub admitted_at: Nanos,
    /// Flow size in bytes (from the workload spec).
    pub size_bytes: u64,
    /// Packets released by the sendbox so far.
    pub pkts: u64,
    /// Total sendbox sojourn across released packets, ns.
    pub sendbox_ns: u64,
}

/// In-flight sampled flows of one logical process, keyed by flow id. A `BTreeMap`
/// keeps encoding order deterministic for snapshots.
pub type FlowSpanTable = BTreeMap<u64, FlowSpan>;

/// Everything observability accumulates *per site-side logical process* (a
/// bundle complex, or the direct cross traffic): in-flight flow spans and
/// health-monitor state. Lives in the LP's record on its owning shard and
/// is encoded into the LP's snapshot section — the form in which a bundle
/// also migrates — so a restored or migrated bundle finishes its flows
/// with the same records a straight-through run would produce.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BundleObsState {
    /// In-flight sampled flows.
    pub spans: FlowSpanTable,
    /// Health-monitor state (last-sample readings).
    pub health: HealthState,
}

impl BundleObsState {
    /// True if there is nothing worth carrying (lets a snapshot section
    /// write a `0` presence flag instead).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.health == HealthState::default()
    }
}

/// One flow's completed delay decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDecomp {
    /// Flow id.
    pub flow: u64,
    /// Bundle the flow was classified to (`u32::MAX` for direct traffic).
    pub bundle: u32,
    /// When the flow was admitted.
    pub admitted_at: Nanos,
    /// When the flow completed.
    pub end_at: Nanos,
    /// Flow completion time, ns.
    pub fct_ns: u64,
    /// Total sendbox sojourn, ns.
    pub sendbox_ns: u64,
    /// Total bottleneck-queue sojourn, ns.
    pub bottleneck_ns: u64,
    /// FCT slowdown in milli-units (1000 = 1.0x).
    pub slowdown_milli: u64,
}

impl FlowDecomp {
    /// Residual delay: propagation, pacing waits and feedback latency —
    /// everything the two queues do not explain.
    pub fn propagation_ns(&self) -> u64 {
        self.fct_ns
            .saturating_sub(self.sendbox_ns)
            .saturating_sub(self.bottleneck_ns)
    }

    /// Share of queueing delay spent at the shared bottleneck (the paper's
    /// queue-shift metric: Bundler's job is to drive this toward zero by
    /// moving the queue into the sendbox).
    pub fn bottleneck_share(&self) -> f64 {
        let q = self.sendbox_ns + self.bottleneck_ns;
        if q == 0 {
            0.0
        } else {
            self.bottleneck_ns as f64 / q as f64
        }
    }
}

/// Reduces a merged trace into per-flow delay decompositions, sorted by
/// completion time then flow id. Flows without a `FlowEnd` record (still
/// in flight at the horizon) are omitted.
pub fn decompose(trace: &[TraceRecord]) -> Vec<FlowDecomp> {
    let mut admit: BTreeMap<u64, (Nanos, u32)> = BTreeMap::new();
    let mut bottleneck: BTreeMap<u64, u64> = BTreeMap::new();
    let mut out = Vec::new();
    for rec in trace {
        match rec.kind {
            TraceKind::FlowAdmit { flow, bundle, .. } => {
                admit.insert(flow, (rec.at, bundle));
            }
            TraceKind::FlowBottleneck { flow, sojourn_ns } => {
                *bottleneck.entry(flow).or_insert(0) += sojourn_ns;
            }
            TraceKind::FlowEnd {
                flow,
                fct_ns,
                sendbox_ns,
                slowdown_milli,
            } => {
                let (admitted_at, bundle) = admit
                    .remove(&flow)
                    .unwrap_or((Nanos(rec.at.as_nanos().saturating_sub(fct_ns)), u32::MAX));
                out.push(FlowDecomp {
                    flow,
                    bundle,
                    admitted_at,
                    end_at: rec.at,
                    fct_ns,
                    sendbox_ns,
                    bottleneck_ns: bottleneck.remove(&flow).unwrap_or(0),
                    slowdown_milli,
                });
            }
            _ => {}
        }
    }
    out.sort_by_key(|d| (d.end_at, d.flow));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            at: Nanos(at_ns),
            wall_ns: 0,
            shard: 0,
            kind,
        }
    }

    #[test]
    fn sampler_is_pure_and_respects_rate() {
        let s = FlowSampler::new(FlowTrace {
            sample_one_in: 8,
            seed: 42,
        });
        let picked: Vec<u64> = (0..10_000).filter(|&f| s.picks(f)).collect();
        // Roughly 1/8 of the population, and the same answer every time.
        assert!(
            picked.len() > 800 && picked.len() < 1800,
            "{}",
            picked.len()
        );
        for &f in &picked {
            assert!(s.picks(f));
        }
        let all = FlowSampler::new(FlowTrace::all(7));
        assert!((0..100).all(|f| all.picks(f)));
    }

    #[test]
    fn decompose_sums_spans_per_flow() {
        let trace = vec![
            rec(
                100,
                TraceKind::FlowAdmit {
                    flow: 7,
                    bundle: 2,
                    size_bytes: 3000,
                },
            ),
            rec(
                150,
                TraceKind::FlowBottleneck {
                    flow: 7,
                    sojourn_ns: 40,
                },
            ),
            rec(
                180,
                TraceKind::FlowBottleneck {
                    flow: 7,
                    sojourn_ns: 60,
                },
            ),
            rec(
                300,
                TraceKind::FlowEnd {
                    flow: 7,
                    fct_ns: 200,
                    sendbox_ns: 50,
                    slowdown_milli: 1200,
                },
            ),
            // A second flow still in flight: no FlowEnd, not reported.
            rec(
                120,
                TraceKind::FlowAdmit {
                    flow: 9,
                    bundle: 2,
                    size_bytes: 1000,
                },
            ),
        ];
        let d = decompose(&trace);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].flow, 7);
        assert_eq!(d[0].bundle, 2);
        assert_eq!(d[0].bottleneck_ns, 100);
        assert_eq!(d[0].sendbox_ns, 50);
        assert_eq!(d[0].propagation_ns(), 50);
        assert!((d[0].bottleneck_share() - 100.0 / 150.0).abs() < 1e-9);
    }

    #[test]
    fn empty_queueing_has_zero_bottleneck_share() {
        let d = FlowDecomp {
            flow: 1,
            bundle: 0,
            admitted_at: Nanos(0),
            end_at: Nanos(10),
            fct_ns: 10,
            sendbox_ns: 0,
            bottleneck_ns: 0,
            slowdown_milli: 1000,
        };
        assert_eq!(d.bottleneck_share(), 0.0);
        assert_eq!(d.propagation_ns(), 10);
    }
}
