//! Figures 5 and 6: accuracy of Bundler's out-of-band measurements.
//!
//! The paper replays 90 traces across link delays of {20, 50, 100} ms and
//! bottleneck rates of {24, 48, 96} Mbit/s and compares, at each time step,
//! Bundler's estimate of the RTT and receive rate against the values
//! measured at the bottleneck router. 80 % of RTT estimates fall within
//! 1.2 ms of the truth and 80 % of rate estimates within 4 Mbit/s.
//!
//! Here each (delay, rate, seed) combination is one simulation run; the
//! estimate series comes from the sendbox control plane and the ground
//! truth from the simulator's own bookkeeping.

use bundler_core::BundlerConfig;
use bundler_types::{Duration, Nanos, Rate};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::edge::BundleMode;
use crate::scenario::cross_traffic::request_workload;
use crate::sim::{Simulation, SimulationConfig};
use crate::stats::quantile;
use crate::workload::{FlowSizeDist, FlowSpec};

/// One sweep point's error samples.
#[derive(Debug, Clone)]
pub struct EstimationErrors {
    /// Link propagation RTT of this run.
    pub rtt: Duration,
    /// Bottleneck rate of this run.
    pub rate: Rate,
    /// Per-sample RTT estimation errors, in milliseconds
    /// (estimate − actual).
    pub rtt_error_ms: Vec<f64>,
    /// Per-sample receive-rate estimation errors, in Mbit/s.
    pub rate_error_mbps: Vec<f64>,
}

/// The full estimation-accuracy experiment.
#[derive(Debug, Clone)]
pub struct EstimationScenario {
    /// Link delays to sweep (the paper uses RTTs of 20, 50 and 100 ms).
    pub rtts: Vec<Duration>,
    /// Bottleneck rates to sweep (24, 48, 96 Mbit/s).
    pub rates: Vec<Rate>,
    /// Seeds per combination (the paper uses 10 traces per combination).
    pub seeds_per_combination: u64,
    /// Length of each run.
    pub duration: Duration,
}

impl Default for EstimationScenario {
    fn default() -> Self {
        EstimationScenario {
            rtts: vec![
                Duration::from_millis(20),
                Duration::from_millis(50),
                Duration::from_millis(100),
            ],
            rates: vec![
                Rate::from_mbps(24),
                Rate::from_mbps(48),
                Rate::from_mbps(96),
            ],
            seeds_per_combination: 2,
            duration: Duration::from_secs(20),
        }
    }
}

impl EstimationScenario {
    /// A reduced sweep for quick runs and tests.
    pub fn quick() -> Self {
        EstimationScenario {
            rtts: vec![Duration::from_millis(50)],
            rates: vec![Rate::from_mbps(48)],
            seeds_per_combination: 1,
            duration: Duration::from_secs(15),
        }
    }

    fn run_one(&self, rtt: Duration, rate: Rate, seed: u64) -> EstimationErrors {
        let config = SimulationConfig {
            duration: self.duration,
            bottleneck_rate: rate,
            rtt,
            bundles: vec![BundleMode::Bundler(BundlerConfig::default())],
            sample_interval: Duration::from_millis(20),
            ..Default::default()
        };
        // Offered load at ~85 % of capacity from the heavy-tailed
        // distribution, so the estimates are exercised across queue
        // occupancies.
        let (mut specs, id) = request_workload(
            &mut SmallRng::seed_from_u64(seed),
            &FlowSizeDist::caida_like(),
            rate.mul_f64(0.85),
            Duration::ZERO,
            self.duration,
            Some(0),
            0,
        );
        // One long-running flow keeps the link busy so there is always
        // traffic to measure.
        specs.push(FlowSpec::bundled(id, FlowSpec::BACKLOGGED, Nanos::ZERO, 0));

        let report = Simulation::new(config, specs).run();

        // Compare estimate series against ground truth, skipping warm-up.
        let warmup = Nanos::from_secs(3);
        let mut rtt_error_ms = Vec::new();
        for (i, &(t, est)) in report.bundle_rtt_estimate_ms[0].samples.iter().enumerate() {
            if t < warmup {
                continue;
            }
            if let Some(&(_, actual)) = report.actual_rtt_ms.samples.get(i) {
                rtt_error_ms.push(est - actual);
            }
        }
        let mut rate_error_mbps = Vec::new();
        for (i, &(t, est)) in report.bundle_recv_rate_estimate_mbps[0]
            .samples
            .iter()
            .enumerate()
        {
            if t < warmup {
                continue;
            }
            if let Some(&(_, actual)) = report.bundle_throughput_mbps[0].samples.get(i) {
                rate_error_mbps.push(est - actual);
            }
        }
        EstimationErrors {
            rtt,
            rate,
            rtt_error_ms,
            rate_error_mbps,
        }
    }

    /// Runs the whole sweep.
    pub fn run(&self) -> Vec<EstimationErrors> {
        let mut out = Vec::new();
        for &rtt in &self.rtts {
            for &rate in &self.rates {
                for seed in 0..self.seeds_per_combination {
                    out.push(self.run_one(rtt, rate, seed + 1));
                }
            }
        }
        out
    }
}

/// Aggregates absolute errors across sweep points and reports the fraction
/// within a tolerance plus selected quantiles.
#[derive(Debug, Clone, Copy)]
pub struct ErrorSummary {
    /// Number of samples.
    pub samples: usize,
    /// Fraction of |error| within the tolerance.
    pub within_tolerance: f64,
    /// Median absolute error.
    pub median_abs: f64,
    /// 90th percentile absolute error.
    pub p90_abs: f64,
}

/// Summarizes a set of signed errors against a tolerance on |error|.
pub fn summarize_errors(errors: &[f64], tolerance: f64) -> ErrorSummary {
    if errors.is_empty() {
        return ErrorSummary {
            samples: 0,
            within_tolerance: 0.0,
            median_abs: 0.0,
            p90_abs: 0.0,
        };
    }
    let mut abs: Vec<f64> = errors.iter().map(|e| e.abs()).collect();
    let within = abs.iter().filter(|&&e| e <= tolerance).count() as f64 / abs.len() as f64;
    let median = quantile(&mut abs, 0.5).unwrap_or(0.0);
    let p90 = quantile(&mut abs, 0.9).unwrap_or(0.0);
    ErrorSummary {
        samples: errors.len(),
        within_tolerance: within,
        median_abs: median,
        p90_abs: p90,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_errors_basics() {
        let s = summarize_errors(&[0.5, -0.5, 2.0, -3.0], 1.0);
        assert_eq!(s.samples, 4);
        assert!((s.within_tolerance - 0.5).abs() < 1e-9);
        assert!(s.median_abs >= 0.5 && s.median_abs <= 2.0);
        let empty = summarize_errors(&[], 1.0);
        assert_eq!(empty.samples, 0);
    }

    #[test]
    fn estimates_track_ground_truth() {
        // A single quick sweep point: the estimates must be produced and be
        // reasonably close to the truth most of the time. The full-figure
        // tolerance check lives in the benchmark harness.
        let errors = EstimationScenario::quick().run();
        assert_eq!(errors.len(), 1);
        let e = &errors[0];
        assert!(
            e.rtt_error_ms.len() > 100,
            "need many RTT samples, got {}",
            e.rtt_error_ms.len()
        );
        assert!(e.rate_error_mbps.len() > 100);
        let rtt_summary = summarize_errors(&e.rtt_error_ms, 5.0);
        assert!(
            rtt_summary.within_tolerance > 0.6,
            "RTT estimates should mostly be within 5 ms of truth ({:?})",
            rtt_summary
        );
        // The rate comparison is against a 20 ms delivery-rate sample, which
        // is itself a noisy reference, so the unit-test tolerance is looser
        // than the figure's 4 Mbit/s band (the bench binary reports both).
        let rate_summary = summarize_errors(&e.rate_error_mbps, 12.0);
        assert!(
            rate_summary.within_tolerance > 0.55,
            "rate estimates should mostly be within 12 Mbit/s of truth ({:?})",
            rate_summary
        );
    }
}
