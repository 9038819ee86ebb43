//! Figure 7 and §7.6: detecting imbalanced multipath from out-of-order
//! congestion ACKs.
//!
//! A load balancer spreads the bundle's flows across several bottleneck
//! sub-paths whose delays differ. Bundler cannot do aggregate delay-based
//! control in that situation, but it can *detect* it: epoch measurements
//! start arriving out of send order. The paper sweeps bottleneck bandwidth
//! (12–96 Mbit/s), RTT (10–300 ms) and path count (1–32) and finds at most
//! 0.4 % out-of-order measurements on a single path versus at least 20 %
//! with 2–32 imbalanced paths, so a 5 % threshold separates them cleanly.

use bundler_core::BundlerConfig;
use bundler_sim::edge::BundleMode;
use bundler_sim::sim::{Simulation, SimulationConfig};
use bundler_sim::workload::FlowSpec;
use bundler_types::{Duration, Nanos, Rate};

use crate::{fmt, header, Scale};

/// One sweep point of the multipath-detection experiment.
#[derive(Debug, Clone, Copy)]
pub struct MultipathPoint {
    /// Aggregate bottleneck rate.
    pub rate: Rate,
    /// Base RTT.
    pub rtt: Duration,
    /// Number of load-balanced sub-paths.
    pub paths: usize,
    /// Measured out-of-order fraction of epoch measurements.
    pub out_of_order_fraction: f64,
    /// Whether the sendbox had disabled its rate control by the end of the
    /// run.
    pub disabled: bool,
}

/// Configuration of one multipath run.
#[derive(Debug, Clone, Copy)]
pub struct MultipathScenario {
    /// Aggregate bottleneck rate.
    pub rate: Rate,
    /// Base RTT.
    pub rtt: Duration,
    /// Number of sub-paths.
    pub paths: usize,
    /// Additional one-way delay per sub-path index (the imbalance).
    pub delay_spread: Duration,
    /// Number of concurrent bundled flows (enough to occupy all paths).
    pub flows: usize,
    /// Run length.
    pub duration: Duration,
}

impl Default for MultipathScenario {
    fn default() -> Self {
        MultipathScenario {
            rate: Rate::from_mbps(48),
            rtt: Duration::from_millis(50),
            paths: 4,
            delay_spread: Duration::from_millis(40),
            flows: 24,
            duration: Duration::from_secs(20),
        }
    }
}

impl MultipathScenario {
    /// Runs this point and returns the measured out-of-order fraction.
    pub fn run(&self) -> MultipathPoint {
        let config = SimulationConfig {
            duration: self.duration,
            bottleneck_rate: self.rate,
            rtt: self.rtt,
            num_paths: self.paths,
            path_delay_spread: if self.paths > 1 {
                self.delay_spread
            } else {
                Duration::ZERO
            },
            bundles: vec![BundleMode::Bundler(BundlerConfig::default())],
            ..Default::default()
        };
        let workload: Vec<FlowSpec> = (0..self.flows as u64)
            .map(|i| FlowSpec::bundled(i, FlowSpec::BACKLOGGED, Nanos::from_millis(i * 20), 0))
            .collect();
        let report = Simulation::new(config, workload).run();
        let frac = report.out_of_order_fraction[0];
        let disabled = report.mode_timeline[0]
            .iter()
            .any(|(_, mode)| mode == "disabled");
        MultipathPoint {
            rate: self.rate,
            rtt: self.rtt,
            paths: self.paths,
            out_of_order_fraction: frac,
            disabled,
        }
    }

    /// The §7.6 sweep: every combination of the given rates, RTTs and path
    /// counts.
    pub fn sweep(
        rates: &[Rate],
        rtts: &[Duration],
        path_counts: &[usize],
        duration: Duration,
    ) -> Vec<MultipathPoint> {
        let mut out = Vec::new();
        for &rate in rates {
            for &rtt in rtts {
                for &paths in path_counts {
                    let scenario = MultipathScenario {
                        rate,
                        rtt,
                        paths,
                        duration,
                        ..Default::default()
                    };
                    out.push(scenario.run());
                }
            }
        }
        out
    }
}

/// Figure 7: the out-of-order fraction on one path against four paths with
/// different delays.
pub fn fig07_multipath_delays(scale: Scale) {
    let duration = scale.pick(Duration::from_secs(15), Duration::from_secs(60));
    println!("# Figure 7: imbalanced multipath detection (4 paths with different delays)\n");

    header(&[
        "paths",
        "delay_spread_ms",
        "out_of_order_fraction",
        "bundler_disabled",
    ]);
    for (paths, spread_ms) in [(1usize, 0u64), (4, 40)] {
        let point = MultipathScenario {
            rate: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            paths,
            delay_spread: Duration::from_millis(spread_ms),
            flows: 24,
            duration,
        }
        .run();
        println!(
            "{} | {} | {} | {}",
            paths,
            spread_ms,
            fmt(point.out_of_order_fraction),
            point.disabled
        );
    }
    println!();
    println!(
        "paper: single-path runs stay below 0.4% out-of-order; 4 imbalanced paths exceed 20%."
    );
}

/// §7.6: the multipath-detection heuristic across bandwidths, RTTs and path
/// counts (the module doc has the paper's numbers).
pub fn tab_multipath_sweep(scale: Scale) {
    let duration = scale.pick(Duration::from_secs(10), Duration::from_secs(30));
    let rates = [
        Rate::from_mbps(12),
        Rate::from_mbps(48),
        Rate::from_mbps(96),
    ];
    let rtts = [
        Duration::from_millis(10),
        Duration::from_millis(50),
        Duration::from_millis(150),
    ];
    let paths = [1usize, 2, 4, 8];

    println!("# Section 7.6 table: out-of-order fraction vs paths/bandwidth/RTT\n");
    header(&[
        "rate_mbps",
        "rtt_ms",
        "paths",
        "out_of_order_fraction",
        "disabled",
    ]);
    let mut single_max: f64 = 0.0;
    let mut multi_min: f64 = 1.0;
    for point in MultipathScenario::sweep(&rates, &rtts, &paths, duration) {
        if point.paths == 1 {
            single_max = single_max.max(point.out_of_order_fraction);
        } else {
            multi_min = multi_min.min(point.out_of_order_fraction);
        }
        println!(
            "{} | {} | {} | {} | {}",
            fmt(point.rate.as_mbps_f64()),
            fmt(point.rtt.as_millis_f64()),
            point.paths,
            fmt(point.out_of_order_fraction),
            point.disabled
        );
    }
    println!();
    println!(
        "max single-path fraction: {} | min multipath fraction: {} (paper: 0.4% vs 20%)",
        fmt(single_max),
        fmt(multi_min)
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path_has_negligible_out_of_order_fraction() {
        let point = MultipathScenario {
            paths: 1,
            duration: Duration::from_secs(12),
            flows: 8,
            ..Default::default()
        }
        .run();
        assert!(
            point.out_of_order_fraction < 0.05,
            "single path should be (almost) perfectly ordered, got {}",
            point.out_of_order_fraction
        );
        assert!(
            !point.disabled,
            "Bundler must stay enabled on a single path"
        );
    }

    #[test]
    fn imbalanced_paths_exceed_threshold_and_disable_bundler() {
        let point = MultipathScenario {
            paths: 4,
            delay_spread: Duration::from_millis(40),
            duration: Duration::from_secs(15),
            ..Default::default()
        }
        .run();
        assert!(
            point.out_of_order_fraction > 0.05,
            "imbalanced multipath should exceed the 5% threshold, got {}",
            point.out_of_order_fraction
        );
        assert!(
            point.disabled,
            "Bundler should disable itself under imbalanced multipath"
        );
    }

    #[test]
    fn separation_between_single_and_multi_path() {
        // The property that makes the 5 % threshold work: a clear gap
        // between the single-path and multipath regimes.
        let single = MultipathScenario {
            paths: 1,
            duration: Duration::from_secs(10),
            flows: 8,
            ..Default::default()
        }
        .run();
        let multi = MultipathScenario {
            paths: 2,
            delay_spread: Duration::from_millis(40),
            duration: Duration::from_secs(10),
            flows: 8,
            ..Default::default()
        }
        .run();
        assert!(
            multi.out_of_order_fraction > 4.0 * single.out_of_order_fraction.max(0.001),
            "multipath ({}) should be well above single path ({})",
            multi.out_of_order_fraction,
            single.out_of_order_fraction
        );
    }
}
