//! Flow-completion-time experiments: the paper's headline result.
//!
//! Figure 9 compares four configurations on the same heavy-tailed request
//! workload over a 96 Mbit/s, 50 ms path offered at 84 Mbit/s:
//!
//! * **Status Quo** — no Bundler, FIFO at the bottleneck;
//! * **Bundler (SFQ)** — the paper's default deployment;
//! * **Bundler (FIFO)** — shows that aggregate congestion control alone,
//!   without a scheduling policy, does not help;
//! * **In-Network** — fair queueing at the bottleneck itself (not
//!   deployable; an upper bound on the achievable benefit).
//!
//! The same scenario type also drives Figure 14 (sendbox congestion-control
//! choice), Figure 15 (idealized TCP proxy, via fixed-window endhosts),
//! §7.2's other-policies table and §7.4's endhost-algorithm sweep.

use bundler_cc::{BundleAlg, EndhostAlg};
use bundler_core::BundlerConfig;
use bundler_sched::Policy;
use bundler_types::{Duration, Nanos, Rate, TrafficClass};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::edge::BundleMode;
use crate::sim::{Simulation, SimulationConfig};
use crate::stats::SimReport;
use crate::workload::{FlowSizeDist, FlowSpec, PoissonArrivals};

/// The sendbox/bottleneck configuration under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendboxMode {
    /// No Bundler, drop-tail FIFO at the bottleneck.
    StatusQuo,
    /// Bundler with SFQ scheduling (the paper's default).
    BundlerSfq,
    /// Bundler with FIFO scheduling (no scheduling benefit).
    BundlerFifo,
    /// Bundler with an arbitrary scheduling policy.
    BundlerPolicy(Policy),
    /// Bundler (SFQ) with a specific bundle congestion-control algorithm.
    BundlerAlg(BundleAlg),
    /// Fair queueing deployed at the bottleneck itself ("In-Network").
    InNetwork,
}

impl SendboxMode {
    /// Human-readable label used in experiment output.
    pub fn label(&self) -> String {
        match self {
            SendboxMode::StatusQuo => "status-quo".into(),
            SendboxMode::BundlerSfq => "bundler-sfq".into(),
            SendboxMode::BundlerFifo => "bundler-fifo".into(),
            SendboxMode::BundlerPolicy(p) => format!("bundler-{p}"),
            SendboxMode::BundlerAlg(a) => format!("bundler-sfq-{a}"),
            SendboxMode::InNetwork => "in-network".into(),
        }
    }
}

/// Builder for [`FctScenario`].
#[derive(Debug, Clone)]
pub struct FctScenarioBuilder {
    requests: usize,
    seed: u64,
    mode: SendboxMode,
    endhost_alg: EndhostAlg,
    offered_load: Rate,
    bottleneck: Rate,
    rtt: Duration,
    high_priority_fraction: f64,
    background_bulk_flows: usize,
}

impl Default for FctScenarioBuilder {
    fn default() -> Self {
        FctScenarioBuilder {
            requests: 2_000,
            seed: 1,
            mode: SendboxMode::BundlerSfq,
            endhost_alg: EndhostAlg::Cubic,
            offered_load: Rate::from_mbps(84),
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            high_priority_fraction: 0.0,
            background_bulk_flows: 0,
        }
    }
}

impl FctScenarioBuilder {
    /// Number of requests to generate (the paper uses 1 000 000; tests and
    /// quick runs use far fewer).
    pub fn requests(mut self, n: usize) -> Self {
        self.requests = n;
        self
    }

    /// Random seed controlling arrivals and sizes.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The configuration under test.
    pub fn mode(mut self, mode: SendboxMode) -> Self {
        self.mode = mode;
        self
    }

    /// Endhost congestion-control algorithm (§7.4, §7.5).
    pub fn endhost_alg(mut self, alg: EndhostAlg) -> Self {
        self.endhost_alg = alg;
        self
    }

    /// Offered load of the request workload.
    pub fn offered_load(mut self, load: Rate) -> Self {
        self.offered_load = load;
        self
    }

    /// Bottleneck link rate.
    pub fn bottleneck(mut self, rate: Rate) -> Self {
        self.bottleneck = rate;
        self
    }

    /// Base round-trip time.
    pub fn rtt(mut self, rtt: Duration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Fraction of requests marked high priority (used by the strict
    /// priority experiment in §7.2).
    pub fn high_priority_fraction(mut self, frac: f64) -> Self {
        self.high_priority_fraction = frac.clamp(0.0, 1.0);
        self
    }

    /// Adds this many long-running (backlogged) bulk flows to the bundle, on
    /// top of the request workload. The heavy tail of the CAIDA-like
    /// distribution provides such flows naturally over long runs; short runs
    /// can add them explicitly so the "short flows stuck behind bulk flows"
    /// effect the paper measures is always present.
    pub fn background_bulk_flows(mut self, n: usize) -> Self {
        self.background_bulk_flows = n;
        self
    }

    /// Finalizes the builder.
    pub fn build(self) -> FctScenario {
        FctScenario { builder: self }
    }
}

/// A configured FCT experiment.
#[derive(Debug, Clone)]
pub struct FctScenario {
    builder: FctScenarioBuilder,
}

impl FctScenario {
    /// Starts building a scenario.
    pub fn builder() -> FctScenarioBuilder {
        FctScenarioBuilder::default()
    }

    /// Generates the workload for this scenario (deterministic in the seed).
    pub fn workload(&self) -> Vec<FlowSpec> {
        let b = &self.builder;
        let mut rng = SmallRng::seed_from_u64(b.seed);
        let dist = FlowSizeDist::caida_like();
        let arrivals = PoissonArrivals::for_load(b.offered_load, &dist);
        let mut specs = Vec::with_capacity(b.requests);
        let mut t = Nanos::ZERO;
        for i in 0..b.requests {
            t += arrivals.next_gap(&mut rng);
            let size = dist.sample(&mut rng);
            let class = if rng.gen::<f64>() < b.high_priority_fraction {
                TrafficClass::HIGH
            } else {
                TrafficClass::BEST_EFFORT
            };
            specs.push(
                FlowSpec::bundled(i as u64, size, t, 0)
                    .with_alg(b.endhost_alg)
                    .with_class(class),
            );
        }
        for j in 0..b.background_bulk_flows {
            specs.push(
                FlowSpec::bundled(
                    (b.requests + j) as u64,
                    FlowSpec::BACKLOGGED,
                    Nanos::from_millis(j as u64 * 50),
                    0,
                )
                .with_alg(b.endhost_alg)
                .with_class(bundler_types::TrafficClass::BULK),
            );
        }
        specs
    }

    /// The simulation configuration for this scenario.
    pub fn sim_config(&self) -> SimulationConfig {
        let b = &self.builder;
        let workload_span = self.workload_span();
        // Operators deploying a Bundler know their site's uplink capacity, so
        // the initial rate starts at the bottleneck estimate rather than the
        // conservative library default; the control loop takes over within a
        // few RTTs either way, but this avoids penalizing short experiments
        // with an artificial cold-start.
        let bundler_cfg = |policy: Policy, algorithm| BundlerConfig {
            policy,
            algorithm,
            initial_rate: b.bottleneck,
            ..Default::default()
        };
        let default_alg = BundlerConfig::default().algorithm;
        let (bundle_mode, in_network) = match b.mode {
            SendboxMode::StatusQuo => (BundleMode::StatusQuo, false),
            SendboxMode::InNetwork => (BundleMode::StatusQuo, true),
            SendboxMode::BundlerSfq => (
                BundleMode::Bundler(bundler_cfg(Policy::Sfq, default_alg)),
                false,
            ),
            SendboxMode::BundlerFifo => (
                BundleMode::Bundler(bundler_cfg(Policy::Fifo, default_alg)),
                false,
            ),
            SendboxMode::BundlerPolicy(p) => {
                (BundleMode::Bundler(bundler_cfg(p, default_alg)), false)
            }
            SendboxMode::BundlerAlg(a) => (BundleMode::Bundler(bundler_cfg(Policy::Sfq, a)), false),
        };
        SimulationConfig {
            // Leave generous drain time after the last arrival.
            duration: workload_span + Duration::from_secs(20),
            bottleneck_rate: b.bottleneck,
            rtt: b.rtt,
            bundles: vec![bundle_mode],
            in_network_fq: in_network,
            ..Default::default()
        }
    }

    fn workload_span(&self) -> Duration {
        let b = &self.builder;
        let arrivals = PoissonArrivals::for_load(b.offered_load, &FlowSizeDist::caida_like());
        arrivals.mean_gap().mul_f64(b.requests as f64)
    }

    /// Runs the experiment and returns the simulation report.
    pub fn run(&self) -> SimReport {
        let sim = Simulation::new(self.sim_config(), self.workload());
        sim.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SizeClass;

    #[test]
    fn workload_is_deterministic_and_sized() {
        let a = FctScenario::builder().requests(100).seed(3).build();
        let w1 = a.workload();
        let w2 = a.workload();
        assert_eq!(w1.len(), 100);
        assert_eq!(w1, w2);
        // Different seed gives a different workload.
        let b = FctScenario::builder().requests(100).seed(4).build();
        assert_ne!(b.workload(), w1);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(SendboxMode::StatusQuo.label(), "status-quo");
        assert_eq!(
            SendboxMode::BundlerPolicy(Policy::FqCodel).label(),
            "bundler-fq_codel"
        );
        assert_eq!(
            SendboxMode::BundlerAlg(BundleAlg::Bbr).label(),
            "bundler-sfq-bbr"
        );
    }

    #[test]
    fn small_run_completes_most_requests() {
        let report = FctScenario::builder()
            .requests(300)
            .seed(7)
            .mode(SendboxMode::StatusQuo)
            .build()
            .run();
        assert!(
            report.completed >= 280,
            "completed {} of 300",
            report.completed
        );
        assert!(report.median_slowdown().unwrap() >= 1.0);
    }

    #[test]
    fn bundler_sfq_improves_median_slowdown_over_status_quo() {
        // A scaled-down Figure 9: fewer requests, same shape, plus an
        // explicit bulk flow so the "short requests stuck behind long flows"
        // effect the paper measures is present even in a seconds-long run.
        // The qualitative result (Bundler+SFQ beats the status quo at the
        // median) must hold.
        let requests = 800;
        let seed = 11;
        let scenario = |mode| {
            FctScenario::builder()
                .requests(requests)
                .seed(seed)
                .offered_load(Rate::from_mbps(60))
                .background_bulk_flows(1)
                .mode(mode)
                .build()
                .run()
        };
        let quo = scenario(SendboxMode::StatusQuo);
        let bun = scenario(SendboxMode::BundlerSfq);
        let mut quo_small = quo.slowdowns_in_class(SizeClass::Small);
        let mut bun_small = bun.slowdowns_in_class(SizeClass::Small);
        let q = crate::stats::quantile(&mut quo_small, 0.5).unwrap();
        let b = crate::stats::quantile(&mut bun_small, 0.5).unwrap();
        assert!(
            b < q,
            "small-flow median slowdown with Bundler SFQ ({b:.2}) should beat the status quo ({q:.2})"
        );
    }

    #[test]
    fn high_priority_marking_is_applied() {
        let s = FctScenario::builder()
            .requests(200)
            .high_priority_fraction(0.5)
            .seed(1)
            .build();
        let marked = s
            .workload()
            .iter()
            .filter(|f| f.class == TrafficClass::HIGH)
            .count();
        assert!(
            (60..140).contains(&marked),
            "about half should be high priority, got {marked}"
        );
    }
}
