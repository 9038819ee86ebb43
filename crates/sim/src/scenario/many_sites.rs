//! Many-site experiment: one site edge driving K bundles at once.
//!
//! The paper evaluates a single bundle between one site pair; this scenario
//! exercises the `bundler-agent` control plane the way a deployed edge
//! would run it — K remote sites, each announcing a destination prefix,
//! each with its own heavy-tailed request workload plus a backlogged bulk
//! flow, all sharing one bottleneck uplink. Packets reach their bundle via
//! longest-prefix match and every bundle's control loop ticks through the
//! agent, one `ControlTick` event per bundle.
//!
//! The run is a deterministic function of its seed, like every scenario.

use bundler_agent::{AgentConfig, AgentStats, AgentTelemetry};
use bundler_core::sendbox::SendboxStats;
use bundler_core::BundlerConfig;
use bundler_types::{flow::ipv4, Duration, IpPrefix, Nanos, Rate};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::edge::MultiBundleSpec;
use crate::sim::{MultiBundleMode, Simulation, SimulationConfig};
use crate::stats::SimReport;
use crate::workload::{FlowSizeDist, FlowSpec, PoissonArrivals};

/// Builder for [`ManySitesScenario`].
#[derive(Debug, Clone)]
pub struct ManySitesBuilder {
    sites: usize,
    requests_per_site: usize,
    seed: u64,
    offered_load_per_site: Rate,
    bottleneck: Rate,
    rtt: Duration,
    bulk_flows_per_site: usize,
    drain: Duration,
    dist: FlowSizeDist,
    obs: bundler_obs::ObsLevel,
}

impl Default for ManySitesBuilder {
    fn default() -> Self {
        ManySitesBuilder {
            sites: 8,
            requests_per_site: 100,
            seed: 1,
            offered_load_per_site: Rate::from_mbps(6),
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            bulk_flows_per_site: 1,
            drain: Duration::from_secs(8),
            dist: FlowSizeDist::caida_like(),
            obs: bundler_obs::ObsLevel::Off,
        }
    }
}

impl ManySitesBuilder {
    /// Number of remote sites (bundles). Each site `s` announces the
    /// prefix `10.1.s.0/24`, matching the simulator's site addressing.
    pub fn sites(mut self, k: usize) -> Self {
        self.sites = k.clamp(1, 200);
        self
    }

    /// Requests generated per site.
    pub fn requests_per_site(mut self, n: usize) -> Self {
        self.requests_per_site = n;
        self
    }

    /// Random seed controlling arrivals and sizes.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Offered request load per site.
    pub fn offered_load_per_site(mut self, load: Rate) -> Self {
        self.offered_load_per_site = load;
        self
    }

    /// Shared bottleneck uplink rate.
    pub fn bottleneck(mut self, rate: Rate) -> Self {
        self.bottleneck = rate;
        self
    }

    /// Base round-trip time to every site.
    pub fn rtt(mut self, rtt: Duration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Backlogged bulk flows per site (keep ≥ 1 so every bundle carries
    /// traffic for the whole run and its control loop stays exercised).
    pub fn bulk_flows_per_site(mut self, n: usize) -> Self {
        self.bulk_flows_per_site = n;
        self
    }

    /// Extra simulated time after the last arrival.
    pub fn drain(mut self, drain: Duration) -> Self {
        self.drain = drain;
        self
    }

    /// Observability level the run records at (default
    /// [`bundler_obs::ObsLevel::Off`]; turning it on never changes
    /// results — property-tested in `bundler-shard`).
    pub fn obs(mut self, level: bundler_obs::ObsLevel) -> Self {
        self.obs = level;
        self
    }

    /// Finalizes the builder.
    pub fn build(self) -> ManySitesScenario {
        ManySitesScenario { builder: self }
    }
}

/// A configured many-site experiment.
#[derive(Debug, Clone)]
pub struct ManySitesScenario {
    builder: ManySitesBuilder,
}

/// The output of a many-site run.
#[derive(Debug, Clone)]
pub struct ManySitesReport {
    /// The underlying simulation report (FCTs, queue delays, throughputs).
    pub sim: SimReport,
    /// The agent's final telemetry export, one row per bundle.
    pub telemetry: AgentTelemetry,
    /// The agent's own counters (classification and tick batching).
    pub agent_stats: AgentStats,
}

impl ManySitesReport {
    /// Wraps a finished multi-bundle simulation report, pulling out the
    /// agent telemetry and counters every agent-backed scenario exports.
    /// Panics if the run did not use a multi-bundle edge.
    pub fn from_sim(sim: SimReport) -> ManySitesReport {
        let telemetry = sim
            .agent_telemetry
            .clone()
            .expect("multi-bundle run exports telemetry");
        let agent_stats = sim
            .agent_stats
            .expect("multi-bundle run exports agent stats");
        ManySitesReport {
            sim,
            telemetry,
            agent_stats,
        }
    }

    /// Sums the per-bundle lifetime counters from the telemetry export.
    pub fn totals(&self) -> SendboxStats {
        self.telemetry.totals()
    }

    /// True if every bundle's control loop demonstrably ran: it processed
    /// congestion ACKs, formed an RTT estimate, holds a positive pacing
    /// rate and executed control ticks.
    pub fn all_bundles_active(&self) -> bool {
        self.telemetry.bundles.iter().all(|b| {
            let s = &b.snapshot;
            s.stats.acks_received > 0
                && s.min_rtt.is_some()
                && s.rate > Rate::ZERO
                && s.stats.ticks > 0
        })
    }
}

impl ManySitesScenario {
    /// Starts building a scenario.
    pub fn builder() -> ManySitesBuilder {
        ManySitesBuilder::default()
    }

    /// The prefix site `s` announces (`10.1.s.0/24`).
    pub fn site_prefix(site: usize) -> IpPrefix {
        IpPrefix::new(ipv4(10, 1, site as u8, 0), 24).expect("/24 is valid")
    }

    /// Generates the workload: per site, Poisson request arrivals drawn
    /// from the heavy-tailed distribution plus the configured bulk flows.
    /// Deterministic in the seed.
    pub fn workload(&self) -> Vec<FlowSpec> {
        let b = &self.builder;
        let arrivals = PoissonArrivals::for_load(b.offered_load_per_site, &b.dist);
        let mut specs = Vec::new();
        for site in 0..b.sites {
            // Per-site RNG: adding a site never perturbs the others.
            let mut rng = SmallRng::seed_from_u64(b.seed ^ (site as u64).wrapping_mul(0x9e37));
            let base_id = (site as u64) * 1_000_000;
            let mut t = Nanos::ZERO;
            for i in 0..b.requests_per_site {
                t += arrivals.next_gap(&mut rng);
                let size = b.dist.sample(&mut rng);
                specs.push(FlowSpec::bundled(base_id + i as u64, size, t, site));
            }
            for j in 0..b.bulk_flows_per_site {
                specs.push(FlowSpec::bundled(
                    base_id + 900_000 + j as u64,
                    FlowSpec::BACKLOGGED,
                    Nanos::from_millis((site * 20 + j * 50) as u64),
                    site,
                ));
            }
        }
        specs
    }

    /// The simulation configuration: a multi-bundle edge with one spec per
    /// site, every bundle starting at its fair share of the uplink.
    pub fn sim_config(&self) -> SimulationConfig {
        let b = &self.builder;
        let fair_share = Rate::from_bps(b.bottleneck.as_bps() / b.sites.max(1) as u64);
        let specs: Vec<MultiBundleSpec> = (0..b.sites)
            .map(|site| MultiBundleSpec {
                prefixes: vec![Self::site_prefix(site)],
                config: BundlerConfig {
                    initial_rate: fair_share,
                    ..Default::default()
                },
            })
            .collect();
        let span = PoissonArrivals::for_load(b.offered_load_per_site, &b.dist)
            .mean_gap()
            .mul_f64(b.requests_per_site as f64);
        SimulationConfig {
            duration: span + b.drain,
            bottleneck_rate: b.bottleneck,
            rtt: b.rtt,
            bundles: Vec::new(),
            multi_bundle: Some(MultiBundleMode {
                agent: AgentConfig::default(),
                specs,
            }),
            obs: b.obs,
            ..Default::default()
        }
    }

    /// Runs the experiment.
    pub fn run(&self) -> ManySitesReport {
        ManySitesReport::from_sim(Simulation::new(self.sim_config(), self.workload()).run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_core::Mode;

    fn quick() -> ManySitesScenario {
        ManySitesScenario::builder()
            .sites(8)
            .requests_per_site(30)
            .offered_load_per_site(Rate::from_mbps(8))
            .drain(Duration::from_secs(6))
            .seed(3)
            .build()
    }

    #[test]
    fn eight_sites_all_reach_active_control() {
        let report = quick().run();
        assert_eq!(report.telemetry.bundles.len(), 8);
        assert!(
            report.all_bundles_active(),
            "every bundle must process feedback and hold a positive rate:\n{}",
            report.telemetry.to_table()
        );
        for b in &report.telemetry.bundles {
            // No cross traffic and balanced paths: every control loop must
            // have left its cold-start state and be actively rate-limiting
            // in delay-control mode (not disabled, not passed through).
            assert_eq!(b.snapshot.mode, Mode::DelayControl, "bundle {}", b.index);
            assert!(b.snapshot.stats.packets_sent > 0, "bundle {}", b.index);
        }
        // The request workload mostly completes.
        assert!(
            report.sim.completed > 8 * 30 / 2,
            "most requests should complete, got {}",
            report.sim.completed
        );
    }

    #[test]
    fn telemetry_totals_match_per_sendbox_stats() {
        let report = quick().run();
        let mut expect = SendboxStats::default();
        for b in &report.telemetry.bundles {
            let s = b.snapshot.stats;
            expect.packets_sent += s.packets_sent;
            expect.bytes_sent += s.bytes_sent;
            expect.boundaries += s.boundaries;
            expect.acks_received += s.acks_received;
            expect.ticks += s.ticks;
            expect.epoch_changes += s.epoch_changes;
            expect.feedback_timeouts += s.feedback_timeouts;
        }
        assert_eq!(report.totals(), expect);
        // Cross-checks against independent accounting: the agent classified
        // every packet the sendboxes forwarded (plus any still queued), and
        // ticks ran through the agent.
        let stats = report.agent_stats;
        assert!(stats.packets_classified >= expect.packets_sent);
        assert_eq!(stats.packets_unclassified, 0, "all sim traffic is bundled");
        assert_eq!(stats.ticks_run, expect.ticks);
        assert!(stats.acks_delivered >= expect.acks_received);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let a = quick().run();
        let b = quick().run();
        assert_eq!(a.sim.completed, b.sim.completed);
        assert_eq!(a.totals(), b.totals());
        let fa: Vec<u64> = a.sim.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        let fb: Vec<u64> = b.sim.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        assert_eq!(fa, fb, "many-site runs must be deterministic");
        let c = ManySitesScenario::builder()
            .sites(8)
            .requests_per_site(30)
            .offered_load_per_site(Rate::from_mbps(8))
            .drain(Duration::from_secs(6))
            .seed(4)
            .build()
            .run();
        let fc: Vec<u64> = c.sim.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        assert_ne!(fa, fc, "different seeds must differ");
    }

    #[test]
    fn every_bundle_keeps_a_fair_share_of_the_uplink() {
        let report = quick().run();
        // 8 backlogged bulk flows share 96 Mbit/s; with SFQ at each sendbox
        // and delay control active, no bundle should starve.
        for i in 0..8 {
            let tput = report.sim.mean_bundle_throughput_mbps(i).unwrap_or(0.0);
            assert!(tput > 2.0, "bundle {i} throughput {tput:.2} Mbit/s too low");
        }
    }
}
