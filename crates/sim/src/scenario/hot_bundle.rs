//! Skewed-load experiment: one *hot* bundle carries ~50 % of all flows.
//!
//! Offered load across site pairs is heavy-tailed in practice (the paper's
//! Bundler serves many site pairs of very different sizes), which is
//! exactly what breaks a static round-robin bundle-to-shard partition: the
//! hot bundle serializes its shard while the others idle at the window
//! barrier. This scenario makes that imbalance reproducible — site 0
//! receives as many requests (and backlogged bulk flows) as all the cold
//! sites combined — so `bundler-shard`'s rate-aware balancer has something
//! real to fix (the repository benchmark's `hot_solo` and `hot_sharded`
//! workloads run this world).
//!
//! The run is a deterministic function of its seed, like every scenario.

use bundler_agent::AgentConfig;
use bundler_core::BundlerConfig;
use bundler_types::{Duration, IpPrefix, Nanos, Rate};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::edge::MultiBundleSpec;
use crate::scenario::many_sites::{ManySitesReport, ManySitesScenario};
use crate::sim::{MultiBundleMode, Simulation, SimulationConfig};
use crate::workload::{FlowSizeDist, FlowSpec, PoissonArrivals};

/// Builder for [`HotBundleScenario`].
#[derive(Debug, Clone)]
pub struct HotBundleBuilder {
    sites: usize,
    requests_per_cold_site: usize,
    seed: u64,
    offered_load_per_cold_site: Rate,
    bottleneck: Rate,
    rtt: Duration,
    drain: Duration,
    dist: FlowSizeDist,
    obs: bundler_obs::ObsLevel,
}

impl Default for HotBundleBuilder {
    fn default() -> Self {
        HotBundleBuilder {
            sites: 8,
            requests_per_cold_site: 40,
            seed: 1,
            offered_load_per_cold_site: Rate::from_mbps(4),
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            drain: Duration::from_secs(8),
            dist: FlowSizeDist::caida_like(),
            obs: bundler_obs::ObsLevel::Off,
        }
    }
}

impl HotBundleBuilder {
    /// Total number of remote sites (bundles), hot site included. Site 0
    /// is the hot one; each site `s` announces `10.1.s.0/24`.
    pub fn sites(mut self, k: usize) -> Self {
        self.sites = k.clamp(2, 200);
        self
    }

    /// Requests generated per *cold* site; the hot site gets the sum of
    /// all cold sites' requests, i.e. ~50 % of the total.
    pub fn requests_per_cold_site(mut self, n: usize) -> Self {
        self.requests_per_cold_site = n;
        self
    }

    /// Random seed controlling arrivals and sizes.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Offered request load per cold site (the hot site offers the sum).
    pub fn offered_load_per_cold_site(mut self, load: Rate) -> Self {
        self.offered_load_per_cold_site = load;
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
    pub fn build(self) -> HotBundleScenario {
        HotBundleScenario { builder: self }
    }
}

/// A configured skewed-load experiment. Produces the same
/// [`ManySitesReport`] shape as the balanced many-site scenario, so
/// everything downstream (telemetry tables, digests, benches) is shared.
#[derive(Debug, Clone)]
pub struct HotBundleScenario {
    builder: HotBundleBuilder,
}

impl HotBundleScenario {
    /// Starts building a scenario.
    pub fn builder() -> HotBundleBuilder {
        HotBundleBuilder::default()
    }

    /// The prefix site `s` announces (`10.1.s.0/24` — shared with
    /// [`ManySitesScenario`] so the simulator's site addressing holds).
    pub fn site_prefix(site: usize) -> IpPrefix {
        ManySitesScenario::site_prefix(site)
    }

    /// Requests the hot site receives: the sum of every cold site's.
    fn hot_requests(&self) -> usize {
        self.builder.requests_per_cold_site * (self.builder.sites - 1)
    }

    /// Generates the workload: Poisson request arrivals per site from the
    /// heavy-tailed size distribution plus one backlogged bulk flow per
    /// site — except site 0, which receives as many requests as all the
    /// others combined (at proportionally higher arrival rate) and half
    /// the total bulk flows. Deterministic in the seed.
    pub fn workload(&self) -> Vec<FlowSpec> {
        let b = &self.builder;
        let mut specs = Vec::new();
        for site in 0..b.sites {
            // Per-site RNG: adding a site never perturbs the others.
            let mut rng = SmallRng::seed_from_u64(b.seed ^ (site as u64).wrapping_mul(0x9e37));
            let (requests, load) = if site == 0 {
                (
                    self.hot_requests(),
                    Rate::from_bps(b.offered_load_per_cold_site.as_bps() * (b.sites - 1) as u64),
                )
            } else {
                (b.requests_per_cold_site, b.offered_load_per_cold_site)
            };
            let arrivals = PoissonArrivals::for_load(load, &b.dist);
            let base_id = (site as u64) * 1_000_000;
            let mut t = Nanos::ZERO;
            for i in 0..requests {
                t += arrivals.next_gap(&mut rng);
                let size = b.dist.sample(&mut rng);
                specs.push(FlowSpec::bundled(base_id + i as u64, size, t, site));
            }
            let bulk = if site == 0 {
                (b.sites - 1).div_ceil(2)
            } else {
                1
            };
            for j in 0..bulk {
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

    /// The fraction of all flows that belong to the hot bundle.
    pub fn hot_flow_share(&self) -> f64 {
        let specs = self.workload();
        let hot = specs
            .iter()
            .filter(|s| matches!(s.origin, crate::workload::Origin::Bundle(0)))
            .count();
        hot as f64 / specs.len() as f64
    }

    /// The simulation configuration: a multi-bundle edge with one spec per
    /// site, every bundle starting at its fair share of the uplink (the
    /// hot bundle's control loop has to *earn* its larger share, exactly
    /// as a deployed edge would).
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
        let span = PoissonArrivals::for_load(b.offered_load_per_cold_site, &b.dist)
            .mean_gap()
            .mul_f64(b.requests_per_cold_site as f64);
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

    /// Runs the experiment single-threaded.
    pub fn run(&self) -> ManySitesReport {
        ManySitesReport::from_sim(Simulation::new(self.sim_config(), self.workload()).run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> HotBundleScenario {
        HotBundleScenario::builder()
            .sites(6)
            .requests_per_cold_site(12)
            .offered_load_per_cold_site(Rate::from_mbps(6))
            .drain(Duration::from_secs(4))
            .seed(5)
            .build()
    }

    #[test]
    fn hot_bundle_carries_about_half_the_flows() {
        let share = quick().hot_flow_share();
        assert!(
            (0.4..=0.6).contains(&share),
            "hot share {share:.2} should be ~0.5"
        );
    }

    #[test]
    fn skewed_run_completes_and_every_control_loop_runs() {
        let report = quick().run();
        assert!(
            report.all_bundles_active(),
            "{}",
            report.telemetry.to_table()
        );
        assert!(report.sim.completed > 30, "got {}", report.sim.completed);
        // The skew is visible end-to-end: the hot bundle forwarded more
        // packets than any cold one.
        let sent: Vec<u64> = report
            .telemetry
            .bundles
            .iter()
            .map(|b| b.snapshot.stats.packets_sent)
            .collect();
        let hot = sent[0];
        assert!(
            sent[1..].iter().all(|&cold| hot > cold),
            "hot bundle must dominate: {sent:?}"
        );
    }

    #[test]
    fn deterministic_given_same_seed() {
        let a = quick().run();
        let b = quick().run();
        assert_eq!(a.sim.completed, b.sim.completed);
        assert_eq!(a.totals(), b.totals());
    }
}
