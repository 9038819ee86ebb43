//! Skewed-load experiment: one *hot* bundle carries ~50 % of all flows.
//!
//! Offered load across site pairs is heavy-tailed in practice (the paper's
//! Bundler serves many site pairs of very different sizes), which is
//! exactly what breaks a static round-robin bundle-to-shard partition: the
//! hot bundle serializes its shard while the others idle at the window
//! barrier. This scenario makes that imbalance reproducible — site 0
//! receives as many requests (and backlogged bulk flows) as all the cold
//! sites combined — so the skew a fixed placement leaves is measurable
//! (the repository benchmark's `hot_solo` and `hot_sharded` workloads run
//! this world).
//!
//! The run is a deterministic function of its seed, like every scenario.

use bundler_types::{Duration, Rate};

use crate::scenario::many_sites::{self, ManySitesReport, BULK_IDS};
use crate::sim::{Simulation, SimulationConfig};
use crate::workload::FlowSpec;

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
    /// all cold sites' requests, i.e. ~50 % of the total. [`build`] bounds
    /// it so the hot site's stay at most 900 000 (the ids above are the
    /// bulk flows'): 19 148 per cold site at 48 sites.
    ///
    /// [`build`]: HotBundleBuilder::build
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
    /// results — property-tested in `tests/obs_equivalence.rs`).
    pub fn obs(mut self, level: bundler_obs::ObsLevel) -> Self {
        self.obs = level;
        self
    }

    /// Finalizes the builder.
    pub fn build(mut self) -> HotBundleScenario {
        let cold_sites = self.sites - 1;
        self.requests_per_cold_site = self
            .requests_per_cold_site
            .min(BULK_IDS as usize / cold_sites);
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
        let cold_sites = b.sites - 1;
        let mut specs = Vec::new();
        for site in 0..b.sites {
            let (requests, load, bulk) = if site == 0 {
                let load = b.offered_load_per_cold_site.as_bps() * cold_sites as u64;
                (
                    self.hot_requests(),
                    Rate::from_bps(load),
                    cold_sites.div_ceil(2),
                )
            } else {
                (b.requests_per_cold_site, b.offered_load_per_cold_site, 1)
            };
            let mut rng = many_sites::rng(b.seed, site);
            many_sites::push(&mut specs, &mut rng, site, load, requests, bulk);
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
        let (load, requests) = (b.offered_load_per_cold_site, b.requests_per_cold_site);
        let base = SimulationConfig {
            duration: many_sites::span(load, requests) + b.drain,
            bottleneck_rate: b.bottleneck,
            rtt: b.rtt,
            obs: b.obs,
            ..Default::default()
        };
        many_sites::agent_edge(b.sites, fair_share, base)
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
    fn ids_stay_unique_at_the_request_bound() {
        let scenario = HotBundleScenario::builder()
            .requests_per_cold_site(usize::MAX)
            .sites(48)
            .build();
        assert_eq!(scenario.hot_requests(), 19_148 * 47);
        let workload = scenario.workload();
        let n = workload.len();
        assert_eq!(crate::directory::FlowDirectory::new(workload).len(), n);
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
