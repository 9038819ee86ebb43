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

use bundler_agent::{AgentStats, AgentTelemetry};
use bundler_core::sendbox::SendboxStats;
use bundler_core::BundlerConfig;
use bundler_types::{flow::ipv4, Duration, IpPrefix, Nanos, Rate};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::edge::MultiBundleSpec;
use crate::sim::{Simulation, SimulationConfig};
use crate::stats::SimReport;
use crate::workload::{FlowSizeDist, FlowSpec, PoissonArrivals};

// The per-site world the three multi-site scenarios (`many_sites`,
// `hot_bundle`, `metro`) share: how a site's flows are numbered, seeded,
// staggered and bundled.

/// Flow ids of site `s` are `s × SITE_IDS + i`, in every multi-site
/// scenario. A site's requests count `i` up from 0 and stay below the first
/// offset its scenario reserves, so no two flows share an id.
pub(crate) const SITE_IDS: u64 = 1_000_000;
/// A site's packet-tier background users (`metro`) start here.
pub(crate) const USER_IDS: u64 = 500_000;
/// A site's backlogged bulk flows start here.
pub(crate) const BULK_IDS: u64 = 900_000;

/// Site `site`'s RNG: one stream per site, so adding a site never perturbs
/// the others.
pub(crate) fn rng(seed: u64, site: usize) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (site as u64).wrapping_mul(0x9e37))
}

/// Appends site `site`'s flows to `specs`: `requests` Poisson arrivals at
/// `load` with sizes from [`FlowSizeDist::caida_like`], ids counting up
/// from the site's first,
/// then `bulk` backlogged flows from [`BULK_IDS`], flow `j` starting at
/// `20·site + 50·j` ms.
pub(crate) fn push(
    specs: &mut Vec<FlowSpec>,
    rng: &mut SmallRng,
    site: usize,
    load: Rate,
    requests: usize,
    bulk: usize,
) {
    let dist = FlowSizeDist::caida_like();
    let arrivals = PoissonArrivals::for_load(load, &dist);
    let base_id = site as u64 * SITE_IDS;
    let mut t = Nanos::ZERO;
    for i in 0..requests {
        t += arrivals.next_gap(rng);
        let size = dist.sample(rng);
        specs.push(FlowSpec::bundled(base_id + i as u64, size, t, site));
    }
    for j in 0..bulk {
        specs.push(FlowSpec::bundled(
            base_id + BULK_IDS + j as u64,
            FlowSpec::BACKLOGGED,
            Nanos::from_millis((site * 20 + j * 50) as u64),
            site,
        ));
    }
}

/// The mean time `requests` arrivals at `load` span.
pub(crate) fn span(load: Rate, requests: usize) -> Duration {
    PoissonArrivals::for_load(load, &FlowSizeDist::caida_like())
        .mean_gap()
        .mul_f64(requests as f64)
}

/// `base` behind an agent edge with one bundle per site, site `s`
/// announcing [`ManySitesScenario::site_prefix`]`(s)` and starting at
/// `initial_rate`.
pub(crate) fn agent_edge(
    sites: usize,
    initial_rate: Rate,
    base: SimulationConfig,
) -> SimulationConfig {
    let specs = (0..sites)
        .map(|site| MultiBundleSpec {
            prefixes: vec![ManySitesScenario::site_prefix(site)],
            config: BundlerConfig {
                initial_rate,
                ..Default::default()
            },
        })
        .collect();
    SimulationConfig {
        bundles: Vec::new(),
        multi_bundle: Some(specs),
        ..base
    }
}

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

    /// Requests generated per site, at most 900 000 (the ids above are
    /// the bulk flows').
    pub fn requests_per_site(mut self, n: usize) -> Self {
        self.requests_per_site = n.min(BULK_IDS as usize);
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
    /// traffic for the whole run and its control loop stays exercised), at
    /// most 100 000 (the ids above are the next site's).
    pub fn bulk_flows_per_site(mut self, n: usize) -> Self {
        self.bulk_flows_per_site = n.min((SITE_IDS - BULK_IDS) as usize);
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
        let mut specs = Vec::new();
        for site in 0..b.sites {
            push(
                &mut specs,
                &mut rng(b.seed, site),
                site,
                b.offered_load_per_site,
                b.requests_per_site,
                b.bulk_flows_per_site,
            );
        }
        specs
    }

    /// The simulation configuration: a multi-bundle edge with one spec per
    /// site, every bundle starting at its fair share of the uplink.
    pub fn sim_config(&self) -> SimulationConfig {
        let b = &self.builder;
        let fair_share = Rate::from_bps(b.bottleneck.as_bps() / b.sites.max(1) as u64);
        let base = SimulationConfig {
            duration: span(b.offered_load_per_site, b.requests_per_site) + b.drain,
            bottleneck_rate: b.bottleneck,
            rtt: b.rtt,
            obs: b.obs,
            ..Default::default()
        };
        agent_edge(b.sites, fair_share, base)
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
    fn ids_stay_unique_at_the_request_bound() {
        let workload = ManySitesScenario::builder()
            .sites(2)
            .requests_per_site(usize::MAX)
            .bulk_flows_per_site(usize::MAX)
            .build()
            .workload();
        assert_eq!(workload.len(), 2 * (900_000 + 100_000));
        let n = workload.len();
        assert_eq!(crate::directory::FlowDirectory::new(workload).len(), n);
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
