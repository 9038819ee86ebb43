//! Metro-scale experiment: a city's worth of sites behind one uplink.
//!
//! The paper deploys Bundler between a handful of site pairs; a metro
//! deployment aggregates *thousands* of sites — and the background load of
//! their users — behind one provider uplink. The foreground stays exactly
//! the paper's machinery: a multi-bundle site edge with one bundle per
//! instrumented site, heavy-tailed request workloads and a backlogged bulk
//! flow each, all packet-level. The *background* — the metro user
//! population loading the same uplink — is where the scale lives, and the
//! [`CrossTrafficTier`] knob picks how it is simulated:
//!
//! * [`CrossTrafficTier::Packet`]: every background user is a backlogged
//!   TCP endhost pair sending un-bundled cross traffic through the full
//!   per-packet machinery. Faithful, and O(packets) — this is the tier the
//!   fluid model is benchmarked against.
//! * [`CrossTrafficTier::Fluid`]: the same user population collapses into
//!   a few [`FluidAggregate`]s per site with a diurnal structure only this
//!   tier can afford to express — an always-on base, a peak-hours cohort,
//!   and flash crowds on a quarter of the sites — at O(aggregates) cost,
//!   independent of the user count. Millions of users cost thousands of
//!   rate updates per simulated second, not billions of packet events.
//!
//! Both tiers stand for the same population (`sites × users_per_site`);
//! the close-trajectory comparison between them on *matched* always-on
//! workloads lives in `crates/sim/tests/fluid.rs`. Like every scenario, a
//! run is a deterministic function of its seed.

use bundler_types::{Duration, Nanos, Rate};
use rand::Rng;

use crate::fluid::{CrossTrafficTier, FluidAggregate, FluidCrossTraffic};
use crate::scenario::many_sites::{self, BULK_IDS, SITE_IDS, USER_IDS};
use crate::sim::{Simulation, SimulationConfig};
use crate::stats::SimReport;
use crate::workload::FlowSpec;

/// Integration cadence of the fluid tier: metro queue dynamics are slow
/// relative to the tier's sub-RTT default.
const FLUID_UPDATE_INTERVAL: Duration = Duration::from_millis(5);

/// Builder for [`MetroScenario`].
#[derive(Debug, Clone)]
pub struct MetroBuilder {
    sites: usize,
    users_per_site: usize,
    tier: CrossTrafficTier,
    requests_per_site: usize,
    offered_load_per_site: Rate,
    bottleneck: Rate,
    rtt: Duration,
    drain: Duration,
    seed: u64,
    obs: bundler_obs::ObsLevel,
}

impl Default for MetroBuilder {
    fn default() -> Self {
        MetroBuilder {
            sites: 12,
            users_per_site: 50,
            tier: CrossTrafficTier::Packet,
            requests_per_site: 40,
            offered_load_per_site: Rate::from_mbps(4),
            bottleneck: Rate::from_mbps(192),
            rtt: Duration::from_millis(50),
            drain: Duration::from_secs(6),
            seed: 1,
            obs: bundler_obs::ObsLevel::Off,
        }
    }
}

impl MetroBuilder {
    /// Number of instrumented (bundled) sites. Each site `s` announces
    /// `10.1.s.0/24` and drives one bundle; background users attach per
    /// site too, so total population is `sites × users_per_site`.
    pub fn sites(mut self, k: usize) -> Self {
        self.sites = k.clamp(1, 200);
        self
    }

    /// Background users per site. In the packet tier each user is a
    /// backlogged endhost pair; in the fluid tier the whole per-site
    /// population becomes a handful of rate aggregates, so this can be
    /// raised by orders of magnitude at near-constant cost. The packet tier
    /// numbers users below the site's bulk flow, so [`build`] bounds it to
    /// 400 000 per site; the fluid tier is unbounded.
    ///
    /// [`build`]: MetroBuilder::build
    pub fn users_per_site(mut self, n: usize) -> Self {
        self.users_per_site = n;
        self
    }

    /// Which abstraction tier simulates the background users.
    pub fn tier(mut self, tier: CrossTrafficTier) -> Self {
        self.tier = tier;
        self
    }

    /// Foreground requests generated per site, at most 500 000 (the ids
    /// above are the packet-tier users' and the bulk flow's).
    pub fn requests_per_site(mut self, n: usize) -> Self {
        self.requests_per_site = n.min(USER_IDS as usize);
        self
    }

    /// Offered foreground request load per site.
    pub fn offered_load_per_site(mut self, load: Rate) -> Self {
        self.offered_load_per_site = load;
        self
    }

    /// Shared metro uplink rate.
    pub fn bottleneck(mut self, rate: Rate) -> Self {
        self.bottleneck = rate;
        self
    }

    /// Base round-trip time.
    pub fn rtt(mut self, rtt: Duration) -> Self {
        self.rtt = rtt;
        self
    }

    /// Extra simulated time after the last foreground arrival.
    pub fn drain(mut self, drain: Duration) -> Self {
        self.drain = drain;
        self
    }

    /// Random seed controlling arrivals, sizes and window jitter.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Observability level the run records at.
    pub fn obs(mut self, level: bundler_obs::ObsLevel) -> Self {
        self.obs = level;
        self
    }

    /// Finalizes the builder, bounding packet-tier users to the ids below
    /// the site's bulk flow.
    pub fn build(mut self) -> MetroScenario {
        if self.tier == CrossTrafficTier::Packet {
            self.users_per_site = self.users_per_site.min((BULK_IDS - USER_IDS) as usize);
        }
        MetroScenario { builder: self }
    }
}

/// A configured metro-scale experiment.
#[derive(Debug, Clone)]
pub struct MetroScenario {
    builder: MetroBuilder,
}

/// The output of a metro run.
#[derive(Debug, Clone)]
pub struct MetroReport {
    /// The underlying simulation report.
    pub sim: SimReport,
    /// Background users the run stood for (`sites × users_per_site`).
    pub background_users: u64,
    /// The tier that simulated them.
    pub tier: CrossTrafficTier,
}

impl MetroScenario {
    /// Starts building a scenario.
    pub fn builder() -> MetroBuilder {
        MetroBuilder::default()
    }

    /// Background users the scenario stands for.
    pub fn background_users(&self) -> u64 {
        (self.builder.sites * self.builder.users_per_site) as u64
    }

    /// The tier the builder selected.
    pub fn tier(&self) -> CrossTrafficTier {
        self.builder.tier
    }

    /// Simulated time spanned by the foreground request arrivals.
    fn span(&self) -> Duration {
        let b = &self.builder;
        many_sites::span(b.offered_load_per_site, b.requests_per_site)
    }

    /// The fluid aggregates standing for the background population:
    /// per site, an always-on base (60 % of users), a peak-hours cohort
    /// (25 %, active through the middle third of the run, edges jittered
    /// per site), and — on every fourth site — a flash crowd (15 % plus
    /// the same again, in a short burst after peak onset). Deterministic
    /// in the seed; only meaningful for [`CrossTrafficTier::Fluid`].
    pub fn aggregates(&self) -> Vec<FluidAggregate> {
        let b = &self.builder;
        let run = (self.span() + b.drain).as_nanos();
        let mut aggs = Vec::with_capacity(b.sites * 3);
        for site in 0..b.sites {
            // A per-site stream of its own, apart from the foreground's.
            let mut rng = many_sites::rng(b.seed ^ 0xfeed, site);
            let users = b.users_per_site as u64;
            let base = users * 60 / 100;
            let peak = users * 25 / 100;
            let flash = users - base - peak;
            if base > 0 {
                aggs.push(FluidAggregate::new(base, b.rtt));
            }
            if peak > 0 {
                // Middle third of the run, start jittered by up to 5 % so
                // the metro's sites do not all flip at one event time.
                let jitter = rng.gen_range(0..run / 20 + 1);
                let start = run / 3 + jitter;
                aggs.push(
                    FluidAggregate::new(peak, b.rtt).with_window(Nanos(start), Nanos(2 * run / 3)),
                );
            }
            if flash > 0 && site % 4 == 0 {
                // Flash crowd: the remaining users plus the same again,
                // for a twentieth of the run shortly after peak onset.
                let start = run * 2 / 5 + rng.gen_range(0..run / 20 + 1);
                aggs.push(
                    FluidAggregate::new(flash * 2, b.rtt)
                        .with_window(Nanos(start), Nanos(start + run / 20)),
                );
            }
        }
        aggs
    }

    /// Generates the foreground workload — per site, Poisson request
    /// arrivals plus one backlogged bulk flow — and, in the packet tier,
    /// one backlogged un-bundled flow per background user with staggered
    /// starts. Deterministic in the seed.
    pub fn workload(&self) -> Vec<FlowSpec> {
        let b = &self.builder;
        let mut specs = Vec::new();
        for site in 0..b.sites {
            let mut rng = many_sites::rng(b.seed, site);
            let (load, requests) = (b.offered_load_per_site, b.requests_per_site);
            many_sites::push(&mut specs, &mut rng, site, load, requests, 1);
            if b.tier == CrossTrafficTier::Packet {
                for u in 0..b.users_per_site {
                    // Stagger the background ramp over the first second so
                    // the packet tier's slow start does not synchronize.
                    let start = Nanos::from_micros(rng.gen_range(0..1_000_000));
                    specs.push(FlowSpec::direct(
                        site as u64 * SITE_IDS + USER_IDS + u as u64,
                        FlowSpec::BACKLOGGED,
                        start,
                    ));
                }
            }
        }
        specs
    }

    /// The simulation configuration: a multi-bundle edge with one spec per
    /// site; in the fluid tier, the background population rides on
    /// [`SimulationConfig::cross_traffic`] instead of the workload.
    pub fn sim_config(&self) -> SimulationConfig {
        let b = &self.builder;
        let fair_share = Rate::from_bps(b.bottleneck.as_bps() / (2 * b.sites.max(1)) as u64);
        let cross_traffic = match b.tier {
            CrossTrafficTier::Packet => None,
            CrossTrafficTier::Fluid => Some(
                FluidCrossTraffic::new(self.aggregates())
                    .with_update_interval(FLUID_UPDATE_INTERVAL),
            ),
        };
        let base = SimulationConfig {
            duration: self.span() + b.drain,
            bottleneck_rate: b.bottleneck,
            rtt: b.rtt,
            obs: b.obs,
            cross_traffic,
            ..Default::default()
        };
        many_sites::agent_edge(b.sites, fair_share, base)
    }

    /// Runs the experiment.
    pub fn run(&self) -> MetroReport {
        MetroReport {
            sim: Simulation::new(self.sim_config(), self.workload()).run(),
            background_users: self.background_users(),
            tier: self.builder.tier,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(tier: CrossTrafficTier) -> MetroScenario {
        MetroScenario::builder()
            .sites(4)
            .users_per_site(8)
            .requests_per_site(20)
            .bottleneck(Rate::from_mbps(64))
            .drain(Duration::from_secs(4))
            .tier(tier)
            .seed(7)
            .build()
    }

    #[test]
    fn ids_stay_unique_at_the_request_bound() {
        let workload = MetroScenario::builder()
            .sites(2)
            .requests_per_site(usize::MAX)
            .users_per_site(usize::MAX)
            .tier(CrossTrafficTier::Packet)
            .build()
            .workload();
        assert_eq!(workload.len(), 2 * (500_000 + 400_000 + 1));
        let n = workload.len();
        assert_eq!(crate::directory::FlowDirectory::new(workload).len(), n);
    }

    #[test]
    fn packet_tier_runs_users_as_direct_flows() {
        let s = quick(CrossTrafficTier::Packet);
        let specs = s.workload();
        let direct = specs
            .iter()
            .filter(|f| matches!(f.origin, crate::workload::Origin::Direct))
            .count();
        assert_eq!(direct, 4 * 8, "one direct flow per background user");
        assert!(s.sim_config().cross_traffic.is_none());
        let report = s.run();
        assert_eq!(report.background_users, 32);
        assert!(report.sim.completed > 4 * 20 / 2, "most requests complete");
    }

    #[test]
    fn fluid_tier_carries_users_as_aggregates() {
        let s = quick(CrossTrafficTier::Fluid);
        let specs = s.workload();
        assert!(
            !specs
                .iter()
                .any(|f| matches!(f.origin, crate::workload::Origin::Direct)),
            "fluid tier must not emit per-user flows"
        );
        let ct = s.sim_config().cross_traffic.expect("fluid tier configured");
        // 8 users: 4 base + 2 peak per site, plus a 2×2-user flash crowd on
        // site 0 only.
        assert_eq!(
            ct.total_flows(),
            4 * (4 + 2) + 4,
            "population decomposition"
        );
        let report = s.run();
        assert!(report.sim.completed > 4 * 20 / 2, "most requests complete");
        let delay = report
            .sim
            .bottleneck_queue_delay_ms
            .mean_between(Nanos::ZERO, Nanos::MAX)
            .unwrap_or(0.0);
        assert!(
            delay > 0.0,
            "background load must show up at the bottleneck"
        );
    }

    #[test]
    fn aggregates_have_diurnal_structure() {
        let s = MetroScenario::builder()
            .sites(8)
            .users_per_site(1000)
            .tier(CrossTrafficTier::Fluid)
            .build();
        let aggs = s.aggregates();
        // 8 sites × (base + peak) + 2 flash-crowd sites (0 and 4).
        assert_eq!(aggs.len(), 8 * 2 + 2);
        let whole_run = aggs.iter().filter(|a| a.stop == Nanos::MAX).count();
        assert_eq!(whole_run, 8, "one always-on base aggregate per site");
        let windowed = aggs.iter().filter(|a| a.stop != Nanos::MAX);
        for a in windowed {
            assert!(a.start < a.stop, "windows are non-empty");
        }
        // Determinism: same seed, same aggregates (windows included).
        assert_eq!(s.aggregates(), aggs);
    }

    #[test]
    fn fluid_tier_scales_to_large_populations() {
        // 100× the packet-tier test's population; still cheap because the
        // aggregate count is what matters.
        let s = quick(CrossTrafficTier::Fluid);
        let big = MetroScenario::builder()
            .sites(4)
            .users_per_site(800)
            .requests_per_site(20)
            .bottleneck(Rate::from_mbps(64))
            .drain(Duration::from_secs(4))
            .tier(CrossTrafficTier::Fluid)
            .seed(7)
            .build();
        let small_aggs = s.sim_config().cross_traffic.unwrap().aggregates.len();
        let big_aggs = big.sim_config().cross_traffic.unwrap().aggregates.len();
        assert_eq!(small_aggs, big_aggs, "event cost is population-invariant");
        let report = big.run();
        assert_eq!(report.background_users, 3200);
        assert!(report.sim.completed > 4 * 20 / 2);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let a = quick(CrossTrafficTier::Fluid).run();
        let b = quick(CrossTrafficTier::Fluid).run();
        let fa: Vec<u64> = a.sim.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        let fb: Vec<u64> = b.sim.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        assert_eq!(fa, fb, "metro runs must be deterministic");
    }
}
