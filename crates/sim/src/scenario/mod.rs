//! Ready-made worlds that the repository benchmark, the runtime tests and
//! the examples build. The paper's other figure worlds live in
//! `bundler-bench`, beside the printers of their tables.
//!
//! Each scenario owns its workload generation (seeded, deterministic) and
//! exposes a builder so the benchmark harness and the examples can scale the
//! experiment up or down without duplicating setup code.
//!
//! | Module | What it builds |
//! |---|---|
//! | [`fct`] | Figure 9's request world (also Figures 14, 15 and the §7.2/§7.4 tables) — FCT/slowdown comparisons |
//! | [`many_sites`] | Beyond the paper: one site edge driving K bundles through the `bundler-agent` control plane; also the per-site world (flow ids, site RNG, requests and staggered bulk flows, fair-share agent edge) that `hot_bundle` and `metro` build on |
//! | [`hot_bundle`] | Beyond the paper: heavy-tailed site-pair load — one bundle carries ~50 % of flows (the sharded runtime's balancing workload) |
//! | [`metro`] | Beyond the paper: metro-scale background load, packet- or fluid-tier (`CrossTrafficTier` knob) |

pub mod fct;
pub mod hot_bundle;
pub mod many_sites;
pub mod metro;

#[cfg(test)]
mod tests {
    use super::hot_bundle::HotBundleScenario;
    use super::many_sites::{ManySitesReport, ManySitesScenario};
    use crate::edge::BundleMode;
    use crate::fault::FaultPlan;
    use crate::sim::SimulationConfig;
    use crate::workload::FlowSpec;
    use crate::{ShardBalance, SimStats, Simulation};
    use bundler_core::sendbox::FEEDBACK_TIMEOUT;
    use bundler_types::{Duration, Nanos, Rate};

    /// A run of `config` over `workload` on `shards` worker shards.
    fn on_shards(
        mut config: SimulationConfig,
        workload: Vec<FlowSpec>,
        shards: usize,
    ) -> ManySitesReport {
        config.shards = shards;
        ManySitesReport::from_sim(Simulation::new(config, workload).run())
    }

    #[test]
    fn sharded_many_sites_matches_single_threaded() {
        let scenario = ManySitesScenario::builder()
            .sites(5)
            .requests_per_site(8)
            .offered_load_per_site(Rate::from_mbps(8))
            .drain(Duration::from_secs(2))
            .seed(11)
            .build();
        let single = scenario.run();
        let sharded = on_shards(scenario.sim_config(), scenario.workload(), 2);
        assert_eq!(
            SimStats::of(&single.sim),
            SimStats::of(&sharded.sim),
            "2-shard run must be bit-identical to the single-threaded engine"
        );
        assert_eq!(single.totals(), sharded.totals());
        assert!(sharded.all_bundles_active());
    }

    /// The many-site world over an *unreliable* network: a seed-generated
    /// [`FaultPlan`] of bottleneck mischief (link flaps, capacity dips,
    /// loss/duplication/reorder bursts) plus one guaranteed control-plane
    /// blackout long enough to trip every bundle's feedback timeout, with
    /// graceful degradation on every bundle. The run must go through the
    /// full degrade → pass-through → re-engage cycle, visible in the
    /// report's `mode_timeline`, and like every fault plan the schedule is
    /// pure data: the same digest on every shard count.
    #[test]
    fn unreliable_network_degrades_recovers_and_is_shard_invariant() {
        let scenario = ManySitesScenario::builder()
            .sites(3)
            .requests_per_site(6)
            .offered_load_per_site(Rate::from_mbps(8))
            .drain(Duration::from_secs(4))
            .seed(17)
            .build();
        let mut config = scenario.sim_config();
        for spec in config.multi_bundle.iter_mut().flatten() {
            spec.config.degrade_on_feedback_timeout = true;
        }
        for mode in &mut config.bundles {
            if let BundleMode::Bundler(c) = mode {
                c.degrade_on_feedback_timeout = true;
            }
        }
        // Seeded bottleneck faults; the generated blackouts (hundreds of
        // ms) are replaced by one deterministic blackout of twice the
        // feedback timeout, early enough that traffic still flows when
        // feedback returns — degradation must *engage and recover* every
        // run, not only when the seed happens to produce a long outage.
        let mut plan = FaultPlan::generate(23, config.duration, config.num_paths);
        plan.blackouts.clear();
        let start = Nanos(config.duration.as_nanos() / 4);
        let plan = plan.with_blackout(start, Duration(FEEDBACK_TIMEOUT.as_nanos() * 2));
        config.faults = Some(plan);
        let solo = on_shards(config.clone(), scenario.workload(), 1);
        let sharded = on_shards(config, scenario.workload(), 2);
        assert_eq!(
            SimStats::of(&solo.sim),
            SimStats::of(&sharded.sim),
            "the fault plan must be shard-count-invariant"
        );
        // The guaranteed blackout must trip graceful degradation on some
        // bundle, and feedback returning must re-engage delay control.
        let recovered = solo.sim.mode_timeline.iter().any(|tl| {
            tl.iter()
                .position(|(_, m)| m == "disabled")
                .is_some_and(|i| tl[i + 1..].iter().any(|(_, m)| m != "disabled"))
        });
        assert!(
            recovered,
            "expected degrade → re-engage in some mode timeline: {:?}",
            solo.sim.mode_timeline
        );
    }

    /// `Rate` is a name for `RoundRobin`'s placement; both runs must be
    /// the solo run.
    #[test]
    fn hot_bundle_matches_single_threaded_under_both_balancers() {
        let scenario = HotBundleScenario::builder()
            .sites(5)
            .requests_per_cold_site(8)
            .offered_load_per_cold_site(Rate::from_mbps(6))
            .drain(Duration::from_secs(2))
            .seed(13)
            .build();
        let single = scenario.run();
        let want = SimStats::of(&single.sim);
        for balance in [ShardBalance::RoundRobin, ShardBalance::Rate] {
            let mut config = scenario.sim_config();
            config.balance = balance;
            let sharded = on_shards(config, scenario.workload(), 2);
            assert_eq!(
                want,
                SimStats::of(&sharded.sim),
                "{balance:?} must be bit-identical to the single-threaded engine"
            );
            assert_eq!(single.totals(), sharded.totals());
        }
    }
}
