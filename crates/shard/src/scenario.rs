//! Scenario adapters: run the canonical experiments on the sharded host.

use bundler_core::sendbox::FEEDBACK_TIMEOUT;
use bundler_sim::edge::BundleMode;
use bundler_sim::fault::FaultPlan;
use bundler_sim::scenario::hot_bundle::HotBundleScenario;
use bundler_sim::scenario::many_sites::{ManySitesReport, ManySitesScenario};
use bundler_types::{Duration, Nanos};

use crate::ShardedSimulation;

/// Runs the many-site experiment end-to-end on `shards` worker shards.
/// With `shards == 1` this is exactly [`ManySitesScenario::run`]; larger
/// counts produce bit-identical reports from the multi-threaded host.
pub fn run_many_sites(scenario: &ManySitesScenario, shards: usize) -> ManySitesReport {
    run_many_sites_balanced(scenario, shards, bundler_sim::ShardBalance::RoundRobin)
}

/// [`run_many_sites`] under an explicit bundle-balancing mode. Every mode
/// is bit-identical to every other (and to shards = 1); the choice only
/// moves wall-clock.
pub fn run_many_sites_balanced(
    scenario: &ManySitesScenario,
    shards: usize,
    balance: bundler_sim::ShardBalance,
) -> ManySitesReport {
    let mut config = scenario.sim_config();
    config.shards = shards;
    config.balance = balance;
    ManySitesReport::from_sim(ShardedSimulation::new(config, scenario.workload()).run())
}

/// Runs the skewed-load experiment on `shards` worker shards under the
/// given balancing mode. This is the workload the rate-aware balancer
/// exists for: one bundle carries ~50 % of flows, so a static round-robin
/// partition leaves one shard hot while the rest idle at the barrier.
pub fn run_hot_bundle(
    scenario: &HotBundleScenario,
    shards: usize,
    balance: bundler_sim::ShardBalance,
) -> ManySitesReport {
    let mut config = scenario.sim_config();
    config.shards = shards;
    config.balance = balance;
    ManySitesReport::from_sim(ShardedSimulation::new(config, scenario.workload()).run())
}

/// Runs the many-site experiment on `shards` workers over an *unreliable*
/// network: a seed-generated [`FaultPlan`] of bottleneck mischief (link
/// flaps, capacity dips, loss/duplication/reorder bursts) plus one
/// guaranteed control-plane blackout long enough to trip every bundle's
/// feedback timeout. Graceful degradation
/// ([`bundler_core::BundlerConfig::degrade_on_feedback_timeout`]) is
/// enabled on every bundle, so the run exercises the full degrade →
/// pass-through → re-engage cycle — visible in the report's
/// `mode_timeline`. Like every fault plan, the schedule is pure data and
/// shard-count-invariant: the same `fault_seed` produces bit-identical
/// digests on every host.
pub fn run_unreliable(
    scenario: &ManySitesScenario,
    shards: usize,
    fault_seed: u64,
) -> ManySitesReport {
    let mut config = scenario.sim_config();
    config.shards = shards;
    // Opt every bundle into graceful degradation.
    for spec in config.multi_bundle.iter_mut().flatten() {
        spec.config.degrade_on_feedback_timeout = true;
    }
    for mode in &mut config.bundles {
        if let BundleMode::Bundler(c) = mode {
            c.degrade_on_feedback_timeout = true;
        }
    }
    // Seeded bottleneck faults; the generated blackouts (hundreds of ms)
    // are replaced by one deterministic blackout of twice the feedback
    // timeout, early enough that traffic still flows when feedback
    // returns — degradation must *engage and recover* every run, not
    // only when the seed happens to produce a long outage.
    let mut plan = FaultPlan::generate(fault_seed, config.duration, config.num_paths);
    plan.blackouts.clear();
    let start = Nanos(config.duration.as_nanos() / 4);
    let plan = plan.with_blackout(start, Duration(FEEDBACK_TIMEOUT.as_nanos() * 2));
    config.faults = Some(plan);
    ManySitesReport::from_sim(ShardedSimulation::new(config, scenario.workload()).run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_sim::{ShardBalance, SimStats};
    use bundler_types::{Duration, Rate};

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
        let sharded = run_many_sites(&scenario, 2);
        assert_eq!(
            SimStats::of(&single.sim),
            SimStats::of(&sharded.sim),
            "2-shard run must be bit-identical to the single-threaded engine"
        );
        assert_eq!(single.totals(), sharded.totals());
        assert!(sharded.all_bundles_active());
    }

    #[test]
    fn unreliable_network_degrades_recovers_and_is_shard_invariant() {
        let scenario = ManySitesScenario::builder()
            .sites(3)
            .requests_per_site(6)
            .offered_load_per_site(Rate::from_mbps(8))
            .drain(Duration::from_secs(4))
            .seed(17)
            .build();
        let solo = run_unreliable(&scenario, 1, 23);
        let sharded = run_unreliable(&scenario, 2, 23);
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
            let sharded = run_hot_bundle(&scenario, 2, balance);
            assert_eq!(
                want,
                SimStats::of(&sharded.sim),
                "{balance:?} must be bit-identical to the single-threaded engine"
            );
            assert_eq!(single.totals(), sharded.totals());
        }
    }
}
