//! Property tests: the sharded runtime is bit-identical to the
//! single-threaded engine for any seed and shard count.

mod common;

use bundler_shard::scenario::{run_many_sites, run_many_sites_balanced};
use bundler_shard::ShardedSimulation;
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::sim::SimulationConfig;
use bundler_sim::workload::FlowSpec;
use bundler_sim::{ShardBalance, SimStats, Simulation};
use bundler_types::{Duration, Nanos, Rate};
use proptest::prelude::*;

fn quick_scenario(seed: u64, sites: usize) -> ManySitesScenario {
    ManySitesScenario::builder()
        .sites(sites)
        .requests_per_site(6)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .drain(Duration::from_secs(2))
        .seed(seed)
        .build()
}

/// [`common::where_they_part`] for a many-sites scenario on `shards`
/// workers under `balance`.
fn where_they_part(scenario: &ManySitesScenario, shards: usize, balance: ShardBalance) -> String {
    let solo = scenario.sim_config();
    let mut sharded = solo.clone();
    sharded.shards = shards;
    sharded.balance = balance;
    common::where_they_part(&solo, &sharded, &scenario.workload())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `SimulationConfig { shards: k }` for k ∈ {1, 2, 4, 7} yields
    /// bit-identical `SimStats` and agent telemetry to the single-threaded
    /// engine on `scenario::many_sites`, for random seeds.
    #[test]
    fn many_sites_is_shard_count_invariant(seed in 1u64..1000, sites in 3usize..8) {
        let scenario = quick_scenario(seed, sites);
        let baseline = scenario.run(); // the single-threaded engine
        let want = SimStats::of(&baseline.sim);
        prop_assert!(want.completed > 0, "scenario must do real work");
        for shards in [1usize, 2, 4, 7] {
            let sharded = run_many_sites(&scenario, shards);
            let got = SimStats::of(&sharded.sim);
            prop_assert_eq!(
                &want, &got,
                "shards={} diverged from the single-threaded engine (seed={}){}",
                shards, seed, where_they_part(&scenario, shards, ShardBalance::RoundRobin)
            );
            prop_assert_eq!(baseline.totals(), sharded.totals());
        }
    }

    /// The *worst-case migration schedule*: `ShardBalance::Rotate` moves
    /// every bundle to the next shard at every window barrier, so every
    /// bundle's events, queued sendbox packets, TCP endhosts, agent table
    /// slice and telemetry cross shards hundreds of times per run — and
    /// the digest still cannot move. Rate-aware balancing (the mode that
    /// actually ships) is asserted under the same roof.
    #[test]
    fn any_migration_schedule_is_bit_identical(seed in 1u64..1000, sites in 3usize..8) {
        let scenario = quick_scenario(seed, sites);
        let baseline = scenario.run(); // the single-threaded engine
        let want = SimStats::of(&baseline.sim);
        prop_assert!(want.completed > 0, "scenario must do real work");
        for shards in [2usize, 4, 7] {
            for balance in [ShardBalance::Rotate, ShardBalance::Rate] {
                let sharded = run_many_sites_balanced(&scenario, shards, balance);
                let got = SimStats::of(&sharded.sim);
                prop_assert_eq!(
                    &want, &got,
                    "balance={:?} shards={} diverged from the single-threaded \
                     engine (seed={}){}",
                    balance, shards, seed, where_they_part(&scenario, shards, balance)
                );
                prop_assert_eq!(baseline.totals(), sharded.totals());
            }
        }
    }
}

/// Classic (non-agent) mode under the rotating worst case: every event
/// type — pings, cross traffic, multipath, status-quo bundles — migrates
/// every barrier and the digest stays put.
#[test]
fn classic_mode_survives_worst_case_migration() {
    use bundler_core::BundlerConfig;
    use bundler_sim::edge::BundleMode;

    let config = SimulationConfig {
        duration: Duration::from_secs(6),
        bottleneck_rate: Rate::from_mbps(48),
        rtt: Duration::from_millis(40),
        num_paths: 2,
        path_delay_spread: Duration::from_millis(5),
        bundles: vec![
            BundleMode::Bundler(BundlerConfig::default()),
            BundleMode::StatusQuo,
            BundleMode::Bundler(BundlerConfig::default()),
        ],
        ..Default::default()
    };
    let workload = || {
        vec![
            FlowSpec::bundled(1, 900_000, Nanos::ZERO, 0),
            FlowSpec::bundled(2, FlowSpec::BACKLOGGED, Nanos::from_millis(15), 1),
            FlowSpec::bundled(3, 300_000, Nanos::from_millis(40), 2),
            FlowSpec::direct(4, 400_000, Nanos::from_millis(25)),
            FlowSpec::bundled(5, 40, Nanos::from_millis(10), 0).as_ping(),
            FlowSpec::bundled(6, 120_000, Nanos::from_millis(350), 2),
        ]
    };
    let baseline = Simulation::new(config.clone(), workload()).run();
    let want = SimStats::of(&baseline);
    assert!(want.completed >= 4);
    for shards in [2usize, 3] {
        for balance in [ShardBalance::Rotate, ShardBalance::Rate] {
            let mut cfg = config.clone();
            cfg.shards = shards;
            cfg.balance = balance;
            let got = SimStats::of(&ShardedSimulation::new(cfg, workload()).run());
            assert_eq!(
                want, got,
                "classic mode diverged at shards={shards} balance={balance:?}"
            );
        }
    }
}

/// The fluid cross-traffic tier integrates f64 rate ODEs at `FluidUpdate`
/// events on the canonical net stream; being net-core state, it must be
/// bit-invariant across shard counts and migration schedules, for several
/// seeds, including multi-path runs with aggregates pinned per path.
#[test]
fn fluid_cross_traffic_is_shard_count_invariant() {
    use bundler_sim::fluid::CrossTrafficTier;
    use bundler_sim::scenario::metro::MetroScenario;

    for seed in [1u64, 29, 404] {
        let sc = MetroScenario::builder()
            .sites(4)
            .users_per_site(300)
            .requests_per_site(6)
            .bottleneck(Rate::from_mbps(60))
            .drain(Duration::from_secs(2))
            .tier(CrossTrafficTier::Fluid)
            .seed(seed)
            .build();
        let config = sc.sim_config();
        let baseline = Simulation::new(config.clone(), sc.workload()).run();
        let want = SimStats::of(&baseline);
        assert!(want.completed > 0, "scenario must do real work");
        for shards in [1usize, 2, 4] {
            for balance in [ShardBalance::Rate, ShardBalance::Rotate] {
                let mut cfg = config.clone();
                cfg.shards = shards;
                cfg.balance = balance;
                let got = SimStats::of(&ShardedSimulation::new(cfg, sc.workload()).run());
                assert_eq!(
                    want, got,
                    "fluid tier diverged at seed={seed} shards={shards} balance={balance:?}"
                );
            }
        }
    }
}

/// A prefix table where one bundle's more-specific prefix shadows another
/// site's address space cannot be partitioned (a shard's partial table
/// would classify differently than the full one): the driver must reject
/// it loudly instead of silently diverging.
#[test]
#[should_panic(expected = "cannot be partitioned")]
fn cross_shard_prefix_shadowing_is_rejected() {
    use bundler_agent::AgentConfig;
    use bundler_core::BundlerConfig;
    use bundler_sim::edge::MultiBundleSpec;
    use bundler_sim::sim::MultiBundleMode;
    use bundler_types::{flow::ipv4, IpPrefix};

    let specs = vec![
        MultiBundleSpec {
            prefixes: vec![IpPrefix::new(ipv4(10, 1, 0, 0), 24).unwrap()],
            config: BundlerConfig::default(),
        },
        MultiBundleSpec {
            // Shadows the upper half of site 0's /24 with a more-specific
            // route — legal for one agent, unpartitionable across shards.
            prefixes: vec![
                IpPrefix::new(ipv4(10, 1, 1, 0), 24).unwrap(),
                IpPrefix::new(ipv4(10, 1, 0, 128), 25).unwrap(),
            ],
            config: BundlerConfig::default(),
        },
    ];
    let config = SimulationConfig {
        duration: Duration::from_secs(1),
        multi_bundle: Some(MultiBundleMode {
            agent: AgentConfig::default(),
            specs,
        }),
        bundles: Vec::new(),
        shards: 2,
        ..Default::default()
    };
    // Flow 10 of bundle 0 lands on dst 10.1.0.131 — inside the shadowed
    // /25 owned by bundle 1 on the other shard.
    let workload = vec![FlowSpec::bundled(10, 50_000, Nanos::ZERO, 0)];
    let _ = ShardedSimulation::new(config, workload).run();
}

/// The classic (non-agent) edge with direct cross traffic, a ping flow and
/// multiple bottleneck sub-paths exercises every event type through the
/// sharded host.
#[test]
fn classic_mode_with_cross_traffic_is_shard_count_invariant() {
    use bundler_core::BundlerConfig;
    use bundler_sim::edge::BundleMode;

    let config = SimulationConfig {
        duration: Duration::from_secs(6),
        bottleneck_rate: Rate::from_mbps(48),
        rtt: Duration::from_millis(40),
        num_paths: 2,
        path_delay_spread: Duration::from_millis(5),
        bundles: vec![
            BundleMode::Bundler(BundlerConfig::default()),
            BundleMode::StatusQuo,
            BundleMode::Bundler(BundlerConfig::default()),
        ],
        ..Default::default()
    };
    let workload = || {
        vec![
            FlowSpec::bundled(1, 900_000, Nanos::ZERO, 0),
            FlowSpec::bundled(2, FlowSpec::BACKLOGGED, Nanos::from_millis(15), 1),
            FlowSpec::bundled(3, 300_000, Nanos::from_millis(40), 2),
            FlowSpec::direct(4, 400_000, Nanos::from_millis(25)),
            FlowSpec::bundled(5, 40, Nanos::from_millis(10), 0).as_ping(),
            FlowSpec::bundled(6, 120_000, Nanos::from_millis(350), 2),
        ]
    };
    let baseline = Simulation::new(config.clone(), workload()).run();
    let want = SimStats::of(&baseline);
    assert!(want.completed >= 4);
    for shards in [2usize, 3, 5] {
        let mut cfg = config.clone();
        cfg.shards = shards;
        let got = SimStats::of(&ShardedSimulation::new(cfg, workload()).run());
        assert_eq!(want, got, "classic mode diverged at shards={shards}");
    }
}
