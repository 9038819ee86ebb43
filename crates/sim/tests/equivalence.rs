//! Property tests: the sharded runtime is bit-identical to the
//! single-threaded engine for any seed and shard count.

mod common;

use bundler_sim::scenario::many_sites::{ManySitesReport, ManySitesScenario};
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
/// workers.
fn where_they_part(scenario: &ManySitesScenario, shards: usize) -> String {
    let solo = scenario.sim_config();
    let mut sharded = solo.clone();
    sharded.shards = shards;
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
            let mut config = scenario.sim_config();
            config.shards = shards;
            let sharded = ManySitesReport::from_sim(Simulation::new(config, scenario.workload()).run());
            let got = SimStats::of(&sharded.sim);
            prop_assert_eq!(
                &want, &got,
                "shards={} diverged from the single-threaded engine (seed={}){}",
                shards, seed, where_they_part(&scenario, shards)
            );
            prop_assert_eq!(baseline.totals(), sharded.totals());
        }
    }
}

/// The fluid cross-traffic tier integrates f64 rate ODEs at `FluidUpdate`
/// events on the canonical net stream; being net-core state, it must be
/// bit-invariant across shard counts, for several seeds, including
/// multi-path runs with aggregates pinned per path.
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
            let mut cfg = config.clone();
            cfg.shards = shards;
            let got = SimStats::of(&Simulation::new(cfg, sc.workload()).run());
            assert_eq!(
                want, got,
                "fluid tier diverged at seed={seed} shards={shards}"
            );
        }
    }
}

/// A prefix table where one bundle's more-specific prefix shadows another
/// site's address space puts the two bundles in one co-location group, so
/// round-robin placement keeps them on one shard and the run matches the
/// single-threaded engine.
#[test]
fn cross_shard_prefix_shadowing_matches_solo_under_round_robin() {
    use bundler_core::BundlerConfig;
    use bundler_sim::edge::MultiBundleSpec;
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
        multi_bundle: Some(specs),
        bundles: Vec::new(),
        ..Default::default()
    };
    // Flow 10 of bundle 0 lands on dst 10.1.0.131 — inside the shadowed
    // /25 owned by bundle 1, which `bundle % shards` would put on the
    // other shard.
    let workload = vec![FlowSpec::bundled(10, 50_000, Nanos::ZERO, 0)];
    let want = SimStats::of(&Simulation::new(config.clone(), workload.clone()).run());
    assert_eq!(want.completed, 1, "the flow must finish");
    let sharded = SimulationConfig {
        shards: 2,
        balance: ShardBalance::RoundRobin,
        ..config
    };
    let got = SimStats::of(&Simulation::new(sharded, workload).run());
    assert_eq!(want, got, "round-robin placement split a co-location group");
}

/// A four-site agent world whose classification graph has both kinds of
/// co-location edge. Bundle `b`'s flows go to `10.1.b.x` and direct flows
/// to `10.3.0.x` (`runtime::flow_key`), so:
/// * site 0's `10.1.0.0/16` also covers site 1's destinations (site 1
///   announces only `10.9.1.0/24`): bundles 0 and 1 form one group;
/// * site 2 also announces `10.3.0.0/16`, so the four direct flows
///   classify into bundle 2 and pin its group to shard 0.
///
/// Bundle 2's flows and the direct ones finish late (about 6 s in), so the
/// run is 10 s long.
fn colocated_world() -> (SimulationConfig, Vec<FlowSpec>) {
    use bundler_core::BundlerConfig;
    use bundler_sim::edge::MultiBundleSpec;
    use bundler_types::{flow::ipv4, IpPrefix};

    let site = |prefixes: &[(u32, u8)]| MultiBundleSpec {
        prefixes: prefixes
            .iter()
            .map(|&(addr, len)| IpPrefix::new(addr, len).unwrap())
            .collect(),
        config: BundlerConfig::default(),
    };
    let specs = vec![
        site(&[(ipv4(10, 1, 0, 0), 16)]),
        site(&[(ipv4(10, 9, 1, 0), 24)]),
        site(&[(ipv4(10, 1, 2, 0), 24), (ipv4(10, 3, 0, 0), 16)]),
        site(&[(ipv4(10, 1, 3, 0), 24)]),
    ];
    let config = SimulationConfig {
        duration: Duration::from_secs(10),
        bottleneck_rate: Rate::from_mbps(48),
        multi_bundle: Some(specs),
        bundles: Vec::new(),
        ..Default::default()
    };
    let mut workload = Vec::new();
    for b in 0..4u64 {
        for i in 0..3u64 {
            let id = 1 + b * 3 + i;
            let start = Nanos::from_millis(20 * i + 7 * b);
            workload.push(FlowSpec::bundled(
                id,
                150_000 + 50_000 * i,
                start,
                b as usize,
            ));
        }
    }
    for i in 0..4u64 {
        workload.push(FlowSpec::direct(
            100 + i,
            120_000,
            Nanos::from_millis(15 * i),
        ));
    }
    (config, workload)
}

/// Placement keeps each co-location group on one shard (and the pinned
/// one on shard 0) at every shard count, under both `ShardBalance` names,
/// so the world above reproduces the solo engine exactly.
#[test]
fn colocation_groups_stay_whole_at_every_shard_count() {
    let (config, workload) = colocated_world();
    let want = SimStats::of(&Simulation::new(config.clone(), workload.clone()).run());
    assert_eq!(
        (want.completed, want.unfinished),
        (16, 0),
        "every flow must finish"
    );
    for shards in [2usize, 3, 4] {
        for balance in [ShardBalance::RoundRobin, ShardBalance::Rate] {
            let mut cfg = config.clone();
            cfg.shards = shards;
            cfg.balance = balance;
            let got = SimStats::of(&Simulation::new(cfg, workload.clone()).run());
            assert_eq!(
                want, got,
                "co-location groups diverged at shards={shards} balance={balance:?}"
            );
        }
    }
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
        let got = SimStats::of(&Simulation::new(cfg, workload()).run());
        assert_eq!(want, got, "classic mode diverged at shards={shards}");
    }
}
