//! Cross-shard differential matrix for the sharded bottleneck.
//!
//! The net-shard split (PR 10) partitions the bottleneck sub-paths
//! round-robin across dedicated net threads. These tests prove the split
//! is invisible: for every combination of worker-shard count, net-shard
//! count, seed and scenario family, `SimStats` digests
//! are **bit-identical** to the single-threaded engine — with and without
//! the `NETENV` wire format encoding every mailbox envelope.
//!
//! Matrix axes:
//! * `shards ∈ {1, 2, 4}` × `net_shards ∈ {1, 2, 4}`
//! * seeds, per scenario family
//! * scenario families: `many_sites` (agent mode), `metro` with the fluid
//!   cross-traffic tier, and classic multipath mode with flow hashing
//! * `wire_envelopes` on in several legs, so live traffic crosses the
//!   versioned codec end to end
//!
//! Plus checkpoint interop: a snapshot taken by the *single-threaded*
//! engine restores into a net-sharded run (and vice versa digests match),
//! because the snapshot's net slice is path-major and partition-invariant.

mod common;

use bundler_core::BundlerConfig;
use bundler_sim::edge::BundleMode;
use bundler_sim::fluid::CrossTrafficTier;
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::scenario::metro::MetroScenario;
use bundler_sim::sim::SimulationConfig;
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimStats, Simulation};
use bundler_types::{Duration, Nanos, Rate};

/// One sharded leg of the matrix: `(shards, net_shards, wire)`.
type Leg = (usize, usize, bool);

/// Runs the single-threaded baseline, then every leg, asserting each is
/// bit-identical. Returns the baseline digest so callers can chain
/// further assertions.
fn assert_matrix(
    name: &str,
    config: &SimulationConfig,
    workload: &[FlowSpec],
    legs: &[Leg],
) -> SimStats {
    let want = SimStats::of(&Simulation::new(config.clone(), workload.to_vec()).run());
    assert!(want.completed > 0, "{name}: scenario must do real work");
    for &(shards, net_shards, wire) in legs {
        let mut cfg = config.clone();
        cfg.shards = shards;
        cfg.net_shards = net_shards;
        cfg.wire_envelopes = wire;
        let got = SimStats::of(&Simulation::new(cfg.clone(), workload.to_vec()).run());
        assert_eq!(
            want,
            got,
            "{name}: shards={shards} net_shards={net_shards} \
             wire_envelopes={wire} diverged from the single-threaded engine{}",
            common::where_they_part(config, &cfg, workload)
        );
    }
    want
}

fn many_sites_multipath(seed: u64) -> (SimulationConfig, Vec<FlowSpec>) {
    let sc = ManySitesScenario::builder()
        .sites(3)
        .requests_per_site(6)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .drain(Duration::from_secs(2))
        .seed(seed)
        .build();
    let mut config = sc.sim_config();
    // Four imbalanced sub-paths so all four net shards own real work.
    config.num_paths = 4;
    config.path_delay_spread = Duration::from_millis(5);
    (config, sc.workload())
}

/// The full `shards × net_shards` grid on the agent-mode scenario, for two
/// seeds, wire envelopes on along the diagonal.
#[test]
fn many_sites_matrix_is_net_shard_invariant() {
    for seed in [3u64, 41] {
        let (config, workload) = many_sites_multipath(seed);
        let mut legs = Vec::new();
        for shards in [1usize, 2, 4] {
            for net_shards in [1usize, 2, 4] {
                let wire = shards == net_shards && shards > 1;
                legs.push((shards, net_shards, wire));
            }
        }
        assert_matrix(
            &format!("many_sites seed={seed}"),
            &config,
            &workload,
            &legs,
        );
    }
}

/// The fluid cross-traffic tier integrates rate ODEs per path on the net
/// side; splitting paths across net shards must not move a single f64 bit.
#[test]
fn metro_fluid_matrix_is_net_shard_invariant() {
    for seed in [7u64, 29] {
        let sc = MetroScenario::builder()
            .sites(4)
            .users_per_site(300)
            .requests_per_site(6)
            .bottleneck(Rate::from_mbps(60))
            .drain(Duration::from_secs(2))
            .tier(CrossTrafficTier::Fluid)
            .seed(seed)
            .build();
        let mut config = sc.sim_config();
        config.num_paths = 2;
        config.path_delay_spread = Duration::from_millis(5);
        let legs = [
            (1, 2, false),
            (2, 1, false),
            (2, 2, false),
            (4, 2, false),
            (2, 2, true),
        ];
        assert_matrix(
            &format!("metro fluid seed={seed}"),
            &config,
            &sc.workload(),
            &legs,
        );
    }
}

/// Classic (non-agent) mode with flows hashed across four imbalanced
/// sub-paths: every event type — pings, direct cross traffic, status-quo
/// and Bundler bundles' data — crosses the net-shard mailboxes.
#[test]
fn classic_multipath_matrix_is_net_shard_invariant() {
    let config = SimulationConfig {
        duration: Duration::from_secs(6),
        bottleneck_rate: Rate::from_mbps(48),
        rtt: Duration::from_millis(40),
        num_paths: 4,
        path_delay_spread: Duration::from_millis(5),
        bundles: vec![
            BundleMode::Bundler(BundlerConfig::default()),
            BundleMode::StatusQuo,
            BundleMode::Bundler(BundlerConfig::default()),
        ],
        ..Default::default()
    };
    let workload = vec![
        FlowSpec::bundled(1, 900_000, Nanos::ZERO, 0),
        FlowSpec::bundled(2, FlowSpec::BACKLOGGED, Nanos::from_millis(15), 1),
        FlowSpec::bundled(3, 300_000, Nanos::from_millis(40), 2),
        FlowSpec::direct(4, 400_000, Nanos::from_millis(25)),
        FlowSpec::bundled(5, 40, Nanos::from_millis(10), 0).as_ping(),
        FlowSpec::bundled(6, 120_000, Nanos::from_millis(350), 2),
    ];
    let legs = [
        (1, 4, false),
        (2, 2, false),
        (2, 4, false),
        (4, 2, false),
        (4, 4, true),
    ];
    assert_matrix("classic multipath", &config, &workload, &legs);
}

/// Values of `net_shards` above `num_paths` clamp (a shard owning zero
/// paths would idle at every barrier for nothing) — and the clamped run
/// is still bit-identical.
#[test]
fn net_shards_above_num_paths_clamp() {
    let (config, workload) = many_sites_multipath(11);
    assert_eq!(config.num_paths, 4);
    let legs = [(2, 64, false)];
    assert_matrix("net_shards clamp", &config, &workload, &legs);
}

/// Checkpoint interop across partitionings. The snapshot's net slice is
/// path-major (one section per path, ascending global id, whichever core
/// owns it), so:
/// * a net-sharded run writes byte-identical snapshots to the solo run;
/// * a snapshot taken by the *single-threaded* engine restores into a
///   net-sharded run (wire envelopes on) and finishes with the
///   uninterrupted digest.
#[test]
fn solo_snapshot_restores_into_net_sharded_run() {
    let sc = ManySitesScenario::builder()
        .sites(3)
        .requests_per_site(6)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .rtt(Duration::from_millis(50))
        .drain(Duration::from_secs(2))
        .seed(19)
        .build();
    let mut config = sc.sim_config();
    config.num_paths = 2;
    config.path_delay_spread = Duration::from_millis(5);
    // Cadence divisible by the sharded window (rtt 50 ms → lookahead
    // 25 ms → pipelined window 12.5 ms), so both hosts stamp checkpoints
    // at identical instants.
    config.checkpoint_every = Some(Duration::from_millis(500));
    let workload = sc.workload();

    let mut solo = Vec::new();
    let baseline =
        SimStats::of(&Simulation::new(config.clone(), workload.clone()).run_collecting(&mut solo));
    assert!(baseline.completed > 0);
    assert!(solo.len() >= 3, "expected several checkpoints");

    // Net-sharded checkpoints are byte-identical to solo ones.
    let mut cfg = config.clone();
    cfg.shards = 2;
    cfg.net_shards = 2;
    let mut sharded = Vec::new();
    let report = Simulation::new(cfg, workload.clone()).run_collecting(&mut sharded);
    assert_eq!(baseline, SimStats::of(&report));
    assert_eq!(solo.len(), sharded.len(), "checkpoint count");
    for ((at_a, a), (at_b, b)) in solo.iter().zip(&sharded) {
        assert_eq!(at_a, at_b, "checkpoint instants");
        assert!(
            a == b,
            "snapshot bytes at {at_a:?} differ between solo and the net-sharded host"
        );
    }

    // Every solo snapshot restores into a net-sharded run — wire
    // envelopes on, so the restored tail also exercises the codec.
    for (at, blob) in &solo {
        let mut cfg = config.clone();
        cfg.shards = 2;
        cfg.net_shards = 2;
        cfg.wire_envelopes = true;
        let resumed = Simulation::restore(cfg, workload.clone(), blob)
            .unwrap_or_else(|e| panic!("restore at {at:?}: {e}"))
            .run();
        assert_eq!(
            baseline,
            SimStats::of(&resumed),
            "solo snapshot at {at:?} diverged when resumed on 2 worker × 2 net shards"
        );
    }
}

/// Randomized soak: ignored by default, run by CI's `test-matrix` job for
/// a wall-clock budget with a fresh seed every time (the seed is logged,
/// so any failure reproduces exactly). Each iteration derives a scenario
/// seed, a path count and two random matrix legs from the soak seed via
/// splitmix64 and asserts the full differential property — solo baseline
/// vs sharded legs, wire envelopes included.
///
/// Reproduce a CI failure locally with the logged seed:
/// `NET_SHARDS_SOAK_SEED=<seed> cargo test --release -p bundler-sim \
///  --test net_shards -- --ignored randomized_soak --nocapture`
#[test]
#[ignore = "wall-clock soak; run with NET_SHARDS_SOAK_SEED (see doc comment)"]
fn randomized_soak_is_net_shard_invariant() {
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    let seed: u64 = std::env::var("NET_SHARDS_SOAK_SEED")
        .expect("set NET_SHARDS_SOAK_SEED (the logged, reproducing seed)")
        .parse()
        .expect("NET_SHARDS_SOAK_SEED must be a u64");
    let secs: u64 = std::env::var("NET_SHARDS_SOAK_SECS")
        .map(|v| v.parse().expect("NET_SHARDS_SOAK_SECS must be a u64"))
        .unwrap_or(60);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    let mut rng = seed;
    let mut iterations = 0u64;
    while std::time::Instant::now() < deadline {
        let scenario_seed = splitmix64(&mut rng);
        let num_paths = 1 + (splitmix64(&mut rng) % 4) as usize;
        let (mut config, workload) = many_sites_multipath(scenario_seed);
        config.num_paths = num_paths;
        let mut legs = Vec::new();
        for _ in 0..2 {
            legs.push((
                1usize << (splitmix64(&mut rng) % 3),
                1usize << (splitmix64(&mut rng) % 3),
                splitmix64(&mut rng) % 2 == 1,
            ));
        }
        assert_matrix(
            &format!(
                "soak seed={seed} iter={iterations} scenario_seed={scenario_seed} \
                 paths={num_paths} legs={legs:?}"
            ),
            &config,
            &workload,
            &legs,
        );
        iterations += 1;
    }
    println!("soak: seed={seed} ran {iterations} iterations within the {secs}s budget");
    assert!(iterations > 0, "the budget must fit at least one iteration");
}

/// Regression pin for the load balancer: for `num_paths = 1` every packet
/// takes path 0, however the balancer picks, so the single-NetCore digest
/// must not move — pinned here as a golden hash. If this fails, the
/// simulation's *behaviour* changed (not just a format): re-pin only when
/// the change is intended and called out in the changelog.
#[test]
fn single_path_digest_is_pinned() {
    const GOLDEN_DIGEST: u64 = 0x5f3a_eb81_ccb7_2197;
    let config = SimulationConfig {
        duration: Duration::from_secs(2),
        bottleneck_rate: Rate::from_mbps(24),
        rtt: Duration::from_millis(40),
        num_paths: 1,
        bundles: vec![BundleMode::Bundler(BundlerConfig::default())],
        ..Default::default()
    };
    let workload = vec![
        FlowSpec::bundled(1, 400_000, Nanos::ZERO, 0),
        FlowSpec::bundled(2, 250_000, Nanos::from_millis(30), 0),
        FlowSpec::direct(3, 150_000, Nanos::from_millis(60)),
    ];
    let want = SimStats::of(&Simulation::new(config.clone(), workload.clone()).run());
    assert!(want.completed > 0);
    let digest = bundler_sim::snapshot::digest(format!("{want:?}").as_bytes());
    assert_eq!(
        digest, GOLDEN_DIGEST,
        "the num_paths = 1 digest moved — the balancer refactor (or a later \
         change) altered single-NetCore behaviour"
    );
    // And the sharded host with redundant net shards clamps to one core
    // and reproduces it bit-for-bit.
    for net_shards in [1usize, 4] {
        let mut cfg = config.clone();
        cfg.shards = 2;
        cfg.net_shards = net_shards;
        let got = SimStats::of(&Simulation::new(cfg, workload.clone()).run());
        assert_eq!(want, got, "net_shards={net_shards} diverged on one path");
    }
}
