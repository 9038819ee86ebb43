//! Sharded checkpoint/restore properties.
//!
//! * Snapshots are **partition-invariant**: the bytes a sharded run writes
//!   at time `T` equal the single-threaded run's bytes at `T`.
//! * Restoring any checkpoint into any shard count — which places the
//!   bundles anew — under an active fault plan finishes with a digest
//!   bit-identical to the uninterrupted run.

use bundler_sim::fault::FaultPlan;
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::sim::SimulationConfig;
use bundler_sim::snapshot::SnapshotError;
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimStats, Simulation};
use bundler_types::{Duration, Rate};

fn scenario(seed: u64) -> ManySitesScenario {
    ManySitesScenario::builder()
        .sites(3)
        .requests_per_site(6)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .rtt(Duration::from_millis(50))
        .drain(Duration::from_secs(2))
        .seed(seed)
        .build()
}

/// Checkpoint cadence 500 ms at rtt 50 ms (lookahead 25 ms, pipelined
/// window 12.5 ms).
fn setup(seed: u64, faults: Option<FaultPlan>) -> (SimulationConfig, Vec<FlowSpec>) {
    let sc = scenario(seed);
    let mut config = sc.sim_config();
    config.checkpoint_every = Some(Duration::from_millis(500));
    config.faults = faults;
    (config, sc.workload())
}

#[test]
fn sharded_checkpoints_are_byte_identical_to_solo() {
    let (config, wl) = setup(5, None);
    let mut solo = Vec::new();
    let solo_report = Simulation::new(config.clone(), wl.clone()).run_collecting(&mut solo);
    assert!(solo.len() >= 3, "expected several checkpoints");
    for shards in [2, 4] {
        let mut cfg = config.clone();
        cfg.shards = shards;
        let mut got = Vec::new();
        let report = Simulation::new(cfg, wl.clone()).run_collecting(&mut got);
        assert_eq!(
            SimStats::of(&solo_report),
            SimStats::of(&report),
            "checkpointing must not perturb a {shards}-shard run"
        );
        assert_eq!(solo.len(), got.len(), "checkpoint count (shards {shards})");
        for ((at_a, a), (at_b, b)) in solo.iter().zip(&got) {
            assert_eq!(at_a, at_b, "checkpoint instants (shards {shards})");
            assert!(
                a == b,
                "snapshot bytes at {at_a:?} differ between solo and {shards} shards"
            );
        }
    }
}

/// A cadence that is not a multiple of the 12.5 ms window: the sharded
/// host ends a window early at each multiple of 330 ms, so it stamps its
/// checkpoints where the single-threaded host does and writes the same
/// bytes, over two bottleneck paths on two net shards.
#[test]
fn checkpoints_off_the_window_grid_match_solo() {
    let (mut config, wl) = setup(5, None);
    config.checkpoint_every = Some(Duration::from_millis(330));
    config.num_paths = 2;
    let mut solo = Vec::new();
    let solo_report = Simulation::new(config.clone(), wl.clone()).run_collecting(&mut solo);
    assert!(solo.len() >= 3, "expected several checkpoints");
    config.shards = 2;
    config.net_shards = 2;
    let mut got = Vec::new();
    let report = Simulation::new(config, wl).run_collecting(&mut got);
    assert_eq!(SimStats::of(&solo_report), SimStats::of(&report));
    let stamps = |ckpts: &[(bundler_types::Nanos, Vec<u8>)]| {
        ckpts
            .iter()
            .map(|(at, _)| at.as_nanos())
            .collect::<Vec<_>>()
    };
    assert_eq!(stamps(&solo), stamps(&got), "checkpoint instants");
    for ((at, a), (_, b)) in solo.iter().zip(&got) {
        assert!(a == b, "snapshot bytes at {at:?} differ between the hosts");
    }
}

#[test]
fn restore_into_any_shard_count_is_bit_identical() {
    // Checkpoints come from a 2-shard run with an active fault plan; every
    // one restores into shard counts 1, 2 and 4, each placing the bundles
    // its own way, and must finish with the uninterrupted digest.
    let faults = FaultPlan::generate(11, Duration::from_secs(4), 1);
    let (mut config, wl) = setup(9, Some(faults));
    config.shards = 2;
    let mut ckpts = Vec::new();
    let baseline = Simulation::new(config.clone(), wl.clone()).run_collecting(&mut ckpts);
    let want = SimStats::of(&baseline);
    assert!(ckpts.len() >= 3, "expected several checkpoints");
    for (at, blob) in &ckpts {
        for shards in [1usize, 2, 4] {
            let mut cfg = config.clone();
            cfg.shards = shards;
            let report = Simulation::restore(cfg, wl.clone(), blob)
                .expect("valid snapshot")
                .run();
            assert_eq!(
                want,
                SimStats::of(&report),
                "restore at {at:?} into {shards} shards must match the uninterrupted run"
            );
        }
    }
}

/// The hosts hash the workload once and reuse the value: every header —
/// the first checkpoint's, the later ones', and those a restored run goes
/// on to write — must still carry exactly what a fresh
/// `snapshot::fingerprint` of the same config and workload returns.
#[test]
fn every_checkpoint_header_carries_the_fresh_fingerprint() {
    use bundler_sim::snapshot;
    let (config, wl) = setup(5, None);
    for shards in [1usize, 2] {
        let mut cfg = config.clone();
        cfg.shards = shards;
        let fresh = snapshot::fingerprint(&cfg, &wl);
        let check = |ckpts: &[(bundler_types::Nanos, Vec<u8>)], who: &str| {
            for (at, blob) in ckpts {
                let mut r = serde::binary::Reader::new(blob);
                assert_eq!(
                    snapshot::read_header(&mut r, fresh),
                    Ok(*at),
                    "{who}, {shards} shard(s), checkpoint at {at:?}"
                );
            }
        };
        let mut ckpts = Vec::new();
        Simulation::new(cfg.clone(), wl.clone()).run_collecting(&mut ckpts);
        assert!(ckpts.len() >= 3, "expected several checkpoints");
        check(&ckpts, "uninterrupted run");

        let mut later = Vec::new();
        Simulation::restore(cfg, wl.clone(), &ckpts[0].1)
            .expect("valid snapshot")
            .run_collecting(&mut later);
        check(&later, "restored run");
        assert!(
            later == ckpts[1..],
            "a restored run re-takes the uninterrupted run's checkpoints ({shards} shard(s))"
        );
    }
}

#[test]
fn restore_rejects_a_mismatched_config() {
    let (config, wl) = setup(5, None);
    let mut ckpts = Vec::new();
    Simulation::new(config.clone(), wl.clone()).run_collecting(&mut ckpts);
    let blob = &ckpts[0].1;
    let mut other = config.clone();
    other.bottleneck_rate = Rate::from_mbps(10);
    match Simulation::restore(other, wl, blob) {
        Err(SnapshotError::FingerprintMismatch { .. }) => {}
        Ok(_) => panic!("fingerprint mismatch must be rejected"),
        Err(other) => panic!("expected a fingerprint mismatch, got {other}"),
    }
}

/// The sharded host's `restore` is as total over bad bytes as the solo
/// one (`crates/sim/tests/checkpoint.rs` has the same sweep): two workers,
/// and for the two-path metro world two net shards, receive the parts. On
/// real checkpoints — `many_sites` under a fault plan, `metro` with the
/// fluid tier — every truncation is a typed snapshot error, and an 8-byte
/// overwrite anywhere past the header is that or a decodable snapshot:
/// never a panic, never an allocation the process dies on.
#[test]
fn restore_is_total_over_truncated_and_overwritten_snapshots() {
    use bundler_sim::fault::FaultKind;
    use bundler_sim::fluid::CrossTrafficTier;
    use bundler_sim::scenario::metro::MetroScenario;
    use bundler_types::Nanos;

    // 28 bytes of header: magic, version, instant, fingerprint.
    const HEADER: usize = 28;
    // Debug builds sample offsets; the stride is odd so every alignment
    // against the 8-byte fields is still hit.
    let stride = if cfg!(debug_assertions) { 29 } else { 1 };

    // A long reorder burst keeps the bottleneck's one-slot reorder buffer
    // in use when the checkpoint is taken.
    let plan = FaultPlan::generate(31, Duration::from_secs(4), 1).with_fault(
        Nanos::from_millis(120),
        FaultKind::Reorder { count: 100_000 },
    );
    let (many_sites, many_sites_wl) = setup(31, Some(plan));
    let sc = MetroScenario::builder()
        .sites(2)
        .users_per_site(100)
        .requests_per_site(4)
        .bottleneck(Rate::from_mbps(40))
        .drain(Duration::from_secs(1))
        .tier(CrossTrafficTier::Fluid)
        .seed(31)
        .build();
    let mut metro = sc.sim_config();
    metro.num_paths = 2;
    metro.net_shards = 2;
    metro.path_delay_spread = Duration::from_millis(5);
    for (what, mut config, wl) in [
        ("many_sites + faults", many_sites, many_sites_wl),
        ("metro fluid", metro, sc.workload()),
    ] {
        config.shards = 2;
        // 200 ms in, flows are mid-transfer and the time series, which
        // dominate later snapshots, are still short.
        config.checkpoint_every = Some(Duration::from_millis(200));
        let mut ckpts = Vec::new();
        Simulation::new(config.clone(), wl.clone()).run_collecting(&mut ckpts);
        let blob = ckpts.swap_remove(0).1;
        let restore = |bytes: &[u8]| Simulation::restore(config.clone(), wl.clone(), bytes);
        assert!(
            restore(&blob).is_ok(),
            "{what}: the intact snapshot restores"
        );
        for len in (0..blob.len()).step_by(stride) {
            assert!(
                restore(&blob[..len]).is_err(),
                "{what}: truncation to {len} of {} bytes must be rejected",
                blob.len()
            );
        }
        let mut patched = blob.clone();
        for at in (HEADER..blob.len() - 8).step_by(stride) {
            for value in [u64::MAX, 1 << 40, 1000] {
                patched[at..at + 8].copy_from_slice(&value.to_le_bytes());
                // Any failure is a typed `SnapshotError` by `restore`'s
                // signature: what is checked here is that it returns.
                let _ = restore(&patched);
            }
            patched[at..at + 8].copy_from_slice(&blob[at..at + 8]);
        }
    }
}

/// The classic (non-agent) sendbox edge — two `Bundler` bundles around a
/// status-quo one, two imbalanced paths, a direct flow and a ping: the
/// world of `equivalence.rs::classic_mode_with_cross_traffic_is_shard_count_invariant`.
/// Every other checkpoint test runs an agent-mode world, so this is the
/// one that writes and restores edge tags 0 (no sendbox) and 1 (`Bundle`).
/// The 500 ms cadence is a multiple of the 10 ms window (rtt 40 ms).
fn classic_world() -> (SimulationConfig, Vec<FlowSpec>) {
    use bundler_core::BundlerConfig;
    use bundler_sim::edge::BundleMode;
    use bundler_types::Nanos;

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
        checkpoint_every: Some(Duration::from_millis(500)),
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
    (config, workload)
}

#[test]
fn classic_edge_checkpoints_restore_and_match_solo() {
    // The checkpoint stamped 2 s, reduced to `snapshot::digest`: the exact
    // bytes of status-quo parcels and `Bundle::save_state`. If this fails
    // the snapshot layout changed — follow the steps on
    // `snapshot_wire_format_is_stable` in `crates/sim/tests/checkpoint.rs` —
    // or, if only bytes 20–27 differ, a fingerprinted config type's field
    // list did, which needs no version bump (same doc comment).
    const GOLDEN_AT_2S: (usize, u64) = (34_898, 0xdd95_6bad_6826_0bb4);

    let (config, wl) = classic_world();
    let mut solo = Vec::new();
    let want = SimStats::of(&Simulation::new(config.clone(), wl.clone()).run_collecting(&mut solo));
    assert_eq!(solo.len(), 11, "one checkpoint per 500 ms of a 6 s run");
    let (_, blob) = solo
        .iter()
        .find(|(at, _)| *at == bundler_types::Nanos::from_secs(2))
        .expect("a checkpoint stamped 2 s");
    assert_eq!(
        (blob.len(), bundler_sim::snapshot::digest(blob)),
        GOLDEN_AT_2S
    );

    for (at, blob) in &solo {
        let report = Simulation::restore(config.clone(), wl.clone(), blob)
            .expect("valid snapshot")
            .run();
        assert_eq!(want, SimStats::of(&report), "solo restore at {at:?}");
        let mut cfg = config.clone();
        cfg.shards = 2;
        let report = Simulation::restore(cfg, wl.clone(), blob)
            .expect("valid snapshot")
            .run();
        assert_eq!(want, SimStats::of(&report), "2-shard restore at {at:?}");
    }
    let mut cfg = config.clone();
    cfg.shards = 2;
    let mut got = Vec::new();
    let report = Simulation::new(cfg, wl.clone()).run_collecting(&mut got);
    assert_eq!(want, SimStats::of(&report), "2 shards");
    assert!(
        solo == got,
        "2-shard checkpoints differ from the solo run's"
    );
}
