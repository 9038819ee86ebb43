//! Checkpoint/restore and fault-injection tests for the single-threaded
//! host: restoring any checkpoint must resume **bit-identically**, with and
//! without an active fault plan; snapshots themselves must be
//! deterministic; and the replay harness must reproduce the run under full
//! observability.

use bundler_cc::{BundleAlg, EndhostAlg};
use bundler_obs::stream::{self, StreamSink};
use bundler_obs::{FlowTrace, ObsLevel};
use bundler_sched::Policy;
use bundler_sim::fault::{FaultKind, FaultPlan};
use bundler_sim::scenario::fct::{FctScenario, SendboxMode};
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::sim::SimulationConfig;
use bundler_sim::workload::FlowSpec;
use bundler_sim::{snapshot, SimStats, Simulation};
use bundler_types::{Duration, Nanos, Rate};

fn scenario(seed: u64) -> ManySitesScenario {
    ManySitesScenario::builder()
        .sites(3)
        .requests_per_site(6)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .drain(Duration::from_secs(2))
        .seed(seed)
        .build()
}

fn setup(seed: u64, faults: Option<FaultPlan>) -> (SimulationConfig, Vec<FlowSpec>) {
    let sc = scenario(seed);
    let mut config = sc.sim_config();
    config.checkpoint_every = Some(Duration::from_millis(500));
    config.faults = faults;
    (config, sc.workload())
}

fn digest(config: &SimulationConfig, workload: &[FlowSpec]) -> SimStats {
    SimStats::of(&Simulation::new(config.clone(), workload.to_vec()).run())
}

#[test]
fn restore_at_every_checkpoint_is_bit_identical() {
    let (config, workload) = setup(7, None);
    let mut ckpts = Vec::new();
    let baseline =
        SimStats::of(&Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts));
    assert!(baseline.completed > 0, "scenario must do real work");
    assert!(
        ckpts.len() >= 3,
        "expected several checkpoints, got {}",
        ckpts.len()
    );
    // Checkpointing itself must not perturb the run.
    assert_eq!(baseline, digest(&config, &workload));
    for (at, bytes) in &ckpts {
        let sim = Simulation::restore(config.clone(), workload.clone(), bytes)
            .unwrap_or_else(|e| panic!("restore at {at:?}: {e}"));
        let resumed = SimStats::of(&sim.run());
        assert_eq!(baseline, resumed, "restore at {at:?} diverged");
    }
}

#[test]
fn restore_under_fault_plan_is_bit_identical() {
    let sc = scenario(11);
    let plan = FaultPlan::generate(11, sc.sim_config().duration, sc.sim_config().num_paths);
    let (config, workload) = setup(11, Some(plan));
    let mut ckpts = Vec::new();
    let baseline =
        SimStats::of(&Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts));
    assert!(baseline.completed > 0);
    assert!(!ckpts.is_empty());
    for (at, bytes) in &ckpts {
        let sim = Simulation::restore(config.clone(), workload.clone(), bytes)
            .unwrap_or_else(|e| panic!("restore at {at:?}: {e}"));
        assert_eq!(
            baseline,
            SimStats::of(&sim.run()),
            "restore at {at:?} diverged"
        );
    }
}

#[test]
fn faults_change_results_and_are_seed_deterministic() {
    let (clean_config, workload) = setup(13, None);
    let plan = FaultPlan::generate(13, clean_config.duration, clean_config.num_paths)
        .with_fault(Nanos::from_millis(400), FaultKind::BurstLoss { count: 20 });
    let mut faulty_config = clean_config.clone();
    faulty_config.faults = Some(plan);
    let clean = digest(&clean_config, &workload);
    let faulty = digest(&faulty_config, &workload);
    assert_ne!(clean, faulty, "an active fault plan must perturb the run");
    assert_eq!(
        faulty,
        digest(&faulty_config, &workload),
        "same plan must reproduce the same digest"
    );
}

#[test]
fn snapshots_are_deterministic() {
    let (config, workload) = setup(17, None);
    let mut a = Vec::new();
    let mut b = Vec::new();
    Simulation::new(config.clone(), workload.clone()).run_collecting(&mut a);
    Simulation::new(config, workload).run_collecting(&mut b);
    assert_eq!(a.len(), b.len());
    for ((ta, ba), (tb, bb)) in a.iter().zip(b.iter()) {
        assert_eq!(ta, tb);
        assert_eq!(
            ba, bb,
            "snapshot bytes at {ta:?} differ between identical runs"
        );
    }
}

#[test]
fn replay_reruns_the_tail_with_full_observability() {
    let (config, workload) = setup(19, None);
    let mut ckpts = Vec::new();
    let baseline =
        SimStats::of(&Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts));
    let mid = Nanos::ZERO + Duration(config.duration.as_nanos() / 2);
    let (from, report) = snapshot::replay_at(&config, &workload, &ckpts, mid).expect("replay");
    assert!(from <= mid);
    assert_eq!(baseline, SimStats::of(&report), "replayed tail diverged");
    let obs = report.obs.expect("replay must run at ObsLevel::Full");
    assert_eq!(obs.level, bundler_obs::ObsLevel::Full);
}

#[test]
fn restore_rejects_mismatched_config_and_garbage() {
    let (config, workload) = setup(23, None);
    let mut ckpts = Vec::new();
    Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts);
    let (_, bytes) = ckpts.first().expect("at least one checkpoint");

    let mut other = config.clone();
    other.bottleneck_rate = Rate::from_mbps(61);
    match Simulation::restore(other, workload.clone(), bytes) {
        Err(snapshot::SnapshotError::FingerprintMismatch { .. }) => {}
        other => panic!("expected fingerprint mismatch, got {:?}", other.err()),
    }

    match Simulation::restore(config.clone(), workload.clone(), b"not a snapshot") {
        Err(snapshot::SnapshotError::BadMagic) => {}
        other => panic!("expected bad magic, got {:?}", other.err()),
    }

    let mut truncated = bytes.clone();
    truncated.truncate(truncated.len() / 2);
    match Simulation::restore(config, workload, &truncated) {
        Err(snapshot::SnapshotError::Corrupt(_)) => {}
        other => panic!("expected corrupt payload, got {:?}", other.err()),
    }
}

/// The streaming export is resumable across checkpoint/restore, under an
/// active fault plan and with flow tracing on: because the stream is
/// flushed before every snapshot is written, the lines a crashed run
/// exported *below* the checkpoint instant T, concatenated with the lines
/// the restored continuation exports, reproduce the full run's export
/// exactly — same records, same canonical order.
#[test]
fn streamed_export_resumes_across_checkpoint_restore_under_faults() {
    let sc = scenario(29);
    let plan = FaultPlan::generate(29, sc.sim_config().duration, sc.sim_config().num_paths);
    let (mut config, workload) = setup(29, Some(plan));
    config.obs = ObsLevel::Full;
    config.flow_trace = Some(FlowTrace::all(29));

    // Keys in canonical stream order. Seq numbers restart when a restored
    // run re-opens its stream, so the comparison is on `(at, shard, kind)`
    // — which still pins the order, because `stream::read` orders records
    // as a stable sort would and per-shard push order is deterministic.
    let keys = |text: &str| -> Vec<(u64, u16, String)> {
        stream::read(text)
            .iter()
            .map(|r| {
                (
                    r.rec.at.as_nanos(),
                    r.rec.shard,
                    format!("{:?}", r.rec.kind),
                )
            })
            .collect()
    };

    let (sink, buf) = StreamSink::to_shared_vec();
    let mut full_cfg = config.clone();
    full_cfg.stream = Some(sink);
    let mut ckpts = Vec::new();
    let baseline =
        SimStats::of(&Simulation::new(full_cfg, workload.clone()).run_collecting(&mut ckpts));
    assert!(baseline.completed > 0);
    assert!(ckpts.len() >= 2);
    let full = keys(&buf.contents());
    assert!(!full.is_empty(), "the traced run must stream records");

    let (at, bytes) = &ckpts[ckpts.len() / 2];
    let t = at.as_nanos();
    let (sink, resumed_buf) = StreamSink::to_shared_vec();
    let mut resume_cfg = config.clone();
    resume_cfg.stream = Some(sink);
    let sim = Simulation::restore(resume_cfg, workload, bytes).expect("restore");
    assert_eq!(baseline, SimStats::of(&sim.run()), "restored run diverged");

    // A crash at T would leave exactly the `at < T` prefix on disk (the
    // checkpoint path flushes before writing the snapshot); the restored
    // run must re-export the `at >= T` tail verbatim.
    let prefix: Vec<_> = full.iter().filter(|k| k.0 < t).cloned().collect();
    let want_tail: Vec<_> = full.iter().filter(|k| k.0 >= t).cloned().collect();
    let got_tail = keys(&resumed_buf.contents());
    assert!(!prefix.is_empty() && !want_tail.is_empty());
    assert_eq!(
        got_tail, want_tail,
        "restored continuation must stream exactly the full run's tail"
    );
    assert_eq!(prefix.len() + got_tail.len(), full.len());
}

/// Golden wire-format test: the exact bytes of a version-4 snapshot for a
/// pinned config and workload, reduced to `snapshot::digest`. If this fails,
/// the snapshot byte layout changed: bump `snapshot::VERSION`, update the
/// wire-format notes in `ARCHITECTURE.md` and `crates/sim/src/snapshot.rs`,
/// and re-pin `GOLDEN_HASH` below. Never "fix" this test by re-pinning
/// without the version bump — old snapshots would decode as garbage.
///
/// The one other way a pin here or in the checkpoint matrix moves: the
/// field list of a config type the fingerprint renders (it hashes `Debug`
/// text) changes. Then only bytes 20–27, the fingerprint, differ; an older
/// snapshot is refused with `SnapshotError::FingerprintMismatch` rather than
/// misread, so the re-pin needs no version bump — but the change must show,
/// by comparing the old and new checkpoint files, that no other byte moved.
#[test]
fn snapshot_wire_format_is_stable() {
    const GOLDEN_HASH: u64 = 0xf3e7_a82c_16db_e89d;
    const GOLDEN_LEN: usize = 5239;
    assert_eq!(
        snapshot::VERSION,
        4,
        "snapshot::VERSION changed — re-pin this test's golden hash for the new format"
    );
    let config = SimulationConfig {
        duration: Duration::from_secs(1),
        checkpoint_every: Some(Duration::from_millis(250)),
        ..Default::default()
    };
    let workload = vec![
        FlowSpec::bundled(1, 200_000, Nanos::ZERO, 0),
        FlowSpec::bundled(2, 100_000, Nanos::from_millis(100), 0),
    ];
    let mut ckpts = Vec::new();
    Simulation::new(config, workload).run_collecting(&mut ckpts);
    let (at, blob) = &ckpts[0];
    assert_eq!(*at, Nanos::from_millis(250));
    assert_eq!(
        (blob.len(), snapshot::digest(blob)),
        (GOLDEN_LEN, GOLDEN_HASH),
        "the snapshot byte layout changed without a snapshot::VERSION bump \
         (see this test's doc comment for the required steps)"
    );
}

/// Two real checkpoints with the worlds that wrote them: agent-mode
/// `many_sites` under a fault plan (plus a long reorder burst, so the
/// bottleneck's one-slot reorder buffer is in use when the checkpoint is
/// taken), and `metro` with the fluid cross-traffic tier on two imbalanced
/// paths — between them every snapshot section that exists. Taken 200 ms
/// in: flows are mid-transfer and the time series, which dominate later
/// snapshots, are still short.
fn corruption_targets() -> Vec<(&'static str, SimulationConfig, Vec<FlowSpec>, Vec<u8>)> {
    use bundler_sim::fluid::CrossTrafficTier;
    use bundler_sim::scenario::metro::MetroScenario;

    let sc = scenario(31);
    let plan = FaultPlan::generate(31, sc.sim_config().duration, sc.sim_config().num_paths)
        .with_fault(
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
    metro.path_delay_spread = Duration::from_millis(5);
    [
        ("many_sites + faults", many_sites, many_sites_wl),
        ("metro fluid", metro, sc.workload()),
    ]
    .into_iter()
    .map(|(what, mut config, workload)| {
        config.checkpoint_every = Some(Duration::from_millis(200));
        let mut ckpts = Vec::new();
        Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts);
        (what, config, workload, ckpts.swap_remove(0).1)
    })
    .collect()
}

/// `restore` is total over bad bytes: every truncation is an error, and an
/// 8-byte overwrite anywhere past the header — the values a hostile or
/// bit-rotted length prefix, count or index would take — is an error or a
/// (differently) decodable snapshot. Never a panic, never an allocation
/// the process dies on. What an altered-but-decodable snapshot then does in
/// `run()` is not this test's subject.
#[test]
fn restore_is_total_over_truncated_and_overwritten_snapshots() {
    // 28 bytes of header: magic, version, instant, fingerprint.
    const HEADER: usize = 28;
    // Debug builds sample offsets; the stride is odd so every alignment
    // against the 8-byte fields is still hit.
    let stride = if cfg!(debug_assertions) { 29 } else { 1 };
    for (what, config, workload, blob) in corruption_targets() {
        let restore = |bytes: &[u8]| Simulation::restore(config.clone(), workload.clone(), bytes);
        assert!(
            restore(&blob).is_ok(),
            "{what}: the intact snapshot restores"
        );
        for len in (0..blob.len()).step_by(stride) {
            assert!(
                matches!(
                    restore(&blob[..len]).err(),
                    Some(snapshot::SnapshotError::Corrupt(_))
                ),
                "{what}: truncation to {len} of {} bytes must be rejected",
                blob.len()
            );
        }
        let mut patched = blob.clone();
        for at in (HEADER..blob.len() - 8).step_by(stride) {
            for value in [u64::MAX, 1 << 40, 1000] {
                patched[at..at + 8].copy_from_slice(&value.to_le_bytes());
                if let Err(e) = restore(&patched) {
                    assert!(
                        matches!(e, snapshot::SnapshotError::Corrupt(_)),
                        "{what}: {e}"
                    );
                }
            }
            patched[at..at + 8].copy_from_slice(&blob[at..at + 8]);
        }
    }
}

/// One world of the checkpoint matrix: what it covers, how to build it, and
/// the `(len, snapshot::digest)` of its middle checkpoint.
struct World {
    name: &'static str,
    build: fn() -> (SimulationConfig, Vec<FlowSpec>),
    pin: (usize, u64),
}

/// A Figure 9 request world on one bundle, three seconds long, or — `big` —
/// the size at which queued packets and their refs paired up differently in
/// a restored FairQueue when its walk followed map order: 4 000 requests,
/// four bulk flows and 120 Mbit/s offered for eight seconds.
fn fct(mode: SendboxMode, alg: EndhostAlg, big: bool) -> (SimulationConfig, Vec<FlowSpec>) {
    fct_marked(mode, alg, big, 0.0)
}

/// [`fct`] with a `high` fraction of the requests in the high-priority
/// class, beside the best-effort requests and the bulk flows.
fn fct_marked(
    mode: SendboxMode,
    alg: EndhostAlg,
    big: bool,
    high: f64,
) -> (SimulationConfig, Vec<FlowSpec>) {
    let (requests, bulk, load, secs) = if big {
        (4_000, 4, 120, 8)
    } else {
        (400, 2, 90, 3)
    };
    let sc = FctScenario::builder()
        .requests(requests)
        .background_bulk_flows(bulk)
        .offered_load(Rate::from_mbps(load))
        .mode(mode)
        .endhost_alg(alg)
        .high_priority_fraction(high)
        .seed(9)
        .build();
    let mut config = sc.sim_config();
    config.duration = Duration::from_secs(secs);
    (config, sc.workload())
}

fn worlds() -> Vec<World> {
    use EndhostAlg::{Cubic, FixedWindow, NewReno};
    use SendboxMode::{BundlerAlg, BundlerPolicy, InNetwork};
    vec![
        World {
            name: "bundler fifo (nimbus, cubic)",
            build: || fct(BundlerPolicy(Policy::Fifo), Cubic, false),
            pin: (179_989, 0x30cf_6101_9db8_f185),
        },
        World {
            name: "bundler sfq",
            build: || fct(BundlerPolicy(Policy::Sfq), Cubic, false),
            pin: (188_612, 0xda65_3db5_3605_2f2c),
        },
        World {
            name: "bundler fq_codel",
            build: || fct(BundlerPolicy(Policy::FqCodel), Cubic, false),
            pin: (146_346, 0x9d79_128d_3443_5bb3),
        },
        World {
            name: "bundler fq",
            build: || fct(BundlerPolicy(Policy::FairQueue), Cubic, true),
            pin: (287_583, 0x2017_fe75_73a7_19f4),
        },
        World {
            name: "bundler drr",
            build: || fct(BundlerPolicy(Policy::Drr), Cubic, false),
            pin: (185_629, 0x4e21_4626_33a9_1107),
        },
        World {
            name: "bundler prio",
            build: || fct_marked(BundlerPolicy(Policy::StrictPriority), Cubic, false, 0.25),
            pin: (357_587, 0x7e70_4ab3_f38c_e7e2),
        },
        World {
            name: "in-network fq",
            build: || fct(InNetwork, Cubic, true),
            pin: (237_021, 0x45e7_f3e1_4165_3ad1),
        },
        World {
            name: "bundle cc copa",
            build: || fct(BundlerAlg(BundleAlg::Copa), Cubic, false),
            pin: (119_187, 0xd7f3_9a46_afd0_237e),
        },
        World {
            name: "bundle cc bbr",
            build: || fct(BundlerAlg(BundleAlg::Bbr), Cubic, false),
            pin: (181_673, 0xcc65_1513_c0e9_4dba),
        },
        World {
            name: "endhost newreno",
            build: || fct(BundlerPolicy(Policy::Sfq), NewReno, false),
            pin: (188_537, 0x763d_ee56_e8c8_52a8),
        },
        World {
            name: "endhost fixed window",
            build: || fct(BundlerPolicy(Policy::Sfq), FixedWindow(40), false),
            pin: (53_511, 0x925d_9470_4042_8e26),
        },
        World {
            name: "agent many_sites + faults",
            build: || {
                let sc = scenario(37);
                let duration = sc.sim_config().duration;
                setup(37, Some(FaultPlan::generate(37, duration, 1)))
            },
            pin: (135_084, 0xf2ba_373c_0ba4_458f),
        },
        World {
            name: "metro fluid",
            build: || {
                use bundler_sim::fluid::CrossTrafficTier;
                use bundler_sim::scenario::metro::MetroScenario;
                let sc = MetroScenario::builder()
                    .sites(2)
                    .users_per_site(100)
                    .requests_per_site(4)
                    .bottleneck(Rate::from_mbps(40))
                    .drain(Duration::from_secs(2))
                    .tier(CrossTrafficTier::Fluid)
                    .seed(37)
                    .build();
                let mut config = sc.sim_config();
                config.num_paths = 2;
                config.path_delay_spread = Duration::from_millis(5);
                (config, sc.workload())
            },
            pin: (231_179, 0x828b_6066_1cf4_d24f),
        },
        World {
            name: "flow trace",
            build: || {
                let (mut config, workload) = fct(BundlerPolicy(Policy::Sfq), Cubic, false);
                config.obs = ObsLevel::Full;
                config.flow_trace = Some(FlowTrace::all(9));
                (config, workload)
            },
            pin: (188_769, 0xc253_5a31_e609_e60a),
        },
    ]
}

/// Every checkpoint layout, pinned: each world of [`worlds`] restores at
/// every checkpoint (debug builds restore every third) to the uninterrupted
/// run's `SimStats`, and its middle checkpoint has the pinned length and
/// `snapshot::digest` — so a layout change anywhere in the codec shows here, not
/// only in the two goldens. A pin that moves with only bytes 20–27 differing
/// is a fingerprinted config type's field list, not a layout change (see
/// `snapshot_wire_format_is_stable`).
#[test]
fn checkpoint_matrix_restores_every_world_and_pins_its_bytes() {
    let stride = if cfg!(debug_assertions) { 3 } else { 1 };
    let mut failures = Vec::new();
    for world in worlds() {
        let (mut config, workload) = (world.build)();
        config.checkpoint_every = Some(Duration::from_millis(500));
        let mut ckpts = Vec::new();
        let baseline = SimStats::of(
            &Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts),
        );
        assert!(
            ckpts.len() >= 3,
            "{}: {} checkpoints",
            world.name,
            ckpts.len()
        );
        let mid = &ckpts[ckpts.len() / 2].1;
        let pin = (mid.len(), snapshot::digest(mid));
        if pin != world.pin {
            failures.push(format!(
                "{}: middle checkpoint is ({}, {:#x})",
                world.name, pin.0, pin.1
            ));
        }
        for (at, bytes) in ckpts.iter().step_by(stride) {
            let sim = Simulation::restore(config.clone(), workload.clone(), bytes)
                .unwrap_or_else(|e| panic!("{}: restore at {at:?}: {e}", world.name));
            if SimStats::of(&sim.run()) != baseline {
                failures.push(format!("{}: restore at {at:?} diverged", world.name));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A restored run records what an uninterrupted one does. Every packet the
/// sendbox releases is one `SendboxSojournNs` sample, and one
/// `SchedSojournNs` sample from the scheduler inside it — whose export a
/// loaded bundle re-arms — so in every report the two counts agree.
#[test]
fn restored_runs_record_in_scheduler_metrics() {
    use bundler_obs::HistId;
    let (mut config, workload) = fct(
        SendboxMode::BundlerPolicy(Policy::Sfq),
        EndhostAlg::Cubic,
        false,
    );
    config.obs = ObsLevel::Metrics;
    config.checkpoint_every = Some(Duration::from_millis(500));
    let counts = |report: &bundler_sim::SimReport| {
        let metrics = &report.obs.as_ref().expect("metrics on").metrics;
        let count = |id| metrics.hist(id).count();
        (
            count(HistId::SchedSojournNs),
            count(HistId::SendboxSojournNs),
        )
    };
    let mut ckpts = Vec::new();
    let run = Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts);
    let (sched, sendbox) = counts(&run);
    assert!(sendbox > 0, "the sendbox releases packets");
    assert_eq!(sched, sendbox, "uninterrupted run");
    assert!(ckpts.len() >= 3, "{} checkpoints", ckpts.len());
    for (at, bytes) in &ckpts {
        let sim = Simulation::restore(config.clone(), workload.clone(), bytes).expect("restore");
        let (sched, sendbox) = counts(&sim.run());
        assert!(
            sendbox > 0,
            "restore at {at:?}: the sendbox releases packets"
        );
        assert_eq!(sched, sendbox, "restore at {at:?}");
    }
}
