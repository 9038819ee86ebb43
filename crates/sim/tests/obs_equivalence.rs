//! Property tests: observability is a pure output. Recording at any
//! level never changes a simulation result, the merged *portable* metrics
//! are bit-identical for every shard count, and the exported trace
//! contains per-shard window spans, net phases and per-bundle rate
//! tracks.

use bundler_obs::{CounterId, HistId, ObsLevel, TraceKind};
use bundler_sim::scenario::hot_bundle::HotBundleScenario;
use bundler_sim::scenario::many_sites::{ManySitesReport, ManySitesScenario};
use bundler_sim::sim::SimulationConfig;
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimStats, Simulation};
use bundler_types::{Duration, Rate};
use proptest::prelude::*;

fn quick_scenario(seed: u64, sites: usize, obs: ObsLevel) -> ManySitesScenario {
    ManySitesScenario::builder()
        .sites(sites)
        .requests_per_site(6)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .drain(Duration::from_secs(2))
        .seed(seed)
        .obs(obs)
        .build()
}

/// A run of `config` over `workload` on `shards` worker shards.
fn on_shards(
    mut config: SimulationConfig,
    workload: Vec<FlowSpec>,
    shards: usize,
) -> ManySitesReport {
    config.shards = shards;
    ManySitesReport::from_sim(Simulation::new(config, workload).run())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Turning observability all the way up changes nothing: for random
    /// seeds and shard counts {1, 2, 4}, `ObsLevel::Full` produces the
    /// same `SimStats` digest as `ObsLevel::Off`.
    #[test]
    fn full_observability_never_perturbs_results(seed in 1u64..1000, sites in 3usize..8) {
        let off = quick_scenario(seed, sites, ObsLevel::Off);
        let full = quick_scenario(seed, sites, ObsLevel::Full);
        let baseline = off.run();
        let want = SimStats::of(&baseline.sim);
        prop_assert!(want.completed > 0, "scenario must do real work");
        prop_assert!(baseline.sim.obs.is_none(), "obs off must carry no report");
        for shards in [1usize, 2, 4] {
            let traced = on_shards(full.sim_config(), full.workload(), shards);
            prop_assert_eq!(
                &want,
                &SimStats::of(&traced.sim),
                "obs=full shards={} diverged from obs=off single-threaded (seed={})",
                shards, seed
            );
            prop_assert_eq!(baseline.totals(), traced.totals());
            prop_assert!(traced.sim.obs.is_some(), "obs=full must carry a report");
        }
    }

    /// The merged *portable* metrics snapshot — counters, max-gauges and
    /// every histogram bucket — is bit-identical for any shard count
    /// (host metrics are exempt by design: mailbox depth and window
    /// timings describe the execution, not the simulation).
    #[test]
    fn portable_metrics_are_shard_count_invariant(seed in 1u64..1000, sites in 3usize..8) {
        let scenario = quick_scenario(seed, sites, ObsLevel::Metrics);
        let single = scenario.run();
        let want = single.sim.obs.as_ref().expect("metrics on").metrics.clone();
        prop_assert!(want.counter(CounterId::SendboxEnqueued) > 0, "traffic must flow");
        prop_assert!(want.hist(HistId::SendboxSojournNs).count() > 0);
        for shards in [2usize, 4] {
            let sharded = on_shards(scenario.sim_config(), scenario.workload(), shards);
            let got = &sharded.sim.obs.as_ref().expect("metrics on").metrics;
            prop_assert_eq!(
                &want, got,
                "portable metrics diverged at shards={} (seed={})",
                shards, seed
            );
        }
    }
}

/// The acceptance-criteria trace: a skewed `hot_bundle` run on 2 shards,
/// traced at `ObsLevel::Full`. The report must contain per-shard window
/// spans, net phases and per-bundle rate changes — and the Perfetto export
/// must carry the spans and the rate tracks.
#[test]
fn hot_bundle_trace_contains_windows_migrations_and_rate_tracks() {
    let scenario = HotBundleScenario::builder()
        .sites(5)
        .requests_per_cold_site(8)
        .offered_load_per_cold_site(Rate::from_mbps(6))
        .drain(Duration::from_secs(2))
        .seed(13)
        .obs(ObsLevel::Full)
        .build();
    let report = on_shards(scenario.sim_config(), scenario.workload(), 2);
    let obs = report.sim.obs.as_ref().expect("obs=full carries a report");

    let mut window_shards = std::collections::BTreeSet::new();
    let (mut rate_changes, mut net_phases) = (0usize, 0usize);
    for rec in &obs.trace {
        match rec.kind {
            TraceKind::WorkerWindow { .. } => {
                window_shards.insert(rec.shard);
            }
            TraceKind::RateChange { .. } => rate_changes += 1,
            TraceKind::NetPhase { .. } => net_phases += 1,
            _ => {}
        }
    }
    assert_eq!(
        window_shards.into_iter().collect::<Vec<_>>(),
        vec![0, 1],
        "every worker shard must emit window spans"
    );
    assert!(rate_changes > 0, "control ticks must emit rate tracks");
    assert!(net_phases > 0, "the driver must stamp net phases");

    // Phase profiles: one per shard, with a net-phase timeline, and a
    // breakdown that actually partitions the run's wall time.
    assert_eq!(obs.worker_phases.len(), 2);
    assert!(obs.worker_phases.iter().all(|p| !p.windows.is_empty()));
    assert!(!obs.net_phase.windows.is_empty());
    let frac = obs.phase_breakdown();
    let total = frac.busy_frac + frac.stall_frac + frac.net_frac;
    assert!(
        (total - 1.0).abs() < 1e-9,
        "phase fractions must partition the run, got {total}"
    );

    // The Perfetto export carries the spans, instants and counter tracks.
    let json = obs.to_chrome_trace();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"ph\":\"X\""), "window spans must export");
    assert!(json.contains("rate Mbps"), "rate tracks must export");
}

/// Sojourn/drop-state export from inside the schedulers is
/// partition-invariant: each worker folds the exports of the bundles it
/// owns, so the sharded totals match the single-threaded ones.
#[test]
fn sched_obs_travels_with_migrating_bundles() {
    let scenario = HotBundleScenario::builder()
        .sites(4)
        .requests_per_cold_site(8)
        .offered_load_per_cold_site(Rate::from_mbps(6))
        .drain(Duration::from_secs(2))
        .seed(7)
        .obs(ObsLevel::Metrics)
        .build();
    let single = scenario.run();
    let sharded = on_shards(scenario.sim_config(), scenario.workload(), 2);
    let a = &single.sim.obs.as_ref().expect("metrics on").metrics;
    let b = &sharded.sim.obs.as_ref().expect("metrics on").metrics;
    assert!(
        a.hist(HistId::SchedSojournNs).count() > 0,
        "sendboxes must deliver"
    );
    assert_eq!(a, b, "in-scheduler metrics must be shard-count-invariant");
}
