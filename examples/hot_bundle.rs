//! Skewed load across bundles on the sharded runtime.
//!
//! ```text
//! cargo run --release --example hot_bundle -- [--obs off|metrics|full] [--trace-out PATH]
//! ```
//!
//! One remote site receives as many flows as all the others combined —
//! the heavy-tailed site-pair load a deployed Bundler edge actually sees.
//! The example runs the same simulation single-threaded and on 2 worker
//! shards with the round-robin placement, which keeps each bundle on its
//! shard for the whole run. Both produce **bit-identical** results; the
//! hot bundle's shard simply handles more of the events, and the example
//! prints each shard's share. See ARCHITECTURE.md ("Placement") for why
//! placement cannot change the simulation.
//!
//! With `--obs full --trace-out trace.json` the 2-shard run writes its
//! Chrome trace — per-shard window spans, net phases, per-bundle rate
//! tracks — for <https://ui.perfetto.dev>.

use std::time::Instant;

use bundler::obs::ObsLevel;
use bundler::shard::scenario::run_hot_bundle;
use bundler::sim::scenario::hot_bundle::HotBundleScenario;
use bundler::sim::SimStats;
use bundler::types::{Duration, Rate};

/// Parses `--obs {off,metrics,full}` and `--trace-out PATH` from `args`.
fn obs_args() -> (ObsLevel, Option<String>) {
    let mut level = ObsLevel::Off;
    let mut trace_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => {
                level = match args.next().as_deref() {
                    Some("off") => ObsLevel::Off,
                    Some("metrics") => ObsLevel::Metrics,
                    Some("full") => ObsLevel::Full,
                    other => panic!("--obs takes off|metrics|full, got {other:?}"),
                }
            }
            "--trace-out" => trace_out = Some(args.next().expect("--trace-out takes a path")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    (level, trace_out)
}

fn build(obs: ObsLevel) -> HotBundleScenario {
    HotBundleScenario::builder()
        .sites(8)
        .requests_per_cold_site(60)
        .offered_load_per_cold_site(Rate::from_mbps(6))
        .bottleneck(Rate::from_mbps(96))
        .drain(Duration::from_secs(6))
        .seed(7)
        .obs(obs)
        .build()
}

fn main() {
    let (obs_level, trace_out) = obs_args();
    if trace_out.is_some() && obs_level != ObsLevel::Full {
        eprintln!("--trace-out needs --obs full (no trace is recorded below it)");
        std::process::exit(2);
    }
    let scenario = build(ObsLevel::Off);
    println!(
        "hot bundle carries {:.0}% of {} flows across 8 sites\n",
        scenario.hot_flow_share() * 100.0,
        scenario.workload().len(),
    );

    let start = Instant::now();
    let single = scenario.run();
    let single_wall = start.elapsed();
    println!(
        "{:>22}: {single_wall:>8.1?} wall, {:>9.0} events/sec",
        "single-threaded",
        single.sim.events_processed as f64 / single_wall.as_secs_f64()
    );

    // The per-shard event counts come from the phase profile, so the
    // sharded run records at least metrics; no level changes a digest.
    let sharded_obs = obs_level.max(ObsLevel::Metrics);
    let start = Instant::now();
    let sharded = run_hot_bundle(&build(sharded_obs), 2);
    let wall = start.elapsed();
    assert_eq!(
        SimStats::of(&single.sim),
        SimStats::of(&sharded.sim),
        "2 shards diverged from the single-threaded engine"
    );
    println!(
        "{:>22}: {wall:>8.1?} wall, {:>9.0} events/sec (bit-identical ✓)",
        "2 shards, round-robin",
        sharded.sim.events_processed as f64 / wall.as_secs_f64()
    );

    // Where the events happened: the hot bundle's shard handles more.
    let obs = sharded.sim.obs.as_deref().expect("metrics on");
    let per_shard: Vec<u64> = obs
        .worker_phases
        .iter()
        .map(|p| p.windows.iter().map(|w| w.events).sum())
        .collect();
    let total: u64 = per_shard.iter().sum();
    println!("\nworker events per shard (bundle 0, the hot one, is on shard 0):");
    for (p, events) in obs.worker_phases.iter().zip(&per_shard) {
        println!(
            "  shard {}  {:>9} events  {:>5.1}%",
            p.shard,
            events,
            100.0 * *events as f64 / total.max(1) as f64
        );
    }
    let frac = obs.phase_breakdown();
    println!(
        "phases: {} windows, {:.0}% busy / {:.0}% stall / {:.0}% net",
        obs.host.windows,
        frac.busy_frac * 100.0,
        frac.stall_frac * 100.0,
        frac.net_frac * 100.0,
    );

    if let Some(path) = &trace_out {
        std::fs::write(path, obs.to_chrome_trace()).expect("write trace");
        println!(
            "{} trace records written to {path} (load at ui.perfetto.dev)",
            obs.trace.len()
        );
    }
}
