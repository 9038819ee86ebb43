//! Many sites, one edge: run the site agent over 8 simulated remote sites.
//!
//! ```text
//! cargo run --release --example many_sites -- \
//!     [--obs off|metrics|full] [--trace-out PATH] [--shards N] \
//!     [--net-shards K] [--paths P] \
//!     [--faults SEED] [--checkpoint-every MS] [--checkpoint-dir DIR] \
//!     [--crash-at-checkpoint N] [--restore-from FILE]
//! ```
//!
//! Each remote site announces a /24 destination prefix and gets its own
//! bundle: packets are classified to bundles by longest-prefix match, and
//! each of the 8 control loops ticks from its bundle's own control-tick
//! event. At the end the per-bundle telemetry snapshots are printed,
//! together with the aggregate totals the agent derives from them. With
//! `--obs metrics` the run also prints the portable metrics registry
//! (sojourn/slowdown quantiles); with `--obs full --trace-out trace.json`
//! it writes a Chrome trace you can load at <https://ui.perfetto.dev>.
//!
//! The checkpoint flags drive the crash-recovery workflow: `--checkpoint-
//! every 500 --checkpoint-dir ckpts` writes a snapshot file at every 500 ms
//! of simulated time, `--crash-at-checkpoint 2` kills the process right
//! after the second one (exit code 42, simulating a mid-run crash), and
//! `--restore-from ckpts/ckpt_2.bin` resumes. The final `digest:` line is
//! bit-identical between an uninterrupted run and a crashed-and-restored
//! one — that equality is checked in CI. `--faults SEED` injects the
//! deterministic fault plan with that seed (same seed, same digest, any
//! shard count).
//!
//! `--paths P` splits the bottleneck across P imbalanced sub-paths and
//! `--net-shards K` splits the net phase itself across K dedicated net
//! threads (paths partitioned `gid % K`) — the final `digest:` line is
//! bit-identical for every `(--shards, --net-shards)` combination.

use bundler::obs::{CounterId, HistId, ObsLevel};
use bundler::sim::fault::FaultPlan;
use bundler::sim::scenario::many_sites::{ManySitesReport, ManySitesScenario};
use bundler::sim::{SimStats, Simulation};
use bundler::types::Rate;

struct Cli {
    obs: ObsLevel,
    trace_out: Option<String>,
    shards: usize,
    net_shards: usize,
    paths: Option<usize>,
    faults: Option<u64>,
    checkpoint_every_ms: Option<u64>,
    checkpoint_dir: Option<String>,
    crash_at: Option<u64>,
    restore_from: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        obs: ObsLevel::Off,
        trace_out: None,
        shards: 1,
        net_shards: 1,
        paths: None,
        faults: None,
        checkpoint_every_ms: None,
        checkpoint_dir: None,
        crash_at: None,
        restore_from: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| {
        args.next()
            .unwrap_or_else(|| panic!("{flag} takes a value"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--obs" => {
                cli.obs = match args.next().as_deref() {
                    Some("off") => ObsLevel::Off,
                    Some("metrics") => ObsLevel::Metrics,
                    Some("full") => ObsLevel::Full,
                    other => panic!("--obs takes off|metrics|full, got {other:?}"),
                }
            }
            "--trace-out" => cli.trace_out = Some(value(&mut args, "--trace-out")),
            "--shards" => {
                cli.shards = value(&mut args, "--shards")
                    .parse()
                    .expect("--shards takes a count")
            }
            "--net-shards" => {
                cli.net_shards = value(&mut args, "--net-shards")
                    .parse()
                    .expect("--net-shards takes a count")
            }
            "--paths" => {
                cli.paths = Some(
                    value(&mut args, "--paths")
                        .parse()
                        .expect("--paths takes a count"),
                )
            }
            "--faults" => {
                cli.faults = Some(
                    value(&mut args, "--faults")
                        .parse()
                        .expect("--faults takes a seed"),
                )
            }
            "--checkpoint-every" => {
                cli.checkpoint_every_ms = Some(
                    value(&mut args, "--checkpoint-every")
                        .parse()
                        .expect("--checkpoint-every takes milliseconds"),
                )
            }
            "--checkpoint-dir" => cli.checkpoint_dir = Some(value(&mut args, "--checkpoint-dir")),
            "--crash-at-checkpoint" => {
                cli.crash_at = Some(
                    value(&mut args, "--crash-at-checkpoint")
                        .parse()
                        .expect("--crash-at-checkpoint takes a checkpoint number"),
                )
            }
            "--restore-from" => cli.restore_from = Some(value(&mut args, "--restore-from")),
            other => panic!("unknown argument {other:?}"),
        }
    }
    cli
}

fn main() {
    let cli = parse_cli();
    let sites = 8;
    println!("Running {sites} remote sites behind one Bundler site agent...\n");

    let scenario = ManySitesScenario::builder()
        .sites(sites)
        .requests_per_site(80)
        .offered_load_per_site(Rate::from_mbps(6))
        .seed(1)
        .obs(cli.obs)
        .build();
    let mut config = scenario.sim_config();
    let workload = scenario.workload();
    config.shards = cli.shards;
    config.net_shards = cli.net_shards;
    if let Some(paths) = cli.paths {
        // Imbalanced sub-paths (delay spread), so every net shard owns
        // real, distinct work — the matrix tests' configuration.
        config.num_paths = paths;
        config.path_delay_spread = bundler::types::Duration::from_millis(5);
    }
    if let Some(seed) = cli.faults {
        config.faults = Some(FaultPlan::generate(seed, config.duration, config.num_paths));
        println!("faults: plan generated from seed {seed}\n");
    }
    if let Some(ms) = cli.checkpoint_every_ms {
        config.checkpoint_every = Some(bundler::types::Duration::from_millis(ms));
    }

    let sim = match &cli.restore_from {
        Some(path) => {
            let bytes = std::fs::read(path).expect("read snapshot file");
            let sim = Simulation::restore(config, workload, &bytes)
                .unwrap_or_else(|e| panic!("cannot restore {path}: {e}"));
            println!("restored from {path}\n");
            sim
        }
        None => Simulation::new(config, workload),
    };

    let dir = cli.checkpoint_dir.clone();
    if let Some(dir) = &dir {
        std::fs::create_dir_all(dir).expect("create checkpoint dir");
    }
    let crash_at = cli.crash_at;
    let mut taken: u64 = 0;
    let sim_report = sim.run_with_checkpoints(|at, blob| {
        taken += 1;
        if let Some(dir) = &dir {
            let path = format!("{dir}/ckpt_{taken}.bin");
            std::fs::write(&path, &blob).expect("write checkpoint");
            println!(
                "checkpoint {taken} at {at:?} -> {path} ({} bytes)",
                blob.len()
            );
        }
        if crash_at == Some(taken) {
            // Simulated crash: die mid-run, right after persisting the
            // checkpoint — the restore path must pick it up from here.
            println!("crash-at-checkpoint {taken}: exiting now");
            std::process::exit(42);
        }
    });
    let report = ManySitesReport::from_sim(sim_report);

    println!("{}", report.telemetry.to_table());

    let totals = report.totals();
    let stats = report.agent_stats;
    println!(
        "totals: {} packets / {:.1} MB sent, {} congestion ACKs, {} control ticks",
        totals.packets_sent,
        totals.bytes_sent as f64 / 1e6,
        totals.acks_received,
        totals.ticks,
    );
    println!(
        "agent:  {} packets classified ({} missed), {} bundle ticks run",
        stats.packets_classified, stats.packets_unclassified, stats.ticks_run,
    );
    println!(
        "sim:    {} of {} requests completed, median slowdown {:.2}",
        report.sim.completed,
        sites * 80,
        report.sim.median_slowdown().unwrap_or(f64::NAN),
    );
    // Stable across shard counts, checkpoint cadences and crash/restore —
    // CI compares this line between an uninterrupted and a restored run.
    println!(
        "digest: {:#018x}",
        bundler::sim::snapshot::digest(format!("{:?}", SimStats::of(&report.sim)).as_bytes())
    );

    if let Some(obs) = report.sim.obs.as_deref() {
        let m = &obs.metrics;
        let sojourn = m.hist(HistId::SendboxSojournNs);
        let slowdown = m.hist(HistId::FctSlowdownMilli);
        println!(
            "\nobs:    {} enqueued / {} dropped, sendbox sojourn p50 {:.2} ms p99 {:.2} ms",
            m.counter(CounterId::SendboxEnqueued),
            m.counter(CounterId::SendboxDropped),
            sojourn.quantile(0.5).unwrap_or(0) as f64 / 1e6,
            sojourn.quantile(0.99).unwrap_or(0) as f64 / 1e6,
        );
        println!(
            "obs:    {} control ticks, {} mode changes, FCT slowdown p50 {:.2}x p99 {:.2}x",
            m.counter(CounterId::ControlTicks),
            m.counter(CounterId::ModeChanges),
            slowdown.quantile(0.5).unwrap_or(0) as f64 / 1e3,
            slowdown.quantile(0.99).unwrap_or(0) as f64 / 1e3,
        );
        if let Some(path) = &cli.trace_out {
            std::fs::write(path, obs.to_chrome_trace()).expect("write trace");
            println!(
                "obs:    {} trace records written to {path} (load at ui.perfetto.dev)",
                obs.trace.len()
            );
        }
    } else if cli.trace_out.is_some() {
        eprintln!("--trace-out needs --obs full (no trace was recorded)");
        std::process::exit(2);
    }

    if cli.restore_from.is_none() && cli.faults.is_none() {
        assert!(
            report.all_bundles_active(),
            "every bundle should have an active control loop"
        );
        println!("\nEvery bundle formed its own RTT estimate and pacing rate — one agent, {sites} control loops.");
    }
}
