//! Metro-scale background load: the fluid cross-traffic tier A/B'd
//! against the packet tier it abstracts.
//!
//! ```text
//! cargo run --release --example metro -- \
//!     [--sites N] [--users N] [--fluid-multiplier X] [--seed S] \
//!     [--flow-trace] [--stream-out PATH]
//! ```
//!
//! `--flow-trace` runs one extra traced pass (every flow sampled) and
//! prints the flow-level queue-shift summary — the share of queueing
//! delay at the shared bottleneck, early vs. late completions.
//! `--stream-out PATH` additionally streams the trace to `PATH` as JSONL
//! (implies `--flow-trace`); read it back with
//! `cargo run -p bundler-bench --bin obs_query -- PATH`.
//!
//! The foreground is the paper's machinery unchanged — one bundle per
//! site, heavy-tailed request workloads — but the *background* (the metro
//! user population sharing the uplink) runs twice: once with every user as
//! a packet-level backlogged TCP flow, and once with the same per-site
//! population collapsed into fluid rate aggregates
//! (`CrossTrafficTier::Fluid`), scaled `--fluid-multiplier` times larger.
//! The fluid tier's cost is O(aggregates), independent of the user count,
//! so it carries a 100x population at a fraction of the wall time; the
//! example asserts the closing ratio, and CI runs it ("Metro tier smoke").

use std::time::Instant;

use bundler::sim::fluid::CrossTrafficTier;
use bundler::sim::scenario::metro::{MetroReport, MetroScenario};
use bundler::types::{Duration, Rate};

struct Cli {
    sites: usize,
    users: usize,
    fluid_multiplier: usize,
    seed: u64,
    flow_trace: bool,
    stream_out: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        sites: 6,
        users: 25,
        fluid_multiplier: 100,
        seed: 1,
        flow_trace: false,
        stream_out: None,
    };
    let mut args = std::env::args().skip(1);
    let value = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next()
            .unwrap_or_else(|| panic!("{flag} takes a value"))
            .parse()
            .unwrap_or_else(|_| panic!("{flag} takes a number"))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sites" => cli.sites = value(&mut args, "--sites") as usize,
            "--users" => cli.users = value(&mut args, "--users") as usize,
            "--fluid-multiplier" => {
                cli.fluid_multiplier = value(&mut args, "--fluid-multiplier") as usize
            }
            "--seed" => cli.seed = value(&mut args, "--seed"),
            "--flow-trace" => cli.flow_trace = true,
            "--stream-out" => {
                cli.flow_trace = true;
                cli.stream_out = Some(args.next().expect("--stream-out takes a path"));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }
    cli
}

/// The `--flow-trace` pass: the packet-tier scenario re-runs at
/// `ObsLevel::Full` with every flow sampled, either streaming the trace
/// to `--stream-out` (and reading it back — the full export round trip)
/// or decomposing the in-memory trace directly.
fn traced_pass(cli: &Cli) {
    use bundler::obs::{decompose, stream, FlowTrace, ObsLevel};
    let scenario = MetroScenario::builder()
        .sites(cli.sites)
        .users_per_site(cli.users)
        .requests_per_site(25)
        .bottleneck(Rate::from_mbps((16 * cli.sites) as u64))
        .drain(Duration::from_secs(3))
        .seed(cli.seed)
        .obs(ObsLevel::Full)
        .build();
    let mut config = scenario.sim_config();
    config.flow_trace = Some(FlowTrace::all(cli.seed));
    if let Some(path) = &cli.stream_out {
        config.stream =
            Some(stream::StreamSink::to_path(std::path::Path::new(path)).expect("open stream-out"));
    }
    let report = bundler::sim::Simulation::new(config, scenario.workload()).run();
    let obs = report.obs.expect("obs=full carries a report");
    let decomp = match &cli.stream_out {
        // Streamed: the in-memory trace stays empty by design; read the
        // export back through the same parser obs_query uses.
        Some(path) => {
            let text = std::fs::read_to_string(path).expect("read stream-out");
            let mut recs: Vec<_> = text.lines().filter_map(stream::parse_line).collect();
            stream::sort_canonical(&mut recs);
            decompose(&recs.iter().map(|r| r.rec).collect::<Vec<_>>())
        }
        None => obs.flow_decompositions(),
    };
    assert!(!decomp.is_empty(), "sampled flows must complete");
    let mut by_end = decomp.clone();
    by_end.sort_by_key(|d| (d.end_at, d.flow));
    let share = |half: &[bundler::obs::FlowDecomp]| {
        half.iter().map(|d| d.bottleneck_share()).sum::<f64>() / half.len().max(1) as f64
    };
    let (early, late) = by_end.split_at(by_end.len() / 2);
    println!(
        "\nflow trace: {} sampled flows | bottleneck share of queueing delay: \
         {:.1}% (early half) -> {:.1}% (late half)",
        decomp.len(),
        share(early) * 100.0,
        share(late) * 100.0,
    );
    if let Some(path) = &cli.stream_out {
        println!(
            "flow trace: streamed to {path} — inspect with \
             `cargo run -p bundler-bench --bin obs_query -- {path}`"
        );
    }
}

fn run_tier(cli: &Cli, tier: CrossTrafficTier, users_per_site: usize) -> (MetroReport, f64) {
    let scenario = MetroScenario::builder()
        .sites(cli.sites)
        .users_per_site(users_per_site)
        .requests_per_site(25)
        .bottleneck(Rate::from_mbps((16 * cli.sites) as u64))
        .drain(Duration::from_secs(3))
        .tier(tier)
        .seed(cli.seed)
        .build();
    let start = Instant::now();
    let report = scenario.run();
    (report, start.elapsed().as_secs_f64().max(1e-9))
}

fn main() {
    let cli = parse_cli();
    println!(
        "Metro uplink, {} bundled sites; background population packet- vs fluid-tier...\n",
        cli.sites
    );

    let (packet, packet_wall) = run_tier(&cli, CrossTrafficTier::Packet, cli.users);
    let (fluid, fluid_wall) = run_tier(
        &cli,
        CrossTrafficTier::Fluid,
        cli.users * cli.fluid_multiplier,
    );

    for (report, wall) in [(&packet, packet_wall), (&fluid, fluid_wall)] {
        let label = match report.tier {
            CrossTrafficTier::Packet => "packet",
            CrossTrafficTier::Fluid => "fluid ",
        };
        println!(
            "{label}: {:>7} background users | {:>9} events | wall {:>7.0} ms | \
             {:>5} requests done | mean bottleneck delay {:.2} ms",
            report.background_users,
            report.sim.events_processed,
            wall * 1e3,
            report.sim.completed,
            report
                .sim
                .bottleneck_queue_delay_ms
                .mean_between(bundler::types::Nanos::ZERO, bundler::types::Nanos::MAX)
                .unwrap_or(0.0),
        );
    }

    // The PR 8 headline: background users carried per wall-clock second,
    // fluid over packet. The fluid tier's event cost does not grow with
    // the population, so this scales with --fluid-multiplier.
    let load_ratio = (fluid.background_users as f64 / fluid_wall)
        / (packet.background_users as f64 / packet_wall);
    let wall_ratio = fluid_wall / packet_wall;
    println!(
        "\nfluid tier: {:.0}x the background load per wall-second \
         ({:.2}x the wall time for {}x the users)",
        load_ratio, wall_ratio, cli.fluid_multiplier,
    );
    assert!(
        packet.sim.completed > 0 && fluid.sim.completed > 0,
        "both tiers must complete foreground work"
    );
    assert!(
        load_ratio >= 10.0,
        "fluid tier must carry >=10x the load per wall-second, got {load_ratio:.1}x"
    );

    if cli.flow_trace {
        traced_pass(&cli);
    }
}
