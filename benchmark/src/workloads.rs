//! The five workloads: which worlds they simulate and how one world is
//! generated, run, reduced and verified.
//!
//! A workload is a fixed *suite* of worlds — closed batch jobs, "simulate
//! this world to completion" — built by the repository's scenario builders
//! from builder seeds `1..=worlds`. The program under test receives only the
//! generated `(SimulationConfig, Vec<FlowSpec>)`.

use std::time::Instant;

use bundler_agent::AgentStats;
use bundler_core::fnv::Fnv1a;
use bundler_core::SendboxStats;
use bundler_obs::stream::{SharedBuf, StreamSink};
use bundler_obs::{FlowTrace, ObsLevel, ObsReport};
use bundler_shard::ShardedSimulation;
use bundler_sim::edge::BundleMode;
use bundler_sim::fluid::CrossTrafficTier;
use bundler_sim::scenario::fct::{FctScenario, SendboxMode};
use bundler_sim::scenario::hot_bundle::HotBundleScenario;
use bundler_sim::scenario::metro::MetroScenario;
use bundler_sim::sim::{ShardBalance, Simulation, SimulationConfig};
use bundler_sim::workload::FlowSpec;
use bundler_sim::SimStats;
use bundler_types::{Duration, Nanos, Rate};

use crate::spans::{SpanId, Spans};
use crate::spec;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FctSfq,
    FctQuo,
    HotSolo,
    HotSharded,
    MetroCkpt,
}

/// World sizes. No command-line option selects one: the sizes are part of
/// the benchmark's definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The suite of small worlds every end-to-end metric is measured on.
    Suite,
    /// One seconds-long world of hundreds of MB per workload, at the sizes
    /// ISSUE 12 fixed (500 000 requests; 48 sites × 3 000; 12 sites × 5 000):
    /// the regime where per-flow state outgrows the caches. Too slow and too
    /// noisy on the build host to gate (README.md, "Why a fixed suite"), so
    /// the traced pass runs it once and reports the `large.*` rows.
    Large,
    /// Tiny worlds, so the unit tests can run every workload through every
    /// verification in a debug build.
    #[cfg(test)]
    Smoke,
}

impl Size {
    /// The size of the traced pass's large world.
    pub fn large(self) -> Size {
        match self {
            #[cfg(test)]
            Size::Smoke => Size::Smoke,
            _ => Size::Large,
        }
    }
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::FctSfq,
        Workload::FctQuo,
        Workload::HotSolo,
        Workload::HotSharded,
        Workload::MetroCkpt,
    ];

    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].name
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worlds in the suite, sized so one pass over the suite takes well
    /// under a second on the build host (see README.md, "Host noise").
    pub fn worlds(self, size: Size) -> usize {
        match (size, self) {
            (Size::Suite, Workload::FctSfq | Workload::FctQuo) => 4,
            (Size::Suite, _) => 3,
            (Size::Large, _) => 1,
            #[cfg(test)]
            (Size::Smoke, _) => 2,
        }
    }

    /// Threads that are runnable while the timed region executes.
    pub fn threads(self) -> usize {
        match self {
            // Two worker shards plus the driver thread running the net phase.
            Workload::HotSharded => 3,
            _ => 1,
        }
    }
}

/// Observability and checkpointing switches of a world. The workloads fix
/// them; the traced pass of `metro_ckpt` re-runs its worlds with one switch
/// at a time to price each feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    pub obs: ObsLevel,
    /// Flow tracing of every flow, streamed to an in-memory sink.
    pub trace_stream: bool,
    pub checkpoints: bool,
}

impl Features {
    pub const OFF: Features = Features {
        obs: ObsLevel::Off,
        trace_stream: false,
        checkpoints: false,
    };

    pub fn of(workload: Workload) -> Features {
        match workload {
            Workload::MetroCkpt => Features {
                obs: ObsLevel::Full,
                trace_stream: true,
                checkpoints: true,
            },
            _ => Features::OFF,
        }
    }
}

/// One generated world: the input the program receives.
pub struct World {
    pub cfg: SimulationConfig,
    pub flows: Vec<FlowSpec>,
    /// The in-memory end of the streaming sink, when the world streams.
    pub stream: Option<SharedBuf>,
}

/// Generates world `index` of a workload's suite.
pub fn generate(workload: Workload, size: Size, index: usize, features: Features) -> World {
    let seed = index as u64 + 1;
    // One value per size: (suite, large, smoke).
    let pick = |suite: usize, large: usize, _smoke: usize| match size {
        Size::Suite => suite,
        Size::Large => large,
        #[cfg(test)]
        Size::Smoke => _smoke,
    };
    let (mut cfg, flows) = match workload {
        Workload::FctSfq | Workload::FctQuo => {
            let sc = FctScenario::builder()
                .requests(pick(30_000, 500_000, 300))
                .seed(seed)
                .mode(if workload == Workload::FctSfq {
                    SendboxMode::BundlerSfq
                } else {
                    SendboxMode::StatusQuo
                })
                .build();
            (sc.sim_config(), sc.workload())
        }
        Workload::HotSolo | Workload::HotSharded => {
            let sites = pick(48, 48, 6);
            let sc = HotBundleScenario::builder()
                .sites(sites)
                .requests_per_cold_site(pick(100, 3_000, 12))
                .offered_load_per_cold_site(Rate::from_mbps(6))
                .bottleneck(Rate::from_mbps(12 * sites as u64))
                .drain(Duration::from_secs(pick(2, 8, 1) as u64))
                .seed(seed)
                .build();
            let mut cfg = sc.sim_config();
            if workload == Workload::HotSharded {
                cfg.shards = 2;
                cfg.balance = ShardBalance::Rate;
                cfg.net_shards = 1;
                cfg.wire_envelopes = false;
            }
            (cfg, sc.workload())
        }
        Workload::MetroCkpt => {
            let sites = pick(12, 12, 3);
            let sc = MetroScenario::builder()
                .sites(sites)
                .requests_per_site(pick(250, 5_000, 30))
                .tier(CrossTrafficTier::Fluid)
                .users_per_site(12)
                .bottleneck(Rate::from_mbps(16 * sites as u64))
                .drain(Duration::from_secs(pick(3, 4, 2) as u64))
                .seed(seed)
                .build();
            (sc.sim_config(), sc.workload())
        }
    };
    cfg.obs = features.obs;
    let mut stream = None;
    if features.trace_stream {
        cfg.flow_trace = Some(FlowTrace::all(seed));
        let (sink, buf) = StreamSink::to_shared_vec();
        cfg.stream = Some(sink);
        stream = Some(buf);
    }
    if features.checkpoints {
        // Simulated time between checkpoints.
        cfg.checkpoint_every = Some(Duration::from_millis(pick(500, 2_000, 500) as u64));
    }
    World { cfg, flows, stream }
}

/// Host seconds of each public call the benchmark made for one job. Calls a
/// workload never makes read 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub gen_s: f64,
    pub new_s: f64,
    pub run_s: f64,
    pub restore_s: f64,
    pub replay_s: f64,
    pub analyze_s: f64,
    pub reduce_s: f64,
}

impl Phases {
    /// Set-up: generating the world and constructing the simulation.
    pub fn setup_s(&self) -> f64 {
        self.gen_s + self.new_s
    }

    /// The timed region: `run()`, and for `metro_ckpt` the whole recovery
    /// pipeline (run with checkpoints, restore, replay, analyze).
    pub fn wall_s(&self) -> f64 {
        self.run_s + self.restore_s + self.replay_s + self.analyze_s
    }
}

/// What the checkpoint/stream pipeline of `metro_ckpt` produced.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PipelineCounts {
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub restored_bytes: u64,
    pub stream_bytes: u64,
    pub stream_records: u64,
    pub ring_dropped: u64,
    pub analyzed_flows: u64,
}

/// Everything one job returned, reduced: exact counts, the slowdowns for the
/// pooled percentiles, the digest, and the verification failures.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub requests: u64,
    pub completed: u64,
    pub unfinished: u64,
    pub events: u64,
    pub packets: u64,
    pub recycled: u64,
    pub drops: u64,
    pub bytes_delivered: u64,
    pub slowdowns: Vec<f64>,
    /// 64-bit FNV-1a of the run's `SimStats`.
    pub digest: u64,
    pub agent: Option<AgentStats>,
    pub sendbox: Option<SendboxStats>,
    pub pipeline: PipelineCounts,
    /// Allocator calls and bytes inside `run()`, counted in traced jobs only.
    pub alloc_calls: u64,
    pub alloc_bytes: u64,
    /// Fluid integration steps the world's duration implies (the program
    /// counts them only with metrics on).
    pub fluid_steps: u64,
    /// Control ticks the duration implies for classic single-bundle
    /// sendboxes, whose counters the report does not carry.
    pub classic_ticks: u64,
    /// The sharded host's own profile, when the run recorded one.
    pub obs: Option<Box<ObsReport>>,
    pub failures: Vec<String>,
}

pub struct Job {
    pub phases: Phases,
    pub outcome: Outcome,
}

/// Where a traced job hangs its spans.
pub struct SpanCtx<'a> {
    pub spans: &'a mut Spans,
    pub trace: u64,
    pub parent: SpanId,
}

/// Generates world `index` and runs it: one whole job, set-up included.
pub fn run_job(
    workload: Workload,
    size: Size,
    index: usize,
    features: Features,
    mut ctx: Option<SpanCtx<'_>>,
) -> Job {
    let start = Instant::now();
    let world = generate(workload, size, index, features);
    let end = Instant::now();
    if let Some(c) = ctx.as_mut() {
        c.spans.record("gen", c.trace, Some(c.parent), start, end);
    }
    let mut job = run_world(workload, size, world, ctx);
    job.phases.gen_s = (end - start).as_secs_f64();
    job
}

/// Constructs, runs, reduces and verifies one generated world.
fn run_world(workload: Workload, size: Size, world: World, mut ctx: Option<SpanCtx<'_>>) -> Job {
    let mut phases = Phases::default();
    let traced = ctx.is_some();
    let checkpoints = world.cfg.checkpoint_every.is_some();
    let mut allocs = (0, 0);
    let mut span = |name: &str, start: Instant, end: Instant| {
        if let Some(c) = ctx.as_mut() {
            c.spans.record(name, c.trace, Some(c.parent), start, end);
        }
        (end - start).as_secs_f64()
    };

    let requests = world
        .flows
        .iter()
        .filter(|f| !f.is_backlogged() && !f.is_ping)
        .count() as u64;
    // The restore leg needs its own copy of the input (the API takes both by
    // value); it is made here so the copy is not charged to the pipeline.
    let restore_input = checkpoints.then(|| {
        let mut cfg = world.cfg.clone();
        cfg.obs = ObsLevel::Off;
        cfg.flow_trace = None;
        cfg.stream = None;
        (cfg, world.flows.clone())
    });
    let duration = world.cfg.duration.as_nanos();
    let fluid_steps = world.cfg.cross_traffic.as_ref().map_or(0, |c| {
        duration / c.update_interval.as_nanos().max(1) * world.cfg.num_paths.max(1) as u64
    });
    let classic_ticks = if world.cfg.multi_bundle.is_some() {
        0
    } else {
        world
            .cfg
            .bundles
            .iter()
            .map(|b| match b {
                BundleMode::Bundler(c) => duration / c.control_interval.as_nanos().max(1),
                BundleMode::StatusQuo => 0,
            })
            .sum()
    };
    let half = Nanos::ZERO + world.cfg.duration.mul_f64(0.5);

    let mut pipeline = PipelineCounts::default();
    let mut failures = Vec::new();
    let report = if workload == Workload::HotSharded {
        let t = Instant::now();
        let sim = ShardedSimulation::new(world.cfg, world.flows);
        phases.new_s = span("new", t, Instant::now());
        let t = Instant::now();
        let report = counted(traced, &mut allocs, || sim.run());
        phases.run_s = span("run", t, Instant::now());
        report
    } else {
        let t = Instant::now();
        let sim = Simulation::new(world.cfg, world.flows);
        phases.new_s = span("new", t, Instant::now());
        let t = Instant::now();
        let report = if checkpoints {
            // Keep the first checkpoint at or after half the run; count the
            // bytes of the rest.
            let mut kept: Option<Vec<u8>> = None;
            let report = counted(traced, &mut allocs, || {
                sim.run_with_checkpoints(|at, blob| {
                    pipeline.checkpoints += 1;
                    pipeline.checkpoint_bytes += blob.len() as u64;
                    if kept.is_none() && at >= half {
                        kept = Some(blob);
                    }
                })
            });
            phases.run_s = span("run", t, Instant::now());
            match (kept, restore_input) {
                (Some(blob), Some((cfg, flows))) => {
                    pipeline.restored_bytes = blob.len() as u64;
                    let t = Instant::now();
                    let restored = Simulation::restore(cfg, flows, &blob);
                    phases.restore_s = span("restore", t, Instant::now());
                    match restored {
                        Ok(sim) => {
                            let t = Instant::now();
                            let replayed = sim.run();
                            phases.replay_s = span("replay", t, Instant::now());
                            if SimStats::of(&replayed) != SimStats::of(&report) {
                                failures.push(
                                    "restored-and-replayed SimStats differ from the uninterrupted run's"
                                        .to_string(),
                                );
                            }
                        }
                        Err(e) => failures.push(format!("restore failed: {e}")),
                    }
                }
                _ => failures.push("no checkpoint at or after half the run".to_string()),
            }
            report
        } else {
            let report = counted(traced, &mut allocs, || sim.run());
            phases.run_s = span("run", t, Instant::now());
            report
        };
        report
    };
    if let Some(obs) = &report.obs {
        pipeline.ring_dropped = obs.trace_dropped;
        // The trace ring holds 65 536 records between two flushes and drops
        // the rest. The suite's worlds stay far below that. The large metro
        // world does not: at one simulated instant (41.58 s) one bundle's
        // scheduler emits a burst of drop records that alone fills the ring,
        // and 1.1 M records are lost whatever the flush interval. There the
        // loss is reported (`large.ring_dropped`), not failed.
        if pipeline.ring_dropped != 0 && size != Size::Large {
            failures.push(format!("{} trace records dropped", pipeline.ring_dropped));
        }
    }
    if let Some(buf) = &world.stream {
        let t = Instant::now();
        let text = buf.contents();
        let analysis = bundler_bench::query::analyze(&text);
        phases.analyze_s = span("analyze", t, Instant::now());
        pipeline.stream_bytes = text.len() as u64;
        pipeline.stream_records = analysis.records.len() as u64;
        pipeline.analyzed_flows = analysis.decomp.len() as u64;
        // Every flow is sampled, so a complete stream shows the reducer each
        // completed one.
        if pipeline.ring_dropped == 0 && pipeline.analyzed_flows != report.completed as u64 {
            failures.push(format!(
                "analyze found {} completed flows, the run completed {}",
                pipeline.analyzed_flows, report.completed
            ));
        }
    }

    let t = Instant::now();
    let stats = SimStats::of(&report);
    let digest = digest(&stats);
    phases.reduce_s = span("reduce", t, Instant::now());
    if (report.completed + report.unfinished) as u64 != requests {
        failures.push(format!(
            "completed {} + unfinished {} != requests {requests}",
            report.completed, report.unfinished
        ));
    }
    Job {
        phases,
        outcome: Outcome {
            requests,
            completed: report.completed as u64,
            unfinished: report.unfinished as u64,
            events: report.events_processed,
            packets: report.packets_created,
            recycled: report.packets_recycled,
            drops: report.bottleneck_drops,
            bytes_delivered: report.bytes_delivered,
            slowdowns: report.slowdowns(),
            digest,
            agent: report.agent_stats,
            sendbox: report.agent_telemetry.as_ref().map(|t| t.totals()),
            pipeline,
            alloc_calls: allocs.0,
            alloc_bytes: allocs.1,
            fluid_steps,
            classic_ticks,
            obs: report.obs,
            failures,
        },
    }
}

/// Runs `f`, adding the allocator traffic it caused to `allocs` when `on`.
fn counted<T>(on: bool, allocs: &mut (u64, u64), f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let (out, calls, bytes) = crate::alloc::counted(f);
    allocs.0 += calls;
    allocs.1 += bytes;
    out
}

/// 64-bit FNV-1a over every field of a run's `SimStats`. Floats enter by
/// their bit patterns; the small nested records (telemetry, agent counters,
/// mode timelines) by their `Debug` text, which is deterministic.
pub fn digest(stats: &SimStats) -> u64 {
    let mut h = Fnv1a::new();
    let mut u = |v: u64| {
        h.write(&v.to_le_bytes());
    };
    for v in [
        stats.completed as u64,
        stats.unfinished as u64,
        stats.events_processed,
        stats.packets_created,
        stats.bottleneck_drops,
        stats.bytes_delivered,
        stats.fcts.len() as u64,
    ] {
        u(v);
    }
    for &(size, start, fct, bundle) in &stats.fcts {
        u(size);
        u(start);
        u(fct);
        u(bundle.map_or(u64::MAX, |b| b as u64));
    }
    let series = |s: &[(Nanos, f64)], u: &mut dyn FnMut(u64)| {
        u(s.len() as u64);
        for &(at, v) in s {
            u(at.as_nanos());
            u(v.to_bits());
        }
    };
    for rtts in &stats.ping_rtts_ms {
        u(rtts.len() as u64);
        for v in rtts {
            u(v.to_bits());
        }
    }
    series(&stats.bottleneck_queue_delay, &mut u);
    series(&stats.actual_rtt, &mut u);
    series(&stats.cross_throughput, &mut u);
    for bundle in &stats.bundle_series {
        for s in bundle {
            series(s, &mut u);
        }
    }
    for v in &stats.out_of_order_fraction {
        u(v.to_bits());
    }
    let rest = format!(
        "{:?}{:?}{:?}{:?}",
        stats.mode_timeline, stats.telemetry, stats.agent_stats, stats.telemetry_totals
    );
    h.write(rest.as_bytes());
    h.finish()
}
