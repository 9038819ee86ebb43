//! The traced pass: per-layer metrics for one workload.
//!
//! Everything here is measured from outside the program: spans the
//! benchmark records around its own calls, exact counters the program
//! already returns, differential legs that switch one feature on at a time,
//! layer kernels, and the ledger that multiplies kernel cost by exact
//! operation counts. End-to-end metrics are never taken from this pass; an
//! untraced reference measured first gives `trace.overhead`.

use std::time::Instant;

use bundler_obs::ObsLevel;

use crate::kernels::{self, Shape};
use crate::measure::{self, visit_order, SuiteRun};
use crate::spans::Spans;
use crate::spec;
use crate::workloads::{self, Features, Job, Outcome, Phases, Size, SpanCtx, Workload};

pub struct Traced {
    /// Every per-layer metric, in `spec::PER_LAYER` order.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Share of the workload's root span its world spans cover, and the
    /// smallest share of a world span its call spans cover.
    pub coverage: (f64, f64),
}

/// Rounds of the traced pass; span metrics take each world's fastest round.
const TRACED_ROUNDS: usize = 5;

/// Jobs attempted and failed so far in a traced pass, with the reasons.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Tally {
    fn add_run(&mut self, run: &SuiteRun) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.failures.extend(run.failures.iter().cloned());
    }

    fn add_job(&mut self, label: &str, failures: Vec<String>) {
        self.attempted += 1;
        self.failed += u64::from(!failures.is_empty());
        self.failures
            .extend(failures.into_iter().map(|f| format!("{label}: {f}")));
    }
}

/// Runs the traced pass of `workload`: roughly 2 × `seconds` plus the one
/// large world.
pub fn trace(workload: Workload, size: Size, seed: u64, seconds: f64, spans: &mut Spans) -> Traced {
    let worlds = workload.worlds(size);
    let reference = measure::measure(workload, size, seed, seconds * 0.25);
    let mut tally = Tally::default();
    tally.add_run(&reference);

    // The sharded host's phase profiler and host counters only exist with
    // metrics on, so its traced pass (and only its) turns them on.
    let features = match workload {
        Workload::HotSharded => Features {
            obs: ObsLevel::Metrics,
            ..Features::OFF
        },
        w => Features::of(w),
    };
    let trace_id = workload as u64 + 1;
    let order = visit_order(worlds, seed);
    let mut fastest: Vec<Option<Job>> = (0..worlds).map(|_| None).collect();
    let root_start = Instant::now();
    let root = spans.record(
        &format!("workload:{}", workload.name()),
        trace_id,
        None,
        root_start,
        root_start,
    );
    let mut world_coverage = f64::INFINITY;
    for round in 0..TRACED_ROUNDS {
        for &index in &order {
            let start = Instant::now();
            let world = spans.record(
                &format!("world:{index}#{round}"),
                trace_id,
                Some(root),
                start,
                start,
            );
            let job = workloads::run_job(
                workload,
                size,
                index,
                features,
                Some(SpanCtx {
                    spans,
                    trace: trace_id,
                    parent: world,
                }),
            );
            spans.close(world, Instant::now());
            world_coverage =
                world_coverage.min(1.0 - spans.self_secs(world) / spans.get(world).secs());
            let mut bad = job.outcome.failures.clone();
            if job.outcome.digest != reference.outcomes[index].digest {
                bad.push("traced digest differs from the untraced reference's".to_string());
            }
            tally.add_job(&format!("{} world {index} (traced)", workload.name()), bad);
            let slot = &mut fastest[index];
            if slot
                .as_ref()
                .is_none_or(|best| job.phases.wall_s() < best.phases.wall_s())
            {
                *slot = Some(job);
            }
        }
    }
    spans.close(root, Instant::now());
    let root_coverage = 1.0 - spans.self_secs(root) / spans.get(root).secs();
    let jobs: Vec<Job> = fastest.into_iter().flatten().collect();

    let mut m = Metrics::default();
    let phase = |f: fn(&Phases) -> f64| jobs.iter().map(|j| f(&j.phases)).sum::<f64>();
    let run_s = phase(|p| p.run_s);
    m.set("span.gen_s", phase(|p| p.gen_s));
    m.set("span.new_s", phase(|p| p.new_s));
    m.set("span.run_s", run_s);
    m.set("span.reduce_s", phase(|p| p.reduce_s));
    m.set("span.restore_s", phase(|p| p.restore_s));
    m.set("span.replay_s", phase(|p| p.replay_s));
    m.set("span.analyze_s", phase(|p| p.analyze_s));
    m.set("trace.overhead", phase(Phases::wall_s) / reference.wall_s());

    let sum = |f: fn(&Outcome) -> u64| jobs.iter().map(|j| f(&j.outcome)).sum::<u64>() as f64;
    let events = sum(|o| o.events);
    let packets = sum(|o| o.packets);
    m.set("sim.events", events);
    m.set("sim.pkts_created", packets);
    m.set("sim.pkts_recycled", sum(|o| o.recycled));
    m.set("sim.bottleneck_drops", sum(|o| o.drops));
    m.set("sim.bytes_delivered", sum(|o| o.bytes_delivered));
    m.set("sim.completed", sum(|o| o.completed));
    m.set("sim.unfinished", sum(|o| o.unfinished));
    let classified = sum(|o| o.agent.map_or(0, |a| a.packets_classified));
    let agent_ticks = sum(|o| o.agent.map_or(0, |a| a.ticks_run));
    m.set("agent.pkts_classified", classified);
    m.set(
        "agent.acks_delivered",
        sum(|o| o.agent.map_or(0, |a| a.acks_delivered)),
    );
    m.set("agent.ticks_run", agent_ticks);
    m.set("agent.advances", sum(|o| o.agent.map_or(0, |a| a.advances)));
    m.set(
        "core.sendbox.pkts_sent",
        sum(|o| o.sendbox.map_or(0, |s| s.packets_sent)),
    );
    m.set(
        "core.sendbox.boundaries",
        sum(|o| o.sendbox.map_or(0, |s| s.boundaries)),
    );
    m.set(
        "core.sendbox.acks_received",
        sum(|o| o.sendbox.map_or(0, |s| s.acks_received)),
    );
    m.set(
        "core.sendbox.ticks",
        sum(|o| o.sendbox.map_or(0, |s| s.ticks)),
    );
    m.set(
        "core.sendbox.feedback_timeouts",
        sum(|o| o.sendbox.map_or(0, |s| s.feedback_timeouts)),
    );
    m.set(
        "host.alloc_per_kevent",
        sum(|o| o.alloc_calls) / (events / 1e3),
    );
    m.set(
        "host.alloc_bytes_per_event",
        sum(|o| o.alloc_bytes) / events,
    );

    if matches!(workload, Workload::HotSolo | Workload::HotSharded) {
        // Both hot workloads report the sharded host's profile and the
        // overhead ratio, each measuring its twin for the missing half —
        // so the rows reach the driver through `hot_solo`, the only one of
        // the two it runs (README.md, "Why hot_sharded is not driver-gated").
        let metrics_on = Features {
            obs: ObsLevel::Metrics,
            ..Features::OFF
        };
        let twin = match workload {
            Workload::HotSolo => Workload::HotSharded,
            _ => Workload::HotSolo,
        };
        let other = measure::measure(twin, size, seed, seconds * 0.15);
        tally.add_run(&other);
        // The sharded host must reproduce the solo engine bit for bit.
        let mut bad = Vec::new();
        if other.digest() != reference.digest() {
            bad.push(format!(
                "suite digest {:016x} != {}'s {:016x}",
                other.digest(),
                workload.name(),
                reference.digest()
            ));
        }
        tally.add_job(twin.name(), bad);
        if workload == Workload::HotSharded {
            shard_profile(&jobs, events, &mut m);
            m.set("shard.overhead_ratio", reference.wall_s() / other.wall_s());
        } else {
            let sharded: Vec<Job> = order
                .iter()
                .map(|&i| workloads::run_job(twin, size, i, metrics_on, None))
                .collect();
            shard_profile(&sharded, events, &mut m);
            m.set("shard.overhead_ratio", other.wall_s() / reference.wall_s());
        }
    }
    let pipeline = |f: fn(&workloads::PipelineCounts) -> u64| {
        jobs.iter().map(|j| f(&j.outcome.pipeline)).sum::<u64>() as f64
    };
    let mut differential = (0.0, 0.0); // (obs, snapshot) seconds on top of the base run
    if workload == Workload::MetroCkpt {
        let passes = if seconds >= 8.0 { 2 } else { 1 };
        let leg = |features| leg_run_s(workload, size, &order, features, passes);
        let off = Features::OFF;
        let base = leg(off);
        let metrics_on = leg(Features {
            obs: ObsLevel::Metrics,
            ..off
        });
        let full = leg(Features {
            obs: ObsLevel::Full,
            ..off
        });
        let streamed = leg(Features {
            obs: ObsLevel::Full,
            trace_stream: true,
            ..off
        });
        let checkpointed = leg(Features {
            checkpoints: true,
            ..off
        });
        m.set("obs.metrics_cost_ratio", metrics_on / base);
        m.set("obs.full_cost_ratio", full / base);
        m.set("obs.trace_stream_cost_ratio", streamed / base);
        m.set("sim.snapshot.ckpt_cost_ratio", checkpointed / base);
        differential = ((streamed - base).max(0.0), (checkpointed - base).max(0.0));
        let mb = |bytes: f64| bytes / 1e6;
        m.set("sim.snapshot.count", pipeline(|p| p.checkpoints));
        m.set("sim.snapshot.bytes", pipeline(|p| p.checkpoint_bytes));
        m.set(
            "sim.snapshot.encode_mb_per_s",
            mb(pipeline(|p| p.checkpoint_bytes)) / differential.1.max(1e-9),
        );
        m.set(
            "sim.snapshot.decode_mb_per_s",
            mb(pipeline(|p| p.restored_bytes)) / phase(|p| p.restore_s).max(1e-9),
        );
        m.set("obs.stream.bytes", pipeline(|p| p.stream_bytes));
        m.set("obs.stream.records", pipeline(|p| p.stream_records));
        m.set("obs.ring_dropped", pipeline(|p| p.ring_dropped));
        m.set(
            "bench.query.records_per_s",
            pipeline(|p| p.stream_records) / phase(|p| p.analyze_s).max(1e-9),
        );
    }
    if workload == Workload::FctSfq {
        // The paper's Fig. 9 claim needs the status-quo twin of the same
        // request streams; it runs untimed.
        let quo = measure::measure(Workload::FctQuo, size, seed, 0.0);
        tally.add_run(&quo);
        let (sfq_p50, quo_p50) = (reference.slowdown_quantile(0.5), quo.slowdown_quantile(0.5));
        let gain = 1.0 - sfq_p50 / quo_p50;
        m.set("fig9.quo_p50", quo_p50);
        m.set("fig9.p50_gain", gain);
        let (lo, hi) = spec::FIG9_BAND;
        m.set(
            "fig9.in_band",
            f64::from(u8::from((lo..=hi).contains(&gain))),
        );
    }

    let generated: Vec<_> = (0..worlds)
        .map(|i| workloads::generate(workload, size, i, Features::OFF))
        .collect();
    let shape = Shape::of(&generated);
    drop(generated);
    // Half a second per kernel at the default 15 s.
    let kernel_seconds = seconds / 30.0;
    for (name, ns) in kernels::run_all(&shape, kernel_seconds) {
        m.set(name, ns);
    }

    // The ledger: kernel ns/op × exact op counts, over the traced run time.
    // An estimate from outside; on hot_sharded it is CPU time over wall time.
    let ns = |name: &str| m.get(name);
    let run_ns = run_s * 1e9;
    let bundled = workload != Workload::FctQuo;
    // Classic single-bundle runs return no sendbox counters: every data
    // packet (half of all packets; the other half are its ACKs) passes the
    // sendbox once, and ticks follow from the simulated duration.
    let data_pkts = packets / 2.0;
    let (sent, ticks) = if !bundled {
        (0.0, 0.0)
    } else if m.get("core.sendbox.pkts_sent") > 0.0 {
        (m.get("core.sendbox.pkts_sent"), m.get("core.sendbox.ticks"))
    } else {
        (data_pkts, sum(|o| o.classic_ticks))
    };
    let cc = ticks * ns("cc.nimbus.measure_ns");
    let shares = [
        ("share.core.wheel", events * ns("sim.event.sched_pop_ns")),
        ("share.sim.tcp", data_pkts * ns("sim.tcp.send_ack_ns")),
        ("share.sim.path", packets * ns("sim.path.enq_tx_ns")),
        (
            "share.sim.edge",
            sent * (ns("sim.edge.enq_release_ns") - ns("core.sendbox.fwd_ns")).max(0.0),
        ),
        (
            "share.core.sendbox",
            sent * ns("core.sendbox.fwd_ns")
                + (ticks * ns("core.sendbox.ack_tick_ns") - cc).max(0.0),
        ),
        ("share.cc", cc),
        (
            "share.agent",
            classified * ns("agent.classify_ns") + agent_ticks * ns("agent.tick_ns"),
        ),
        (
            "share.sim.fluid",
            sum(|o| o.fluid_steps) * ns("sim.fluid.update_ns"),
        ),
        ("share.sim.snapshot", differential.1 * 1e9),
        ("share.obs", differential.0 * 1e9),
    ];
    let mut attributed = 0.0;
    for (name, layer_ns) in shares {
        m.set(name, layer_ns / run_ns);
        attributed += layer_ns / run_ns;
    }
    m.set("share.unattributed", 1.0 - attributed);

    large_world(workload, size.large(), &reference, &mut m, &mut tally);

    Traced {
        metrics: m.in_spec_order(),
        attempted: tally.attempted,
        failed: tally.failed,
        failures: tally.failures,
        coverage: (root_coverage, world_coverage),
    }
}

/// The `large.*` rows: the workload's one world at `Size::Large`, run once as
/// a whole job, and beside it the twin that the cross-workload ratios need
/// (`hot_solo` ↔ `hot_sharded`, `fct_sfq` → `fct_quo`). Runs last, because it
/// grows the process to hundreds of MB.
fn large_world(
    workload: Workload,
    large: Size,
    reference: &SuiteRun,
    m: &mut Metrics,
    tally: &mut Tally,
) {
    let mut run = |w: Workload| {
        let job = workloads::run_job(w, large, 0, Features::of(w), None);
        let label = format!("{} large world", w.name());
        tally.add_job(&label, job.outcome.failures.clone());
        job
    };
    let quantile = |o: &Outcome, q: f64| {
        bundler_sim::stats::quantile(&mut o.slowdowns.clone(), q).unwrap_or(f64::NAN)
    };
    let job = run(workload);
    // Before any twin runs, and in a process that has held no other large
    // world: the high-water mark is this world's.
    m.set("large.peak_rss_mb", measure::peak_rss_mb());
    let (o, wall) = (&job.outcome, job.phases.wall_s());
    eprintln!(
        "{} large world: sim_digest {:016x}, {} events, {} packets, {} requests",
        workload.name(),
        o.digest,
        o.events,
        o.packets,
        o.requests
    );
    m.set("large.wall_s", wall);
    m.set("large.setup_s", job.phases.setup_s());
    m.set("large.events", o.events as f64);
    m.set("large.events_per_s", o.events as f64 / wall);
    m.set(
        "large.event_cost_ratio",
        (wall / o.events as f64) / (reference.wall_s() / reference.events() as f64),
    );
    m.set(
        "large.done_share",
        o.completed as f64 / o.requests.max(1) as f64,
    );
    m.set("large.slowdown_p50", quantile(o, 0.5));
    m.set("large.slowdown_p99", quantile(o, 0.99));
    m.set("large.ring_dropped", o.pipeline.ring_dropped as f64);
    match workload {
        Workload::HotSolo | Workload::HotSharded => {
            let solo = workload == Workload::HotSolo;
            let twin = run(if solo {
                Workload::HotSharded
            } else {
                Workload::HotSolo
            });
            let mut bad = Vec::new();
            if twin.outcome.digest != o.digest {
                bad.push(format!(
                    "digest {:016x} != {}'s {:016x}",
                    twin.outcome.digest,
                    workload.name(),
                    o.digest
                ));
            }
            tally.add_job("large twin", bad);
            let (sharded, solo_wall) = if solo {
                (twin.phases.wall_s(), wall)
            } else {
                (wall, twin.phases.wall_s())
            };
            m.set("large.shard_overhead_ratio", sharded / solo_wall);
        }
        Workload::FctSfq => {
            let quo = run(Workload::FctQuo);
            m.set(
                "large.fig9_p50_gain",
                1.0 - quantile(o, 0.5) / quantile(&quo.outcome, 0.5),
            );
        }
        Workload::FctQuo | Workload::MetroCkpt => {}
    }
}

/// `run()` seconds of the suite with `features`: each world's fastest pass.
fn leg_run_s(
    workload: Workload,
    size: Size,
    order: &[usize],
    features: Features,
    passes: usize,
) -> f64 {
    let mut best = vec![f64::INFINITY; order.len()];
    for _ in 0..passes {
        for &index in order {
            let job = workloads::run_job(workload, size, index, features, None);
            best[index] = best[index].min(job.phases.run_s);
        }
    }
    best.iter().sum()
}

/// The sharded host's own counters and phase profile, summed over worlds.
fn shard_profile(jobs: &[Job], events: f64, m: &mut Metrics) {
    let reports: Vec<_> = jobs
        .iter()
        .filter_map(|j| j.outcome.obs.as_deref())
        .collect();
    let host = |f: fn(&bundler_obs::HostMetrics) -> u64| {
        reports.iter().map(|r| f(&r.host)).sum::<u64>() as f64
    };
    // `HostMetrics::windows` sums every worker's and the net side's count;
    // the driver's own window count is one worker's profile length.
    let windows = reports
        .iter()
        .map(|r| r.worker_phases.first().map_or(0, |p| p.windows.len()))
        .sum::<usize>() as f64;
    m.set("shard.windows", windows);
    m.set("shard.events_per_window", events / windows.max(1.0));
    m.set("shard.migrations", host(|h| h.migrations));
    m.set("shard.migration_pkts", host(|h| h.migration_pkts));
    m.set("shard.inbox_msgs", host(|h| h.inbox_messages));
    m.set("shard.mailbox_spills", host(|h| h.mailbox_spills));
    let n = reports.len().max(1) as f64;
    let frac = |f: fn(&bundler_obs::PhaseBreakdown) -> f64| {
        reports.iter().map(|r| f(&r.phase_breakdown())).sum::<f64>() / n
    };
    m.set("shard.busy_frac", frac(|b| b.busy_frac));
    m.set("shard.stall_frac", frac(|b| b.stall_frac));
    m.set("shard.net_frac", frac(|b| b.net_frac));
}

/// Per-layer metric values by name; unset metrics read 0 (the workload
/// never enters that layer).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    fn set(&mut self, name: &str, value: f64) {
        let spec = spec::PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((spec.name, value)),
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0.iter().find(|(n, _)| *n == name).map_or(0.0, |m| m.1)
    }

    fn in_spec_order(&self) -> Vec<(&'static str, f64)> {
        spec::PER_LAYER
            .iter()
            .map(|m| (m.name, self.get(m.name)))
            .collect()
    }
}
