//! The simulation engine: wires endhosts, site edges, the bottleneck and
//! the Bundler control loop together and runs the event loop.
//!
//! No packet hop allocates: packets live in a [`PacketArena`] and move
//! through queues and events as 4-byte
//! [`PacketId`](bundler_types::PacketId)s, endhosts emit into reusable
//! scratch buffers, per-flow state sits in a slab reserved at
//! construction, and the event queue is a calendar queue with O(1)
//! amortized operations. Once the run has warmed up, a flow allocates
//! little either: a sender holds its congestion controller by value (only
//! BBR's is boxed) and starts on a finished flow's in-flight window. What
//! does allocate is a window growing past its buffer, and the receiver's
//! out-of-order buffer when segments arrive out of order.
//!
//! [`Simulation`] is the one host, and it runs one of two loops. With one
//! shard (the default) it is the *single-threaded engine*: one
//! `WorkerCore` owning every site-side logical process and the `NetCore`
//! bottleneck over a single event queue, popped and dispatched one event
//! at a time. A checkpoint is taken between two pops, when the next
//! event's time has reached the checkpoint instant; the queue is only
//! peeked while one is armed. With [`SimulationConfig::shards`] above one
//! it runs the windowed runtime of [`crate::shard`], which composes the
//! same cores, one worker per thread. Because event order is canonical
//! (see [`crate::event`]), both loops produce bit-identical reports for
//! the same config and workload.

use std::sync::Arc;

use bundler_types::{Duration, FlowKey, Nanos, PacketArena, Rate};

use crate::directory::FlowDirectory;
use crate::edge::{BundleMode, MultiBundleSpec};
use crate::event::{Event, EventQueue};
use crate::runtime::{assemble_report, is_net_event, Delivery, NetCore, ToNet, WorkerCore};
use crate::shard::{run_sharded, window_of, Windowed};
use crate::snapshot::{SnapshotError, Writer};
use crate::stats::SimReport;
use crate::workload::{FlowSpec, Origin};

/// Static configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Total simulated time.
    pub duration: Duration,
    /// Aggregate bottleneck rate (split evenly across `num_paths`).
    pub bottleneck_rate: Rate,
    /// Base round-trip propagation delay (no queueing).
    pub rtt: Duration,
    /// Bottleneck buffer size in packets per sub-path. `0` means "2 × BDP".
    pub buffer_pkts: usize,
    /// Number of load-balanced bottleneck sub-paths.
    pub num_paths: usize,
    /// Additional one-way delay added to sub-path `i` (`i × spread`); a
    /// non-zero value creates the imbalanced-multipath scenarios of §5.2.
    pub path_delay_spread: Duration,
    /// Use the ideal fair queue at the bottleneck instead of drop-tail FIFO
    /// (the paper's undeployable "In-Network" baseline).
    pub in_network_fq: bool,
    /// One entry per bundle index used by the workload.
    pub bundles: Vec<BundleMode>,
    /// When set, the source site edge is one `SiteAgent` managing one
    /// bundle per spec behind a destination-prefix classifier, and
    /// `bundles` is ignored. Workload origins must still name bundle
    /// indices consistent with the specs' prefixes.
    pub multi_bundle: Option<Vec<MultiBundleSpec>>,
    /// Interval between statistics samples.
    pub sample_interval: Duration,
    /// How many worker shards the simulation runs on. `1` (the default) is
    /// the single-threaded engine. A larger value runs the windowed
    /// runtime ([`crate::shard`]), which partitions bundles across that
    /// many worker threads and produces bit-identical results — unless the
    /// one-way delay is below 2 ns, which leaves no window to run and so
    /// runs the single-threaded engine.
    pub shards: usize,
    /// How the windowed runtime assigns bundles to worker shards (unused
    /// when the single-threaded engine runs). Both modes place bundles the
    /// same way, once, for the whole run; see [`ShardBalance`].
    pub balance: ShardBalance,
    /// How many net shards the bottleneck runs on in the windowed
    /// runtime, which partitions the bottleneck sub-paths round-robin
    /// across that many net threads (net shard `k` owns paths
    /// `{gid : gid % net_shards == k}`; `1`, the default, is one net thread
    /// owning every path) and produces bit-identical results; values above
    /// `num_paths` are clamped. The single-threaded engine has no net
    /// threads.
    pub net_shards: usize,
    /// Route every mailbox envelope through the versioned `NETENV` wire
    /// format (encode → decode at the sending edge) in the windowed
    /// runtime. Purely a transport exercise — results are bit-identical
    /// either way (property-tested) — kept as a run-time switch so the
    /// differential matrix proves the codec before shards ever cross a
    /// process boundary. The single-threaded engine has no mailboxes.
    pub wire_envelopes: bool,
    /// Observability level. `Off` (the default) reduces every
    /// instrumentation site to a skipped branch on this enum; `Metrics`
    /// records counters/histograms and the sharded phase profile; `Full`
    /// additionally records the structured trace (Perfetto export). No
    /// level ever changes a simulation result: the output rides on
    /// [`SimReport::obs`], which `SimStats` digests exclude.
    pub obs: bundler_obs::ObsLevel,
    /// When set, the run takes a whole-simulation snapshot at every
    /// multiple of this much simulated time, stamped exactly there (the
    /// windowed runtime ends a window early at a multiple that falls
    /// inside it), so both loops write the same bytes at the same instants
    /// and a restore resumes bit-identically. The snapshot writer keeps
    /// the cadence: the next target is the first multiple strictly after
    /// the last stamp. Collected via
    /// [`Simulation::run_collecting`]; `None` (the default) disables
    /// checkpointing entirely. Never affects simulation results.
    pub checkpoint_every: Option<Duration>,
    /// Deterministic fault plan injected into the run: bottleneck faults
    /// applied on the net core's canonical event stream plus control-plane
    /// blackouts applied at feedback delivery. `None` (the default) injects
    /// nothing. Same plan + workload ⇒ same digest for any shard count.
    pub faults: Option<crate::fault::FaultPlan>,
    /// Fluid cross-traffic tier: background aggregates simulated as rate
    /// processes at the bottleneck instead of per-packet (see
    /// [`crate::fluid`]). `None` (the default) disables the tier — every
    /// background flow is packet-level, exactly as before the tier existed.
    pub cross_traffic: Option<crate::fluid::FluidCrossTraffic>,
    /// Flow-span tracing: a seeded, pure sampler picks flows at admission
    /// and their full lifecycle (classify, sendbox sojourn, bottleneck
    /// sojourn, FCT) is recorded as linked trace records. Only active at
    /// [`bundler_obs::ObsLevel::Full`]; `None` (the default) disables flow
    /// spans entirely. Never affects simulation results.
    pub flow_trace: Option<bundler_obs::FlowTrace>,
    /// Streaming telemetry sink: trace rings and metrics flush here
    /// incrementally at sample/window barriers instead of accumulating in
    /// memory, so observability memory is ring-capacity sized rather than
    /// run-length sized. `None` (the default) keeps the in-memory
    /// [`crate::stats::SimReport::obs`] path. Cloning a config clones the
    /// handle — every shard of a run shares one sink.
    pub stream: Option<bundler_obs::StreamSink>,
}

/// Bundle-to-shard assignment policy for the multi-threaded host.
///
/// Results are **identical** to the single-threaded engine whatever the
/// placement: event order is canonical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardBalance {
    /// Static round-robin over classification co-location groups (group
    /// leader `% shards`, groups classified-to by direct traffic on shard
    /// 0) — `bundle % shards` when every group is a singleton — fixed for
    /// the whole run. A heavy bundle serializes its shard while the others
    /// idle at the barrier.
    #[default]
    RoundRobin,
    /// A name only: places exactly as [`ShardBalance::RoundRobin`].
    /// ROADMAP item 4(d) deletes this variant with
    /// [`SimulationConfig::balance`].
    Rate,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        SimulationConfig {
            duration: Duration::from_secs(30),
            bottleneck_rate: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            buffer_pkts: 0,
            num_paths: 1,
            path_delay_spread: Duration::ZERO,
            in_network_fq: false,
            bundles: vec![BundleMode::StatusQuo],
            multi_bundle: None,
            sample_interval: Duration::from_millis(50),
            shards: 1,
            balance: ShardBalance::default(),
            net_shards: 1,
            wire_envelopes: false,
            obs: bundler_obs::ObsLevel::default(),
            checkpoint_every: None,
            faults: None,
            cross_traffic: None,
            flow_trace: None,
            stream: None,
        }
    }
}

impl SimulationConfig {
    /// Bandwidth-delay product in bytes.
    pub fn bdp_bytes(&self) -> u64 {
        (self.bottleneck_rate.as_bytes_per_sec() * self.rtt.as_secs_f64()) as u64
    }

    /// Number of bundle indices this configuration defines.
    pub fn n_bundles(&self) -> usize {
        match &self.multi_bundle {
            Some(specs) => specs.len(),
            None => self.bundles.len(),
        }
    }

    pub(crate) fn effective_buffer_pkts(&self) -> usize {
        if self.buffer_pkts > 0 {
            self.buffer_pkts
        } else {
            ((2 * self.bdp_bytes()) / 1500).max(40) as usize
        }
    }

    /// The forward half of `rtt`: the one-way delay of bottleneck sub-path
    /// 0, which carries no `path_delay_spread`, and so the least of any
    /// sub-path. Every net output lands at least this far in the future —
    /// the windowed runtime's conservative lookahead. Both cores take
    /// their forward delay from here.
    pub fn lookahead(&self) -> Duration {
        Duration(self.rtt.as_nanos() / 2)
    }

    /// The net-shard count the windowed runtime actually runs: at least one,
    /// at most one shard per bottleneck sub-path.
    pub fn effective_net_shards(&self) -> usize {
        self.net_shards.clamp(1, self.num_paths.max(1))
    }
}

/// The simulator: a configuration and a workload, run to a [`SimReport`].
/// [`SimulationConfig::shards`] picks the loop — see the module docs —
/// and every loop gives the same report.
pub struct Simulation(Host);

#[allow(clippy::large_enum_variant)] // one value per run, built once, moved once
enum Host {
    /// One shard, or a lookahead too short to halve into windows.
    Solo(Solo),
    /// Worker and net threads stepping conservative windows.
    Windowed(Windowed),
}

/// The single-threaded engine.
struct Solo {
    config: SimulationConfig,
    queue: EventQueue,
    /// Every in-flight packet; events and queues reference it by id.
    arena: PacketArena,
    worker: WorkerCore,
    net: NetCore,
    /// Reusable scratch for worker → net messages.
    to_net: Vec<ToNet>,
    /// Reusable scratch for net → worker deliveries.
    deliveries: Vec<Delivery>,
    /// True while every arena insert is one endhost/net creation, which
    /// makes `finalize`'s accounting cross-check exact. A restore inserts
    /// the snapshot's packets by value, so it clears this; checkpoints
    /// only read the arena.
    arena_exact: bool,
    /// Checkpoint cadence and fingerprint.
    writer: Writer,
}

/// The single-threaded engine's cores while a snapshot is poured into them:
/// every part of the snapshot lands on the one worker, net core, queue and
/// arena.
struct SoloParts<'a> {
    worker: &'a mut WorkerCore,
    net: &'a mut NetCore,
    queue: &'a mut EventQueue,
    arena: &'a mut PacketArena,
}

impl crate::snapshot::RestoreHost for SoloParts<'_> {
    fn worker(&mut self, _: Option<usize>) -> (&mut WorkerCore, &mut EventQueue, &mut PacketArena) {
        (self.worker, self.queue, self.arena)
    }

    fn net(&mut self, _: usize) -> (&mut NetCore, &mut EventQueue, &mut PacketArena) {
        (self.net, self.queue, self.arena)
    }
}

impl Simulation {
    /// Builds a simulation from a configuration and a workload (flow
    /// arrivals). Panics if a bundle configuration is invalid, or, naming
    /// the id, if two specs of the workload share a flow id.
    pub fn new(config: SimulationConfig, workload: Vec<FlowSpec>) -> Self {
        Simulation(match window_of(&config) {
            None => Host::Solo(Solo::build(config, workload, true)),
            Some(window) => Host::Windowed(Windowed::new(config, workload, window)),
        })
    }

    /// Rebuilds a simulation from a snapshot taken at some earlier instant
    /// of a run with an equivalent config and the same workload, positioned
    /// to resume bit-identically. "Equivalent" means the result-affecting
    /// fields match (checked via the snapshot fingerprint); observability,
    /// partitioning and checkpoint cadence may differ — a snapshot written
    /// by one loop, at any shard count, restores into any other. The whole
    /// snapshot is validated and decoded here.
    pub fn restore(
        config: SimulationConfig,
        workload: Vec<FlowSpec>,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        Ok(Simulation(match window_of(&config) {
            None => Host::Solo(Solo::restore(config, workload, bytes)?),
            Some(window) => Host::Windowed(Windowed::restore(config, workload, window, bytes)?),
        }))
    }

    /// The five-tuple assigned to a flow (exposed for tests).
    pub fn flow_key(flow_id: u64, origin: Origin) -> FlowKey {
        crate::runtime::flow_key(flow_id, origin)
    }

    /// Runs the simulation to completion and returns the report. A panic
    /// on a worker or net thread of a windowed run ends the run and is
    /// raised here, naming the shard, the window and the last event the
    /// thread handled.
    pub fn run(self) -> SimReport {
        self.run_inner(None)
    }

    /// Runs to completion, pushing a `(time, bytes)` whole-simulation
    /// snapshot into `sink` at every [`SimulationConfig::checkpoint_every`]
    /// multiple, stamped exactly there whatever the loop. With
    /// `checkpoint_every` unset this is exactly [`run`]. Checkpointing
    /// never changes the report.
    ///
    /// [`run`]: Simulation::run
    pub fn run_collecting(self, sink: &mut Vec<(Nanos, Vec<u8>)>) -> SimReport {
        self.run_with_checkpoints(|at, blob| sink.push((at, blob)))
    }

    /// Runs to completion, invoking `sink` with each `(time, bytes)`
    /// checkpoint as it is taken — the streaming form of
    /// [`run_collecting`](Simulation::run_collecting), for callers that
    /// persist checkpoints externally (e.g. to disk, so a killed process
    /// can be resumed via [`Simulation::restore`]).
    pub fn run_with_checkpoints(self, mut sink: impl FnMut(Nanos, Vec<u8>)) -> SimReport {
        self.run_inner(Some(&mut sink))
    }

    fn run_inner(self, sink: Option<&mut dyn FnMut(Nanos, Vec<u8>)>) -> SimReport {
        match self.0 {
            Host::Solo(solo) => solo.run(sink),
            Host::Windowed(host) => run_sharded(host, sink).unwrap_or_else(|e| panic!("{e}")),
        }
    }
}

impl Solo {
    /// A `fresh` simulation owns every bundle and holds the run's initial
    /// events. One that is not owns nothing and schedules nothing: every
    /// bundle and pending event — future flow arrivals included — is then
    /// to come from a snapshot.
    fn build(config: SimulationConfig, workload: Vec<FlowSpec>, fresh: bool) -> Self {
        let owned = vec![fresh; config.n_bundles()];
        let directory = Arc::new(FlowDirectory::new(workload));
        let mut worker = WorkerCore::with_owned(&config, directory, 0, owned);
        let mut net = NetCore::new(&config);
        let mut queue = EventQueue::new();
        if fresh {
            worker.schedule_initial(&mut queue);
            net.schedule_initial(&mut queue);
        }
        Solo {
            writer: Writer::new(config.checkpoint_every, Nanos::ZERO, None),
            config,
            queue,
            arena: PacketArena::with_capacity(1024),
            worker,
            net,
            to_net: Vec::with_capacity(64),
            deliveries: Vec::with_capacity(64),
            arena_exact: fresh,
        }
    }

    fn restore(
        config: SimulationConfig,
        workload: Vec<FlowSpec>,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        let fp = crate::snapshot::fingerprint(&config, &workload);
        let mut sim = Self::build(config, workload, false);
        let mut parts = SoloParts {
            worker: &mut sim.worker,
            net: &mut sim.net,
            queue: &mut sim.queue,
            arena: &mut sim.arena,
        };
        let at = crate::snapshot::restore_into(&sim.config, bytes, fp, &mut parts)?;
        sim.writer = Writer::new(sim.config.checkpoint_every, at, Some(fp));
        Ok(sim)
    }

    fn run(mut self, mut sink: Option<&mut dyn FnMut(Nanos, Vec<u8>)>) -> SimReport {
        let end = Nanos::ZERO + self.config.duration;
        loop {
            // Peeked only while a checkpoint is armed; otherwise pop alone.
            let due = self.writer.due().filter(|&at| sink.is_some() && at < end);
            if let Some(at) = due {
                let Some((next, _)) = self.queue.peek() else {
                    break;
                };
                if next >= at {
                    // Every event before `at` has been processed and none
                    // at or after it, and nothing is pending outside the
                    // queue — the state *is* the state at `at`.
                    let blob = self.snapshot(at);
                    if let Some(sink) = sink.as_deref_mut() {
                        sink(at, blob);
                    }
                    continue;
                }
            }
            let Some((now, event)) = self.queue.pop() else {
                break;
            };
            if now >= end {
                break;
            }
            if is_net_event(&event) {
                self.net.handle(
                    event,
                    now,
                    &mut self.arena,
                    &mut self.queue,
                    &mut self.deliveries,
                );
                for d in self.deliveries.drain(..) {
                    self.queue
                        .schedule(d.at, d.key, Event::ArriveDestination { pkt: d.pkt });
                }
            } else {
                self.worker.handle(
                    event,
                    now,
                    &mut self.arena,
                    &mut self.queue,
                    &mut self.to_net,
                );
                for m in self.to_net.drain(..) {
                    debug_assert_eq!(m.at, now, "bottleneck entry is a zero-latency hop");
                    self.queue
                        .schedule(m.at, m.key, Event::ArriveBottleneck { pkt: m.pkt });
                }
            }
        }
        self.finalize()
    }

    /// Serializes the complete simulation state, stamped as the state at
    /// simulated time `at`. Callers must guarantee every event strictly
    /// before `at` has been processed and none at or after it has — which
    /// is exactly the situation between two event pops (the checkpoint loop
    /// in `run` enforces it). Non-destructive: the run continues unchanged
    /// afterwards.
    fn snapshot(&mut self, at: Nanos) -> Vec<u8> {
        let part = self.worker.save_part(&mut self.queue, &self.arena, at);
        let sections = self.net.save_sections(&mut self.queue, &self.arena, at);
        self.writer
            .write(&self.config, self.worker.workload(), at, [part], sections)
    }

    fn finalize(self) -> SimReport {
        // In the single-arena host every creation is one insert, so the
        // logical counters must agree with the arena's — unless a restore
        // inserted the snapshot's packets.
        if self.arena_exact {
            debug_assert_eq!(
                self.worker.packets_created() + self.net.packets_created(),
                self.arena.inserted()
            );
        }
        assemble_report(
            &self.config,
            self.writer.into_finished(),
            vec![self.worker],
            vec![self.net],
            self.arena.recycled(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FlowSpec;
    use bundler_core::BundlerConfig;

    fn single_flow_config(bundler: bool) -> SimulationConfig {
        SimulationConfig {
            duration: Duration::from_secs(12),
            bottleneck_rate: Rate::from_mbps(24),
            rtt: Duration::from_millis(50),
            bundles: vec![if bundler {
                BundleMode::Bundler(BundlerConfig::default())
            } else {
                BundleMode::StatusQuo
            }],
            ..Default::default()
        }
    }

    #[test]
    fn single_flow_completes_and_uses_most_of_the_link() {
        // A 6 MB transfer over a 24 Mbit/s, 50 ms path takes ~2.2 s of pure
        // serialization; allow generous slack for slow start and recovery.
        let workload = vec![FlowSpec::bundled(1, 6_000_000, Nanos::ZERO, 0)];
        let report = Simulation::new(single_flow_config(false), workload).run();
        assert_eq!(
            report.completed, 1,
            "flow must finish (unfinished={})",
            report.unfinished
        );
        let fct = report.fcts[0].fct;
        assert!(fct >= Duration::from_secs(2), "fct {fct} suspiciously fast");
        assert!(fct <= Duration::from_secs(10), "fct {fct} too slow");
    }

    #[test]
    #[should_panic(expected = "two workload specs share flow id 1")]
    fn a_workload_naming_one_id_twice_panics() {
        let workload = vec![
            FlowSpec::bundled(1, 6_000, Nanos::ZERO, 0),
            FlowSpec::direct(1, 6_000, Nanos::from_millis(5)),
        ];
        Simulation::new(single_flow_config(false), workload);
    }

    #[test]
    fn single_flow_with_bundler_also_completes() {
        let workload = vec![FlowSpec::bundled(1, 6_000_000, Nanos::ZERO, 0)];
        let report = Simulation::new(single_flow_config(true), workload).run();
        assert_eq!(report.completed, 1, "flow must finish under Bundler");
        let fct = report.fcts[0].fct;
        assert!(
            fct <= Duration::from_secs(11),
            "fct {fct} too slow under Bundler"
        );
    }

    #[test]
    fn bundler_shifts_queue_from_bottleneck_to_sendbox() {
        // One backlogged flow. Without Bundler the bottleneck FIFO holds the
        // queue; with Bundler the sendbox does.
        let mk_workload = || vec![FlowSpec::bundled(1, FlowSpec::BACKLOGGED, Nanos::ZERO, 0)];
        let mut quo_cfg = single_flow_config(false);
        quo_cfg.duration = Duration::from_secs(20);
        let quo = Simulation::new(quo_cfg, mk_workload()).run();
        let mut bundler_cfg = single_flow_config(true);
        bundler_cfg.duration = Duration::from_secs(20);
        let bun = Simulation::new(bundler_cfg, mk_workload()).run();

        let late = Nanos::from_secs(10);
        let quo_bottleneck = quo
            .bottleneck_queue_delay_ms
            .mean_between(late, Nanos::MAX)
            .unwrap_or(0.0);
        let bun_bottleneck = bun
            .bottleneck_queue_delay_ms
            .mean_between(late, Nanos::MAX)
            .unwrap_or(0.0);
        let bun_sendbox = bun.sendbox_queue_delay_ms[0]
            .mean_between(late, Nanos::MAX)
            .unwrap_or(0.0);
        assert!(
            quo_bottleneck > 20.0,
            "status quo should build a large bottleneck queue, got {quo_bottleneck:.1} ms"
        );
        assert!(
            bun_bottleneck < quo_bottleneck / 2.0,
            "Bundler should shrink the bottleneck queue: {bun_bottleneck:.1} vs {quo_bottleneck:.1} ms"
        );
        assert!(
            bun_sendbox > bun_bottleneck,
            "the queue should now live at the sendbox ({bun_sendbox:.1} ms vs {bun_bottleneck:.1} ms)"
        );
        // Throughput must not collapse: the backlogged flow should still get
        // the majority of the 24 Mbit/s link.
        let tput = bun.mean_bundle_throughput_mbps(0).unwrap_or(0.0);
        assert!(tput > 12.0, "bundle throughput {tput:.1} Mbit/s too low");
    }

    #[test]
    fn ping_flows_record_rtts() {
        let mut cfg = single_flow_config(false);
        cfg.duration = Duration::from_secs(2);
        let workload = vec![FlowSpec::bundled(7, 40, Nanos::ZERO, 0).as_ping()];
        let report = Simulation::new(cfg, workload).run();
        let rtts = &report.ping_rtts_ms[0];
        assert!(
            rtts.len() > 10,
            "closed-loop pings should cycle many times, got {}",
            rtts.len()
        );
        // Base RTT is 50 ms plus a tiny serialization delay.
        assert!(
            rtts.iter().all(|&r| r >= 49.0),
            "RTT below propagation delay?"
        );
        assert!(rtts[0] < 60.0);
    }

    #[test]
    fn cross_traffic_is_not_attributed_to_bundles() {
        let mut cfg = single_flow_config(false);
        cfg.duration = Duration::from_secs(5);
        let workload = vec![
            FlowSpec::bundled(1, 100_000, Nanos::ZERO, 0),
            FlowSpec::direct(2, 100_000, Nanos::ZERO),
        ];
        let report = Simulation::new(cfg, workload).run();
        assert_eq!(report.completed, 2);
        let bundled: Vec<_> = report.fcts.iter().filter(|f| f.bundle.is_some()).collect();
        assert_eq!(bundled.len(), 1);
    }

    #[test]
    fn the_workload_is_fingerprinted_at_most_once_per_simulation() {
        use crate::snapshot::FINGERPRINT_CALLS;
        let calls = || FINGERPRINT_CALLS.with(|c| c.get());
        let workload = || {
            vec![
                FlowSpec::bundled(1, 400_000, Nanos::ZERO, 0),
                FlowSpec::direct(2, 150_000, Nanos::from_millis(40)),
            ]
        };
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(3);
        cfg.checkpoint_every = Some(Duration::from_millis(500));

        // Construction and a run without checkpoints never pay for it.
        let before = calls();
        Simulation::new(cfg.clone(), workload()).run();
        assert_eq!(calls(), before);

        // Five checkpoints, one hash — and every header carries it.
        let fp = crate::snapshot::fingerprint(&cfg, &workload());
        let before = calls();
        let mut ckpts = Vec::new();
        Simulation::new(cfg.clone(), workload()).run_collecting(&mut ckpts);
        assert_eq!(ckpts.len(), 5);
        assert_eq!(calls(), before + 1);
        for (at, blob) in &ckpts {
            let mut r = serde::binary::Reader::new(blob);
            assert_eq!(crate::snapshot::read_header(&mut r, fp), Ok(*at));
            assert_eq!(blob.capacity(), blob.len(), "a blob is sized once");
        }

        // A restore hashes once to validate the header; the checkpoints
        // the restored run goes on to take reuse that value.
        let before = calls();
        let mut later = Vec::new();
        Simulation::restore(cfg, workload(), &ckpts[1].1)
            .expect("restore")
            .run_collecting(&mut later);
        assert_eq!(calls(), before + 1);
        assert_eq!(
            later,
            ckpts[2..],
            "the resumed run re-takes the same checkpoints"
        );
    }

    #[test]
    fn packet_arena_recycles_in_steady_state() {
        // A multi-second run creates hundreds of thousands of packets but
        // only ever has a bounded number in flight: nearly every allocation
        // must come from the arena free list.
        let workload = vec![FlowSpec::bundled(1, FlowSpec::BACKLOGGED, Nanos::ZERO, 0)];
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(10);
        let report = Simulation::new(cfg, workload).run();
        assert!(report.packets_created > 10_000);
        let fresh = report.packets_created - report.packets_recycled;
        assert!(
            fresh < report.packets_created / 10,
            "steady state should recycle: {fresh} fresh of {} total",
            report.packets_created
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let workload = || {
            vec![
                FlowSpec::bundled(1, 500_000, Nanos::ZERO, 0),
                FlowSpec::bundled(2, 20_000, Nanos::from_millis(100), 0),
                FlowSpec::direct(3, 200_000, Nanos::from_millis(50)),
            ]
        };
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(5);
        let a = Simulation::new(cfg.clone(), workload()).run();
        let b = Simulation::new(cfg, workload()).run();
        assert_eq!(a.completed, b.completed);
        let fct_a: Vec<u64> = a.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        let fct_b: Vec<u64> = b.fcts.iter().map(|f| f.fct.as_nanos()).collect();
        assert_eq!(fct_a, fct_b, "simulation must be deterministic");
    }

    #[test]
    fn multipath_spread_produces_out_of_order_measurements() {
        let mut cfg = single_flow_config(true);
        cfg.duration = Duration::from_secs(15);
        cfg.num_paths = 4;
        cfg.path_delay_spread = Duration::from_millis(30);
        // Many flows so the load balancer actually uses several paths.
        let workload: Vec<FlowSpec> = (0..24)
            .map(|i| FlowSpec::bundled(i, FlowSpec::BACKLOGGED, Nanos::from_millis(i * 10), 0))
            .collect();
        let report = Simulation::new(cfg, workload).run();
        assert!(
            report.out_of_order_fraction[0] > 0.05,
            "imbalanced paths should cause out-of-order measurements, got {}",
            report.out_of_order_fraction[0]
        );
    }

    /// Many-sites worlds for the host tests: 3 sites, 500 ms checkpoints.
    fn many_sites(seed: u64) -> (SimulationConfig, Vec<FlowSpec>) {
        let sc = crate::scenario::many_sites::ManySitesScenario::builder()
            .sites(3)
            .requests_per_site(6)
            .offered_load_per_site(Rate::from_mbps(8))
            .bottleneck(Rate::from_mbps(60))
            .drain(Duration::from_secs(2))
            .seed(seed)
            .build();
        let mut config = sc.sim_config();
        config.checkpoint_every = Some(Duration::from_millis(500));
        (config, sc.workload())
    }

    /// Taking a snapshot leaves the run exactly as it found it: every lifted
    /// event goes back under its key and every buffer is a copy. So two
    /// back-to-back snapshots at the same instant are the same bytes — with and
    /// without a fault plan, and for a restored run, whose snapshot at the
    /// checkpoint's instant is that checkpoint.
    #[test]
    fn back_to_back_snapshots_at_one_instant_are_identical() {
        let (config, _) = many_sites(23);
        let plan = crate::fault::FaultPlan::generate(23, config.duration, config.num_paths);
        for (seed, faults) in [(17, None), (23, Some(plan))] {
            let (mut config, workload) = many_sites(seed);
            config.faults = faults;
            let mut ckpts = Vec::new();
            Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts);
            assert!(ckpts.len() >= 3, "expected several checkpoints");
            for (at, blob) in [&ckpts[1], &ckpts[ckpts.len() / 2]] {
                let mut sim = Solo::restore(config.clone(), workload.clone(), blob)
                    .unwrap_or_else(|e| panic!("restore at {at:?}: {e}"));
                let first = sim.snapshot(*at);
                let second = sim.snapshot(*at);
                assert!(first == second, "seed {seed}: snapshots at {at:?} differ");
                assert!(&first == blob, "seed {seed}: re-snapshot at {at:?} differs");
            }
        }
    }

    /// `shards: 2` runs the windowed runtime — both workers report their
    /// windows — and the report's digest is the single-threaded one's.
    #[test]
    fn simulation_honours_shards() {
        let (mut config, workload) = many_sites(29);
        config.obs = bundler_obs::ObsLevel::Metrics;
        let solo = Simulation::new(config.clone(), workload.clone()).run();
        config.shards = 2;
        let sim = Simulation::new(config, workload);
        assert!(matches!(sim.0, Host::Windowed(_)));
        let sharded = sim.run();
        let obs = sharded.obs.as_ref().expect("metrics on");
        assert_eq!(obs.worker_phases.len(), 2, "one phase profile per shard");
        assert!(obs.worker_phases.iter().all(|p| !p.windows.is_empty()));
        assert_eq!(
            crate::SimStats::of(&sharded),
            crate::SimStats::of(&solo),
            "two shards must be bit-identical to one"
        );
    }

    #[test]
    fn a_lookahead_too_short_to_halve_runs_on_the_single_threaded_engine() {
        // rtt = 2 ns leaves a 1 ns one-way delay: there is no half-lookahead
        // window to run, whatever `shards` asks for.
        let config = SimulationConfig {
            duration: Duration::from_millis(200),
            rtt: Duration(2),
            bundles: vec![BundleMode::StatusQuo; 2],
            shards: 2,
            ..Default::default()
        };
        let workload = vec![
            FlowSpec::bundled(1, 50_000, Nanos::ZERO, 0),
            FlowSpec::bundled(2, 80_000, Nanos::from_millis(1), 1),
        ];
        let sharded = Simulation::new(config.clone(), workload.clone());
        assert!(matches!(sharded.0, Host::Solo(_)));
        let solo = Solo::build(config, workload, true).run(None);
        assert_eq!(
            crate::SimStats::of(&sharded.run()),
            crate::SimStats::of(&solo)
        );
    }

    #[test]
    fn one_shard_delegates_to_the_single_threaded_engine() {
        let config = SimulationConfig {
            duration: Duration::from_secs(2),
            shards: 1,
            ..Default::default()
        };
        let workload = vec![FlowSpec::bundled(1, 50_000, Nanos::ZERO, 0)];
        let sim = Simulation::new(config, workload);
        assert!(matches!(sim.0, Host::Solo(_)));
        assert_eq!(sim.run().completed, 1);
    }
}
