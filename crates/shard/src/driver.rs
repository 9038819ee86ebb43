//! The windowed multi-threaded driver.
//!
//! See the crate docs for the synchronization argument. The run is a
//! sequence of *windows* `[T, T+Δ)`, Δ = ½ lookahead, attended by three
//! kinds of thread: one **worker** per shard, one **net thread** per net
//! shard (net shard k of K owns the bottleneck paths `gid % K == k`), and
//! the **driver** — the calling thread, which only coordinates. A
//! configuration with one shard, or whose lookahead is too short to halve
//! (< 2 ns), has nothing to window over: [`ShardedSimulation`] then *is*
//! the single-threaded [`Simulation`].
//!
//! Each bundle lives on one worker for the whole run: the placement
//! ([`crate::balance::placement`]) is fixed when the cores are built, and
//! so is delivery routing. Event order is canonical, so any placement is
//! bit-identical to the single-threaded engine (property-tested in
//! `tests/equivalence.rs`).
//!
//! Before each window the driver publishes one [`WindowPlan`]; the plan
//! alone says which [`Phase`]s the window has, and every thread walks them
//! in [`Seat::attend`] — the window-start barrier, then each phase
//! followed by one barrier — supplying only its own share of each
//! ([`Party::step`]; doing nothing is the default). In plan order:
//!
//! **`Flush`** (checkpoint windows: with
//! `SimulationConfig::checkpoint_every` set and a collecting run, the
//! window starting at each interval multiple `T` — the window before it
//! ends early at `T` when `T` falls inside it). The net
//! threads run their pending net phase early, so every net event below `T`
//! is handled and its deliveries published, then serialize one section per
//! owned path.
//!
//! **`Save`** (same windows). Each worker drains its inboxes — the
//! snapshot must hold every pending event ≥ `T`, in-flight arrivals
//! included — and serializes its part: residue, the direct slice on shard
//! 0, one section per owned bundle.
//!
//! **`Run`** (every window). Each worker drains its inboxes (deliveries
//! produced in earlier windows, all timestamped ≥ T) and handles its local
//! events with `t < T+Δ`, moving packets released toward the bottleneck
//! into `(timestamp, key, packet)` envelopes; with
//! `SimulationConfig::wire_envelopes` on, each crosses the versioned
//! `NETENV` frame ([`crate::wire`]) on the way. A packet's path — and so
//! its net shard — is a pure function of the packet (`pick(pkt) mod K`, a
//! stateless copy of the net side's load balancer), identical on both
//! sides of the mailbox. Meanwhile each net thread runs the net phase of
//! the *previous* window, unless `Flush` already did: it merges that
//! window's envelopes into its queue — whose `(timestamp, key)` order is
//! the canonical merge — handles net events below that window's end and
//! routes deliveries to the owning worker's mailbox by flow id. Every
//! delivery lands ≥ 2 windows ahead (`t + lookahead ≥ T + 2Δ`), so the
//! bottleneck's work hides behind the workers instead of idling them at
//! the barrier; worker→net envelopes double-buffer by window parity, so a
//! net phase only ever drains a quiesced buffer. Paths never interact, so
//! every `(shards, net_shards)` combination is bit-identical (the
//! differential matrix in `tests/net_shards.rs`). And on a checkpoint
//! window the driver assembles the deposited parts through
//! [`snapshot::Writer::write`] — canonical order, independent of the
//! partitioning, byte-identical to the solo snapshot at the same `T` and
//! restorable into any worker or net shard count.

use std::cell::Cell;
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use bundler_obs::{wall_now_ns, NetWindow, TraceKind, WindowPhase};
use bundler_sim::directory::FlowDirectory;
use bundler_sim::event::{Event, EventKey, EventQueue};
use bundler_sim::path::LoadBalancer;
use bundler_sim::runtime::{
    assemble_report, balancer_for, bundle_lp, Delivery, NetCore, ToNet, WorkerCore, LP_BUNDLE0,
};
use bundler_sim::sim::SimulationConfig;
use bundler_sim::snapshot::{self, PathSection, RestoreHost, WorkerPart};
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimReport, Simulation};
use bundler_types::{Duration, Nanos, Packet, PacketArena};

use crate::balance::placement;
use crate::error::{self, ShardError};
use crate::mailbox::{self, Receiver, Sender};
use crate::wire::{self, WireDir};

/// Messages a mailbox holds before its vector first grows.
const MAILBOX_CAPACITY: usize = 4096;

/// A cross-shard message: a packet in flight between a worker shard and
/// a net shard, stamped with its arrival time and canonical key.
#[derive(Debug)]
struct Envelope {
    at: Nanos,
    key: EventKey,
    pkt: Packet,
}

/// Delivery routing, fixed before any thread starts and read by the net
/// threads.
struct Routing {
    /// A flow's LP is static: its workload origin, as the run's directory
    /// (the one its worker cores share) names it.
    directory: Arc<FlowDirectory>,
    /// The LP's owning worker, by the run's placement.
    worker_of_lp: Vec<usize>,
}

/// Locks a driver mutex, recovering the data from a poisoned lock: a
/// thread that panicked mid-phase has its diagnostic in `Control::diag`,
/// so the shared structures stay readable for the shutdown path instead
/// of cascading panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One stretch of a window between two barriers. See the module docs for
/// what each thread does in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Flush,
    Save,
    Run,
}

/// Everything the threads need to know about one window, published by the
/// driver before the window-start barrier.
#[derive(Debug, Clone, Default)]
struct WindowPlan {
    /// 0-based window index; its parity picks the worker→net buffer.
    windex: u64,
    /// The window is `[start, end)` in simulated time.
    start: Nanos,
    end: Nanos,
    /// Whether a checkpoint stamped `start` is taken as the window opens.
    checkpoint: bool,
    /// The run is over: there is no window, the threads return.
    stop: bool,
}

impl WindowPlan {
    /// The phases this window has, in order — the one place the sequence
    /// is stated. Each ends at a barrier.
    fn phases(&self) -> impl Iterator<Item = Phase> {
        [
            (Phase::Flush, self.checkpoint),
            (Phase::Save, self.checkpoint),
            (Phase::Run, true),
        ]
        .into_iter()
        .filter_map(|(phase, on)| on.then_some(phase))
    }
}

struct Control {
    /// Workers + net threads + driver rendezvous here: once to open a
    /// window, once more after each of its phases.
    barrier: Barrier,
    /// The current window's plan, replaced by the driver before the
    /// window-start barrier and read by every thread after it.
    plan: Mutex<Arc<WindowPlan>>,
    /// Checkpoint parts, one slot per worker shard: deposited in `Save`,
    /// taken by the driver in `Run`.
    parts: Mutex<Vec<Option<WorkerPart>>>,
    /// Per-path checkpoint sections, deposited by the net threads in
    /// `Flush`, taken by the driver in `Run`.
    sections: Mutex<Vec<PathSection>>,
    /// Filled by the first thread whose step panicked: which shard, which
    /// window, the last event it peeked, the panic message. Net thread k
    /// reports as shard `workers + k`, the driver as the one after.
    /// `std::sync::Barrier` has no poisoning, so a panicking thread must
    /// keep attending barriers or every other thread would block forever;
    /// once this is set every thread idles through its remaining steps,
    /// and the driver, which checks between windows, stops the run and
    /// surfaces the diagnostic.
    diag: Mutex<Option<ShardError>>,
}

impl Control {
    /// Whether some thread's step has panicked.
    fn failed(&self) -> bool {
        lock(&self.diag).is_some()
    }

    /// Runs one step of a thread's window unless the run has already
    /// failed. A panic must not abandon the barrier protocol: it is caught
    /// and the diagnostic slot filled (first failure wins) with
    /// `last_event` as the thread left it.
    fn guard(&self, seat: &Seat<'_>, window: u64, step: impl FnOnce()) {
        if self.failed() {
            return;
        }
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)) {
            lock(&self.diag).get_or_insert(ShardError::WorkerPanicked {
                shard: seat.shard,
                window,
                last_event: seat.last_event.get(),
                message: error::panic_message(payload.as_ref()),
            });
        }
    }
}

/// What one kind of thread contributes to a window.
trait Party {
    /// This thread's share of `phase`. Most threads have nothing to do in
    /// most phases.
    fn step(&mut self, phase: Phase, plan: &WindowPlan, seat: &Seat<'_>);

    /// What is left to do once the run is over.
    fn stop(&mut self, _seat: &Seat<'_>) {}
}

/// One thread's seat at the window barriers.
struct Seat<'a> {
    ctrl: &'a Control,
    /// The shard id this thread reports failures under.
    shard: usize,
    /// Whether barrier waits are clocked into `stall_ns` (off with obs).
    timing: bool,
    /// The last event this thread peeked before handling it in the
    /// current window — the diagnostic anchor if the handler panics.
    last_event: Cell<Option<(Nanos, EventKey)>>,
    /// Wall time spent waiting at barriers since the party last took it.
    /// An output only — nothing here feeds back into simulation state.
    stall_ns: Cell<u64>,
}

impl<'a> Seat<'a> {
    fn new(ctrl: &'a Control, shard: usize, timing: bool) -> Self {
        Seat {
            ctrl,
            shard,
            timing,
            last_event: Cell::new(None),
            stall_ns: Cell::new(0),
        }
    }

    /// The one place a thread waits for the others.
    fn wait(&self) {
        let from = if self.timing { wall_now_ns() } else { 0 };
        self.ctrl.barrier.wait();
        if self.timing {
            let waited = wall_now_ns().saturating_sub(from);
            self.stall_ns.set(self.stall_ns.get() + waited);
        }
    }

    /// Attends one window, the protocol every thread follows: the start
    /// barrier, then each phase of the published plan — `party`'s share of
    /// it inside the panic net — followed by one barrier. Returns `false`
    /// once the plan says stop.
    fn attend(&self, party: &mut impl Party) -> bool {
        self.wait();
        let plan = Arc::clone(&lock(&self.ctrl.plan));
        if plan.stop {
            self.ctrl.guard(self, plan.windex, || party.stop(self));
            return false;
        }
        for phase in plan.phases() {
            self.ctrl
                .guard(self, plan.windex, || party.step(phase, &plan, self));
            self.wait();
        }
        self.last_event.set(None);
        true
    }

    /// A worker or net thread's whole run: attend windows until the stop.
    fn attend_all(&self, party: &mut impl Party) {
        while self.attend(party) {}
    }
}

/// The multi-threaded simulation host.
///
/// `SimulationConfig::shards` selects the worker count: `1` is the
/// single-threaded [`Simulation`] (today's engine, unchanged); `k > 1`
/// places bundles once across `k` worker threads around the shared
/// bottleneck (see [`crate::balance`]) and keeps them there.
/// `SimulationConfig::net_shards` splits the bottleneck itself across
/// that many net threads by path. Results are bit-identical for every
/// worker and net shard count — see the crate docs,
/// `tests/equivalence.rs` and `tests/net_shards.rs`.
pub struct ShardedSimulation(Host);

#[allow(clippy::large_enum_variant)] // one value per run, built once, moved once
enum Host {
    /// One shard, or a lookahead too short to halve into windows: the
    /// single-threaded engine itself.
    Solo(Simulation),
    Windowed {
        config: SimulationConfig,
        /// Δ = ½ lookahead.
        window: Duration,
        cores: Cores,
        /// Simulated time the run starts from (`ZERO` for a fresh run, the
        /// snapshot's stamp after a restore).
        start: Nanos,
        /// Checkpoint cadence and fingerprint.
        writer: snapshot::Writer,
    },
}

/// The window width Δ = ½ lookahead of a configuration the windowed
/// runtime can run; `None` when the single-threaded engine runs it
/// instead (one shard, or a one-way delay below 2 ns, which leaves no
/// conservative lookahead to halve).
fn window_of(config: &SimulationConfig) -> Option<Duration> {
    let lookahead = config.lookahead();
    (config.shards > 1 && lookahead.as_nanos() >= 2).then(|| Duration(lookahead.as_nanos() / 2))
}

impl ShardedSimulation {
    /// Builds a sharded simulation from a configuration and workload.
    /// Panics, naming the id, if two specs of the workload share a flow id.
    pub fn new(config: SimulationConfig, workload: Vec<FlowSpec>) -> Self {
        ShardedSimulation(match window_of(&config) {
            None => Host::Solo(Simulation::new(config, workload)),
            Some(window) => Host::Windowed {
                cores: Cores::new(&config, workload, window, true),
                writer: snapshot::Writer::new(config.checkpoint_every, Nanos::ZERO, None),
                config,
                window,
                start: Nanos::ZERO,
            },
        })
    }

    /// Builds a sharded simulation that resumes from a snapshot taken at
    /// some earlier instant of a run with an equivalent config and the
    /// same workload — by *any* host: snapshots are partition-invariant,
    /// so a solo snapshot restores into any worker or net shard count and
    /// vice versa. The whole snapshot is validated and decoded here.
    pub fn restore(
        config: SimulationConfig,
        workload: Vec<FlowSpec>,
        bytes: &[u8],
    ) -> Result<Self, ShardError> {
        Ok(ShardedSimulation(match window_of(&config) {
            None => Host::Solo(Simulation::restore(config, workload, bytes)?),
            Some(window) => {
                let fp = snapshot::fingerprint(&config, &workload);
                let mut cores = Cores::new(&config, workload, window, false);
                let start = snapshot::restore_into(&config, bytes, fp, &mut cores)?;
                Host::Windowed {
                    writer: snapshot::Writer::new(config.checkpoint_every, start, Some(fp)),
                    config,
                    window,
                    cores,
                    start,
                }
            }
        }))
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// Panics on worker failure, with the [`ShardError`] diagnostic as the
    /// message; use [`try_run`](ShardedSimulation::try_run) to handle
    /// failures as values.
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, surfacing worker panics as a
    /// typed [`ShardError`] (with shard id, window and last event key)
    /// instead of unwinding.
    pub fn try_run(self) -> Result<SimReport, ShardError> {
        self.try_run_inner(None)
    }

    /// Runs to completion, pushing a `(time, bytes)` whole-simulation
    /// snapshot into `sink` at every
    /// [`SimulationConfig::checkpoint_every`] multiple, stamped exactly
    /// there on either host. Panics on worker failure; see
    /// [`try_run_collecting`](ShardedSimulation::try_run_collecting).
    pub fn run_collecting(self, sink: &mut Vec<(Nanos, Vec<u8>)>) -> SimReport {
        self.try_run_collecting(sink)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`run_collecting`](ShardedSimulation::run_collecting) with typed
    /// errors.
    pub fn try_run_collecting(
        self,
        sink: &mut Vec<(Nanos, Vec<u8>)>,
    ) -> Result<SimReport, ShardError> {
        let mut push = |at: Nanos, blob: Vec<u8>| sink.push((at, blob));
        self.try_run_inner(Some(&mut push))
    }

    /// Streaming checkpoint form: invokes `sink` with each checkpoint as
    /// it is taken, so callers can persist them externally (e.g. to disk
    /// for crash recovery).
    pub fn try_run_with_checkpoints(
        self,
        mut sink: impl FnMut(Nanos, Vec<u8>),
    ) -> Result<SimReport, ShardError> {
        self.try_run_inner(Some(&mut sink))
    }

    fn try_run_inner(
        self,
        sink: Option<&mut dyn FnMut(Nanos, Vec<u8>)>,
    ) -> Result<SimReport, ShardError> {
        match self.0 {
            Host::Solo(sim) => Ok(match sink {
                Some(f) => sim.run_with_checkpoints(f),
                None => sim.run(),
            }),
            Host::Windowed {
                config,
                window,
                cores,
                start,
                writer,
            } => run_sharded(config, window, cores, start, writer, sink),
        }
    }
}

/// One worker core plus everything its steps touch: its queue, arena,
/// mailboxes and scratch buffers. Owned by its worker thread once the run
/// starts.
struct Worker {
    core: WorkerCore,
    queue: EventQueue,
    arena: PacketArena,
    /// Worker→net senders, one pair (by window parity) per net shard.
    to_net: Vec<[Sender<Envelope>; 2]>,
    /// Net→worker inboxes, one per net shard.
    inboxes: Vec<Receiver<Envelope>>,
    /// Scratch the inboxes drain through.
    inbound: Vec<Envelope>,
    /// Scratch the core hands its bottleneck-bound packets out through.
    outbound: Vec<ToNet>,
    /// Stateless copy of the net side's load balancer: a packet's path —
    /// and therefore its owning net shard — is a pure function of the
    /// packet, so both sides of the mailbox compute the same route.
    lb: LoadBalancer,
    /// With `wire_envelopes` on, the scratch every outbound envelope is
    /// encoded→decoded through (the NETENV frame).
    wire: Option<Vec<u8>>,
}

/// One net core plus everything its phases touch: its queue, arena,
/// mailboxes and scratch buffers. Owned by its net thread once the run
/// starts.
struct NetSide {
    net: NetCore,
    queue: EventQueue,
    arena: PacketArena,
    /// Worker→net receivers, indexed by worker, double-buffered by parity.
    rx: Vec<[Receiver<Envelope>; 2]>,
    /// Net→worker senders, indexed by worker.
    to_worker: Vec<Sender<Envelope>>,
    routing: Arc<Routing>,
    /// The `(index, start, end)` of the worker window whose net phase has
    /// yet to run.
    pending: Option<(u64, Nanos, Nanos)>,
    /// Δ, the widest a window can be.
    window: Duration,
    /// As [`Worker::wire`], for deliveries.
    wire: Option<Vec<u8>>,
    /// Per-window phase timings for the report's observability section.
    windows: Vec<NetWindow>,
    inbound: Vec<Envelope>,
    deliveries: Vec<Delivery>,
}

/// Every core of a windowed run, wired to its mailboxes on the calling
/// thread before any worker or net thread exists.
struct Cores {
    routing: Arc<Routing>,
    /// One per worker shard.
    workers: Vec<Worker>,
    /// One per net shard: net shard k owns the paths `gid % K == k`; every
    /// core holds the full path vector so global path ids index directly.
    sides: Vec<NetSide>,
}

impl Cores {
    /// `fresh` cores own the bundles placed on them and hold the run's
    /// initial events; the others own nothing and hold none — every
    /// bundle complex and pending event arrives from a snapshot.
    fn new(
        config: &SimulationConfig,
        workload: Vec<FlowSpec>,
        window: Duration,
        fresh: bool,
    ) -> Self {
        let shards = config.shards;
        let directory = Arc::new(FlowDirectory::new(workload));
        let placed = placement(config, directory.specs(), shards);
        // Delivery routing: a flow's LP is static (its workload origin);
        // the LP's owning worker is worker 0 for the LPs below the bundles'
        // and the placement's for those.
        let below = std::iter::repeat_n(0, LP_BUNDLE0 as usize);
        let routing = Arc::new(Routing {
            directory: Arc::clone(&directory),
            worker_of_lp: below.chain(placed.iter().copied()).collect(),
        });
        let net_shards = config.effective_net_shards();
        let mut sides: Vec<NetSide> = (0..net_shards)
            .map(|k| {
                let mut net = NetCore::with_partition(config, k, net_shards);
                let mut queue = EventQueue::new();
                if fresh {
                    net.schedule_initial(&mut queue);
                }
                NetSide {
                    net,
                    queue,
                    arena: PacketArena::with_capacity(1024),
                    rx: Vec::with_capacity(shards),
                    to_worker: Vec::with_capacity(shards),
                    routing: Arc::clone(&routing),
                    pending: None,
                    window,
                    wire: config.wire_envelopes.then(Vec::new),
                    windows: Vec::new(),
                    inbound: Vec::with_capacity(256),
                    deliveries: Vec::with_capacity(64),
                }
            })
            .collect();
        // Mailboxes: worker→net envelopes double-buffer by window parity,
        // one pair per (worker, net shard); net→worker deliveries use one
        // mailbox per (net shard, worker). Every mailbox has fixed
        // producer and consumer threads; publication is ordered by the
        // barriers.
        let workers = (0..shards)
            .map(|index| {
                let owned = placed
                    .iter()
                    .map(|&owner| fresh && owner == index)
                    .collect();
                let directory = Arc::clone(&directory);
                let mut core = WorkerCore::with_owned(config, directory, index, owned);
                let mut queue = EventQueue::new();
                if fresh {
                    core.schedule_initial(&mut queue);
                }
                let mut to_net = Vec::with_capacity(net_shards);
                let mut inboxes = Vec::with_capacity(net_shards);
                for side in sides.iter_mut() {
                    let (tx_even, rx_even) = mailbox::channel(MAILBOX_CAPACITY);
                    let (tx_odd, rx_odd) = mailbox::channel(MAILBOX_CAPACITY);
                    to_net.push([tx_even, tx_odd]);
                    side.rx.push([rx_even, rx_odd]);
                    let (tx, rx) = mailbox::channel(MAILBOX_CAPACITY);
                    side.to_worker.push(tx);
                    inboxes.push(rx);
                }
                Worker {
                    core,
                    queue,
                    arena: PacketArena::with_capacity(1024),
                    to_net,
                    inboxes,
                    inbound: Vec::with_capacity(256),
                    outbound: Vec::with_capacity(64),
                    lb: balancer_for(config),
                    wire: config.wire_envelopes.then(Vec::new),
                }
            })
            .collect();
        Cores {
            routing,
            workers,
            sides,
        }
    }
}

impl RestoreHost for Cores {
    fn worker(
        &mut self,
        bundle: Option<usize>,
    ) -> (&mut WorkerCore, &mut EventQueue, &mut PacketArena) {
        // The direct LP lives on shard 0, and the whole-run residue lands
        // there too: `assemble_report` sums across shards, so totals are
        // placement-independent.
        let owner = bundle.map_or(0, |b| self.routing.worker_of_lp[bundle_lp(b) as usize]);
        let w = &mut self.workers[owner];
        (&mut w.core, &mut w.queue, &mut w.arena)
    }

    fn net(&mut self, gid: usize) -> (&mut NetCore, &mut EventQueue, &mut PacketArena) {
        let k = gid % self.sides.len();
        let side = &mut self.sides[k];
        (&mut side.net, &mut side.queue, &mut side.arena)
    }
}

impl NetSide {
    /// Runs the pending net phase, if there is one: merge that worker
    /// window's envelopes (by parity), handle net events below its end,
    /// route deliveries to the owner of each flow's LP.
    fn run_pending(&mut self, seat: &Seat<'_>) {
        let Some((windex, start, window_end)) = self.pending.take() else {
            return;
        };
        let timing = self.net.obs.metrics_on();
        let phase_start = if timing { wall_now_ns() } else { 0 };
        let events_before = self.net.events_processed();
        let parity = (windex % 2) as usize;
        for rx in self.rx.iter_mut() {
            rx[parity].drain_into(&mut self.inbound);
            for m in self.inbound.drain(..) {
                debug_assert!(m.at < window_end, "envelope beyond its window");
                let pkt = self.arena.insert(m.pkt);
                self.queue
                    .schedule(m.at, m.key, Event::ArriveBottleneck { pkt });
            }
        }
        while let Some((t, key)) = self.queue.peek() {
            if t >= window_end {
                break;
            }
            seat.last_event.set(Some((t, key)));
            let (now, event) = self.queue.pop().expect("peeked");
            self.net.handle(
                event,
                now,
                &mut self.arena,
                &mut self.queue,
                &mut self.deliveries,
            );
            for d in self.deliveries.drain(..) {
                // Conservative lookahead: the delivery must clear the worker
                // window running concurrently with this net phase.
                debug_assert!(
                    d.at >= window_end + self.window,
                    "delivery inside a window already running"
                );
                let flow = self.arena[d.pkt].flow;
                let lp = self.routing.directory.lp_of(flow);
                let lp = lp.expect("flow has an origin") as usize;
                let worker = self.routing.worker_of_lp[lp];
                let mut pkt = self.arena.remove(d.pkt);
                if let Some(buf) = &mut self.wire {
                    pkt = wire::roundtrip(WireDir::Delivery, d.at, d.key, pkt, buf);
                }
                self.to_worker[worker].send(Envelope {
                    at: d.at,
                    key: d.key,
                    pkt,
                });
            }
        }
        if timing {
            let wall_dur_ns = wall_now_ns().saturating_sub(phase_start);
            let events = self.net.events_processed() - events_before;
            let width_ns = window_end.saturating_since(start).as_nanos();
            self.net.obs.host.windows += 1;
            self.windows.push(NetWindow {
                windex,
                net_shard: self.net.shard() as u16,
                wall_ns: wall_dur_ns,
                events,
            });
            self.net.obs.record(
                start,
                TraceKind::NetPhase {
                    windex,
                    width_ns,
                    wall_dur_ns,
                    events,
                },
            );
            // With a streaming sink the window's records leave the process
            // here; in-memory runs keep accumulating in the sink vec.
            self.net.obs.flush(window_end);
        }
    }
}

impl Party for NetSide {
    fn step(&mut self, phase: Phase, plan: &WindowPlan, seat: &Seat<'_>) {
        match phase {
            // The snapshot is the state at `plan.start`, so the pending
            // phase — the previous worker window's, whose parity buffers
            // quiesced at the barrier that ended it — cannot wait for
            // `Run`.
            Phase::Flush => {
                self.run_pending(seat);
                let sections = self
                    .net
                    .save_sections(&mut self.queue, &self.arena, plan.start);
                lock(&seat.ctrl.sections).extend(sections);
            }
            Phase::Run => {
                self.run_pending(seat);
                self.pending = Some((plan.windex, plan.start, plan.end));
            }
            _ => {}
        }
    }

    /// The final worker window's phase: its deliveries land in mailboxes
    /// nothing will drain (they are timestamped past the end of the run),
    /// but the events below the end must be handled for the report's
    /// counters.
    fn stop(&mut self, seat: &Seat<'_>) {
        self.run_pending(seat);
    }
}

impl Worker {
    /// Schedules every available inbound delivery (from every net shard's
    /// mailbox) into the local queue and records how many messages were
    /// waiting (the mailbox-depth signal) when metrics are on. Insertion
    /// order across mailboxes is irrelevant: the queue sorts by the
    /// canonical `(timestamp, key)` order.
    fn drain_inbox(&mut self) {
        let mut drained = 0;
        for inbox in self.inboxes.iter_mut() {
            inbox.drain_into(&mut self.inbound);
            drained += self.inbound.len() as u64;
            for m in self.inbound.drain(..) {
                let pkt = self.arena.insert(m.pkt);
                self.queue
                    .schedule(m.at, m.key, Event::ArriveDestination { pkt });
            }
        }
        if self.core.obs.metrics_on() {
            self.core.obs.host.inbox_messages += drained;
            self.core.obs.host.mailbox_depth.record(drained);
        }
    }

    /// The `Run` phase: handle every local event below the window's end,
    /// mailing bottleneck-bound packets to the net shard that owns their
    /// path, then record the window's phase profile.
    fn run_window(&mut self, plan: &WindowPlan, seat: &Seat<'_>) {
        // Phase profiling (metrics level and up): wall time split into
        // barrier stall vs. event processing, per window.
        let timing = self.core.obs.metrics_on();
        let stall_ns = seat.stall_ns.take();
        let events_before = self.core.events_processed();
        let busy_from = if timing { wall_now_ns() } else { 0 };
        self.drain_inbox();
        let parity = (plan.windex % 2) as usize;
        let net_shards = self.to_net.len();
        while let Some((t, key)) = self.queue.peek() {
            if t >= plan.end {
                break;
            }
            seat.last_event.set(Some((t, key)));
            let (now, event) = self.queue.pop().expect("peeked");
            self.core.handle(
                event,
                now,
                &mut self.arena,
                &mut self.queue,
                &mut self.outbound,
            );
            for m in self.outbound.drain(..) {
                debug_assert_eq!(m.at, now, "bottleneck entry is a zero-latency hop");
                let mut pkt = self.arena.remove(m.pkt);
                // The packet's path is a pure function of the packet; its
                // owning net shard follows from the partition rule
                // `gid % net_shards`.
                let net_shard = self.lb.pick(&pkt) % net_shards;
                if let Some(buf) = &mut self.wire {
                    pkt = wire::roundtrip(WireDir::ToNet, m.at, m.key, pkt, buf);
                }
                self.to_net[net_shard][parity].send(Envelope {
                    at: m.at,
                    key: m.key,
                    pkt,
                });
            }
        }
        if timing {
            let busy_ns = wall_now_ns().saturating_sub(busy_from);
            let events = self.core.events_processed() - events_before;
            self.core.obs.host.windows += 1;
            self.core.obs.phases.push(WindowPhase {
                windex: plan.windex,
                busy_ns,
                stall_ns,
                events,
            });
            self.core.obs.record(
                plan.start,
                TraceKind::WorkerWindow {
                    windex: plan.windex,
                    width_ns: plan.end.saturating_since(plan.start).as_nanos(),
                    busy_ns,
                    stall_ns,
                    events,
                },
            );
            // One window's records fit the ring by construction; the sink
            // (or the streaming export, when configured) accumulates the
            // run's trace window by window.
            self.core.obs.flush(plan.end);
        }
    }
}

impl Party for Worker {
    fn step(&mut self, phase: Phase, plan: &WindowPlan, seat: &Seat<'_>) {
        match phase {
            // The net threads' turn; every delivery below the checkpoint
            // instant is in a mailbox once it ends.
            Phase::Flush => {}
            Phase::Save => {
                self.drain_inbox();
                let part = self
                    .core
                    .save_part(&mut self.queue, &self.arena, plan.start);
                lock(&seat.ctrl.parts)[self.core.shard()] = Some(part);
            }
            Phase::Run => self.run_window(plan, seat),
        }
    }
}

/// The driver's own share of a window: it hands out checkpoints.
struct Driver<'a> {
    config: SimulationConfig,
    /// The run's directory, for the workload every checkpoint's
    /// fingerprint covers.
    directory: Arc<FlowDirectory>,
    writer: snapshot::Writer,
    sink: Option<&'a mut dyn FnMut(Nanos, Vec<u8>)>,
}

impl Party for Driver<'_> {
    fn step(&mut self, phase: Phase, plan: &WindowPlan, seat: &Seat<'_>) {
        // Every part was deposited before the barrier that ended `Save`;
        // assembling them rides along with the workers' `Run`.
        let ctrl = seat.ctrl;
        if phase == Phase::Run && plan.checkpoint {
            let blob = self.writer.write(
                &self.config,
                self.directory.specs(),
                plan.start,
                lock(&ctrl.parts).iter_mut().filter_map(Option::take),
                std::mem::take(&mut *lock(&ctrl.sections)),
            );
            if let Some(sink) = self.sink.as_deref_mut() {
                sink(plan.start, blob);
            }
        }
    }
}

fn run_sharded(
    config: SimulationConfig,
    window: Duration,
    cores: Cores,
    start: Nanos,
    writer: snapshot::Writer,
    sink: Option<&mut dyn FnMut(Nanos, Vec<u8>)>,
) -> Result<SimReport, ShardError> {
    let Cores {
        routing,
        mut workers,
        mut sides,
    } = cores;
    let shards = workers.len();
    let net_shards = sides.len();
    let end = Nanos::ZERO + config.duration;

    let ctrl = &Control {
        barrier: Barrier::new(shards + net_shards + 1),
        plan: Mutex::default(),
        parts: Mutex::new((0..shards).map(|_| None).collect()),
        sections: Mutex::default(),
        diag: Mutex::new(None),
    };
    let mut driver = Driver {
        config,
        directory: Arc::clone(&routing.directory),
        writer,
        sink,
    };
    std::thread::scope(|s| {
        // Spawned in shard-id order: workers, then net threads.
        let mut threads = Vec::with_capacity(shards + net_shards);
        for (index, worker) in workers.iter_mut().enumerate() {
            let timing = worker.core.obs.metrics_on();
            let thread = std::thread::Builder::new()
                .name(format!("bundler-shard-{index}"))
                .spawn_scoped(s, move || Seat::new(ctrl, index, timing).attend_all(worker));
            threads.push(thread.expect("spawn worker shard"));
        }
        for (k, side) in sides.iter_mut().enumerate() {
            let thread = std::thread::Builder::new()
                .name(format!("bundler-net-{k}"))
                .spawn_scoped(s, move || {
                    Seat::new(ctrl, shards + k, false).attend_all(side)
                });
            threads.push(thread.expect("spawn net shard"));
        }
        let seat = Seat::new(ctrl, shards + net_shards, false);
        let mut plan = WindowPlan {
            start,
            ..WindowPlan::default()
        };
        loop {
            // A window ends early at the writer's next target, so the
            // window after it opens there and takes the checkpoint, stamped
            // at the exact multiple as the single-threaded host stamps it.
            // A shorter window keeps the lookahead argument: every window
            // is at most Δ wide.
            let due = driver.writer.due().filter(|_| driver.sink.is_some());
            plan.checkpoint = due.is_some_and(|due| plan.start >= due);
            let cut = due.filter(|&due| due > plan.start).unwrap_or(end);
            plan.end = (plan.start + window).min(end).min(cut);
            plan.stop = plan.start >= end || ctrl.failed();
            *lock(&ctrl.plan) = Arc::new(plan.clone());
            if !seat.attend(&mut driver) {
                break;
            }
            plan.start = plan.end;
            plan.windex += 1;
        }
        for (shard, thread) in threads.into_iter().enumerate() {
            // A thread that unwound outside the panic net (or was killed).
            if let Err(payload) = thread.join() {
                lock(&ctrl.diag).get_or_insert(ShardError::WorkerPanicked {
                    shard,
                    window: plan.windex,
                    last_event: None,
                    message: error::panic_message(payload.as_ref()),
                });
            }
        }
    });

    if let Some(err) = lock(&ctrl.diag).take() {
        return Err(err);
    }
    let arenas = workers.iter().map(|w| &w.arena);
    let recycled = arenas
        .chain(sides.iter().map(|side| &side.arena))
        .map(PacketArena::recycled)
        .sum();
    let mut net_windows: Vec<NetWindow> = sides
        .iter_mut()
        .flat_map(|side| std::mem::take(&mut side.windows))
        .collect();
    net_windows.sort_by_key(|w| (w.windex, w.net_shard));
    let workers = workers.into_iter().map(|w| w.core).collect();
    let nets = sides.into_iter().map(|side| side.net).collect();
    let finished = driver.writer.into_finished();
    let mut report = assemble_report(&driver.config, finished, workers, nets, recycled);
    if let Some(obs) = report.obs.as_mut() {
        obs.net_phase = bundler_obs::NetPhaseProfile {
            windows: net_windows,
        };
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_sim::runtime::LP_NET;

    /// The one place the phase sequence is stated, walked over both kinds
    /// of window.
    #[test]
    fn a_plan_names_its_phases_in_order() {
        use Phase::*;
        let phases = |checkpoint| {
            let plan = WindowPlan {
                checkpoint,
                ..WindowPlan::default()
            };
            plan.phases().collect::<Vec<_>>()
        };
        assert_eq!(phases(false), [Run]);
        assert_eq!(phases(true), [Flush, Save, Run]);
    }

    #[test]
    #[should_panic(expected = "two workload specs share flow id 2")]
    fn a_workload_naming_one_id_twice_panics() {
        let config = SimulationConfig {
            bundles: vec![bundler_sim::edge::BundleMode::StatusQuo; 2],
            shards: 2,
            ..Default::default()
        };
        let workload = vec![
            FlowSpec::bundled(2, 50_000, Nanos::ZERO, 0),
            FlowSpec::bundled(2, 80_000, Nanos::from_millis(1), 1),
        ];
        ShardedSimulation::new(config, workload);
    }

    /// A net thread that panics mid-phase reports the event it had just
    /// peeked, as a worker does: here a worker event planted in net shard
    /// 0's queue, which `NetCore::handle` refuses.
    #[test]
    fn a_net_thread_panic_names_the_event_it_was_handling() {
        let config = SimulationConfig {
            duration: Duration::from_millis(200),
            bundles: vec![bundler_sim::edge::BundleMode::StatusQuo; 2],
            shards: 2,
            ..Default::default()
        };
        let workload = vec![
            FlowSpec::bundled(1, 50_000, Nanos::ZERO, 0),
            FlowSpec::bundled(2, 80_000, Nanos::from_millis(1), 1),
        ];
        let window = window_of(&config).expect("two shards, 25 ms of lookahead");
        let mut cores = Cores::new(&config, workload, window, true);
        let stray = (Nanos::from_millis(30), EventKey::new(bundle_lp(0), 999));
        let tick = Event::ControlTick { bundle: 0 };
        cores.sides[0].queue.schedule(stray.0, stray.1, tick);
        let writer = snapshot::Writer::new(None, Nanos::ZERO, None);
        match run_sharded(config, window, cores, Nanos::ZERO, writer, None) {
            Err(ShardError::WorkerPanicked {
                shard,
                last_event,
                message,
                ..
            }) => {
                assert_eq!(shard, 2, "net thread 0 reports as shard workers + 0");
                assert_eq!(last_event, Some(stray));
                assert!(message.contains("routed to the net core"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {:?}", other.map(|_| ())),
        }
    }

    /// A worker that panics inside a checkpoint's `Save` phase ends the
    /// run with the typed diagnostic, emits no checkpoint, and never
    /// hangs. The trigger is a delivery planted in worker 0's queue for a
    /// packet its arena does not hold, stamped after the first checkpoint:
    /// it is still pending when that checkpoint saves the queue.
    #[test]
    fn a_worker_panic_while_saving_a_checkpoint_is_typed() {
        let every = Duration::from_millis(50);
        let config = SimulationConfig {
            duration: Duration::from_millis(200),
            bundles: vec![bundler_sim::edge::BundleMode::StatusQuo; 2],
            shards: 2,
            checkpoint_every: Some(every),
            ..Default::default()
        };
        let workload = vec![
            FlowSpec::bundled(1, 50_000, Nanos::ZERO, 0),
            FlowSpec::bundled(2, 80_000, Nanos::from_millis(1), 1),
        ];
        let window = window_of(&config).expect("two shards, 25 ms of lookahead");
        let mut cores = Cores::new(&config, workload, window, true);
        let stray = Event::ArriveDestination {
            pkt: bundler_types::PacketId::from_index(u32::MAX),
        };
        let key = EventKey::new(bundle_lp(0), 999);
        cores.workers[0]
            .queue
            .schedule(Nanos::from_millis(80), key, stray);
        let writer = snapshot::Writer::new(config.checkpoint_every, Nanos::ZERO, None);
        let mut emitted = 0;
        let mut sink = |_: Nanos, _: Vec<u8>| emitted += 1;
        match run_sharded(config, window, cores, Nanos::ZERO, writer, Some(&mut sink)) {
            Err(ShardError::WorkerPanicked {
                shard,
                window: windex,
                last_event,
                message,
            }) => {
                assert_eq!(shard, 0);
                assert_eq!(
                    windex,
                    every.as_nanos() / window.as_nanos(),
                    "the first checkpoint's window"
                );
                assert_eq!(last_event, None, "outside event processing");
                assert!(message.contains("index out of bounds"), "{message}");
            }
            other => panic!("expected WorkerPanicked, got {:?}", other.map(|_| ())),
        }
        assert_eq!(emitted, 0, "a failed run emits no checkpoint");
    }

    /// The mailbox-merge ordering rule: envelopes from several shards'
    /// mailboxes, scheduled into the receiving queue, pop in
    /// `(timestamp, key)` order — ties on the timestamp break by the
    /// canonical `(lp, seq)` key, no matter which mailbox delivered first.
    #[test]
    fn mailbox_merge_breaks_ties_by_timestamp_then_key() {
        let t = Nanos::from_millis(5);
        let (mut tx_a, mut rx_a) = mailbox::channel::<(Nanos, EventKey, u32)>(8);
        let (mut tx_b, mut rx_b) = mailbox::channel::<(Nanos, EventKey, u32)>(8);
        // Shard B's messages arrive first but carry later keys; one
        // earlier-timestamped straggler sits behind them.
        tx_b.send((t, EventKey::new(bundle_lp(3), 7), 31));
        tx_b.send((t, EventKey::new(bundle_lp(3), 9), 32));
        tx_a.send((t, EventKey::new(bundle_lp(0), 12), 1));
        tx_a.send((Nanos::from_millis(4), EventKey::new(bundle_lp(0), 99), 0));
        let mut q = EventQueue::new();
        let mut buf = Vec::new();
        for rx in [&mut rx_b, &mut rx_a] {
            rx.drain_into(&mut buf);
            for (at, key, bundle) in buf.drain(..) {
                q.schedule(at, key, Event::ControlTick { bundle });
            }
        }
        // Net events merge under the same order.
        q.schedule(t, EventKey::new(LP_NET, 2), Event::Sample { lp: LP_NET });
        let order: Vec<(Nanos, Option<u32>)> = std::iter::from_fn(|| q.pop())
            .map(|(at, e)| {
                (
                    at,
                    match e {
                        Event::ControlTick { bundle } => Some(bundle),
                        _ => None,
                    },
                )
            })
            .collect();
        assert_eq!(
            order,
            vec![
                (Nanos::from_millis(4), Some(0)), // earliest timestamp wins
                (t, None),                        // then key order: net lp 0
                (t, Some(1)),                     // bundle 0's lp
                (t, Some(31)),                    // bundle 3's lp, seq 7
                (t, Some(32)),                    // bundle 3's lp, seq 9
            ]
        );
    }

    #[test]
    fn a_lookahead_too_short_to_halve_runs_on_the_single_threaded_engine() {
        // rtt = 2 ns leaves a 1 ns one-way delay: there is no half-lookahead
        // window to run, whatever `shards` asks for.
        let config = SimulationConfig {
            duration: Duration::from_millis(200),
            rtt: Duration(2),
            bundles: vec![bundler_sim::edge::BundleMode::StatusQuo; 2],
            shards: 2,
            ..Default::default()
        };
        let workload = vec![
            FlowSpec::bundled(1, 50_000, Nanos::ZERO, 0),
            FlowSpec::bundled(2, 80_000, Nanos::from_millis(1), 1),
        ];
        let sharded = ShardedSimulation::new(config.clone(), workload.clone());
        assert!(matches!(sharded.0, Host::Solo(_)));
        let solo = Simulation::new(config, workload).run();
        assert_eq!(
            bundler_sim::SimStats::of(&sharded.run()),
            bundler_sim::SimStats::of(&solo)
        );
    }

    #[test]
    fn one_shard_delegates_to_the_single_threaded_engine() {
        let config = SimulationConfig {
            duration: bundler_types::Duration::from_secs(2),
            shards: 1,
            ..Default::default()
        };
        let workload = vec![FlowSpec::bundled(1, 50_000, Nanos::ZERO, 0)];
        let sharded = ShardedSimulation::new(config, workload);
        assert!(matches!(sharded.0, Host::Solo(_)));
        assert_eq!(sharded.run().completed, 1);
    }
}
