//! The windowed multi-threaded driver.
//!
//! See the crate docs for the synchronization argument. The run is a
//! sequence of *windows* `[T, T+Δ)` delimited by barriers, with Δ = ½
//! lookahead. Three kinds of thread attend every barrier:
//!
//! * **Workers** (one per shard). Within a window each drains its inbound
//!   mailboxes (deliveries produced in earlier windows, all timestamped
//!   ≥ T) and handles its local events with `t < T+Δ`, moving packets
//!   released toward the bottleneck into `(timestamp, key, packet)`
//!   envelopes.
//! * **Net threads** (one per net shard, at least one). The net phase for
//!   window W drains every worker's envelopes of that window into the net
//!   event queue — whose `(timestamp, key)` order is the canonical merge —
//!   handles net events below the window's end, and routes the resulting
//!   deliveries to the owning worker's mailbox by flow id. It runs
//!   *during worker window W+1*: every delivery it produces lands ≥ 2
//!   windows ahead (`t + lookahead ≥ T_W + 2Δ`), so the bottleneck's work
//!   hides behind the workers instead of idling them at the barrier.
//!   Worker→net envelopes double-buffer by window parity so a net phase
//!   only ever drains a quiesced buffer; net→worker deliveries go through
//!   mailboxes whose producer and consumer are fixed threads, and are
//!   published strictly before the barrier that opens the window that
//!   could need them.
//! * **The driver** (the calling thread) only coordinates: it publishes
//!   each window's end and phases, runs the balancer between windows and
//!   assembles checkpoints.
//!
//! A configuration with one shard, or whose lookahead is too short to
//! halve (< 2 ns), has nothing to window over: [`ShardedSimulation`] then
//! *is* the single-threaded [`Simulation`].
//!
//! * **Net sharding.** `SimulationConfig::net_shards = K` splits the
//!   bottleneck across K net threads: net shard k owns the paths
//!   `{gid : gid mod K == k}`, with its own event queue, arena and
//!   per-path key streams ([`NetCore::with_partition`]). Workers route
//!   each outbound packet with a stateless copy of the net side's load
//!   balancer (`pick(pkt) mod K`), so a packet's path — and therefore its
//!   owning net shard — is a pure function of the packet, identical on
//!   both sides of the mailbox. Paths never interact with each other, so
//!   disjoint queues preserve the canonical order and every
//!   `(shards, net_shards)` combination is bit-identical — proven by the
//!   differential matrix in `tests/net_shards.rs`.
//! * **Wire-format envelopes.** With `SimulationConfig::wire_envelopes`
//!   on, every envelope is encoded→decoded through the versioned `NETENV`
//!   frame ([`crate::wire`]) at its sending edge, exercising the portable
//!   byte format in live traffic without changing any result.
//! * **Migration phases.** When the balancer re-packs bundles
//!   ([`crate::balance`]), the window opens with an extra barrier: owners
//!   first drain their inboxes (so in-flight deliveries for a migrating
//!   bundle are in the queue) and deposit [`BundleParcel`]s, then — after
//!   the rendezvous — adopters install them. Because re-partitioning
//!   happens only at barriers and event order is canonical, *any*
//!   migration schedule is bit-identical to the single-threaded engine
//!   (property-tested in `tests/equivalence.rs`).
//! * **Checkpoint phases.** With `SimulationConfig::checkpoint_every` set
//!   and a collecting run, the first window boundary at or past each
//!   interval multiple opens with a checkpoint rendezvous: the net threads
//!   run their pending phases early (so every net event below the boundary
//!   `T` is processed and its deliveries published) and serialize one
//!   section per owned path; behind the net-flush barrier each worker
//!   drains its inboxes and serializes its partition — residue, the direct
//!   slice on shard 0, one [`BundleParcel`] per owned bundle. After one
//!   more barrier the driver assembles the parts, **in canonical order,
//!   independent of the partitioning** (bundles ascending, then path
//!   sections ascending by global path id), into the same versioned wire
//!   format the single-threaded host writes (`bundler_sim::snapshot`) —
//!   byte-identical to the solo snapshot at the same `T`, restorable into
//!   any worker or net shard count.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use bundler_core::FnvHashMap;
use bundler_obs::{wall_now_ns, HealthKind, NetWindow, TraceKind, WindowPhase};
use bundler_sim::event::{Event, EventKey, EventQueue};
use bundler_sim::path::LoadBalancer;
use bundler_sim::runtime::{
    assemble_report, balancer_for, bundle_lp, origin_lp, BundleParcel, Delivery, NetCore,
    Partition, ToNet, WorkerCore, WorkerResidue, LP_BUNDLE0,
};
use bundler_sim::sim::SimulationConfig;
use bundler_sim::snapshot::{self, RestoreHost};
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimReport, Simulation};
use bundler_types::{Duration, FlowId, Nanos, Packet, PacketArena};
use serde::binary::Encode;

use crate::balance::{Balancer, Move};
use crate::error::{self, ShardError};
use crate::mailbox::{self, Receiver, Sender};
use crate::wire::{self, WireDir};

/// Ring capacity per mailbox (messages); bursts beyond this spill to the
/// mailbox's lossless slow path.
const MAILBOX_CAPACITY: usize = 4096;

/// A cross-shard message: a packet in flight between a worker shard and
/// a net shard, stamped with its arrival time and canonical key.
#[derive(Debug)]
struct Envelope {
    at: Nanos,
    key: EventKey,
    pkt: Packet,
}

/// `(path global id, serialized section)` — one bottleneck path's slice
/// of a checkpoint, as deposited by the net thread that owns the path.
type PathSection = (usize, Vec<u8>);

/// One worker's serialized partition of a whole-simulation snapshot,
/// deposited at the checkpoint rendezvous and assembled by the driver.
struct CheckpointPart {
    /// The worker's merged accumulators (fcts, counters, agent stats).
    residue: WorkerResidue,
    /// The direct-traffic slice — present exactly on shard 0, which owns
    /// the direct LP.
    direct: Option<Vec<u8>>,
    /// `(bundle index, serialized parcel)` for every bundle the worker
    /// owned at the rendezvous.
    bundles: Vec<(usize, Vec<u8>)>,
}

/// Delivery routing state shared by the driver (writer, at window ends)
/// and the net threads (readers, during net phases). The window barriers
/// separate writes from reads; the atomics make the sharing sound.
struct Routing {
    /// A flow's LP is static: its workload origin.
    lp_of_flow: FnvHashMap<FlowId, u16>,
    /// The LP's owning worker follows the balancer's assignment.
    worker_of_lp: Vec<AtomicUsize>,
}

/// Locks a driver mutex, recovering the data from a poisoned lock: a
/// worker that panicked mid-phase is already flagged via
/// `Control::panicked` and its diagnostic slot, so the shared structures
/// stay readable for the shutdown path instead of cascading panics.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct Control {
    /// Workers + net threads + driver rendezvous here twice per window
    /// (plus one more on migration windows, and two more on checkpoint
    /// windows).
    barrier: Barrier,
    /// End of the current window (exclusive), as nanoseconds.
    window_end: AtomicU64,
    /// Whether the current window opens with a migration phase (plan and
    /// parcel slots are valid). Set before the window-start barrier.
    migrating: AtomicBool,
    /// The migration plan for the current window.
    plan: Mutex<Vec<Move>>,
    /// Parcels in transit, one slot per plan entry; deposited by the
    /// `from` worker before the migration barrier, taken by the `to`
    /// worker after it.
    parcels: Mutex<Vec<Option<BundleParcel>>>,
    /// Whether the current window opens with a checkpoint phase (the
    /// stamp and part slots are valid). Set before the window-start
    /// barrier.
    checkpoint: AtomicBool,
    /// The simulated instant the checkpoint is stamped with (the window
    /// start), as nanoseconds.
    checkpoint_at: AtomicU64,
    /// Checkpoint parts, one slot per worker shard; deposited before the
    /// checkpoint barrier, assembled by the driver after it.
    parts: Mutex<Vec<Option<CheckpointPart>>>,
    /// Per-path checkpoint sections, one slot per net thread; deposited
    /// before the net-flush barrier on checkpoint windows.
    net_parts: Mutex<Vec<Option<Vec<PathSection>>>>,
    /// Cumulative handled-event count per bundle, stored by the bundle's
    /// current owner at each window end and read by the driver after the
    /// end barrier — the balancer's load signal.
    counts: Vec<AtomicU64>,
    /// Set before the final barrier release.
    stop: AtomicBool,
    /// Set by a worker or net thread whose window processing panicked.
    /// `std::sync::Barrier` has no poisoning, so a panicking thread must
    /// keep attending barriers (idle) or every other thread would block
    /// forever; the driver checks this flag each window, shuts the run
    /// down, and surfaces the diagnostic below.
    panicked: AtomicBool,
    /// The first panicking thread's diagnostic: which shard, which
    /// window, the last event it peeked, the panic message. Net thread k
    /// reports as shard `workers + k`.
    diag: Mutex<Option<ShardError>>,
}

impl Control {
    /// Runs one phase of a thread's window unless the thread has already
    /// failed. A panic must not abandon the barrier protocol (std barriers
    /// do not poison; the other threads would block forever): it is
    /// caught, the run is flagged and the diagnostic slot filled (first
    /// failure wins) with `last_event` as the thread left it, and the
    /// thread, now `failed`, idles at the barriers until told to stop.
    fn guard(
        &self,
        failed: &mut bool,
        shard: usize,
        window: u64,
        last_event: &Cell<Option<(Nanos, EventKey)>>,
        phase: impl FnOnce(),
    ) {
        if *failed {
            return;
        }
        let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(phase)) else {
            return;
        };
        *failed = true;
        self.panicked.store(true, Ordering::Release);
        let mut diag = lock(&self.diag);
        if diag.is_none() {
            *diag = Some(ShardError::WorkerPanicked {
                shard,
                window,
                last_event: last_event.get(),
                message: error::panic_message(payload.as_ref()),
            });
        }
    }
}

/// The multi-threaded simulation host.
///
/// `SimulationConfig::shards` selects the worker count: `1` is the
/// single-threaded [`Simulation`] (today's engine, unchanged); `k > 1`
/// partitions bundles across `k` worker threads around the shared
/// bottleneck, statically or adaptively per
/// [`SimulationConfig::balance`](bundler_sim::sim::ShardBalance).
/// `SimulationConfig::net_shards` splits the bottleneck itself across
/// that many net threads by path. Results are bit-identical for every
/// worker and net shard count and balance mode — see the crate docs,
/// `tests/equivalence.rs` and `tests/net_shards.rs`.
pub struct ShardedSimulation(Host);

#[allow(clippy::large_enum_variant)] // one value per run, built once, moved once
enum Host {
    /// One shard, or a lookahead too short to halve into windows: the
    /// single-threaded engine itself.
    Solo(Simulation),
    Windowed {
        config: SimulationConfig,
        workload: Vec<FlowSpec>,
        /// Δ = ½ lookahead.
        window: Duration,
        cores: Cores,
        /// Simulated time the run starts from (`ZERO` for a fresh run, the
        /// snapshot's stamp after a restore).
        start: Nanos,
        /// `snapshot::fingerprint` of `config` and `workload`, which never
        /// change once the host exists: known after a restore (the header
        /// was checked against it), otherwise computed by the first
        /// checkpoint, so a run that takes none never hashes.
        fingerprint: Option<u64>,
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
    pub fn new(config: SimulationConfig, workload: Vec<FlowSpec>) -> Self {
        ShardedSimulation(match window_of(&config) {
            None => Host::Solo(Simulation::new(config, workload)),
            Some(window) => Host::Windowed {
                cores: Cores::new(&config, &workload, true),
                config,
                workload,
                window,
                start: Nanos::ZERO,
                fingerprint: None,
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
                let mut cores = Cores::new(&config, &workload, false);
                let start = snapshot::restore_into(&config, bytes, fp, &mut cores)?;
                Host::Windowed {
                    config,
                    workload,
                    window,
                    cores,
                    start,
                    fingerprint: Some(fp),
                }
            }
        }))
    }

    /// The configured shard count (≥ 1).
    pub fn shards(&self) -> usize {
        match &self.0 {
            Host::Solo(sim) => sim.config().shards.max(1),
            Host::Windowed { config, .. } => config.shards,
        }
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
    /// [`SimulationConfig::checkpoint_every`] boundary (the exact
    /// interval multiple solo; the first window barrier at or past it
    /// when sharded). Panics on worker failure; see
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
                workload,
                window,
                cores,
                start,
                fingerprint,
            } => run_sharded(config, workload, window, cores, start, fingerprint, sink),
        }
    }
}

/// One net core plus everything its phases touch: its queue, arena,
/// inbound receivers (per worker, per parity), outbound senders (per
/// worker) and scratch buffers. Owned by its net thread once the run
/// starts.
struct NetSide {
    net: NetCore,
    queue: EventQueue,
    arena: PacketArena,
    /// Worker→net receivers, indexed by worker, double-buffered by parity.
    rx: Vec<[Receiver<Envelope>; 2]>,
    /// Net→worker senders, indexed by worker.
    to_worker: Vec<Sender<Envelope>>,
    /// Per-window phase timings for the report's observability section.
    windows: Vec<NetWindow>,
    inbound: Vec<Envelope>,
    deliveries: Vec<Delivery>,
    wire_buf: Vec<u8>,
}

/// Every core of a windowed run, built on the calling thread before any
/// worker or net thread exists.
struct Cores {
    balancer: Balancer,
    /// One per worker shard.
    workers: Vec<(WorkerCore, EventQueue, PacketArena)>,
    /// One per net shard: net shard k owns the paths `gid % K == k`; every
    /// core holds the full path vector so global path ids index directly.
    sides: Vec<NetSide>,
}

impl Cores {
    /// `fresh` cores own their balancer-assigned bundles and hold the
    /// run's initial events; the others own nothing and hold none — every
    /// bundle complex and pending event arrives from a snapshot.
    fn new(config: &SimulationConfig, workload: &[FlowSpec], fresh: bool) -> Self {
        let shards = config.shards;
        let balancer = Balancer::new(config, workload, shards);
        let workers = (0..shards)
            .map(|index| {
                let part = Partition {
                    workers: shards,
                    index,
                };
                let owned = balancer
                    .assignment()
                    .iter()
                    .map(|&owner| fresh && owner == index)
                    .collect();
                let mut core = WorkerCore::with_owned(config, workload, part, owned);
                let mut queue = EventQueue::new();
                if fresh {
                    core.schedule_initial(&mut queue);
                }
                (core, queue, PacketArena::with_capacity(1024))
            })
            .collect();
        let net_shards = config.effective_net_shards();
        let sides = (0..net_shards)
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
                    rx: Vec::new(),
                    to_worker: Vec::new(),
                    windows: Vec::new(),
                    inbound: Vec::with_capacity(256),
                    deliveries: Vec::with_capacity(64),
                    wire_buf: Vec::new(),
                }
            })
            .collect();
        Cores {
            balancer,
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
        let owner = bundle.map_or(0, |b| self.balancer.assignment()[b]);
        let (core, queue, arena) = &mut self.workers[owner];
        (core, queue, arena)
    }

    fn net(&mut self, gid: usize) -> (&mut NetCore, &mut EventQueue, &mut PacketArena) {
        let k = gid % self.sides.len();
        let side = &mut self.sides[k];
        (&mut side.net, &mut side.queue, &mut side.arena)
    }
}

/// The net phase for one completed worker window: merge that window's
/// envelopes (by parity), handle net events below its end, route
/// deliveries to the current owner of each flow's LP.
fn net_phase(
    side: &mut NetSide,
    windex: u64,
    window_end: Nanos,
    window: Duration,
    routing: &Routing,
    wire_on: bool,
) {
    let timing = side.net.obs.metrics_on();
    let phase_start = if timing { wall_now_ns() } else { 0 };
    let events_before = side.net.events_processed();
    let parity = (windex % 2) as usize;
    for rx in side.rx.iter_mut() {
        rx[parity].drain_into(&mut side.inbound);
        for m in side.inbound.drain(..) {
            debug_assert!(m.at < window_end, "envelope beyond its window");
            let pkt = side.arena.insert(m.pkt);
            side.queue
                .schedule(m.at, m.key, Event::ArriveBottleneck { pkt });
        }
    }
    while let Some((t, _)) = side.queue.peek() {
        if t >= window_end {
            break;
        }
        let (now, event) = side.queue.pop().expect("peeked");
        side.net.handle(
            event,
            now,
            &mut side.arena,
            &mut side.queue,
            &mut side.deliveries,
        );
        for d in side.deliveries.drain(..) {
            // Conservative lookahead: the delivery must clear the worker
            // window running concurrently with this net phase.
            debug_assert!(
                d.at >= window_end + window,
                "delivery inside a window already running"
            );
            let flow = side.arena[d.pkt].flow;
            let lp = *routing.lp_of_flow.get(&flow).expect("flow has an origin");
            let worker = routing.worker_of_lp[lp as usize].load(Ordering::Acquire);
            let mut pkt = side.arena.remove(d.pkt);
            if wire_on {
                pkt = wire::roundtrip(WireDir::Delivery, d.at, d.key, pkt, &mut side.wire_buf);
            }
            side.to_worker[worker].send(Envelope {
                at: d.at,
                key: d.key,
                pkt,
            });
        }
    }
    if timing {
        let wall_dur_ns = wall_now_ns().saturating_sub(phase_start);
        let events = side.net.events_processed() - events_before;
        // The served window's start (exact except for a truncated final
        // window, where the nominal width overstates it).
        let start = Nanos(window_end.as_nanos().saturating_sub(window.as_nanos()));
        let width_ns = window_end.saturating_since(start).as_nanos();
        side.net.obs.host.windows += 1;
        side.windows.push(NetWindow {
            windex,
            net_shard: side.net.shard() as u16,
            wall_ns: wall_dur_ns,
            events,
        });
        side.net.obs.record(
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
        side.net.obs.flush(window_end);
    }
}

fn run_sharded(
    config: SimulationConfig,
    workload: Vec<FlowSpec>,
    window: Duration,
    cores: Cores,
    start: Nanos,
    mut fingerprint: Option<u64>,
    mut sink: Option<&mut dyn FnMut(Nanos, Vec<u8>)>,
) -> Result<SimReport, ShardError> {
    let Cores {
        mut balancer,
        workers: worker_cores,
        mut sides,
    } = cores;
    let shards = worker_cores.len();
    let net_shards = sides.len();
    let end = Nanos::ZERO + config.duration;
    let n_bundles = config.n_bundles();
    let wire_on = config.wire_envelopes;

    // Delivery routing: a flow's LP is static (its workload origin); the
    // LP's owning worker follows the balancer's assignment. Shared with
    // net threads; the window barriers order the driver's stores against
    // the net side's loads.
    let routing = Arc::new(Routing {
        lp_of_flow: workload
            .iter()
            .map(|s| (s.id, origin_lp(s.origin)))
            .collect(),
        worker_of_lp: (0..LP_BUNDLE0 as usize + n_bundles)
            .map(|_| AtomicUsize::new(0))
            .collect(),
    });
    for b in 0..n_bundles {
        routing.worker_of_lp[bundle_lp(b) as usize]
            .store(balancer.assignment()[b], Ordering::Release);
    }

    let ctrl = Arc::new(Control {
        barrier: Barrier::new(shards + net_shards + 1),
        window_end: AtomicU64::new(0),
        migrating: AtomicBool::new(false),
        plan: Mutex::new(Vec::new()),
        parcels: Mutex::new(Vec::new()),
        checkpoint: AtomicBool::new(false),
        checkpoint_at: AtomicU64::new(0),
        parts: Mutex::new(Vec::new()),
        net_parts: Mutex::new(Vec::new()),
        counts: (0..n_bundles).map(|_| AtomicU64::new(0)).collect(),
        stop: AtomicBool::new(false),
        panicked: AtomicBool::new(false),
        diag: Mutex::new(None),
    });

    // Mailboxes: worker→net envelopes double-buffer by window parity, one
    // pair per (worker, net shard); net→worker deliveries use one mailbox
    // per (net shard, worker). Every mailbox has fixed producer and
    // consumer threads; publication is ordered by the barriers.
    let mut handles = Vec::with_capacity(shards);
    for (index, (core, queue, arena)) in worker_cores.into_iter().enumerate() {
        let mut to_net: Vec<[Sender<Envelope>; 2]> = Vec::with_capacity(net_shards);
        let mut inboxes: Vec<Receiver<Envelope>> = Vec::with_capacity(net_shards);
        for side in sides.iter_mut() {
            let (net_tx_a, net_rx_a) = mailbox::channel::<Envelope>(MAILBOX_CAPACITY);
            let (net_tx_b, net_rx_b) = mailbox::channel::<Envelope>(MAILBOX_CAPACITY);
            side.rx.push([net_rx_a, net_rx_b]);
            to_net.push([net_tx_a, net_tx_b]);
            let (worker_tx, worker_rx) = mailbox::channel::<Envelope>(MAILBOX_CAPACITY);
            side.to_worker.push(worker_tx);
            inboxes.push(worker_rx);
        }
        let link = WorkerLink {
            to_net,
            inboxes,
            inbound: Vec::with_capacity(256),
            lb: balancer_for(&config),
            wire_on,
        };
        let ctrl = Arc::clone(&ctrl);
        handles.push(
            std::thread::Builder::new()
                .name(format!("bundler-shard-{index}"))
                .spawn(move || worker_loop(core, queue, arena, ctrl, link))
                .expect("spawn worker shard"),
        );
    }

    // Each net thread owns its NetSide and attends the same barriers as
    // the workers.
    let net_handles: Vec<_> = sides
        .into_iter()
        .map(|side| {
            let ctrl = Arc::clone(&ctrl);
            let routing = Arc::clone(&routing);
            std::thread::Builder::new()
                .name(format!("bundler-net-{}", side.net.shard()))
                .spawn(move || net_loop(side, ctrl, routing, window, wire_on, shards))
                .expect("spawn net shard")
        })
        .collect();

    // The next checkpoint target: the first interval multiple strictly
    // after the run's start (so a restored run does not re-write the
    // checkpoint it was restored from). Taken at the first window
    // boundary at or past the target, stamped with that boundary.
    let mut next_ckpt = match (config.checkpoint_every, sink.as_ref()) {
        (Some(iv), Some(_)) if iv.as_nanos() > 0 => {
            let iv = iv.as_nanos();
            Some((iv, Nanos((start.as_nanos() / iv + 1) * iv)))
        }
        _ => None,
    };

    // Size hint for the next checkpoint's buffer: the previous one's
    // length (successive snapshots of one run differ little).
    let mut last_snapshot_len = 0;
    let mut plan: Vec<Move> = Vec::new();
    let mut window_start = start;
    let mut windex: u64 = 0;
    while window_start < end {
        let window_end = (window_start + window).min(end);
        let take_ckpt = matches!(next_ckpt, Some((_, target)) if window_start >= target);
        if take_ckpt {
            ctrl.checkpoint_at
                .store(window_start.as_nanos(), Ordering::Release);
            *lock(&ctrl.parts) = (0..shards).map(|_| None).collect();
            *lock(&ctrl.net_parts) = (0..net_shards).map(|_| None).collect();
        }
        ctrl.checkpoint.store(take_ckpt, Ordering::Release);
        ctrl.window_end
            .store(window_end.as_nanos(), Ordering::Release);
        let migrating = !plan.is_empty();
        ctrl.migrating.store(migrating, Ordering::Release);
        if migrating {
            *lock(&ctrl.plan) = plan.clone();
            *lock(&ctrl.parcels) = plan.iter().map(|_| None).collect();
        }
        ctrl.barrier.wait(); // workers begin the window
        if migrating {
            ctrl.barrier.wait(); // parcels deposited ↔ adopted
        }
        if take_ckpt {
            // The snapshot is the state at T = window_start, so the net
            // threads run their pending phase early (see `net_loop`; its
            // parity buffers quiesced at the previous end barrier), before
            // the workers serialize their partitions.
            ctrl.barrier.wait(); // net phases flushed, net parts deposited
            ctrl.barrier.wait(); // checkpoint parts deposited
            if !ctrl.panicked.load(Ordering::Acquire) {
                let sections = lock(&ctrl.net_parts)
                    .iter_mut()
                    .filter_map(Option::take)
                    .flatten()
                    .collect();
                let mut blob = Vec::with_capacity(last_snapshot_len);
                let fp =
                    *fingerprint.get_or_insert_with(|| snapshot::fingerprint(&config, &workload));
                snapshot::write_header(&mut blob, window_start, fp);
                assemble_snapshot(
                    &config,
                    std::mem::take(&mut *lock(&ctrl.parts)),
                    sections,
                    &mut blob,
                );
                last_snapshot_len = blob.len();
                if let Some(f) = sink.as_deref_mut() {
                    f(window_start, blob);
                }
                // Every thread flushed its records below the checkpoint
                // instant before depositing its part; push them to the
                // sink's file so a crash after this boundary leaves the
                // export a complete prefix of the restored continuation.
                if let Some(stream) = &config.stream {
                    stream.flush_io();
                }
            }
            let iv = next_ckpt.map(|(iv, _)| iv).unwrap_or(0);
            next_ckpt = Some((iv, Nanos((window_start.as_nanos() / iv + 1) * iv)));
        }
        ctrl.barrier.wait(); // workers done
        if ctrl.panicked.load(Ordering::Acquire) {
            break;
        }
        // Decide the plan for the *next* window boundary from the counts
        // the workers just published, and re-point delivery routing — the
        // next net phase must deliver to the post-migration owners.
        let counts: Vec<u64> = ctrl
            .counts
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .collect();
        plan = balancer.decide(windex + 1, &counts);
        if !plan.is_empty() {
            // Structured Migration trace records are emitted by the
            // extracting workers; this is the opt-in stderr mirror
            // (gated on BUNDLER_SHARD_DEBUG, checked once).
            bundler_obs::logsink::debug_log(format_args!(
                "window {}: {} moves: {:?}",
                windex + 1,
                plan.len(),
                plan
            ));
        }
        for mv in &plan {
            routing.worker_of_lp[bundle_lp(mv.bundle) as usize].store(mv.to, Ordering::Release);
        }
        window_start = window_end;
        windex += 1;
    }

    ctrl.stop.store(true, Ordering::Release);
    ctrl.barrier.wait(); // release workers + net threads into the stop check
    let mut workers = Vec::with_capacity(shards);
    let mut recycled = 0;
    let mut vanished: Option<(usize, String)> = None;
    for (shard, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Some((core, arena))) => {
                recycled += arena.recycled();
                workers.push(core);
            }
            // The worker failed; its diagnostic is in `ctrl.diag`.
            Ok(None) => {}
            // The thread unwound outside the panic net (or was killed).
            Err(payload) => vanished = Some((shard, error::panic_message(payload.as_ref()))),
        }
    }
    let mut nets: Vec<NetCore> = Vec::with_capacity(net_shards);
    let mut net_windows: Vec<NetWindow> = Vec::new();
    for (k, h) in net_handles.into_iter().enumerate() {
        match h.join() {
            Ok((net, arena, windows)) => {
                recycled += arena.recycled();
                net_windows.extend(windows);
                nets.push(net);
            }
            Err(payload) => vanished = Some((shards + k, error::panic_message(payload.as_ref()))),
        }
    }
    if let Some(err) = lock(&ctrl.diag).take() {
        return Err(err);
    }
    if let Some((shard, message)) = vanished {
        return Err(ShardError::WorkerPanicked {
            shard,
            window: windex,
            last_event: None,
            message,
        });
    }
    workers.sort_by_key(|w| w.partition().index);
    nets.sort_by_key(NetCore::shard);
    net_windows.sort_by_key(|w| (w.windex, w.net_shard));
    let mut report = assemble_report(&config, workers, nets, recycled);
    if let Some(obs) = report.obs.as_mut() {
        obs.net_phase = bundler_obs::NetPhaseProfile {
            windows: net_windows,
        };
    }
    Ok(report)
}

/// The loop a net thread runs: the phase for window W runs during worker
/// window W+1, early on checkpoint windows, and one final time at the
/// stop barrier.
fn net_loop(
    mut side: NetSide,
    ctrl: Arc<Control>,
    routing: Arc<Routing>,
    window: Duration,
    wire_on: bool,
    workers: usize,
) -> (NetCore, PacketArena, Vec<NetWindow>) {
    let k = side.net.shard();
    let mut windex: u64 = 0;
    let mut prev: Option<(u64, Nanos)> = None;
    let mut failed = false;
    loop {
        ctrl.barrier.wait(); // window start
        let stop = ctrl.stop.load(Ordering::Acquire);
        let window_end = Nanos(ctrl.window_end.load(Ordering::Acquire));
        if !stop && ctrl.migrating.load(Ordering::Acquire) {
            ctrl.barrier.wait(); // parcels deposited ↔ adopted (idle here)
        }
        let checkpoint = !stop && ctrl.checkpoint.load(Ordering::Acquire);
        // The pending phase — the previous worker window's — runs now,
        // concurrently with the window the workers just started. On a
        // checkpoint window that is early: every net event below the
        // checkpoint instant is processed and its deliveries published
        // before the net-flush barrier releases the workers into their
        // serialization. At the stop barrier it is the final worker
        // window's: its deliveries land in mailboxes nothing will drain
        // (they are timestamped past the end of the run), but the events
        // below the end must be processed for the report's counters —
        // unless the run is stopping because a thread failed.
        failed |= stop && ctrl.panicked.load(Ordering::Acquire);
        ctrl.guard(&mut failed, workers + k, windex, &Cell::new(None), || {
            if let Some((pidx, pend)) = prev.take() {
                net_phase(&mut side, pidx, pend, window, &routing, wire_on);
            }
            if checkpoint {
                // One section per owned path, ascending by global path id.
                let owned: Vec<usize> = side.net.owned_paths().to_vec();
                let sections = owned.into_iter().map(|gid| -> PathSection {
                    let mut buf = Vec::new();
                    let ok =
                        side.net
                            .save_path_section(gid, &mut side.queue, &mut side.arena, &mut buf);
                    assert!(
                        ok,
                        "checkpointing requires a snapshot-capable bottleneck queue \
                         discipline (path {gid})"
                    );
                    (gid, buf)
                });
                let sections = sections.collect();
                lock(&ctrl.net_parts)[k] = Some(sections);
                // Mirror `Simulation::snapshot`: everything recorded
                // below the checkpoint instant is on the stream before
                // the snapshot is assembled.
                let at = Nanos(ctrl.checkpoint_at.load(Ordering::Acquire));
                side.net.obs.flush(at);
            }
        });
        if stop {
            if side.net.obs.metrics_on() {
                side.net.obs.host.mailbox_spills +=
                    side.to_worker.iter().map(Sender::spill_count).sum::<u64>();
            }
            return (side.net, side.arena, side.windows);
        }
        if checkpoint {
            ctrl.barrier.wait(); // net phases flushed, net parts deposited
            ctrl.barrier.wait(); // worker checkpoint parts deposited (idle)
        }
        prev = Some((windex, window_end));
        windex += 1;
        ctrl.barrier.wait(); // window end
    }
}

/// Appends per-shard checkpoint parts plus the per-path net sections to
/// a snapshot header in the canonical wire format — the exact bytes the
/// single-threaded host writes at the same instant, regardless of worker
/// or net shard count or placement: merged residue, the direct slice,
/// bundle parcels in ascending index order, then one net section per path
/// in ascending global path id.
fn assemble_snapshot(
    config: &SimulationConfig,
    parts: Vec<Option<CheckpointPart>>,
    mut net_sections: Vec<PathSection>,
    out: &mut Vec<u8>,
) {
    let n_bundles = config.n_bundles();
    let n_paths = config.num_paths.max(1);
    let mut residue = WorkerResidue::default();
    let mut direct: Option<Vec<u8>> = None;
    let mut bundles: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n_bundles);
    for (shard, part) in parts.into_iter().enumerate() {
        let part =
            part.unwrap_or_else(|| panic!("worker shard {shard} deposited no checkpoint part"));
        residue.merge(part.residue);
        if let Some(d) = part.direct {
            assert!(direct.is_none(), "two workers serialized the direct slice");
            direct = Some(d);
        }
        bundles.extend(part.bundles);
    }
    residue.encode(out);
    out.extend_from_slice(&direct.expect("shard 0 serializes the direct slice"));
    bundles.sort_by_key(|&(b, _)| b);
    (n_bundles as u64).encode(out);
    for (i, (b, bytes)) in bundles.iter().enumerate() {
        assert_eq!(i, *b, "bundle {b} was checkpointed by no worker, or by two");
        out.extend_from_slice(bytes);
    }
    net_sections.sort_by_key(|&(gid, _)| gid);
    assert_eq!(
        net_sections.len(),
        n_paths,
        "every bottleneck path deposits exactly one checkpoint section"
    );
    for (i, (gid, bytes)) in net_sections.iter().enumerate() {
        assert_eq!(i, *gid, "path {gid} checkpointed by no net core, or by two");
        out.extend_from_slice(bytes);
    }
}

/// A worker thread's connections to the net side.
struct WorkerLink {
    /// Worker→net senders, one pair (by window parity) per net shard.
    to_net: Vec<[Sender<Envelope>; 2]>,
    /// Net→worker inboxes, one per net shard.
    inboxes: Vec<Receiver<Envelope>>,
    /// Scratch the inboxes drain through.
    inbound: Vec<Envelope>,
    /// Stateless copy of the net side's load balancer: a packet's path —
    /// and therefore its owning net shard — is a pure function of the
    /// packet, so both sides of the mailbox compute the same route.
    lb: LoadBalancer,
    /// Encode→decode every outbound envelope through the NETENV frame.
    wire_on: bool,
}

/// `Some((core, arena))` on clean shutdown; `None` when the worker failed
/// (the diagnostic travels through `Control::diag`).
type WorkerResult = Option<(WorkerCore, PacketArena)>;

fn worker_loop(
    mut core: WorkerCore,
    mut queue: EventQueue,
    mut arena: PacketArena,
    ctrl: Arc<Control>,
    mut link: WorkerLink,
) -> WorkerResult {
    let me = core.partition().index;
    let n_bundles = ctrl.counts.len();
    let net_shards = link.to_net.len();
    let mut to_net: Vec<ToNet> = Vec::with_capacity(64);
    let mut wire_buf: Vec<u8> = Vec::new();
    let mut parity = 0usize;
    let mut failed = false;
    // The last event this worker peeked before handling in the current
    // window — the diagnostic anchor if the handler panics.
    let last_event = Cell::new(None);
    // Phase profiling (metrics level and up): wall time split into barrier
    // stall vs. event processing, per window. All stamps are outputs only
    // — nothing here feeds back into simulation state.
    let timing = core.obs.metrics_on();
    let mut windex: u64 = 0;
    let mut window_start_sim = Nanos::ZERO;
    let mut wait_from = if timing { wall_now_ns() } else { 0 };
    loop {
        ctrl.barrier.wait(); // window start
        let mut stall_ns = if timing {
            wall_now_ns().saturating_sub(wait_from)
        } else {
            0
        };
        if ctrl.stop.load(Ordering::Acquire) {
            if timing {
                core.obs.host.mailbox_spills += link
                    .to_net
                    .iter()
                    .flat_map(|pair| pair.iter())
                    .map(Sender::spill_count)
                    .sum::<u64>();
            }
            return if failed { None } else { Some((core, arena)) };
        }
        let migrating = ctrl.migrating.load(Ordering::Acquire);
        // A panic must not abandon the barrier protocol (std barriers do
        // not poison; the others would block forever) — catch it, flag
        // the driver with a diagnostic, and idle at the barriers until
        // told to stop.
        if migrating {
            ctrl.guard(&mut failed, me, windex, &last_event, || {
                // Drain the inboxes *before* extracting: deliveries
                // for an outgoing bundle (routed here under the old
                // assignment) become queue events and migrate with it.
                drain_inbox(&mut link, &mut arena, &mut queue, &mut core.obs);
                let plan = lock(&ctrl.plan);
                for (i, mv) in plan.iter().enumerate() {
                    if mv.from == me {
                        let parcel = core.extract_bundle(mv.bundle, &mut queue, &mut arena);
                        if timing {
                            let (pkts, bytes) = parcel.footprint();
                            core.obs.host.migrations += 1;
                            core.obs.host.migration_pkts += pkts;
                            core.obs.host.migration_bytes += bytes;
                            core.obs.record(
                                window_start_sim,
                                TraceKind::Migration {
                                    bundle: mv.bundle as u32,
                                    from: mv.from as u16,
                                    to: mv.to as u16,
                                    pkts,
                                    bytes,
                                },
                            );
                        }
                        lock(&ctrl.parcels)[i] = Some(parcel);
                    }
                }
            });
            let migrate_wait = if timing { wall_now_ns() } else { 0 };
            ctrl.barrier.wait(); // all parcels deposited
            if timing {
                stall_ns += wall_now_ns().saturating_sub(migrate_wait);
            }
            ctrl.guard(&mut failed, me, windex, &last_event, || {
                let now = queue.now();
                let plan = lock(&ctrl.plan);
                for (i, mv) in plan.iter().enumerate() {
                    if mv.to == me {
                        let parcel = lock(&ctrl.parcels)[i]
                            .take()
                            .expect("the source worker deposited the parcel");
                        core.adopt_bundle(parcel, &mut queue, &mut arena, now)
                            .expect("a bundle lifted off its worker installs");
                    }
                }
            });
        }
        if ctrl.checkpoint.load(Ordering::Acquire) {
            // Net threads run their pending phases and deposit their path
            // sections first; the drain below must see every delivery
            // published below the checkpoint instant.
            ctrl.barrier.wait(); // net phases flushed
            ctrl.guard(&mut failed, me, windex, &last_event, || {
                let at = Nanos(ctrl.checkpoint_at.load(Ordering::Acquire));
                // Pull every delivery published before this window
                // into the queue: the snapshot must hold *all*
                // pending events ≥ T, including in-flight arrivals.
                drain_inbox(&mut link, &mut arena, &mut queue, &mut core.obs);
                let mut part = CheckpointPart {
                    residue: core.residue(),
                    direct: None,
                    bundles: Vec::new(),
                };
                if me == 0 {
                    let mut buf = Vec::new();
                    core.save_direct_state(&mut queue, &mut arena, &mut buf);
                    part.direct = Some(buf);
                }
                for b in 0..n_bundles {
                    if core.owns_bundle(b) {
                        let parcel = core.extract_bundle(b, &mut queue, &mut arena);
                        let mut buf = Vec::new();
                        let ok = parcel.save_state(&mut buf);
                        core.adopt_bundle(parcel, &mut queue, &mut arena, at)
                            .expect("a bundle lifted off this worker installs back");
                        assert!(
                            ok,
                            "checkpointing requires a snapshot-capable sendbox queue \
                             discipline (bundle {b})"
                        );
                        part.bundles.push((b, buf));
                    }
                }
                lock(&ctrl.parts)[me] = Some(part);
                // Mirror `Simulation::snapshot`: everything recorded
                // before the checkpoint instant is on the stream
                // before the snapshot is assembled.
                core.obs.flush(at);
            });
            ctrl.barrier.wait(); // checkpoint parts deposited
        }
        let window_end = Nanos(ctrl.window_end.load(Ordering::Acquire));
        let events_before = core.events_processed();
        let busy_from = if timing { wall_now_ns() } else { 0 };
        ctrl.guard(&mut failed, me, windex, &last_event, || {
            let drained = drain_inbox(&mut link, &mut arena, &mut queue, &mut core.obs);
            // Host-side watchdog (non-portable, like the window records):
            // a drain close to the ring capacity means the next burst
            // will take the mutex slow path.
            if timing && drained > MAILBOX_CAPACITY * 3 / 4 {
                core.obs.record(
                    window_start_sim,
                    TraceKind::Health {
                        kind: HealthKind::MailboxNearSpill as u8,
                        subject: me as u32,
                        value: drained as u64,
                    },
                );
            }
            while let Some((t, key)) = queue.peek() {
                if t >= window_end {
                    break;
                }
                last_event.set(Some((t, key)));
                let (now, event) = queue.pop().expect("peeked");
                core.handle(event, now, &mut arena, &mut queue, &mut to_net);
                for m in to_net.drain(..) {
                    debug_assert_eq!(m.at, now, "bottleneck entry is a zero-latency hop");
                    let mut pkt = arena.remove(m.pkt);
                    // The packet's path is a pure function of the
                    // packet; its owning net shard follows from the
                    // partition rule `gid % net_shards`.
                    let net_shard = link.lb.pick(&pkt) % net_shards;
                    if link.wire_on {
                        pkt = wire::roundtrip(WireDir::ToNet, m.at, m.key, pkt, &mut wire_buf);
                    }
                    link.to_net[net_shard][parity].send(Envelope {
                        at: m.at,
                        key: m.key,
                        pkt,
                    });
                }
            }
            // Publish this window's cumulative load signal for the
            // bundles currently owned here; the driver reads it after
            // the end barrier.
            for b in 0..n_bundles {
                if core.owns_bundle(b) {
                    ctrl.counts[b].store(core.bundle_events(b), Ordering::Release);
                }
            }
        });
        if timing && !failed {
            let busy_ns = wall_now_ns().saturating_sub(busy_from);
            let events = core.events_processed() - events_before;
            let width_ns = window_end.saturating_since(window_start_sim).as_nanos();
            core.obs.host.windows += 1;
            core.obs.phases.push(WindowPhase {
                windex,
                busy_ns,
                stall_ns,
                events,
            });
            core.obs.record(
                window_start_sim,
                TraceKind::WorkerWindow {
                    windex,
                    width_ns,
                    busy_ns,
                    stall_ns,
                    events,
                },
            );
            // One window's records fit the ring by construction; the sink
            // (or the streaming export, when configured) accumulates the
            // run's trace window by window.
            core.obs.flush(window_end);
        }
        window_start_sim = window_end;
        windex += 1;
        parity ^= 1;
        last_event.set(None);
        wait_from = if timing { wall_now_ns() } else { 0 };
        ctrl.barrier.wait(); // window end
    }
}

/// Schedules every available inbound delivery (from every net shard's
/// mailbox) into the local queue, records how many messages were waiting
/// (the mailbox-depth signal) when metrics are on, and returns the count.
/// Insertion order across mailboxes is irrelevant: the queue sorts by the
/// canonical `(timestamp, key)` order.
fn drain_inbox(
    link: &mut WorkerLink,
    arena: &mut PacketArena,
    queue: &mut EventQueue,
    obs: &mut bundler_obs::ShardObs,
) -> usize {
    let mut drained = 0;
    for inbox in link.inboxes.iter_mut() {
        inbox.drain_into(&mut link.inbound);
        drained += link.inbound.len();
        for m in link.inbound.drain(..) {
            let pkt = arena.insert(m.pkt);
            queue.schedule(m.at, m.key, Event::ArriveDestination { pkt });
        }
    }
    if obs.metrics_on() {
        obs.host.inbox_messages += drained as u64;
        obs.host.mailbox_depth.record(drained as u64);
    }
    drained
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_sim::runtime::{bundle_lp, LP_NET};

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
