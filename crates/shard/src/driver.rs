//! The windowed multi-threaded driver.
//!
//! See the crate docs for the synchronization argument. The run is a
//! sequence of *windows* `[T, T+Δ)` delimited by barriers; within each,
//! every worker drains its inbound mailboxes (deliveries produced in
//! earlier windows, all timestamped ≥ T) and handles its local events with
//! `t < T+Δ`, moving packets released toward the bottleneck into
//! `(timestamp, key, packet)` envelopes. The net phase for a window drains
//! every worker's outbound envelopes into the net event queue — whose
//! `(timestamp, key)` order is the canonical merge — handles net events of
//! the window, and routes the resulting deliveries to the owning worker's
//! mailbox by flow id.
//!
//! Refinements over the PR 4 loop:
//!
//! * **Pipelined net phase.** With Δ = ½ lookahead, every delivery the net
//!   phase of window W produces lands ≥ 2 windows ahead (`t + lookahead ≥
//!   T_W + 2Δ`), so the net phase of window W runs *concurrently* with
//!   worker window W+1 — the sequential bottleneck fraction hides behind
//!   the workers instead of idling them at the barrier. Worker→net
//!   envelopes double-buffer by window parity so a net phase only ever
//!   drains a quiesced buffer; net→worker deliveries go through mailboxes
//!   whose producer and consumer are fixed threads, and are published
//!   strictly before the barrier that opens the window that could need
//!   them.
//! * **Net sharding.** `SimulationConfig::net_shards > 1` splits the
//!   bottleneck across dedicated net threads: net shard k owns the paths
//!   `{gid : gid mod net_shards == k}`, with its own event queue, arena
//!   and per-path key streams ([`NetCore::with_partition`]). Workers route
//!   each outbound packet with a stateless copy of the net side's load
//!   balancer (`pick(pkt) mod net_shards`), so a packet's path — and
//!   therefore its owning net shard — is a pure function of the packet,
//!   identical on both sides of the mailbox. Paths never interact with
//!   each other (per-path fault cursors, per-path fluid state, per-path
//!   sampling), so disjoint queues preserve the canonical order and every
//!   `(shards, net_shards)` combination is bit-identical — proven by the
//!   differential matrix in `tests/net_shards.rs`. Net threads attend the
//!   same barriers as workers; each runs its phase for window W during
//!   worker window W+1. Net sharding requires the pipelined regime: with
//!   a sub-2 ns lookahead the bottleneck falls back to one driver-inline
//!   core.
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
//!   interval multiple opens with a checkpoint rendezvous: pending
//!   pipelined net phases run early (so every net event below the boundary
//!   `T` is processed and its deliveries published — inline before the
//!   window-start barrier, on net threads behind one extra barrier), then
//!   each worker drains its inboxes and serializes its partition —
//!   residue, the direct slice on shard 0, one [`BundleParcel`] per owned
//!   bundle — while each net core serializes one section per owned path.
//!   After one more barrier the driver assembles the parts, **in canonical
//!   order, independent of the partitioning** (bundles ascending, then
//!   path sections ascending by global path id), into the same versioned
//!   wire format the single-threaded host writes
//!   (`bundler_sim::snapshot`) — byte-identical to the solo snapshot at
//!   the same `T`, restorable into any worker or net shard count.

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
use bundler_sim::snapshot::{self, SnapshotError};
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimReport, Simulation};
use bundler_types::{Duration, FlowId, Nanos, Packet, PacketArena};
use serde::binary::{Decode, Encode, Reader};

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
/// and the net side (reader, during net phases). The window barriers
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
    /// (plus one more on migration windows, and one or two more on
    /// checkpoint windows).
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
    /// Records a thread failure: flags the run and fills the diagnostic
    /// slot (first failure wins).
    fn note_failure(
        &self,
        shard: usize,
        window: u64,
        last_event: Option<(Nanos, EventKey)>,
        payload: &(dyn std::any::Any + Send),
    ) {
        self.panicked.store(true, Ordering::Release);
        let mut diag = lock(&self.diag);
        if diag.is_none() {
            *diag = Some(ShardError::WorkerPanicked {
                shard,
                window,
                last_event,
                message: error::panic_message(payload),
            });
        }
    }
}

/// The multi-threaded simulation host.
///
/// `SimulationConfig::shards` selects the worker count: `1` delegates to
/// the single-threaded [`Simulation`] (today's engine, unchanged); `k > 1`
/// partitions bundles across `k` worker threads around the shared
/// bottleneck, statically or adaptively per
/// [`SimulationConfig::balance`](bundler_sim::sim::ShardBalance).
/// `SimulationConfig::net_shards` additionally splits the bottleneck
/// itself across dedicated net threads by path. Results are bit-identical
/// for every worker and net shard count and balance mode — see the crate
/// docs, `tests/equivalence.rs` and `tests/net_shards.rs`.
pub struct ShardedSimulation {
    config: SimulationConfig,
    workload: Vec<FlowSpec>,
    /// A validated snapshot to resume from instead of a fresh start, with
    /// the `snapshot::fingerprint` of `config` and `workload` its header
    /// was checked against. Neither changes once the host exists, so the
    /// run reuses the value for the checkpoints it writes; a fresh run
    /// hashes once, at its first checkpoint, and `new` never does.
    restore_from: Option<(Vec<u8>, u64)>,
}

impl ShardedSimulation {
    /// Builds a sharded simulation from a configuration and workload.
    pub fn new(config: SimulationConfig, workload: Vec<FlowSpec>) -> Self {
        ShardedSimulation {
            config,
            workload,
            restore_from: None,
        }
    }

    /// Builds a sharded simulation that resumes from a snapshot taken at
    /// some earlier instant of a run with an equivalent config and the
    /// same workload — by *any* host: snapshots are partition-invariant,
    /// so a solo snapshot restores into any worker or net shard count and
    /// vice versa. The header and fingerprint are validated here; payload
    /// corruption surfaces from the run entry points.
    pub fn restore(
        config: SimulationConfig,
        workload: Vec<FlowSpec>,
        bytes: &[u8],
    ) -> Result<Self, ShardError> {
        let fp = snapshot::fingerprint(&config, &workload);
        let mut r = Reader::new(bytes);
        snapshot::read_header(&mut r, fp)?;
        Ok(ShardedSimulation {
            config,
            workload,
            restore_from: Some((bytes.to_vec(), fp)),
        })
    }

    /// The configured shard count (≥ 1).
    pub fn shards(&self) -> usize {
        self.config.shards.max(1)
    }

    /// Runs the simulation to completion and returns the report.
    ///
    /// Panics on worker failure or a corrupt snapshot, with the
    /// [`ShardError`] diagnostic as the message; use
    /// [`try_run`](ShardedSimulation::try_run) to handle failures as
    /// values.
    pub fn run(self) -> SimReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation to completion, surfacing worker panics and
    /// snapshot corruption as a typed [`ShardError`] (with shard id,
    /// window and last event key) instead of unwinding.
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
        let shards = self.shards();
        let lookahead = NetCore::new(&self.config).min_one_way_delay();
        if shards == 1 || lookahead.is_zero() {
            // One shard is literally the single-threaded engine. A
            // zero-delay bottleneck (rtt = 0) leaves no conservative
            // lookahead to parallelize over, so it also runs inline.
            let sim = match &self.restore_from {
                Some((bytes, fp)) => {
                    Simulation::restore_fingerprinted(self.config, self.workload, bytes, *fp)?
                }
                None => Simulation::new(self.config, self.workload),
            };
            return Ok(match sink {
                Some(f) => sim.run_with_checkpoints(f),
                None => sim.run(),
            });
        }
        run_sharded(self.config, self.workload, shards, self.restore_from, sink)
    }
}

/// One net core plus everything its phases touch: its queue, arena,
/// inbound receivers (per worker, per parity), outbound senders (per
/// worker) and scratch buffers. Owned by the driver when the bottleneck
/// is unsharded, by a dedicated net thread otherwise.
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

impl NetSide {
    fn new(net: NetCore, config: &SimulationConfig) -> Self {
        NetSide {
            net,
            queue: EventQueue::with_engine(config.event_engine),
            arena: PacketArena::with_capacity(1024),
            rx: Vec::new(),
            to_worker: Vec::new(),
            windows: Vec::new(),
            inbound: Vec::with_capacity(256),
            deliveries: Vec::with_capacity(64),
            wire_buf: Vec::new(),
        }
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
    pipeline: bool,
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
            // Conservative lookahead: sequential windows need one window
            // of slack, pipelined windows two (the delivery must clear
            // the worker window running concurrently with this net
            // phase).
            debug_assert!(
                d.at >= window_end + if pipeline { window } else { Duration::ZERO },
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

/// Serializes one checkpoint section per path this core owns, ascending
/// by global path id.
fn net_sections(side: &mut NetSide) -> Vec<(usize, Vec<u8>)> {
    let owned: Vec<usize> = side.net.owned_paths().to_vec();
    owned
        .into_iter()
        .map(|gid| {
            let mut buf = Vec::new();
            let ok = side
                .net
                .save_path_section(gid, &mut side.queue, &mut side.arena, &mut buf);
            assert!(
                ok,
                "checkpointing requires a snapshot-capable bottleneck queue \
                 discipline (path {gid})"
            );
            (gid, buf)
        })
        .collect()
}

fn run_sharded(
    config: SimulationConfig,
    workload: Vec<FlowSpec>,
    shards: usize,
    restore_from: Option<(Vec<u8>, u64)>,
    mut sink: Option<&mut dyn FnMut(Nanos, Vec<u8>)>,
) -> Result<SimReport, ShardError> {
    // The run's snapshot fingerprint: known after a restore, otherwise
    // computed by the first checkpoint.
    let mut fingerprint = restore_from.as_ref().map(|&(_, fp)| fp);
    let mut balancer = Balancer::new(&config, &workload, shards);
    let probe = NetCore::new(&config);
    let lookahead = probe.min_one_way_delay();
    let end = Nanos::ZERO + config.duration;
    let n_bundles = config.n_bundles();
    let n_paths = config.num_paths.max(1);
    let wire_on = config.wire_envelopes;

    // Δ = ½ lookahead pipelines the net phase behind the next worker
    // window (its outputs land ≥ 2 windows ahead); a 1 ns lookahead can't
    // be halved, so it falls back to the sequential net-between-barriers
    // order with Δ = lookahead.
    let pipeline = lookahead.as_nanos() >= 2;
    let window = if pipeline {
        Duration(lookahead.as_nanos() / 2)
    } else {
        lookahead
    };
    // Net sharding rides the pipelined regime (each net thread's phase
    // hides behind the next worker window); without it the bottleneck
    // stays one driver-inline core. The clamp to the path count lives in
    // `effective_net_shards`.
    let net_shards = if pipeline {
        config.effective_net_shards()
    } else {
        1
    };
    let inline_net = net_shards == 1;
    let net_threads = if inline_net { 0 } else { net_shards };

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
        barrier: Barrier::new(shards + net_threads + 1),
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

    // Build every net core on this thread: net shard k owns the paths
    // `gid % net_shards == k`; every core holds the full path vector so
    // global path ids index directly.
    let mut sides: Vec<NetSide> = if inline_net {
        vec![NetSide::new(probe, &config)]
    } else {
        (0..net_shards)
            .map(|k| NetSide::new(NetCore::with_partition(&config, k, net_shards), &config))
            .collect()
    };

    // Build every worker core on this thread: a restore pours the
    // snapshot into them before any thread exists, a fresh run schedules
    // the initial events.
    let mut cores: Vec<(WorkerCore, EventQueue, PacketArena)> = (0..shards)
        .map(|index| {
            let part = Partition {
                workers: shards,
                index,
            };
            let owned: Vec<bool> = if restore_from.is_some() {
                // Own nothing yet: every bundle complex arrives by
                // adoption from the snapshot below.
                vec![false; n_bundles]
            } else {
                (0..n_bundles)
                    .map(|b| balancer.assignment()[b] == index)
                    .collect()
            };
            let core = WorkerCore::with_owned(&config, &workload, part, owned);
            let queue = EventQueue::with_engine(config.event_engine);
            let arena = PacketArena::with_capacity(1024);
            (core, queue, arena)
        })
        .collect();

    let start = match &restore_from {
        Some((bytes, fp)) => {
            let corrupt = |e: serde::binary::DecodeError| {
                ShardError::Snapshot(SnapshotError::Corrupt(e.to_string()))
            };
            let mut r = Reader::new(bytes);
            let at = snapshot::read_header(&mut r, *fp)?;
            // The whole-run residue lands on shard 0; `assemble_report`
            // sums across shards, so totals are placement-independent.
            let residue = WorkerResidue::decode(&mut r).map_err(corrupt)?;
            cores[0].0.apply_residue(residue);
            {
                let (core, queue, arena) = &mut cores[0];
                core.load_direct_state(queue, arena, &mut r)
                    .map_err(corrupt)?;
            }
            let count = u64::decode(&mut r).map_err(corrupt)? as usize;
            if count != n_bundles {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot has {count} bundles, config defines {n_bundles}"
                ))
                .into());
            }
            for b in 0..count {
                let parcel = BundleParcel::from_state(&config, &mut r).map_err(corrupt)?;
                if parcel.bundle() != b {
                    return Err(SnapshotError::Corrupt(format!(
                        "bundle parcels out of order: found {} at position {b}",
                        parcel.bundle()
                    ))
                    .into());
                }
                let owner = balancer.assignment()[b];
                let (core, queue, arena) = &mut cores[owner];
                core.adopt_bundle(parcel, queue, arena, at);
            }
            // The net slice is path-major: one section per path in
            // ascending global id, each restored into the owning core.
            for gid in 0..n_paths {
                let side = &mut sides[gid % net_shards];
                side.net
                    .load_path_section(gid, &mut side.queue, &mut side.arena, &mut r)
                    .map_err(corrupt)?;
            }
            if !r.is_empty() {
                return Err(
                    SnapshotError::Corrupt("trailing bytes after snapshot payload".into()).into(),
                );
            }
            at
        }
        None => {
            for (core, queue, _) in cores.iter_mut() {
                core.schedule_initial(queue);
            }
            for side in sides.iter_mut() {
                side.net.schedule_initial(&mut side.queue);
            }
            Nanos::ZERO
        }
    };

    // Mailboxes: worker→net envelopes double-buffer by window parity, one
    // pair per (worker, net shard); net→worker deliveries use one mailbox
    // per (net shard, worker). Every mailbox has fixed producer and
    // consumer threads; publication is ordered by the barriers.
    let mut handles = Vec::with_capacity(shards);
    for (index, (core, queue, arena)) in cores.into_iter().enumerate() {
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
            lb: balancer_for(&config),
            net_threads,
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

    // Dedicated net threads (net_shards > 1): each owns its NetSide and
    // attends the same barriers as the workers.
    let mut net_handles = Vec::with_capacity(net_threads);
    let mut solo = if inline_net {
        Some(sides.remove(0))
    } else {
        for side in sides.drain(..) {
            let ctrl = Arc::clone(&ctrl);
            let routing = Arc::clone(&routing);
            let k = side.net.shard();
            net_handles.push(
                std::thread::Builder::new()
                    .name(format!("bundler-net-{k}"))
                    .spawn(move || net_loop(side, ctrl, routing, window, wire_on, shards))
                    .expect("spawn net shard"),
            );
        }
        None
    };

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
    let mut prev_window: Option<(u64, Nanos)> = None;
    let mut window_start = start;
    let mut windex: u64 = 0;
    while window_start < end {
        let window_end = (window_start + window).min(end);
        let take_ckpt = matches!(next_ckpt, Some((_, target)) if window_start >= target);
        if take_ckpt {
            // The snapshot is the state at T = window_start: every net
            // event below T must be processed and its deliveries
            // published *before* the workers serialize their partitions,
            // so the pending pipelined net phase (normally concurrent
            // with this window) runs early — here for the inline core
            // (before the window-start barrier), behind the net-flush
            // barrier on net threads. Its parity buffers quiesced at the
            // previous end barrier; running it early only shortens the
            // pipeline overlap for one window.
            if pipeline {
                if let (Some(side), Some((pidx, pend))) = (solo.as_mut(), prev_window.take()) {
                    net_phase(side, pidx, pend, window, pipeline, &routing, wire_on);
                }
            }
            ctrl.checkpoint_at
                .store(window_start.as_nanos(), Ordering::Release);
            *lock(&ctrl.parts) = (0..shards).map(|_| None).collect();
            if !inline_net {
                *lock(&ctrl.net_parts) = (0..net_shards).map(|_| None).collect();
            }
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
            if !inline_net {
                ctrl.barrier.wait(); // net phases flushed, net parts deposited
            }
            ctrl.barrier.wait(); // checkpoint parts deposited
            if !ctrl.panicked.load(Ordering::Acquire) {
                let sections = match solo.as_mut() {
                    Some(side) => net_sections(side),
                    None => lock(&ctrl.net_parts)
                        .iter_mut()
                        .filter_map(Option::take)
                        .flatten()
                        .collect(),
                };
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
                // Publish every streamed record below the checkpoint
                // instant so a crash after this boundary leaves the export
                // file a complete prefix of the restored continuation.
                if let Some(side) = solo.as_mut() {
                    side.net.obs.flush(window_start);
                }
                if let Some(stream) = &config.stream {
                    stream.flush_io();
                }
            }
            let iv = next_ckpt.map(|(iv, _)| iv).unwrap_or(0);
            next_ckpt = Some((iv, Nanos((window_start.as_nanos() / iv + 1) * iv)));
        }
        if pipeline {
            // Hide the sequential fraction: net phase W runs while the
            // workers run window W+1 (on this thread for the inline core;
            // net threads do the same on their own).
            if let (Some(side), Some((pidx, pend))) = (solo.as_mut(), prev_window) {
                net_phase(side, pidx, pend, window, pipeline, &routing, wire_on);
            }
        }
        ctrl.barrier.wait(); // workers done
        if ctrl.panicked.load(Ordering::Acquire) {
            break;
        }
        if !pipeline {
            let side = solo.as_mut().expect("net sharding requires pipelining");
            net_phase(
                side, windex, window_end, window, pipeline, &routing, wire_on,
            );
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
        prev_window = Some((windex, window_end));
        window_start = window_end;
        windex += 1;
    }
    if pipeline && !ctrl.panicked.load(Ordering::Acquire) {
        // The final worker window's net phase has not run yet (net
        // threads run theirs at the stop barrier).
        if let (Some(side), Some((pidx, pend))) = (solo.as_mut(), prev_window) {
            net_phase(side, pidx, pend, window, pipeline, &routing, wire_on);
        }
    }

    ctrl.stop.store(true, Ordering::Release);
    ctrl.migrating.store(false, Ordering::Release);
    ctrl.checkpoint.store(false, Ordering::Release);
    ctrl.barrier.wait(); // release workers + net threads into the stop check
    let mut workers = Vec::with_capacity(shards);
    let mut recycled = 0;
    let mut vanished: Option<(usize, Option<String>)> = None;
    for (shard, h) in handles.into_iter().enumerate() {
        match h.join() {
            Ok(Some((core, arena))) => {
                recycled += arena.recycled();
                workers.push(core);
            }
            // The worker failed; its diagnostic is in `ctrl.diag`.
            Ok(None) => {}
            // The thread unwound outside the panic net (or was killed).
            Err(payload) => vanished = Some((shard, Some(error::panic_message(payload.as_ref())))),
        }
    }
    let mut nets: Vec<NetCore> = Vec::with_capacity(net_shards);
    let mut net_windows: Vec<NetWindow> = Vec::new();
    if let Some(mut side) = solo.take() {
        if side.net.obs.metrics_on() {
            // Driver-side (net→worker) spill counts; the worker-side
            // senders fold theirs in at the stop check.
            side.net.obs.host.mailbox_spills +=
                side.to_worker.iter().map(Sender::spill_count).sum::<u64>();
        }
        recycled += side.arena.recycled();
        net_windows = side.windows;
        nets.push(side.net);
    }
    for (k, h) in net_handles.into_iter().enumerate() {
        match h.join() {
            Ok((net, arena, windows)) => {
                recycled += arena.recycled();
                net_windows.extend(windows);
                nets.push(net);
            }
            Err(payload) => {
                vanished = Some((shards + k, Some(error::panic_message(payload.as_ref()))))
            }
        }
    }
    if let Some(err) = lock(&ctrl.diag).take() {
        return Err(err);
    }
    if let Some((shard, message)) = vanished {
        return Err(match message {
            Some(message) => ShardError::WorkerPanicked {
                shard,
                window: windex,
                last_event: None,
                message,
            },
            None => ShardError::WorkerVanished { shard },
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

/// The loop a dedicated net thread runs when the bottleneck is sharded.
/// Mirrors the driver's inline scheduling: the phase for window W runs
/// during worker window W+1 (pipelined — net sharding requires it), early
/// on checkpoint windows, and one final time at the stop barrier.
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
        if ctrl.stop.load(Ordering::Acquire) {
            if !failed && !ctrl.panicked.load(Ordering::Acquire) {
                // The final worker window's net phase has not run yet.
                // Its deliveries land in mailboxes nothing will drain —
                // exactly as the inline core's final phase does (they
                // would be timestamped past the end of the run) — but
                // the events below the end must be processed for the
                // report's counters.
                if let Some((pidx, pend)) = prev.take() {
                    let phase = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        net_phase(&mut side, pidx, pend, window, true, &routing, wire_on);
                    }));
                    if let Err(payload) = phase {
                        ctrl.note_failure(workers + k, windex, None, payload.as_ref());
                    }
                }
            }
            if side.net.obs.metrics_on() {
                side.net.obs.host.mailbox_spills +=
                    side.to_worker.iter().map(Sender::spill_count).sum::<u64>();
            }
            return (side.net, side.arena, side.windows);
        }
        let window_end = Nanos(ctrl.window_end.load(Ordering::Acquire));
        if ctrl.migrating.load(Ordering::Acquire) {
            ctrl.barrier.wait(); // parcels deposited ↔ adopted (idle here)
        }
        if ctrl.checkpoint.load(Ordering::Acquire) {
            if !failed {
                let phase = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let at = Nanos(ctrl.checkpoint_at.load(Ordering::Acquire));
                    // Run the pending phase early: every net event below
                    // the checkpoint instant is processed and its
                    // deliveries published before the net-flush barrier
                    // releases the workers into their serialization.
                    if let Some((pidx, pend)) = prev.take() {
                        net_phase(&mut side, pidx, pend, window, true, &routing, wire_on);
                    }
                    let sections = net_sections(&mut side);
                    lock(&ctrl.net_parts)[k] = Some(sections);
                    // Mirror the inline core: everything recorded below
                    // the checkpoint instant is on the stream before the
                    // snapshot is assembled.
                    side.net.obs.flush(at);
                }));
                if let Err(payload) = phase {
                    failed = true;
                    ctrl.note_failure(workers + k, windex, None, payload.as_ref());
                }
            }
            ctrl.barrier.wait(); // net phases flushed, net parts deposited
            ctrl.barrier.wait(); // worker checkpoint parts deposited (idle)
        }
        if !failed {
            if let Some((pidx, pend)) = prev.take() {
                let phase = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    net_phase(&mut side, pidx, pend, window, true, &routing, wire_on);
                }));
                if let Err(payload) = phase {
                    failed = true;
                    ctrl.note_failure(workers + k, windex, None, payload.as_ref());
                }
            }
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
    /// Stateless copy of the net side's load balancer: a packet's path —
    /// and therefore its owning net shard — is a pure function of the
    /// packet, so both sides of the mailbox compute the same route.
    lb: LoadBalancer,
    /// Dedicated net threads attending the barriers (0 = driver-inline
    /// bottleneck), which add one extra rendezvous on checkpoint windows.
    net_threads: usize,
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
    let mut inbound: Vec<Envelope> = Vec::with_capacity(256);
    let mut to_net: Vec<ToNet> = Vec::with_capacity(64);
    let mut wire_buf: Vec<u8> = Vec::new();
    let mut parity = 0usize;
    let mut failed = false;
    // The last event this worker peeked before handling — the diagnostic
    // anchor if the handler panics.
    let mut last_event: Option<(Nanos, EventKey)> = None;
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
            if !failed {
                let phase = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    // Drain the inboxes *before* extracting: deliveries
                    // for an outgoing bundle (routed here under the old
                    // assignment) become queue events and migrate with it.
                    let drained =
                        drain_inbox(&mut link.inboxes, &mut inbound, &mut arena, &mut queue);
                    if timing {
                        core.obs.host.inbox_messages += drained as u64;
                        core.obs.host.mailbox_depth.record(drained as u64);
                    }
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
                }));
                if let Err(payload) = phase {
                    failed = true;
                    ctrl.note_failure(me, windex, None, payload.as_ref());
                }
            }
            let migrate_wait = if timing { wall_now_ns() } else { 0 };
            ctrl.barrier.wait(); // all parcels deposited
            if timing {
                stall_ns += wall_now_ns().saturating_sub(migrate_wait);
            }
            if !failed {
                let phase = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let now = queue.now();
                    let plan = lock(&ctrl.plan);
                    for (i, mv) in plan.iter().enumerate() {
                        if mv.to == me {
                            let parcel = lock(&ctrl.parcels)[i]
                                .take()
                                .expect("the source worker deposited the parcel");
                            core.adopt_bundle(parcel, &mut queue, &mut arena, now);
                        }
                    }
                }));
                if let Err(payload) = phase {
                    failed = true;
                    ctrl.note_failure(me, windex, None, payload.as_ref());
                }
            }
        }
        if ctrl.checkpoint.load(Ordering::Acquire) {
            if link.net_threads > 0 {
                // Net threads run their pending phases and deposit their
                // path sections first; the drain below must see every
                // delivery published below the checkpoint instant.
                ctrl.barrier.wait(); // net phases flushed
            }
            if !failed {
                let phase = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let at = Nanos(ctrl.checkpoint_at.load(Ordering::Acquire));
                    // Pull every delivery published before this window
                    // into the queue: the snapshot must hold *all*
                    // pending events ≥ T, including in-flight arrivals.
                    let drained =
                        drain_inbox(&mut link.inboxes, &mut inbound, &mut arena, &mut queue);
                    if timing {
                        core.obs.host.inbox_messages += drained as u64;
                        core.obs.host.mailbox_depth.record(drained as u64);
                    }
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
                            core.adopt_bundle(parcel, &mut queue, &mut arena, at);
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
                }));
                if let Err(payload) = phase {
                    failed = true;
                    ctrl.note_failure(me, windex, None, payload.as_ref());
                }
            }
            ctrl.barrier.wait(); // checkpoint parts deposited
        }
        let window_end = Nanos(ctrl.window_end.load(Ordering::Acquire));
        let events_before = core.events_processed();
        let busy_from = if timing { wall_now_ns() } else { 0 };
        if !failed {
            let window = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let drained = drain_inbox(&mut link.inboxes, &mut inbound, &mut arena, &mut queue);
                if timing {
                    core.obs.host.inbox_messages += drained as u64;
                    core.obs.host.mailbox_depth.record(drained as u64);
                    // Host-side watchdog (non-portable, like the window
                    // records): a drain close to the ring capacity means
                    // the next burst will take the mutex slow path.
                    if drained > MAILBOX_CAPACITY * 3 / 4 {
                        core.obs.record(
                            window_start_sim,
                            TraceKind::Health {
                                kind: HealthKind::MailboxNearSpill as u8,
                                subject: me as u32,
                                value: drained as u64,
                            },
                        );
                    }
                }
                while let Some((t, key)) = queue.peek() {
                    if t >= window_end {
                        break;
                    }
                    last_event = Some((t, key));
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
            }));
            if let Err(payload) = window {
                failed = true;
                ctrl.note_failure(me, windex, last_event, payload.as_ref());
            }
        }
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
        wait_from = if timing { wall_now_ns() } else { 0 };
        ctrl.barrier.wait(); // window end
    }
}

/// Schedules every available inbound delivery (from every net shard's
/// mailbox) into the local queue and returns how many messages were
/// waiting (the mailbox-depth signal). Insertion order across mailboxes
/// is irrelevant: the queue sorts by the canonical `(timestamp, key)`
/// order.
fn drain_inbox(
    inboxes: &mut [Receiver<Envelope>],
    inbound: &mut Vec<Envelope>,
    arena: &mut PacketArena,
    queue: &mut EventQueue,
) -> usize {
    let mut drained = 0;
    for inbox in inboxes.iter_mut() {
        inbox.drain_into(inbound);
        drained += inbound.len();
        for m in inbound.drain(..) {
            let pkt = arena.insert(m.pkt);
            queue.schedule(m.at, m.key, Event::ArriveDestination { pkt });
        }
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
    fn one_shard_delegates_to_the_single_threaded_engine() {
        let config = SimulationConfig {
            duration: bundler_types::Duration::from_secs(2),
            shards: 1,
            ..Default::default()
        };
        let workload = vec![FlowSpec::bundled(1, 50_000, Nanos::ZERO, 0)];
        let report = ShardedSimulation::new(config, workload).run();
        assert_eq!(report.completed, 1);
    }
}
