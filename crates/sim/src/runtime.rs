//! The shard-local simulation cores.
//!
//! The simulator is split into two kinds of logical-process (LP) cores so
//! the same code runs single-threaded (one [`WorkerCore`] owning every LP,
//! composed by [`crate::sim::Simulation`]) and sharded (the windowed
//! runtime in [`crate::shard`] composes K worker cores on K threads around
//! one [`NetCore`] per net shard):
//!
//! * [`WorkerCore`] — a partition of the *site-side* LPs: each bundle
//!   complex (the bundle's flows' TCP endhosts at both sites, its sendbox
//!   datapath + control plane, its remote receivebox) and optionally the
//!   direct cross-traffic endhosts. Bundle complexes never talk to each
//!   other directly — the paper's observation that bundles only interact
//!   at shared bottlenecks, which is exactly what makes this partition
//!   parallelizable.
//! * [`NetCore`] — the shared bottleneck: load balancer and paths. It
//!   receives [`ToNet`] messages (packets entering the bottleneck, zero
//!   latency) and emits [`Delivery`] messages (packets delivered to the
//!   destination site after ≥ one-way propagation delay — the positive
//!   lookahead the sharded driver's conservative windows rely on).
//!
//! Every event carries a canonical [`EventKey`] assigned by the LP that
//! scheduled it (see [`crate::event`]); the cores increment per-LP
//! sequence counters so the key streams — and therefore every merge order
//! and every result — are identical for any partitioning.
//!
//! A worker holds its bundles' sendbox state in one `Edge`; whether a
//! `SiteAgent` classifies packets and holds the control planes is the
//! edge's business, so every handler here is written once. Its flows and
//! pings live in one `FlowTable` — a slab of per-flow state indexed by the
//! positions of the run's [`FlowDirectory`] — which a handler consults once
//! per event: it resolves the event's flow to a slot and LP and passes the
//! origin on to the routing below it. Every walk of the table that reaches
//! a snapshot or the report goes in ascending `FlowId`. State leaves a
//! core only as snapshot bytes: a whole bundle complex as its section
//! (written by [`WorkerCore::save_part`], read by
//! [`WorkerCore::load_bundle`]), beside the direct slice and the path
//! sections; all of them share the pending-events-plus-packets layout of
//! `save_pending`. A checkpoint lifts a core's pending events out of its
//! queue once and groups them by LP (`Lifted`), and each LP's section
//! walks only that LP's flows ([`FlowDirectory::iter_lp`]).

use std::sync::Arc;

use bundler_obs::{
    BundleObsState, CounterId, FlowSampler, GaugeId, HealthKind, HistId, ObsReport, PhaseProfile,
    ShardObs, TraceKind,
};
use bundler_sched::tbf::Release;
use bundler_sched::Policy;
use bundler_types::{
    flow::ipv4, Duration, FlowId, FlowKey, Nanos, Packet, PacketArena, PacketId, PacketKind, Rate,
};

use serde::binary::{decode_len, Decode, DecodeError, Encode, Reader, State};

use crate::directory::FlowDirectory;
use crate::edge::Edge;
use crate::event::{Event, EventKey, EventQueue};
use crate::fault::{FaultKind, FaultPlan};
use crate::fluid::FluidState;
use crate::path::{BottleneckPath, LoadBalancer};
use crate::sim::SimulationConfig;
use crate::snapshot::{PathSection, WorkerPart};
use crate::stats::{FctRecord, SimReport, TimeSeries};
use crate::tcp::{InflightWindow, PingClient, TcpReceiver, TcpSender};
use crate::workload::{FlowSpec, Origin};

/// The net (bottleneck) logical process.
pub const LP_NET: u16 = 0;
/// The direct cross-traffic logical process.
pub const LP_DIRECT: u16 = 1;
/// First bundle LP; bundle `b` is LP `LP_BUNDLE0 + b`.
pub const LP_BUNDLE0: u16 = 2;
/// The fluid cross-traffic integrator. It runs inside the net core (its
/// events satisfy [`is_net_event`]) but keys its events under its own LP so
/// fluid steps interleave with packet events at the same timestamp in one
/// fixed, shard-invariant position — after every packet event of that
/// instant, since `u16::MAX` sorts last.
pub const LP_FLUID: u16 = u16::MAX;

/// The LP owning bundle `b`'s complex.
#[inline]
pub fn bundle_lp(bundle: usize) -> u16 {
    LP_BUNDLE0 + bundle as u16
}

/// The LP owning a flow, from its workload origin.
#[inline]
pub fn origin_lp(origin: Origin) -> u16 {
    match origin {
        Origin::Bundle(b) => bundle_lp(b),
        Origin::Direct => LP_DIRECT,
    }
}

/// The bundle whose complex an LP is, `None` for the direct LP: the inverse
/// of [`bundle_lp`].
#[inline]
fn lp_bundle(lp: u16) -> Option<usize> {
    lp.checked_sub(LP_BUNDLE0).map(usize::from)
}

/// The origin whose flows an LP owns: the inverse of [`origin_lp`] on the
/// site-side LPs.
#[inline]
pub(crate) fn lp_origin(lp: u16) -> Origin {
    lp_bundle(lp).map_or(Origin::Direct, Origin::Bundle)
}

/// The stable byte encoding of a control mode used by
/// [`TraceKind::ModeChange`] records (the enum itself stays private to
/// `bundler-core`'s evolution).
fn mode_byte(mode: bundler_core::Mode) -> u8 {
    match mode {
        bundler_core::Mode::DelayControl => 0,
        bundler_core::Mode::PassThrough => 1,
        bundler_core::Mode::Disabled => 2,
    }
}

/// A worker → net message: `pkt` enters the bottleneck stage at `at`
/// (always the sending LP's current time — the zero-latency hop the
/// sharded driver covers by running workers before the net within each
/// window).
#[derive(Debug, Clone, Copy)]
pub struct ToNet {
    /// Arrival time at the bottleneck stage.
    pub at: Nanos,
    /// Canonical key assigned by the sending LP.
    pub key: EventKey,
    /// The packet (in the sending core's arena).
    pub pkt: PacketId,
}

/// A net → worker message: `pkt` reaches the destination site at `at`
/// (≥ one one-way propagation delay in the future).
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Arrival time at the destination site.
    pub at: Nanos,
    /// Canonical key assigned by the net LP.
    pub key: EventKey,
    /// The packet (in the net core's arena).
    pub pkt: PacketId,
}

struct FlowState {
    sender: TcpSender,
    receiver: TcpReceiver,
    origin: Origin,
    size_bytes: u64,
}

serde::layout!(value FlowState { sender, receiver, origin, size_bytes });

/// What one slot of a [`FlowTable`] holds.
// The large variant is the common one — nearly every slot is a TCP flow —
// so boxing it would only put the state every packet event reads back
// behind a pointer.
#[allow(clippy::large_enum_variant)]
enum FlowSlot {
    /// On the free list; no id resolves here.
    Free,
    /// A TCP transfer: both endhosts and the flow's bookkeeping.
    Tcp(FlowState),
    /// A closed-loop ping. `client` is `None` only for an entry decoded
    /// from a snapshot whose presence flag was `false`; such a flow keeps
    /// its origin and answers nothing.
    Ping {
        origin: Origin,
        client: Option<PingClient>,
    },
}

impl FlowSlot {
    /// The workload origin of the flow held here.
    fn origin(&self) -> Origin {
        match self {
            FlowSlot::Tcp(f) => f.origin,
            FlowSlot::Ping { origin, .. } => *origin,
            FlowSlot::Free => unreachable!("no id resolves to a free slot"),
        }
    }
}

/// Every flow and ping a worker knows, by [`FlowId`]: the per-flow state
/// sits in a slab, and `index` holds the slab slot of each position of the
/// run's [`FlowDirectory`] (`VACANT` where this worker holds no flow). A
/// handler resolves its flow id once ([`FlowTable::resolve`]: one search
/// over the directory's runs, then one load each for the LP and the slot)
/// and works on the slot from then on. A flow leaves the table on the ACK
/// that completes it, and a bundle's flows when the bundle is dropped from
/// the worker; a freed slot is taken by the next insert, so the slab peaks
/// at the number of flows held at once, not at the number ever started.
/// What can still name a finished flow finds no slot: a late ACK and a
/// pending RTO poll end there, and a late duplicate data segment is
/// answered from the flow's spec (`WorkerCore::on_arrive_destination`).
struct FlowTable {
    directory: Arc<FlowDirectory>,
    index: Vec<u32>,
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
}

/// A [`FlowTable::index`] entry naming no slot.
const VACANT: u32 = u32::MAX;

impl FlowTable {
    /// An empty table over `directory`.
    fn new(directory: Arc<FlowDirectory>) -> Self {
        FlowTable {
            index: vec![VACANT; directory.len()],
            directory,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// The slot of the flow at directory position `pos`, if this worker
    /// holds it.
    #[inline]
    fn slot_at(&self, pos: usize) -> Option<usize> {
        let slot = self.index[pos];
        (slot != VACANT).then_some(slot as usize)
    }

    /// The slot `id` lives in, if this worker holds it, and the LP its
    /// workload spec names — [`LP_DIRECT`] for an id the workload does not
    /// name. The one lookup of an event; it reads no flow state.
    #[inline]
    fn resolve(&self, id: FlowId) -> (Option<usize>, u16) {
        match self.directory.position(id) {
            Some(pos) => (self.slot_at(pos), self.directory.lp_at(pos)),
            None => (None, LP_DIRECT),
        }
    }

    /// Registers `id`, replacing whatever it named before. Returns whether
    /// the id was new; an id the workload does not name is refused
    /// (`None`) and registers nothing. Snapshot sections go through
    /// [`FlowTable::load`], which refuses an id that is not new.
    fn insert(&mut self, id: FlowId, state: FlowSlot) -> Option<bool> {
        let pos = self.directory.position(id)?;
        if let Some(held) = self.slot_at(pos) {
            self.slots[held] = state;
            return Some(false);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = state;
                slot
            }
            None => {
                self.slots.push(state);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 flows")
            }
        };
        self.index[pos] = slot;
        Some(true)
    }

    /// Registers a flow decoded from a snapshot section. A run never names
    /// a flow twice, so an id already registered is corrupt bytes: `twice`
    /// when the entry has the new one's origin (the section being loaded
    /// named it before), otherwise a flow some other section holds. So is
    /// an id the workload does not name, or one whose decoded origin is not
    /// its spec's.
    fn load(
        &mut self,
        id: FlowId,
        state: FlowSlot,
        r: &Reader<'_>,
        twice: &'static str,
    ) -> Result<(), DecodeError> {
        let Some(pos) = self.directory.position(id) else {
            return Err(r.error("flow id is not in the workload"));
        };
        if let Some(held) = self.slot_at(pos) {
            return Err(if self.slots[held].origin() == state.origin() {
                r.error(twice)
            } else {
                r.error("flow is already held by this worker")
            });
        }
        if lp_origin(self.directory.lp_at(pos)) != state.origin() {
            return Err(r.error("flow origin differs from its workload spec"));
        }
        self.insert(id, state);
        Ok(())
    }

    /// Unregisters `id`, freeing its slot for reuse.
    fn remove(&mut self, id: FlowId) -> Option<FlowSlot> {
        let pos = self.directory.position(id)?;
        let slot = self.slot_at(pos)?;
        self.index[pos] = VACANT;
        self.free.push(slot as u32);
        Some(std::mem::replace(&mut self.slots[slot], FlowSlot::Free))
    }

    /// What `pick` selects from each registered flow of LP `lp`, in
    /// ascending [`FlowId`] order — the order every snapshot section and
    /// the report list flows in. A walk of the LP's own directory
    /// positions, which ascend with the ids, so there is no sort; every
    /// flow it visits has the LP's origin, since flows enter the table
    /// from their workload spec and [`FlowTable::load`] refuses any other.
    fn sorted<'a, T>(
        &'a self,
        lp: u16,
        mut pick: impl FnMut(&'a FlowSlot) -> Option<T>,
    ) -> Vec<(FlowId, T)> {
        self.directory
            .iter_lp(lp)
            .filter_map(|(pos, id)| Some((id, pick(&self.slots[self.slot_at(pos)?])?)))
            .collect()
    }
}

/// The five-tuple assigned to a flow: source site 10.0.x.x, destination
/// site 10.1.x.x; cross traffic comes from 10.2.x.x. Ports spread flows
/// for hashing schedulers.
pub fn flow_key(flow_id: u64, origin: Origin) -> FlowKey {
    let (src_base, dst_base) = match origin {
        Origin::Bundle(b) => (ipv4(10, 0, b as u8, 1), ipv4(10, 1, b as u8, 1)),
        Origin::Direct => (ipv4(10, 2, 0, 1), ipv4(10, 3, 0, 1)),
    };
    let src = src_base + ((flow_id * 7) % 200) as u32;
    let dst = dst_base + ((flow_id * 13) % 200) as u32;
    FlowKey::tcp(src, (10_000 + (flow_id * 31) % 50_000) as u16, dst, 443)
}

/// One site-side LP's state on the worker that owns it — a bundle complex
/// or the direct cross traffic — besides its flows (in the worker's
/// `FlowTable`) and its sendbox (in the `Edge`). A worker owns the LP
/// exactly when it holds the record: a checkpoint writes it and a restore
/// installs it as a whole.
#[derive(Default)]
struct SiteLp {
    /// Schedule sequence counter: the LP's canonical key stream.
    seq: u64,
    /// Events handled on the LP's behalf. Only the snapshot layout reads
    /// it (a bundle section carries it), so it goes with layout v5.
    events: u64,
    /// Delivered payload bytes since the last sample.
    delivered: u64,
    /// Delivered throughput, one point per sample.
    throughput_mbps: TimeSeries,
    /// The sendbox's pacing rate and its control plane's RTT and
    /// receive-rate estimates, one point per sample. They stay empty for
    /// the direct LP, which has no sendbox.
    pacing_rate_mbps: TimeSeries,
    rtt_estimate_ms: TimeSeries,
    recv_rate_estimate_mbps: TimeSeries,
    /// In-flight flow spans and health-monitor readings.
    obs: BundleObsState,
    /// Length of the LP's previous snapshot section, the size hint for
    /// the next one's buffer (successive sections differ little). In no
    /// snapshot itself.
    section_len: usize,
}

/// A [`SiteLp`] lookup of an LP this worker does not own: a bug. Out of
/// line, as an inlined panic at every lookup cost `fct_quo` 3 % (release,
/// 2-vCPU x86-64).
#[cold]
#[inline(never)]
fn not_owned(lp: u16) -> ! {
    panic!("LP {lp}, which this worker does not own")
}

/// The largest in-flight window (in segments of buffer capacity) a worker
/// keeps for reuse. CUBIC's 10-segment initial window fits in 16; a window
/// a long flow grew past 32 is freed rather than held for short ones.
const SPARE_WINDOW_SEGS: usize = 32;

/// One shard's worth of site-side simulation state.
pub struct WorkerCore {
    config: SimulationConfig,
    /// This worker's index among the run's workers: its obs shard id.
    /// Worker 0 holds the direct cross-traffic LP.
    shard: usize,
    /// The site-side LPs this worker owns, indexed by LP id (`LP_NET` is
    /// never held): the placement the worker was built with, or the
    /// sections a restore loaded into it ([`WorkerCore::load_bundle`]).
    lps: Vec<Option<SiteLp>>,
    /// The owned partition of the site's sendbox edge.
    edge: Edge,
    /// Every flow and ping of the owned LPs, entered at its `FlowArrival`.
    /// Its directory holds the full workload table, which
    /// `Event::FlowArrival` indexes into; only arrivals for owned LPs are
    /// scheduled.
    flows: FlowTable,
    forward_delay: Duration,
    reverse_delay: Duration,
    /// Completed-flow records tagged with the (time, key) of the ACK event
    /// that completed them, so per-worker lists merge into the canonical
    /// global order; they are pushed in that order. A checkpoint moves them
    /// out ([`WorkerCore::save_part`]), so this holds the records completed
    /// since the last one.
    fcts: Vec<TaggedFct>,
    /// Reusable scratch for endhost output (ids of packets to route).
    pkt_buf: Vec<PacketId>,
    /// Reusable scratch for sendbox release bursts.
    release_buf: Vec<PacketId>,
    /// Reusable scratch for health-monitor verdicts at sample events.
    health_buf: Vec<(HealthKind, u64)>,
    /// Empty in-flight windows of completed flows, each started on by a
    /// later arrival, so a flow allocates no window of its own once the
    /// run has warmed up. Per worker, and dropped with it: no run sees
    /// another's buffers.
    spare_windows: Vec<InflightWindow>,
    events_processed: u64,
    /// Packets this core's endhosts created (data, ACKs, pings,
    /// retransmissions) — counted at creation so the total is identical
    /// however packets cross between per-shard arenas.
    packets_created: u64,
    /// Observability state (metrics, trace ring, phase timings). At
    /// [`bundler_obs::ObsLevel::Off`] every record site is one skipped
    /// branch and nothing allocates. Public so the sharded driver can
    /// drain the ring at window barriers and append phase timings.
    pub obs: ShardObs,
}

impl WorkerCore {
    /// Builds worker `shard` owning the bundles flagged in `owned` (one
    /// flag per bundle index), as the sharded host placed them; worker 0 also
    /// owns the direct cross-traffic LP. `directory` holds the run's
    /// workload and is shared by every core of the run. Panics if a bundle
    /// configuration is invalid (checked identically on every worker) or
    /// if two specs share a flow id.
    pub fn with_owned(
        config: &SimulationConfig,
        directory: Arc<FlowDirectory>,
        shard: usize,
        owned: Vec<bool>,
    ) -> Self {
        let forward_delay = config.lookahead();
        let reverse_delay = config.rtt - forward_delay;
        debug_assert_eq!(owned.len(), config.n_bundles());
        let mut edge = Edge::new(config, &owned).expect("invalid bundle configuration");
        let mut obs = ShardObs::new(config.obs, shard as u16);
        obs.sampler = config.flow_trace.map(FlowSampler::new);
        obs.stream = config.stream.clone();
        if obs.metrics_on() {
            // Turn on the in-scheduler sojourn/drop-state export. The flag
            // lives inside the datapath scheduler; `load_bundle` re-arms it
            // for a restored bundle.
            edge.set_obs(true);
        }
        let lps = [false, shard == 0]
            .into_iter()
            .chain(owned)
            .map(|own| own.then(SiteLp::default))
            .collect();
        WorkerCore {
            config: config.clone(),
            shard,
            lps,
            edge,
            flows: FlowTable::new(directory),
            forward_delay,
            reverse_delay,
            fcts: Vec::new(),
            pkt_buf: Vec::with_capacity(64),
            release_buf: Vec::with_capacity(64),
            health_buf: Vec::new(),
            spare_windows: Vec::new(),
            events_processed: 0,
            packets_created: 0,
            obs,
        }
    }

    /// This worker's index among the run's workers.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// True if this worker owns bundle `b`.
    pub fn owns_bundle(&self, b: usize) -> bool {
        let lp = usize::from(LP_BUNDLE0) + b;
        self.lps.get(lp).is_some_and(Option::is_some)
    }

    /// Events this core has handled.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Packets this core's endhosts have created.
    pub fn packets_created(&self) -> u64 {
        self.packets_created
    }

    /// True if this worker owns the given site-side LP.
    fn owns_lp(&self, lp: u16) -> bool {
        self.lps[lp as usize].is_some()
    }

    /// The record of `lp`, which this worker owns.
    #[inline]
    fn site(&mut self, lp: u16) -> &mut SiteLp {
        match &mut self.lps[lp as usize] {
            Some(site) => site,
            None => not_owned(lp),
        }
    }

    /// The next canonical key for a schedule made by `lp`.
    #[inline]
    fn key_for(&mut self, lp: u16) -> EventKey {
        let site = self.site(lp);
        site.seq += 1;
        EventKey::new(lp, site.seq)
    }

    /// Attributes one handled event to `lp` for the load measurement.
    #[inline]
    fn note_event(&mut self, lp: u16) {
        self.site(lp).events += 1;
    }

    /// True if the fault plan blacks out control-plane feedback at `now`.
    #[inline]
    fn feedback_blacked_out(&self, now: Nanos) -> bool {
        match &self.config.faults {
            Some(plan) => plan.in_blackout(now),
            None => false,
        }
    }

    /// The LP owning a flow (for events routed by flow id).
    fn flow_lp(&self, flow: FlowId) -> u16 {
        self.flows.resolve(flow).1
    }

    /// The workload spec an `Event::FlowArrival` names.
    fn spec(&self, index: u32) -> FlowSpec {
        self.workload()[index as usize]
    }

    /// The run's workload, held by its flow directory.
    pub(crate) fn workload(&self) -> &[FlowSpec] {
        self.flows.directory.specs()
    }

    /// Resolves the flow an event is about — the event's one directory
    /// lookup — to its table slot, workload origin and LP, and attributes
    /// the event to that LP.
    #[inline]
    fn resolve(&mut self, flow: FlowId) -> (Option<usize>, Origin, u16) {
        let (slot, lp) = self.flows.resolve(flow);
        self.note_event(lp);
        (slot, lp_origin(lp), lp)
    }

    /// Schedules this worker's initial events: flow arrivals for owned
    /// LPs (workload order), then each owned LP's first control tick (a
    /// bundle with a deployed sendbox) and first sample. The per-LP key
    /// streams this produces are identical for every partitioning because
    /// each stream only depends on the workload and config.
    pub fn schedule_initial(&mut self, queue: &mut EventQueue) {
        let directory = Arc::clone(&self.flows.directory);
        for (i, spec) in directory.specs().iter().enumerate() {
            let lp = origin_lp(spec.origin);
            if !self.owns_lp(lp) {
                continue;
            }
            let key = self.key_for(lp);
            queue.schedule(spec.start, key, Event::FlowArrival { spec: i as u32 });
        }
        let sample = Nanos::ZERO + self.config.sample_interval;
        for lp in LP_DIRECT..self.lps.len() as u16 {
            if !self.owns_lp(lp) {
                continue;
            }
            let control = lp_bundle(lp).and_then(|b| Some((b, self.edge.control(b)?)));
            if let Some((b, control)) = control {
                let at = Nanos::ZERO + control.config().control_interval;
                let key = self.key_for(lp);
                queue.schedule(at, key, Event::ControlTick { bundle: b as u32 });
            }
            let key = self.key_for(lp);
            queue.schedule(sample, key, Event::Sample { lp });
        }
    }

    /// Handles one event owned by this worker.
    pub fn handle(
        &mut self,
        event: Event,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        to_net: &mut Vec<ToNet>,
    ) {
        self.events_processed += 1;
        match event {
            Event::FlowArrival { spec } => self.on_flow_arrival(spec, now, arena, queue, to_net),
            Event::ArriveDestination { pkt } => self.on_arrive_destination(pkt, now, arena, queue),
            Event::ArriveSource { pkt } => self.on_arrive_source(pkt, now, arena, queue, to_net),
            Event::CongestionAckArrive { ack } => {
                self.note_event(bundle_lp(ack.bundle.0 as usize));
                // A control-plane blackout drops feedback at delivery. The
                // predicate is a pure function of the delivery timestamp, so
                // every partitioning drops exactly the same messages.
                if self.feedback_blacked_out(now) {
                    return;
                }
                self.edge.on_congestion_ack(&ack, now);
            }
            Event::EpochUpdateArrive { update } => {
                let bundle = update.bundle.0 as usize;
                self.note_event(bundle_lp(bundle));
                if self.feedback_blacked_out(now) {
                    return;
                }
                if let Some(b) = self.edge.bundle_mut(bundle) {
                    b.receivebox.on_epoch_update(&update);
                }
            }
            Event::ControlTick { bundle } => {
                self.note_event(bundle_lp(bundle as usize));
                self.on_control_tick(bundle as usize, now, queue)
            }
            Event::SendboxRelease { bundle } => {
                self.note_event(bundle_lp(bundle as usize));
                self.on_sendbox_release(bundle as usize, now, arena, queue, to_net)
            }
            Event::RtoCheck { flow } => self.on_rto_check(flow, now, arena, queue, to_net),
            Event::Sample { lp } => {
                self.note_event(lp);
                self.on_sample(lp, now, queue)
            }
            Event::ArriveBottleneck { .. }
            | Event::PathDequeue { .. }
            | Event::PathSample { .. }
            | Event::FluidUpdate { .. } => {
                unreachable!("net event routed to a worker core")
            }
        }
    }

    /// Routes every id accumulated in `pkt_buf` (the endhost scratch
    /// buffer) into the network, preserving the buffer's capacity. The
    /// ids were freshly inserted by this core's endhosts, so they count
    /// as created here. `origin` is their flow's, which the caller holds.
    fn flush_pkt_buf(
        &mut self,
        lp: u16,
        origin: Origin,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        to_net: &mut Vec<ToNet>,
    ) {
        let mut buf = std::mem::take(&mut self.pkt_buf);
        self.packets_created += buf.len() as u64;
        for id in buf.drain(..) {
            self.route_forward(id, lp, origin, now, arena, queue, to_net);
        }
        self.pkt_buf = buf;
    }

    fn on_flow_arrival(
        &mut self,
        spec_index: u32,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        to_net: &mut Vec<ToNet>,
    ) {
        let spec = self.spec(spec_index);
        let lp = origin_lp(spec.origin);
        self.note_event(lp);
        let key = flow_key(spec.id.0, spec.origin);
        if spec.is_ping {
            let mut client = PingClient::new(spec.id, key, spec.size_bytes.max(40) as u32);
            let req = client.maybe_request(now, arena);
            // The first request is routed as if the flow's origin were not
            // registered yet, exactly as the pre-arena code did: in classic
            // (non-agent) mode it travels outside the bundle. Changing this
            // would silently shift every subsequent closed-loop RTT sample.
            if let Some(req) = req {
                self.packets_created += 1;
                self.route_forward(req, lp, Origin::Direct, now, arena, queue, to_net);
            }
            self.flows.insert(
                spec.id,
                FlowSlot::Ping {
                    origin: spec.origin,
                    client: Some(client),
                },
            );
            return;
        }
        if self.obs.flow_sampled(spec.id.0) {
            // Admission anchors the flow's span: record the classification
            // and open the accumulator the lifecycle hooks feed, in the
            // flow's LP.
            self.obs.metrics.add(CounterId::FlowsSampled, 1);
            let bundle = match spec.origin {
                Origin::Bundle(b) => b as u32,
                Origin::Direct => u32::MAX,
            };
            self.obs.record(
                now,
                TraceKind::FlowAdmit {
                    flow: spec.id.0,
                    bundle,
                    size_bytes: spec.size_bytes,
                },
            );
            self.site(lp).obs.spans.insert(
                spec.id.0,
                bundler_obs::FlowSpan {
                    admitted_at: now,
                    size_bytes: spec.size_bytes,
                    ..Default::default()
                },
            );
        }
        let mut sender = TcpSender::new(spec.id, key, spec.size_bytes, spec.alg, spec.class, now);
        if let Some(window) = self.spare_windows.pop() {
            sender.adopt_window(window);
        }
        sender.maybe_send(now, arena, &mut self.pkt_buf);
        let state = FlowState {
            sender,
            receiver: TcpReceiver::new(),
            origin: spec.origin,
            size_bytes: spec.size_bytes,
        };
        self.flows.insert(spec.id, FlowSlot::Tcp(state));
        self.flush_pkt_buf(lp, spec.origin, now, arena, queue, to_net);
        let k = self.key_for(lp);
        queue.schedule(
            now + Duration::from_millis(1000),
            k,
            Event::RtoCheck { flow: spec.id },
        );
    }

    /// Routes a forward-direction (source-site to destination-site) packet:
    /// through its bundle's sendbox if the edge deploys one, else directly
    /// to the bottleneck.
    ///
    /// `lp` is the LP acting (the flow's complex) and `origin` the flow's
    /// workload origin, both already resolved by the caller. At an agent
    /// edge the prefix classification of a bundled flow resolves to its own
    /// bundle (site addressing guarantees it), so the sendbox reached is
    /// always owned by this worker.
    #[allow(clippy::too_many_arguments)]
    fn route_forward(
        &mut self,
        pkt: PacketId,
        lp: u16,
        origin: Origin,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        to_net: &mut Vec<ToNet>,
    ) {
        let classified = self.edge.classify(&arena[pkt], || origin);
        let Some(b) = classified else {
            return self.send_to_bottleneck(pkt, lp, now, to_net);
        };
        let bundle = self
            .edge
            .bundle_mut(b)
            .expect("classified to a deployed bundle");
        let queued = bundle.enqueue(pkt, arena, now);
        if self.obs.metrics_on() {
            if queued {
                self.obs.metrics.add(CounterId::SendboxEnqueued, 1);
                self.obs
                    .metrics
                    .gauge_max(GaugeId::PeakSendboxBacklogBytes, bundle.queue_bytes());
                self.obs
                    .record(now, TraceKind::Enqueue { bundle: b as u32 });
            } else {
                self.obs.metrics.add(CounterId::SendboxDropped, 1);
                self.obs.record(now, TraceKind::Drop { bundle: b as u32 });
            }
        }
        if !bundle.release_scheduled {
            bundle.release_scheduled = true;
            let k = self.key_for(lp);
            queue.schedule(now, k, Event::SendboxRelease { bundle: b as u32 });
        }
    }

    fn send_to_bottleneck(&mut self, pkt: PacketId, lp: u16, now: Nanos, to_net: &mut Vec<ToNet>) {
        let key = self.key_for(lp);
        to_net.push(ToNet { at: now, key, pkt });
    }

    fn on_arrive_destination(
        &mut self,
        pkt: PacketId,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
    ) {
        let (flow_id, payload, seq, key) = {
            let p = &arena[pkt];
            (p.flow, p.payload, p.seq, p.key)
        };
        let (slot, origin, lp) = self.resolve(flow_id);

        self.site(lp).delivered += payload as u64;
        // The receivebox observes every bundled data packet arriving at the
        // destination site (each bundle's remote site has its own).
        if let Origin::Bundle(b) = origin {
            if let Some(ack) = self.edge.receivebox_on_packet(b, &arena[pkt], now) {
                let k = self.key_for(lp);
                queue.schedule(
                    now + self.reverse_delay,
                    k,
                    Event::CongestionAckArrive { ack },
                );
            }
        }

        // Application processing: the cumulative ACK and the highest byte
        // held, if a receiver answers.
        let answer = match slot.map(|slot| &mut self.flows.slots[slot]) {
            Some(FlowSlot::Ping {
                client: Some(_), ..
            }) => {
                // The "server" echoes the request; the response returns over
                // the (uncongested) reverse path. The packet's arena slot is
                // reused in place for the response — no copy, no allocation.
                arena[pkt].kind = PacketKind::Ack;
                let k = self.key_for(lp);
                queue.schedule(now + self.reverse_delay, k, Event::ArriveSource { pkt });
                return;
            }
            // The SACK information must be a snapshot taken together with
            // the cumulative ACK; mixing a stale cumulative value with newer
            // receiver state would make ordinary pipelining look like loss.
            Some(FlowSlot::Tcp(flow)) => {
                let ack_seq = flow.receiver.on_data(seq, payload);
                Some((ack_seq, flow.receiver.highest_received()))
            }
            // A TCP flow with no slot has finished: this is a late duplicate.
            // Its receiver, gone with the slot, held every byte and nothing
            // out of order, so it would have answered `size` for both.
            None => self
                .flows
                .directory
                .spec_of(flow_id)
                .filter(|spec| !spec.is_ping)
                .map(|spec| (spec.size_bytes, spec.size_bytes)),
            _ => None,
        };
        if let Some((ack_seq, highest)) = answer {
            let ack = Packet::ack(flow_id, key.reversed(), ack_seq, now).with_sack_highest(highest);
            let ack_id = arena.insert(ack);
            self.packets_created += 1;
            let k = self.key_for(lp);
            queue.schedule(
                now + self.reverse_delay,
                k,
                Event::ArriveSource { pkt: ack_id },
            );
        }
        // The data packet has been consumed at the destination endhost.
        arena.free(pkt);
    }

    fn on_arrive_source(
        &mut self,
        pkt: PacketId,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        to_net: &mut Vec<ToNet>,
    ) {
        let (flow_id, seq, sack_highest) = {
            let p = &arena[pkt];
            (p.flow, p.seq, p.sack_highest)
        };
        let (slot, origin, lp) = self.resolve(flow_id);
        // Whatever arrives back at the source (transport ACK or ping
        // response) terminates here.
        arena.free(pkt);
        let (completed, size, started) = match slot.map(|slot| &mut self.flows.slots[slot]) {
            Some(FlowSlot::Ping {
                client: Some(ping), ..
            }) => {
                if let Some(next) = ping.on_response(seq, now, arena) {
                    self.packets_created += 1;
                    self.route_forward(next, lp, origin, now, arena, queue, to_net);
                }
                return;
            }
            Some(FlowSlot::Tcp(flow)) => {
                let highest = sack_highest.max(seq);
                flow.sender
                    .on_ack_sack(seq, highest, now, arena, &mut self.pkt_buf);
                // A finished flow holds no slot, so a complete sender here
                // completed on this ACK.
                (
                    flow.sender.is_complete(),
                    flow.size_bytes,
                    flow.sender.started,
                )
            }
            _ => return,
        };
        self.flush_pkt_buf(lp, origin, now, arena, queue, to_net);
        if completed {
            // The flow leaves the table; its window goes to the next arrival.
            if let Some(FlowSlot::Tcp(mut flow)) = self.flows.remove(flow_id) {
                let spare = flow.sender.take_spare_window();
                if let Some(w) = spare.filter(|w| w.capacity() <= SPARE_WINDOW_SEGS) {
                    self.spare_windows.push(w);
                }
            }
            let fct = now.saturating_since(started);
            let unloaded = self.unloaded_fct(size);
            let bundle = match origin {
                Origin::Bundle(b) => Some(b),
                Origin::Direct => None,
            };
            if self.obs.metrics_on() {
                self.obs.metrics.add(CounterId::FlowsCompleted, 1);
                // Slowdown in thousandths; the histogram is integer-valued.
                let slowdown_milli = if unloaded.as_nanos() > 0 {
                    (fct.as_nanos() as f64 / unloaded.as_nanos() as f64 * 1000.0) as u64
                } else {
                    0
                };
                self.obs
                    .metrics
                    .observe(HistId::FctSlowdownMilli, slowdown_milli);
                if self.obs.flow_sampled(flow_id.0) {
                    // Close the span: fold the accumulated sendbox sojourn
                    // into the one FlowEnd record and drop the accumulator.
                    let span = self
                        .site(lp)
                        .obs
                        .spans
                        .remove(&flow_id.0)
                        .unwrap_or_default();
                    self.obs.record(
                        now,
                        TraceKind::FlowEnd {
                            flow: flow_id.0,
                            fct_ns: fct.as_nanos(),
                            sendbox_ns: span.sendbox_ns,
                            slowdown_milli,
                        },
                    );
                }
            }
            // Tag with this LP's next key so per-worker lists merge into
            // the canonical completion order. Events run in `(time, key)`
            // order and the tag is a key of the event's own LP, so the
            // list grows in that order too.
            let tag = self.key_for(lp);
            debug_assert!(
                self.fcts
                    .last()
                    .is_none_or(|&(t, k, _)| (t, k) < (now, tag)),
                "completed-flow records out of canonical order"
            );
            self.fcts.push((
                now,
                tag,
                FctRecord {
                    size_bytes: size,
                    start: started,
                    fct,
                    unloaded_fct: unloaded,
                    bundle,
                },
            ));
        }
    }

    /// Completion time of a flow of `size` bytes on an unloaded network:
    /// one RTT of latency plus serialization at the full bottleneck rate.
    fn unloaded_fct(&self, size: u64) -> Duration {
        let wire_bytes = size + (size / 1460 + 1) * 40;
        self.config.rtt + self.config.bottleneck_rate.transmit_time(wire_bytes)
    }

    fn on_control_tick(&mut self, bundle: usize, now: Nanos, queue: &mut EventQueue) {
        let lp = bundle_lp(bundle);
        let Some(b) = self.edge.bundle(bundle) else {
            return;
        };
        // The mode change is detected by timeline growth.
        let timeline_before = b.mode_timeline.len();
        let update = self.edge.tick(bundle, now);
        let control = self.edge.control(bundle).expect("ticked above");
        let interval = control.config().control_interval;
        let b = self.edge.bundle_mut(bundle).expect("checked above");
        // The new rate may allow more packets out immediately.
        let kick = !b.release_scheduled && !b.tbf.is_empty();
        if kick {
            b.release_scheduled = true;
        }
        // `(rate_bps, mode_changed, mode)` when metrics are on.
        let tick_obs = self.obs.metrics_on().then(|| {
            (
                b.rate().as_bps(),
                b.mode_timeline.len() > timeline_before,
                mode_byte(b.mode()),
            )
        });
        if let Some((rate_bps, mode_changed, mode)) = tick_obs {
            self.obs.metrics.add(CounterId::ControlTicks, 1);
            self.obs.record(
                now,
                TraceKind::RateChange {
                    bundle: bundle as u32,
                    rate_bps,
                },
            );
            if mode_changed {
                self.obs.metrics.add(CounterId::ModeChanges, 1);
                self.obs.record(
                    now,
                    TraceKind::ModeChange {
                        bundle: bundle as u32,
                        mode,
                    },
                );
            }
            if let Some(update) = &update {
                self.obs.metrics.add(CounterId::EpochUpdates, 1);
                self.obs.record(
                    now,
                    TraceKind::Epoch {
                        bundle: bundle as u32,
                        size_pkts: update.epoch_size as u64,
                    },
                );
            }
        }
        if let Some(update) = update {
            let k = self.key_for(lp);
            queue.schedule(
                now + self.forward_delay,
                k,
                Event::EpochUpdateArrive { update },
            );
        }
        if kick {
            let k = self.key_for(lp);
            queue.schedule(
                now,
                k,
                Event::SendboxRelease {
                    bundle: bundle as u32,
                },
            );
        }
        let k = self.key_for(lp);
        queue.schedule(
            now + interval,
            k,
            Event::ControlTick {
                bundle: bundle as u32,
            },
        );
    }

    fn on_sendbox_release(
        &mut self,
        bundle: usize,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        to_net: &mut Vec<ToNet>,
    ) {
        let lp = bundle_lp(bundle);
        let Some(b) = self.edge.bundle_mut(bundle) else {
            return;
        };
        b.release_scheduled = false;
        let mut released = std::mem::take(&mut self.release_buf);
        let reschedule = drain_release_burst(
            |t| self.edge.try_release(bundle, arena, t),
            now,
            &mut released,
        );
        if reschedule.is_some() {
            let b = self.edge.bundle_mut(bundle).expect("checked above");
            b.release_scheduled = true;
        }
        if self.obs.metrics_on() {
            for &pkt in released.iter() {
                // `enqueued_at` still holds the sendbox-enqueue stamp: the
                // bottleneck queue only rewrites it on its own enqueue.
                let sojourn = now.saturating_since(arena[pkt].enqueued_at);
                self.obs
                    .metrics
                    .observe(HistId::SendboxSojournNs, sojourn.as_nanos());
                self.obs.record(
                    now,
                    TraceKind::Dequeue {
                        bundle: bundle as u32,
                        sojourn_ns: sojourn.as_nanos(),
                    },
                );
                let flow = arena[pkt].flow.0;
                if self.obs.flow_sampled(flow) {
                    self.obs.record(
                        now,
                        TraceKind::FlowSendbox {
                            flow,
                            sojourn_ns: sojourn.as_nanos(),
                        },
                    );
                    // Accumulate into the flow's span (kept in its LP's
                    // record, so a checkpoint saves it with the bundle). A
                    // released packet's flow was admitted on this bundle.
                    if let Some(span) = self.site(lp).obs.spans.get_mut(&flow) {
                        span.pkts += 1;
                        span.sendbox_ns += sojourn.as_nanos();
                    }
                }
            }
        }
        for pkt in released.drain(..) {
            self.send_to_bottleneck(pkt, lp, now, to_net);
        }
        self.release_buf = released;
        if let Some(d) = reschedule {
            let k = self.key_for(lp);
            queue.schedule(
                now + d,
                k,
                Event::SendboxRelease {
                    bundle: bundle as u32,
                },
            );
        }
    }

    fn on_rto_check(
        &mut self,
        flow: FlowId,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        to_net: &mut Vec<ToNet>,
    ) {
        let (slot, origin, lp) = self.resolve(flow);
        let Some(FlowSlot::Tcp(f)) = slot.map(|slot| &mut self.flows.slots[slot]) else {
            return;
        };
        let next = f.sender.on_rto_check(now, arena, &mut self.pkt_buf);
        let complete = f.sender.is_complete();
        self.flush_pkt_buf(lp, origin, now, arena, queue, to_net);
        // Flow idle: poll again later in case new data appears (cheap: one
        // event per second per flow). A complete flow is never polled again.
        let at = match next {
            Some(at) => at,
            None if !complete => now + Duration::from_secs(1),
            None => return,
        };
        let k = self.key_for(lp);
        queue.schedule(at, k, Event::RtoCheck { flow });
    }

    fn on_sample(&mut self, lp: u16, now: Nanos, queue: &mut EventQueue) {
        let interval = self.config.sample_interval.as_secs_f64();
        let Some(site) = &mut self.lps[lp as usize] else {
            not_owned(lp)
        };
        let mbps = (site.delivered as f64 * 8.0) / interval / 1e6;
        site.throughput_mbps.push(now, mbps);
        site.delivered = 0;
        // The sendbox readings: the direct LP has no bundle, so no sendbox.
        let bundle = lp_bundle(lp);
        if let Some(sendbox) = bundle.and_then(|b| self.edge.bundle_mut(b)) {
            sendbox.sample_queue_delay(now);
            site.pacing_rate_mbps
                .push(now, sendbox.rate().as_mbps_f64());
            if let Some(m) = bundle.and_then(|b| self.edge.control(b)?.last_measurement()) {
                site.rtt_estimate_ms.push(now, m.rtt.as_millis_f64());
                site.recv_rate_estimate_mbps
                    .push(now, m.recv_rate.as_mbps_f64());
            }
        }
        if self.obs.metrics_on() {
            // Bundle health monitors: pure functions of this sample's
            // readings vs the previous sample's (state saved with the
            // bundle), evaluated on the canonical sample stream so verdicts
            // are identical for any shard count.
            let readings = bundle.and_then(|b| {
                let sendbox = self.edge.bundle(b)?;
                let sent = self.edge.control(b)?.stats().packets_sent;
                let mode_changes = sendbox.mode_timeline.len().saturating_sub(1) as u64;
                Some((b, sendbox.queue_bytes(), sent, mode_changes))
            });
            if let Some((b, backlog, sent, mode_changes)) = readings {
                let mut verdicts = std::mem::take(&mut self.health_buf);
                verdicts.clear();
                self.site(lp)
                    .obs
                    .health
                    .check_bundle(backlog, sent, mode_changes, &mut verdicts);
                for &(kind, value) in &verdicts {
                    self.obs.metrics.add(CounterId::HealthEvents, 1);
                    self.obs.record(
                        now,
                        TraceKind::Health {
                            kind: kind as u8,
                            subject: b as u32,
                            value,
                        },
                    );
                }
                self.health_buf = verdicts;
            }
            // In the single-threaded host the sample stream doubles as the
            // telemetry flush beat; the sharded driver flushes at every
            // window barrier instead (flushing twice is a harmless no-op).
            self.obs.flush(now);
        }
        let k = self.key_for(lp);
        queue.schedule(now + self.config.sample_interval, k, Event::Sample { lp });
    }

    /// The site-side LP an event is handled by — the rule a checkpoint
    /// groups a worker's pending events by. Flow-routed events resolve
    /// through the flow table, so this must run while it is intact.
    fn event_lp(&self, event: &Event, arena: &PacketArena) -> u16 {
        match *event {
            Event::FlowArrival { spec } => origin_lp(self.spec(spec).origin),
            Event::ArriveDestination { pkt } | Event::ArriveSource { pkt } => {
                self.flow_lp(arena[pkt].flow)
            }
            Event::CongestionAckArrive { ack } => bundle_lp(ack.bundle.0 as usize),
            Event::EpochUpdateArrive { update } => bundle_lp(update.bundle.0 as usize),
            Event::ControlTick { bundle } | Event::SendboxRelease { bundle } => {
                bundle_lp(bundle as usize)
            }
            Event::RtoCheck { flow } => self.flow_lp(flow),
            Event::Sample { lp } => lp,
            Event::ArriveBottleneck { .. }
            | Event::PathDequeue { .. }
            | Event::PathSample { .. }
            | Event::FluidUpdate { .. } => {
                unreachable!("net event in a worker queue")
            }
        }
    }

    /// Appends bundle `bundle`'s snapshot section to `out`, given its
    /// pending events in canonical order: its LP sequence and load
    /// counters, the events (packets cloned by value), its sendbox edge
    /// state with the queued packets, its flows' TCP endhosts and ping
    /// clients, its telemetry series and in-flight observability state.
    fn write_bundle<'a>(
        &mut self,
        bundle: usize,
        events: impl ExactSizeIterator<Item = &'a Pending> + Clone,
        arena: &PacketArena,
        out: &mut Vec<u8>,
    ) {
        let lp = bundle_lp(bundle);
        let Some(site) = &self.lps[lp as usize] else {
            panic!("saving bundle {bundle}, which this worker does not own");
        };
        (bundle, site.seq, site.events, site.delivered).encode(out);
        save_pending(events, arena, out);
        self.edge.write_bundle(bundle, arena, out);
        // The bundle's flows, then its pings, each in ascending id.
        let flows = self.flows.sorted(lp, |slot| match slot {
            FlowSlot::Tcp(f) => Some(f),
            _ => None,
        });
        flows.encode(out);
        let pings = self.flows.sorted(lp, |slot| match slot {
            FlowSlot::Ping { origin, client } => Some((client, origin)),
            _ => None,
        });
        pings.encode(out);
        site.throughput_mbps.encode(out);
        site.pacing_rate_mbps.encode(out);
        site.rtt_estimate_ms.encode(out);
        site.recv_rate_estimate_mbps.encode(out);
        save_obs_state(&site.obs, out);
    }

    /// Installs bundle `bundle`'s section, as a checkpoint of any host
    /// wrote it, into this worker, which must not hold the bundle: packets land
    /// in `arena`, pending events in `queue` under their original
    /// `(timestamp, key)` — the canonical order guarantees the merged
    /// stream is exactly what the single-threaded engine would run — and
    /// the sendbox's in-scheduler export is armed if metrics are on. `now`
    /// only anchors an agent's tick queue, which event-driven hosts never
    /// consult.
    ///
    /// Bytes that are not bundle `bundle`'s section, or that name a flow
    /// this worker already holds or an agent id or prefix it already
    /// manages, are the `Err`; the worker is then half-updated and must be
    /// dropped.
    pub fn load_bundle(
        &mut self,
        bundle: usize,
        queue: &mut EventQueue,
        arena: &mut PacketArena,
        r: &mut Reader<'_>,
        now: Nanos,
    ) -> Result<(), DecodeError> {
        assert!(
            !self.owns_bundle(bundle),
            "loading bundle {bundle}, which this worker already owns"
        );
        let (found, seq, events, delivered) = <(usize, u64, u64, u64)>::decode(r)?;
        if found != bundle {
            return Err(r.error("bundle sections out of order"));
        }
        load_pending(queue, arena, r, "missing bundle event packet")?;
        self.edge.load_bundle(&self.config, bundle, arena, r, now)?;
        if let Some(b) = self.edge.bundle_mut(bundle) {
            b.set_obs(self.obs.metrics_on());
        }
        let twice = "bundle section names a flow id twice";
        for _ in 0..decode_len(r, "bundle flow count")? {
            let (id, flow) = <(FlowId, FlowState)>::decode(r)?;
            self.flows.load(id, FlowSlot::Tcp(flow), r, twice)?;
        }
        for _ in 0..decode_len(r, "bundle ping count")? {
            let (id, client, origin) = Decode::decode(r)?;
            self.flows
                .load(id, FlowSlot::Ping { origin, client }, r, twice)?;
        }
        self.lps[bundle_lp(bundle) as usize] = Some(SiteLp {
            seq,
            events,
            delivered,
            throughput_mbps: TimeSeries::decode(r)?,
            pacing_rate_mbps: TimeSeries::decode(r)?,
            rtt_estimate_ms: TimeSeries::decode(r)?,
            recv_rate_estimate_mbps: TimeSeries::decode(r)?,
            obs: load_obs_state(r)?,
            section_len: 0,
        });
        Ok(())
    }

    /// The worker's run-wide accumulators that belong to no single LP:
    /// counters, the completed-flow records since the last call (moved
    /// out, in canonical merge order) and the agent's lifetime stats. One
    /// [`WorkerResidue`] per worker; a whole-simulation snapshot and the
    /// report merge them into one (the merge is what makes both
    /// partition-independent).
    fn take_residue(&mut self) -> WorkerResidue {
        WorkerResidue {
            events_processed: self.events_processed,
            packets_created: self.packets_created,
            fcts: std::mem::take(&mut self.fcts),
            agent_stats: self.edge.agent().map(|a| a.stats()),
        }
    }

    /// Installs a merged residue on this worker (restore gives the whole
    /// residue to worker 0; report assembly sums across workers, so totals
    /// come out identical to the uninterrupted run).
    pub fn apply_residue(&mut self, res: WorkerResidue) {
        self.events_processed = res.events_processed;
        self.packets_created = res.packets_created;
        self.fcts = res.fcts;
        if let Some(stats) = res.agent_stats {
            self.edge.restore_agent_stats(stats);
        }
    }

    /// This worker's part of the whole-simulation snapshot stamped `at`,
    /// taken without disturbing the live run: its residue, whose
    /// completed-flow records move to the host's `snapshot::Writer` (which
    /// keeps them for every later checkpoint and hands them back to the
    /// report), so each record is handed over once; the direct slice
    /// iff it owns the direct LP, and the section of every bundle it owns
    /// in ascending index.
    /// `queue` must already hold every delivery published below `at`.
    /// Ends by flushing the records below `at` to the telemetry stream, so
    /// a restore resumes from a complete prefix (saving records nothing,
    /// so the flush may as well come last).
    pub fn save_part(
        &mut self,
        queue: &mut EventQueue,
        arena: &PacketArena,
        at: Nanos,
    ) -> WorkerPart {
        let mut part = WorkerPart {
            residue: self.take_residue(),
            direct: None,
            bundles: Vec::new(),
        };
        // One lift for every owned LP, grouped by LP in canonical order.
        let lifted = Lifted::lift(
            queue,
            |e| !is_net_event(e),
            self.lps.len(),
            |e| usize::from(self.event_lp(e, arena)),
        );
        if self.owns_lp(LP_DIRECT) {
            let mut buf = Vec::with_capacity(self.site(LP_DIRECT).section_len);
            self.write_direct(lifted.bucket(usize::from(LP_DIRECT)), arena, &mut buf);
            self.site(LP_DIRECT).section_len = buf.len();
            part.direct = Some(buf);
        }
        for b in 0..self.config.n_bundles() {
            if self.owns_bundle(b) {
                let lp = bundle_lp(b);
                let mut buf = Vec::with_capacity(self.site(lp).section_len);
                self.write_bundle(b, lifted.bucket(usize::from(lp)), arena, &mut buf);
                self.site(lp).section_len = buf.len();
                part.bundles.push((b, buf));
            }
        }
        lifted.restore(queue);
        self.obs.flush(at);
        part
    }

    /// Appends the direct cross-traffic LP's state to a snapshot stream,
    /// given its pending events in canonical order (serialized with their
    /// packets cloned by value). Only valid on the worker owning the
    /// direct LP.
    fn write_direct<'a>(
        &mut self,
        events: impl ExactSizeIterator<Item = &'a Pending> + Clone,
        arena: &PacketArena,
        out: &mut Vec<u8>,
    ) {
        let Some(site) = &self.lps[LP_DIRECT as usize] else {
            not_owned(LP_DIRECT)
        };
        save_pending(events, arena, out);
        // Direct flows, then direct pings, each in ascending id.
        let flows = self.flows.sorted(LP_DIRECT, |slot| match slot {
            FlowSlot::Tcp(f) => Some(f),
            _ => None,
        });
        flows.encode(out);
        let pings = self.flows.sorted(LP_DIRECT, |slot| match slot {
            FlowSlot::Ping { client, .. } => Some(client),
            _ => None,
        });
        pings.encode(out);
        site.seq.encode(out);
        site.events.encode(out);
        site.delivered.encode(out);
        site.throughput_mbps.encode(out);
        save_obs_state(&site.obs, out);
    }

    /// Restores the direct-LP slice of a [`WorkerCore::save_part`],
    /// inserting its packets into this worker's `arena` and scheduling its
    /// pending events into `queue`.
    pub fn load_direct_state(
        &mut self,
        queue: &mut EventQueue,
        arena: &mut PacketArena,
        r: &mut Reader<'_>,
    ) -> Result<(), DecodeError> {
        load_pending(queue, arena, r, "missing direct event packet")?;
        let twice = "direct slice names a flow id twice";
        for _ in 0..decode_len(r, "direct flow count")? {
            let (id, flow) = <(FlowId, FlowState)>::decode(r)?;
            self.flows.load(id, FlowSlot::Tcp(flow), r, twice)?;
        }
        for _ in 0..decode_len(r, "direct ping count")? {
            let (id, client) = <(FlowId, Option<PingClient>)>::decode(r)?;
            let origin = Origin::Direct;
            self.flows
                .load(id, FlowSlot::Ping { origin, client }, r, twice)?;
        }
        self.lps[LP_DIRECT as usize] = Some(SiteLp {
            seq: u64::decode(r)?,
            events: u64::decode(r)?,
            delivered: u64::decode(r)?,
            throughput_mbps: TimeSeries::decode(r)?,
            obs: load_obs_state(r)?,
            ..SiteLp::default()
        });
        Ok(())
    }
}

/// A completed-flow record tagged with the `(time, key)` of the ACK event
/// that completed it: its place in the canonical completion order.
pub type TaggedFct = (Nanos, EventKey, FctRecord);

/// Merges two runs of completed-flow records, each in canonical
/// `(time, key)` order, into one. A run that starts after the other ends —
/// the records since the last checkpoint after those of every earlier one —
/// is appended without a comparison per record.
pub(crate) fn merge_runs(mut a: Vec<TaggedFct>, b: Vec<TaggedFct>) -> Vec<TaggedFct> {
    let order = |&(t, k, _): &TaggedFct| (t, k);
    debug_assert!(
        a.is_sorted_by_key(order) && b.is_sorted_by_key(order),
        "completed-flow records out of canonical order"
    );
    match (a.last(), b.first()) {
        (None, _) => return b,
        (Some(last), Some(first)) if order(last) > order(first) => {}
        _ => {
            a.extend(b);
            return a;
        }
    }
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    while let (Some(x), Some(y)) = (a.peek(), b.peek()) {
        let next = if order(y) < order(x) {
            b.next()
        } else {
            a.next()
        };
        merged.extend(next);
    }
    merged.extend(a);
    merged.extend(b);
    merged
}

/// A worker's run-wide accumulators that belong to no single LP. Snapshots
/// merge every worker's residue into one canonical record (sums of
/// counters, completed flows in canonical order, summed agent stats), and
/// `assemble_report` folds them with the same [`WorkerResidue::merge`], so
/// the merged bytes and the report are identical for any shard count.
#[derive(Debug, Clone, Default)]
pub struct WorkerResidue {
    /// Events handled by the worker cores.
    pub events_processed: u64,
    /// Packets created by the worker cores' endhosts.
    pub packets_created: u64,
    /// Completed-flow records in canonical `(time, key)` order.
    pub fcts: Vec<TaggedFct>,
    /// Summed agent lifetime stats (agent mode only).
    pub agent_stats: Option<bundler_agent::AgentStats>,
}

impl WorkerResidue {
    /// Folds another worker's residue into this one: sums the counters and
    /// agent stats and merges the two completed-flow lists, each already in
    /// canonical order.
    pub fn merge(&mut self, other: WorkerResidue) {
        self.events_processed += other.events_processed;
        self.packets_created += other.packets_created;
        self.fcts = merge_runs(std::mem::take(&mut self.fcts), other.fcts);
        if let Some(stats) = other.agent_stats {
            *self.agent_stats.get_or_insert_with(Default::default) += stats;
        }
    }
}

serde::layout!(value WorkerResidue { events_processed, packets_created, fcts, agent_stats });

/// Appends an LP's in-flight observability state (flow-span accumulators
/// in `BTreeMap` order, then the health-monitor readings) behind a one-byte
/// presence flag, `0` when there is nothing to carry. Lives here rather
/// than in `bundler-obs` so the obs crate stays serde-free.
fn save_obs_state(state: &BundleObsState, out: &mut Vec<u8>) {
    if state.is_empty() {
        0u8.encode(out);
        return;
    }
    1u8.encode(out);
    (state.spans.len() as u64).encode(out);
    for (flow, span) in &state.spans {
        flow.encode(out);
        span.admitted_at.encode(out);
        span.size_bytes.encode(out);
        span.pkts.encode(out);
        span.sendbox_ns.encode(out);
    }
    let h = &state.health;
    h.last_backlog.encode(out);
    h.growth_streak.encode(out);
    h.last_packets_sent.encode(out);
    h.last_mode_changes.encode(out);
    h.primed.encode(out);
}

/// Reverses [`save_obs_state`].
fn load_obs_state(r: &mut Reader<'_>) -> Result<BundleObsState, DecodeError> {
    let mut state = BundleObsState::default();
    match u8::decode(r)? {
        0 => return Ok(state),
        1 => {}
        _ => return Err(r.error("unknown obs presence tag")),
    }
    let n = u64::decode(r)? as usize;
    for _ in 0..n {
        let flow = u64::decode(r)?;
        let span = bundler_obs::FlowSpan {
            admitted_at: Nanos::decode(r)?,
            size_bytes: u64::decode(r)?,
            pkts: u64::decode(r)?,
            sendbox_ns: u64::decode(r)?,
        };
        state.spans.insert(flow, span);
    }
    state.health.last_backlog = u64::decode(r)?;
    state.health.growth_streak = u32::decode(r)?;
    state.health.last_packets_sent = u64::decode(r)?;
    state.health.last_mode_changes = u64::decode(r)?;
    state.health.primed = bool::decode(r)?;
    Ok(state)
}

/// Drains one release burst from a sendbox datapath: up to 64 packets per
/// event (to keep single events bounded), appending the released packet ids
/// to `released` and returning the delay after which to schedule the next
/// release event (`None` when the queue emptied).
fn drain_release_burst(
    mut try_release: impl FnMut(Nanos) -> Release,
    now: Nanos,
    released: &mut Vec<PacketId>,
) -> Option<Duration> {
    loop {
        match try_release(now) {
            Release::Packet(pkt) => {
                released.push(pkt);
                if released.len() >= 64 {
                    break Some(Duration::ZERO);
                }
            }
            Release::Wait(d) => break Some(d.max(Duration::from_micros(10))),
            Release::Empty => break None,
        }
    }
}

// ---------------------------------------------------------------------------
// NetCore
// ---------------------------------------------------------------------------

/// Bits of a path's private sequence space within an [`EventKey`]'s
/// 48-bit sequence field; the global path id occupies the bits above, so
/// the per-path streams can never collide.
const PATH_SEQ_SHIFT: u32 = 40;

/// The most bottleneck sub-paths a run can configure — the path id must
/// fit above `PATH_SEQ_SHIFT` in the key packing.
pub const MAX_NET_PATHS: usize = 256;

/// The load balancer a run's configuration implies. It is pure state-free
/// data: workers and net shards each hold their own copy and make
/// identical picks for the same packet.
pub fn balancer_for(config: &SimulationConfig) -> LoadBalancer {
    LoadBalancer::new(config.num_paths.max(1))
}

/// The shared-bottleneck logical process: load balancer, paths, and the
/// bottleneck-side statistics.
///
/// One `NetCore` instance hosts a *partition* of the global path set: the
/// single-threaded engine's core owns every path; in the sharded host net
/// shard `k` owns `{gid : gid % net_shards == k}` (every path when
/// `net_shards = 1`). Its paths' records are indexed by the **global**
/// path id and every event key is drawn from the owning path's private
/// sequence stream (`(gid << PATH_SEQ_SHIFT) | seq`), so the union of all
/// shards' outputs is bit-identical to one core owning everything — the
/// invariant the cross-shard differential matrix in `crates/shard/tests`
/// pins.
pub struct NetCore {
    /// Every path of the run, by global id. Paths this core does not own
    /// are still constructed (so global indexing works unchanged) but never
    /// receive events here.
    paths: Vec<PathLp>,
    /// This core's net-shard index and the run's net-shard count.
    shard: usize,
    net_shards: usize,
    lb: LoadBalancer,
    sample_interval: Duration,
    /// The configured per-path rate, kept so capacity-scale faults can
    /// compute (and restore) absolute rates deterministically.
    base_path_rate: Rate,
    /// The fault plan: immutable configuration.
    fault_plan: FaultPlan,
    /// The fluid cross-traffic tier, when configured. Lives here because
    /// its integration points are net events: each path's `FluidUpdate`
    /// stream reads and writes only that path's fluid state, so capacity
    /// faults perturb it identically for any partitioning.
    fluid: Option<FluidState>,
    /// Observability state for the bottleneck side (shard id
    /// [`bundler_obs::NET_SHARD`], or the id below it for net shard `k`).
    /// Public so the sharded driver can stamp net-phase spans and drain
    /// the ring at barriers.
    pub obs: ShardObs,
}

/// The dynamic half of fault injection on one path: the plan is
/// immutable config; each path walks its **own** cursor over it, applying
/// link/capacity entries addressed to it and folding every packet-level
/// burst into its own counters. For `num_paths = 1` this is exactly the
/// historical single-cursor semantics; for multipath it makes fault
/// application independent of how arrivals interleave across paths, which
/// is what lets paths live on different net shards. Part of the snapshot.
#[derive(Clone, Default)]
struct PathFaults {
    /// Index of the first plan entry not yet applied.
    cursor: usize,
    /// "Interface down", toggled by link flaps.
    link_down: bool,
    /// Remaining arrivals to drop (burst loss).
    burst_loss: u32,
    /// Remaining arrivals to duplicate.
    duplicate: u32,
    /// Remaining adjacent arrival pairs to swap.
    reorder: u32,
    /// One-slot reorder buffer: a held packet is released behind the next
    /// arrival. A packet travels by value, so the layout leaves it to the
    /// path section.
    held: Option<PacketId>,
}

serde::layout!(state PathFaults { cursor, link_down, burst_loss, duplicate, reorder });

/// One bottleneck path's logical process: the path and everything the net
/// core keeps for it. Every handler touches exactly one record, which is
/// what lets the paths live on different net shards; a path section
/// writes one record.
struct PathLp {
    path: BottleneckPath,
    /// Schedule-sequence counter (the low half of the key packing above).
    seq: u64,
    /// The path's [`LP_FLUID`] sequence counter, separate from `seq` so
    /// the packet-event key stream is untouched when the tier is off.
    fluid_seq: u64,
    /// Events handled, summed into the report.
    events: u64,
    /// Packets created *by the net core itself* — duplication faults mint
    /// copies here rather than at an endhost.
    minted: u64,
    /// Fault state (which plan entries have fired, what is pending), so
    /// fault application is a pure function of the path's own event
    /// stream.
    faults: PathFaults,
    /// Length of the path's previous snapshot section, the size hint for
    /// the next one's buffer. In no snapshot itself.
    section_len: usize,
}

impl NetCore {
    /// Builds the bottleneck from the simulation configuration, owning
    /// every path.
    pub fn new(config: &SimulationConfig) -> Self {
        NetCore::with_partition(config, 0, 1)
    }

    /// Builds net shard `shard` of `net_shards`, owning the global paths
    /// `{gid : gid % net_shards == shard}`.
    pub fn with_partition(config: &SimulationConfig, shard: usize, net_shards: usize) -> Self {
        let n = config.num_paths.max(1);
        assert!(n <= MAX_NET_PATHS, "at most {MAX_NET_PATHS} paths");
        assert!(net_shards >= 1 && shard < net_shards, "bad net partition");
        let per_path_rate = Rate::from_bps(config.bottleneck_rate.as_bps() / n as u64);
        let buffer = config.effective_buffer_pkts();
        let forward_delay = config.lookahead();
        let paths = (0..n)
            .map(|i| {
                let extra = Duration(config.path_delay_spread.as_nanos() * i as u64);
                let delay = forward_delay + extra;
                let path = if config.in_network_fq {
                    let queue = Policy::FairQueue.build(buffer);
                    BottleneckPath::with_queue(per_path_rate, delay, queue)
                } else {
                    BottleneckPath::drop_tail(per_path_rate, delay, buffer)
                };
                PathLp {
                    path,
                    seq: 0,
                    fluid_seq: 0,
                    events: 0,
                    minted: 0,
                    faults: PathFaults::default(),
                    section_len: 0,
                }
            })
            .collect();
        let fluid = config
            .cross_traffic
            .as_ref()
            .map(|ct| FluidState::new(ct, n, buffer));
        let mut obs = ShardObs::new(config.obs, bundler_obs::net_shard_id(shard));
        obs.sampler = config.flow_trace.map(FlowSampler::new);
        obs.stream = config.stream.clone();
        // Prime the fluid-collapse monitor eagerly: aggregates open at
        // their floor, and an edge can only fire on a later *transition*
        // back down to it.
        if let Some(fluid) = &fluid {
            obs.fluid_floor = vec![true; fluid.num_aggregates()];
        }
        NetCore {
            paths,
            shard,
            net_shards,
            lb: balancer_for(config),
            sample_interval: config.sample_interval,
            base_path_rate: per_path_rate,
            fault_plan: config.faults.clone().unwrap_or_default(),
            fluid,
            obs,
        }
    }

    /// True if this core owns global path `gid`.
    #[inline]
    pub fn owns_path(&self, gid: usize) -> bool {
        gid % self.net_shards == self.shard
    }

    /// The global ids of the paths this core owns, ascending.
    fn owned_paths(&self) -> std::iter::StepBy<std::ops::Range<usize>> {
        (self.shard..self.paths.len()).step_by(self.net_shards)
    }

    /// This core's net-shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Events this core has handled (across its owned paths).
    pub fn events_processed(&self) -> u64 {
        self.paths.iter().map(|p| p.events).sum()
    }

    /// Packets minted by the net core itself (duplication faults).
    pub fn packets_created(&self) -> u64 {
        self.paths.iter().map(|p| p.minted).sum()
    }

    #[inline]
    fn key_for(&mut self, gid: usize) -> EventKey {
        let seq = &mut self.paths[gid].seq;
        *seq += 1;
        debug_assert!(*seq < 1 << PATH_SEQ_SHIFT, "path sequence space exhausted");
        EventKey::new(LP_NET, ((gid as u64) << PATH_SEQ_SHIFT) | *seq)
    }

    #[inline]
    fn fluid_key_for(&mut self, gid: usize) -> EventKey {
        let seq = &mut self.paths[gid].fluid_seq;
        *seq += 1;
        debug_assert!(*seq < 1 << PATH_SEQ_SHIFT, "fluid sequence space exhausted");
        EventKey::new(LP_FLUID, ((gid as u64) << PATH_SEQ_SHIFT) | *seq)
    }

    /// The global path a pending net event belongs to. `ArriveBottleneck`
    /// resolves through the pure load balancer — the same pick `admit`
    /// will make when the event is eventually handled.
    pub fn net_event_path(&self, event: &Event, arena: &PacketArena) -> usize {
        match event {
            Event::ArriveBottleneck { pkt } => self.lb.pick(&arena[*pkt]),
            Event::PathDequeue { path }
            | Event::PathSample { path }
            | Event::FluidUpdate { path } => *path as usize,
            _ => unreachable!("worker event in a net queue"),
        }
    }

    /// One snapshot section per owned path, ascending by global id, taken
    /// without disturbing the live run; then the records below `at` are
    /// flushed to the telemetry stream, as [`WorkerCore::save_part`] does.
    /// Every net event below `at` must already have been handled.
    pub fn save_sections(
        &mut self,
        queue: &mut EventQueue,
        arena: &PacketArena,
        at: Nanos,
    ) -> Vec<PathSection> {
        // One lift for every owned path, grouped by path in canonical order.
        let lifted = Lifted::lift(queue, is_net_event, self.paths.len(), |e| {
            self.net_event_path(e, arena)
        });
        let mut sections = Vec::new();
        for gid in self.owned_paths() {
            let mut buf = Vec::with_capacity(self.paths[gid].section_len);
            self.write_path_section(gid, lifted.bucket(gid), arena, &mut buf);
            self.paths[gid].section_len = buf.len();
            sections.push((gid, buf));
        }
        lifted.restore(queue);
        self.obs.flush(at);
        sections
    }

    /// Appends global path `gid`'s complete dynamic slice to a snapshot
    /// stream, given its pending net events in canonical order: the path's
    /// sequence counters, queue (packets cloned by value), fault cursor,
    /// fluid state, and those events. Because every field is per-path, the
    /// concatenation of all paths' sections in global id order is
    /// byte-identical no matter how paths were partitioned across net
    /// shards.
    fn write_path_section<'a>(
        &mut self,
        gid: usize,
        events: impl ExactSizeIterator<Item = &'a Pending> + Clone,
        arena: &PacketArena,
        out: &mut Vec<u8>,
    ) {
        debug_assert!(self.owns_path(gid));
        let p = &mut self.paths[gid];
        (p.seq, p.events, p.minted).encode(out);
        p.path.save_state(arena, out);
        p.faults.save_state(out);
        match p.faults.held {
            Some(id) => {
                true.encode(out);
                arena[id].encode(out);
            }
            None => false.encode(out),
        }
        // The fluid tier's section exists only when the tier is configured
        // (the config fingerprint pins whether it is), so snapshots of
        // packet-only runs keep a pre-fluid byte layout. The collapse
        // monitor's edge-trigger flags for the aggregates pinned to this
        // path ride along, so a resumed run does not re-fire (or miss) a
        // collapse event the interrupted run already decided.
        if let Some(fluid) = &self.fluid {
            p.fluid_seq.encode(out);
            fluid.save_path_state(gid, out);
            for i in 0..fluid.num_aggregates() {
                if fluid.aggregate_path(i) as usize == gid {
                    self.obs.fluid_floor[i].encode(out);
                }
            }
        }
        save_pending(events, arena, out);
    }

    /// Restores one [`NetCore::save_sections`] section, global path
    /// `gid`'s, into a freshly configured core, inserting packets
    /// into `arena` and scheduling the path's pending net events into
    /// `queue`. The restoring core need not be partitioned the way the
    /// writing one was — any core owning `gid` can adopt the section.
    pub fn load_path_section(
        &mut self,
        gid: usize,
        queue: &mut EventQueue,
        arena: &mut PacketArena,
        r: &mut Reader<'_>,
    ) -> Result<(), DecodeError> {
        debug_assert!(self.owns_path(gid));
        let p = &mut self.paths[gid];
        (p.seq, p.events, p.minted) = Decode::decode(r)?;
        p.path.load_state(arena, r)?;
        p.faults.load_state(r)?;
        p.faults.held = if bool::decode(r)? {
            Some(arena.insert(Packet::decode(r)?))
        } else {
            None
        };
        if let Some(fluid) = &mut self.fluid {
            p.fluid_seq = u64::decode(r)?;
            fluid.load_path_state(gid, r)?;
            fluid.reapply_path(gid, &mut p.path);
            for i in 0..fluid.num_aggregates() {
                if fluid.aggregate_path(i) as usize == gid {
                    self.obs.fluid_floor[i] = bool::decode(r)?;
                }
            }
        }
        load_pending(queue, arena, r, "missing net event packet")
    }

    /// Schedules the initial events of every path this core owns: the
    /// path's sample stream, plus its fluid-integration stream when the
    /// tier is configured.
    pub fn schedule_initial(&mut self, queue: &mut EventQueue) {
        let fluid_at = self
            .fluid
            .as_ref()
            .map(|f| Nanos::ZERO + f.update_interval());
        for gid in self.owned_paths() {
            let (at, key) = (Nanos::ZERO + self.sample_interval, self.key_for(gid));
            queue.schedule(at, key, Event::PathSample { path: gid as u32 });
            if let Some(at) = fluid_at {
                let key = self.fluid_key_for(gid);
                queue.schedule(at, key, Event::FluidUpdate { path: gid as u32 });
            }
        }
    }

    /// Handles one net-LP event. Every event resolves to exactly one
    /// global path (arrivals through the pure load balancer), and every
    /// side effect — fault cursor, queue state, sequence counters,
    /// telemetry — touches only that path's slice.
    pub fn handle(
        &mut self,
        event: Event,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        deliveries: &mut Vec<Delivery>,
    ) {
        match event {
            Event::ArriveBottleneck { pkt } => self.on_arrive_bottleneck(pkt, now, arena, queue),
            Event::PathDequeue { path } => {
                self.on_path_dequeue(path as usize, now, arena, queue, deliveries)
            }
            Event::PathSample { path } => self.on_path_sample(path as usize, now, queue),
            Event::FluidUpdate { path } => self.on_fluid_update(path as usize, now, queue),
            _ => unreachable!("worker event routed to the net core"),
        }
    }

    /// One integration step of the fluid cross-traffic tier on path `gid`.
    fn on_fluid_update(&mut self, gid: usize, now: Nanos, queue: &mut EventQueue) {
        debug_assert!(self.owns_path(gid));
        self.paths[gid].events += 1;
        self.apply_due_faults_for(gid, now);
        let Some(fluid) = &mut self.fluid else {
            unreachable!("FluidUpdate without a configured fluid tier");
        };
        fluid.update_path(now, gid, &mut self.paths[gid].path);
        let interval = fluid.update_interval();
        if self.obs.metrics_on() {
            self.obs.metrics.add(CounterId::FluidUpdates, 1);
            self.obs
                .metrics
                .gauge_max(GaugeId::PeakFluidBacklogBytes, fluid.backlog_bytes(gid));
            if self.obs.trace_on() {
                let kind = TraceKind::FluidLevel {
                    path: gid as u32,
                    backlog_bytes: fluid.backlog_bytes(gid),
                    rate_bps: self.paths[gid].path.fluid_drain_bps(),
                };
                self.obs.record(now, kind);
                for i in 0..fluid.num_aggregates() {
                    if fluid.aggregate_path(i) as usize == gid {
                        self.obs.record(
                            now,
                            TraceKind::FluidAgg {
                                agg: i as u32,
                                path: fluid.aggregate_path(i),
                                rate_bps: fluid.aggregate_rate_bps(i, now),
                            },
                        );
                    }
                }
            }
            // Fluid-collapse monitor: edge-triggered on the transition
            // into the at-floor state for the aggregates pinned to this
            // path (the vector was primed `true` at construction, so the
            // opening samples — aggregates start at their floor — never
            // fire).
            for i in 0..fluid.num_aggregates() {
                if fluid.aggregate_path(i) as usize != gid {
                    continue;
                }
                let at_floor = fluid.aggregate_at_floor(i, now);
                if at_floor && !self.obs.fluid_floor[i] {
                    self.obs.metrics.add(CounterId::HealthEvents, 1);
                    self.obs.record(
                        now,
                        TraceKind::Health {
                            kind: HealthKind::FluidCollapse as u8,
                            subject: i as u32,
                            value: fluid.aggregate_rate_bps(i, now),
                        },
                    );
                }
                self.obs.fluid_floor[i] = at_floor;
            }
        }
        let (at, key) = (now + interval, self.fluid_key_for(gid));
        queue.schedule(at, key, Event::FluidUpdate { path: gid as u32 });
    }

    /// Applies every plan entry due at or before `now` to path `gid`'s
    /// fault slice. Runs at the head of each of the path's events; since
    /// a path's event stream is canonical on its own, the exact event a
    /// fault lands before is the same for every partitioning. Entries
    /// addressed to other paths advance the cursor without effect;
    /// packet-level bursts fold into this path's own counters.
    fn apply_due_faults_for(&mut self, gid: usize, now: Nanos) {
        let p = &mut self.paths[gid];
        while let Some(e) = self.fault_plan.entries.get(p.faults.cursor) {
            if e.at > now {
                break;
            }
            p.faults.cursor += 1;
            match e.kind {
                FaultKind::LinkDown { path } => {
                    if path as usize == gid {
                        p.faults.link_down = true;
                    }
                }
                FaultKind::LinkUp { path } => {
                    if path as usize == gid {
                        p.faults.link_down = false;
                    }
                }
                FaultKind::CapacityScale { path, permille } => {
                    if path as usize == gid {
                        let bps = self.base_path_rate.as_bps() * permille as u64 / 1000;
                        p.path.set_rate(Rate::from_bps(bps.max(1)));
                    }
                }
                FaultKind::BurstLoss { count } => p.faults.burst_loss += count,
                FaultKind::Duplicate { count } => p.faults.duplicate += count,
                FaultKind::Reorder { count } => p.faults.reorder += count,
            }
        }
    }

    /// One packet arriving at the bottleneck: resolve its path first (the
    /// pick is pure, so the balancer is untouched by what faults do next),
    /// then filter through that path's packet-level faults. Precedence:
    /// burst loss, then reordering, then duplication (a packet is subject
    /// to at most one). A duplicate's copy shares the original's flow key
    /// and sequence, so it lands on the same path by construction.
    fn on_arrive_bottleneck(
        &mut self,
        pkt: PacketId,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
    ) {
        let gid = self.lb.pick(&arena[pkt]);
        debug_assert!(self.owns_path(gid), "packet routed to the wrong net shard");
        self.paths[gid].events += 1;
        self.apply_due_faults_for(gid, now);
        let faults = &mut self.paths[gid].faults;
        if faults.burst_loss > 0 {
            // Injected loss upstream of the bottleneck: the packet
            // vanishes without touching any queue.
            faults.burst_loss -= 1;
            arena.free(pkt);
            return;
        }
        if faults.reorder > 0 {
            match faults.held.take() {
                None => {
                    faults.held = Some(pkt);
                    return;
                }
                Some(held) => {
                    faults.reorder -= 1;
                    self.admit(pkt, gid, now, arena, queue);
                    self.admit(held, gid, now, arena, queue);
                    return;
                }
            }
        }
        if faults.duplicate > 0 {
            faults.duplicate -= 1;
            let copy = arena[pkt].clone();
            let dup = arena.insert(copy);
            self.paths[gid].minted += 1;
            self.admit(pkt, gid, now, arena, queue);
            self.admit(dup, gid, now, arena, queue);
            return;
        }
        self.admit(pkt, gid, now, arena, queue);
    }

    /// Enqueues a packet onto sub-path `gid` (its pre-fault arrival
    /// path). A downed link drops arrivals at the interface — packets
    /// already queued still drain.
    fn admit(
        &mut self,
        pkt: PacketId,
        gid: usize,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
    ) {
        let p = &mut self.paths[gid];
        if p.faults.link_down {
            p.path.drops += 1;
            arena.free(pkt);
            return;
        }
        if p.path.enqueue(pkt, arena, now) {
            self.kick_path(gid, now, queue);
        }
    }

    fn kick_path(&mut self, path: usize, now: Nanos, queue: &mut EventQueue) {
        let p = &mut self.paths[path].path;
        if p.dequeue_scheduled || p.queue_len() == 0 {
            return;
        }
        let at = now.max(p.busy_until());
        p.dequeue_scheduled = true;
        let key = self.key_for(path);
        queue.schedule(at, key, Event::PathDequeue { path: path as u32 });
    }

    fn on_path_dequeue(
        &mut self,
        path: usize,
        now: Nanos,
        arena: &mut PacketArena,
        queue: &mut EventQueue,
        deliveries: &mut Vec<Delivery>,
    ) {
        debug_assert!(self.owns_path(path));
        self.paths[path].events += 1;
        self.apply_due_faults_for(path, now);
        self.paths[path].path.dequeue_scheduled = false;
        if let Some((pkt, delivered_at, link_free)) = self.paths[path].path.try_transmit(arena, now)
        {
            if self.obs.trace_on() {
                let flow = arena[pkt].flow.0;
                if self.obs.flow_sampled(flow) {
                    // `enqueued_at` was rewritten on bottleneck enqueue, so
                    // this sojourn is pure bottleneck queueing.
                    let sojourn = now.saturating_since(arena[pkt].enqueued_at);
                    self.obs.record(
                        now,
                        TraceKind::FlowBottleneck {
                            flow,
                            sojourn_ns: sojourn.as_nanos(),
                        },
                    );
                }
            }
            let key = self.key_for(path);
            deliveries.push(Delivery {
                at: delivered_at,
                key,
                pkt,
            });
            if self.paths[path].path.queue_len() > 0 {
                self.paths[path].path.dequeue_scheduled = true;
                let key = self.key_for(path);
                queue.schedule(link_free, key, Event::PathDequeue { path: path as u32 });
            }
        } else if self.paths[path].path.queue_len() > 0 {
            // Link was still busy: try again when it frees up.
            let at = self.paths[path].path.busy_until();
            self.paths[path].path.dequeue_scheduled = true;
            let key = self.key_for(path);
            queue.schedule(at, key, Event::PathDequeue { path: path as u32 });
        }
    }

    /// One queue-delay sample of path `gid`. The ground-truth RTT series
    /// the report exposes is *derived* from the per-path samples at
    /// assembly time (base propagation plus the same-instant average), so
    /// nothing here needs to see the other paths.
    fn on_path_sample(&mut self, gid: usize, now: Nanos, queue: &mut EventQueue) {
        debug_assert!(self.owns_path(gid));
        self.paths[gid].events += 1;
        self.apply_due_faults_for(gid, now);
        self.paths[gid].path.sample_queue_delay(now);
        if self.obs.metrics_on() {
            let queue_delay_ms = self.paths[gid].path.queue_delay().as_millis_f64();
            self.obs.metrics.observe(
                HistId::BottleneckQueueDelayUs,
                (queue_delay_ms * 1000.0) as u64,
            );
            self.obs.flush(now);
        }
        let (at, key) = (now + self.sample_interval, self.key_for(gid));
        queue.schedule(at, key, Event::PathSample { path: gid as u32 });
    }
}

/// True if the event is handled by a net core.
#[inline]
pub fn is_net_event(event: &Event) -> bool {
    matches!(
        event,
        Event::ArriveBottleneck { .. }
            | Event::PathDequeue { .. }
            | Event::PathSample { .. }
            | Event::FluidUpdate { .. }
    )
}

/// A pending event as queues hold it: timestamp, canonical key, event.
type Pending = (Nanos, EventKey, Event);

/// The arena id a pending event carries, if it is one of the three
/// packet-bearing kinds. A worker's queue never holds the net kind nor a
/// net core's the worker kinds, so one rule serves every event list.
fn event_pkt_mut(event: &mut Event) -> Option<&mut PacketId> {
    match event {
        Event::ArriveBottleneck { pkt }
        | Event::ArriveDestination { pkt }
        | Event::ArriveSource { pkt } => Some(pkt),
        _ => None,
    }
}

/// Pending events lifted out of a live queue in one pass, in canonical
/// order, and grouped into buckets (a worker's LPs, a net core's paths)
/// without moving them: a snapshot reads each bucket as its section's
/// event list, then [`Lifted::restore`] puts every event back under its
/// original key, so the run goes on undisturbed.
struct Lifted {
    events: Vec<Pending>,
    /// Indices into `events`, grouped by bucket and canonical within each:
    /// bucket `b`'s are `order[starts[b]..starts[b + 1]]`.
    order: Vec<u32>,
    starts: Vec<u32>,
}

impl Lifted {
    /// Lifts every event `select` picks out of `queue` and files it under
    /// `bucket(event)`, one of `buckets`: one pass over the queue, then a
    /// counting sort of the indices, which keeps each bucket canonical.
    fn lift(
        queue: &mut EventQueue,
        select: impl Fn(&Event) -> bool,
        buckets: usize,
        bucket: impl Fn(&Event) -> usize,
    ) -> Self {
        let events = queue.extract_if(select);
        let of: Vec<u32> = events.iter().map(|(_, _, e)| bucket(e) as u32).collect();
        let mut starts = vec![0u32; buckets + 1];
        for &b in &of {
            starts[b as usize + 1] += 1;
        }
        for b in 0..buckets {
            starts[b + 1] += starts[b];
        }
        let mut next = starts.clone();
        let mut order = vec![0u32; events.len()];
        for (i, &b) in of.iter().enumerate() {
            order[next[b as usize] as usize] = i as u32;
            next[b as usize] += 1;
        }
        Lifted {
            events,
            order,
            starts,
        }
    }

    /// Bucket `b`'s events, in canonical order.
    fn bucket(&self, b: usize) -> impl ExactSizeIterator<Item = &Pending> + Clone {
        let range = self.starts[b] as usize..self.starts[b + 1] as usize;
        self.order[range].iter().map(|&i| &self.events[i as usize])
    }

    /// Re-schedules every lifted event under its original key.
    fn restore(self, queue: &mut EventQueue) {
        for (at, key, event) in self.events {
            queue.schedule(at, key, event);
        }
    }
}

/// Appends pending events, given in canonical order, and the packets they
/// carry — the one layout the direct slice, every bundle section and every
/// path section share: the event list with every arena id zeroed, then the
/// packets (cloned by value out of `arena`, one per packet-bearing event,
/// in event order) behind a `u64` count. The ids are host-local slot
/// indices (a restore rewrites them from the packet values carried
/// alongside), so leaving them in would make snapshot bytes depend on arena
/// allocation order — which differs between the single-threaded and
/// sharded hosts. Zeroing them keeps the bytes partition-invariant.
fn save_pending<'a>(
    events: impl ExactSizeIterator<Item = &'a Pending> + Clone,
    arena: &PacketArena,
    out: &mut Vec<u8>,
) {
    events.len().encode(out);
    let mut pkts = 0usize;
    for &(at, key, mut event) in events.clone() {
        if let Some(pkt) = event_pkt_mut(&mut event) {
            *pkt = PacketId::from_index(0);
            pkts += 1;
        }
        (at, key, event).encode(out);
    }
    pkts.encode(out);
    for &(_, _, mut event) in events {
        if let Some(&mut pkt) = event_pkt_mut(&mut event) {
            arena[pkt].encode(out);
        }
    }
}

/// Reverses [`save_pending`] straight into `queue` and `arena`,
/// moving each packet into `arena` and rewriting its event's id to the new
/// slot; `missing` words the typed error for a packet list that does not
/// pair up with the events.
fn load_pending(
    queue: &mut EventQueue,
    arena: &mut PacketArena,
    r: &mut Reader<'_>,
    missing: &'static str,
) -> Result<(), DecodeError> {
    let events = Vec::<Pending>::decode(r)?;
    let mut pkts = Vec::<Packet>::decode(r)?.into_iter();
    let carried = |&&(_, _, mut e): &&Pending| event_pkt_mut(&mut e).is_some();
    if events.iter().filter(carried).count() != pkts.len() {
        return Err(r.error(missing));
    }
    for (at, key, mut event) in events {
        if let Some(pkt) = event_pkt_mut(&mut event) {
            *pkt = arena.insert(pkts.next().expect("counted above"));
        }
        queue.schedule(at, key, event);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Report assembly (shared by the single-threaded and sharded hosts)
// ---------------------------------------------------------------------------

/// Merges the cores' outputs into one [`SimReport`]. `finished` is what the
/// host's `snapshot::Writer` took from the workers' completed-flow records
/// ([`WorkerCore::save_part`]). `workers` may be one
/// core owning everything (single-threaded host) or one per shard, and
/// `nets` one core owning every path or one per net shard; the result is
/// identical either way because every per-LP output is tagged with its
/// canonical order and every net-side accumulator is per-path.
pub fn assemble_report(
    config: &SimulationConfig,
    finished: Vec<TaggedFct>,
    mut workers: Vec<WorkerCore>,
    mut nets: Vec<NetCore>,
    packets_recycled: u64,
) -> SimReport {
    let n_bundles = config.n_bundles();
    let mut report = SimReport {
        sendbox_queue_delay_ms: vec![TimeSeries::new(); n_bundles],
        bundle_throughput_mbps: vec![TimeSeries::new(); n_bundles],
        bundle_rtt_estimate_ms: vec![TimeSeries::new(); n_bundles],
        bundle_recv_rate_estimate_mbps: vec![TimeSeries::new(); n_bundles],
        bundle_pacing_rate_mbps: vec![TimeSeries::new(); n_bundles],
        mode_timeline: vec![Vec::new(); n_bundles],
        out_of_order_fraction: vec![0.0; n_bundles],
        ping_rtts_ms: vec![Vec::new(); n_bundles],
        ..Default::default()
    };

    // Run-wide accumulators: the fold a snapshot makes, after the records
    // the checkpoints took.
    let mut residue = WorkerResidue::default();
    for w in &mut workers {
        residue.merge(w.take_residue());
    }
    residue.fcts = merge_runs(finished, residue.fcts);
    report.fcts = residue.fcts.into_iter().map(|(_, _, r)| r).collect();
    report.completed = report.fcts.len();
    report.events_processed = residue.events_processed;
    report.packets_created = residue.packets_created;

    let mut telemetry_rows: Vec<bundler_agent::BundleTelemetry> = Vec::new();
    for w in &mut workers {
        report.unfinished += w
            .flows
            .slots
            .iter()
            .filter(|slot| matches!(slot, FlowSlot::Tcp(f) if f.size_bytes != FlowSpec::BACKLOGGED))
            .count();
        if let Some(site) = &mut w.lps[LP_DIRECT as usize] {
            report.cross_throughput_mbps = std::mem::take(&mut site.throughput_mbps);
        }
        for b in 0..n_bundles {
            let Some(site) = &mut w.lps[bundle_lp(b) as usize] else {
                continue;
            };
            report.bundle_throughput_mbps[b] = std::mem::take(&mut site.throughput_mbps);
            report.bundle_pacing_rate_mbps[b] = std::mem::take(&mut site.pacing_rate_mbps);
            report.bundle_rtt_estimate_ms[b] = std::mem::take(&mut site.rtt_estimate_ms);
            report.bundle_recv_rate_estimate_mbps[b] =
                std::mem::take(&mut site.recv_rate_estimate_mbps);
            if let Some(control) = w.edge.control(b) {
                report.out_of_order_fraction[b] = control.out_of_order_fraction();
            }
            if let Some(bundle) = w.edge.bundle(b) {
                report.sendbox_queue_delay_ms[b] = bundle.queue_delay_ms.clone();
                report.mode_timeline[b] = bundle.mode_timeline.clone();
            }
        }
        if let Some(agent) = w.edge.agent() {
            telemetry_rows.extend(agent.snapshots().bundles);
        }
        // Ping RTT series, merged per bundle in flow-id order so the
        // result is independent of partitioning.
        for (b, rtts) in report.ping_rtts_ms.iter_mut().enumerate() {
            let pings = w.flows.sorted(bundle_lp(b), |slot| match slot {
                FlowSlot::Ping {
                    client: Some(ping), ..
                } => Some(ping),
                _ => None,
            });
            for (_, ping) in pings {
                rtts.extend(ping.rtts.iter().map(|d| d.as_millis_f64()));
            }
        }
    }

    if residue.agent_stats.is_some() {
        telemetry_rows.sort_by_key(|row| row.index);
        report.agent_telemetry = Some(bundler_agent::AgentTelemetry {
            bundles: telemetry_rows,
        });
        report.agent_stats = residue.agent_stats;
    }

    report.packets_recycled = packets_recycled;
    for net in &nets {
        report.events_processed += net.events_processed();
        report.packets_created += net.packets_created();
        for gid in net.owned_paths() {
            report.bottleneck_drops += net.paths[gid].path.drops;
            report.bytes_delivered += net.paths[gid].path.bytes_delivered;
        }
    }
    // Aggregate bottleneck queue delay: walk the paths in global id order
    // (each lives on exactly one net core) and merge the per-path series
    // by averaging samples taken at the same instant.
    let num_paths = config.num_paths.max(1);
    let series: Vec<&TimeSeries> = (0..num_paths)
        .map(|gid| {
            let net = nets
                .iter()
                .find(|n| n.owns_path(gid))
                .expect("every path has an owning net core");
            &net.paths[gid].path.queue_delay_ms
        })
        .collect();
    let mut merged = TimeSeries::new();
    if let Some(first) = series.first() {
        for (i, &(t, _)) in first.samples.iter().enumerate() {
            let mut total = 0.0;
            let mut n: f64 = 0.0;
            for s in &series {
                if let Some(&(_, v)) = s.samples.get(i) {
                    total += v;
                    n += 1.0;
                }
            }
            merged.push(t, total / n.max(1.0));
        }
    }
    drop(series);
    // Ground-truth RTT, derived from the merged queue delay: base
    // propagation plus the same-instant bottleneck queueing average.
    // Bit-identical to sampling it inside the net LP (same summation
    // order, same division), but independent of how the paths are
    // partitioned across net shards.
    let rtt_ms = config.rtt.as_millis_f64();
    for &(t, qd) in &merged.samples {
        report.actual_rtt_ms.push(t, rtt_ms + qd);
    }
    report.bottleneck_queue_delay_ms = merged;

    if config.obs.metrics_on() {
        let mut metrics = bundler_obs::MetricsShard::default();
        let mut host = bundler_obs::HostMetrics::default();
        let mut trace: Vec<bundler_obs::TraceRecord> = Vec::new();
        let mut trace_dropped = 0u64;
        let mut worker_phases = Vec::new();
        let at_end = Nanos::ZERO + config.duration;
        for w in &mut workers {
            // When a stream sink is attached, publish the final partial
            // barrier's records and the end-of-run counter snapshot before
            // the in-memory merge consumes the rings.
            w.obs.flush(at_end);
            // Fold each owned bundle's in-scheduler export (sojourns,
            // CoDel drop-state transitions) into the worker's shard
            // metrics, once per bundle on the worker that owns it.
            for b in 0..n_bundles {
                if !w.owns_bundle(b) {
                    continue;
                }
                if let Some(sched) = w.edge.bundle_mut(b).and_then(|bundle| bundle.take_obs()) {
                    sched.merge_into(&mut w.obs.metrics);
                }
            }
            metrics.merge_from(&w.obs.metrics);
            host.merge_from(&w.obs.host);
            let (records, dropped) = std::mem::take(&mut w.obs.ring).into_records();
            trace.extend(records);
            trace_dropped += dropped;
            host.trace_ring_dropped += dropped;
            if !w.obs.phases.is_empty() {
                worker_phases.push(PhaseProfile {
                    shard: w.obs.shard,
                    windows: std::mem::take(&mut w.obs.phases),
                });
            }
        }
        for net in &mut nets {
            net.obs.flush(at_end);
            metrics.merge_from(&net.obs.metrics);
            host.merge_from(&net.obs.host);
            let (records, dropped) = std::mem::take(&mut net.obs.ring).into_records();
            trace.extend(records);
            trace_dropped += dropped;
            host.trace_ring_dropped += dropped;
        }
        if let Some(stream) = &config.stream {
            stream.flush_io();
        }
        // Stable sort: same-instant records keep worker order, so the
        // merged trace is deterministic for a given shard count.
        trace.sort_by_key(|r| r.at);
        report.obs = Some(Box::new(ObsReport {
            level: config.obs,
            metrics,
            host,
            worker_phases,
            net_phase: bundler_obs::NetPhaseProfile::default(),
            trace,
            trace_dropped,
        }));
    }

    report
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use bundler_cc::EndhostAlg;
    use bundler_types::TrafficClass;
    use proptest::prelude::*;

    use super::*;
    use crate::edge::BundleMode;

    /// A TCP slot recognizable by `tag` (its size).
    fn tcp(id: FlowId, origin: Origin, tag: u64) -> FlowSlot {
        let key = flow_key(id.0, origin);
        let class = TrafficClass::BEST_EFFORT;
        FlowSlot::Tcp(FlowState {
            sender: TcpSender::new(id, key, tag, EndhostAlg::Cubic, class, Nanos::ZERO),
            receiver: TcpReceiver::new(),
            origin,
            size_bytes: tag,
        })
    }

    /// A ping slot recognizable by `tag` (its payload); `None` is the
    /// client-less entry a `false` presence flag in a snapshot decodes to.
    fn ping(id: FlowId, origin: Origin, tag: Option<u32>) -> FlowSlot {
        let client = tag.map(|payload| PingClient::new(id, flow_key(id.0, origin), payload));
        FlowSlot::Ping { origin, client }
    }

    /// The three maps the table replaced, with the one rule the table adds:
    /// an id names one thing, so registering it as a flow unregisters the
    /// ping of that id and the other way round.
    #[derive(Default)]
    struct ThreeMaps {
        flows: HashMap<FlowId, (Origin, u64)>,
        pings: HashMap<FlowId, u32>,
        ping_origin: HashMap<FlowId, Origin>,
    }

    impl ThreeMaps {
        fn holds(&self, id: FlowId) -> bool {
            self.flows.contains_key(&id) || self.ping_origin.contains_key(&id)
        }

        fn remove(&mut self, id: FlowId) {
            self.flows.remove(&id);
            self.pings.remove(&id);
            self.ping_origin.remove(&id);
        }
    }

    /// Sparse ids, the way the multi-site scenarios number flows.
    fn flow_id(site: u64, i: u64) -> FlowId {
        FlowId(site * 1_000_000 + i)
    }

    fn origin(pick: u8) -> Origin {
        match pick {
            0 => Origin::Direct,
            b => Origin::Bundle(b as usize - 1),
        }
    }

    proptest! {
        #[test]
        fn flow_table_agrees_with_the_three_maps_it_replaced(
            (sites, per_site) in (1u64..4, 1u64..7),
            picks in collection::vec(0u8..3, 1..8),
            ops in collection::vec((0u8..4, 0u64..5, 0u64..8, 1u32..1000), 1..120),
        ) {
            // The universe: `per_site` ids at each of `sites` sites, each
            // with the origin its spec names. Ops also name ids beyond it.
            let universe: Vec<FlowSpec> = (0..sites)
                .flat_map(|site| (0..per_site).map(move |i| flow_id(site, i)))
                .enumerate()
                .map(|(k, id)| FlowSpec {
                    origin: origin(picks[k % picks.len()]),
                    ..FlowSpec::direct(id.0, 1, Nanos::ZERO)
                })
                .collect();
            let spec_origin: HashMap<FlowId, Origin> =
                universe.iter().map(|s| (s.id, s.origin)).collect();
            let mut table = FlowTable::new(Arc::new(FlowDirectory::new(universe)));
            let mut model = ThreeMaps::default();
            // The slots freed so far and not yet taken again, last freed
            // last: the next insert of a new id takes the last of them.
            let mut freed: Vec<usize> = Vec::new();
            for (op, site, i, tag) in ops {
                let id = flow_id(site, i);
                let Some(&origin) = spec_origin.get(&id) else {
                    // An id outside the universe is refused and never held.
                    prop_assert_eq!(table.insert(id, tcp(id, Origin::Direct, 1)), None);
                    prop_assert!(table.remove(id).is_none());
                    prop_assert_eq!(table.resolve(id), (None, LP_DIRECT));
                    continue;
                };
                let held = model.holds(id);
                let (slot, _) = table.resolve(id);
                // An insert leaves a held id in its slot; a new id takes the
                // last slot freed, else a new one.
                let taken = (op < 2).then(|| slot.or_else(|| freed.pop()).unwrap_or(table.slots.len()));
                match op {
                    0 => {
                        prop_assert_eq!(table.insert(id, tcp(id, origin, tag as u64)), Some(!held));
                        model.remove(id);
                        model.flows.insert(id, (origin, tag as u64));
                    }
                    1 => {
                        // Every third ping is the client-less kind.
                        let tag = (tag % 3 != 0).then_some(tag);
                        prop_assert_eq!(table.insert(id, ping(id, origin, tag)), Some(!held));
                        model.remove(id);
                        model.ping_origin.insert(id, origin);
                        if let Some(tag) = tag {
                            model.pings.insert(id, tag);
                        }
                    }
                    // The flow finishes (its completing ACK) or its bundle
                    // leaves the worker: either way it leaves the table.
                    _ => {
                        prop_assert_eq!(table.remove(id).is_some(), held);
                        model.remove(id);
                        freed.extend(slot);
                    }
                }
                prop_assert_eq!(table.resolve(id).0, taken);
                // Every id of the universe resolves as the maps would, with
                // the LP its spec names whether or not it is held.
                for (&id, &origin) in &spec_origin {
                    let (slot, lp) = table.resolve(id);
                    prop_assert_eq!(slot.is_some(), model.holds(id));
                    prop_assert_eq!(lp, origin_lp(origin));
                    match slot.map(|slot| &table.slots[slot]) {
                        Some(FlowSlot::Tcp(f)) => {
                            prop_assert_eq!(Some(&(f.origin, f.size_bytes)), model.flows.get(&id));
                        }
                        Some(FlowSlot::Ping { client, .. }) => {
                            prop_assert!(!model.flows.contains_key(&id));
                            let payload = client.as_ref().map(|c| c.payload);
                            prop_assert_eq!(payload, model.pings.get(&id).copied());
                        }
                        Some(FlowSlot::Free) => panic!("{id:?} resolves to a free slot"),
                        None => {}
                    }
                }
                // Each LP's ordered walk lists exactly the registered ids of
                // its origin, ascending.
                let lps: std::collections::BTreeSet<u16> =
                    spec_origin.values().map(|&o| origin_lp(o)).collect();
                for lp in lps {
                    let walked: Vec<FlowId> =
                        table.sorted(lp, |_| Some(())).into_iter().map(|e| e.0).collect();
                    let mut expected: Vec<FlowId> = spec_origin
                        .iter()
                        .filter(|&(id, &o)| origin_lp(o) == lp && model.holds(*id))
                        .map(|(&id, _)| id)
                        .collect();
                    expected.sort();
                    prop_assert_eq!(walked, expected);
                }
                // Each slot is indexed or on the free list, never both.
                let indexed = table.index.iter().filter(|&&slot| slot != VACANT).count();
                prop_assert_eq!(indexed + table.free.len(), table.slots.len());
                for &slot in &table.free {
                    prop_assert!(matches!(table.slots[slot as usize], FlowSlot::Free));
                }
            }
        }
    }

    /// One worker and one net core, run an event at a time as the
    /// single-threaded host runs them.
    struct Solo {
        core: WorkerCore,
        net: NetCore,
        queue: EventQueue,
        arena: PacketArena,
        end: Nanos,
    }

    impl Solo {
        fn new(config: &SimulationConfig, workload: Vec<FlowSpec>) -> Self {
            let directory = Arc::new(FlowDirectory::new(workload));
            let owned = vec![true; config.n_bundles()];
            let mut core = WorkerCore::with_owned(config, directory, 0, owned);
            let mut net = NetCore::new(config);
            let mut queue = EventQueue::new();
            core.schedule_initial(&mut queue);
            net.schedule_initial(&mut queue);
            let end = Nanos::ZERO + config.duration;
            let arena = PacketArena::new();
            Solo {
                core,
                net,
                queue,
                arena,
                end,
            }
        }

        /// Handles the next event and returns it; `None` once the run is
        /// over.
        fn step(&mut self) -> Option<Event> {
            let (now, event) = self.queue.pop().filter(|&(now, _)| now < self.end)?;
            let (mut to_net, mut deliveries) = (Vec::new(), Vec::new());
            let (arena, queue) = (&mut self.arena, &mut self.queue);
            if is_net_event(&event) {
                self.net.handle(event, now, arena, queue, &mut deliveries);
            } else {
                self.core.handle(event, now, arena, queue, &mut to_net);
            }
            for d in deliveries {
                queue.schedule(d.at, d.key, Event::ArriveDestination { pkt: d.pkt });
            }
            for m in to_net {
                queue.schedule(m.at, m.key, Event::ArriveBottleneck { pkt: m.pkt });
            }
            Some(event)
        }
    }

    #[test]
    fn the_slab_peaks_at_the_flows_open_at_once() {
        let scenario = crate::scenario::fct::FctScenario::builder()
            .requests(3_000)
            .seed(5)
            .mode(crate::scenario::fct::SendboxMode::StatusQuo)
            .build();
        let mut solo = Solo::new(&scenario.sim_config(), scenario.workload());
        let (mut admitted, mut peak_open) = (0, 0);
        while let Some(event) = solo.step() {
            admitted += usize::from(matches!(event, Event::FlowArrival { .. }));
            peak_open = peak_open.max(admitted - solo.core.fcts.len());
        }
        assert_eq!(admitted, 3_000);
        assert!(
            solo.core.fcts.len() > 2_900,
            "{} finished",
            solo.core.fcts.len()
        );
        // Every flow held needs a slot of its own, and a slot is added only
        // when none is free: the slab is exactly as long as the most flows
        // ever open at once.
        assert_eq!(solo.core.flows.slots.len(), peak_open);
        assert!(peak_open < admitted / 2, "{peak_open} flows open at once");
        let held = solo.core.flows.index.iter().filter(|&&slot| slot != VACANT);
        assert_eq!(held.count(), admitted - solo.core.fcts.len());
    }

    #[test]
    fn a_late_duplicate_to_a_finished_flow_is_answered_from_its_spec() {
        let config = SimulationConfig {
            duration: Duration::from_secs(3),
            bundles: vec![BundleMode::StatusQuo],
            ..Default::default()
        };
        let (id, size) = (FlowId(7), 5 * 1460 + 100);
        let mut solo = Solo::new(&config, vec![FlowSpec::bundled(id.0, size, Nanos::ZERO, 0)]);
        while solo.core.fcts.is_empty() {
            solo.step().expect("the flow finishes");
        }
        assert_eq!(solo.core.flows.resolve(id), (None, bundle_lp(0)));
        assert_eq!(solo.core.flows.slots.len(), 1);
        // A copy of the flow's second segment arrives after all.
        let now = solo.queue.now();
        let key = flow_key(id.0, Origin::Bundle(0));
        let before = solo
            .queue
            .extract_if(|e| matches!(e, Event::ArriveSource { .. }));
        let created = solo.core.packets_created();
        let pkt = solo.arena.insert(Packet::data(id, key, 1460, 1460, now));
        let event = Event::ArriveDestination { pkt };
        let (arena, queue) = (&mut solo.arena, &mut solo.queue);
        solo.core.handle(event, now, arena, queue, &mut Vec::new());
        assert_eq!(solo.core.packets_created(), created + 1);
        let answers = solo
            .queue
            .extract_if(|e| matches!(e, Event::ArriveSource { .. }));
        let [(at, _, Event::ArriveSource { pkt: ack })] = answers[..] else {
            panic!("one answer, got {answers:?}");
        };
        assert_eq!(at, now + (config.rtt - config.lookahead()));
        let ack = &solo.arena[ack];
        assert_eq!(
            (ack.kind, ack.seq, ack.sack_highest),
            (PacketKind::Ack, size, size)
        );
        assert_eq!((ack.flow, ack.key), (id, key.reversed()));
        // The answer, and the pending RTO poll, reach the finished sender
        // and end there.
        for (at, key, event) in before.into_iter().chain(answers) {
            solo.queue.schedule(at, key, event);
        }
        let created = solo.core.packets_created();
        while solo.step().is_some() {}
        assert_eq!(solo.core.packets_created(), created);
        assert_eq!(solo.core.fcts.len(), 1);
        assert_eq!(solo.core.flows.resolve(id).0, None);
    }

    #[test]
    fn a_snapshot_naming_one_flow_twice_is_corrupt() {
        use crate::sim::Simulation;
        use crate::snapshot::SnapshotError;
        // Ids whose eight bytes occur nowhere else in a snapshot, so every
        // mention of one (its table entry, its sender, its pending events
        // and packets) can be rewritten to name another.
        let id = |n: u64| 0x000a_0b0c_0d0e_0f00 + n;
        let config = SimulationConfig {
            duration: Duration::from_secs(1),
            bundles: vec![BundleMode::StatusQuo],
            checkpoint_every: Some(Duration::from_millis(200)),
            ..Default::default()
        };
        let workload = vec![
            FlowSpec::direct(id(1), FlowSpec::BACKLOGGED, Nanos::ZERO),
            FlowSpec::direct(id(2), FlowSpec::BACKLOGGED, Nanos::ZERO),
            FlowSpec::bundled(id(3), FlowSpec::BACKLOGGED, Nanos::ZERO, 0),
            FlowSpec::bundled(id(4), FlowSpec::BACKLOGGED, Nanos::ZERO, 0),
            FlowSpec::bundled(id(5), 40, Nanos::ZERO, 0).as_ping(),
            // Not admitted before the checkpoint, so no section holds it.
            FlowSpec::direct(id(6), FlowSpec::BACKLOGGED, Nanos::from_millis(900)),
        ];
        let mut ckpts = Vec::new();
        Simulation::new(config.clone(), workload.clone()).run_collecting(&mut ckpts);
        let blob = &ckpts[0].1;
        let restore = |bytes: &[u8]| Simulation::restore(config.clone(), workload.clone(), bytes);
        assert!(restore(blob).is_ok(), "the intact snapshot restores");
        for (keep, renamed, what) in [
            (1, 2, "direct slice names a flow id twice"),
            (3, 4, "bundle section names a flow id twice"),
            (3, 5, "bundle section names a flow id twice"),
            (1, 3, "already held by this worker"),
            // Id 7 is in no spec; id 6 is a direct flow's, not a bundle's.
            (7, 2, "flow id is not in the workload"),
            (6, 3, "flow origin differs from its workload spec"),
        ] {
            let (keep, renamed) = (id(keep).to_le_bytes(), id(renamed).to_le_bytes());
            let mut patched = blob.clone();
            let mut hits = 0;
            for at in 0..patched.len() - 8 {
                if patched[at..at + 8] == renamed {
                    patched[at..at + 8].copy_from_slice(&keep);
                    hits += 1;
                }
            }
            assert!(hits > 0, "{what}: the renamed id is in the snapshot");
            match restore(&patched).err() {
                Some(SnapshotError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
                other => panic!("{what}: expected a corrupt snapshot, got {other:?}"),
            }
        }
    }
}
