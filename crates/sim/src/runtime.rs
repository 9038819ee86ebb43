//! The shard-local simulation cores.
//!
//! The simulator is split into two kinds of logical-process (LP) cores so
//! the same code runs single-threaded (one [`WorkerCore`] owning every LP,
//! composed by [`crate::sim::Simulation`]) and sharded (`bundler-shard`
//! composes K worker cores on K threads around one [`NetCore`]):
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
//! pings live in one `FlowTable` — a slab of per-flow state behind one
//! compact id index — which a handler consults once per event: it resolves
//! the event's flow to a slot and passes the origin it found on to the
//! routing below it. Every walk of the table that reaches a snapshot or the
//! report goes in ascending `FlowId`, never in hash order. State leaves a
//! core only as snapshot bytes: a whole bundle complex as its section
//! ([`WorkerCore::save_bundle`] / [`WorkerCore::load_bundle`]), for a
//! checkpoint and a migration alike, beside the direct slice and the path
//! sections; all of them share the pending-events-plus-packets layout of
//! `save_pending_in_place`.

use std::collections::hash_map::Entry;

use bundler_obs::{
    BundleObsState, CounterId, FlowSampler, GaugeId, HealthKind, HistId, ObsReport, PhaseProfile,
    SchedObs, ShardObs, TraceKind, DIRECT_BUNDLE,
};
use bundler_sched::tbf::Release;
use bundler_sched::Policy;
use bundler_types::{
    flow::ipv4, Duration, FlowId, FlowKey, IdHashMap, Nanos, Packet, PacketArena, PacketId,
    PacketKind, Rate,
};

use serde::binary::{decode_len, Decode, DecodeError, Encode, Reader};

use crate::edge::Edge;
use crate::event::{Event, EventKey, EventQueue};
use crate::fault::{FaultKind, FaultPlan};
use crate::fluid::FluidState;
use crate::path::{Balancing, BottleneckPath, LoadBalancer};
use crate::sim::SimulationConfig;
use crate::snapshot::{PathSection, WorkerPart};
use crate::stats::{FctRecord, SimReport, TimeSeries};
use crate::tcp::{PingClient, TcpReceiver, TcpSender};
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
    recorded: bool,
}

serde::layout!(value FlowState { sender, receiver, origin, size_bytes, recorded });

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
/// sits in a slab, and one compact hash index (16-byte entries) maps an id
/// to its slot. A handler hashes its flow id once ([`FlowTable::slot_of`])
/// and works on the slot from then on. The index is a hash map rather than
/// a direct table because ids are not dense — the multi-site scenarios
/// number flows `site × 1 000 000 + i`. A completed flow keeps its slot
/// (late ACKs and the RTO poll still resolve it); slots are only freed when
/// a bundle is dropped from the worker, and are reused by the next insert.
#[derive(Default)]
struct FlowTable {
    index: IdHashMap<FlowId, u32>,
    slots: Vec<FlowSlot>,
    free: Vec<u32>,
}

impl FlowTable {
    /// Makes room for `additional` more flows without filling anything in.
    fn reserve(&mut self, additional: usize) {
        self.index.reserve(additional);
        self.slots
            .reserve(additional.saturating_sub(self.free.len()));
    }

    /// The slot `id` lives in — the one hash lookup of an event.
    #[inline]
    fn slot_of(&self, id: FlowId) -> Option<usize> {
        self.index.get(&id).map(|&slot| slot as usize)
    }

    /// The origin of the flow in `slot`; an id the worker does not know
    /// (`None`) is attributed to direct cross traffic.
    #[inline]
    fn origin_at(&self, slot: Option<usize>) -> Origin {
        slot.map_or(Origin::Direct, |slot| self.slots[slot].origin())
    }

    /// Registers `id`, replacing whatever it named before (two workload
    /// specs with one id: the later arrival wins, as with a map insert).
    /// Returns whether the id was new (snapshot sections go through
    /// [`FlowTable::load`], which refuses an id that is not).
    fn insert(&mut self, id: FlowId, state: FlowSlot) -> bool {
        match self.index.entry(id) {
            Entry::Occupied(held) => {
                self.slots[*held.get() as usize] = state;
                false
            }
            Entry::Vacant(vacant) => {
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
                vacant.insert(slot);
                true
            }
        }
    }

    /// Registers a flow decoded from a snapshot section. A run never names
    /// a flow twice, so an id already registered is corrupt bytes: `twice`
    /// when the entry has the new one's origin (the section being loaded
    /// named it before), otherwise a flow some other section holds.
    fn load(
        &mut self,
        id: FlowId,
        state: FlowSlot,
        r: &Reader<'_>,
        twice: &'static str,
    ) -> Result<(), DecodeError> {
        match self.slot_of(id).map(|slot| self.slots[slot].origin()) {
            None => {
                self.insert(id, state);
                Ok(())
            }
            Some(held) if held == state.origin() => Err(r.error(twice)),
            Some(_) => Err(r.error("flow is already held by this worker")),
        }
    }

    /// Unregisters `id`, freeing its slot for reuse.
    fn remove(&mut self, id: FlowId) -> Option<FlowSlot> {
        let slot = self.index.remove(&id)?;
        self.free.push(slot);
        Some(std::mem::replace(
            &mut self.slots[slot as usize],
            FlowSlot::Free,
        ))
    }

    /// What `pick` selects from each registered flow, in ascending
    /// [`FlowId`] order — the order every snapshot section and the report
    /// list flows in, so neither depends on hash-map iteration.
    fn sorted<'a, T>(
        &'a self,
        mut pick: impl FnMut(&'a FlowSlot) -> Option<T>,
    ) -> Vec<(FlowId, T)> {
        let mut picked: Vec<(FlowId, T)> = self
            .index
            .iter()
            .filter_map(|(&id, &slot)| Some((id, pick(&self.slots[slot as usize])?)))
            .collect();
        picked.sort_unstable_by_key(|&(id, _)| id);
        picked
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

/// How the site-side LPs are partitioned: worker `index` of `workers`
/// owns bundle `b` iff `b % workers == index`, and worker 0 owns the
/// direct cross-traffic LP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partition {
    /// Total worker count (≥ 1).
    pub workers: usize,
    /// This worker's index.
    pub index: usize,
}

impl Partition {
    /// The whole-site partition (one worker owning everything).
    pub fn solo() -> Self {
        Partition {
            workers: 1,
            index: 0,
        }
    }

    /// True if this worker owns bundle `b`.
    pub fn owns_bundle(&self, b: usize) -> bool {
        b % self.workers == self.index
    }

    /// True if this worker owns the direct cross-traffic LP.
    pub fn owns_direct(&self) -> bool {
        self.index == 0
    }

    /// The worker index owning the given LP (never `LP_NET`).
    pub fn worker_of_lp(workers: usize, lp: u16) -> usize {
        debug_assert_ne!(lp, LP_NET);
        if lp == LP_DIRECT {
            0
        } else {
            (lp - LP_BUNDLE0) as usize % workers
        }
    }
}

/// One shard's worth of site-side simulation state.
pub struct WorkerCore {
    config: SimulationConfig,
    part: Partition,
    /// Which bundles this worker currently owns. Starts as the partition's
    /// static assignment; [`WorkerCore::drop_bundle`] /
    /// [`WorkerCore::load_bundle`] move entries at window barriers when
    /// the sharded driver rebalances.
    owned: Vec<bool>,
    n_bundles: usize,
    /// The full workload table; `Event::FlowArrival` indexes into it. Only
    /// arrivals for owned LPs are scheduled.
    specs: Vec<FlowSpec>,
    /// The owned partition of the site's sendbox edge.
    edge: Edge,
    /// Every flow and ping of the owned LPs, entered at its `FlowArrival`.
    flows: FlowTable,
    /// Per-LP schedule sequence counters, indexed by LP id.
    seqs: Vec<u64>,
    /// Events handled per LP, indexed by LP id: the measured load signal
    /// the rate-aware balancer packs bundles by. Attributed where the
    /// handler has already resolved the LP, so counting adds no lookups to
    /// the hot path; migrates with the bundle so rates stay cumulative.
    lp_events: Vec<u64>,
    forward_delay: Duration,
    reverse_delay: Duration,
    /// Delivered payload bytes per bundle since the last sample.
    bundle_delivered: Vec<u64>,
    /// Delivered payload bytes of direct (cross) traffic since the last
    /// sample.
    cross_delivered: u64,
    /// Completed-flow records tagged with the (time, key) of the ACK event
    /// that completed them, so per-worker lists merge into the canonical
    /// global order.
    fcts: Vec<(Nanos, EventKey, FctRecord)>,
    bundle_throughput_mbps: Vec<TimeSeries>,
    bundle_pacing_rate_mbps: Vec<TimeSeries>,
    bundle_rtt_estimate_ms: Vec<TimeSeries>,
    bundle_recv_rate_estimate_mbps: Vec<TimeSeries>,
    cross_throughput_mbps: TimeSeries,
    /// Reusable scratch for endhost output (ids of packets to route).
    pkt_buf: Vec<PacketId>,
    /// Reusable scratch for sendbox release bursts.
    release_buf: Vec<PacketId>,
    /// Reusable scratch for health-monitor verdicts at sample events.
    health_buf: Vec<(HealthKind, u64)>,
    events_processed: u64,
    /// Packets this core's endhosts created (data, ACKs, pings,
    /// retransmissions) — counted at creation so the total is identical
    /// whether or not packets later migrate between per-shard arenas.
    packets_created: u64,
    /// Observability state (metrics, trace ring, phase timings). At
    /// [`bundler_obs::ObsLevel::Off`] every record site is one skipped
    /// branch and nothing allocates. Public so the sharded driver can
    /// drain the ring at window barriers and append phase timings.
    pub obs: ShardObs,
}

impl WorkerCore {
    /// Builds the worker owning partition `part` of the configured edge
    /// (the static round-robin assignment). Panics if a bundle
    /// configuration is invalid (checked identically on every worker).
    pub fn new(config: &SimulationConfig, workload: &[FlowSpec], part: Partition) -> Self {
        let owned = (0..config.n_bundles())
            .map(|b| part.owns_bundle(b))
            .collect();
        Self::with_owned(config, workload, part, owned)
    }

    /// Builds the worker with an explicit initial bundle-ownership vector
    /// (one flag per bundle index) — how the sharded driver seeds a
    /// non-round-robin partition, e.g. one that keeps classification
    /// co-location groups together before the rate-aware balancer has any
    /// measurements. `part` still fixes the worker's index and count (and
    /// therefore ownership of the direct cross-traffic LP).
    pub fn with_owned(
        config: &SimulationConfig,
        workload: &[FlowSpec],
        part: Partition,
        owned: Vec<bool>,
    ) -> Self {
        let forward_delay = config.lookahead();
        let reverse_delay = config.rtt - forward_delay;
        let n_bundles = config.n_bundles();
        debug_assert_eq!(owned.len(), n_bundles);
        let mut edge = Edge::new(config, &owned).expect("invalid bundle configuration");
        let mut obs = ShardObs::new(config.obs, part.index as u16);
        obs.sampler = config.flow_trace.map(FlowSampler::new);
        obs.stream = config.stream.clone();
        if obs.metrics_on() {
            // Turn on the in-scheduler sojourn/drop-state export. The flag
            // lives inside the datapath scheduler, so it migrates with the
            // bundle and never needs re-arming on adoption.
            edge.set_obs(true);
        }
        let mut core = WorkerCore {
            config: config.clone(),
            part,
            owned,
            n_bundles,
            specs: workload.to_vec(),
            edge,
            flows: FlowTable::default(),
            seqs: vec![0; LP_BUNDLE0 as usize + n_bundles],
            lp_events: vec![0; LP_BUNDLE0 as usize + n_bundles],
            forward_delay,
            reverse_delay,
            bundle_delivered: vec![0; n_bundles],
            cross_delivered: 0,
            fcts: Vec::new(),
            bundle_throughput_mbps: vec![TimeSeries::new(); n_bundles],
            bundle_pacing_rate_mbps: vec![TimeSeries::new(); n_bundles],
            bundle_rtt_estimate_ms: vec![TimeSeries::new(); n_bundles],
            bundle_recv_rate_estimate_mbps: vec![TimeSeries::new(); n_bundles],
            cross_throughput_mbps: TimeSeries::new(),
            pkt_buf: Vec::with_capacity(64),
            release_buf: Vec::with_capacity(64),
            health_buf: Vec::new(),
            events_processed: 0,
            packets_created: 0,
            obs,
        };
        // Room for every flow `schedule_initial` will admit, reserved but
        // not filled: slots are written as the arrivals fire, so
        // construction pays for no flow state and the table never rehashes
        // mid-run.
        let admitted = core
            .specs
            .iter()
            .filter(|spec| match spec.origin {
                Origin::Bundle(b) => core.owns_bundle(b),
                Origin::Direct => part.owns_direct(),
            })
            .count();
        core.flows.reserve(admitted);
        core
    }

    /// The partition this worker was built with (static index and worker
    /// count; current bundle ownership may differ after migrations).
    pub fn partition(&self) -> Partition {
        self.part
    }

    /// True if this worker currently owns bundle `b`.
    pub fn owns_bundle(&self, b: usize) -> bool {
        self.owned.get(b).copied().unwrap_or(false)
    }

    /// Events this core has handled.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Events handled so far on behalf of bundle `b` (cumulative across
    /// migrations — the count travels with the bundle). The sharded
    /// driver's rate-aware balancer packs bundles by deltas of this.
    pub fn bundle_events(&self, b: usize) -> u64 {
        self.lp_events[bundle_lp(b) as usize]
    }

    /// Packets this core's endhosts have created.
    pub fn packets_created(&self) -> u64 {
        self.packets_created
    }

    /// True if this worker owns the given non-net LP.
    fn owns_lp(&self, lp: u16) -> bool {
        if lp == LP_DIRECT {
            self.part.owns_direct()
        } else {
            self.owned[(lp - LP_BUNDLE0) as usize]
        }
    }

    /// The next canonical key for a schedule made by `lp`.
    #[inline]
    fn key_for(&mut self, lp: u16) -> EventKey {
        let seq = &mut self.seqs[lp as usize];
        *seq += 1;
        EventKey::new(lp, *seq)
    }

    /// Attributes one handled event to `lp` for the load measurement.
    #[inline]
    fn note_event(&mut self, lp: u16) {
        self.lp_events[lp as usize] += 1;
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
        origin_lp(self.flows.origin_at(self.flows.slot_of(flow)))
    }

    /// Resolves the flow an event is about — the event's one hash lookup —
    /// to its table slot, workload origin and LP, and attributes the event
    /// to that LP.
    #[inline]
    fn resolve(&mut self, flow: FlowId) -> (Option<usize>, Origin, u16) {
        let slot = self.flows.slot_of(flow);
        let origin = self.flows.origin_at(slot);
        let lp = origin_lp(origin);
        self.note_event(lp);
        (slot, origin, lp)
    }

    /// Schedules this worker's initial events: flow arrivals for owned
    /// LPs (workload order), then control ticks for owned deployed
    /// bundles, then per-LP samples. The per-LP key streams this produces
    /// are identical for every partitioning because each stream only
    /// depends on the workload and config.
    pub fn schedule_initial(&mut self, queue: &mut EventQueue) {
        for i in 0..self.specs.len() {
            let lp = origin_lp(self.specs[i].origin);
            if !self.owns_lp(lp) {
                continue;
            }
            let (start, key) = (self.specs[i].start, self.key_for(lp));
            queue.schedule(start, key, Event::FlowArrival { spec: i as u32 });
        }
        for b in 0..self.n_bundles {
            if !self.owned[b] {
                continue;
            }
            if let Some(interval) = self.edge.control(b).map(|c| c.config().control_interval) {
                let key = self.key_for(bundle_lp(b));
                queue.schedule(
                    Nanos::ZERO + interval,
                    key,
                    Event::ControlTick { bundle: b as u32 },
                );
            }
        }
        let sample = self.config.sample_interval;
        if self.part.owns_direct() {
            let key = self.key_for(LP_DIRECT);
            queue.schedule(Nanos::ZERO + sample, key, Event::Sample { lp: LP_DIRECT });
        }
        for b in 0..self.n_bundles {
            if self.owned[b] {
                let key = self.key_for(bundle_lp(b));
                queue.schedule(
                    Nanos::ZERO + sample,
                    key,
                    Event::Sample { lp: bundle_lp(b) },
                );
            }
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
        let spec = self.specs[spec_index as usize].clone();
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
            // and open the per-bundle accumulator the lifecycle hooks feed.
            self.obs.metrics.add(CounterId::FlowsSampled, 1);
            let (bundle_key, bundle_u32) = match spec.origin {
                Origin::Bundle(b) => (b, b as u32),
                Origin::Direct => (DIRECT_BUNDLE, u32::MAX),
            };
            self.obs.record(
                now,
                TraceKind::FlowAdmit {
                    flow: spec.id.0,
                    bundle: bundle_u32,
                    size_bytes: spec.size_bytes,
                },
            );
            self.obs.bundle_obs_mut(bundle_key).spans.insert(
                spec.id.0,
                bundler_obs::FlowSpan {
                    admitted_at: now,
                    size_bytes: spec.size_bytes,
                    ..Default::default()
                },
            );
        }
        let mut sender = TcpSender::new(spec.id, key, spec.size_bytes, spec.alg, spec.class, now);
        sender.maybe_send(now, arena, &mut self.pkt_buf);
        let state = FlowState {
            sender,
            receiver: TcpReceiver::new(),
            origin: spec.origin,
            size_bytes: spec.size_bytes,
            recorded: false,
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
            if let Some(acc) = self.bundle_delivered.get_mut(b) {
                *acc += payload as u64;
            }
        } else {
            self.cross_delivered += payload as u64;
        }

        // Application processing.
        match slot.map(|slot| &mut self.flows.slots[slot]) {
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
            Some(FlowSlot::Tcp(flow)) => {
                let ack_seq = flow.receiver.on_data(seq, payload);
                // The SACK information must be a snapshot taken together
                // with the cumulative ACK; mixing a stale cumulative value
                // with newer receiver state would make ordinary pipelining
                // look like loss.
                let ack = Packet::ack(flow_id, key.reversed(), ack_seq, now)
                    .with_sack_highest(flow.receiver.highest_received());
                let ack_id = arena.insert(ack);
                self.packets_created += 1;
                let k = self.key_for(lp);
                queue.schedule(
                    now + self.reverse_delay,
                    k,
                    Event::ArriveSource { pkt: ack_id },
                );
            }
            _ => {}
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
                let completed = flow.sender.is_complete() && !flow.recorded;
                if completed {
                    flow.recorded = true;
                }
                (completed, flow.size_bytes, flow.sender.started)
            }
            _ => return,
        };
        self.flush_pkt_buf(lp, origin, now, arena, queue, to_net);
        if completed {
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
                        .obs
                        .bundle_obs_mut(bundle.unwrap_or(DIRECT_BUNDLE))
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
            // the canonical completion order.
            let tag = self.key_for(lp);
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
                    // Accumulate into the flow's span (kept per bundle so
                    // it migrates with the bundle complex). A released
                    // packet's flow was admitted on this same bundle.
                    if let Some(span) = self.obs.bundle_obs_mut(bundle).spans.get_mut(&flow) {
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
        if lp == LP_DIRECT {
            let cross_mbps = (self.cross_delivered as f64 * 8.0) / interval / 1e6;
            self.cross_throughput_mbps.push(now, cross_mbps);
            self.cross_delivered = 0;
        } else {
            let b = (lp - LP_BUNDLE0) as usize;
            let acc = &mut self.bundle_delivered[b];
            let mbps = (*acc as f64 * 8.0) / interval / 1e6;
            self.bundle_throughput_mbps[b].push(now, mbps);
            *acc = 0;
            if let Some(bundle) = self.edge.bundle_mut(b) {
                bundle.sample_queue_delay(now);
                self.bundle_pacing_rate_mbps[b].push(now, bundle.rate().as_mbps_f64());
                if let Some(m) = self.edge.control(b).and_then(|c| c.last_measurement()) {
                    self.bundle_rtt_estimate_ms[b].push(now, m.rtt.as_millis_f64());
                    self.bundle_recv_rate_estimate_mbps[b].push(now, m.recv_rate.as_mbps_f64());
                }
            }
        }
        if self.obs.metrics_on() {
            if lp != LP_DIRECT {
                // Bundle health monitors: pure functions of this sample's
                // readings vs the previous sample's (state migrates with
                // the bundle), evaluated on the canonical sample stream so
                // verdicts are identical for any shard count.
                let b = (lp - LP_BUNDLE0) as usize;
                let readings = self
                    .edge
                    .bundle(b)
                    .zip(self.edge.control(b))
                    .map(|(bundle, c)| {
                        (
                            bundle.queue_bytes(),
                            c.stats().packets_sent,
                            bundle.mode_timeline.len().saturating_sub(1) as u64,
                        )
                    });
                if let Some((backlog, sent, mode_changes)) = readings {
                    let mut verdicts = std::mem::take(&mut self.health_buf);
                    verdicts.clear();
                    self.obs.bundle_obs_mut(b).health.check_bundle(
                        backlog,
                        sent,
                        mode_changes,
                        &mut verdicts,
                    );
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
            }
            // In the single-threaded host the sample stream doubles as the
            // telemetry flush beat; the sharded driver flushes at every
            // window barrier instead (flushing twice is a harmless no-op).
            self.obs.flush(now);
        }
        let k = self.key_for(lp);
        queue.schedule(now + self.config.sample_interval, k, Event::Sample { lp });
    }

    /// The site-side LP an event is handled by — the routing rule bundle
    /// migration extracts pending events with. Flow-routed events resolve
    /// through the flow table, so this must run while it is intact.
    fn event_lp(&self, event: &Event, arena: &PacketArena) -> u16 {
        match *event {
            Event::FlowArrival { spec } => origin_lp(self.specs[spec as usize].origin),
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

    /// Appends bundle `bundle`'s snapshot section to `out` without
    /// disturbing the live run: its LP sequence and load counters, its
    /// pending events (packets cloned by value), its sendbox edge state
    /// with the queued packets, its flows' TCP endhosts and ping clients,
    /// its telemetry series and in-flight observability state. This is the
    /// one form in which a bundle leaves a worker: a checkpoint keeps the
    /// bytes; a migration follows them with [`WorkerCore::drop_bundle`]
    /// here and [`WorkerCore::load_bundle`] on the other worker. Safe only
    /// at a window barrier or between two events of the single-threaded
    /// host — then no event for the bundle is in flight anywhere except
    /// `queue` (the caller drains its inbox into it first). Panics if the
    /// sendbox queue discipline does not support checkpointing.
    pub fn save_bundle(
        &mut self,
        bundle: usize,
        queue: &mut EventQueue,
        arena: &PacketArena,
        out: &mut Vec<u8>,
    ) {
        assert!(
            self.owned[bundle],
            "saving bundle {bundle}, which this worker does not own"
        );
        let lp = bundle_lp(bundle);
        let (seq, events) = (self.seqs[lp as usize], self.lp_events[lp as usize]);
        (bundle, seq, events, self.bundle_delivered[bundle]).encode(out);
        save_pending_in_place(queue, arena, out, |e| {
            !is_net_event(e) && self.event_lp(e, arena) == lp
        });
        self.edge.save_bundle(bundle, arena, out);
        // The bundle's flows, then its pings, each in ascending id.
        let mine = Origin::Bundle(bundle);
        let flows = self.flows.sorted(|slot| match slot {
            FlowSlot::Tcp(f) if f.origin == mine => Some(f),
            _ => None,
        });
        flows.encode(out);
        let pings = self.flows.sorted(|slot| match slot {
            FlowSlot::Ping { origin, client } if *origin == mine => Some((client, origin)),
            _ => None,
        });
        pings.encode(out);
        self.bundle_throughput_mbps[bundle].encode(out);
        self.bundle_pacing_rate_mbps[bundle].encode(out);
        self.bundle_rtt_estimate_ms[bundle].encode(out);
        self.bundle_recv_rate_estimate_mbps[bundle].encode(out);
        save_obs_state(self.obs.bundle_obs.get(&bundle), out);
    }

    /// Removes everything bundle `bundle` holds on this worker — pending
    /// events, sendbox edge state, flows and pings, counters, telemetry —
    /// freeing the packets of its events and queue back to `arena`, and
    /// returns how many packets and payload bytes that was. The sendbox's
    /// in-scheduler sojourn histogram is in no snapshot, so it folds into
    /// this worker's metrics here (its drop counters are read off the
    /// scheduler state, which travels in the section). Same barrier rule as
    /// [`WorkerCore::save_bundle`].
    pub fn drop_bundle(
        &mut self,
        bundle: usize,
        queue: &mut EventQueue,
        arena: &mut PacketArena,
    ) -> (u64, u64) {
        assert!(
            self.owned[bundle],
            "dropping bundle {bundle}, which this worker does not own"
        );
        let lp = bundle_lp(bundle);
        let mut events = queue.extract_if(|e| !is_net_event(e) && self.event_lp(e, arena) == lp);
        let (mut pkts, mut bytes) = (0, 0);
        let mut free = |id: PacketId| {
            pkts += 1;
            bytes += arena[id].size as u64;
            arena.free(id);
        };
        for id in events.iter_mut().filter_map(|(_, _, e)| event_pkt_mut(e)) {
            free(*id);
        }
        if let Some(mut b) = self.edge.remove(bundle) {
            b.tbf.for_each_pkt_mut(&mut |id| free(*id));
            if let Some(sched) = b.take_obs() {
                let sojourn = SchedObs {
                    sojourn: sched.sojourn,
                    ..SchedObs::default()
                };
                sojourn.merge_into(&mut self.obs.metrics);
            }
        }
        let mine = Origin::Bundle(bundle);
        for (id, ()) in self
            .flows
            .sorted(|slot| (slot.origin() == mine).then_some(()))
        {
            self.flows.remove(id);
        }
        self.owned[bundle] = false;
        self.seqs[lp as usize] = 0;
        self.lp_events[lp as usize] = 0;
        self.bundle_delivered[bundle] = 0;
        self.bundle_throughput_mbps[bundle] = TimeSeries::new();
        self.bundle_pacing_rate_mbps[bundle] = TimeSeries::new();
        self.bundle_rtt_estimate_ms[bundle] = TimeSeries::new();
        self.bundle_recv_rate_estimate_mbps[bundle] = TimeSeries::new();
        self.obs.take_bundle_obs(bundle);
        (pkts, bytes)
    }

    /// Installs bundle `bundle`'s section, as [`WorkerCore::save_bundle`]
    /// wrote it on any worker of this run or of the run a snapshot came
    /// from, into this worker, which must not hold the bundle: packets land
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
            !self.owned[bundle],
            "loading bundle {bundle}, which this worker already owns"
        );
        let lp = bundle_lp(bundle) as usize;
        let (found, seq, events, delivered) = <(usize, u64, u64, u64)>::decode(r)?;
        if found != bundle {
            return Err(r.error("bundle sections out of order"));
        }
        self.owned[bundle] = true;
        self.seqs[lp] = seq;
        self.lp_events[lp] = events;
        self.bundle_delivered[bundle] = delivered;
        load_pending(queue, arena, r, "missing bundle event packet")?;
        self.edge.load_bundle(&self.config, bundle, arena, r, now)?;
        if let Some(b) = self.edge.bundle_mut(bundle) {
            b.set_obs(self.obs.metrics_on());
        }
        let twice = "bundle section names a flow id twice";
        let n = decode_len(r, "bundle flow count")?;
        self.flows.reserve(n);
        for _ in 0..n {
            let (id, flow) = <(FlowId, FlowState)>::decode(r)?;
            self.flows.load(id, FlowSlot::Tcp(flow), r, twice)?;
        }
        for _ in 0..decode_len(r, "bundle ping count")? {
            let (id, client, origin) = Decode::decode(r)?;
            self.flows
                .load(id, FlowSlot::Ping { origin, client }, r, twice)?;
        }
        self.bundle_throughput_mbps[bundle] = TimeSeries::decode(r)?;
        self.bundle_pacing_rate_mbps[bundle] = TimeSeries::decode(r)?;
        self.bundle_rtt_estimate_ms[bundle] = TimeSeries::decode(r)?;
        self.bundle_recv_rate_estimate_mbps[bundle] = TimeSeries::decode(r)?;
        if let Some(state) = load_obs_state(r)? {
            self.obs.put_bundle_obs(bundle, state);
        }
        Ok(())
    }

    /// The worker's run-wide accumulators that belong to no single LP:
    /// counters, completed-flow records (in canonical merge order) and the
    /// agent's lifetime stats. One [`WorkerResidue`] per worker; a
    /// whole-simulation snapshot merges them into one (the merge is what
    /// makes snapshot bytes partition-independent — `assemble_report` only
    /// ever sums/merges these across workers).
    pub fn residue(&self) -> WorkerResidue {
        let mut fcts = self.fcts.clone();
        fcts.sort_by_key(|&(t, k, _)| (t, k));
        WorkerResidue {
            events_processed: self.events_processed,
            packets_created: self.packets_created,
            fcts,
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
    /// taken without disturbing the live run: its residue, the direct slice
    /// iff it owns the direct LP, and the section of every bundle it owns
    /// ([`WorkerCore::save_bundle`]) in ascending index.
    /// `queue` must already hold every delivery published below `at`.
    /// Ends by flushing the records below `at` to the telemetry stream, so
    /// a restore resumes from a complete prefix (saving records nothing,
    /// so the flush may as well come last). Panics if a sendbox queue
    /// discipline does not support checkpointing.
    pub fn save_part(
        &mut self,
        queue: &mut EventQueue,
        arena: &PacketArena,
        at: Nanos,
    ) -> WorkerPart {
        let mut part = WorkerPart {
            residue: self.residue(),
            direct: None,
            bundles: Vec::new(),
        };
        if self.part.owns_direct() {
            let mut buf = Vec::new();
            self.save_direct_state(queue, arena, &mut buf);
            part.direct = Some(buf);
        }
        for b in 0..self.n_bundles {
            if self.owned[b] {
                let mut buf = Vec::new();
                self.save_bundle(b, queue, arena, &mut buf);
                part.bundles.push((b, buf));
            }
        }
        self.obs.flush(at);
        part
    }

    /// Appends the direct cross-traffic LP's state to a snapshot stream
    /// *without* disturbing the live run: pending `LP_DIRECT` events are
    /// lifted out of `queue` in canonical order, serialized (packets cloned
    /// by value), and re-scheduled under their original ids. Only valid on
    /// the worker owning the direct LP.
    fn save_direct_state(&self, queue: &mut EventQueue, arena: &PacketArena, out: &mut Vec<u8>) {
        debug_assert!(self.part.owns_direct());
        save_pending_in_place(queue, arena, out, |e| {
            !is_net_event(e) && self.event_lp(e, arena) == LP_DIRECT
        });
        // Direct flows, then direct pings, each in ascending id.
        let flows = self.flows.sorted(|slot| match slot {
            FlowSlot::Tcp(f) if f.origin == Origin::Direct => Some(f),
            _ => None,
        });
        flows.encode(out);
        let pings = self.flows.sorted(|slot| match slot {
            FlowSlot::Ping {
                origin: Origin::Direct,
                client,
            } => Some(client),
            _ => None,
        });
        pings.encode(out);
        self.seqs[LP_DIRECT as usize].encode(out);
        self.lp_events[LP_DIRECT as usize].encode(out);
        self.cross_delivered.encode(out);
        self.cross_throughput_mbps.encode(out);
        // Direct flows never migrate, so their in-flight flow spans live
        // under the synthetic DIRECT_BUNDLE key on this worker.
        save_obs_state(self.obs.bundle_obs.get(&DIRECT_BUNDLE), out);
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
        self.seqs[LP_DIRECT as usize] = u64::decode(r)?;
        self.lp_events[LP_DIRECT as usize] = u64::decode(r)?;
        self.cross_delivered = u64::decode(r)?;
        self.cross_throughput_mbps = TimeSeries::decode(r)?;
        if let Some(state) = load_obs_state(r)? {
            self.obs.put_bundle_obs(DIRECT_BUNDLE, state);
        }
        Ok(())
    }
}

/// A worker's run-wide accumulators that belong to no single LP. Snapshots
/// merge every worker's residue into one canonical record (sums of
/// counters, completed flows in canonical order, summed agent stats) — the
/// same folds `assemble_report` performs — so the merged bytes are
/// identical for any shard count.
#[derive(Debug, Clone, Default)]
pub struct WorkerResidue {
    /// Events handled by the worker cores.
    pub events_processed: u64,
    /// Packets created by the worker cores' endhosts.
    pub packets_created: u64,
    /// Completed-flow records in canonical `(time, key)` order.
    pub fcts: Vec<(Nanos, EventKey, FctRecord)>,
    /// Summed agent lifetime stats (agent mode only).
    pub agent_stats: Option<bundler_agent::AgentStats>,
}

impl WorkerResidue {
    /// Folds another worker's residue into this one, keeping the canonical
    /// orders and sums `assemble_report` would produce.
    pub fn merge(&mut self, mut other: WorkerResidue) {
        self.events_processed += other.events_processed;
        self.packets_created += other.packets_created;
        self.fcts.append(&mut other.fcts);
        self.fcts.sort_by_key(|&(t, k, _)| (t, k));
        if let Some(stats) = other.agent_stats {
            *self.agent_stats.get_or_insert_with(Default::default) += stats;
        }
    }
}

serde::layout!(value WorkerResidue { events_processed, packets_created, fcts, agent_stats });

/// Appends a section's in-flight observability state (flow-span
/// accumulators in `BTreeMap` order, then the health-monitor readings)
/// behind a one-byte presence flag, `0` when there is none to carry. Lives
/// here rather than in `bundler-obs` so the obs crate stays serde-free.
fn save_obs_state(state: Option<&BundleObsState>, out: &mut Vec<u8>) {
    let Some(state) = state.filter(|state| !state.is_empty()) else {
        0u8.encode(out);
        return;
    };
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
fn load_obs_state(r: &mut Reader<'_>) -> Result<Option<BundleObsState>, DecodeError> {
    match u8::decode(r)? {
        0 => return Ok(None),
        1 => {}
        _ => return Err(r.error("unknown obs presence tag")),
    }
    let mut state = BundleObsState::default();
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
    Ok(Some(state))
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
    let balancing = if config.packet_spraying {
        Balancing::PacketRoundRobin
    } else {
        Balancing::FlowHash
    };
    LoadBalancer::new(config.num_paths.max(1), balancing)
}

/// The shared-bottleneck logical process: load balancer, paths, and the
/// bottleneck-side statistics.
///
/// One `NetCore` instance hosts a *partition* of the global path set: the
/// single-threaded engine's core owns every path; in the sharded host net
/// shard `k` owns `{gid : gid % net_shards == k}` (every path when
/// `net_shards = 1`). Every per-path accumulator is indexed by the
/// **global** path id and every event key is drawn from the owning path's
/// private sequence stream (`(gid << PATH_SEQ_SHIFT) | seq`), so the union
/// of all shards' outputs is bit-identical to one core owning everything —
/// the invariant the cross-shard differential matrix in
/// `crates/shard/tests` pins.
pub struct NetCore {
    paths: Vec<BottleneckPath>,
    /// Global path ids this core owns, ascending. Paths outside the set
    /// are still constructed (so global indexing and the lookahead
    /// computation work unchanged) but never receive events here.
    owned: Vec<usize>,
    /// This core's net-shard index and the run's net-shard count.
    shard: usize,
    net_shards: usize,
    lb: LoadBalancer,
    /// Per-path schedule-sequence counters (the low half of the key
    /// packing above).
    path_seqs: Vec<u64>,
    sample_interval: Duration,
    /// Per-path handled-event counts, summed into the report.
    events_handled: Vec<u64>,
    /// The configured per-path rate, kept so capacity-scale faults can
    /// compute (and restore) absolute rates deterministically.
    base_path_rate: Rate,
    /// Per-path packets created *by the net core itself* — duplication
    /// faults mint copies here rather than at an endhost.
    packets_minted: Vec<u64>,
    /// Fault-injection cursor state (which plan entries have fired, what
    /// is pending), tracked per path so fault application is a pure
    /// function of the path's own event stream.
    faults: NetFaults,
    /// The fluid cross-traffic tier, when configured. Lives here because
    /// its integration points are net events: each path's `FluidUpdate`
    /// stream reads and writes only that path's fluid state, so capacity
    /// faults perturb it identically for any partitioning.
    fluid: Option<FluidState>,
    /// Per-path [`LP_FLUID`] sequence counters (separate from the net
    /// LP's so the packet-event key stream is untouched when the tier is
    /// off).
    fluid_seqs: Vec<u64>,
    /// Observability state for the bottleneck side (shard id
    /// [`bundler_obs::NET_SHARD`], or the id below it for net shard `k`).
    /// Public so the sharded driver can stamp net-phase spans and drain
    /// the ring at barriers.
    pub obs: ShardObs,
}

/// The dynamic half of fault injection: the plan is immutable config;
/// each path walks its **own** cursor over it, applying link/capacity
/// entries addressed to it and folding every packet-level burst into its
/// own counters. For `num_paths = 1` this is exactly the historical
/// single-cursor semantics; for multipath it makes fault application
/// independent of how arrivals interleave across paths, which is what
/// lets paths live on different net shards. Part of the snapshot.
struct NetFaults {
    plan: FaultPlan,
    /// Per-path index of the first plan entry not yet applied.
    cursor: Vec<usize>,
    /// Per-path "interface down" flags toggled by link flaps.
    link_down: Vec<bool>,
    /// Per-path remaining arrivals to drop (burst loss).
    burst_loss: Vec<u32>,
    /// Per-path remaining arrivals to duplicate.
    duplicate: Vec<u32>,
    /// Per-path remaining adjacent arrival pairs to swap.
    reorder: Vec<u32>,
    /// Per-path one-slot reorder buffers: a held packet is released
    /// behind the next arrival on the same path.
    held: Vec<Option<PacketId>>,
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
        let mut paths = Vec::new();
        for i in 0..n {
            let extra = Duration(config.path_delay_spread.as_nanos() * i as u64);
            let delay = forward_delay + extra;
            let path = if config.in_network_fq {
                BottleneckPath::with_queue(per_path_rate, delay, Policy::FairQueue.build(buffer))
            } else {
                BottleneckPath::drop_tail(per_path_rate, delay, buffer)
            };
            paths.push(path);
        }
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
            owned: (0..n).filter(|gid| gid % net_shards == shard).collect(),
            shard,
            net_shards,
            lb: balancer_for(config),
            path_seqs: vec![0; n],
            sample_interval: config.sample_interval,
            events_handled: vec![0; n],
            base_path_rate: per_path_rate,
            packets_minted: vec![0; n],
            faults: NetFaults {
                plan: config.faults.clone().unwrap_or_default(),
                cursor: vec![0; n],
                link_down: vec![false; n],
                burst_loss: vec![0; n],
                duplicate: vec![0; n],
                reorder: vec![0; n],
                held: vec![None; n],
            },
            fluid,
            fluid_seqs: vec![0; n],
            obs,
        }
    }

    /// True if this core owns global path `gid`.
    #[inline]
    pub fn owns_path(&self, gid: usize) -> bool {
        gid % self.net_shards == self.shard
    }

    /// The global path ids this core owns, ascending.
    pub fn owned_paths(&self) -> &[usize] {
        &self.owned
    }

    /// This core's net-shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Events this core has handled (across its owned paths).
    pub fn events_processed(&self) -> u64 {
        self.events_handled.iter().sum()
    }

    /// Packets minted by the net core itself (duplication faults).
    pub fn packets_created(&self) -> u64 {
        self.packets_minted.iter().sum()
    }

    #[inline]
    fn key_for(&mut self, gid: usize) -> EventKey {
        self.path_seqs[gid] += 1;
        let seq = self.path_seqs[gid];
        debug_assert!(seq < 1 << PATH_SEQ_SHIFT, "path sequence space exhausted");
        EventKey::new(LP_NET, ((gid as u64) << PATH_SEQ_SHIFT) | seq)
    }

    #[inline]
    fn fluid_key_for(&mut self, gid: usize) -> EventKey {
        self.fluid_seqs[gid] += 1;
        let seq = self.fluid_seqs[gid];
        debug_assert!(seq < 1 << PATH_SEQ_SHIFT, "fluid sequence space exhausted");
        EventKey::new(LP_FLUID, ((gid as u64) << PATH_SEQ_SHIFT) | seq)
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
        let mut sections = Vec::with_capacity(self.owned.len());
        for i in 0..self.owned.len() {
            let gid = self.owned[i];
            let mut buf = Vec::new();
            self.save_path_section(gid, queue, arena, &mut buf);
            sections.push((gid, buf));
        }
        self.obs.flush(at);
        sections
    }

    /// Appends global path `gid`'s complete dynamic slice to a snapshot
    /// stream without disturbing the live run: the path's sequence
    /// counters, queue (packets cloned by value), fault cursor, fluid
    /// state, and its pending net events lifted from `queue` in canonical
    /// order and re-scheduled under their original ids. Because every
    /// field is per-path, the concatenation of all paths' sections in
    /// global id order is byte-identical no matter how paths were
    /// partitioned across net shards.
    fn save_path_section(
        &mut self,
        gid: usize,
        queue: &mut EventQueue,
        arena: &PacketArena,
        out: &mut Vec<u8>,
    ) {
        debug_assert!(self.owns_path(gid));
        self.path_seqs[gid].encode(out);
        self.events_handled[gid].encode(out);
        self.packets_minted[gid].encode(out);
        self.paths[gid].save_state(arena, out);
        (self.faults.cursor[gid] as u64).encode(out);
        self.faults.link_down[gid].encode(out);
        self.faults.burst_loss[gid].encode(out);
        self.faults.duplicate[gid].encode(out);
        self.faults.reorder[gid].encode(out);
        match self.faults.held[gid] {
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
            self.fluid_seqs[gid].encode(out);
            fluid.save_path_state(gid, out);
            for i in 0..fluid.num_aggregates() {
                if fluid.aggregate_path(i) as usize == gid {
                    self.obs.fluid_floor[i].encode(out);
                }
            }
        }
        save_pending_in_place(queue, arena, out, |e| {
            is_net_event(e) && self.net_event_path(e, arena) == gid
        });
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
        self.path_seqs[gid] = u64::decode(r)?;
        self.events_handled[gid] = u64::decode(r)?;
        self.packets_minted[gid] = u64::decode(r)?;
        self.paths[gid].load_state(arena, r)?;
        self.faults.cursor[gid] = u64::decode(r)? as usize;
        self.faults.link_down[gid] = bool::decode(r)?;
        self.faults.burst_loss[gid] = u32::decode(r)?;
        self.faults.duplicate[gid] = u32::decode(r)?;
        self.faults.reorder[gid] = u32::decode(r)?;
        self.faults.held[gid] = if bool::decode(r)? {
            Some(arena.insert(Packet::decode(r)?))
        } else {
            None
        };
        if let Some(fluid) = &mut self.fluid {
            self.fluid_seqs[gid] = u64::decode(r)?;
            fluid.load_path_state(gid, r)?;
            fluid.reapply_path(gid, &mut self.paths[gid]);
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
        for i in 0..self.owned.len() {
            let gid = self.owned[i];
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
        self.events_handled[gid] += 1;
        self.apply_due_faults_for(gid, now);
        let Some(fluid) = &mut self.fluid else {
            unreachable!("FluidUpdate without a configured fluid tier");
        };
        fluid.update_path(now, gid, &mut self.paths[gid]);
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
                    rate_bps: self.paths[gid].fluid_drain_bps(),
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
        while let Some(e) = self.faults.plan.entries.get(self.faults.cursor[gid]) {
            if e.at > now {
                break;
            }
            let kind = e.kind;
            self.faults.cursor[gid] += 1;
            match kind {
                FaultKind::LinkDown { path } => {
                    if path as usize == gid {
                        self.faults.link_down[gid] = true;
                    }
                }
                FaultKind::LinkUp { path } => {
                    if path as usize == gid {
                        self.faults.link_down[gid] = false;
                    }
                }
                FaultKind::CapacityScale { path, permille } => {
                    if path as usize == gid {
                        let bps = self.base_path_rate.as_bps() * permille as u64 / 1000;
                        self.paths[gid].set_rate(Rate::from_bps(bps.max(1)));
                    }
                }
                FaultKind::BurstLoss { count } => self.faults.burst_loss[gid] += count,
                FaultKind::Duplicate { count } => self.faults.duplicate[gid] += count,
                FaultKind::Reorder { count } => self.faults.reorder[gid] += count,
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
        self.events_handled[gid] += 1;
        self.apply_due_faults_for(gid, now);
        if self.faults.burst_loss[gid] > 0 {
            // Injected loss upstream of the bottleneck: the packet
            // vanishes without touching any queue.
            self.faults.burst_loss[gid] -= 1;
            arena.free(pkt);
            return;
        }
        if self.faults.reorder[gid] > 0 {
            match self.faults.held[gid].take() {
                None => {
                    self.faults.held[gid] = Some(pkt);
                    return;
                }
                Some(held) => {
                    self.faults.reorder[gid] -= 1;
                    self.admit(pkt, gid, now, arena, queue);
                    self.admit(held, gid, now, arena, queue);
                    return;
                }
            }
        }
        if self.faults.duplicate[gid] > 0 {
            self.faults.duplicate[gid] -= 1;
            let copy = arena[pkt].clone();
            let dup = arena.insert(copy);
            self.packets_minted[gid] += 1;
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
        if self.faults.link_down[gid] {
            self.paths[gid].drops += 1;
            arena.free(pkt);
            return;
        }
        if self.paths[gid].enqueue(pkt, arena, now) {
            self.kick_path(gid, now, queue);
        }
    }

    fn kick_path(&mut self, path: usize, now: Nanos, queue: &mut EventQueue) {
        let p = &mut self.paths[path];
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
        self.events_handled[path] += 1;
        self.apply_due_faults_for(path, now);
        self.paths[path].dequeue_scheduled = false;
        if let Some((pkt, delivered_at, link_free)) = self.paths[path].try_transmit(arena, now) {
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
            if self.paths[path].queue_len() > 0 {
                self.paths[path].dequeue_scheduled = true;
                let key = self.key_for(path);
                queue.schedule(link_free, key, Event::PathDequeue { path: path as u32 });
            }
        } else if self.paths[path].queue_len() > 0 {
            // Link was still busy: try again when it frees up.
            let at = self.paths[path].busy_until();
            self.paths[path].dequeue_scheduled = true;
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
        self.events_handled[gid] += 1;
        self.apply_due_faults_for(gid, now);
        self.paths[gid].sample_queue_delay(now);
        if self.obs.metrics_on() {
            let queue_delay_ms = self.paths[gid].queue_delay().as_millis_f64();
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

/// Appends the pending events `select` picks out of a live queue, and the
/// packets they carry, *without* disturbing the run — the one layout the
/// direct slice, every bundle section and every path section share: the
/// event list with every arena id zeroed, then the packets (cloned by value
/// out of `arena`, one per packet-bearing event, in event order) behind a
/// `u64` count. The events are lifted out in canonical order and
/// re-scheduled under their original keys. The ids are host-local slot
/// indices (a restore rewrites them from the packet values carried
/// alongside), so leaving them in would make snapshot bytes depend on arena
/// allocation order — which differs between the single-threaded and
/// sharded hosts. Zeroing them keeps the bytes partition-invariant.
fn save_pending_in_place(
    queue: &mut EventQueue,
    arena: &PacketArena,
    out: &mut Vec<u8>,
    select: impl Fn(&Event) -> bool,
) {
    let events = queue.extract_if(select);
    let mut pkts = Vec::new();
    let canon: Vec<Pending> = events
        .iter()
        .map(|&(at, key, mut event)| {
            if let Some(pkt) = event_pkt_mut(&mut event) {
                pkts.push(&arena[*pkt]);
                *pkt = PacketId::from_index(0);
            }
            (at, key, event)
        })
        .collect();
    canon.encode(out);
    pkts.encode(out);
    for (at, key, event) in events {
        queue.schedule(at, key, event);
    }
}

/// Reverses [`save_pending_in_place`] straight into `queue` and `arena`,
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

/// Merges the cores' outputs into one [`SimReport`]. `workers` may be one
/// core owning everything (single-threaded host) or one per shard, and
/// `nets` one core owning every path or one per net shard; the result is
/// identical either way because every per-LP output is tagged with its
/// canonical order and every net-side accumulator is per-path.
pub fn assemble_report(
    config: &SimulationConfig,
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

    // Flow completions: merge per-worker lists by canonical (time, key).
    let mut tagged: Vec<(Nanos, EventKey, FctRecord)> = Vec::new();
    for w in &mut workers {
        tagged.append(&mut w.fcts);
    }
    tagged.sort_by_key(|&(t, k, _)| (t, k));
    report.fcts = tagged.into_iter().map(|(_, _, r)| r).collect();
    report.completed = report.fcts.len();

    let mut telemetry_rows: Vec<bundler_agent::BundleTelemetry> = Vec::new();
    let mut agent_stats_total: Option<bundler_agent::AgentStats> = None;

    for w in &mut workers {
        report.unfinished += w
            .flows
            .slots
            .iter()
            .filter(|slot| {
                matches!(slot, FlowSlot::Tcp(f)
                    if !f.sender.is_complete() && f.size_bytes != FlowSpec::BACKLOGGED)
            })
            .count();
        report.events_processed += w.events_processed;
        report.packets_created += w.packets_created;
        for b in 0..n_bundles {
            if !w.owned[b] {
                continue;
            }
            report.bundle_throughput_mbps[b] = std::mem::take(&mut w.bundle_throughput_mbps[b]);
            report.bundle_pacing_rate_mbps[b] = std::mem::take(&mut w.bundle_pacing_rate_mbps[b]);
            report.bundle_rtt_estimate_ms[b] = std::mem::take(&mut w.bundle_rtt_estimate_ms[b]);
            report.bundle_recv_rate_estimate_mbps[b] =
                std::mem::take(&mut w.bundle_recv_rate_estimate_mbps[b]);
            if let Some(control) = w.edge.control(b) {
                report.out_of_order_fraction[b] = control.out_of_order_fraction();
            }
            if let Some(bundle) = w.edge.bundle(b) {
                report.sendbox_queue_delay_ms[b] = bundle.queue_delay_ms.clone();
                report.mode_timeline[b] = bundle.mode_timeline.clone();
            }
        }
        if w.part.owns_direct() {
            report.cross_throughput_mbps = std::mem::take(&mut w.cross_throughput_mbps);
        }
        if let Some(agent) = w.edge.agent() {
            telemetry_rows.extend(agent.snapshots().bundles);
            *agent_stats_total.get_or_insert_with(Default::default) += agent.stats();
        }
        // Ping RTT series, merged per bundle in flow-id order so the
        // result is independent of hash-map iteration and partitioning.
        let pings = w.flows.sorted(|slot| match slot {
            FlowSlot::Ping {
                origin: Origin::Bundle(b),
                client: Some(ping),
            } => Some((*b, ping)),
            _ => None,
        });
        for (_, (b, ping)) in pings {
            report.ping_rtts_ms[b].extend(ping.rtts.iter().map(|d| d.as_millis_f64()));
        }
    }

    if agent_stats_total.is_some() {
        telemetry_rows.sort_by_key(|row| row.index);
        report.agent_telemetry = Some(bundler_agent::AgentTelemetry {
            bundles: telemetry_rows,
        });
        report.agent_stats = agent_stats_total;
    }

    report.packets_recycled = packets_recycled;
    for net in &nets {
        report.events_processed += net.events_processed();
        report.packets_created += net.packets_created();
        for &gid in &net.owned {
            report.bottleneck_drops += net.paths[gid].drops;
            report.bytes_delivered += net.paths[gid].bytes_delivered;
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
            &net.paths[gid].queue_delay_ms
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
            // metrics. Migrated bundles carried theirs along, so the fold
            // happens exactly once wherever the bundle ended up.
            for b in 0..n_bundles {
                if !w.owned[b] {
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
    use bundler_core::BundlerConfig;
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
            recorded: false,
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

        fn origin_of(&self, id: FlowId) -> Origin {
            self.flows
                .get(&id)
                .map(|f| f.0)
                .or_else(|| self.ping_origin.get(&id).copied())
                .unwrap_or(Origin::Direct)
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
            ops in collection::vec((0u8..4, 0u64..3, 0u64..6, 0u8..3, 1u32..1000), 1..120),
        ) {
            let mut table = FlowTable::default();
            let mut model = ThreeMaps::default();
            for (op, site, i, pick, tag) in ops {
                let (id, origin) = (flow_id(site, i), origin(pick));
                let held = model.holds(id);
                match op {
                    0 => {
                        prop_assert_eq!(table.insert(id, tcp(id, origin, tag as u64)), !held);
                        model.remove(id);
                        model.flows.insert(id, (origin, tag as u64));
                    }
                    1 => {
                        // Every third ping is the client-less kind.
                        let tag = (tag % 3 != 0).then_some(tag);
                        prop_assert_eq!(table.insert(id, ping(id, origin, tag)), !held);
                        model.remove(id);
                        model.ping_origin.insert(id, origin);
                        if let Some(tag) = tag {
                            model.pings.insert(id, tag);
                        }
                    }
                    _ => {
                        prop_assert_eq!(table.remove(id).is_some(), held);
                        model.remove(id);
                    }
                }
                // Every id of the universe resolves as the maps would.
                for id in (0..3).flat_map(|site| (0..6).map(move |i| flow_id(site, i))) {
                    let slot = table.slot_of(id);
                    prop_assert_eq!(slot.is_some(), model.holds(id));
                    prop_assert_eq!(table.origin_at(slot), model.origin_of(id));
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
                // The ordered walk lists exactly the registered ids, ascending.
                let walked: Vec<FlowId> = table.sorted(|_| Some(())).into_iter().map(|e| e.0).collect();
                let mut expected: Vec<FlowId> =
                    model.flows.keys().chain(model.ping_origin.keys()).copied().collect();
                expected.sort();
                prop_assert_eq!(walked, expected);
                // Each slot is indexed or on the free list, never both.
                prop_assert_eq!(table.index.len() + table.free.len(), table.slots.len());
                for &slot in &table.free {
                    prop_assert!(matches!(table.slots[slot as usize], FlowSlot::Free));
                }
            }
        }
    }

    #[test]
    fn rotating_a_bundle_reuses_its_slots() {
        // What `ShardBalance::Rotate` does to a bundle at every barrier,
        // 1 000 times over: its section is saved, the bundle dropped and the
        // section loaded. The freed slots are taken again on loading, so
        // neither the slab nor the free list grows, and the loaded bundle
        // saves the very bytes it was loaded from.
        let config = SimulationConfig {
            bundles: vec![
                BundleMode::Bundler(BundlerConfig::default()),
                BundleMode::StatusQuo,
            ],
            ..Default::default()
        };
        let mut workload: Vec<FlowSpec> = (0..40)
            .map(|i| {
                FlowSpec::bundled(
                    flow_id(i % 2, i).0,
                    50_000,
                    Nanos::from_millis(i),
                    i as usize % 2,
                )
            })
            .collect();
        workload.push(FlowSpec::bundled(flow_id(0, 90).0, 40, Nanos::ZERO, 0).as_ping());
        workload.push(FlowSpec::direct(flow_id(2, 0).0, 50_000, Nanos::ZERO));
        let mut core = WorkerCore::new(&config, &workload, Partition::solo());
        let (mut queue, mut arena) = (EventQueue::new(), PacketArena::new());
        core.schedule_initial(&mut queue);
        // Admit every flow (nothing reaches the bottleneck: no net core).
        let mut to_net = Vec::new();
        let now = Nanos::from_millis(45);
        while queue.peek().is_some_and(|(t, _)| t < now) {
            let (t, event) = queue.pop().expect("peeked");
            core.handle(event, t, &mut arena, &mut queue, &mut to_net);
        }
        assert_eq!(core.flows.index.len(), workload.len());
        let (slots, live) = (core.flows.slots.len(), arena.live());
        let mut section = Vec::new();
        core.save_bundle(0, &mut queue, &arena, &mut section);
        let (mut pkts, mut resaved) = (0, Vec::new());
        for cycle in 0..1000 {
            pkts = core.drop_bundle(0, &mut queue, &mut arena).0;
            assert_eq!(core.flows.free.len(), 21, "bundle 0's flows and ping left");
            assert_eq!(arena.live() as u64, live as u64 - pkts, "its packets freed");
            let r = &mut Reader::new(&section);
            core.load_bundle(0, &mut queue, &mut arena, r, now)
                .expect("a bundle's own section loads");
            assert!(
                r.is_empty(),
                "cycle {cycle}: the section is read to its end"
            );
            assert_eq!(core.flows.slots.len(), slots, "cycle {cycle}");
            assert!(core.flows.free.is_empty(), "cycle {cycle}");
            assert_eq!(core.flows.index.len(), workload.len());
            assert_eq!(arena.live(), live, "cycle {cycle}");
            resaved.clear();
            core.save_bundle(0, &mut queue, &arena, &mut resaved);
            assert!(
                resaved == section,
                "cycle {cycle}: the loaded bundle saves other bytes"
            );
        }
        assert!(pkts > 0, "the bundle moves with packets in flight");
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
