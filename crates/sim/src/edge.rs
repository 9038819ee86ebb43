//! The site edge: either a transparent pass-through (status quo) or a
//! Bundler sendbox (token-bucket rate limiter + scheduler + control plane)
//! paired with a receivebox at the destination site.
//!
//! There is one kind of per-bundle edge state, [`Bundle`], and one
//! container for it, `Edge`, whether the site has one remote peer or
//! forty-eight. The two configurations of a source site — per-bundle
//! [`BundleMode`]s ("classic") and one [`SiteAgent`] managing many bundles
//! behind a prefix classifier ("agent") — differ in exactly two things,
//! both decided inside `Edge`: *which bundle a packet belongs to* (its
//! flow's origin, or a longest-prefix match on its destination) and *who
//! holds the bundle's [`Sendbox`]* (the [`Bundle`] itself, or the agent).

use bundler_agent::{AgentStats, SiteAgent};
use bundler_core::feedback::{BundleId, CongestionAck, EpochSizeUpdate};
use bundler_core::{BundlerConfig, Mode, Receivebox, Sendbox, SendboxOutput};
use bundler_sched::tbf::{Release, Tbf};
use bundler_sched::Enqueued;
use bundler_types::{IpPrefix, Nanos, Packet, PacketArena, PacketId, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader, State};

use crate::path::{load_queued, save_queued};
use crate::sim::SimulationConfig;
use crate::stats::TimeSeries;
use crate::workload::Origin;

/// How a bundle's traffic is treated at the source site edge.
#[derive(Debug, Clone, Copy)]
pub enum BundleMode {
    /// No Bundler: packets pass straight through to the network (the
    /// paper's "Status Quo" configuration). Flows are still attributed to
    /// the bundle for statistics.
    StatusQuo,
    /// A Bundler sendbox/receivebox pair manages the bundle.
    Bundler(BundlerConfig),
}

/// A deployed bundle: sendbox datapath + control plane + receivebox.
pub struct Bundle {
    /// Index of this bundle within the simulation.
    pub index: usize,
    /// The sendbox datapath: token bucket + configured scheduler.
    pub tbf: Tbf,
    /// The sendbox control plane, when the bundle holds it itself. `None`
    /// at an agent edge, where the [`SiteAgent`] holds every bundle's
    /// [`Sendbox`] so that its classifier, ACK routing and telemetry see
    /// them (see `Edge`).
    pub control: Option<Sendbox>,
    /// The receivebox at the destination site.
    pub receivebox: Receivebox,
    /// Whether a release event is currently scheduled (prevents duplicate
    /// scheduling in the event loop).
    pub release_scheduled: bool,
    /// Sendbox queue delay samples in milliseconds.
    pub queue_delay_ms: TimeSeries,
    /// Mode changes observed: (time, mode name).
    pub mode_timeline: Vec<(Nanos, String)>,
    last_mode: Mode,
}

impl std::fmt::Debug for Bundle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Bundle")
            .field("index", &self.index)
            .field("rate", &self.tbf.rate())
            .field("queued", &self.tbf.len_packets())
            .field("mode", &self.last_mode)
            .finish()
    }
}

impl Bundle {
    /// Creates a bundle instance from a Bundler configuration, holding its
    /// own control plane.
    pub fn new(index: usize, config: BundlerConfig, now: Nanos) -> Result<Self, String> {
        config.validate()?;
        let control = Sendbox::new(BundleId(index as u32), config)?;
        Ok(Bundle {
            control: Some(control),
            ..Bundle::without_control(index, &config, now)
        })
    }

    /// A bundle whose control plane lives elsewhere (in the edge's
    /// [`SiteAgent`], which validated `config` when it built the
    /// [`Sendbox`]): datapath, receivebox and telemetry only.
    fn without_control(index: usize, config: &BundlerConfig, now: Nanos) -> Self {
        let scheduler = config.policy.build(config.sendbox_queue_capacity_pkts);
        Bundle {
            index,
            tbf: Tbf::new(config.initial_rate, 3 * 1514, scheduler, now),
            control: None,
            receivebox: Receivebox::new(BundleId(index as u32), config.initial_epoch_size),
            release_scheduled: false,
            queue_delay_ms: TimeSeries::new(),
            mode_timeline: vec![(now, Mode::DelayControl.to_string())],
            last_mode: Mode::DelayControl,
        }
    }

    /// Offers a packet from a bundled flow to the sendbox scheduler.
    /// Returns `false` if the scheduler dropped a packet to make room (the
    /// victim is freed back to the arena here).
    pub fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> bool {
        match self.tbf.enqueue(pkt, arena, now) {
            Enqueued::Queued => true,
            Enqueued::Dropped(victim) => {
                arena.free(victim);
                false
            }
        }
    }

    /// Attempts to release the next packet under the current pacing rate.
    /// On success the bundle's own control plane, if it holds one, is
    /// notified so it can record epoch boundaries (`Edge::try_release`
    /// notifies an agent-held one).
    pub fn try_release(&mut self, arena: &mut PacketArena, now: Nanos) -> Release {
        let release = self.tbf.try_dequeue(arena, now);
        if let (Release::Packet(pkt), Some(control)) = (release, self.control.as_mut()) {
            control.on_packet_forwarded(&arena[pkt], now);
        }
        release
    }

    /// Applies one control tick's output to the datapath: the new pacing
    /// rate goes to the token bucket, a mode change onto the timeline, and
    /// any epoch-size update that must be delivered to the receivebox is
    /// returned.
    fn apply_tick(&mut self, out: SendboxOutput, now: Nanos) -> Option<EpochSizeUpdate> {
        self.tbf.set_rate(out.rate, now);
        if out.mode != self.last_mode {
            self.last_mode = out.mode;
            self.mode_timeline.push((now, out.mode.to_string()));
        }
        out.epoch_update
    }

    /// Current pacing rate.
    pub fn rate(&self) -> Rate {
        self.tbf.rate()
    }

    /// Bytes queued at the sendbox.
    pub fn queue_bytes(&self) -> u64 {
        self.tbf.len_bytes()
    }

    /// Records a queue-delay sample (delay a packet arriving now would
    /// experience at the current pacing rate).
    pub fn sample_queue_delay(&mut self, now: Nanos) {
        let rate = self.tbf.rate();
        let delay_ms = if rate.is_zero() {
            0.0
        } else {
            rate.transmit_time(self.tbf.len_bytes()).as_millis_f64()
        };
        self.queue_delay_ms.push(now, delay_ms.min(30_000.0));
    }

    /// Operating mode of the control plane as of its last tick.
    pub fn mode(&self) -> Mode {
        self.last_mode
    }

    /// Enables or disables the sendbox datapath's observability export
    /// (per-packet sojourn, CoDel drop-state transitions).
    pub fn set_obs(&mut self, on: bool) {
        self.tbf.set_obs(on);
    }

    /// Takes the datapath's observability export, if recording was
    /// enabled. The export is host-local — it is in no snapshot — so the
    /// worker that drops the bundle or finishes the run with it takes it.
    pub fn take_obs(&mut self) -> Option<bundler_obs::SchedObs> {
        self.tbf.take_obs()
    }
}

// The bundle's complete dynamic state: datapath, control plane if the bundle
// holds it, receivebox, telemetry. The queued packets themselves are not in
// it: `Edge::save_bundle` writes them right after it, by value in
// `Tbf::for_each_pkt_mut` order, and `Edge::load_bundle` re-homes the refs
// into its arena in that order.
serde::layout!(state Bundle {
    tbf, control (if_built), receivebox, release_scheduled, queue_delay_ms, mode_timeline,
    last_mode,
});

/// One bundle of an agent edge: the destination prefixes it serves and its
/// Bundler configuration.
#[derive(Debug, Clone)]
pub struct MultiBundleSpec {
    /// Destination prefixes routed to this bundle (the remote site's
    /// announced address space).
    pub prefixes: Vec<IpPrefix>,
    /// The bundle's Bundler configuration.
    pub config: BundlerConfig,
}

/// One worker's partition of the source site's sendbox edge: the
/// [`Bundle`] of every deployed bundle the worker owns, indexed by the
/// site-wide (global) bundle id, and — when the site runs an agent
/// ([`SimulationConfig::multi_bundle`]) — the [`SiteAgent`] managing those
/// same bundles' control planes.
pub(crate) struct Edge {
    /// `Some` exactly for the owned bundles that deploy a sendbox.
    bundles: Vec<Option<Bundle>>,
    /// At an agent edge, manages exactly the bundles that are `Some` above.
    agent: Option<SiteAgent>,
}

impl Edge {
    /// Builds the partition of the configured edge that `owned` (one flag
    /// per bundle index) selects. Bundles keep their global identity for
    /// classification, ACK routing and telemetry.
    pub(crate) fn new(config: &SimulationConfig, owned: &[bool]) -> Result<Self, String> {
        let now = Nanos::ZERO;
        let mut bundles = Vec::with_capacity(owned.len());
        let agent = match &config.multi_bundle {
            Some(mode) => {
                let mut agent = SiteAgent::new(mode.agent);
                for (b, spec) in mode.specs.iter().enumerate() {
                    bundles.push(if owned[b] {
                        let id = BundleId(b as u32);
                        agent.add_bundle_with_id(&spec.prefixes, spec.config, id, now)?;
                        Some(Bundle::without_control(b, &spec.config, now))
                    } else {
                        None
                    });
                }
                Some(agent)
            }
            None => {
                for (b, mode) in config.bundles.iter().enumerate() {
                    bundles.push(match mode {
                        BundleMode::Bundler(cfg) if owned[b] => Some(Bundle::new(b, *cfg, now)?),
                        _ => None,
                    });
                }
                None
            }
        };
        Ok(Edge { bundles, agent })
    }

    /// Bundle `b`'s edge state, if this partition deploys a sendbox for it.
    pub(crate) fn bundle(&self, b: usize) -> Option<&Bundle> {
        self.bundles.get(b)?.as_ref()
    }

    /// Mutable access to bundle `b`'s edge state.
    pub(crate) fn bundle_mut(&mut self, b: usize) -> Option<&mut Bundle> {
        self.bundles.get_mut(b)?.as_mut()
    }

    /// The bundle whose sendbox a forward-direction packet enters, if any.
    /// An agent edge picks it by longest-prefix match on the destination
    /// address — exactly what a real site edge does — and never asks for
    /// the flow's `origin`; a classic edge takes the origin's bundle when
    /// it deploys a sendbox here.
    pub(crate) fn classify(
        &mut self,
        pkt: &Packet,
        origin: impl FnOnce() -> Origin,
    ) -> Option<usize> {
        match &mut self.agent {
            Some(agent) => {
                let b = agent.classify_packet(pkt);
                debug_assert!(
                    b.is_none_or(|b| self.bundles[b].is_some()),
                    "flow classified across the partition: bundle {b:?} not owned"
                );
                b
            }
            None => match origin() {
                Origin::Bundle(b) if self.bundle(b).is_some() => Some(b),
                _ => None,
            },
        }
    }

    /// The destination-site receivebox observes a packet of a flow from
    /// bundle `origin`. An agent edge picks the receivebox by the
    /// destination address, exactly as the send side classified: a packet
    /// that missed the prefix table there (and travelled outside the
    /// bundle) must not produce congestion ACKs for a sendbox that never
    /// saw it.
    pub(crate) fn receivebox_on_packet(
        &mut self,
        origin: usize,
        pkt: &Packet,
        now: Nanos,
    ) -> Option<CongestionAck> {
        let b = match &self.agent {
            Some(agent) => agent.classify(&pkt.key)?,
            None => origin,
        };
        self.bundle_mut(b)?.receivebox.on_packet(pkt, now)
    }

    /// Read access to bundle `b`'s control plane, whoever holds it.
    pub(crate) fn control(&self, b: usize) -> Option<&Sendbox> {
        match &self.agent {
            Some(agent) => agent.sendbox(b),
            None => self.bundle(b)?.control.as_ref(),
        }
    }

    /// Attempts to release bundle `b`'s next packet under its pacing rate,
    /// notifying the control plane on success.
    pub(crate) fn try_release(&mut self, b: usize, arena: &mut PacketArena, now: Nanos) -> Release {
        let bundle = self.bundles[b]
            .as_mut()
            .expect("releasing a deployed bundle");
        let release = bundle.try_release(arena, now);
        if let (Release::Packet(pkt), Some(agent)) = (release, self.agent.as_mut()) {
            agent.on_packet_forwarded(b, &arena[pkt], now);
        }
        release
    }

    /// Runs bundle `b`'s control tick: the control plane runs on the
    /// datapath's queue occupancy, its new pacing rate is applied to the
    /// token bucket, the mode timeline is updated, and any epoch-size
    /// update to deliver is returned. One `ControlTick` event per bundle
    /// drives this in canonical per-LP order, so an agent's tick queue is
    /// never consulted.
    pub(crate) fn tick(&mut self, b: usize, now: Nanos) -> Option<EpochSizeUpdate> {
        let bundle = self.bundles[b].as_mut().expect("ticking a deployed bundle");
        let queue_bytes = bundle.tbf.len_bytes();
        let out = match &mut bundle.control {
            Some(own) => own.on_tick(queue_bytes, now),
            None => self
                .agent
                .as_mut()
                .and_then(|agent| agent.tick_bundle(b, queue_bytes, now))
                .expect("the agent manages every bundle that holds no control plane"),
        };
        bundle.apply_tick(out, now)
    }

    /// Delivers a congestion ACK to the control plane of the bundle it
    /// names.
    pub(crate) fn on_congestion_ack(&mut self, ack: &CongestionAck, now: Nanos) {
        match &mut self.agent {
            Some(agent) => agent.on_congestion_ack(ack, now),
            None => {
                let own = self.bundle_mut(ack.bundle.0 as usize);
                if let Some(control) = own.and_then(|b| b.control.as_mut()) {
                    control.on_congestion_ack(ack, now);
                }
            }
        }
    }

    /// Enables or disables observability export on every deployed bundle's
    /// datapath, at construction. A bundle loaded later is armed on its
    /// own (`WorkerCore::load_bundle`): re-arming this way would clear the
    /// others' exports.
    pub(crate) fn set_obs(&mut self, on: bool) {
        for b in self.bundles.iter_mut().flatten() {
            b.set_obs(on);
        }
    }

    /// The site agent, at an agent edge.
    pub(crate) fn agent(&self) -> Option<&SiteAgent> {
        self.agent.as_ref()
    }

    /// Overwrites the agent's lifetime counters (snapshot restore rebuilds
    /// the agent by re-adding bundles, then reinstates them).
    pub(crate) fn restore_agent_stats(&mut self, stats: AgentStats) {
        if let Some(agent) = &mut self.agent {
            agent.restore_stats(stats);
        }
    }

    /// Removes bundle `b` from this edge — at an agent edge its control
    /// plane and prefixes too — and returns its [`Bundle`], if a sendbox
    /// was deployed for it. The packets it queues are still in the arena.
    pub(crate) fn remove(&mut self, b: usize) -> Option<Bundle> {
        if let Some(agent) = &mut self.agent {
            agent.remove_bundle(b);
        }
        self.bundles[b].take()
    }

    /// Appends bundle `b`'s edge state to a snapshot stream: a tag — `0` no
    /// sendbox, `1` a [`Bundle`] holding its control plane, `2` an
    /// agent-held one — then the state, then the packets the datapath
    /// queues, by value. The tags and each tag's field order are the
    /// `BNDLSNAP` v3 format; tag 2 interleaves the agent's part (id,
    /// prefixes, control plane), the index and the [`Bundle`] the way the
    /// format always has.
    pub(crate) fn save_bundle(&mut self, b: usize, arena: &PacketArena, out: &mut Vec<u8>) {
        if let Some(bundle) = &self.bundles[b] {
            match &self.agent {
                None => 1u8.encode(out),
                Some(agent) => {
                    let held = "the agent manages every deployed bundle";
                    2u8.encode(out);
                    BundleId(b as u32).encode(out);
                    agent.prefixes(b).expect(held).encode(out);
                    agent.sendbox(b).expect(held).save_state(out);
                    bundle.index.encode(out);
                }
            }
            bundle.save_state(out);
        } else {
            0u8.encode(out);
        }
        // Without a sendbox the walk visits nothing: an empty queue.
        save_queued(arena, out, |f| {
            if let Some(bundle) = &mut self.bundles[b] {
                bundle.tbf.for_each_pkt_mut(f);
            }
        });
    }

    /// Reverses [`Edge::save_bundle`] into this edge, which must not hold
    /// bundle `b`: the state is rebuilt from the *restoring* config (the
    /// snapshot fingerprint guarantees it matches the writing one) and the
    /// queued packets land in `arena`. `now` only anchors the agent's tick
    /// queue. Rejects a tag the config does not deploy, an agent part that
    /// is not bundle `b`'s or whose id or prefix the agent already manages,
    /// and packets that do not pair up with the queue.
    pub(crate) fn load_bundle(
        &mut self,
        config: &SimulationConfig,
        b: usize,
        arena: &mut PacketArena,
        r: &mut Reader<'_>,
        now: Nanos,
    ) -> Result<(), DecodeError> {
        let mut bundle = match u8::decode(r)? {
            0 => None,
            1 => match config.bundles.get(b) {
                Some(BundleMode::Bundler(cfg)) if self.agent.is_none() => {
                    let bundle = Bundle::new(b, *cfg, Nanos::ZERO);
                    Some(bundle.map_err(|_| r.error("invalid bundler config"))?)
                }
                _ => return Err(r.error("snapshot deploys a sendbox the config does not")),
            },
            2 => {
                let spec = config.multi_bundle.as_ref().and_then(|m| m.specs.get(b));
                let (Some(agent), Some(spec)) = (&mut self.agent, spec) else {
                    return Err(r.error("snapshot has an agent bundle the config lacks"));
                };
                let id = BundleId::decode(r)?;
                let prefixes = Vec::<IpPrefix>::decode(r)?;
                let mismatch = "agent bundle is not the one its section names";
                if id != BundleId(b as u32) {
                    return Err(r.error(mismatch));
                }
                agent
                    .add_bundle_with_id(&prefixes, spec.config, id, now)
                    .map_err(|_| r.error("agent bundle does not install in the agent"))?;
                let control = agent.sendbox_mut(b).expect("added above");
                control.load_state(r)?;
                if usize::decode(r)? != b {
                    return Err(r.error(mismatch));
                }
                Some(Bundle::without_control(b, &spec.config, Nanos::ZERO))
            }
            _ => return Err(r.error("unknown edge tag")),
        };
        if let Some(bundle) = &mut bundle {
            bundle.load_state(r)?;
        }
        load_queued(arena, r, |f| {
            if let Some(bundle) = &mut bundle {
                bundle.tbf.for_each_pkt_mut(f);
            }
        })?;
        self.bundles[b] = bundle;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::MultiBundleMode;
    use bundler_agent::AgentConfig;
    use bundler_types::{flow::ipv4, Duration, FlowId, FlowKey};

    fn pkt(i: u16) -> Packet {
        Packet::data(
            FlowId(1),
            FlowKey::tcp(ipv4(10, 0, 0, 2), 5555, ipv4(10, 0, 7, 7), 443),
            0,
            1460,
            Nanos::ZERO,
        )
        .with_ip_id(i)
    }

    #[test]
    fn bundle_construction_validates_config() {
        let bad = BundlerConfig {
            initial_epoch_size: 5,
            ..Default::default()
        };
        assert!(Bundle::new(0, bad, Nanos::ZERO).is_err());
        assert!(Bundle::new(0, BundlerConfig::default(), Nanos::ZERO).is_ok());
    }

    #[test]
    fn release_notifies_control_plane_of_boundaries() {
        let config = BundlerConfig {
            initial_epoch_size: 1,
            ..Default::default()
        };
        let mut a = PacketArena::new();
        let mut b = Bundle::new(0, config, Nanos::ZERO).unwrap();
        for i in 0..10 {
            let id = a.insert(pkt(i));
            assert!(b.enqueue(id, &mut a, Nanos::ZERO));
        }
        let mut released = 0;
        let mut now = Nanos::ZERO;
        for _ in 0..100 {
            match b.try_release(&mut a, now) {
                Release::Packet(id) => {
                    a.free(id);
                    released += 1;
                }
                Release::Wait(d) => now += d,
                Release::Empty => break,
            }
        }
        assert_eq!(released, 10);
        assert!(a.is_empty(), "released packets freed");
        // With epoch size 1, every forwarded packet is a boundary.
        assert_eq!(b.control.unwrap().stats().boundaries, 10);
    }

    #[test]
    fn tick_applies_rate_to_token_bucket() {
        let config = SimulationConfig {
            bundles: vec![BundleMode::Bundler(BundlerConfig::default())],
            ..Default::default()
        };
        let mut edge = Edge::new(&config, &[true]).unwrap();
        let r0 = edge.bundle(0).unwrap().rate();
        // Without feedback the rate stays at the initial value.
        edge.tick(0, Nanos::from_millis(10));
        assert_eq!(edge.bundle(0).unwrap().rate(), r0);
        assert_eq!(edge.bundle(0).unwrap().mode(), Mode::DelayControl);
    }

    #[test]
    fn queue_delay_sampling() {
        let mut a = PacketArena::new();
        let mut b = Bundle::new(0, BundlerConfig::default(), Nanos::ZERO).unwrap();
        for i in 0..100 {
            let id = a.insert(pkt(i));
            b.enqueue(id, &mut a, Nanos::ZERO);
        }
        b.sample_queue_delay(Nanos::from_millis(1));
        assert_eq!(b.queue_delay_ms.len(), 1);
        assert!(b.queue_delay_ms.samples[0].1 > 0.0);
        assert!(b.queue_bytes() > 0);
    }

    fn multi_specs(n: u8) -> Vec<MultiBundleSpec> {
        (0..n)
            .map(|site| MultiBundleSpec {
                prefixes: vec![IpPrefix::new(ipv4(10, 1, site, 0), 24).unwrap()],
                config: BundlerConfig::default(),
            })
            .collect()
    }

    /// The whole agent edge over `specs` (every bundle owned).
    fn agent_edge(specs: Vec<MultiBundleSpec>) -> Result<Edge, String> {
        let owned = vec![true; specs.len()];
        let config = SimulationConfig {
            multi_bundle: Some(MultiBundleMode {
                agent: AgentConfig::default(),
                specs,
            }),
            ..Default::default()
        };
        Edge::new(&config, &owned)
    }

    fn pkt_to_site(site: u8, i: u16) -> Packet {
        Packet::data(
            FlowId(site as u64),
            FlowKey::tcp(ipv4(10, 0, 0, 2), 5555, ipv4(10, 1, site, 7), 443),
            0,
            1460,
            Nanos::ZERO,
        )
        .with_ip_id(i)
    }

    #[test]
    fn multi_bundle_classifies_and_releases_per_bundle() {
        let mut arena = PacketArena::new();
        let mut edge = agent_edge(multi_specs(3)).expect("valid specs");
        for site in 0..3u8 {
            for i in 0..5 {
                let p = pkt_to_site(site, i);
                let b = edge
                    .classify(&p, || unreachable!("an agent edge classifies by prefix"))
                    .expect("prefix installed");
                assert_eq!(b, site as usize);
                let id = arena.insert(p);
                let bundle = edge.bundle_mut(b).unwrap();
                assert!(bundle.enqueue(id, &mut arena, Nanos::ZERO));
            }
        }
        // Releasing drains each bundle's own queue and notifies its control
        // plane.
        let mut now = Nanos::ZERO;
        let mut released = 0;
        for _ in 0..1000 {
            let mut progress = false;
            for b in 0..3 {
                match edge.try_release(b, &mut arena, now) {
                    Release::Packet(id) => {
                        arena.free(id);
                        released += 1;
                        progress = true;
                    }
                    Release::Wait(d) => now += d,
                    Release::Empty => {}
                }
            }
            if !progress && (0..3).all(|b| edge.bundle(b).unwrap().tbf.is_empty()) {
                break;
            }
        }
        assert_eq!(released, 15);
        let total: u64 = (0..3)
            .map(|b| edge.control(b).unwrap().stats().packets_sent)
            .sum();
        assert_eq!(total, 15);
    }

    #[test]
    fn multi_bundle_tick_applies_rates_and_tracks_modes() {
        let mut edge = agent_edge(multi_specs(2)).expect("valid specs");
        for b in 0..2 {
            assert_eq!(edge.tick(b, Nanos::from_millis(10)), None);
            let bundle = edge.bundle_mut(b).unwrap();
            assert_eq!(bundle.rate(), BundlerConfig::default().initial_rate);
            assert_eq!(
                bundle.mode_timeline.len(),
                1,
                "no mode change without feedback"
            );
            bundle.sample_queue_delay(Nanos::from_millis(11));
            assert_eq!(bundle.queue_delay_ms.len(), 1);
        }
        assert_eq!(edge.agent().unwrap().stats().ticks_run, 2);
    }

    #[test]
    fn multi_bundle_feedback_round_trip() {
        let mut arena = PacketArena::new();
        let mut edge = agent_edge(multi_specs(2)).expect("valid specs");
        // Push traffic through bundle 1 and let its receivebox answer.
        let mut now = Nanos::ZERO;
        for i in 0..400u16 {
            let p = pkt_to_site(1, i);
            let id = arena.insert(p);
            assert!(edge.bundle_mut(1).unwrap().enqueue(id, &mut arena, now));
            loop {
                match edge.try_release(1, &mut arena, now) {
                    Release::Packet(pkt) => {
                        let delivered = arena.remove(pkt);
                        if let Some(ack) = edge.receivebox_on_packet(
                            1,
                            &delivered,
                            now + Duration::from_millis(25),
                        ) {
                            edge.on_congestion_ack(&ack, now + Duration::from_millis(50));
                        }
                        break;
                    }
                    Release::Wait(d) => now += d,
                    Release::Empty => break,
                }
            }
        }
        let sb = edge.control(1).unwrap();
        assert!(sb.stats().acks_received > 0, "feedback must have flowed");
        assert_eq!(sb.min_rtt(), Some(Duration::from_millis(50)));
        assert_eq!(edge.control(0).unwrap().stats().acks_received, 0);
        assert!(edge.bundle(1).unwrap().receivebox.stats().acks_sent > 0);
    }

    #[test]
    fn multi_bundle_rejects_invalid_specs() {
        let mut specs = multi_specs(2);
        specs[1].config.initial_epoch_size = 3;
        assert!(agent_edge(specs).is_err());
        let mut dup = multi_specs(1);
        dup.push(dup[0].clone());
        assert!(agent_edge(dup).is_err());
    }
}
