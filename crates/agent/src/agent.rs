//! The site agent: N bundle control planes behind one classifier and one
//! tick queue.
//!
//! The paper's sendbox manages a single site pair; a deployed site edge
//! manages one bundle per remote site. The agent owns the *control planes*
//! only — datapaths (queues, pacing) stay with the caller, exactly as
//! [`Sendbox`] itself is split — and provides the three things a real edge
//! needs on top of the per-bundle logic:
//!
//! * **Classification**: a longest-prefix-match table from destination
//!   prefixes to bundles, consulted once per packet.
//! * **Tick batching**: a [`CalendarQueue`] fires each bundle's control
//!   tick at its own cadence; one [`SiteAgent::advance`] call ticks exactly
//!   the due bundles, not all N.
//! * **Telemetry**: uniform per-bundle snapshots for export.

use bundler_core::feedback::{BundleId, CongestionAck};
use bundler_core::{BundlerConfig, CalendarQueue, Sendbox, SendboxOutput, SendboxTelemetry};
use bundler_types::{Duration, FlowKey, IdHashMap, IpPrefix, Nanos, Packet};

use crate::classifier::PrefixClassifier;
use crate::telemetry::{AgentTelemetry, BundleTelemetry};

/// Agent-wide tunables.
#[derive(Debug, Clone, Copy)]
pub struct AgentConfig {
    /// Finest slot width of the tick queue, rounded down to a power of two
    /// of nanoseconds. It only sizes the queue's buckets: every control
    /// tick fires at its exact deadline. The default 1 ms is a tenth of the
    /// paper's 10 ms interval.
    pub tick_quantum: Duration,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            tick_quantum: Duration::from_millis(1),
        }
    }
}

/// Counters describing the agent's own work (not any one bundle's).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Packets successfully classified to a bundle.
    pub packets_classified: u64,
    /// Packets that matched no installed prefix.
    pub packets_unclassified: u64,
    /// Congestion ACKs delivered to a bundle.
    pub acks_delivered: u64,
    /// Congestion ACKs for unknown bundles.
    pub acks_unknown: u64,
    /// Control ticks executed across all bundles.
    pub ticks_run: u64,
    /// Calls to [`SiteAgent::advance`].
    pub advances: u64,
}

/// Field-wise sum: how a host that partitions one site's bundle table
/// across several agents reports the site's totals.
impl std::ops::AddAssign for AgentStats {
    fn add_assign(&mut self, other: AgentStats) {
        self.packets_classified += other.packets_classified;
        self.packets_unclassified += other.packets_unclassified;
        self.acks_delivered += other.acks_delivered;
        self.acks_unknown += other.acks_unknown;
        self.ticks_run += other.ticks_run;
        self.advances += other.advances;
    }
}

serde::layout!(value AgentStats {
    packets_classified, packets_unclassified, acks_delivered, acks_unknown, ticks_run, advances,
});

/// The result of one due control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BundleTick {
    /// Which bundle ticked.
    pub bundle: usize,
    /// The control plane's instructions for the datapath (new pacing rate,
    /// optional epoch update, current mode).
    pub output: SendboxOutput,
}

struct ManagedBundle {
    control: Sendbox,
    prefixes: Vec<IpPrefix>,
    /// The bundle's site-wide identity. Equal to the slot index when
    /// bundles are added with [`SiteAgent::add_bundle`]; a sharded runtime
    /// that partitions the bundle table across agents assigns the global
    /// index instead (via [`SiteAgent::add_bundle_with_id`]).
    id: BundleId,
    /// Incarnation counter: bumped every time this id is (re-)installed,
    /// so tick entries from a *previous* incarnation (left behind by
    /// [`SiteAgent::remove_bundle`]) are dead on arrival instead of
    /// doubling the tick train when the same id is added again.
    generation: u64,
}

/// A site-edge agent managing one [`Sendbox`] control plane per remote
/// site.
///
/// Bundles are addressed by their *global* id everywhere (classification
/// results, ACK routing, telemetry), so an agent can manage either the
/// whole site's bundle table or one shard's partition of it without the
/// caller caring which.
///
/// # Example
///
/// ```
/// use bundler_agent::SiteAgent;
/// use bundler_core::BundlerConfig;
/// use bundler_types::{flow::ipv4, Nanos};
///
/// let mut agent = SiteAgent::default();
/// let site0 = "10.1.0.0/24".parse().unwrap();
/// let site1 = "10.1.1.0/24".parse().unwrap();
/// agent.add_bundle(&[site0], BundlerConfig::default(), Nanos::ZERO).unwrap();
/// agent.add_bundle(&[site1], BundlerConfig::default(), Nanos::ZERO).unwrap();
/// // Packets pick their bundle by longest-prefix match on the destination.
/// assert_eq!(agent.classify_dst(ipv4(10, 1, 1, 9)), Some(1));
/// assert_eq!(agent.classify_dst(ipv4(8, 8, 8, 8)), None);
/// // Each bundle's control plane ticks on its own cadence off the tick queue.
/// let due = agent.advance(Nanos::from_millis(10), |_bundle| 0);
/// assert_eq!(due.len(), 2);
/// ```
pub struct SiteAgent {
    config: AgentConfig,
    classifier: PrefixClassifier<usize>,
    bundles: Vec<ManagedBundle>,
    /// Global bundle id → slot in `bundles`.
    slot_of: IdHashMap<u32, usize>,
    /// Pending control ticks as `(deadline, global bundle id, generation)`
    /// — never by slot (slots shift when a bundle is removed) and never by
    /// id alone (the same id can be removed and adopted again; a stale
    /// entry from the previous incarnation must not fire). An entry whose
    /// id is gone or whose generation is old is skipped on expiry, so
    /// removal doubles as tick cancellation. Each entry carries its own
    /// deadline because the queue clamps one scheduled behind its clock.
    ticks: CalendarQueue<(Nanos, usize, u64)>,
    /// Next incarnation number handed to an installed bundle.
    next_generation: u64,
    stats: AgentStats,
}

impl std::fmt::Debug for SiteAgent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SiteAgent")
            .field("bundles", &self.bundles.len())
            .field("prefixes", &self.classifier.len())
            .field("pending_ticks", &self.ticks.len())
            .finish()
    }
}

impl Default for SiteAgent {
    fn default() -> Self {
        Self::new(AgentConfig::default())
    }
}

impl SiteAgent {
    /// Creates an empty agent.
    pub fn new(config: AgentConfig) -> Self {
        SiteAgent {
            classifier: PrefixClassifier::new(),
            bundles: Vec::new(),
            slot_of: IdHashMap::default(),
            ticks: CalendarQueue::new(config.tick_quantum),
            next_generation: 0,
            stats: AgentStats::default(),
            config,
        }
    }

    /// The agent configuration.
    pub fn config(&self) -> &AgentConfig {
        &self.config
    }

    /// Number of managed bundles.
    pub fn len(&self) -> usize {
        self.bundles.len()
    }

    /// True if no bundles are managed.
    pub fn is_empty(&self) -> bool {
        self.bundles.is_empty()
    }

    /// The agent's own counters.
    pub fn stats(&self) -> AgentStats {
        self.stats
    }

    /// Overwrites the agent's counters. Used by snapshot restore, which
    /// rebuilds the agent by re-adding bundles and must then reinstate the
    /// lifetime counters recorded at checkpoint time.
    pub fn restore_stats(&mut self, stats: AgentStats) {
        self.stats = stats;
    }

    /// Adds a bundle for the remote site announcing `prefixes`, returning
    /// its handle. The bundle's first control tick is scheduled one
    /// `control_interval` after `now`.
    ///
    /// Fails if the Bundler configuration is invalid, if no prefix is
    /// given, or if any prefix is already routed to another bundle.
    pub fn add_bundle(
        &mut self,
        prefixes: &[IpPrefix],
        config: BundlerConfig,
        now: Nanos,
    ) -> Result<usize, String> {
        let id = BundleId(self.bundles.len() as u32);
        self.add_bundle_with_id(prefixes, config, id, now)
            .map(|id| id.0 as usize)
    }

    /// Adds a bundle under an explicit site-wide identity, for hosts that
    /// partition one site's bundle table across several agents (each agent
    /// manages a subset of slots but must still classify, route ACKs and
    /// export telemetry under the global index). Everything
    /// [`SiteAgent::add_bundle`] validates is validated here too; the id
    /// must be unused.
    pub fn add_bundle_with_id(
        &mut self,
        prefixes: &[IpPrefix],
        config: BundlerConfig,
        id: BundleId,
        now: Nanos,
    ) -> Result<BundleId, String> {
        if prefixes.is_empty() {
            return Err("a bundle needs at least one destination prefix".into());
        }
        if self.slot_of.contains_key(&id.0) {
            return Err(format!("bundle id {} is already managed", id.0));
        }
        for p in prefixes {
            // Exact match, not LPM: a duplicate must be caught even when a
            // more-specific prefix would shadow it in a lookup.
            if let Some(&owner) = self.classifier.get(*p) {
                return Err(format!("prefix {p} is already routed to bundle {owner}"));
            }
        }
        let slot = self.bundles.len();
        let control = Sendbox::new(id, config)?;
        for p in prefixes {
            self.classifier.insert(*p, id.0 as usize);
        }
        self.next_generation += 1;
        let generation = self.next_generation;
        self.bundles.push(ManagedBundle {
            control,
            prefixes: prefixes.to_vec(),
            id,
            generation,
        });
        self.slot_of.insert(id.0, slot);
        let deadline = now + config.control_interval;
        self.ticks
            .schedule(deadline, (deadline, id.0 as usize, generation));
        Ok(id)
    }

    /// Drops a bundle (by global id) from this agent: its prefixes leave
    /// the classifier and its pending control tick is cancelled. Returns
    /// `false` for an unmanaged id. A host that moves a bundle to another
    /// agent saves its [`SiteAgent::sendbox`] state first, then adds it
    /// there under the same id and loads that state into
    /// [`SiteAgent::sendbox_mut`].
    pub fn remove_bundle(&mut self, bundle: usize) -> bool {
        let Some(slot) = self.slot(bundle) else {
            return false;
        };
        let b = self.bundles.remove(slot);
        self.slot_of.remove(&b.id.0);
        for s in self.slot_of.values_mut() {
            if *s > slot {
                *s -= 1;
            }
        }
        for p in &b.prefixes {
            self.classifier.remove(*p);
        }
        true
    }

    /// The slot of a global bundle id, if this agent manages it.
    #[inline]
    fn slot(&self, bundle: usize) -> Option<usize> {
        self.slot_of.get(&(bundle as u32)).copied()
    }

    /// Longest-prefix-match classification of a destination address.
    pub fn classify_dst(&self, dst_ip: u32) -> Option<usize> {
        self.classifier.lookup(dst_ip).copied()
    }

    /// Classifies a flow to its bundle by destination address.
    pub fn classify(&self, key: &FlowKey) -> Option<usize> {
        self.classifier.classify(key).copied()
    }

    /// Classifies a packet and counts the outcome. Datapaths call this once
    /// per packet to pick the queue to enqueue into.
    pub fn classify_packet(&mut self, pkt: &Packet) -> Option<usize> {
        let bundle = self.classifier.classify(&pkt.key).copied();
        match bundle {
            Some(_) => self.stats.packets_classified += 1,
            None => self.stats.packets_unclassified += 1,
        }
        bundle
    }

    /// Notifies bundle `bundle`'s control plane that the datapath forwarded
    /// `pkt` at `now`. Returns `true` if the packet was an epoch boundary.
    pub fn on_packet_forwarded(&mut self, bundle: usize, pkt: &Packet, now: Nanos) -> bool {
        match self.slot(bundle).and_then(|s| self.bundles.get_mut(s)) {
            Some(b) => b.control.on_packet_forwarded(pkt, now),
            None => false,
        }
    }

    /// Delivers a congestion ACK, routed by the bundle id it carries.
    pub fn on_congestion_ack(&mut self, ack: &CongestionAck, now: Nanos) {
        let slot = self.slot_of.get(&ack.bundle.0).copied();
        match slot.and_then(|s| self.bundles.get_mut(s)) {
            Some(b) => {
                b.control.on_congestion_ack(ack, now);
                self.stats.acks_delivered += 1;
            }
            None => self.stats.acks_unknown += 1,
        }
    }

    /// Runs one bundle's control tick immediately (outside the tick queue),
    /// given its datapath queue occupancy. This is the entry point for
    /// hosts that drive ticks from their own event loop — the sharded
    /// simulator schedules one `ControlTick` event per bundle so tick
    /// order is canonical across shard counts. Returns `None` for an
    /// unmanaged id.
    pub fn tick_bundle(
        &mut self,
        bundle: usize,
        queue_bytes: u64,
        now: Nanos,
    ) -> Option<SendboxOutput> {
        let slot = self.slot(bundle)?;
        let output = self.bundles[slot].control.on_tick(queue_bytes, now);
        self.stats.ticks_run += 1;
        Some(output)
    }

    /// Runs the control tick of every bundle due by `now` — O(due bundles),
    /// not O(managed bundles) — in (deadline, schedule order). Each ticked
    /// bundle's next tick is scheduled one `control_interval` after its
    /// *deadline*, so tick trains stay on their own drift-free grids; a
    /// tick re-armed at or before `now` fires at the next call.
    ///
    /// `queue_bytes(bundle)` must report the current occupancy of that
    /// bundle's datapath queue (the pass-through PI controller needs it).
    /// Returns the due bundles' datapath instructions in deadline order.
    pub fn advance(
        &mut self,
        now: Nanos,
        mut queue_bytes: impl FnMut(usize) -> u64,
    ) -> Vec<BundleTick> {
        self.stats.advances += 1;
        let mut due = Vec::new();
        while self.ticks.peek_key().is_some_and(|(at, _)| at <= now) {
            due.push(self.ticks.pop().expect("peeked").1);
        }
        // The queue pops in (clamped deadline, schedule order). Entries of
        // one deadline are clamped in schedule order to a clock that never
        // goes back, so they pop in schedule order, and a stable sort on
        // the carried deadline yields (deadline, schedule order).
        due.sort_by_key(|&(deadline, _, _)| deadline);
        let mut out = Vec::with_capacity(due.len());
        for (deadline, bundle, generation) in due {
            // A stale entry — removed bundle, or an earlier incarnation of
            // a re-adopted id — is a cancelled tick.
            let Some(&slot) = self.slot_of.get(&(bundle as u32)) else {
                continue;
            };
            let b = &mut self.bundles[slot];
            if b.generation != generation {
                continue;
            }
            let output = b.control.on_tick(queue_bytes(bundle), now);
            let next = deadline + b.control.config().control_interval;
            self.ticks.schedule(next, (next, bundle, generation));
            self.stats.ticks_run += 1;
            out.push(BundleTick { bundle, output });
        }
        out
    }

    /// The earliest scheduled control-tick deadline, if any bundles exist.
    /// Event-driven hosts use this to decide when to call
    /// [`SiteAgent::advance`] next. Exact unless a tick is already
    /// overdue — scheduled behind the last tick that fired — in which case
    /// it reads that tick's time instead: no later than the last
    /// `advance`, so a host calls `advance` at once either way. Takes
    /// `&mut self` because the queue may refill its front to see it.
    pub fn next_tick_at(&mut self) -> Option<Nanos> {
        self.ticks.peek_key().map(|(at, _)| at)
    }

    /// Read access to a bundle's control plane (by global id).
    pub fn sendbox(&self, bundle: usize) -> Option<&Sendbox> {
        self.slot(bundle)
            .and_then(|s| self.bundles.get(s))
            .map(|b| &b.control)
    }

    /// Mutable access to a bundle's control plane (by global id): how a
    /// host restores a saved control-plane state into a bundle it has just
    /// added.
    pub fn sendbox_mut(&mut self, bundle: usize) -> Option<&mut Sendbox> {
        let slot = self.slot(bundle)?;
        self.bundles.get_mut(slot).map(|b| &mut b.control)
    }

    /// The prefixes routed to a bundle (by global id).
    pub fn prefixes(&self, bundle: usize) -> Option<&[IpPrefix]> {
        self.slot(bundle)
            .and_then(|s| self.bundles.get(s))
            .map(|b| b.prefixes.as_slice())
    }

    /// Telemetry snapshot of one bundle (by global id).
    pub fn telemetry(&self, bundle: usize) -> Option<SendboxTelemetry> {
        self.slot(bundle)
            .and_then(|s| self.bundles.get(s))
            .map(|b| b.control.telemetry())
    }

    /// Telemetry snapshot of every managed bundle, reported under global
    /// ids, ordered by slot (= addition order).
    pub fn snapshots(&self) -> AgentTelemetry {
        AgentTelemetry {
            bundles: self
                .bundles
                .iter()
                .map(|b| BundleTelemetry {
                    index: b.id.0 as usize,
                    prefixes: b.prefixes.clone(),
                    snapshot: b.control.telemetry(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_core::Mode;
    use bundler_types::{flow::ipv4, FlowId, Rate};

    fn prefix(site: u8) -> IpPrefix {
        IpPrefix::new(ipv4(10, 1, site, 0), 24).unwrap()
    }

    fn agent_with_sites(n: u8) -> SiteAgent {
        let mut agent = SiteAgent::default();
        for site in 0..n {
            let idx = agent
                .add_bundle(&[prefix(site)], BundlerConfig::default(), Nanos::ZERO)
                .unwrap();
            assert_eq!(idx, site as usize);
        }
        agent
    }

    fn pkt_to(site: u8, ip_id: u16) -> Packet {
        Packet::data(
            FlowId(site as u64),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 4000, ipv4(10, 1, site, 7), 443),
            0,
            1460,
            Nanos::ZERO,
        )
        .with_ip_id(ip_id)
    }

    #[test]
    fn classifies_to_the_right_bundle() {
        let mut agent = agent_with_sites(4);
        for site in 0..4u8 {
            let pkt = pkt_to(site, 0);
            assert_eq!(agent.classify_packet(&pkt), Some(site as usize));
        }
        let stray = pkt_to(99, 0);
        assert_eq!(agent.classify_packet(&stray), None);
        assert_eq!(agent.stats().packets_classified, 4);
        assert_eq!(agent.stats().packets_unclassified, 1);
    }

    #[test]
    fn rejects_duplicate_prefixes_and_empty_bundles() {
        let mut agent = agent_with_sites(1);
        let err = agent
            .add_bundle(&[prefix(0)], BundlerConfig::default(), Nanos::ZERO)
            .unwrap_err();
        assert!(err.contains("already routed"), "{err}");
        assert!(agent
            .add_bundle(&[], BundlerConfig::default(), Nanos::ZERO)
            .is_err());
        // A more specific prefix for the same space is a different route and
        // is allowed.
        let narrower = IpPrefix::new(ipv4(10, 1, 0, 0), 28).unwrap();
        let idx = agent
            .add_bundle(&[narrower], BundlerConfig::default(), Nanos::ZERO)
            .unwrap();
        assert_eq!(
            agent.classify_dst(ipv4(10, 1, 0, 5)),
            Some(idx),
            "longest prefix wins"
        );
        assert_eq!(agent.classify_dst(ipv4(10, 1, 0, 200)), Some(0));
        // The original /24 is still taken even though the narrower /28 now
        // shadows it in LPM lookups: duplicate detection must be exact-match.
        let err = agent
            .add_bundle(&[prefix(0)], BundlerConfig::default(), Nanos::ZERO)
            .unwrap_err();
        assert!(err.contains("already routed to bundle 0"), "{err}");
        assert_eq!(
            agent.classify_dst(ipv4(10, 1, 0, 200)),
            Some(0),
            "route must be unchanged"
        );
    }

    #[test]
    fn ticks_only_due_bundles_and_stays_periodic() {
        // Two bundles with different control intervals.
        let mut agent = SiteAgent::default();
        let fast = BundlerConfig {
            control_interval: Duration::from_millis(10),
            ..Default::default()
        };
        let slow = BundlerConfig {
            control_interval: Duration::from_millis(40),
            ..Default::default()
        };
        agent.add_bundle(&[prefix(0)], fast, Nanos::ZERO).unwrap();
        agent.add_bundle(&[prefix(1)], slow, Nanos::ZERO).unwrap();

        let mut fast_ticks = 0;
        let mut slow_ticks = 0;
        for ms in 1..=400u64 {
            for t in agent.advance(Nanos::from_millis(ms), |_| 0) {
                match t.bundle {
                    0 => fast_ticks += 1,
                    1 => slow_ticks += 1,
                    _ => unreachable!(),
                }
            }
        }
        assert_eq!(fast_ticks, 40);
        assert_eq!(slow_ticks, 10);
        assert_eq!(agent.stats().ticks_run, 50);
        assert_eq!(agent.sendbox(0).unwrap().stats().ticks, 40);
        assert_eq!(agent.sendbox(1).unwrap().stats().ticks, 10);
    }

    #[test]
    fn next_tick_at_tracks_the_earliest_deadline() {
        let mut agent = agent_with_sites(3);
        assert_eq!(agent.next_tick_at(), Some(Nanos::from_millis(10)));
        let due = agent.advance(Nanos::from_millis(10), |_| 0);
        assert_eq!(due.len(), 3, "all bundles share the 10 ms grid");
        assert_eq!(agent.next_tick_at(), Some(Nanos::from_millis(20)));
    }

    #[test]
    fn bundle_added_behind_the_clock_ticks_on_next_advance() {
        // Bundle 0 ticks the agent's clock up to 50 ms; bundle 1 is then
        // added as of 35 ms, so its first deadline (45 ms) is already past.
        let mut agent = agent_with_sites(1);
        for ms in 1..=50u64 {
            agent.advance(Nanos::from_millis(ms), |_| 0);
        }
        agent
            .add_bundle(
                &[prefix(1)],
                BundlerConfig::default(),
                Nanos::from_millis(35),
            )
            .unwrap();
        assert!(
            agent.next_tick_at() <= Some(Nanos::from_millis(50)),
            "due now"
        );
        let ticked = |agent: &mut SiteAgent, ms| -> Vec<usize> {
            let due = agent.advance(Nanos::from_millis(ms), |_| 0);
            due.iter().map(|t| t.bundle).collect()
        };
        assert_eq!(ticked(&mut agent, 51), vec![1]);
        // From there it stays on its own 10 ms grid: 55, 65, ... ms.
        assert_eq!(agent.next_tick_at(), Some(Nanos::from_millis(55)));
        assert_eq!(ticked(&mut agent, 55), vec![1]);
        assert_eq!(ticked(&mut agent, 60), vec![0]);
        assert_eq!(agent.next_tick_at(), Some(Nanos::from_millis(65)));
    }

    #[test]
    fn odd_advance_cadence_keeps_ticks_drift_free() {
        // Every tick is re-armed one interval after its *deadline*, not
        // after the advance that fired it.
        let mut agent = agent_with_sites(1);
        let mut now = Nanos::ZERO;
        let mut ticks = 0;
        for _ in 0..100 {
            now += Duration::from_micros(3_700);
            ticks += agent.advance(now, |_| 0).len();
        }
        assert_eq!(now, Nanos::from_millis(370));
        assert_eq!(ticks, 37, "one tick per 10 ms deadline up to 370 ms");
        assert_eq!(agent.next_tick_at(), Some(Nanos::from_millis(380)));
    }

    #[test]
    fn remove_and_readopt_keeps_a_single_tick_train() {
        // A bundle removed and added back into the *same* agent under its
        // id (the shortest round trip a migrating bundle can make) must not
        // end up with two tick trains: the pre-removal entry is a
        // stale incarnation and must die silently when it fires.
        let mut agent = agent_with_sites(2);
        assert!(agent.remove_bundle(0), "managed");
        assert!(!agent.remove_bundle(0), "already gone");
        assert!(agent.sendbox(0).is_none());
        assert_eq!(agent.classify_dst(ipv4(10, 1, 0, 7)), None, "route gone");
        let (config, now) = (BundlerConfig::default(), Nanos::from_millis(3));
        agent
            .add_bundle_with_id(&[prefix(0)], config, BundleId(0), now)
            .expect("clean re-add");
        assert!(agent.sendbox_mut(0).is_some());
        assert_eq!(agent.classify_dst(ipv4(10, 1, 0, 7)), Some(0));
        // Over 400 ms at the default 10 ms interval, bundle 0 must tick
        // exactly as often as the never-removed bundle 1 (its grid is
        // re-anchored when it is added back, so allow the one-tick phase
        // offset).
        let mut ticks = [0u32; 2];
        for ms in 1..=400u64 {
            for t in agent.advance(Nanos::from_millis(ms), |_| 0) {
                ticks[t.bundle] += 1;
            }
        }
        assert_eq!(ticks[1], 40);
        assert!(
            (39..=40).contains(&ticks[0]),
            "re-added bundle must keep ONE tick train, got {} ticks",
            ticks[0]
        );
    }

    #[test]
    fn acks_route_by_bundle_id() {
        let mut agent = agent_with_sites(2);
        // Drive bundle 1 with a forwarded boundary + matching ACK.
        let cfg = BundlerConfig::default();
        let mut found = None;
        for i in 0..200u16 {
            let pkt = pkt_to(1, i);
            if agent.on_packet_forwarded(1, &pkt, Nanos::from_millis(i as u64)) {
                found = Some((pkt, Nanos::from_millis(i as u64)));
                break;
            }
        }
        let (pkt, sent_at) = found.expect("some packet must be a boundary");
        let mut rb = bundler_core::Receivebox::new(BundleId(1), cfg.initial_epoch_size);
        let ack = rb.on_packet(&pkt, sent_at + Duration::from_millis(25));
        // The receivebox samples the same boundary the sendbox did.
        let ack = ack.expect("same packet must be a boundary at the receivebox");
        agent.on_congestion_ack(&ack, sent_at + Duration::from_millis(50));
        assert_eq!(agent.sendbox(1).unwrap().stats().acks_received, 1);
        assert_eq!(agent.sendbox(0).unwrap().stats().acks_received, 0);
        // Unknown bundle id is counted, not panicked on.
        let bogus = CongestionAck {
            bundle: BundleId(99),
            ..ack
        };
        agent.on_congestion_ack(&bogus, Nanos::from_secs(1));
        assert_eq!(agent.stats().acks_unknown, 1);
    }

    #[test]
    fn partitioned_agents_address_bundles_by_global_id() {
        // One site's table of 4 bundles, partitioned across two agents the
        // way a 2-shard runtime would: even ids on one, odd ids on the
        // other. Every global-id-addressed operation must behave as it
        // does on the unpartitioned agent.
        let mut shard0 = SiteAgent::default();
        let mut shard1 = SiteAgent::default();
        for site in 0..4u8 {
            let agent = if site % 2 == 0 {
                &mut shard0
            } else {
                &mut shard1
            };
            let id = agent
                .add_bundle_with_id(
                    &[prefix(site)],
                    BundlerConfig::default(),
                    BundleId(site as u32),
                    Nanos::ZERO,
                )
                .unwrap();
            assert_eq!(id, BundleId(site as u32));
        }
        // Classification returns global ids from the partitioned table.
        assert_eq!(shard1.classify_packet(&pkt_to(3, 0)), Some(3));
        assert_eq!(shard1.classify_packet(&pkt_to(0, 0)), None, "not managed");
        // Forwarding, ticking and telemetry address global ids.
        assert!(shard1.sendbox(3).is_some());
        assert!(shard1.sendbox(2).is_none());
        shard1.on_packet_forwarded(3, &pkt_to(3, 1), Nanos::from_millis(1));
        let out = shard1.tick_bundle(3, 0, Nanos::from_millis(10));
        assert!(out.is_some());
        assert_eq!(shard1.tick_bundle(0, 0, Nanos::from_millis(10)), None);
        assert_eq!(shard1.sendbox(3).unwrap().stats().ticks, 1);
        let snaps = shard1.snapshots();
        assert_eq!(
            snaps.bundles.iter().map(|b| b.index).collect::<Vec<_>>(),
            vec![1, 3],
            "telemetry reports global ids"
        );
        // ACKs route by the global id they carry; unmanaged ids count as
        // unknown on this shard.
        let ack = CongestionAck {
            bundle: BundleId(1),
            packet_hash: 1,
            bytes_received: 1000,
            packets_received: 1,
            observed_at: Nanos::from_millis(5),
        };
        shard1.on_congestion_ack(&ack, Nanos::from_millis(5));
        assert_eq!(shard1.stats().acks_delivered, 1);
        shard1.on_congestion_ack(
            &CongestionAck {
                bundle: BundleId(2),
                ..ack
            },
            Nanos::from_millis(6),
        );
        assert_eq!(shard1.stats().acks_unknown, 1);
        // Duplicate global ids are rejected.
        assert!(shard0
            .add_bundle_with_id(
                &[prefix(9)],
                BundlerConfig::default(),
                BundleId(0),
                Nanos::ZERO
            )
            .is_err());
    }

    #[test]
    fn telemetry_totals_match_per_sendbox_stats() {
        let mut agent = agent_with_sites(4);
        for i in 0..500u16 {
            let site = (i % 4) as u8;
            let pkt = pkt_to(site, i);
            if let Some(b) = agent.classify_packet(&pkt) {
                agent.on_packet_forwarded(b, &pkt, Nanos::from_millis(i as u64));
            }
        }
        for ms in [10u64, 20, 30] {
            agent.advance(Nanos::from_millis(ms), |_| 0);
        }
        let telemetry = agent.snapshots();
        assert_eq!(telemetry.bundles.len(), 4);
        let totals = telemetry.totals();
        let mut expect = bundler_core::sendbox::SendboxStats::default();
        for i in 0..4 {
            let s = agent.sendbox(i).unwrap().stats();
            expect.packets_sent += s.packets_sent;
            expect.bytes_sent += s.bytes_sent;
            expect.boundaries += s.boundaries;
            expect.acks_received += s.acks_received;
            expect.ticks += s.ticks;
            expect.epoch_changes += s.epoch_changes;
            expect.feedback_timeouts += s.feedback_timeouts;
        }
        assert_eq!(totals, expect);
        assert_eq!(totals.packets_sent, 500);
        assert_eq!(totals.ticks, 12);
        // Snapshot contents are live control-plane state.
        let snap = agent.telemetry(0).unwrap();
        assert_eq!(snap.mode, Mode::DelayControl);
        assert!(snap.rate > Rate::ZERO);
    }
}
