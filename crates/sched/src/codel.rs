//! CoDel (Controlled Delay) active queue management, after Nichols &
//! Jacobson, "Controlling Queue Delay" (ACM Queue 2012).
//!
//! CoDel watches the *sojourn time* of packets through a queue. If the
//! minimum sojourn time over an interval exceeds `target`, the queue has a
//! standing backlog and CoDel begins dropping at increasing frequency
//! (the control-law interval shrinks with the square root of the drop count)
//! until the sojourn time falls back below target.
//!
//! This module provides both a standalone CoDel-managed FIFO ([`Codel`]) and
//! the reusable drop-decision state machine ([`CodelState`]) that FQ-CoDel
//! embeds per flow queue.

use std::collections::VecDeque;

use bundler_types::{Duration, Nanos, PacketArena, PacketId};

use crate::{Enqueued, PktRef, SchedStats, Scheduler};

/// CoDel parameters.
#[derive(Debug, Clone, Copy)]
pub struct CodelConfig {
    /// Acceptable standing queue delay. The RFC 8289 default is 5 ms.
    pub target: Duration,
    /// Sliding-window interval over which the minimum delay must exceed
    /// `target` before dropping starts. Default 100 ms.
    pub interval: Duration,
    /// Packet capacity of the underlying FIFO.
    pub capacity_pkts: usize,
}

impl Default for CodelConfig {
    fn default() -> Self {
        CodelConfig {
            target: Duration::from_millis(5),
            interval: Duration::from_millis(100),
            capacity_pkts: 1024,
        }
    }
}

/// The CoDel drop-decision state machine, independent of any particular
/// queue implementation.
#[derive(Debug, Clone)]
pub struct CodelState {
    target: Duration,
    interval: Duration,
    /// Time at which the current "sojourn above target" episode will trigger
    /// the first drop (None when below target).
    first_above_time: Option<Nanos>,
    /// True when in the dropping state.
    dropping: bool,
    /// Next scheduled drop time while in the dropping state.
    drop_next: Nanos,
    /// Number of drops in the current dropping episode.
    count: u32,
    /// `count` value when the previous dropping episode ended (used for the
    /// "count restart" heuristic from the reference implementation).
    last_count: u32,
    /// Total drops performed by this state machine.
    pub total_drops: u64,
    /// Transitions into the dropping state over the machine's lifetime.
    pub drop_entries: u64,
    /// Transitions out of the dropping state over the machine's lifetime.
    pub drop_exits: u64,
}

/// What the caller should do with the packet it just dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodelVerdict {
    /// Deliver the packet.
    Deliver,
    /// Drop the packet and dequeue another one.
    Drop,
}

impl CodelState {
    /// Creates the drop state machine with the given target and interval.
    pub fn new(target: Duration, interval: Duration) -> Self {
        CodelState {
            target,
            interval,
            first_above_time: None,
            dropping: false,
            drop_next: Nanos::ZERO,
            count: 0,
            last_count: 0,
            total_drops: 0,
            drop_entries: 0,
            drop_exits: 0,
        }
    }

    /// True if the state machine is currently in its dropping state.
    pub fn is_dropping(&self) -> bool {
        self.dropping
    }

    fn control_law(&self, t: Nanos) -> Nanos {
        // interval / sqrt(count)
        let denom = (self.count.max(1) as f64).sqrt();
        t + Duration::from_secs_f64(self.interval.as_secs_f64() / denom)
    }

    /// Decides whether the packet dequeued at `now` with queue sojourn time
    /// `sojourn` should be delivered or dropped. `queue_bytes` is the
    /// occupancy remaining after the dequeue; CoDel never drops when the
    /// queue holds less than one MTU.
    pub fn on_dequeue(&mut self, sojourn: Duration, queue_bytes: u64, now: Nanos) -> CodelVerdict {
        let below = sojourn < self.target || queue_bytes <= 1514;
        let ok_to_drop = if below {
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + self.interval);
                    false
                }
                Some(fat) => now >= fat,
            }
        };

        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
                self.drop_exits += 1;
                return CodelVerdict::Deliver;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.total_drops += 1;
                self.drop_next = self.control_law(self.drop_next);
                return CodelVerdict::Drop;
            }
            CodelVerdict::Deliver
        } else if ok_to_drop {
            // Enter the dropping state.
            self.dropping = true;
            self.drop_entries += 1;
            // If we were dropping recently, resume from a related count so
            // the drop rate ramps quickly for persistent overload.
            let delta = self.count.saturating_sub(self.last_count);
            self.count = if delta > 1 && now.saturating_since(self.drop_next) < self.interval {
                delta
            } else {
                1
            };
            self.last_count = self.count;
            self.total_drops += 1;
            self.drop_next = self.control_law(now);
            CodelVerdict::Drop
        } else {
            CodelVerdict::Deliver
        }
    }
}

// `target` and `interval` are configuration, re-established at construction.
serde::layout!(state CodelState {
    first_above_time, dropping, drop_next, count, last_count, total_drops, drop_entries,
    drop_exits,
});

/// A CoDel-managed drop-tail FIFO.
#[derive(Debug)]
pub struct Codel {
    config: CodelConfig,
    queue: VecDeque<PktRef>,
    bytes: u64,
    state: CodelState,
    stats: SchedStats,
    /// Sojourn recording, boxed so the disabled (default) case costs one
    /// pointer; the drop-state counters live in `state` unconditionally.
    obs: Option<Box<bundler_obs::SchedObs>>,
}

impl Codel {
    /// Creates a CoDel queue with the given configuration.
    pub fn new(config: CodelConfig) -> Self {
        Codel {
            config,
            queue: VecDeque::new(),
            bytes: 0,
            state: CodelState::new(config.target, config.interval),
            stats: SchedStats::default(),
            obs: None,
        }
    }

    /// Creates a CoDel queue with default (5 ms / 100 ms) parameters.
    pub fn with_defaults() -> Self {
        Self::new(CodelConfig::default())
    }

    /// Number of packets dropped by the AQM (not by tail overflow).
    pub fn aqm_drops(&self) -> u64 {
        self.state.total_drops
    }
}

impl Scheduler for Codel {
    fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        let size = arena[pkt].size;
        if self.queue.len() >= self.config.capacity_pkts {
            self.stats.dropped += 1;
            self.stats.dropped_bytes += size as u64;
            return Enqueued::Dropped(pkt);
        }
        arena[pkt].enqueued_at = now;
        self.bytes += size as u64;
        self.stats.enqueued += 1;
        self.queue.push_back(PktRef { id: pkt, size });
        Enqueued::Queued
    }

    fn dequeue(&mut self, arena: &mut PacketArena, now: Nanos) -> Option<PacketId> {
        loop {
            let p = self.queue.pop_front()?;
            self.bytes -= p.size as u64;
            let sojourn = now.saturating_since(arena[p.id].enqueued_at);
            match self.state.on_dequeue(sojourn, self.bytes, now) {
                CodelVerdict::Deliver => {
                    if let Some(obs) = self.obs.as_deref_mut() {
                        obs.sojourn.record(sojourn.as_nanos());
                    }
                    self.stats.dequeued += 1;
                    return Some(p.id);
                }
                CodelVerdict::Drop => {
                    self.stats.dropped += 1;
                    self.stats.dropped_bytes += p.size as u64;
                    // An AQM drop consumes the packet here and now.
                    arena.free(p.id);
                    // Loop to dequeue the next packet.
                }
            }
        }
    }

    fn len_packets(&self) -> usize {
        self.queue.len()
    }

    fn len_bytes(&self) -> u64 {
        self.bytes
    }

    fn stats(&self) -> SchedStats {
        self.stats
    }

    fn for_each_pkt_mut(&mut self, f: &mut dyn FnMut(&mut PacketId)) {
        for p in self.queue.iter_mut() {
            f(&mut p.id);
        }
    }

    fn name(&self) -> &'static str {
        "codel"
    }

    fn set_obs(&mut self, on: bool) {
        self.obs = on.then(Default::default);
    }

    fn take_obs(&mut self) -> Option<bundler_obs::SchedObs> {
        self.obs.take().map(|mut obs| {
            obs.aqm_drops = self.state.total_drops;
            obs.drop_entries = self.state.drop_entries;
            obs.drop_exits = self.state.drop_exits;
            *obs
        })
    }
}

serde::layout!(state Codel { queue, bytes, state, stats });

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};
    use serde::binary::State;

    fn pkt(size: u32) -> Packet {
        Packet::data(
            FlowId(0),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000, ipv4(10, 0, 1, 1), 80),
            0,
            size,
            Nanos::ZERO,
        )
    }

    fn enq(q: &mut Codel, a: &mut PacketArena, p: Packet, now: Nanos) -> Enqueued {
        let id = a.insert(p);
        q.enqueue(id, a, now)
    }

    #[test]
    fn no_drops_below_target_delay() {
        let mut a = PacketArena::new();
        let mut q = Codel::with_defaults();
        let mut now = Nanos::ZERO;
        // Packets spend ~1 ms in the queue, below the 5 ms target.
        for _ in 0..1000 {
            enq(&mut q, &mut a, pkt(1460), now);
            now += Duration::from_millis(1);
            let id = q.dequeue(&mut a, now).expect("delivered");
            a.free(id);
        }
        assert_eq!(q.aqm_drops(), 0);
        assert!(a.is_empty(), "AQM and caller frees must balance");
    }

    #[test]
    fn drops_start_after_interval_of_high_delay() {
        let mut a = PacketArena::new();
        let mut q = Codel::with_defaults();
        // Build a standing queue: enqueue 200 packets at t=0, then drain one
        // per ms. Sojourn times grow far past the target.
        for _ in 0..200 {
            enq(&mut q, &mut a, pkt(1460), Nanos::ZERO);
        }
        let mut delivered = 0;
        let mut now = Nanos::ZERO;
        for _ in 0..200 {
            now += Duration::from_millis(1);
            if let Some(id) = q.dequeue(&mut a, now) {
                a.free(id);
                delivered += 1;
            }
            if q.is_empty() {
                break;
            }
        }
        assert!(
            q.aqm_drops() > 0,
            "CoDel should have dropped under sustained delay"
        );
        assert!(delivered > 0);
        assert!(a.is_empty(), "AQM drops must free their packets");
    }

    #[test]
    fn drop_rate_increases_with_persistent_overload() {
        let mut state = CodelState::new(Duration::from_millis(5), Duration::from_millis(100));
        let mut drops_first_half = 0;
        let mut drops_second_half = 0;
        let mut now = Nanos::ZERO;
        for i in 0..2000 {
            now += Duration::from_millis(1);
            // Persistent 50 ms sojourn, plenty of backlog.
            let v = state.on_dequeue(Duration::from_millis(50), 1_000_000, now);
            if v == CodelVerdict::Drop {
                if i < 1000 {
                    drops_first_half += 1;
                } else {
                    drops_second_half += 1;
                }
            }
        }
        assert!(
            drops_second_half > drops_first_half,
            "drop rate should escalate: {drops_first_half} vs {drops_second_half}"
        );
    }

    #[test]
    fn leaves_dropping_state_when_delay_subsides() {
        let mut state = CodelState::new(Duration::from_millis(5), Duration::from_millis(100));
        let mut now = Nanos::ZERO;
        // Force it into dropping.
        for _ in 0..500 {
            now += Duration::from_millis(1);
            state.on_dequeue(Duration::from_millis(50), 1_000_000, now);
        }
        assert!(state.is_dropping());
        now += Duration::from_millis(1);
        let v = state.on_dequeue(Duration::from_millis(1), 1_000_000, now);
        assert_eq!(v, CodelVerdict::Deliver);
        assert!(!state.is_dropping());
    }

    #[test]
    fn never_drops_last_mtu() {
        let mut state = CodelState::new(Duration::from_millis(5), Duration::from_millis(100));
        let mut now = Nanos::ZERO;
        for _ in 0..500 {
            now += Duration::from_millis(1);
            // Huge sojourn but almost-empty queue: must always deliver.
            let v = state.on_dequeue(Duration::from_millis(500), 1000, now);
            assert_eq!(v, CodelVerdict::Deliver);
        }
    }

    #[test]
    fn obs_export_carries_sojourns_and_drop_transitions() {
        let mut a = PacketArena::new();
        let mut q = Codel::with_defaults();
        assert!(q.take_obs().is_none(), "disabled by default");
        q.set_obs(true);
        // Standing queue: force CoDel into (and out of) its dropping state.
        for _ in 0..200 {
            enq(&mut q, &mut a, pkt(1460), Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        while !q.is_empty() {
            now += Duration::from_millis(1);
            if let Some(id) = q.dequeue(&mut a, now) {
                a.free(id);
            }
        }
        let obs = q.take_obs().expect("enabled");
        assert!(obs.sojourn.count() > 0, "delivered sojourns recorded");
        assert_eq!(obs.aqm_drops, q.aqm_drops());
        assert!(obs.drop_entries > 0, "entered dropping state");
        assert!(
            obs.drop_exits <= obs.drop_entries,
            "cannot exit more episodes than were entered"
        );
        assert!(q.take_obs().is_none(), "take drains the export");
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        let mut a = PacketArena::new();
        let mut q = Codel::with_defaults();
        // Build a standing queue and drain until CoDel is mid-episode, so
        // the snapshot carries non-trivial drop-machine state.
        for _ in 0..200 {
            enq(&mut q, &mut a, pkt(1460), Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        for _ in 0..120 {
            now += Duration::from_millis(1);
            if let Some(id) = q.dequeue(&mut a, now) {
                a.free(id);
            }
        }
        assert!(q.aqm_drops() > 0, "want drop state in the snapshot");

        let mut bytes = Vec::new();
        q.save_state(&mut bytes);
        // Packets by value in traversal order, as the path layer does.
        let mut pkts = Vec::new();
        q.for_each_pkt_mut(&mut |id| pkts.push(a[*id].clone()));

        let mut a2 = PacketArena::new();
        let mut q2 = Codel::with_defaults();
        let mut r = serde::binary::Reader::new(&bytes);
        q2.load_state(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes after restore");
        let mut next = pkts.into_iter();
        q2.for_each_pkt_mut(&mut |id| *id = a2.insert(next.next().expect("packet for each ref")));
        assert!(next.next().is_none(), "restore consumed all packets");

        let mut resaved = Vec::new();
        q2.save_state(&mut resaved);
        assert_eq!(bytes, resaved, "restore must be lossless");
        assert_eq!(q.len_packets(), q2.len_packets());
        assert_eq!(q.len_bytes(), q2.len_bytes());
        // Both instances must drain identically from here on.
        loop {
            now += Duration::from_millis(1);
            let x = q.dequeue(&mut a, now).map(|id| {
                let s = a[id].size;
                a.free(id);
                s
            });
            let y = q2.dequeue(&mut a2, now).map(|id| {
                let s = a2[id].size;
                a2.free(id);
                s
            });
            assert_eq!(x, y, "divergent drain after restore");
            assert_eq!(q.aqm_drops(), q2.aqm_drops());
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn tail_drop_when_capacity_exceeded() {
        let mut a = PacketArena::new();
        let mut q = Codel::new(CodelConfig {
            capacity_pkts: 3,
            ..Default::default()
        });
        for _ in 0..3 {
            assert!(!enq(&mut q, &mut a, pkt(100), Nanos::ZERO).is_drop());
        }
        assert!(enq(&mut q, &mut a, pkt(100), Nanos::ZERO).is_drop());
    }
}
