//! The in-network bottleneck: fixed-rate links with finite buffers,
//! propagation delay, and an ECMP-style load balancer across sub-paths.
//!
//! This plays the role mahimahi plays in the paper's testbed. Each
//! [`BottleneckPath`] serializes packets at a configured rate into a queue
//! whose discipline is pluggable (drop-tail FIFO for the status quo, the
//! ideal fair queue for the "In-Network" baseline), then delivers them after
//! a one-way propagation delay. The [`LoadBalancer`] hashes flows onto
//! sub-paths, which is how the multipath-imbalance experiments (§5.2, §7.6)
//! are constructed.

use bundler_sched::fifo::DropTailFifo;
use bundler_sched::{Enqueued, Scheduler};
use bundler_types::{Duration, Nanos, Packet, PacketArena, PacketId, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader, State};

use crate::stats::TimeSeries;

/// One bottleneck sub-path.
pub struct BottleneckPath {
    /// Link rate.
    rate: Rate,
    /// One-way propagation delay from the bottleneck's output to the
    /// destination site.
    one_way_delay: Duration,
    /// The queue in front of the link.
    queue: Box<dyn Scheduler>,
    /// Time the link finishes serializing the packet currently on the wire.
    busy_until: Nanos,
    /// Whether a `PathDequeue` event is already scheduled.
    pub dequeue_scheduled: bool,
    /// Packets dropped at this queue.
    pub drops: u64,
    /// Bytes delivered through this path.
    pub bytes_delivered: u64,
    /// Queue-delay samples (ms).
    pub queue_delay_ms: TimeSeries,
    /// Capacity (bit/s) currently drained by the fluid cross-traffic tier:
    /// packets serialize at `rate − drain`. Derived state owned by
    /// [`crate::fluid::FluidState`], re-applied after restore — it is *not*
    /// part of this path's own snapshot slice.
    fluid_drain_bps: u64,
    /// Fluid bytes sharing the buffer, counted into [`Self::queue_delay`].
    /// Derived state owned by [`crate::fluid::FluidState`], like the drain.
    fluid_backlog_bytes: u64,
}

impl std::fmt::Debug for BottleneckPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BottleneckPath")
            .field("rate", &self.rate)
            .field("delay", &self.one_way_delay)
            .field("queued", &self.queue.len_packets())
            .finish()
    }
}

impl BottleneckPath {
    /// Creates a path with a drop-tail FIFO of `buffer_pkts` packets.
    pub fn drop_tail(rate: Rate, one_way_delay: Duration, buffer_pkts: usize) -> Self {
        Self::with_queue(
            rate,
            one_way_delay,
            Box::new(DropTailFifo::with_packet_capacity(buffer_pkts)),
        )
    }

    /// Creates a path with an arbitrary queue discipline (e.g. the ideal
    /// fair queue for the In-Network baseline).
    pub fn with_queue(rate: Rate, one_way_delay: Duration, queue: Box<dyn Scheduler>) -> Self {
        BottleneckPath {
            rate,
            one_way_delay,
            queue,
            busy_until: Nanos::ZERO,
            dequeue_scheduled: false,
            drops: 0,
            bytes_delivered: 0,
            queue_delay_ms: TimeSeries::new(),
            fluid_drain_bps: 0,
            fluid_backlog_bytes: 0,
        }
    }

    /// The link rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// The one-way propagation delay.
    pub fn one_way_delay(&self) -> Duration {
        self.one_way_delay
    }

    /// Packets currently queued.
    pub fn queue_len(&self) -> usize {
        self.queue.len_packets()
    }

    /// Bytes currently queued.
    pub fn queue_bytes(&self) -> u64 {
        self.queue.len_bytes()
    }

    /// Queueing delay currently implied by the backlog at the link rate.
    /// When the fluid tier is active its backlog shares the buffer, so the
    /// measured delay covers both tiers' queued bytes — this is what makes
    /// the fluid and packet tiers comparable on the same trajectory.
    pub fn queue_delay(&self) -> Duration {
        self.rate
            .transmit_time(self.queue.len_bytes() + self.fluid_backlog_bytes)
            .min(Duration::from_secs(30))
    }

    /// Sets the fluid tier's coupling on this path: a capacity drain (the
    /// cross traffic's service rate) and the fluid backlog sharing the
    /// buffer. Called by [`crate::fluid::FluidState::update`] at every
    /// integration step and by its `reapply` after a restore.
    pub fn set_fluid(&mut self, service_bytes_per_sec: f64, backlog_bytes: f64) {
        self.fluid_drain_bps = (service_bytes_per_sec * 8.0) as u64;
        self.fluid_backlog_bytes = backlog_bytes as u64;
    }

    /// Capacity (bit/s) the fluid tier is currently draining.
    pub fn fluid_drain_bps(&self) -> u64 {
        self.fluid_drain_bps
    }

    /// Rate left for the packet tier after the fluid drain. Foreground
    /// packets always keep at least 1% of the link (mirroring the fluid
    /// tier's 99% service cap) so they serialize even under overload.
    fn effective_rate(&self) -> Rate {
        if self.fluid_drain_bps == 0 {
            return self.rate;
        }
        let bps = self.rate.as_bps();
        Rate::from_bps(
            bps.saturating_sub(self.fluid_drain_bps)
                .max(bps / 100)
                .max(1),
        )
    }

    /// Offers a packet to the path's queue. Returns `true` if it was
    /// accepted, `false` if it was dropped (dropped packets are freed back
    /// to the arena here).
    pub fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> bool {
        match self.queue.enqueue(pkt, arena, now) {
            Enqueued::Queued => true,
            Enqueued::Dropped(victim) => {
                self.drops += 1;
                arena.free(victim);
                false
            }
        }
    }

    /// If the link is idle and a packet is queued, starts transmitting it.
    /// Returns `(packet, delivery_time, next_dequeue_time)`:
    /// the packet will arrive at the destination at `delivery_time`, and the
    /// link will be free to start the next packet at `next_dequeue_time`.
    pub fn try_transmit(
        &mut self,
        arena: &mut PacketArena,
        now: Nanos,
    ) -> Option<(PacketId, Nanos, Nanos)> {
        if now < self.busy_until {
            return None;
        }
        let pkt = self.queue.dequeue(arena, now)?;
        let size = arena[pkt].size as u64;
        let tx_time = self.effective_rate().transmit_time(size);
        let done = now + tx_time;
        self.busy_until = done;
        self.bytes_delivered += size;
        let delivered_at = done + self.one_way_delay;
        Some((pkt, delivered_at, done))
    }

    /// Time at which the link becomes idle.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }

    /// Records a queue-delay sample for plotting.
    pub fn sample_queue_delay(&mut self, now: Nanos) {
        let d = self.queue_delay().as_millis_f64();
        self.queue_delay_ms.push(now, d);
    }

    /// Overrides the link rate (capacity-dip fault injection). Packets
    /// already being serialized keep their scheduled completion time; the
    /// new rate applies from the next transmission.
    pub fn set_rate(&mut self, rate: Rate) {
        self.rate = rate;
    }

    /// Appends the path's dynamic state — scheduler bookkeeping, queued
    /// packets *by value*, link/accounting state — to a snapshot stream.
    /// The configured geometry (delay, discipline) is not written: restore
    /// rebuilds it from the same [`crate::sim::SimulationConfig`] and loads
    /// this state into it. The rate *is* written because capacity faults
    /// change it at runtime.
    pub fn save_state(&mut self, arena: &PacketArena, out: &mut Vec<u8>) {
        self.rate.encode(out);
        self.queue.save_state(out);
        save_queued(arena, out, |f| self.queue.for_each_pkt_mut(f));
        self.busy_until.encode(out);
        self.dequeue_scheduled.encode(out);
        self.drops.encode(out);
        self.bytes_delivered.encode(out);
        self.queue_delay_ms.encode(out);
    }

    /// Restores state written by [`BottleneckPath::save_state`] into a
    /// freshly configured path, inserting the queued packets into `arena`.
    pub fn load_state(
        &mut self,
        arena: &mut PacketArena,
        r: &mut Reader<'_>,
    ) -> Result<(), DecodeError> {
        self.rate = Rate::decode(r)?;
        self.queue.load_state(r)?;
        load_queued(arena, r, |f| self.queue.for_each_pkt_mut(f))?;
        self.busy_until = Nanos::decode(r)?;
        self.dequeue_scheduled = bool::decode(r)?;
        self.drops = u64::decode(r)?;
        self.bytes_delivered = u64::decode(r)?;
        self.queue_delay_ms = TimeSeries::decode(r)?;
        Ok(())
    }
}

/// Appends the packets a queue holds, by value, in the order `walk` visits
/// their ids, behind a `u64` count: how a path section and a bundle's edge
/// state carry their queues. `walk` is the queue's
/// [`Scheduler::for_each_pkt_mut`]; a queue that does not exist walks
/// nothing.
pub(crate) fn save_queued(
    arena: &PacketArena,
    out: &mut Vec<u8>,
    walk: impl FnOnce(&mut dyn FnMut(&mut PacketId)),
) {
    let mut pkts = Vec::new();
    walk(&mut |id| pkts.push(&arena[*id]));
    pkts.encode(out);
}

/// Reverses [`save_queued`]: inserts the packets into `arena` and rewrites
/// the placeholder ids `walk` visits to their new slots, in order. Packets
/// left over, or ids left without one, are the `Err`.
pub(crate) fn load_queued(
    arena: &mut PacketArena,
    r: &mut Reader<'_>,
    walk: impl FnOnce(&mut dyn FnMut(&mut PacketId)),
) -> Result<(), DecodeError> {
    let mut pkts = Vec::<Packet>::decode(r)?.into_iter();
    let mut paired = true;
    walk(&mut |id| match pkts.next() {
        Some(pkt) => *id = arena.insert(pkt),
        None => paired = false,
    });
    if !paired || pkts.next().is_some() {
        return Err(r.error("queued packets do not pair up with the queue"));
    }
    Ok(())
}

/// Load balancer across the bottleneck sub-paths: it hashes the five-tuple
/// (ECMP-style), so each flow sticks to one path.
///
/// Picks are *pure per-packet functions*: the balancer holds no mutable
/// state, so the path a packet takes depends only on the packet itself,
/// never on how its arrival interleaves with other flows'. That
/// per-path determinism is what lets each path's FIFO evolve
/// independently — a net shard owning a disjoint set of paths sees
/// exactly the arrivals the single-threaded engine would route to those
/// paths — and it lets worker shards compute the pick locally when
/// addressing envelopes to net shards, without consulting shared state.
#[derive(Debug, Clone, Copy)]
pub struct LoadBalancer {
    paths: usize,
}

impl LoadBalancer {
    /// Creates a load balancer over `paths` sub-paths.
    pub fn new(paths: usize) -> Self {
        assert!(paths > 0, "need at least one path");
        LoadBalancer { paths }
    }

    /// Number of sub-paths.
    pub fn paths(&self) -> usize {
        self.paths
    }

    /// Picks the sub-path for a packet. Pure: the same packet always
    /// takes the same path, wherever and whenever the pick is computed.
    pub fn pick(&self, pkt: &Packet) -> usize {
        if self.paths == 1 {
            return 0;
        }
        (pkt.key.digest() % self.paths as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey};

    fn pkt(flow: u64, size: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000 + flow as u16, ipv4(10, 0, 1, 1), 80),
            0,
            size,
            Nanos::ZERO,
        )
    }

    fn enq(path: &mut BottleneckPath, a: &mut PacketArena, p: Packet) -> bool {
        let id = a.insert(p);
        path.enqueue(id, a, Nanos::ZERO)
    }

    #[test]
    fn serialization_and_propagation_delay() {
        // 12 Mbit/s: a 1500-byte packet takes exactly 1 ms to serialize.
        let mut a = PacketArena::new();
        let mut path =
            BottleneckPath::drop_tail(Rate::from_mbps(12), Duration::from_millis(25), 100);
        assert!(enq(&mut path, &mut a, pkt(1, 1460)));
        let (p, delivered_at, link_free) = path.try_transmit(&mut a, Nanos::ZERO).unwrap();
        assert_eq!(a[p].flow.0, 1);
        assert_eq!(link_free, Nanos::from_millis(1));
        assert_eq!(delivered_at, Nanos::from_millis(26));
    }

    #[test]
    fn link_busy_until_transmission_done() {
        let mut a = PacketArena::new();
        let mut path = BottleneckPath::drop_tail(Rate::from_mbps(12), Duration::ZERO, 100);
        enq(&mut path, &mut a, pkt(1, 1460));
        enq(&mut path, &mut a, pkt(2, 1460));
        assert!(path.try_transmit(&mut a, Nanos::ZERO).is_some());
        // Still serializing the first packet at t = 0.5 ms.
        assert!(path.try_transmit(&mut a, Nanos::from_micros(500)).is_none());
        let (p2, _, _) = path.try_transmit(&mut a, Nanos::from_millis(1)).unwrap();
        assert_eq!(a[p2].flow.0, 2);
    }

    #[test]
    fn buffer_overflow_drops_and_frees() {
        let mut a = PacketArena::new();
        let mut path = BottleneckPath::drop_tail(Rate::from_mbps(12), Duration::ZERO, 2);
        assert!(enq(&mut path, &mut a, pkt(1, 1460)));
        assert!(enq(&mut path, &mut a, pkt(2, 1460)));
        assert!(!enq(&mut path, &mut a, pkt(3, 1460)));
        assert_eq!(path.drops, 1);
        assert_eq!(a.live(), 2, "the dropped packet must be freed");
    }

    #[test]
    fn queue_delay_reflects_backlog() {
        let mut a = PacketArena::new();
        let mut path = BottleneckPath::drop_tail(Rate::from_mbps(12), Duration::ZERO, 1000);
        for i in 0..10 {
            enq(&mut path, &mut a, pkt(i, 1460));
        }
        // 10 × 1500 B at 12 Mbit/s = 10 ms.
        assert!((path.queue_delay().as_millis_f64() - 10.0).abs() < 0.1);
        path.sample_queue_delay(Nanos::from_millis(1));
        assert_eq!(path.queue_delay_ms.len(), 1);
    }

    #[test]
    fn fluid_drain_slows_serialization_and_backlog_adds_delay() {
        // 12 Mbit/s minus a 6 Mbit/s fluid drain: a 1500-byte packet takes
        // 2 ms instead of 1 ms.
        let mut a = PacketArena::new();
        let mut path = BottleneckPath::drop_tail(Rate::from_mbps(12), Duration::ZERO, 100);
        path.set_fluid(6_000_000.0 / 8.0, 0.0);
        assert_eq!(path.fluid_drain_bps(), 6_000_000);
        enq(&mut path, &mut a, pkt(1, 1460));
        let (_, _, link_free) = path.try_transmit(&mut a, Nanos::ZERO).unwrap();
        assert_eq!(link_free, Nanos::from_millis(2));
        // Fluid backlog counts into the measured queue delay at link rate:
        // 15000 bytes at 12 Mbit/s = 10 ms.
        path.set_fluid(0.0, 15_000.0);
        assert!((path.queue_delay().as_millis_f64() - 10.0).abs() < 0.1);
        // The packet tier keeps a 1% floor even if fluid claims everything.
        path.set_fluid(1e12, 0.0);
        enq(&mut path, &mut a, pkt(2, 1460));
        let (_, _, free2) = path.try_transmit(&mut a, Nanos::from_millis(2)).unwrap();
        assert_eq!(
            free2,
            Nanos::from_millis(2) + Rate::from_bps(120_000).transmit_time(1500)
        );
    }

    #[test]
    fn flow_hash_balancing_is_sticky_per_flow() {
        let lb = LoadBalancer::new(4);
        let a = pkt(1, 100);
        let b = pkt(2, 100);
        let pa = lb.pick(&a);
        for _ in 0..10 {
            assert_eq!(lb.pick(&a), pa, "same flow must always take the same path");
        }
        // Different flows spread across paths (with 32 flows at least two
        // distinct paths must be used).
        let mut seen = std::collections::HashSet::new();
        for f in 0..32 {
            seen.insert(lb.pick(&pkt(f, 100)));
        }
        assert!(seen.len() >= 2);
        let _ = lb.pick(&b);
    }

    #[test]
    fn pick_is_independent_of_other_traffic() {
        // The regression the net-shard split depends on: interleaving
        // arrivals from other flows must not move a packet's path.
        let lb = LoadBalancer::new(4);
        let mut target = pkt(7, 100);
        target.seq = 3;
        let alone = lb.pick(&target);
        // Interleave arbitrary other picks; the target's path is fixed.
        for f in 0..16 {
            let mut other = pkt(f, 100);
            other.seq = f;
            let _ = lb.pick(&other);
            assert_eq!(lb.pick(&target), alone);
        }
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn zero_paths_rejected() {
        let _ = LoadBalancer::new(0);
    }
}
