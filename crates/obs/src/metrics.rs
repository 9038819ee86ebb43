//! Fixed-slot metrics: counters, max-merge gauges and histograms.
//!
//! Metric identities are enums, not strings, so recording is an array index
//! — no hashing, no allocation — and the full registry is a few hundred
//! bytes until a histogram first fires.
//!
//! Metrics split into two families with different merge semantics:
//!
//! * **portable** ([`MetricsShard`]) — facts about *simulated* events
//!   (sendbox sojourn, FCT slowdown, control ticks). Every bundle is owned
//!   by exactly one shard at any sim-time, so per-event recording is
//!   partition-invariant and the commutative merge (adds, min/max) makes
//!   the merged snapshot bit-identical across shard counts;
//! * **host** ([`HostMetrics`]) — facts about *how this run executed*
//!   (mailbox depth, migration traffic, window count). These legitimately
//!   differ between shard counts and are excluded from bit-identity tests.

use crate::hist::LogLinearHist;

/// Portable counter slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Packets accepted into a sendbox scheduler.
    SendboxEnqueued,
    /// Packets dropped at sendbox enqueue (tail/longest-queue victims).
    SendboxDropped,
    /// Packets dropped by CoDel AQM state machines at dequeue.
    AqmDrops,
    /// CoDel transitions into the dropping state.
    CodelDropEntries,
    /// CoDel transitions out of the dropping state.
    CodelDropExits,
    /// Flows that completed (one per FCT record).
    FlowsCompleted,
    /// Bundle control-loop ticks executed.
    ControlTicks,
    /// Bundle mode-machine changes (delay-control / pass-through / disabled).
    ModeChanges,
    /// Epoch updates emitted toward the receivebox.
    EpochUpdates,
    /// Flows picked by the deterministic flow-span sampler.
    FlowsSampled,
    /// Portable health-monitor events emitted (host-side kinds like
    /// mailbox near-spill are excluded — they are partition-dependent).
    HealthEvents,
    /// Fluid cross-traffic integration steps executed.
    FluidUpdates,
}

impl CounterId {
    /// Number of counter slots.
    pub const COUNT: usize = 12;
}

/// Portable histogram slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistId {
    /// Sendbox sojourn time per released packet, in nanoseconds.
    SendboxSojournNs,
    /// FCT slowdown per completed flow, in milli-units (1000 = 1.0×).
    FctSlowdownMilli,
    /// Scheduler-internal sojourn per delivered packet (SFQ, CoDel and
    /// FQ-CoDel export it), in nanoseconds.
    SchedSojournNs,
    /// Bottleneck queue delay samples, in microseconds.
    BottleneckQueueDelayUs,
}

impl HistId {
    /// Number of histogram slots.
    pub const COUNT: usize = 4;
}

/// Portable gauge slots. Gauges merge by `max`, the only aggregation of an
/// instantaneous reading that is independent of how bundles were placed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Peak bytes queued in any single sendbox, observed at enqueue.
    PeakSendboxBacklogBytes,
    /// Peak total fluid cross-traffic backlog across all paths, observed
    /// at fluid integration steps.
    PeakFluidBacklogBytes,
}

impl GaugeId {
    /// Number of gauge slots.
    pub const COUNT: usize = 2;
}

/// The portable per-shard metrics registry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsShard {
    counters: [u64; CounterId::COUNT],
    gauges: [u64; GaugeId::COUNT],
    hists: [LogLinearHist; HistId::COUNT],
}

impl Default for MetricsShard {
    fn default() -> Self {
        MetricsShard {
            counters: [0; CounterId::COUNT],
            gauges: [0; GaugeId::COUNT],
            hists: std::array::from_fn(|_| LogLinearHist::new()),
        }
    }
}

impl MetricsShard {
    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, n: u64) {
        self.counters[id as usize] += n;
    }

    /// Records one histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id as usize].record(v);
    }

    /// Raises a gauge to `v` if `v` exceeds its current value.
    #[inline]
    pub fn gauge_max(&mut self, id: GaugeId, v: u64) {
        let slot = &mut self.gauges[id as usize];
        if v > *slot {
            *slot = v;
        }
    }

    /// Reads a counter.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize]
    }

    /// Reads a gauge.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize]
    }

    /// Reads a histogram.
    pub fn hist(&self, id: HistId) -> &LogLinearHist {
        &self.hists[id as usize]
    }

    /// Raw counter slots in [`CounterId`] order (streaming export).
    pub fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Merges another shard's registry into this one. Counter adds,
    /// gauge max, histogram element-wise adds — all commutative and
    /// associative, so any merge order over any partition yields identical
    /// bytes.
    pub fn merge_from(&mut self, other: &MetricsShard) {
        for (a, b) in self.counters.iter_mut().zip(other.counters.iter()) {
            *a += b;
        }
        for (a, b) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *a = (*a).max(*b);
        }
        for (a, b) in self.hists.iter_mut().zip(other.hists.iter()) {
            a.merge_from(b);
        }
    }
}

/// Partition-dependent metrics about how the run executed on this host.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HostMetrics {
    /// Bundle migrations performed (counted at the source shard).
    pub migrations: u64,
    /// Packets carried inside migrating bundles' sections.
    pub migration_pkts: u64,
    /// Packet payload bytes carried inside migrating bundles' sections.
    pub migration_bytes: u64,
    /// Conservative windows executed by this shard.
    pub windows: u64,
    /// Cross-shard mailbox envelopes received.
    pub inbox_messages: u64,
    /// Envelopes drained per inbox visit.
    pub mailbox_depth: LogLinearHist,
    /// Trace records lost to ring/sink overflow (previously only a
    /// one-shot `BUNDLER_SHARD_DEBUG` warning).
    pub trace_ring_dropped: u64,
    /// Mailbox envelopes that overflowed their ring into the mutex slow
    /// path (lossless, but a sign the ring is undersized for the bursts).
    pub mailbox_spills: u64,
}

impl HostMetrics {
    /// Merges another shard's host metrics into this one.
    pub fn merge_from(&mut self, other: &HostMetrics) {
        self.migrations += other.migrations;
        self.migration_pkts += other.migration_pkts;
        self.migration_bytes += other.migration_bytes;
        self.windows += other.windows;
        self.inbox_messages += other.inbox_messages;
        self.mailbox_depth.merge_from(&other.mailbox_depth);
        self.trace_ring_dropped += other.trace_ring_dropped;
        self.mailbox_spills += other.mailbox_spills;
    }
}

/// Observability state a scheduler exports: per-packet sojourn and CoDel
/// drop-state transitions, previously scheduler-private.
///
/// Lives *inside* the scheduler (behind `Scheduler::set_obs` /
/// `Scheduler::take_obs`) and is in no snapshot. A shard that drops a
/// migrating bundle folds the sojourn histogram into its own registry and
/// the loading shard re-arms a fresh one; the drop counters are read off
/// the scheduler's own (snapshotted) state by whichever shard takes the
/// export last. The merged series is partition-invariant either way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchedObs {
    /// Sojourn time of each *delivered* packet through the scheduler, ns.
    pub sojourn: LogLinearHist,
    /// Packets dropped by CoDel state machines.
    pub aqm_drops: u64,
    /// CoDel transitions into the dropping state.
    pub drop_entries: u64,
    /// CoDel transitions out of the dropping state.
    pub drop_exits: u64,
}

impl SchedObs {
    /// Folds this export into the portable registry.
    pub fn merge_into(&self, metrics: &mut MetricsShard) {
        metrics.hists[HistId::SchedSojournNs as usize].merge_from(&self.sojourn);
        metrics.add(CounterId::AqmDrops, self.aqm_drops);
        metrics.add(CounterId::CodelDropEntries, self.drop_entries);
        metrics.add(CounterId::CodelDropExits, self.drop_exits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_hists_record_and_read() {
        let mut m = MetricsShard::default();
        m.add(CounterId::SendboxEnqueued, 3);
        m.add(CounterId::SendboxEnqueued, 2);
        m.gauge_max(GaugeId::PeakSendboxBacklogBytes, 100);
        m.gauge_max(GaugeId::PeakSendboxBacklogBytes, 50);
        m.observe(HistId::SendboxSojournNs, 1_000);
        assert_eq!(m.counter(CounterId::SendboxEnqueued), 5);
        assert_eq!(m.gauge(GaugeId::PeakSendboxBacklogBytes), 100);
        assert_eq!(m.hist(HistId::SendboxSojournNs).count(), 1);
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut whole = MetricsShard::default();
        let mut a = MetricsShard::default();
        let mut b = MetricsShard::default();
        for i in 0..100u64 {
            whole.add(CounterId::ControlTicks, 1);
            whole.observe(HistId::FctSlowdownMilli, 1000 + i * 37);
            whole.gauge_max(GaugeId::PeakSendboxBacklogBytes, i * 11);
            let side = if i % 2 == 0 { &mut a } else { &mut b };
            side.add(CounterId::ControlTicks, 1);
            side.observe(HistId::FctSlowdownMilli, 1000 + i * 37);
            side.gauge_max(GaugeId::PeakSendboxBacklogBytes, i * 11);
        }
        let mut ab = a.clone();
        ab.merge_from(&b);
        let mut ba = b.clone();
        ba.merge_from(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, whole);
    }

    #[test]
    fn sched_obs_folds_into_registry() {
        let mut obs = SchedObs::default();
        obs.sojourn.record(5_000);
        obs.aqm_drops = 2;
        obs.drop_entries = 1;
        obs.drop_exits = 1;
        let mut m = MetricsShard::default();
        obs.merge_into(&mut m);
        assert_eq!(m.counter(CounterId::AqmDrops), 2);
        assert_eq!(m.counter(CounterId::CodelDropEntries), 1);
        assert_eq!(m.counter(CounterId::CodelDropExits), 1);
        assert_eq!(m.hist(HistId::SchedSojournNs).count(), 1);
    }

    #[test]
    fn host_metrics_merge_adds() {
        let mut a = HostMetrics {
            migrations: 1,
            migration_pkts: 10,
            migration_bytes: 100,
            windows: 5,
            inbox_messages: 7,
            ..Default::default()
        };
        a.mailbox_depth.record(3);
        let b = a.clone();
        a.merge_from(&b);
        assert_eq!(a.migrations, 2);
        assert_eq!(a.migration_bytes, 200);
        assert_eq!(a.mailbox_depth.count(), 2);
    }
}
