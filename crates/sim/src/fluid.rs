//! The fluid cross-traffic tier: background aggregates as rate processes.
//!
//! The paper's bundler only needs packet-level fidelity for the foreground
//! bundles it measures; background cross traffic merely has to load the
//! bottleneck realistically. Simulating every background packet caps a run
//! at ~10⁵–10⁶ flows, so this module collapses background *aggregates* —
//! many long-lived TCP-like senders sharing one site and path — into
//! per-aggregate rate ODEs in the spirit of minim's deliberately minimal
//! flow/bottleneck model and classic TCP fluid analysis:
//!
//! * each [`FluidAggregate`] carries `flows` senders whose combined rate
//!   `X(t)` follows AIMD dynamics — additive increase
//!   `dX/dt = flows · MSS / RTT²`, multiplicative decrease `X ← X/2`
//!   (at most once per aggregate RTT) when the bottleneck queue level
//!   crosses a backoff threshold, exactly the loss-synchronization signal
//!   drop-tail gives real TCP;
//! * the ODEs are integrated piecewise-constant at periodic
//!   [`Event::FluidUpdate`](crate::event::Event) events on the net LP
//!   (every [`FluidCrossTraffic::update_interval`]), not per packet, so the
//!   cost per simulated second is `O(aggregates)` and independent of how
//!   many flows or bytes the aggregates represent;
//! * the two tiers couple at the [`BottleneckPath`]: the fluid service
//!   rate drains link capacity out from under the packet-level scheduler
//!   (foreground packets serialize at what the cross traffic leaves over),
//!   and the fluid backlog adds to the measured bottleneck queue delay —
//!   while foreground bundles stay packet-level end to end.
//!
//! # Determinism
//!
//! Fluid state lives in the net core and advances only at `FluidUpdate`
//! events keyed `(timestamp, LP_FLUID, seq)` on the canonical net stream,
//! so the integration points — and every f64 operation between them — are
//! identical for any shard count, and capacity faults (which the update
//! reads live from the path) perturb the aggregates identically too. The
//! whole tier snapshots inside the net core's `BNDLSNAP` slice.

use bundler_types::{Duration, Nanos, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::path::BottleneckPath;

/// TCP maximum segment size (bytes) the rate ODEs are parameterized in.
pub const MSS_BYTES: f64 = 1500.0;

/// Which abstraction tier simulates a set of background flows.
///
/// Scenario builders (e.g. [`crate::scenario::metro`]) take this as a knob:
/// `Packet` emits one [`crate::workload::FlowSpec`] per flow through the
/// full endhost/queue machinery, `Fluid` collapses the same population into
/// [`FluidAggregate`]s on [`crate::sim::SimulationConfig::cross_traffic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrossTrafficTier {
    /// Per-packet simulation: every flow is a TCP endhost pair.
    #[default]
    Packet,
    /// Fluid simulation: background flow sets become rate aggregates.
    Fluid,
}

impl std::str::FromStr for CrossTrafficTier {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packet" => Ok(CrossTrafficTier::Packet),
            "fluid" => Ok(CrossTrafficTier::Fluid),
            other => Err(format!("unknown tier {other:?} (packet|fluid)")),
        }
    }
}

impl std::fmt::Display for CrossTrafficTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CrossTrafficTier::Packet => "packet",
            CrossTrafficTier::Fluid => "fluid",
        })
    }
}

/// One background traffic aggregate: `flows` long-lived TCP-like senders
/// sharing a round-trip time and a bottleneck sub-path, active during
/// `[start, stop)`. Diurnal load curves and flash crowds are built by
/// giving one site several aggregates with different activity windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidAggregate {
    /// Number of flows the aggregate stands for (scales the additive
    /// increase and the rate floor, not the per-update cost).
    pub flows: u64,
    /// Round-trip time of the aggregate's senders.
    pub rtt: Duration,
    /// Simulated time the aggregate starts sending.
    pub start: Nanos,
    /// Simulated time the aggregate stops (exclusive); [`Nanos::MAX`] for
    /// whole-run aggregates.
    pub stop: Nanos,
    /// Bottleneck sub-path the aggregate loads (fluid aggregates pin to a
    /// path so the coupling stays per-path deterministic).
    pub path: u32,
    /// Rate the aggregate starts at when its window opens.
    pub initial_rate: Rate,
}

impl FluidAggregate {
    /// A whole-run aggregate of `flows` senders on path 0, starting at its
    /// AIMD floor rate (one MSS per RTT per flow).
    pub fn new(flows: u64, rtt: Duration) -> Self {
        let floor = (flows as f64 * MSS_BYTES / rtt.as_secs_f64().max(1e-6)) as u64;
        FluidAggregate {
            flows,
            rtt,
            start: Nanos::ZERO,
            stop: Nanos::MAX,
            path: 0,
            initial_rate: Rate::from_bytes_per_sec(floor.max(1)),
        }
    }

    /// Restricts the aggregate to the activity window `[start, stop)`.
    pub fn with_window(mut self, start: Nanos, stop: Nanos) -> Self {
        self.start = start;
        self.stop = stop;
        self
    }

    /// Pins the aggregate to bottleneck sub-path `path`.
    pub fn on_path(mut self, path: u32) -> Self {
        self.path = path;
        self
    }

    /// The AIMD rate floor in bytes/sec: one MSS per RTT per flow, the
    /// least a window-based sender can offer.
    pub fn floor_rate(&self) -> f64 {
        self.flows as f64 * MSS_BYTES / self.rtt.as_secs_f64().max(1e-6)
    }

    /// True if the aggregate is sending at `now`.
    #[inline]
    pub fn active_at(&self, now: Nanos) -> bool {
        self.start <= now && now < self.stop
    }
}

/// Configuration of the fluid cross-traffic tier, carried on
/// [`crate::sim::SimulationConfig::cross_traffic`]. `None` there disables
/// the tier entirely (bit-identical to builds before it existed).
#[derive(Debug, Clone, PartialEq)]
pub struct FluidCrossTraffic {
    /// The background aggregates.
    pub aggregates: Vec<FluidAggregate>,
    /// How often the rate ODEs are integrated (the fluid tier's event
    /// cadence). Coarser intervals trade queue-trajectory resolution for
    /// speed; 1 ms resolves sub-RTT dynamics at the simulated scales.
    pub update_interval: Duration,
    /// Queue level — in permille of the per-path buffer — above which
    /// active aggregates back off (the fluid analog of drop-tail loss,
    /// which real TCP only sees once the buffer is nearly full).
    pub backoff_threshold_permille: u32,
}

impl FluidCrossTraffic {
    /// A fluid tier over `aggregates` with the default cadence (1 ms) and
    /// backoff threshold (850‰ of the buffer).
    pub fn new(aggregates: Vec<FluidAggregate>) -> Self {
        FluidCrossTraffic {
            aggregates,
            update_interval: Duration::from_millis(1),
            backoff_threshold_permille: 850,
        }
    }

    /// Overrides the integration cadence.
    pub fn with_update_interval(mut self, interval: Duration) -> Self {
        assert!(
            !interval.is_zero(),
            "fluid update interval must be positive"
        );
        self.update_interval = interval;
        self
    }

    /// Total flows across all aggregates (the offered background load the
    /// tier stands for; activity windows may keep them from being
    /// concurrent).
    pub fn total_flows(&self) -> u64 {
        self.aggregates.iter().map(|a| a.flows).sum()
    }
}

/// Dynamic state of one aggregate.
#[derive(Debug, Clone)]
struct AggState {
    /// Current aggregate rate, bytes/sec.
    rate: f64,
    /// Last multiplicative decrease (rate halvings are paced to one per
    /// aggregate RTT, like loss-driven window halving).
    last_decrease: Nanos,
}

serde::layout!(value AggState { rate, last_decrease });

/// Dynamic per-path state of the fluid tier.
#[derive(Debug, Clone)]
struct PathFluid {
    /// Fluid bytes queued at the bottleneck (the tier's share of the
    /// buffer).
    backlog: f64,
    /// `bytes_delivered + queue_bytes` of the path at the last update —
    /// its growth measures the packet tier's arrival rate.
    last_level: f64,
    /// Fluid service rate granted at the last update, bytes/sec (the
    /// capacity drain currently applied to the path).
    service: f64,
    /// Fluid bytes dropped at the full buffer (accounting only).
    dropped: f64,
    /// Simulated time of this path's last integration step. Per-path
    /// (rather than one tier-wide stamp) so each path — and therefore
    /// each net shard, which owns a disjoint set of paths — integrates
    /// without reading any other path's clock. All paths step at the
    /// same instants, so the stamps stay equal in lockstep.
    last_update: Nanos,
}

/// Runtime state of the fluid tier, owned by the net core and advanced at
/// per-path `FluidUpdate` events. Snapshots inside the net core's per-path
/// state sections (only when the tier is configured, so packet-only
/// snapshot bytes are unchanged).
///
/// Every field an integration step reads or writes is keyed by a single
/// path: the backlog, level and clock live in `PathFluid`, and each
/// aggregate is pinned to one path. A sharded net core therefore holds a
/// full-size `FluidState` but only ever touches the entries of the paths
/// it owns — the untouched entries stay at their initial values.
pub struct FluidState {
    config: FluidCrossTraffic,
    /// Per-path buffer size in bytes (shared by both tiers).
    buffer_bytes: f64,
    agg: Vec<AggState>,
    paths: Vec<PathFluid>,
}

impl FluidState {
    /// Builds the tier's runtime state for `num_paths` bottleneck sub-paths
    /// with `buffer_pkts`-packet buffers.
    pub fn new(config: &FluidCrossTraffic, num_paths: usize, buffer_pkts: usize) -> Self {
        for a in &config.aggregates {
            assert!(
                (a.path as usize) < num_paths,
                "fluid aggregate pinned to path {} but only {num_paths} exist",
                a.path
            );
        }
        let agg = config
            .aggregates
            .iter()
            .map(|a| AggState {
                rate: (a.initial_rate.as_bytes_per_sec()).max(a.floor_rate()),
                last_decrease: Nanos::ZERO,
            })
            .collect();
        FluidState {
            config: config.clone(),
            buffer_bytes: buffer_pkts as f64 * MSS_BYTES,
            agg,
            paths: vec![
                PathFluid {
                    backlog: 0.0,
                    last_level: 0.0,
                    service: 0.0,
                    dropped: 0.0,
                    last_update: Nanos::ZERO,
                };
                num_paths
            ],
        }
    }

    /// The configured integration cadence.
    pub fn update_interval(&self) -> Duration {
        self.config.update_interval
    }

    /// Fluid backlog currently queued on `path`, in bytes.
    pub fn backlog_bytes(&self, path: usize) -> u64 {
        self.paths.get(path).map_or(0, |p| p.backlog as u64)
    }

    /// Sum of active aggregate rates on `path` at `now`, bytes/sec.
    pub fn offered_rate(&self, path: usize, now: Nanos) -> f64 {
        self.config
            .aggregates
            .iter()
            .zip(&self.agg)
            .filter(|(spec, _)| spec.path as usize == path && spec.active_at(now))
            .map(|(_, st)| st.rate)
            .sum()
    }

    /// Fluid bytes dropped at full buffers so far, across all paths.
    pub fn dropped_bytes(&self) -> u64 {
        self.paths.iter().map(|p| p.dropped).sum::<f64>() as u64
    }

    /// Number of configured aggregates (observability iterates them).
    pub fn num_aggregates(&self) -> usize {
        self.agg.len()
    }

    /// The bottleneck sub-path aggregate `i` is pinned to.
    pub fn aggregate_path(&self, i: usize) -> u32 {
        self.config.aggregates[i].path
    }

    /// Aggregate `i`'s current rate in bits/sec (0 when its activity window
    /// is closed at `now`).
    pub fn aggregate_rate_bps(&self, i: usize, now: Nanos) -> u64 {
        if self.config.aggregates[i].active_at(now) {
            (self.agg[i].rate * 8.0) as u64
        } else {
            0
        }
    }

    /// True if aggregate `i` is active at `now` but pinned at (or clamped
    /// below) its AIMD floor rate — the fluid-collapse health signal: the
    /// aggregate cannot back off any further, so its share of the buffer
    /// can only be shed by everyone else.
    pub fn aggregate_at_floor(&self, i: usize, now: Nanos) -> bool {
        self.config.aggregates[i].active_at(now)
            && self.agg[i].rate <= self.config.aggregates[i].floor_rate()
    }

    /// One integration step for a single path at `now`: measure the path's
    /// packet-tier arrival rate since its last step, split capacity
    /// proportionally between the tiers, integrate the fluid backlog,
    /// write the resulting capacity drain and backlog into the path, and
    /// advance the AIMD rate ODEs of the aggregates pinned to it off the
    /// combined queue level.
    ///
    /// Every read and write is scoped to path `gid` and its aggregates, so
    /// the per-path steps commute: integrating the paths one at a time (in
    /// any order, on any thread) computes exactly the same f64 values as
    /// the old tier-wide three-pass sweep.
    pub fn update_path(&mut self, now: Nanos, gid: usize, path: &mut BottleneckPath) {
        let pf = &mut self.paths[gid];
        let dt = now.saturating_since(pf.last_update).as_secs_f64();
        pf.last_update = now;
        if dt <= 0.0 {
            return;
        }
        // Pass 1: offered fluid rate of this path's aggregates.
        let mut offered = 0.0;
        for (spec, st) in self.config.aggregates.iter().zip(&self.agg) {
            if spec.path as usize == gid && spec.active_at(now) {
                offered += st.rate;
            }
        }
        // Pass 2: capacity split + backlog integration.
        let capacity = path.rate().as_bytes_per_sec();
        // The packet tier's arrival rate over the last interval is the
        // growth of its delivered+queued byte level — both already
        // canonical path state, so restore needs no extra accumulator.
        let level = path.bytes_delivered as f64 + path.queue_bytes() as f64;
        let pkt_rate = ((level - pf.last_level) / dt).max(0.0);
        pf.last_level = level;
        // The tier wants to send its offered rate plus drain its
        // backlog; capacity is split in proportion to demand, with the
        // packet tier keeping a floor so foreground packets always
        // serialize (mirrored by the drain cap in the path).
        let fluid_demand = offered + pf.backlog / dt;
        let total = fluid_demand + pkt_rate;
        let service = if total <= capacity {
            fluid_demand
        } else {
            (capacity * fluid_demand / total).min(capacity * 0.99)
        };
        let next = pf.backlog + (offered - service) * dt;
        if next > self.buffer_bytes {
            pf.dropped += next - self.buffer_bytes;
            pf.backlog = self.buffer_bytes;
        } else {
            pf.backlog = next.max(0.0);
        }
        pf.service = service;
        path.set_fluid(service, pf.backlog);
        let combined = pf.backlog + path.queue_bytes() as f64;
        // Pass 3: AIMD per pinned aggregate off the combined queue level.
        let threshold = self.buffer_bytes * self.config.backoff_threshold_permille as f64 / 1000.0;
        for (spec, st) in self.config.aggregates.iter().zip(self.agg.iter_mut()) {
            if spec.path as usize != gid {
                continue;
            }
            if !spec.active_at(now) {
                // Parked aggregates wait at their floor so a reopening
                // window ramps from scratch instead of resuming a stale
                // high rate.
                st.rate = spec.floor_rate();
                continue;
            }
            if combined > threshold {
                if now.saturating_since(st.last_decrease) >= spec.rtt {
                    st.rate *= 0.5;
                    st.last_decrease = now;
                }
            } else {
                // Additive increase against the *instantaneous* RTT —
                // propagation plus current queueing delay, as in the
                // classic TCP fluid ODEs — so a standing queue slows the
                // ramp exactly the way ACK clocking slows real senders.
                let queueing = if capacity > 0.0 {
                    combined / capacity
                } else {
                    0.0
                };
                let rtt = (spec.rtt.as_secs_f64() + queueing).max(1e-6);
                st.rate += spec.flows as f64 * MSS_BYTES / (rtt * rtt) * dt;
            }
            // With enormous populations the window floor can exceed the
            // link outright (oversubscription); the link then just
            // saturates, so the floor caps at capacity.
            st.rate = st.rate.clamp(spec.floor_rate().min(capacity), capacity);
        }
    }

    /// Integrates every path at `now` — the single-core convenience over
    /// [`FluidState::update_path`], used by the fluid-tier unit tests.
    pub fn update(&mut self, now: Nanos, paths: &mut [BottleneckPath]) {
        for (gid, path) in paths.iter_mut().enumerate() {
            self.update_path(now, gid, path);
        }
    }

    /// Re-applies the tier's capacity drain and backlog to a freshly
    /// configured path after a restore (the path's fluid fields are
    /// derived state and are not part of its own snapshot slice).
    pub fn reapply_path(&self, gid: usize, path: &mut BottleneckPath) {
        let pf = &self.paths[gid];
        path.set_fluid(pf.service, pf.backlog);
    }

    /// Appends one path's slice of the tier's dynamic state — its clock,
    /// the `AggState`s of the aggregates pinned to it (in global
    /// aggregate order), and its `PathFluid` — to a snapshot stream.
    /// Per-path (rather than one tier-wide blob) so the snapshot's net
    /// slice can be laid out path-major: each net shard serializes exactly
    /// the sections of the paths it owns, and the assembled bytes are
    /// identical for every `(worker, net)` shard combination. The
    /// aggregate specs, cadence and threshold are configuration and are
    /// covered by the snapshot fingerprint instead.
    pub fn save_path_state(&self, gid: usize, out: &mut Vec<u8>) {
        let pf = &self.paths[gid];
        pf.last_update.encode(out);
        let on_path = self
            .config
            .aggregates
            .iter()
            .zip(&self.agg)
            .filter(|(spec, _)| spec.path as usize == gid);
        (on_path.clone().count() as u64).encode(out);
        for (_, a) in on_path {
            a.encode(out);
        }
        pf.backlog.encode(out);
        pf.last_level.encode(out);
        pf.service.encode(out);
        pf.dropped.encode(out);
    }

    /// Restores one path's slice written by [`FluidState::save_path_state`].
    /// Callers must follow with [`FluidState::reapply_path`] on the
    /// restored path.
    pub fn load_path_state(&mut self, gid: usize, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let pf = &mut self.paths[gid];
        pf.last_update = Nanos::decode(r)?;
        let n = u64::decode(r)? as usize;
        let expected = self
            .config
            .aggregates
            .iter()
            .filter(|spec| spec.path as usize == gid)
            .count();
        if n != expected {
            return Err(r.error("fluid aggregate count mismatch"));
        }
        for (spec, a) in self.config.aggregates.iter().zip(self.agg.iter_mut()) {
            if spec.path as usize != gid {
                continue;
            }
            *a = AggState::decode(r)?;
        }
        let pf = &mut self.paths[gid];
        pf.backlog = f64::decode(r)?;
        pf.last_level = f64::decode(r)?;
        pf.service = f64::decode(r)?;
        pf.dropped = f64::decode(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_path(rate_mbps: u64, buffer_pkts: usize) -> Vec<BottleneckPath> {
        vec![BottleneckPath::drop_tail(
            Rate::from_mbps(rate_mbps),
            Duration::from_millis(25),
            buffer_pkts,
        )]
    }

    fn tier(flows: u64) -> FluidCrossTraffic {
        FluidCrossTraffic::new(vec![FluidAggregate::new(flows, Duration::from_millis(50))])
    }

    fn step_until(state: &mut FluidState, paths: &mut [BottleneckPath], from_ms: u64, to_ms: u64) {
        for ms in from_ms..=to_ms {
            state.update(Nanos::from_millis(ms), paths);
        }
    }

    #[test]
    fn aggregate_ramps_to_capacity_and_backs_off_at_threshold() {
        let cfg = tier(8);
        let mut paths = one_path(48, 100);
        let mut state = FluidState::new(&cfg, 1, 100);
        step_until(&mut state, &mut paths, 1, 2_000);
        let capacity = paths[0].rate().as_bytes_per_sec();
        let rate = state.offered_rate(0, Nanos::from_secs(2));
        // AIMD around a drop-tail-like threshold keeps the aggregate inside
        // (capacity/2, capacity] once the ramp is over.
        assert!(
            rate > capacity * 0.4 && rate <= capacity,
            "rate {rate:.0} B/s vs capacity {capacity:.0} B/s"
        );
        // The backlog oscillates but never exceeds the buffer.
        assert!(state.backlog_bytes(0) as f64 <= 100.0 * MSS_BYTES + 1.0);
        // The path sees the tier as a capacity drain.
        assert!(paths[0].fluid_drain_bps() > 0);
    }

    #[test]
    fn activity_windows_gate_the_offered_rate() {
        let mut cfg = tier(4);
        cfg.aggregates[0] =
            cfg.aggregates[0].with_window(Nanos::from_millis(500), Nanos::from_millis(1_500));
        let mut paths = one_path(48, 100);
        let mut state = FluidState::new(&cfg, 1, 100);
        step_until(&mut state, &mut paths, 1, 400);
        assert_eq!(state.offered_rate(0, Nanos::from_millis(400)), 0.0);
        step_until(&mut state, &mut paths, 401, 1_400);
        assert!(state.offered_rate(0, Nanos::from_millis(1_400)) > 0.0);
        step_until(&mut state, &mut paths, 1_401, 2_000);
        assert_eq!(state.offered_rate(0, Nanos::from_secs(2)), 0.0);
    }

    #[test]
    fn capacity_dips_halve_the_aggregate_rate() {
        let cfg = tier(8);
        let mut paths = one_path(48, 100);
        let mut state = FluidState::new(&cfg, 1, 100);
        step_until(&mut state, &mut paths, 1, 1_000);
        let before = state.offered_rate(0, Nanos::from_secs(1));
        // A 90% capacity dip: the aggregate must track the new, smaller
        // link because the update reads the path rate live.
        paths[0].set_rate(Rate::from_mbps(4));
        step_until(&mut state, &mut paths, 1_001, 3_000);
        let after = state.offered_rate(0, Nanos::from_secs(3));
        assert!(
            after < before / 2.0,
            "rate must shrink with capacity: {before:.0} -> {after:.0} B/s"
        );
        assert!(after <= paths[0].rate().as_bytes_per_sec());
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        let cfg = tier(8);
        let mut paths = one_path(48, 100);
        let mut state = FluidState::new(&cfg, 1, 100);
        step_until(&mut state, &mut paths, 1, 700);
        let mut bytes = Vec::new();
        state.save_path_state(0, &mut bytes);
        let mut restored = FluidState::new(&cfg, 1, 100);
        let mut r = Reader::new(&bytes);
        restored.load_path_state(0, &mut r).expect("state decodes");
        assert!(r.is_empty());
        let mut a = Vec::new();
        let mut b = Vec::new();
        state.save_path_state(0, &mut a);
        restored.save_path_state(0, &mut b);
        assert_eq!(a, b, "round trip must be lossless");
    }

    #[test]
    fn per_path_steps_match_the_tier_wide_sweep() {
        // Two aggregates on two paths: integrating path-by-path (in either
        // order) must produce exactly the f64 values the combined sweep
        // does — the property the net-shard partition rests on.
        let cfg = FluidCrossTraffic::new(vec![
            FluidAggregate::new(6, Duration::from_millis(40)),
            FluidAggregate::new(3, Duration::from_millis(80)).on_path(1),
        ]);
        let mk_paths = || {
            vec![
                BottleneckPath::drop_tail(Rate::from_mbps(24), Duration::from_millis(20), 80),
                BottleneckPath::drop_tail(Rate::from_mbps(48), Duration::from_millis(30), 80),
            ]
        };
        let mut sweep_paths = mk_paths();
        let mut sweep = FluidState::new(&cfg, 2, 80);
        let mut split_paths = mk_paths();
        let mut split = FluidState::new(&cfg, 2, 80);
        for ms in 1..=1_000u64 {
            let now = Nanos::from_millis(ms);
            sweep.update(now, &mut sweep_paths);
            // Reverse path order: the steps must commute.
            split.update_path(now, 1, &mut split_paths[1]);
            split.update_path(now, 0, &mut split_paths[0]);
        }
        for gid in 0..2 {
            let mut a = Vec::new();
            let mut b = Vec::new();
            sweep.save_path_state(gid, &mut a);
            split.save_path_state(gid, &mut b);
            assert_eq!(a, b, "path {gid} state diverged between step orders");
        }
    }

    #[test]
    #[should_panic(expected = "pinned to path")]
    fn aggregate_on_missing_path_is_rejected() {
        let cfg = FluidCrossTraffic::new(vec![
            FluidAggregate::new(2, Duration::from_millis(50)).on_path(3)
        ]);
        let _ = FluidState::new(&cfg, 1, 100);
    }

    #[test]
    fn tier_parses_and_displays() {
        assert_eq!("packet".parse(), Ok(CrossTrafficTier::Packet));
        assert_eq!("fluid".parse(), Ok(CrossTrafficTier::Fluid));
        assert!("gas".parse::<CrossTrafficTier>().is_err());
        assert_eq!(CrossTrafficTier::Fluid.to_string(), "fluid");
    }
}
