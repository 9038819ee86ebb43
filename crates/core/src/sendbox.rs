//! The sendbox control plane: ties measurement, congestion control, mode
//! switching and epoch-size control together (§4.2, §6 of the paper).
//!
//! The sendbox is split exactly as in the prototype:
//!
//! * the **datapath** (owned by the caller — a qdisc in the paper, the
//!   simulator's edge node here) forwards packets, enforces the pacing rate
//!   with a token bucket and runs the configured scheduler;
//! * the **control plane** (this type) is notified of every forwarded packet
//!   (to spot epoch boundaries), receives congestion ACKs from the
//!   receivebox, and is ticked every `control_interval` to produce a new
//!   pacing rate and, occasionally, an epoch-size update for the receivebox.

use bundler_cc::windowed::Ewma;
use bundler_cc::Measurement;
use bundler_types::{Duration, Nanos, Packet, Rate};

use crate::config::BundlerConfig;
use crate::epoch::{self, BoundaryRecord};
use crate::feedback::{BundleId, CongestionAck, EpochSizeUpdate};
use crate::measurement::{AckOutcome, MeasurementEngine};
use crate::modes::{Mode, ModeController};

/// What the control plane wants the datapath to do after a tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendboxOutput {
    /// Pacing rate to enforce until the next tick.
    pub rate: Rate,
    /// Epoch-size update to deliver (out of band) to the receivebox, if the
    /// epoch size changed.
    pub epoch_update: Option<EpochSizeUpdate>,
    /// Current operating mode (for telemetry; the datapath does not need
    /// it).
    pub mode: Mode,
}

/// Sendbox lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SendboxStats {
    /// Data packets forwarded.
    pub packets_sent: u64,
    /// Data bytes forwarded.
    pub bytes_sent: u64,
    /// Epoch boundary packets recorded.
    pub boundaries: u64,
    /// Congestion ACKs received (matched or not).
    pub acks_received: u64,
    /// Control ticks executed.
    pub ticks: u64,
    /// Epoch-size changes issued.
    pub epoch_changes: u64,
    /// Feedback timeouts signalled to the controller.
    pub feedback_timeouts: u64,
}

serde::layout!(value SendboxStats {
    packets_sent, bytes_sent, boundaries, acks_received, ticks, epoch_changes, feedback_timeouts,
});

impl std::ops::AddAssign for SendboxStats {
    fn add_assign(&mut self, rhs: SendboxStats) {
        // Exhaustive destructuring: adding a counter to the struct without
        // summing it here is a compile error, so aggregate totals (e.g. the
        // site agent's telemetry export) can never silently drop a field.
        let SendboxStats {
            packets_sent,
            bytes_sent,
            boundaries,
            acks_received,
            ticks,
            epoch_changes,
            feedback_timeouts,
        } = rhs;
        self.packets_sent += packets_sent;
        self.bytes_sent += bytes_sent;
        self.boundaries += boundaries;
        self.acks_received += acks_received;
        self.ticks += ticks;
        self.epoch_changes += epoch_changes;
        self.feedback_timeouts += feedback_timeouts;
    }
}

/// A point-in-time snapshot of one sendbox's control-plane state, taken by
/// [`Sendbox::telemetry`].
///
/// This is the per-bundle record a site agent exports: everything an
/// operator dashboard needs to answer "how is traffic to that site doing",
/// without reaching into the control plane's internals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendboxTelemetry {
    /// The bundle this snapshot describes.
    pub bundle: BundleId,
    /// Operating mode at snapshot time.
    pub mode: Mode,
    /// Pacing rate at snapshot time.
    pub rate: Rate,
    /// Current epoch size (packets between boundary samples).
    pub epoch_size: u32,
    /// Minimum RTT observed, if any feedback has arrived.
    pub min_rtt: Option<Duration>,
    /// Smoothed RTT from the most recent measurement window, if any.
    pub rtt: Option<Duration>,
    /// Receive-rate estimate from the most recent measurement window.
    pub recv_rate: Option<Rate>,
    /// Fraction of measurements that arrived out of order (§5.2).
    pub out_of_order_fraction: f64,
    /// Lifetime datapath/control counters.
    pub stats: SendboxStats,
    /// Measurement-plane health counters.
    pub measurement: crate::measurement::MeasurementStats,
    /// Number of mode transitions since the bundle started.
    pub mode_transitions: usize,
}

/// The sendbox control plane for a single bundle.
pub struct Sendbox {
    config: BundlerConfig,
    bundle: BundleId,
    engine: MeasurementEngine,
    modes: ModeController,
    epoch_size: u32,
    avg_packet_size: Ewma,
    stats: SendboxStats,
    last_feedback_timeout_at: Option<Nanos>,
    last_measurement: Option<Measurement>,
}

impl std::fmt::Debug for Sendbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sendbox")
            .field("bundle", &self.bundle)
            .field("mode", &self.modes.mode())
            .field("rate", &self.modes.rate())
            .field("epoch_size", &self.epoch_size)
            .finish()
    }
}

impl Sendbox {
    /// Creates the sendbox control plane for `bundle`.
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(bundle: BundleId, config: BundlerConfig) -> Result<Self, String> {
        config.validate()?;
        Ok(Sendbox {
            bundle,
            epoch_size: config.initial_epoch_size,
            modes: ModeController::new(config),
            engine: MeasurementEngine::new(),
            avg_packet_size: Ewma::new(0.05),
            stats: SendboxStats::default(),
            last_feedback_timeout_at: None,
            last_measurement: None,
            config,
        })
    }

    /// The bundle this sendbox controls.
    pub fn bundle(&self) -> BundleId {
        self.bundle
    }

    /// The configuration in use.
    pub fn config(&self) -> &BundlerConfig {
        &self.config
    }

    /// Current pacing rate.
    pub fn rate(&self) -> Rate {
        self.modes.rate()
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.modes.mode()
    }

    /// Current epoch size (packets between boundary samples).
    pub fn epoch_size(&self) -> u32 {
        self.epoch_size
    }

    /// Minimum RTT observed for the bundle, if any feedback has arrived.
    pub fn min_rtt(&self) -> Option<Duration> {
        self.engine.min_rtt()
    }

    /// Fraction of measurements that arrived out of order (multipath
    /// indicator, §5.2).
    pub fn out_of_order_fraction(&self) -> f64 {
        self.engine.out_of_order_fraction()
    }

    /// Mode transitions observed so far.
    pub fn mode_transitions(&self) -> &[(Nanos, Mode)] {
        self.modes.transitions()
    }

    /// The congestion signals computed at the most recent control tick, if
    /// any feedback has arrived yet. Used by experiments that compare
    /// Bundler's estimates against ground truth (Figures 5 and 6).
    pub fn last_measurement(&self) -> Option<Measurement> {
        self.last_measurement
    }

    /// Lifetime counters.
    pub fn stats(&self) -> SendboxStats {
        self.stats
    }

    /// Access to the measurement engine's counters.
    pub fn measurement_stats(&self) -> crate::measurement::MeasurementStats {
        self.engine.stats()
    }

    /// Takes a point-in-time telemetry snapshot of this bundle's control
    /// plane. Cheap (a handful of copies), so an agent can snapshot every
    /// bundle it manages at export time.
    pub fn telemetry(&self) -> SendboxTelemetry {
        SendboxTelemetry {
            bundle: self.bundle,
            mode: self.modes.mode(),
            rate: self.modes.rate(),
            epoch_size: self.epoch_size,
            min_rtt: self.engine.min_rtt(),
            rtt: self.last_measurement.map(|m| m.rtt),
            recv_rate: self.last_measurement.map(|m| m.recv_rate),
            out_of_order_fraction: self.engine.out_of_order_fraction(),
            stats: self.stats,
            measurement: self.engine.stats(),
            mode_transitions: self.modes.transitions().len(),
        }
    }

    /// Notifies the control plane that the datapath forwarded `pkt` at time
    /// `now`. Returns `true` if the packet was an epoch boundary (useful for
    /// datapaths that want to log or test the sampling).
    pub fn on_packet_forwarded(&mut self, pkt: &Packet, now: Nanos) -> bool {
        if !pkt.is_data() {
            return false;
        }
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += pkt.size as u64;
        self.avg_packet_size.update(pkt.size as f64);

        let hash = epoch::epoch_hash(pkt);
        if !epoch::is_boundary(hash, self.epoch_size) {
            return false;
        }
        self.stats.boundaries += 1;
        self.engine.record_boundary(BoundaryRecord {
            hash,
            sent_at: now,
            bytes_sent: self.stats.bytes_sent,
            packets_sent: self.stats.packets_sent,
        });
        true
    }

    /// Delivers a congestion ACK from the receivebox, received at `now`.
    pub fn on_congestion_ack(&mut self, ack: &CongestionAck, now: Nanos) {
        if ack.bundle != self.bundle {
            return;
        }
        self.stats.acks_received += 1;
        if let AckOutcome::Sample { ordering, .. } = self.engine.on_congestion_ack(ack, now) {
            self.modes.on_ack_ordering(ordering, now);
        }
        // Feedback is flowing again: re-engage control if we had fallen back
        // to status-quo pass-through during a blackout.
        if self.modes.is_degraded() {
            self.modes.exit_degraded(now);
        }
    }

    /// True while the control plane has degraded to status-quo pass-through
    /// because the feedback channel timed out.
    pub fn is_degraded(&self) -> bool {
        self.modes.is_degraded()
    }

    /// Runs one control tick. `sendbox_queue_bytes` is the current occupancy
    /// of the datapath's scheduler for this bundle (needed in pass-through
    /// mode). Call this every [`BundlerConfig::control_interval`].
    pub fn on_tick(&mut self, sendbox_queue_bytes: u64, now: Nanos) -> SendboxOutput {
        self.stats.ticks += 1;

        // Feedback-timeout handling: if traffic is flowing but no ACKs have
        // arrived for a while, tell the controller.
        if let Some(last_ack) = self.engine.last_ack_at() {
            if now.saturating_since(last_ack) > self.config.feedback_timeout
                && self
                    .last_feedback_timeout_at
                    .map(|t| now.saturating_since(t) > self.config.feedback_timeout)
                    .unwrap_or(true)
            {
                if self.config.degrade_on_feedback_timeout {
                    self.modes.enter_degraded(now);
                } else {
                    self.modes.on_feedback_timeout(now);
                }
                self.last_feedback_timeout_at = Some(now);
                self.stats.feedback_timeouts += 1;
            }
        }

        let measurement = self.engine.measurement(now);
        if measurement.is_some() {
            self.last_measurement = measurement;
        }
        let rate = self
            .modes
            .on_tick(measurement.as_ref(), sendbox_queue_bytes, now);

        // Epoch-size control: keep boundaries roughly a quarter RTT apart.
        let epoch_update = self.maybe_update_epoch_size(rate);

        SendboxOutput {
            rate,
            epoch_update,
            mode: self.modes.mode(),
        }
    }

    fn maybe_update_epoch_size(&mut self, rate: Rate) -> Option<EpochSizeUpdate> {
        let min_rtt = self.engine.min_rtt()?;
        let avg_pkt = self.avg_packet_size.get().unwrap_or(1500.0).max(64.0) as u64;
        let target = epoch::target_epoch_size(
            self.config.epoch_fraction,
            min_rtt,
            rate,
            avg_pkt,
            self.config.max_epoch_size,
        );
        if target == self.epoch_size {
            return None;
        }
        self.epoch_size = target;
        self.stats.epoch_changes += 1;
        Some(EpochSizeUpdate {
            bundle: self.bundle,
            epoch_size: target,
        })
    }
}

// The `config` and `bundle` id are not written: restore rebuilds the sendbox
// from the same configuration with `Sendbox::new`, then loads this.
serde::layout!(state Sendbox {
    engine, modes, epoch_size, avg_packet_size, stats, last_feedback_timeout_at, last_measurement,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receivebox::Receivebox;
    use bundler_types::{flow::ipv4, FlowId, FlowKey};
    use serde::binary::State;

    fn config() -> BundlerConfig {
        BundlerConfig::default()
    }

    fn pkt(ip_id: u16, size: u32) -> Packet {
        Packet::data(
            FlowId(1),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 4000, ipv4(10, 0, 1, 1), 443),
            0,
            size,
            Nanos::ZERO,
        )
        .with_ip_id(ip_id)
    }

    #[test]
    fn invalid_config_is_rejected() {
        let bad = BundlerConfig {
            initial_epoch_size: 3,
            ..Default::default()
        };
        assert!(Sendbox::new(BundleId(0), bad).is_err());
        assert!(Sendbox::new(BundleId(0), config()).is_ok());
    }

    #[test]
    fn records_boundaries_consistently_with_receivebox() {
        // The property the whole design rests on: the sendbox and receivebox
        // independently identify the *same* packets as epoch boundaries.
        let mut sb = Sendbox::new(BundleId(0), config()).unwrap();
        let mut rb = Receivebox::new(BundleId(0), config().initial_epoch_size);
        let mut sb_boundaries = Vec::new();
        let mut rb_boundaries = Vec::new();
        for i in 0..2000u16 {
            let p = pkt(i, 1460);
            if sb.on_packet_forwarded(&p, Nanos::from_millis(i as u64)) {
                sb_boundaries.push(i);
            }
            if rb
                .on_packet(&p, Nanos::from_millis(i as u64 + 25))
                .is_some()
            {
                rb_boundaries.push(i);
            }
        }
        assert_eq!(sb_boundaries, rb_boundaries);
        assert!(!sb_boundaries.is_empty());
    }

    #[test]
    fn closed_loop_produces_rtt_and_rate_estimates() {
        // Drive a synthetic closed loop: the sendbox forwards packets at
        // 96 Mbit/s, the receivebox sees them 25 ms later, congestion ACKs
        // come back after another 25 ms.
        let mut sb = Sendbox::new(BundleId(0), config()).unwrap();
        let mut rb = Receivebox::new(BundleId(0), config().initial_epoch_size);
        let mut now_ns: u64 = 0;
        let pkt_interval_ns = 125_000; // 1500 B at 96 Mbit/s
        let mut ip_id = 0u16;
        let mut pending_ticks = 0u64;
        for _ in 0..20_000 {
            let p = pkt(ip_id, 1460);
            ip_id = ip_id.wrapping_add(1);
            let now = Nanos(now_ns);
            sb.on_packet_forwarded(&p, now);
            if let Some(ack) = rb.on_packet(&p, Nanos(now_ns + 25_000_000)) {
                sb.on_congestion_ack(&ack, Nanos(now_ns + 50_000_000));
            }
            now_ns += pkt_interval_ns;
            // Tick every 10 ms.
            if now_ns / 10_000_000 > pending_ticks {
                pending_ticks = now_ns / 10_000_000;
                let out = sb.on_tick(0, Nanos(now_ns));
                if let Some(update) = out.epoch_update {
                    rb.on_epoch_update(&update);
                }
            }
        }
        let min_rtt = sb.min_rtt().expect("feedback should have produced an RTT");
        assert!(
            (min_rtt.as_millis_f64() - 50.0).abs() < 1.0,
            "min RTT {min_rtt}"
        );
        assert!(sb.stats().boundaries > 0);
        assert!(sb.stats().acks_received > 0);
        assert_eq!(sb.mode(), Mode::DelayControl);
        // With a 50 ms RTT at ~96 Mbit/s the epoch size should have been
        // raised above its initial value of 4.
        assert!(
            sb.epoch_size() > config().initial_epoch_size,
            "epoch size {}",
            sb.epoch_size()
        );
        // Receivebox followed the updates.
        assert_eq!(rb.epoch_size(), sb.epoch_size());
        assert_eq!(sb.out_of_order_fraction(), 0.0);
    }

    #[test]
    fn acks_for_other_bundles_are_ignored() {
        let mut sb = Sendbox::new(BundleId(0), config()).unwrap();
        let ack = CongestionAck {
            bundle: BundleId(9),
            packet_hash: 1,
            bytes_received: 1,
            packets_received: 1,
            observed_at: Nanos::ZERO,
        };
        sb.on_congestion_ack(&ack, Nanos::from_millis(1));
        assert_eq!(sb.stats().acks_received, 0);
    }

    #[test]
    fn feedback_timeout_fires_once_per_period() {
        let mut sb = Sendbox::new(BundleId(0), config()).unwrap();
        let mut rb = Receivebox::new(BundleId(0), config().initial_epoch_size);
        // Establish some feedback first.
        for i in 0..200u16 {
            let p = pkt(i, 1460);
            sb.on_packet_forwarded(&p, Nanos::from_millis(i as u64));
            if let Some(ack) = rb.on_packet(&p, Nanos::from_millis(i as u64 + 25)) {
                sb.on_congestion_ack(&ack, Nanos::from_millis(i as u64 + 50));
            }
        }
        // Then silence for several seconds of ticks.
        for i in 0..500u64 {
            sb.on_tick(0, Nanos::from_millis(1000 + i * 10));
        }
        let timeouts = sb.stats().feedback_timeouts;
        assert!(timeouts >= 1, "at least one feedback timeout");
        assert!(
            timeouts <= 6,
            "timeouts must be rate-limited, got {timeouts}"
        );
    }

    #[test]
    fn state_round_trips_through_snapshot() {
        // Drive a closed loop for a while, snapshot the control plane,
        // restore into a fresh sendbox, then continue both with identical
        // inputs: every observable output must stay identical.
        fn drive(
            sb: &mut Sendbox,
            rb: &mut Receivebox,
            now_ns: &mut u64,
            ip_id: &mut u16,
            pending_ticks: &mut u64,
        ) {
            for _ in 0..5_000 {
                let p = pkt(*ip_id, 1460);
                *ip_id = ip_id.wrapping_add(1);
                sb.on_packet_forwarded(&p, Nanos(*now_ns));
                if let Some(ack) = rb.on_packet(&p, Nanos(*now_ns + 25_000_000)) {
                    sb.on_congestion_ack(&ack, Nanos(*now_ns + 50_000_000));
                }
                *now_ns += 125_000;
                if *now_ns / 10_000_000 > *pending_ticks {
                    *pending_ticks = *now_ns / 10_000_000;
                    let out = sb.on_tick(0, Nanos(*now_ns));
                    if let Some(update) = out.epoch_update {
                        rb.on_epoch_update(&update);
                    }
                }
            }
        }
        let mut sb = Sendbox::new(BundleId(0), config()).unwrap();
        let mut rb = Receivebox::new(BundleId(0), config().initial_epoch_size);
        let mut now_ns: u64 = 0;
        let mut ip_id = 0u16;
        let mut pending_ticks = 0u64;
        drive(
            &mut sb,
            &mut rb,
            &mut now_ns,
            &mut ip_id,
            &mut pending_ticks,
        );

        let mut sb_bytes = Vec::new();
        sb.save_state(&mut sb_bytes);
        let mut rb_bytes = Vec::new();
        rb.save_state(&mut rb_bytes);

        let mut sb2 = Sendbox::new(BundleId(0), config()).unwrap();
        let mut r = serde::binary::Reader::new(&sb_bytes);
        sb2.load_state(&mut r).expect("sendbox state loads");
        assert!(r.is_empty(), "sendbox state fully consumed");
        let mut rb2 = Receivebox::new(BundleId(0), config().initial_epoch_size);
        let mut r = serde::binary::Reader::new(&rb_bytes);
        rb2.load_state(&mut r).expect("receivebox state loads");
        assert!(r.is_empty(), "receivebox state fully consumed");

        assert_eq!(sb2.telemetry(), sb.telemetry());
        assert_eq!(rb2.stats(), rb.stats());
        assert_eq!(rb2.epoch_size(), rb.epoch_size());

        // Both copies must evolve identically from here.
        let (mut now2, mut ip2, mut ticks2) = (now_ns, ip_id, pending_ticks);
        drive(
            &mut sb,
            &mut rb,
            &mut now_ns,
            &mut ip_id,
            &mut pending_ticks,
        );
        drive(&mut sb2, &mut rb2, &mut now2, &mut ip2, &mut ticks2);
        assert_eq!(sb2.telemetry(), sb.telemetry());
        assert_eq!(sb2.rate(), sb.rate());
        assert_eq!(sb2.mode_transitions(), sb.mode_transitions());
        assert_eq!(rb2.stats(), rb.stats());
    }

    #[test]
    fn degradation_falls_back_then_reengages() {
        let cfg = BundlerConfig {
            degrade_on_feedback_timeout: true,
            ..Default::default()
        };
        let mut sb = Sendbox::new(BundleId(0), cfg).unwrap();
        let mut rb = Receivebox::new(BundleId(0), cfg.initial_epoch_size);
        // Establish feedback.
        let mut last_ack = None;
        for i in 0..200u16 {
            let p = pkt(i, 1460);
            sb.on_packet_forwarded(&p, Nanos::from_millis(i as u64));
            if let Some(ack) = rb.on_packet(&p, Nanos::from_millis(i as u64 + 25)) {
                sb.on_congestion_ack(&ack, Nanos::from_millis(i as u64 + 50));
                last_ack = Some(ack);
            }
        }
        assert!(!sb.is_degraded());

        // Blackout: ticks keep coming but no ACKs arrive.
        for i in 0..300u64 {
            sb.on_tick(0, Nanos::from_millis(1000 + i * 10));
        }
        assert!(sb.is_degraded(), "timeout must trigger degradation");
        assert_eq!(sb.mode(), Mode::Disabled);
        assert_eq!(
            sb.rate(),
            cfg.max_rate,
            "status-quo passthrough at max rate"
        );

        // Feedback recovers: the next ACK re-engages delay control.
        sb.on_congestion_ack(&last_ack.unwrap(), Nanos::from_secs(10));
        assert!(!sb.is_degraded());
        assert_eq!(sb.mode(), Mode::DelayControl);
        // The outage and recovery are both visible in the transition log.
        let modes: Vec<Mode> = sb.mode_transitions().iter().map(|&(_, m)| m).collect();
        assert_eq!(modes, vec![Mode::Disabled, Mode::DelayControl]);
    }

    #[test]
    fn non_data_packets_do_not_affect_counters() {
        let mut sb = Sendbox::new(BundleId(0), config()).unwrap();
        let ack_pkt = Packet::ack(
            FlowId(1),
            FlowKey::tcp(ipv4(10, 0, 1, 1), 443, ipv4(10, 0, 0, 1), 4000),
            100,
            Nanos::ZERO,
        );
        assert!(!sb.on_packet_forwarded(&ack_pkt, Nanos::ZERO));
        assert_eq!(sb.stats().packets_sent, 0);
    }
}
