//! The sendbox's operating-mode state machine (§5 of the paper).
//!
//! Bundler's strategy is "do no harm": it only exercises rate control when
//! conditions allow it to shift queues without hurting throughput.
//!
//! * [`Mode::DelayControl`] — the normal mode: the configured bundle
//!   congestion controller (Copa by default) sets the pacing rate, the
//!   bottleneck queue moves to the sendbox, and the scheduler has packets to
//!   reorder.
//! * [`Mode::PassThrough`] — buffer-filling cross traffic was detected
//!   (§5.1). The sendbox lets traffic pass so the endhost controllers can
//!   compete fairly, but keeps a small (10 ms) standing queue via a PI
//!   controller so the Nimbus pulses still have packets to send and it can
//!   notice when the cross traffic leaves.
//! * [`Mode::Disabled`] — the multipath detector (§5.2) found imbalanced
//!   load-balanced paths, where aggregate delay-based control is unsound.
//!   Rate limiting is removed entirely (status-quo behaviour) until the
//!   out-of-order fraction subsides.

use bundler_cc::nimbus::{CrossTrafficVerdict, ElasticityConfig, ElasticityDetector, Pulser};
use bundler_cc::windowed::WindowedFilter;
use bundler_cc::{BundleCc, Measurement};
use bundler_types::{Duration, Nanos, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::config::BundlerConfig;
use crate::measurement::AckOrdering;
use crate::multipath::{MultipathConfig, MultipathDetector};
use crate::pi::{PiConfig, PiController};

/// The sendbox's current operating mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Delay-based rate control is active; queues are shifted to the sendbox.
    DelayControl,
    /// Buffer-filling cross traffic detected: traffic passes at (nearly)
    /// full rate, with a small standing queue maintained for probing.
    PassThrough,
    /// Imbalanced multipath detected: rate control disabled entirely.
    Disabled,
}

impl Encode for Mode {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Mode::DelayControl => 0,
            Mode::PassThrough => 1,
            Mode::Disabled => 2,
        };
        tag.encode(out);
    }
}

impl Decode for Mode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Mode::DelayControl),
            1 => Ok(Mode::PassThrough),
            2 => Ok(Mode::Disabled),
            _ => Err(r.error("invalid mode tag")),
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::DelayControl => write!(f, "delay-control"),
            Mode::PassThrough => write!(f, "pass-through"),
            Mode::Disabled => write!(f, "disabled"),
        }
    }
}

/// Drives mode transitions and produces the pacing rate each control tick.
pub struct ModeController {
    config: BundlerConfig,
    cc: Box<dyn BundleCc>,
    detector: ElasticityDetector,
    pulser: Pulser,
    pi: PiController,
    multipath: MultipathDetector,
    mode: Mode,
    /// Bottleneck estimate: long-window maximum of the observed receive
    /// rate. Deliberately slow to decay so that entering pass-through (where
    /// the bundle only gets its fair share) does not erase the estimate.
    mu_filter: WindowedFilter<u64>,
    elastic_since: Option<Nanos>,
    inelastic_since: Option<Nanos>,
    current_rate: Rate,
    /// Transition log: (time, new mode), useful for experiments.
    transitions: Vec<(Nanos, Mode)>,
    /// True while the controller has fallen back to status-quo pass-through
    /// because the feedback channel timed out (graceful degradation).
    degraded: bool,
}

impl std::fmt::Debug for ModeController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModeController")
            .field("mode", &self.mode)
            .field("algorithm", &self.cc.name())
            .field("rate", &self.current_rate)
            .finish()
    }
}

impl ModeController {
    /// Creates the mode controller from a validated configuration.
    pub fn new(config: BundlerConfig) -> Self {
        let cc = config.algorithm.build(config.initial_rate);
        let detector = ElasticityDetector::new(ElasticityConfig {
            sample_interval: config.control_interval,
            ..Default::default()
        });
        let pi = PiController::new(
            PiConfig {
                alpha: config.pi_alpha,
                beta: config.pi_beta,
                target: config.pass_through_target_queue,
                min_rate: config.min_rate,
                max_rate: config.max_rate,
            },
            config.initial_rate,
        );
        let multipath = MultipathDetector::new(MultipathConfig {
            threshold: config.multipath_threshold,
            min_samples: config.multipath_min_samples,
            ..Default::default()
        });
        ModeController {
            config,
            cc,
            detector,
            pulser: Pulser::default(),
            pi,
            multipath,
            mode: Mode::DelayControl,
            mu_filter: WindowedFilter::new_max(Duration::from_secs(60)),
            elastic_since: None,
            inelastic_since: None,
            current_rate: config.initial_rate,
            transitions: Vec::new(),
            degraded: false,
        }
    }

    /// The current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The most recently computed pacing rate.
    pub fn rate(&self) -> Rate {
        self.current_rate
    }

    /// The bottleneck estimate μ used for pulsing and pass-through control.
    pub fn mu(&self) -> Rate {
        Rate::from_bps(self.mu_filter.get().unwrap_or(self.current_rate.as_bps()))
    }

    /// Name of the underlying congestion-control algorithm.
    pub fn algorithm(&self) -> &'static str {
        self.cc.name()
    }

    /// All mode transitions observed so far, in order.
    pub fn transitions(&self) -> &[(Nanos, Mode)] {
        &self.transitions
    }

    /// The multipath detector's current out-of-order fraction.
    pub fn out_of_order_fraction(&self) -> f64 {
        self.multipath.window_fraction()
    }

    /// The cross-traffic detector's most recent verdict.
    pub fn cross_traffic(&self) -> CrossTrafficVerdict {
        self.detector.verdict()
    }

    /// Feeds the ordering classification of one congestion ACK (from the
    /// measurement engine) into the multipath detector.
    pub fn on_ack_ordering(&mut self, ordering: AckOrdering, now: Nanos) {
        self.multipath.on_ack(ordering, now);
    }

    /// Signals that no feedback has arrived for the configured timeout.
    pub fn on_feedback_timeout(&mut self, now: Nanos) -> Rate {
        let update = self.cc.on_feedback_timeout(now);
        if self.mode == Mode::DelayControl {
            self.current_rate = update
                .rate
                .clamp(self.config.min_rate, self.config.max_rate);
        }
        self.current_rate
    }

    /// True while the controller is in the graceful-degradation fallback.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Enters the graceful-degradation fallback: the feedback channel is
    /// considered dead, so the bundle reverts to status-quo behaviour
    /// (unlimited pass-through at `max_rate`) rather than keep acting on
    /// stale congestion state. Recorded as a transition to [`Mode::Disabled`]
    /// so the outage is visible in the mode timeline.
    pub fn enter_degraded(&mut self, now: Nanos) -> Rate {
        if !self.degraded {
            self.degraded = true;
            self.set_mode(Mode::Disabled, now);
            self.current_rate = self.config.max_rate;
        }
        self.current_rate
    }

    /// Leaves the degradation fallback (feedback is flowing again) and
    /// re-engages delay control from the congestion controller's preserved
    /// state.
    pub fn exit_degraded(&mut self, now: Nanos) {
        if self.degraded {
            self.degraded = false;
            self.set_mode(Mode::DelayControl, now);
        }
    }

    fn set_mode(&mut self, mode: Mode, now: Nanos) {
        if self.mode != mode {
            self.mode = mode;
            self.transitions.push((now, mode));
            if mode == Mode::PassThrough {
                // Start the PI controller from the last rate so there is no
                // discontinuity, then let it open up to build the target
                // queue.
                self.pi.reset(self.current_rate, now);
            }
        }
    }

    /// One control tick (every `control_interval`).
    ///
    /// * `measurement` — the aggregated congestion signals, if any epoch
    ///   samples arrived recently.
    /// * `sendbox_queue_bytes` — current occupancy of the sendbox scheduler,
    ///   needed by the pass-through PI controller.
    ///
    /// Returns the pacing rate to enforce until the next tick.
    pub fn on_tick(
        &mut self,
        measurement: Option<&Measurement>,
        sendbox_queue_bytes: u64,
        now: Nanos,
    ) -> Rate {
        // Feedback blackout: hold status-quo pass-through until an ACK
        // arrives again (the sendbox calls `exit_degraded` at that point).
        if self.degraded {
            self.current_rate = self.config.max_rate;
            return self.current_rate;
        }

        // Multipath imbalance overrides everything.
        if self.config.enable_multipath_detection && self.multipath.imbalanced() {
            self.set_mode(Mode::Disabled, now);
            self.current_rate = self.config.max_rate;
            return self.current_rate;
        } else if self.mode == Mode::Disabled {
            // Paths became balanced again.
            self.set_mode(Mode::DelayControl, now);
        }

        if let Some(m) = measurement {
            self.mu_filter.update(m.recv_rate.as_bps(), m.now);

            // Cross-traffic detection runs in every mode (that is the point
            // of keeping the small probing queue in pass-through).
            if self.config.enable_cross_traffic_detection {
                let verdict = self.detector.on_measurement(m, Some(self.mu()));
                self.track_verdict(verdict, now);
            }

            match self.mode {
                Mode::DelayControl => {
                    let update = self.cc.on_measurement(m);
                    let base = update.rate;
                    let rate = if self.config.enable_cross_traffic_detection {
                        self.pulser.apply(base, now, self.mu())
                    } else {
                        base
                    };
                    self.current_rate = rate.clamp(self.config.min_rate, self.config.max_rate);
                }
                Mode::PassThrough => {
                    // Keep the congestion controller's internal state warm
                    // so switching back is smooth, but ignore its output.
                    let _ = self.cc.on_measurement(m);
                    let base = self.pi.update(sendbox_queue_bytes, self.mu(), now);
                    let rate = self.pulser.apply(base, now, self.mu());
                    self.current_rate = rate.clamp(self.config.min_rate, self.config.max_rate);
                }
                Mode::Disabled => unreachable!("handled above"),
            }
        } else if self.mode == Mode::PassThrough {
            // No fresh measurement, but the PI controller can still track
            // the local queue.
            let base = self.pi.update(sendbox_queue_bytes, self.mu(), now);
            self.current_rate = base.clamp(self.config.min_rate, self.config.max_rate);
        }

        self.current_rate
    }

    fn track_verdict(&mut self, verdict: CrossTrafficVerdict, now: Nanos) {
        match verdict {
            CrossTrafficVerdict::Elastic => {
                self.inelastic_since = None;
                let since = *self.elastic_since.get_or_insert(now);
                if self.mode == Mode::DelayControl
                    && now.saturating_since(since) >= self.config.elastic_hold
                {
                    self.set_mode(Mode::PassThrough, now);
                }
            }
            CrossTrafficVerdict::Inelastic => {
                self.elastic_since = None;
                let since = *self.inelastic_since.get_or_insert(now);
                if self.mode == Mode::PassThrough
                    && now.saturating_since(since) >= self.config.inelastic_hold
                {
                    self.set_mode(Mode::DelayControl, now);
                }
            }
        }
    }
}

// The configuration is not written: restore builds the controller — and its
// boxed congestion controller — from the same configuration first.
serde::layout!(state ModeController {
    cc, detector, pi, multipath, mode, mu_filter, elastic_since, inelastic_since, current_rate,
    transitions, degraded,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(
        now: Nanos,
        rtt_ms: u64,
        min_rtt_ms: u64,
        send_mbps: f64,
        recv_mbps: f64,
    ) -> Measurement {
        Measurement {
            now,
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(min_rtt_ms),
            send_rate: Rate::from_mbps_f64(send_mbps),
            recv_rate: Rate::from_mbps_f64(recv_mbps),
            acked_bytes: Rate::from_mbps_f64(recv_mbps).bytes_over(Duration::from_millis(10)),
            lost_samples: 0,
        }
    }

    fn controller() -> ModeController {
        ModeController::new(BundlerConfig::default())
    }

    #[test]
    fn starts_in_delay_control() {
        let mc = controller();
        assert_eq!(mc.mode(), Mode::DelayControl);
        assert_eq!(mc.algorithm(), "nimbus");
        assert!(mc.transitions().is_empty());
    }

    #[test]
    fn stays_in_delay_control_without_cross_traffic() {
        let mut mc = controller();
        for i in 0..600u64 {
            let now = Nanos::from_millis(i * 10);
            // Fully delivered traffic, tiny queue.
            let m = measurement(now, 52, 50, 90.0, 90.0);
            mc.on_tick(Some(&m), 10_000, now);
        }
        assert_eq!(mc.mode(), Mode::DelayControl);
    }

    #[test]
    fn switches_to_pass_through_under_elastic_cross_traffic_and_back() {
        let mut mc = controller();
        // Phase 1: alone on a 96 Mbit/s link for 3 s (learns μ).
        for i in 0..300u64 {
            let now = Nanos::from_millis(i * 10);
            let m = measurement(now, 52, 50, 94.0, 94.0);
            mc.on_tick(Some(&m), 10_000, now);
        }
        assert_eq!(mc.mode(), Mode::DelayControl);

        // Phase 2: a backlogged flow appears; the bundle only gets half the
        // link and the bottleneck queue stays occupied.
        for i in 300..1000u64 {
            let now = Nanos::from_millis(i * 10);
            let m = measurement(now, 90, 50, 48.0, 46.0);
            mc.on_tick(Some(&m), 50_000, now);
        }
        assert_eq!(
            mc.mode(),
            Mode::PassThrough,
            "should detect buffer-filling cross traffic"
        );

        // Phase 3: the cross traffic leaves; full rate returns, queue drains.
        for i in 1000..1700u64 {
            let now = Nanos::from_millis(i * 10);
            let m = measurement(now, 53, 50, 94.0, 93.0);
            mc.on_tick(Some(&m), 120_000, now);
        }
        assert_eq!(mc.mode(), Mode::DelayControl, "should resume delay control");
        // Transition log records both switches.
        let modes: Vec<Mode> = mc.transitions().iter().map(|&(_, m)| m).collect();
        assert_eq!(modes, vec![Mode::PassThrough, Mode::DelayControl]);
    }

    #[test]
    fn multipath_imbalance_disables_and_reenables() {
        let mut mc = controller();
        // Feed mostly out-of-order ACK orderings.
        for i in 0..200u64 {
            let ordering = if i % 3 == 0 {
                AckOrdering::OutOfOrder
            } else {
                AckOrdering::InOrder
            };
            mc.on_ack_ordering(ordering, Nanos::from_millis(i));
        }
        let now = Nanos::from_millis(2000);
        let m = measurement(now, 52, 50, 90.0, 90.0);
        let rate = mc.on_tick(Some(&m), 0, now);
        assert_eq!(mc.mode(), Mode::Disabled);
        assert_eq!(rate, BundlerConfig::default().max_rate);

        // A long run of in-order ACKs clears the detector.
        for i in 0..600u64 {
            mc.on_ack_ordering(AckOrdering::InOrder, Nanos::from_millis(3000 + i));
        }
        let now2 = Nanos::from_millis(4000);
        mc.on_tick(Some(&m), 0, now2);
        assert_eq!(mc.mode(), Mode::DelayControl);
    }

    #[test]
    fn pass_through_rate_tracks_queue_target() {
        let config = BundlerConfig {
            elastic_hold: Duration::from_millis(100),
            ..Default::default()
        };
        let mut mc = ModeController::new(config);
        // Learn μ, then force elastic conditions to enter pass-through.
        for i in 0..200u64 {
            let now = Nanos::from_millis(i * 10);
            mc.on_tick(Some(&measurement(now, 52, 50, 94.0, 94.0)), 0, now);
        }
        for i in 200..400u64 {
            let now = Nanos::from_millis(i * 10);
            mc.on_tick(Some(&measurement(now, 90, 50, 48.0, 46.0)), 30_000, now);
        }
        assert_eq!(mc.mode(), Mode::PassThrough);
        // With an empty sendbox queue the PI controller cuts the rate (to
        // build the probing queue); with a queue well above the 10 ms target
        // it raises the rate (to drain it). Sample both after a whole number
        // of pulse periods so the pulse phase cancels out of the comparison.
        for i in 400..600u64 {
            let now = Nanos::from_millis(i * 10);
            mc.on_tick(Some(&measurement(now, 90, 50, 48.0, 46.0)), 0, now);
        }
        let rate_with_empty_queue = mc.rate();
        for i in 600..800u64 {
            let now = Nanos::from_millis(i * 10);
            // ~34 ms of queue at 94 Mbit/s: far above the 10 ms target.
            mc.on_tick(Some(&measurement(now, 90, 50, 48.0, 46.0)), 400_000, now);
        }
        let rate_with_big_queue = mc.rate();
        assert!(
            rate_with_big_queue > rate_with_empty_queue,
            "PI controller should raise the rate when the queue exceeds the target \
             ({rate_with_big_queue} vs {rate_with_empty_queue})"
        );
        assert_eq!(mc.mode(), Mode::PassThrough);
    }

    #[test]
    fn detection_can_be_disabled() {
        let config = BundlerConfig {
            enable_cross_traffic_detection: false,
            enable_multipath_detection: false,
            ..Default::default()
        };
        let mut mc = ModeController::new(config);
        for i in 0..200u64 {
            let ordering = AckOrdering::OutOfOrder;
            mc.on_ack_ordering(ordering, Nanos::from_millis(i));
        }
        for i in 0..1000u64 {
            let now = Nanos::from_millis(i * 10);
            mc.on_tick(Some(&measurement(now, 90, 50, 48.0, 46.0)), 50_000, now);
        }
        assert_eq!(
            mc.mode(),
            Mode::DelayControl,
            "detection disabled: never leaves delay control"
        );
    }

    #[test]
    fn feedback_timeout_reduces_rate() {
        let mut mc = controller();
        for i in 0..50u64 {
            let now = Nanos::from_millis(i * 10);
            mc.on_tick(Some(&measurement(now, 52, 50, 90.0, 90.0)), 0, now);
        }
        let before = mc.rate();
        let after = mc.on_feedback_timeout(Nanos::from_secs(2));
        assert!(after < before);
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::DelayControl.to_string(), "delay-control");
        assert_eq!(Mode::PassThrough.to_string(), "pass-through");
        assert_eq!(Mode::Disabled.to_string(), "disabled");
    }
}
