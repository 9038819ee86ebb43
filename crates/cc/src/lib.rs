//! Congestion-control algorithms for the Bundler workspace.
//!
//! Two families live here:
//!
//! * **Rate-based controllers for the sendbox** ([`copa::Copa`],
//!   [`nimbus::Nimbus`], [`bbr::Bbr`]): they consume epoch-based
//!   [`Measurement`]s produced by `bundler-core` and output a pacing rate for
//!   the whole bundle. The paper runs Copa by default, with Nimbus providing
//!   the buffer-filling cross-traffic detector.
//! * **Window-based controllers for simulated endhosts** ([`cubic::Cubic`],
//!   [`reno::NewReno`], [`vegas::Vegas`], and BBR again): they implement the
//!   [`WindowCc`] trait the simulator's TCP senders drive with per-ACK and
//!   per-loss callbacks.
//!
//! Keeping both in one crate mirrors the paper's observation that the
//! sendbox simply reuses *existing* congestion control algorithms — the same
//! algorithm code can run at an endhost or on a bundle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bbr;
pub mod copa;
pub mod cubic;
pub mod fft;
pub mod nimbus;
pub mod reno;
pub mod vegas;
pub mod windowed;

use bundler_types::{Duration, Nanos, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader, State};

/// One round of congestion signals measured over (roughly) an RTT.
///
/// `bundler-core`'s measurement module produces these from congestion ACKs;
/// the simulator's endhosts produce per-ACK equivalents internally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Time the measurement was taken.
    pub now: Nanos,
    /// Smoothed round-trip time over the last window of epochs.
    pub rtt: Duration,
    /// Minimum RTT observed since the bundle started (the propagation-delay
    /// estimate).
    pub min_rtt: Duration,
    /// Rate at which the sendbox transmitted over the window.
    pub send_rate: Rate,
    /// Rate at which the receivebox received over the window.
    pub recv_rate: Rate,
    /// Bytes acknowledged by congestion ACKs in this window.
    pub acked_bytes: u64,
    /// Packets (epoch boundaries) lost or reordered in this window.
    pub lost_samples: u64,
}

impl Measurement {
    /// Queueing delay implied by this measurement: `rtt - min_rtt`.
    pub fn queue_delay(&self) -> Duration {
        self.rtt.saturating_sub(self.min_rtt)
    }
}

serde::layout!(value Measurement {
    now, rtt, min_rtt, send_rate, recv_rate, acked_bytes, lost_samples,
});

/// A rate update produced by a bundle congestion controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateUpdate {
    /// The pacing rate to enforce at the sendbox until the next update.
    pub rate: Rate,
    /// The controller's current estimate of the bottleneck capacity, if it
    /// forms one (used by Nimbus pulsing and by diagnostics).
    pub bottleneck_estimate: Option<Rate>,
}

/// A congestion controller that operates on an aggregate (a bundle) and
/// outputs a pacing rate.
///
/// Implementations must be deterministic functions of the measurement stream
/// so that simulation runs are reproducible. Their [`State`] is the dynamic
/// part only — bounds, filter windows and gains are configuration: restore
/// builds the controller from the same [`BundleAlg`] first, then loads it,
/// so simulation checkpoints resume bit-identically.
pub trait BundleCc: Send + State {
    /// Called roughly once per 10 ms (the paper's control interval) with the
    /// latest measurement; returns the new pacing rate.
    fn on_measurement(&mut self, m: &Measurement) -> RateUpdate;

    /// Called when the sendbox detects that feedback has stopped arriving
    /// (e.g. a timeout); the controller should reset towards a conservative
    /// rate.
    fn on_feedback_timeout(&mut self, now: Nanos) -> RateUpdate;

    /// Current rate without processing a new measurement.
    fn current_rate(&self) -> Rate;

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;
}

/// Signals delivered to a window-based (endhost) congestion controller for
/// one ACK arrival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AckEvent {
    /// Time the ACK arrived at the sender.
    pub now: Nanos,
    /// Bytes newly acknowledged by this ACK.
    pub acked_bytes: u64,
    /// RTT sample for the acknowledged segment, if available.
    pub rtt_sample: Option<Duration>,
    /// Minimum RTT seen so far by the connection.
    pub min_rtt: Duration,
    /// Bytes currently in flight (after accounting for this ACK).
    pub inflight_bytes: u64,
}

/// Signals delivered on a loss event (triple duplicate ACK or RTO).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossEvent {
    /// Time the loss was detected.
    pub now: Nanos,
    /// Bytes considered lost.
    pub lost_bytes: u64,
    /// True if the loss was detected by retransmission timeout (more severe
    /// than a fast-retransmit loss).
    pub is_timeout: bool,
}

/// A window-based congestion controller, as run by endhost TCP senders. Its
/// [`State`] leaves out configuration (MSS, constants): restore builds the
/// controller from the same [`EndhostAlg`] first, then loads it.
pub trait WindowCc: Send + State {
    /// Congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Optional pacing rate; `None` means "window-limited only".
    fn pacing_rate(&self) -> Option<Rate> {
        None
    }

    /// Process an ACK.
    fn on_ack(&mut self, ev: &AckEvent);

    /// Process a loss event.
    fn on_loss(&mut self, ev: &LossEvent);

    /// Human-readable algorithm name.
    fn name(&self) -> &'static str;
}

impl State for Box<dyn BundleCc> {
    fn save_state(&self, out: &mut Vec<u8>) {
        (**self).save_state(out)
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        (**self).load_state(r)
    }
}

impl State for Box<dyn WindowCc> {
    fn save_state(&self, out: &mut Vec<u8>) {
        (**self).save_state(out)
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        (**self).load_state(r)
    }
}

/// Endhost congestion-control algorithm selector used by the simulator and
/// experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EndhostAlg {
    /// CUBIC (the Linux default, and the paper's default endhost algorithm).
    Cubic,
    /// TCP NewReno.
    NewReno,
    /// BBR v1 (simplified model).
    Bbr,
    /// TCP Vegas (delay-based).
    Vegas,
    /// Fixed congestion window; models the idealized TCP proxy of §7.5.
    FixedWindow(u64),
}

impl EndhostAlg {
    /// Instantiates the window-based controller, given the connection's MSS
    /// in bytes.
    pub fn build(self, mss: u64) -> Box<dyn WindowCc> {
        match self {
            EndhostAlg::Cubic => Box::new(cubic::Cubic::new(mss)),
            EndhostAlg::NewReno => Box::new(reno::NewReno::new(mss)),
            EndhostAlg::Bbr => Box::new(bbr::BbrWindow::new(mss)),
            EndhostAlg::Vegas => Box::new(vegas::Vegas::new(mss)),
            EndhostAlg::FixedWindow(pkts) => Box::new(FixedWindow {
                // Saturating: `pkts` is decoded from snapshots as well as
                // written by callers.
                cwnd: pkts.saturating_mul(mss),
            }),
        }
    }
}

impl Encode for EndhostAlg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            EndhostAlg::Cubic => 0u8.encode(out),
            EndhostAlg::NewReno => 1u8.encode(out),
            EndhostAlg::Bbr => 2u8.encode(out),
            EndhostAlg::Vegas => 3u8.encode(out),
            EndhostAlg::FixedWindow(pkts) => {
                4u8.encode(out);
                pkts.encode(out);
            }
        }
    }
}

impl Decode for EndhostAlg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(EndhostAlg::Cubic),
            1 => Ok(EndhostAlg::NewReno),
            2 => Ok(EndhostAlg::Bbr),
            3 => Ok(EndhostAlg::Vegas),
            4 => Ok(EndhostAlg::FixedWindow(u64::decode(r)?)),
            _ => Err(r.error("unknown endhost algorithm tag")),
        }
    }
}

impl std::fmt::Display for EndhostAlg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EndhostAlg::Cubic => write!(f, "cubic"),
            EndhostAlg::NewReno => write!(f, "newreno"),
            EndhostAlg::Bbr => write!(f, "bbr"),
            EndhostAlg::Vegas => write!(f, "vegas"),
            EndhostAlg::FixedWindow(p) => write!(f, "fixed({p})"),
        }
    }
}

/// Bundle (sendbox) congestion-control algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BundleAlg {
    /// Copa (the paper's default sendbox algorithm).
    Copa,
    /// Nimbus BasicDelay with elasticity detection.
    NimbusBasicDelay,
    /// BBR adapted to rate-based aggregate control.
    Bbr,
}

impl BundleAlg {
    /// Instantiates the bundle controller with an initial rate guess.
    pub fn build(self, initial_rate: Rate) -> Box<dyn BundleCc> {
        match self {
            BundleAlg::Copa => Box::new(copa::Copa::new(copa::CopaConfig::default(), initial_rate)),
            BundleAlg::NimbusBasicDelay => {
                // When BasicDelay runs under Bundler's mode controller, the
                // controller superimposes the Nimbus probe pulses itself, so
                // the algorithm's own pulsing is disabled here.
                let config = nimbus::NimbusConfig {
                    enable_pulses: false,
                    ..Default::default()
                };
                Box::new(nimbus::Nimbus::new(config, initial_rate))
            }
            BundleAlg::Bbr => Box::new(bbr::Bbr::new(initial_rate)),
        }
    }
}

impl std::fmt::Display for BundleAlg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BundleAlg::Copa => write!(f, "copa"),
            BundleAlg::NimbusBasicDelay => write!(f, "nimbus"),
            BundleAlg::Bbr => write!(f, "bbr"),
        }
    }
}

/// A constant-window "controller" used to emulate the idealized TCP proxy of
/// §7.5, where endhosts keep a fixed 450-packet window.
#[derive(Debug)]
struct FixedWindow {
    cwnd: u64,
}

serde::layout!(state FixedWindow { cwnd });

impl WindowCc for FixedWindow {
    fn cwnd(&self) -> u64 {
        self.cwnd
    }
    fn on_ack(&mut self, _ev: &AckEvent) {}
    fn on_loss(&mut self, _ev: &LossEvent) {}
    fn name(&self) -> &'static str {
        "fixed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_window_saturates_instead_of_overflowing() {
        // A snapshot can carry any packet count.
        assert_eq!(
            EndhostAlg::FixedWindow(u64::MAX).build(1460).cwnd(),
            u64::MAX
        );
    }

    #[test]
    fn measurement_queue_delay() {
        let m = Measurement {
            now: Nanos::ZERO,
            rtt: Duration::from_millis(60),
            min_rtt: Duration::from_millis(50),
            send_rate: Rate::from_mbps(50),
            recv_rate: Rate::from_mbps(48),
            acked_bytes: 100_000,
            lost_samples: 0,
        };
        assert_eq!(m.queue_delay(), Duration::from_millis(10));
    }

    #[test]
    fn endhost_alg_builders() {
        for alg in [
            EndhostAlg::Cubic,
            EndhostAlg::NewReno,
            EndhostAlg::Bbr,
            EndhostAlg::Vegas,
            EndhostAlg::FixedWindow(450),
        ] {
            let cc = alg.build(1460);
            assert!(cc.cwnd() > 0, "{alg} initial cwnd must be positive");
        }
        assert_eq!(EndhostAlg::FixedWindow(450).build(1460).cwnd(), 450 * 1460);
    }

    #[test]
    fn bundle_alg_builders() {
        for alg in [BundleAlg::Copa, BundleAlg::NimbusBasicDelay, BundleAlg::Bbr] {
            let cc = alg.build(Rate::from_mbps(10));
            assert!(
                !cc.current_rate().is_zero(),
                "{alg} should start at a non-zero rate"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(BundleAlg::Copa.to_string(), "copa");
        assert_eq!(EndhostAlg::FixedWindow(3).to_string(), "fixed(3)");
    }

    /// Drives a controller, snapshots it, loads the bytes into a freshly
    /// built one, and checks the two agree — both immediately and after
    /// processing one more identical event.
    #[test]
    fn endhost_state_round_trips() {
        for alg in [
            EndhostAlg::Cubic,
            EndhostAlg::NewReno,
            EndhostAlg::Bbr,
            EndhostAlg::Vegas,
            EndhostAlg::FixedWindow(450),
        ] {
            let mut cc = alg.build(1460);
            for i in 0..40u64 {
                cc.on_ack(&AckEvent {
                    now: Nanos::from_millis(i * 10),
                    acked_bytes: 1460,
                    rtt_sample: Some(Duration::from_millis(50)),
                    min_rtt: Duration::from_millis(50),
                    inflight_bytes: 40 * 1460,
                });
            }
            cc.on_loss(&LossEvent {
                now: Nanos::from_millis(400),
                lost_bytes: 1460,
                is_timeout: false,
            });
            let mut buf = Vec::new();
            cc.save_state(&mut buf);
            let mut restored = alg.build(1460);
            let mut r = Reader::new(&buf);
            restored.load_state(&mut r).unwrap();
            assert!(r.is_empty(), "{alg}: trailing snapshot bytes");
            assert_eq!(restored.cwnd(), cc.cwnd(), "{alg}: cwnd after load");
            let next = AckEvent {
                now: Nanos::from_millis(500),
                acked_bytes: 1460,
                rtt_sample: Some(Duration::from_millis(55)),
                min_rtt: Duration::from_millis(50),
                inflight_bytes: 20 * 1460,
            };
            cc.on_ack(&next);
            restored.on_ack(&next);
            assert_eq!(restored.cwnd(), cc.cwnd(), "{alg}: cwnd diverged");
            assert_eq!(restored.pacing_rate(), cc.pacing_rate(), "{alg}: pacing");
        }
    }

    #[test]
    fn bundle_state_round_trips() {
        for alg in [BundleAlg::Copa, BundleAlg::NimbusBasicDelay, BundleAlg::Bbr] {
            let initial = Rate::from_mbps(10);
            let mut cc = alg.build(initial);
            for i in 0..60u64 {
                cc.on_measurement(&Measurement {
                    now: Nanos::from_millis(i * 10),
                    rtt: Duration::from_millis(52),
                    min_rtt: Duration::from_millis(50),
                    send_rate: Rate::from_mbps(48),
                    recv_rate: Rate::from_mbps(48),
                    acked_bytes: 60_000,
                    lost_samples: 0,
                });
            }
            let mut buf = Vec::new();
            cc.save_state(&mut buf);
            let mut restored = alg.build(initial);
            let mut r = Reader::new(&buf);
            restored.load_state(&mut r).unwrap();
            assert!(r.is_empty(), "{alg}: trailing snapshot bytes");
            assert_eq!(restored.current_rate(), cc.current_rate(), "{alg}: rate");
            let next = Measurement {
                now: Nanos::from_millis(600),
                rtt: Duration::from_millis(60),
                min_rtt: Duration::from_millis(50),
                send_rate: Rate::from_mbps(50),
                recv_rate: Rate::from_mbps(46),
                acked_bytes: 57_000,
                lost_samples: 1,
            };
            assert_eq!(
                cc.on_measurement(&next),
                restored.on_measurement(&next),
                "{alg}: update diverged"
            );
        }
    }
}
