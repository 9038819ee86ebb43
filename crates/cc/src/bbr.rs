//! BBR (Bottleneck Bandwidth and RTT) congestion control, in two forms:
//!
//! * [`Bbr`]: a rate-based adaptation used as a sendbox (bundle) controller.
//!   The paper's Figure 14 shows that BBR at the sendbox performs slightly
//!   worse than the status quo because it keeps more packets in the network
//!   than the delay-targeting schemes; this implementation reproduces that
//!   behaviour via the standard ProbeBW pacing-gain cycle.
//! * [`BbrWindow`]: a window-based endhost model (simplified BBRv1) for the
//!   §7.4 endhost-algorithm sweep.
//!
//! Both follow the published design: a windowed-max filter over delivery
//! rate, a windowed-min filter over RTT, startup/drain/probe phases, and
//! loss-agnostic operation.

use bundler_types::{Duration, Nanos, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::windowed::WindowedFilter;
use crate::{AckEvent, BundleCc, LossEvent, Measurement, RateUpdate, WindowCc};

/// ProbeBW pacing-gain cycle (from the BBR paper).
const PROBE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Startup pacing gain (2/ln2).
const STARTUP_GAIN: f64 = 2.885;
/// Drain gain (inverse of startup).
const DRAIN_GAIN: f64 = 1.0 / 2.885;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Startup,
    Drain,
    ProbeBw,
}

impl Encode for Phase {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Phase::Startup => 0,
            Phase::Drain => 1,
            Phase::ProbeBw => 2,
        };
        tag.encode(out);
    }
}

impl Decode for Phase {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Phase::Startup),
            1 => Ok(Phase::Drain),
            2 => Ok(Phase::ProbeBw),
            _ => Err(r.error("invalid bbr phase tag")),
        }
    }
}

/// Rate-based BBR for bundle control at the sendbox.
#[derive(Debug)]
pub struct Bbr {
    max_bw: WindowedFilter<u64>,
    min_rtt: WindowedFilter<u64>,
    phase: Phase,
    /// Bandwidth at the last plateau check.
    full_bw: Rate,
    full_bw_rounds: u32,
    cycle_index: usize,
    cycle_start: Nanos,
    last_rate: Rate,
    min_rate: Rate,
    max_rate: Rate,
}

impl Bbr {
    /// Creates a BBR bundle controller starting at `initial_rate`.
    pub fn new(initial_rate: Rate) -> Self {
        Bbr {
            max_bw: WindowedFilter::new_max(Duration::from_secs(10)),
            min_rtt: WindowedFilter::new_min(Duration::from_secs(10)),
            phase: Phase::Startup,
            full_bw: Rate::ZERO,
            full_bw_rounds: 0,
            cycle_index: 0,
            cycle_start: Nanos::ZERO,
            last_rate: initial_rate.max(Rate::from_kbps(100)),
            min_rate: Rate::from_kbps(100),
            max_rate: Rate::from_gbps(20),
        }
    }

    /// Current bottleneck-bandwidth estimate.
    pub fn bottleneck_bw(&self) -> Rate {
        Rate::from_bps(self.max_bw.get().unwrap_or(self.last_rate.as_bps()))
    }

    /// Current phase name (for diagnostics).
    pub fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Startup => "startup",
            Phase::Drain => "drain",
            Phase::ProbeBw => "probe_bw",
        }
    }
}

impl BundleCc for Bbr {
    fn on_measurement(&mut self, m: &Measurement) -> RateUpdate {
        if m.rtt.is_zero() {
            return RateUpdate {
                rate: self.last_rate,
                bottleneck_estimate: None,
            };
        }
        self.max_bw.update(m.recv_rate.as_bps(), m.now);
        self.min_rtt.update(m.rtt.as_nanos(), m.now);
        let bw = self.bottleneck_bw();
        let min_rtt = Duration(self.min_rtt.get().unwrap_or(m.rtt.as_nanos()));

        match self.phase {
            Phase::Startup => {
                // Exit startup when bandwidth stops growing by >25 % across
                // three consecutive measurements.
                if bw.as_bps() as f64 > self.full_bw.as_bps() as f64 * 1.25 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= 3 {
                        self.phase = Phase::Drain;
                    }
                }
                self.last_rate = bw.mul_f64(STARTUP_GAIN).max(self.last_rate.mul_f64(1.1));
            }
            Phase::Drain => {
                self.last_rate = bw.mul_f64(DRAIN_GAIN);
                // Leave drain once the queue (rtt − min_rtt) is roughly
                // gone.
                if m.queue_delay() < Duration::from_millis(2) {
                    self.phase = Phase::ProbeBw;
                    self.cycle_start = m.now;
                    self.cycle_index = 2; // start in a cruise slot
                }
            }
            Phase::ProbeBw => {
                // Advance the gain cycle once per min_rtt.
                if m.now.saturating_since(self.cycle_start) >= min_rtt {
                    self.cycle_index = (self.cycle_index + 1) % PROBE_GAINS.len();
                    self.cycle_start = m.now;
                }
                self.last_rate = bw.mul_f64(PROBE_GAINS[self.cycle_index]);
            }
        }
        self.last_rate = self.last_rate.clamp(self.min_rate, self.max_rate);
        RateUpdate {
            rate: self.last_rate,
            bottleneck_estimate: Some(bw),
        }
    }

    fn on_feedback_timeout(&mut self, _now: Nanos) -> RateUpdate {
        self.last_rate = self
            .last_rate
            .mul_f64(0.5)
            .clamp(self.min_rate, self.max_rate);
        self.phase = Phase::Startup;
        self.full_bw = Rate::ZERO;
        self.full_bw_rounds = 0;
        RateUpdate {
            rate: self.last_rate,
            bottleneck_estimate: None,
        }
    }

    fn current_rate(&self) -> Rate {
        self.last_rate
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

serde::layout!(state Bbr {
    max_bw, min_rtt, phase, full_bw, full_bw_rounds, cycle_index, cycle_start, last_rate,
} check |bbr| bbr.cycle_index < PROBE_GAINS.len(), "bbr cycle index out of range");

/// Window-based BBR model for simulated endhosts.
#[derive(Debug)]
pub struct BbrWindow {
    mss: u64,
    max_bw: WindowedFilter<u64>,
    min_rtt: WindowedFilter<u64>,
    phase: Phase,
    full_bw: f64,
    full_bw_rounds: u32,
    cycle_index: usize,
    cycle_start: Nanos,
    cwnd: u64,
}

impl BbrWindow {
    /// Creates an endhost BBR controller.
    pub fn new(mss: u64) -> Self {
        BbrWindow {
            mss,
            max_bw: WindowedFilter::new_max(Duration::from_secs(10)),
            min_rtt: WindowedFilter::new_min(Duration::from_secs(10)),
            phase: Phase::Startup,
            full_bw: 0.0,
            full_bw_rounds: 0,
            cycle_index: 0,
            cycle_start: Nanos::ZERO,
            cwnd: 10 * mss,
        }
    }

    fn bdp_bytes(&self) -> Option<u64> {
        let bw = self.max_bw.get()? as f64 / 8.0; // bytes/s
        let rtt = Duration(self.min_rtt.get()?).as_secs_f64();
        Some((bw * rtt) as u64)
    }
}

impl WindowCc for BbrWindow {
    fn cwnd(&self) -> u64 {
        self.cwnd.max(2 * self.mss)
    }

    fn pacing_rate(&self) -> Option<Rate> {
        let bw = Rate::from_bps(self.max_bw.get()?);
        let gain = match self.phase {
            Phase::Startup => STARTUP_GAIN,
            Phase::Drain => DRAIN_GAIN,
            Phase::ProbeBw => PROBE_GAINS[self.cycle_index],
        };
        Some(bw.mul_f64(gain))
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        // Delivery-rate sample: bytes acked over the RTT they took.
        if let Some(rtt) = ev.rtt_sample {
            if !rtt.is_zero() {
                let rate = Rate::from_bytes_over(ev.acked_bytes.max(self.mss), rtt);
                // A single ACK's sample underestimates badly when the window
                // is large; scale by inflight/acked to approximate the true
                // delivery rate of the whole window.
                let scale = (ev.inflight_bytes.max(ev.acked_bytes) / ev.acked_bytes.max(1)).max(1);
                self.max_bw
                    .update(rate.as_bps().saturating_mul(scale), ev.now);
                self.min_rtt.update(rtt.as_nanos(), ev.now);
            }
        }

        match self.phase {
            Phase::Startup => {
                self.cwnd += ev.acked_bytes;
                let bw = self.max_bw.get().unwrap_or(0) as f64;
                if bw > self.full_bw * 1.25 {
                    self.full_bw = bw;
                    self.full_bw_rounds = 0;
                } else {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= 30 {
                        self.phase = Phase::Drain;
                    }
                }
            }
            Phase::Drain => {
                if let Some(bdp) = self.bdp_bytes() {
                    if ev.inflight_bytes <= bdp {
                        self.phase = Phase::ProbeBw;
                        self.cycle_start = ev.now;
                        self.cycle_index = 2;
                    }
                    self.cwnd = 2 * bdp.max(2 * self.mss);
                }
            }
            Phase::ProbeBw => {
                if let Some(bdp) = self.bdp_bytes() {
                    self.cwnd = (2 * bdp).max(4 * self.mss);
                }
                let min_rtt = Duration(self.min_rtt.get().unwrap_or(0));
                if !min_rtt.is_zero() && ev.now.saturating_since(self.cycle_start) >= min_rtt {
                    self.cycle_index = (self.cycle_index + 1) % PROBE_GAINS.len();
                    self.cycle_start = ev.now;
                }
            }
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        // BBR largely ignores individual losses; an RTO still resets.
        if ev.is_timeout {
            self.cwnd = 4 * self.mss;
            self.phase = Phase::Startup;
            self.full_bw = 0.0;
            self.full_bw_rounds = 0;
        }
    }

    fn name(&self) -> &'static str {
        "bbr"
    }
}

serde::layout!(state BbrWindow {
    max_bw, min_rtt, phase, full_bw, full_bw_rounds, cycle_index, cycle_start, cwnd,
} check |bbr| bbr.cycle_index < PROBE_GAINS.len(), "bbr cycle index out of range");

#[cfg(test)]
mod tests {
    use super::*;

    fn m(now_ms: u64, rtt_ms: u64, min_rtt_ms: u64, recv_mbps: u64) -> Measurement {
        Measurement {
            now: Nanos::from_millis(now_ms),
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(min_rtt_ms),
            send_rate: Rate::from_mbps(recv_mbps),
            recv_rate: Rate::from_mbps(recv_mbps),
            acked_bytes: Rate::from_mbps(recv_mbps).bytes_over(Duration::from_millis(10)),
            lost_samples: 0,
        }
    }

    #[test]
    fn startup_exits_when_bandwidth_plateaus() {
        let mut bbr = Bbr::new(Rate::from_mbps(1));
        assert_eq!(bbr.phase_name(), "startup");
        // Bandwidth capped at 96: after a few flat measurements it must
        // leave startup.
        for i in 0..20 {
            bbr.on_measurement(&m(i * 10, 52, 50, 96));
        }
        assert_ne!(bbr.phase_name(), "startup");
    }

    #[test]
    fn probe_bw_rate_stays_near_bottleneck() {
        let mut bbr = Bbr::new(Rate::from_mbps(1));
        for i in 0..200 {
            bbr.on_measurement(&m(i * 10, 51, 50, 96));
        }
        assert_eq!(bbr.phase_name(), "probe_bw");
        let rate = bbr.current_rate().as_mbps_f64();
        assert!(
            (70.0..125.0).contains(&rate),
            "probe_bw rate {rate} should hover near 96"
        );
        assert!((bbr.bottleneck_bw().as_mbps_f64() - 96.0).abs() < 1.0);
    }

    #[test]
    fn probe_gain_cycle_includes_overshoot() {
        let mut bbr = Bbr::new(Rate::from_mbps(1));
        let mut max_rate: f64 = 0.0;
        for i in 0..500 {
            let u = bbr.on_measurement(&m(i * 10, 51, 50, 96));
            if bbr.phase_name() == "probe_bw" {
                max_rate = max_rate.max(u.rate.as_mbps_f64());
            }
        }
        // The 1.25 gain slot should show up: rate exceeds the bottleneck.
        assert!(max_rate > 110.0, "max probe rate {max_rate}");
    }

    #[test]
    fn feedback_timeout_restarts_startup() {
        let mut bbr = Bbr::new(Rate::from_mbps(50));
        for i in 0..50 {
            bbr.on_measurement(&m(i * 10, 51, 50, 96));
        }
        let before = bbr.current_rate();
        bbr.on_feedback_timeout(Nanos::from_secs(2));
        assert!(bbr.current_rate() < before);
        assert_eq!(bbr.phase_name(), "startup");
        assert_eq!(bbr.name(), "bbr");
    }

    #[test]
    fn window_bbr_grows_in_startup() {
        let mut bbr = BbrWindow::new(1460);
        let w0 = bbr.cwnd();
        for i in 0..20 {
            bbr.on_ack(&AckEvent {
                now: Nanos::from_millis(i * 10),
                acked_bytes: 1460,
                rtt_sample: Some(Duration::from_millis(50)),
                min_rtt: Duration::from_millis(50),
                inflight_bytes: 20 * 1460,
            });
        }
        assert!(bbr.cwnd() > w0);
        assert!(bbr.pacing_rate().is_some());
    }

    #[test]
    fn window_bbr_ignores_fast_retransmit_but_not_rto() {
        let mut bbr = BbrWindow::new(1460);
        for i in 0..50 {
            bbr.on_ack(&AckEvent {
                now: Nanos::from_millis(i * 10),
                acked_bytes: 1460,
                rtt_sample: Some(Duration::from_millis(50)),
                min_rtt: Duration::from_millis(50),
                inflight_bytes: 50 * 1460,
            });
        }
        let w = bbr.cwnd();
        bbr.on_loss(&LossEvent {
            now: Nanos::from_secs(1),
            lost_bytes: 1460,
            is_timeout: false,
        });
        assert_eq!(bbr.cwnd(), w, "fast retransmit ignored");
        bbr.on_loss(&LossEvent {
            now: Nanos::from_secs(1),
            lost_bytes: 1460,
            is_timeout: true,
        });
        assert_eq!(bbr.cwnd(), 4 * 1460);
        assert_eq!(bbr.name(), "bbr");
    }
}
