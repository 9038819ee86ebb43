//! TCP CUBIC (Ha, Rhee, Xu — the Linux default), window-based.
//!
//! The simulator's endhosts run CUBIC by default, exactly as the paper's
//! testbed endhosts do. The implementation follows RFC 8312: slow start up
//! to `ssthresh`, multiplicative decrease by β = 0.7 on loss, and the cubic
//! window growth function `W(t) = C·(t − K)³ + W_max` during congestion
//! avoidance.

use bundler_types::Nanos;

use crate::{AckEvent, LossEvent, WindowCc};

/// CUBIC constants from RFC 8312.
const C: f64 = 0.4;
const BETA: f64 = 0.7;

/// CUBIC congestion controller.
#[derive(Debug)]
pub struct Cubic {
    mss: u64,
    cwnd: f64,
    ssthresh: f64,
    /// Window size (in packets) just before the last loss.
    w_max: f64,
    /// Time of the last loss event.
    epoch_start: Option<Nanos>,
    /// The K parameter: time to grow back to `w_max`.
    k: f64,
    in_recovery_until: Option<Nanos>,
}

impl Cubic {
    /// Creates a CUBIC controller with an initial window of 10 segments
    /// (RFC 6928).
    pub fn new(mss: u64) -> Self {
        Cubic {
            mss,
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
            in_recovery_until: None,
        }
    }

    /// Congestion window in packets (fractional).
    pub fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }

    /// True while ignoring further losses in the same window (one reaction
    /// per RTT).
    fn in_recovery(&self, now: Nanos) -> bool {
        matches!(self.in_recovery_until, Some(until) if now < until)
    }

    fn cubic_window(&self, t_secs: f64) -> f64 {
        C * (t_secs - self.k).powi(3) + self.w_max
    }
}

impl WindowCc for Cubic {
    fn cwnd(&self) -> u64 {
        (self.cwnd.max(2.0) * self.mss as f64) as u64
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        let acked_pkts = ev.acked_bytes as f64 / self.mss as f64;
        if self.cwnd < self.ssthresh {
            // Slow start: one packet per acked packet.
            self.cwnd += acked_pkts;
            return;
        }
        // Congestion avoidance: chase the cubic function.
        let epoch_start = *self.epoch_start.get_or_insert(ev.now);
        let t = ev.now.saturating_since(epoch_start).as_secs_f64();
        // Include one RTT of lookahead, as the RFC does, so the window keeps
        // moving even with coarse ACK clocking.
        let target = self.cubic_window(t + ev.rtt_sample.map(|r| r.as_secs_f64()).unwrap_or(0.0));
        if target > self.cwnd {
            // Spread the increase over the current window's worth of ACKs.
            self.cwnd += (target - self.cwnd) / self.cwnd * acked_pkts;
        } else {
            // TCP-friendly floor: grow at least like Reno's 1/cwnd per ACK,
            // scaled down, so the window never stalls completely.
            self.cwnd += 0.01 * acked_pkts / self.cwnd;
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        if ev.is_timeout {
            // RTO: collapse to slow start from a tiny window.
            self.ssthresh = (self.cwnd * BETA).max(2.0);
            self.w_max = self.cwnd;
            self.cwnd = 2.0;
            self.epoch_start = None;
            self.in_recovery_until = None;
            return;
        }
        if self.in_recovery(ev.now) {
            return;
        }
        self.w_max = self.cwnd;
        self.cwnd = (self.cwnd * BETA).max(2.0);
        self.ssthresh = self.cwnd;
        self.k = (self.w_max * (1.0 - BETA) / C).cbrt();
        self.epoch_start = Some(ev.now);
        // Suppress further reactions for ~1 RTT (approximated as 100 ms when
        // the caller does not deliver RTT-spaced loss events).
        self.in_recovery_until = Some(ev.now + bundler_types::Duration::from_millis(100));
    }

    fn name(&self) -> &'static str {
        "cubic"
    }
}

serde::layout!(state Cubic { cwnd, ssthresh, w_max, epoch_start, k, in_recovery_until });

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::Duration;

    fn ack(now_ms: u64, bytes: u64) -> AckEvent {
        AckEvent {
            now: Nanos::from_millis(now_ms),
            acked_bytes: bytes,
            rtt_sample: Some(Duration::from_millis(50)),
            min_rtt: Duration::from_millis(50),
            inflight_bytes: 0,
        }
    }

    fn loss(now_ms: u64, timeout: bool) -> LossEvent {
        LossEvent {
            now: Nanos::from_millis(now_ms),
            lost_bytes: 1460,
            is_timeout: timeout,
        }
    }

    #[test]
    fn starts_with_iw10() {
        let c = Cubic::new(1460);
        assert_eq!(c.cwnd(), 14_600);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut c = Cubic::new(1460);
        // One RTT's worth of ACKs for the whole window doubles it.
        let w0 = c.cwnd_packets();
        for _ in 0..10 {
            c.on_ack(&ack(10, 1460));
        }
        assert!((c.cwnd_packets() - 2.0 * w0).abs() < 1e-6);
    }

    #[test]
    fn loss_multiplies_window_by_beta() {
        let mut c = Cubic::new(1460);
        for _ in 0..100 {
            c.on_ack(&ack(10, 1460));
        }
        let before = c.cwnd_packets();
        c.on_loss(&loss(20, false));
        assert!((c.cwnd_packets() - before * 0.7).abs() < 1e-6);
    }

    #[test]
    fn only_one_reaction_per_recovery_period() {
        let mut c = Cubic::new(1460);
        for _ in 0..100 {
            c.on_ack(&ack(10, 1460));
        }
        c.on_loss(&loss(20, false));
        let after_first = c.cwnd_packets();
        c.on_loss(&loss(25, false));
        assert_eq!(
            c.cwnd_packets(),
            after_first,
            "second loss in same window ignored"
        );
        // After the recovery period, a loss is honored again.
        c.on_loss(&loss(200, false));
        assert!(c.cwnd_packets() < after_first);
    }

    #[test]
    fn timeout_collapses_window() {
        let mut c = Cubic::new(1460);
        for _ in 0..100 {
            c.on_ack(&ack(10, 1460));
        }
        c.on_loss(&loss(20, true));
        assert!((c.cwnd_packets() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cubic_growth_recovers_towards_w_max() {
        let mut c = Cubic::new(1460);
        // Get to congestion avoidance with a known w_max.
        for _ in 0..200 {
            c.on_ack(&ack(10, 1460));
        }
        c.on_loss(&loss(1000, false));
        let after_loss = c.cwnd_packets();
        let w_max = c.w_max;
        // Feed ACKs over simulated time; the window should grow back toward
        // w_max over a few seconds (concave region).
        let mut now_ms = 1000;
        for _ in 0..400 {
            now_ms += 10;
            c.on_ack(&ack(now_ms, 1460));
        }
        assert!(c.cwnd_packets() > after_loss);
        assert!(
            c.cwnd_packets() > 0.9 * w_max,
            "cwnd {} should approach w_max {}",
            c.cwnd_packets(),
            w_max
        );
    }

    #[test]
    fn window_never_below_two_packets() {
        let mut c = Cubic::new(1460);
        for i in 0..10 {
            c.on_loss(&loss(i * 200, false));
        }
        assert!(c.cwnd() >= 2 * 1460);
        assert_eq!(c.name(), "cubic");
    }
}
