//! TCP Vegas (Brakmo & Peterson): delay-based endhost congestion control.
//!
//! Vegas compares the expected throughput (`cwnd / baseRTT`) with the actual
//! throughput (`cwnd / RTT`) and keeps the difference — the number of packets
//! the connection itself has queued in the network — between `alpha` and
//! `beta` packets. The paper cites Vegas as the classic example of a
//! delay-controlling scheme that competes poorly with loss-based flows,
//! which motivates Bundler's cross-traffic detection.

use crate::{AckEvent, LossEvent, WindowCc};

/// Vegas congestion controller.
#[derive(Debug)]
pub struct Vegas {
    mss: u64,
    cwnd: f64,
    ssthresh: f64,
    /// Lower bound on self-queued packets.
    alpha: f64,
    /// Upper bound on self-queued packets.
    beta: f64,
}

impl Vegas {
    /// Creates a Vegas controller with the conventional α = 2, β = 4.
    pub fn new(mss: u64) -> Self {
        Vegas {
            mss,
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            alpha: 2.0,
            beta: 4.0,
        }
    }

    /// Congestion window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }
}

impl WindowCc for Vegas {
    fn cwnd(&self) -> u64 {
        (self.cwnd.max(2.0) * self.mss as f64) as u64
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        let acked_pkts = ev.acked_bytes as f64 / self.mss as f64;
        let (rtt, base) = match ev.rtt_sample {
            Some(rtt) if !ev.min_rtt.is_zero() && !rtt.is_zero() => (rtt, ev.min_rtt),
            _ => {
                // No delay information: fall back to Reno-style growth.
                if self.cwnd < self.ssthresh {
                    self.cwnd += acked_pkts;
                } else {
                    self.cwnd += acked_pkts / self.cwnd;
                }
                return;
            }
        };
        // diff = cwnd·(1 − baseRTT/RTT): packets this connection queued.
        let diff = self.cwnd * (1.0 - base.as_secs_f64() / rtt.as_secs_f64());
        if self.cwnd < self.ssthresh && diff < self.beta {
            self.cwnd += acked_pkts;
        } else if diff < self.alpha {
            self.cwnd += acked_pkts / self.cwnd;
        } else if diff > self.beta {
            self.cwnd -= acked_pkts / self.cwnd;
            self.cwnd = self.cwnd.max(2.0);
        }
        // Between alpha and beta: hold steady.
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        if ev.is_timeout {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = 2.0;
        } else {
            self.ssthresh = (self.cwnd * 0.75).max(2.0);
            self.cwnd = self.ssthresh;
        }
    }

    fn name(&self) -> &'static str {
        "vegas"
    }
}

serde::layout!(state Vegas { cwnd, ssthresh });

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{Duration, Nanos};

    fn ack(rtt_ms: u64, base_ms: u64) -> AckEvent {
        AckEvent {
            now: Nanos::from_millis(1),
            acked_bytes: 1460,
            rtt_sample: Some(Duration::from_millis(rtt_ms)),
            min_rtt: Duration::from_millis(base_ms),
            inflight_bytes: 0,
        }
    }

    #[test]
    fn grows_when_no_queueing() {
        let mut v = Vegas::new(1460);
        let w0 = v.cwnd_packets();
        for _ in 0..20 {
            v.on_ack(&ack(50, 50));
        }
        assert!(v.cwnd_packets() > w0);
    }

    #[test]
    fn shrinks_when_self_queueing_exceeds_beta() {
        let mut v = Vegas::new(1460);
        // Make the window large first.
        for _ in 0..100 {
            v.on_ack(&ack(50, 50));
        }
        let big = v.cwnd_packets();
        // RTT double the base: diff = cwnd/2 >> beta.
        for _ in 0..50 {
            v.on_ack(&ack(100, 50));
        }
        assert!(v.cwnd_packets() < big);
    }

    #[test]
    fn holds_steady_in_band() {
        let mut v = Vegas::new(1460);
        // Pick rtt so diff lands between alpha(2) and beta(4):
        // diff = 10·(1 − 50/rtt) = 3  =>  rtt = 50/0.7 ≈ 71.4 ms.
        v.ssthresh = 5.0; // force congestion-avoidance path
        let before = v.cwnd_packets();
        for _ in 0..20 {
            v.on_ack(&AckEvent {
                now: Nanos::from_millis(1),
                acked_bytes: 1460,
                rtt_sample: Some(Duration::from_micros(71_430)),
                min_rtt: Duration::from_millis(50),
                inflight_bytes: 0,
            });
        }
        assert!((v.cwnd_packets() - before).abs() < 1e-9);
    }

    #[test]
    fn loss_reduces_window() {
        let mut v = Vegas::new(1460);
        for _ in 0..100 {
            v.on_ack(&ack(50, 50));
        }
        let before = v.cwnd_packets();
        v.on_loss(&LossEvent {
            now: Nanos::from_millis(2),
            lost_bytes: 1460,
            is_timeout: false,
        });
        assert!(v.cwnd_packets() < before);
        v.on_loss(&LossEvent {
            now: Nanos::from_millis(3),
            lost_bytes: 1460,
            is_timeout: true,
        });
        assert!((v.cwnd_packets() - 2.0).abs() < 1e-9);
        assert_eq!(v.name(), "vegas");
    }

    #[test]
    fn missing_rtt_sample_falls_back_to_reno() {
        let mut v = Vegas::new(1460);
        let w0 = v.cwnd_packets();
        v.on_ack(&AckEvent {
            now: Nanos::ZERO,
            acked_bytes: 1460,
            rtt_sample: None,
            min_rtt: Duration::ZERO,
            inflight_bytes: 0,
        });
        assert!(v.cwnd_packets() > w0);
    }
}
