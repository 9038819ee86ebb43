//! TCP NewReno: slow start plus additive-increase/multiplicative-decrease.
//!
//! Used as an alternative endhost algorithm in the paper's §7.4 sweep
//! ("When we configure endhosts to use Reno or BBR, Bundler's benefits
//! remain").

use bundler_types::Nanos;

use crate::{AckEvent, LossEvent, WindowCc};

/// NewReno congestion controller.
#[derive(Debug)]
pub struct NewReno {
    mss: u64,
    cwnd: f64,
    ssthresh: f64,
    in_recovery_until: Option<Nanos>,
}

impl NewReno {
    /// Creates a NewReno controller with an initial window of 10 segments.
    pub fn new(mss: u64) -> Self {
        NewReno {
            mss,
            cwnd: 10.0,
            ssthresh: f64::INFINITY,
            in_recovery_until: None,
        }
    }

    /// Congestion window in packets.
    pub fn cwnd_packets(&self) -> f64 {
        self.cwnd
    }

    fn in_recovery(&self, now: Nanos) -> bool {
        matches!(self.in_recovery_until, Some(until) if now < until)
    }
}

impl WindowCc for NewReno {
    fn cwnd(&self) -> u64 {
        (self.cwnd.max(2.0) * self.mss as f64) as u64
    }

    fn on_ack(&mut self, ev: &AckEvent) {
        let acked_pkts = ev.acked_bytes as f64 / self.mss as f64;
        if self.cwnd < self.ssthresh {
            self.cwnd += acked_pkts;
        } else {
            // Additive increase: 1 MSS per RTT, i.e. 1/cwnd per acked packet.
            self.cwnd += acked_pkts / self.cwnd;
        }
    }

    fn on_loss(&mut self, ev: &LossEvent) {
        if ev.is_timeout {
            self.ssthresh = (self.cwnd / 2.0).max(2.0);
            self.cwnd = 2.0;
            self.in_recovery_until = None;
            return;
        }
        if self.in_recovery(ev.now) {
            return;
        }
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        self.in_recovery_until = Some(ev.now + bundler_types::Duration::from_millis(100));
    }

    fn name(&self) -> &'static str {
        "newreno"
    }
}

serde::layout!(state NewReno { cwnd, ssthresh, in_recovery_until });

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

    #[test]
    fn slow_start_then_congestion_avoidance() {
        let mut r = NewReno::new(1460);
        assert_eq!(r.cwnd(), 14_600);
        // Trigger a loss to set a finite ssthresh.
        for _ in 0..22 {
            r.on_ack(&ack(1, 1460));
        }
        r.on_loss(&LossEvent {
            now: Nanos::from_millis(2),
            lost_bytes: 1460,
            is_timeout: false,
        });
        assert!((r.cwnd_packets() - r.ssthresh).abs() < 1e-9);
        // In congestion avoidance a full window of ACKs adds ~1 packet.
        let w = r.cwnd_packets();
        let acks = w.ceil() as usize;
        for _ in 0..acks {
            r.on_ack(&ack(200, 1460));
        }
        assert!((r.cwnd_packets() - (w + 1.0)).abs() < 0.1);
    }

    #[test]
    fn halves_on_fast_retransmit() {
        let mut r = NewReno::new(1460);
        for _ in 0..100 {
            r.on_ack(&ack(1, 1460));
        }
        let before = r.cwnd_packets();
        r.on_loss(&LossEvent {
            now: Nanos::from_millis(5),
            lost_bytes: 1460,
            is_timeout: false,
        });
        assert!((r.cwnd_packets() - before / 2.0).abs() < 1e-9);
    }

    #[test]
    fn timeout_resets_to_two_packets() {
        let mut r = NewReno::new(1460);
        for _ in 0..100 {
            r.on_ack(&ack(1, 1460));
        }
        r.on_loss(&LossEvent {
            now: Nanos::from_millis(5),
            lost_bytes: 1460,
            is_timeout: true,
        });
        assert!((r.cwnd_packets() - 2.0).abs() < 1e-9);
        assert_eq!(r.name(), "newreno");
    }

    #[test]
    fn single_reaction_per_window() {
        let mut r = NewReno::new(1460);
        for _ in 0..100 {
            r.on_ack(&ack(1, 1460));
        }
        r.on_loss(&LossEvent {
            now: Nanos::from_millis(5),
            lost_bytes: 1460,
            is_timeout: false,
        });
        let w = r.cwnd_packets();
        r.on_loss(&LossEvent {
            now: Nanos::from_millis(6),
            lost_bytes: 1460,
            is_timeout: false,
        });
        assert_eq!(r.cwnd_packets(), w);
    }
}
