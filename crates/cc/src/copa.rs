//! Copa congestion control (Arun & Balakrishnan, NSDI 2018), adapted for
//! rate-based aggregate control at the Bundler sendbox.
//!
//! Copa targets a sending rate of `1 / (δ · d_q)` packets per second, where
//! `d_q` is the measured queueing delay (RTT minus the minimum RTT). When the
//! current rate is below target the window grows, otherwise it shrinks, with
//! a velocity term that doubles while the direction is consistent. The
//! standing queue Copa maintains is small and proportional to `1/δ`, which is
//! exactly the property Bundler needs: high utilization with the queue moved
//! to the sendbox.
//!
//! This implementation follows the published algorithm's structure
//! (default mode only; the paper's sendbox relies on Nimbus for competing
//! with buffer-filling flows, so Copa's own TCP-competitive mode is not
//! required here).

use bundler_types::{Duration, Nanos, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::windowed::WindowedFilter;
use crate::{BundleCc, Measurement, RateUpdate};

/// Configuration parameters for [`Copa`].
#[derive(Debug, Clone, Copy)]
pub struct CopaConfig {
    /// The δ parameter: larger values mean less standing queue and lower
    /// throughput priority. The Copa default is 0.5.
    pub delta: f64,
    /// Packet size used to convert between packet- and byte-based rates.
    pub mss_bytes: u64,
    /// Lower bound on the computed rate.
    pub min_rate: Rate,
    /// Upper bound on the computed rate.
    pub max_rate: Rate,
    /// Window over which the minimum RTT ("base RTT") is remembered.
    pub min_rtt_window: Duration,
}

impl Default for CopaConfig {
    fn default() -> Self {
        CopaConfig {
            delta: 0.5,
            mss_bytes: 1500,
            min_rate: Rate::from_kbps(100),
            max_rate: Rate::from_gbps(20),
            min_rtt_window: Duration::from_secs(10),
        }
    }
}

/// Direction of the last window adjustment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Direction {
    Up,
    Down,
}

impl Encode for Direction {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Direction::Up => 0,
            Direction::Down => 1,
        };
        tag.encode(out);
    }
}

impl Decode for Direction {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Direction::Up),
            1 => Ok(Direction::Down),
            _ => Err(r.error("invalid copa direction tag")),
        }
    }
}

/// Copa congestion controller operating on a traffic bundle.
#[derive(Debug)]
pub struct Copa {
    config: CopaConfig,
    /// Congestion window in bytes; the emitted rate is `cwnd / rtt`.
    cwnd_bytes: f64,
    /// Velocity parameter (doubles while direction is consistent).
    velocity: f64,
    direction: Option<Direction>,
    /// Number of consecutive same-direction RTTs (velocity doubles only
    /// after the direction has persisted for 3 RTTs, per the paper).
    same_direction_count: u32,
    /// Time of the last velocity/direction bookkeeping update; velocity
    /// evolves at RTT granularity even though measurements arrive every
    /// control interval.
    last_velocity_update: Option<Nanos>,
    min_rtt: WindowedFilter<u64>,
    /// RTT standing-queue estimate filter (minimum RTT over the last
    /// ~4 RTTs), used as `d_q`'s reference per the Copa paper.
    standing_rtt: WindowedFilter<u64>,
    last_rate: Rate,
    last_update: Option<Nanos>,
}

impl Copa {
    /// Creates a Copa controller starting at `initial_rate`.
    pub fn new(config: CopaConfig, initial_rate: Rate) -> Self {
        let initial_rate = initial_rate.clamp(config.min_rate, config.max_rate);
        Copa {
            config,
            // Start with a window corresponding to the initial rate over a
            // nominal 10 ms RTT; the first measurement re-derives it.
            cwnd_bytes: (initial_rate.as_bytes_per_sec() * 0.01).max(config.mss_bytes as f64),
            velocity: 1.0,
            direction: None,
            same_direction_count: 0,
            last_velocity_update: None,
            min_rtt: WindowedFilter::new_min(config.min_rtt_window),
            standing_rtt: WindowedFilter::new_min(Duration::from_millis(500)),
            last_rate: initial_rate,
            last_update: None,
        }
    }

    /// The δ parameter in use.
    pub fn delta(&self) -> f64 {
        self.config.delta
    }

    /// Current congestion window in bytes.
    pub fn cwnd_bytes(&self) -> u64 {
        self.cwnd_bytes as u64
    }

    fn clamp_rate(&self, r: Rate) -> Rate {
        r.clamp(self.config.min_rate, self.config.max_rate)
    }
}

impl BundleCc for Copa {
    fn on_measurement(&mut self, m: &Measurement) -> RateUpdate {
        let now = m.now;
        if m.rtt.is_zero() {
            return RateUpdate {
                rate: self.last_rate,
                bottleneck_estimate: None,
            };
        }
        self.min_rtt
            .update(m.min_rtt.as_nanos().min(m.rtt.as_nanos()), now);
        self.standing_rtt.update(m.rtt.as_nanos(), now);

        let base_rtt = Duration(self.min_rtt.get().unwrap_or(m.rtt.as_nanos()));
        let standing = Duration(self.standing_rtt.get().unwrap_or(m.rtt.as_nanos()));
        let queue_delay = standing.saturating_sub(base_rtt);

        let mss = self.config.mss_bytes as f64;
        // Target rate: 1/(δ·d_q) packets per second. With an (almost) empty
        // queue the target is effectively unbounded, so the window grows.
        let target_rate_bytes = if queue_delay.as_secs_f64() > 1e-9 {
            mss / (self.config.delta * queue_delay.as_secs_f64())
        } else {
            f64::INFINITY
        };
        let current_rate_bytes = self.cwnd_bytes / m.rtt.as_secs_f64();

        let dir = if current_rate_bytes <= target_rate_bytes {
            Direction::Up
        } else {
            Direction::Down
        };

        // Velocity update, at RTT granularity: double after the direction
        // has been consistent for 3 RTTs; reset on a direction change. The
        // velocity is capped so the window changes by at most half of itself
        // per RTT, which keeps the rate from slamming between extremes when
        // the measurement loop lags by an RTT.
        let velocity_due = match self.last_velocity_update {
            None => true,
            Some(prev) => now.saturating_since(prev) >= m.rtt,
        };
        match self.direction {
            Some(prev) if prev == dir => {
                if velocity_due {
                    self.same_direction_count += 1;
                    if self.same_direction_count >= 3 {
                        self.velocity *= 2.0;
                    }
                }
            }
            _ => {
                self.velocity = 1.0;
                self.same_direction_count = 0;
            }
        }
        if velocity_due {
            self.last_velocity_update = Some(now);
        }
        let max_velocity = (self.config.delta * self.cwnd_bytes / (2.0 * mss)).max(1.0);
        self.velocity = self.velocity.min(max_velocity);
        self.direction = Some(dir);

        // Apply the per-ACK rule `cwnd ± v·mss/(δ·cwnd)` once per acked
        // packet in this measurement interval.
        let acked_pkts = (m.acked_bytes as f64 / mss).max(1.0);
        let change =
            self.velocity * mss * acked_pkts / (self.config.delta * (self.cwnd_bytes / mss));
        match dir {
            Direction::Up => self.cwnd_bytes += change,
            Direction::Down => self.cwnd_bytes -= change,
        }
        // Never let the window collapse below a couple of packets.
        self.cwnd_bytes = self.cwnd_bytes.max(2.0 * mss);
        // Window validation: a bundle is often application-limited (the
        // endhost windows, not Bundler's allowance, bound how much traffic
        // exists), and an unused allowance must not keep growing — otherwise
        // the first time the endhosts do fill it, the bottleneck gets hit
        // with an arbitrarily large burst. Cap the window at twice the
        // delivered bandwidth-delay product.
        let delivered_bdp = m.recv_rate.as_bytes_per_sec() * m.rtt.as_secs_f64();
        if delivered_bdp > 0.0 {
            self.cwnd_bytes = self.cwnd_bytes.min(2.0 * delivered_bdp + 4.0 * mss);
        }

        // Convert the window to a pacing rate over the measured RTT. Copa
        // paces at 2·cwnd/RTT to avoid bursts; for a bundle we pace at
        // cwnd/RTT since packets arrive continuously from many flows.
        let rate = Rate::from_bytes_over(self.cwnd_bytes as u64, m.rtt);
        let rate = self.clamp_rate(rate);
        self.last_rate = rate;
        self.last_update = Some(now);
        RateUpdate {
            rate,
            bottleneck_estimate: Some(m.recv_rate.max(rate)),
        }
    }

    fn on_feedback_timeout(&mut self, _now: Nanos) -> RateUpdate {
        // Halve the window: feedback loss usually means severe congestion or
        // path failure; being conservative is safe because the endhost
        // controllers still govern their own flows.
        self.cwnd_bytes = (self.cwnd_bytes / 2.0).max(2.0 * self.config.mss_bytes as f64);
        self.velocity = 1.0;
        self.direction = None;
        self.last_rate = self.clamp_rate(self.last_rate.mul_f64(0.5));
        RateUpdate {
            rate: self.last_rate,
            bottleneck_estimate: None,
        }
    }

    fn current_rate(&self) -> Rate {
        self.last_rate
    }

    fn name(&self) -> &'static str {
        "copa"
    }
}

serde::layout!(state Copa {
    cwnd_bytes, velocity, direction, same_direction_count, last_velocity_update, min_rtt,
    standing_rtt, last_rate, last_update,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(now_ms: u64, rtt_ms: u64, min_rtt_ms: u64, rate_mbps: u64) -> Measurement {
        Measurement {
            now: Nanos::from_millis(now_ms),
            rtt: Duration::from_millis(rtt_ms),
            min_rtt: Duration::from_millis(min_rtt_ms),
            send_rate: Rate::from_mbps(rate_mbps),
            recv_rate: Rate::from_mbps(rate_mbps),
            acked_bytes: Rate::from_mbps(rate_mbps).bytes_over(Duration::from_millis(10)),
            lost_samples: 0,
        }
    }

    #[test]
    fn grows_when_queue_is_empty() {
        let mut copa = Copa::new(CopaConfig::default(), Rate::from_mbps(10));
        let initial = copa.current_rate();
        let mut rate = initial;
        for i in 0..200 {
            // RTT equals min RTT: no queueing, so Copa should ramp up.
            let u = copa.on_measurement(&measurement(i * 10, 50, 50, rate.as_bps() / 1_000_000));
            rate = u.rate;
        }
        assert!(
            rate > initial,
            "rate should grow from {initial} (got {rate})"
        );
        assert!(rate > Rate::from_mbps(50));
    }

    #[test]
    fn backs_off_when_queue_delay_is_large() {
        let mut copa = Copa::new(CopaConfig::default(), Rate::from_mbps(96));
        let mut rate = Rate::from_mbps(96);
        for i in 0..100 {
            // 100 ms of queueing over a 50 ms base RTT.
            let u = copa.on_measurement(&measurement(i * 10, 150, 50, 96));
            rate = u.rate;
        }
        assert!(
            rate < Rate::from_mbps(96),
            "rate should shrink (got {rate})"
        );
    }

    #[test]
    fn converges_near_capacity_in_closed_loop() {
        // Simple fluid model: queue integrates (rate - capacity); RTT is
        // base + queue/capacity. Copa should stabilize near capacity with a
        // small standing queue.
        let capacity = Rate::from_mbps(96);
        let base_rtt = Duration::from_millis(50);
        let mut copa = Copa::new(CopaConfig::default(), Rate::from_mbps(10));
        let mut queue_bytes = 0.0f64;
        let mut rate = copa.current_rate();
        let dt = Duration::from_millis(10);
        let mut rates = Vec::new();
        for step in 0..3000 {
            let arrived = rate.as_bytes_per_sec() * dt.as_secs_f64();
            let drained = capacity.as_bytes_per_sec() * dt.as_secs_f64();
            queue_bytes = (queue_bytes + arrived - drained).max(0.0);
            let queue_delay = Duration::from_secs_f64(queue_bytes / capacity.as_bytes_per_sec());
            let rtt = base_rtt + queue_delay;
            let delivered = rate.min(capacity);
            let m = Measurement {
                now: Nanos::from_millis(step * 10),
                rtt,
                min_rtt: base_rtt,
                send_rate: rate,
                recv_rate: delivered,
                acked_bytes: delivered.bytes_over(dt),
                lost_samples: 0,
            };
            rate = copa.on_measurement(&m).rate;
            if step > 2500 {
                rates.push(rate.as_mbps_f64());
            }
        }
        let mean: f64 = rates.iter().sum::<f64>() / rates.len() as f64;
        assert!(
            (60.0..140.0).contains(&mean),
            "Copa should hover near link capacity 96 Mbit/s, got mean {mean:.1}"
        );
    }

    #[test]
    fn feedback_timeout_halves_rate() {
        let mut copa = Copa::new(CopaConfig::default(), Rate::from_mbps(80));
        let before = copa.current_rate();
        let after = copa.on_feedback_timeout(Nanos::from_secs(1)).rate;
        assert!(after < before);
        assert!(after >= CopaConfig::default().min_rate);
    }

    #[test]
    fn rate_respects_bounds() {
        let config = CopaConfig {
            min_rate: Rate::from_mbps(1),
            max_rate: Rate::from_mbps(10),
            ..Default::default()
        };
        let mut copa = Copa::new(config, Rate::from_mbps(100));
        assert!(copa.current_rate() <= Rate::from_mbps(10));
        for i in 0..100 {
            let u = copa.on_measurement(&measurement(i * 10, 50, 50, 10));
            assert!(u.rate <= Rate::from_mbps(10));
            assert!(u.rate >= Rate::from_mbps(1));
        }
    }

    #[test]
    fn zero_rtt_measurement_is_ignored() {
        let mut copa = Copa::new(CopaConfig::default(), Rate::from_mbps(10));
        let before = copa.current_rate();
        let m = Measurement {
            now: Nanos::ZERO,
            rtt: Duration::ZERO,
            min_rtt: Duration::ZERO,
            send_rate: Rate::ZERO,
            recv_rate: Rate::ZERO,
            acked_bytes: 0,
            lost_samples: 0,
        };
        let u = copa.on_measurement(&m);
        assert_eq!(u.rate, before);
    }

    #[test]
    fn name_is_copa() {
        let copa = Copa::new(CopaConfig::default(), Rate::from_mbps(1));
        assert_eq!(copa.name(), "copa");
        assert!(copa.delta() > 0.0);
        assert!(copa.cwnd_bytes() > 0);
    }
}
