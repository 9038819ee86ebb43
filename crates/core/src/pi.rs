//! The proportional–integral (PI) controller used in pass-through mode
//! (§5.1 of the paper).
//!
//! While buffer-filling cross traffic is present, the sendbox "lets the
//! traffic pass" — but it still needs a small standing queue (the paper's
//! target is 10 ms) so that the Nimbus up-pulse has packets to send. The
//! paper's controller updates the base rate as
//! `ṙ(t) = α·(q(t) − q_T) + β·q̇(t)` with α = β = 10: when the queue is above
//! target or growing, the rate increases to drain it; when below target, the
//! rate decreases to let it build.

use bundler_types::{Duration, Nanos, Rate};

use crate::config::{MAX_RATE, MIN_RATE};

/// Gain on the queue error term (paper: α = 10).
pub(crate) const ALPHA: f64 = 10.0;

/// Gain on the queue derivative term (paper: β = 10).
pub(crate) const BETA: f64 = 10.0;

/// Target sendbox queueing delay: the paper derives 8 ms from the Nimbus
/// pulse area and adds a 2 ms cushion, giving 10 ms.
pub(crate) const TARGET: Duration = Duration::from_millis(10);

/// The queue-targeting PI controller.
#[derive(Debug)]
pub struct PiController {
    rate: Rate,
    last_queue_delay: Option<Duration>,
    last_update: Option<Nanos>,
}

impl PiController {
    /// Creates a controller starting at `initial_rate`.
    pub fn new(initial_rate: Rate) -> Self {
        PiController {
            rate: initial_rate.clamp(MIN_RATE, MAX_RATE),
            last_queue_delay: None,
            last_update: None,
        }
    }

    /// Current output rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Re-seeds the controller's rate (used when entering pass-through mode
    /// so the rate starts from the delay-controller's last value).
    pub fn reset(&mut self, rate: Rate, now: Nanos) {
        self.rate = rate.clamp(MIN_RATE, MAX_RATE);
        self.last_queue_delay = None;
        self.last_update = Some(now);
    }

    /// Updates the rate given the current sendbox queue, expressed as a
    /// delay: `queue_bytes / reference_rate`. `reference_rate` should be the
    /// bottleneck estimate (μ) when known, else the current rate.
    pub fn update(&mut self, queue_bytes: u64, reference_rate: Rate, now: Nanos) -> Rate {
        let reference = if reference_rate.is_zero() {
            self.rate
        } else {
            reference_rate
        };
        let queue_delay = if reference.is_zero() {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(queue_bytes as f64 * 8.0 / reference.as_bps() as f64)
        };

        let dt = match self.last_update {
            Some(prev) => now.saturating_since(prev).as_secs_f64(),
            None => 0.0,
        };
        let error = queue_delay.as_secs_f64() - TARGET.as_secs_f64();
        let derivative = match (self.last_queue_delay, dt > 1e-9) {
            (Some(prev), true) => (queue_delay.as_secs_f64() - prev.as_secs_f64()) / dt,
            _ => 0.0,
        };

        if dt > 1e-9 {
            // ṙ = α·error + β·q̇, scaled by the reference rate so the gains
            // are dimensionless fractions-of-μ per second per second of
            // error, then integrated over dt.
            let rdot = (ALPHA * error + BETA * derivative) * reference.as_bps() as f64;
            let new_rate = self.rate.as_bps() as f64 + rdot * dt;
            self.rate = Rate::from_bps(new_rate.max(0.0) as u64).clamp(MIN_RATE, MAX_RATE);
        }

        self.last_queue_delay = Some(queue_delay);
        self.last_update = Some(now);
        self.rate
    }
}

serde::layout!(state PiController { rate, last_queue_delay, last_update });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_increases_when_queue_above_target() {
        let mut pi = PiController::new(Rate::from_mbps(50));
        let mu = Rate::from_mbps(96);
        // 30 ms of queue at 96 Mbit/s = 360 KB; target is 10 ms.
        let q = (mu.as_bytes_per_sec() * 0.030) as u64;
        pi.update(q, mu, Nanos::from_millis(0));
        let r1 = pi.update(q, mu, Nanos::from_millis(10));
        let r2 = pi.update(q, mu, Nanos::from_millis(20));
        assert!(r2 > r1 || r2 == MAX_RATE, "rate should rise to drain queue");
    }

    #[test]
    fn rate_decreases_when_queue_below_target() {
        let mut pi = PiController::new(Rate::from_mbps(96));
        let mu = Rate::from_mbps(96);
        pi.update(0, mu, Nanos::from_millis(0));
        let r1 = pi.update(0, mu, Nanos::from_millis(10));
        let r2 = pi.update(0, mu, Nanos::from_millis(20));
        assert!(r2 < r1, "rate should fall to let the queue build");
    }

    #[test]
    fn converges_to_target_in_closed_loop() {
        // Closed loop: packets arrive at 96 Mbit/s; the sendbox drains at
        // the PI rate; the queue integrates the difference.
        let mu = Rate::from_mbps(96);
        let arrival = mu;
        let mut pi = PiController::new(Rate::from_mbps(96));
        let mut queue_bytes = 0f64;
        let dt = Duration::from_millis(10);
        let mut last_delays = Vec::new();
        for step in 0..3000 {
            let now = Nanos::from_millis(step * 10);
            let rate = pi.update(queue_bytes as u64, mu, now);
            let arrived = arrival.as_bytes_per_sec() * dt.as_secs_f64();
            let drained = rate.as_bytes_per_sec() * dt.as_secs_f64();
            queue_bytes = (queue_bytes + arrived - drained).max(0.0);
            if step > 2500 {
                last_delays.push(queue_bytes * 8.0 / mu.as_bps() as f64 * 1000.0);
            }
        }
        let mean_delay: f64 = last_delays.iter().sum::<f64>() / last_delays.len() as f64;
        assert!(
            (5.0..20.0).contains(&mean_delay),
            "queue delay should settle near the 10 ms target, got {mean_delay:.2} ms"
        );
    }

    #[test]
    fn respects_rate_bounds() {
        let mut pi = PiController::new(Rate::from_gbps(50));
        assert_eq!(pi.rate(), MAX_RATE);
        // Huge queue for a long time: must cap at MAX_RATE.
        for step in 0..100 {
            pi.update(
                100_000_000,
                Rate::from_mbps(96),
                Nanos::from_millis(step * 10),
            );
        }
        assert_eq!(pi.rate(), MAX_RATE);
        // Empty queue forever: must floor at MIN_RATE. An empty queue cuts
        // the rate by a bounded amount per second, so start near the floor.
        pi.reset(Rate::from_mbps(1), Nanos::from_millis(1000));
        for step in 100..2000 {
            pi.update(0, Rate::from_mbps(96), Nanos::from_millis(step * 10));
        }
        assert_eq!(pi.rate(), MIN_RATE);
    }

    #[test]
    fn reset_reseeds_rate() {
        let mut pi = PiController::new(Rate::from_mbps(10));
        pi.reset(Rate::from_mbps(42), Nanos::from_secs(1));
        assert_eq!(pi.rate(), Rate::from_mbps(42));
    }
}
