//! Nimbus: delay-based rate control plus elasticity (buffer-filling
//! cross-traffic) detection, after Goyal et al., "Elasticity Detection: A
//! Building Block for Delay-Sensitive Congestion Control".
//!
//! Bundler uses Nimbus in two ways (paper §5.1):
//!
//! * as one of the selectable sendbox congestion controllers
//!   ([`Nimbus`], the "BasicDelay" rule evaluated in Figure 14), and
//! * as the *detector* that tells the sendbox when buffer-filling cross
//!   traffic shares the bottleneck, so it can let traffic pass and fall back
//!   to status-quo behaviour ([`ElasticityDetector`], used by
//!   `bundler-core`'s mode state machine regardless of which congestion
//!   controller is running).
//!
//! The detection idea: superimpose a small asymmetric sinusoidal pulse
//! ([`Pulser`]) on the sending rate and watch the *cross traffic's* estimated
//! rate. Elastic (backlogged, loss-based) cross traffic reacts to the pulses,
//! so its rate shows energy at the pulse frequency; inelastic traffic does
//! not. This module implements the full FFT-based metric and, because a
//! packet-level simulation of the closed loop is noisier than a real
//! testbed, also a persistence heuristic (elastic cross traffic never lets
//! its share drop) that the mode state machine uses as the default decision
//! rule. Both are exposed so experiments can compare them.

use std::collections::VecDeque;

use bundler_types::{Duration, Nanos, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::fft::peak_to_band_ratio;
use crate::windowed::WindowedFilter;
use crate::{BundleCc, Measurement, RateUpdate};

/// The asymmetric sinusoidal pulse Nimbus superimposes on the sending rate.
///
/// Over each period `T` the rate is raised by `A·sin(4πt/T)` during the
/// first quarter and lowered by `(A/3)·sin(4π(t−T/4)/(3T))` for the rest, so
/// the average added rate over a full period is zero. The paper uses
/// `T = 0.2 s` and `A = μ/4`.
#[derive(Debug, Clone, Copy)]
pub struct Pulser {
    /// Pulse period.
    pub period: Duration,
    /// Pulse amplitude as a fraction of the bottleneck rate estimate μ.
    pub amplitude_frac: f64,
}

impl Default for Pulser {
    fn default() -> Self {
        Pulser {
            period: Duration::from_millis(200),
            amplitude_frac: 0.25,
        }
    }
}

impl Pulser {
    /// The frequency of the up-pulse, in Hz.
    pub fn pulse_hz(&self) -> f64 {
        1.0 / self.period.as_secs_f64()
    }

    /// The signed rate offset to add to the base rate at time `now`, given
    /// the current bottleneck estimate `mu`.
    pub fn offset(&self, now: Nanos, mu: Rate) -> f64 {
        let t = now.as_secs_f64() % self.period.as_secs_f64();
        let period = self.period.as_secs_f64();
        let amplitude = self.amplitude_frac * mu.as_bps() as f64;
        let quarter = period / 4.0;
        if t < quarter {
            amplitude * (4.0 * core::f64::consts::PI * t / period).sin()
        } else {
            let u = t - quarter;
            -(amplitude / 3.0) * (4.0 * core::f64::consts::PI * u / (3.0 * period)).sin()
        }
    }

    /// Applies the pulse to `base`, never going below 5 % of `mu`.
    pub fn apply(&self, base: Rate, now: Nanos, mu: Rate) -> Rate {
        let offset = self.offset(now, mu);
        let pulsed = base.as_bps() as f64 + offset;
        let floor = mu.as_bps() as f64 * 0.05;
        Rate::from_bps(pulsed.max(floor) as u64)
    }

    /// Queueing (in bytes·seconds terms, expressed as a delay at rate `mu`)
    /// that must be available at the sendbox to express the up-pulse: the
    /// area under the up-pulse curve is `A·T/(2π)`, which at `A = μ/4` is
    /// `μ·T/(8π)` — about 8 ms of queueing for `T = 0.2 s` (paper §5.1).
    pub fn required_queue_delay(&self) -> Duration {
        let secs = self.amplitude_frac * self.period.as_secs_f64() / (2.0 * core::f64::consts::PI);
        Duration::from_secs_f64(secs)
    }
}

/// Classification of the cross traffic sharing the bottleneck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossTrafficVerdict {
    /// No significant competing traffic, or competing traffic that does not
    /// fill buffers (short flows, paced streams).
    Inelastic,
    /// Buffer-filling (elastic) cross traffic is present; a delay-based
    /// controller would be starved.
    Elastic,
}

impl Encode for CrossTrafficVerdict {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            CrossTrafficVerdict::Inelastic => 0,
            CrossTrafficVerdict::Elastic => 1,
        };
        tag.encode(out);
    }
}

impl Decode for CrossTrafficVerdict {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(CrossTrafficVerdict::Inelastic),
            1 => Ok(CrossTrafficVerdict::Elastic),
            _ => Err(r.error("invalid cross-traffic verdict tag")),
        }
    }
}

/// Configuration for [`ElasticityDetector`].
#[derive(Debug, Clone, Copy)]
pub struct ElasticityConfig {
    /// Interval between samples pushed into the detector (the paper's
    /// control interval, 10 ms).
    pub sample_interval: Duration,
    /// Number of samples the FFT operates over (512 ⇒ ~5 s at 10 ms).
    pub fft_window: usize,
    /// Frequency of the superimposed pulse, Hz.
    pub pulse_hz: f64,
    /// Peak-to-band ratio above which the FFT metric declares elasticity.
    pub fft_threshold: f64,
    /// Window over which the persistence heuristic looks at the cross-rate
    /// minimum.
    pub persistence_window: Duration,
    /// If the cross traffic's share of μ never falls below this fraction
    /// over the persistence window, the cross traffic is considered
    /// backlogged (elastic).
    pub persistence_min_frac: f64,
    /// The queueing delay must also stay above this floor over the whole
    /// persistence window: buffer-filling cross traffic keeps the bottleneck
    /// queue occupied, whereas an application-limited bundle with spare
    /// capacity (which also makes the cross-rate estimate non-zero) does
    /// not.
    pub persistence_min_queue_delay: Duration,
    /// Use the FFT metric as the decision rule (true) or the persistence
    /// heuristic (false, default — more robust at packet-level simulation
    /// granularity).
    pub use_fft_decision: bool,
    /// Samples required before any verdict other than `Inelastic` is given.
    pub warmup_samples: usize,
}

impl Default for ElasticityConfig {
    fn default() -> Self {
        ElasticityConfig {
            sample_interval: Duration::from_millis(10),
            fft_window: 512,
            pulse_hz: 5.0,
            fft_threshold: 3.0,
            persistence_window: Duration::from_secs(1),
            persistence_min_frac: 0.2,
            persistence_min_queue_delay: Duration::from_millis(3),
            use_fft_decision: false,
            warmup_samples: 50,
        }
    }
}

/// Detects the presence of buffer-filling (elastic) cross traffic from the
/// same send/receive-rate measurements Bundler already collects.
#[derive(Debug)]
pub struct ElasticityDetector {
    config: ElasticityConfig,
    /// Cross-traffic rate samples in bit/s plus the queueing delay observed
    /// with them, newest at the back.
    cross_samples: VecDeque<(Nanos, f64, Duration)>,
    /// Estimate of the bottleneck rate μ: windowed max of observed receive
    /// rate plus estimated cross rate.
    mu_filter: WindowedFilter<u64>,
    total_samples: u64,
    last_fft_ratio: f64,
    last_verdict: CrossTrafficVerdict,
}

impl ElasticityDetector {
    /// Creates a detector.
    pub fn new(config: ElasticityConfig) -> Self {
        ElasticityDetector {
            config,
            cross_samples: VecDeque::new(),
            mu_filter: WindowedFilter::new_max(Duration::from_secs(10)),
            total_samples: 0,
            last_fft_ratio: 0.0,
            last_verdict: CrossTrafficVerdict::Inelastic,
        }
    }

    /// Creates a detector with default parameters.
    pub fn with_defaults() -> Self {
        Self::new(ElasticityConfig::default())
    }

    /// Current bottleneck rate estimate μ.
    pub fn mu(&self) -> Rate {
        Rate::from_bps(self.mu_filter.get().unwrap_or(0))
    }

    /// Estimates the cross-traffic rate from a send/receive rate pair:
    /// `z = μ·S/R − S` (Nimbus eq. 1). Returns 0 when the receive rate is 0.
    pub fn cross_rate(&self, send_rate: Rate, recv_rate: Rate) -> Rate {
        if recv_rate.is_zero() {
            return Rate::ZERO;
        }
        let mu = self.mu().as_bps() as f64;
        let s = send_rate.as_bps() as f64;
        let r = recv_rate.as_bps() as f64;
        let z = mu * s / r - s;
        Rate::from_bps(z.max(0.0) as u64)
    }

    /// Pushes one measurement into the detector and returns the current
    /// verdict. `externally_known_mu` lets the caller supply a bottleneck
    /// estimate (e.g. from configuration); otherwise pass `None` and the
    /// detector tracks the max observed throughput.
    pub fn on_measurement(
        &mut self,
        m: &Measurement,
        externally_known_mu: Option<Rate>,
    ) -> CrossTrafficVerdict {
        self.total_samples += 1;
        // μ is at least whatever total throughput we have seen delivered;
        // cross traffic pushes the estimate up via recv + cross from the
        // previous estimate. An externally supplied μ wins.
        let observed = match externally_known_mu {
            Some(mu) => mu,
            None => m.recv_rate,
        };
        self.mu_filter.update(observed.as_bps(), m.now);
        if externally_known_mu.is_none() {
            // Also consider send rate: if we are sending faster than we
            // receive, the bottleneck is at least the receive rate.
            self.mu_filter.update(m.recv_rate.as_bps(), m.now);
        }

        let z = self.cross_rate(m.send_rate, m.recv_rate);
        self.cross_samples
            .push_back((m.now, z.as_bps() as f64, m.queue_delay()));
        while self.cross_samples.len() > self.config.fft_window {
            self.cross_samples.pop_front();
        }

        if self.total_samples < self.config.warmup_samples as u64 {
            self.last_verdict = CrossTrafficVerdict::Inelastic;
            return self.last_verdict;
        }

        let verdict = if self.config.use_fft_decision {
            self.fft_verdict()
        } else {
            self.persistence_verdict(m.now)
        };
        self.last_verdict = verdict;
        verdict
    }

    /// The most recent verdict.
    pub fn verdict(&self) -> CrossTrafficVerdict {
        self.last_verdict
    }

    /// The most recently computed FFT peak-to-band ratio (0 if not yet
    /// computed).
    pub fn fft_ratio(&self) -> f64 {
        self.last_fft_ratio
    }

    /// Decision based on spectral energy at the pulse frequency.
    fn fft_verdict(&mut self) -> CrossTrafficVerdict {
        if self.cross_samples.len() < self.config.fft_window {
            return CrossTrafficVerdict::Inelastic;
        }
        let mean: f64 = self.cross_samples.iter().map(|&(_, z, _)| z).sum::<f64>()
            / self.cross_samples.len() as f64;
        let signal: Vec<f64> = self
            .cross_samples
            .iter()
            .map(|&(_, z, _)| z - mean)
            .collect();
        let sample_rate = 1.0 / self.config.sample_interval.as_secs_f64();
        let ratio =
            peak_to_band_ratio(&signal, sample_rate, self.config.pulse_hz, 0.6, (1.0, 20.0));
        self.last_fft_ratio = ratio;
        let mu = self.mu().as_bps() as f64;
        if mu > 0.0 && mean > 0.05 * mu && ratio > self.config.fft_threshold {
            CrossTrafficVerdict::Elastic
        } else {
            CrossTrafficVerdict::Inelastic
        }
    }

    /// Decision based on the cross traffic's share never dropping: a
    /// backlogged loss-based flow always holds at least its fair share of
    /// the bottleneck, while request-driven or paced cross traffic
    /// repeatedly lets its rate fall.
    fn persistence_verdict(&mut self, now: Nanos) -> CrossTrafficVerdict {
        let mu = self.mu().as_bps() as f64;
        if mu <= 0.0 {
            return CrossTrafficVerdict::Inelastic;
        }
        let window_start = now
            .saturating_since(Nanos::ZERO)
            .as_nanos()
            .saturating_sub(self.config.persistence_window.as_nanos());
        let recent: Vec<(f64, Duration)> = self
            .cross_samples
            .iter()
            .filter(|&&(t, _, _)| t.as_nanos() >= window_start)
            .map(|&(_, z, dq)| (z, dq))
            .collect();
        // Require the window to be reasonably full before declaring.
        let expected = (self.config.persistence_window.as_nanos()
            / self.config.sample_interval.as_nanos().max(1)) as usize;
        if recent.len() < expected / 2 {
            return self.last_verdict;
        }
        let min_frac = recent.iter().map(|&(z, _)| z).fold(f64::INFINITY, f64::min) / mu;
        let min_queue_delay = recent
            .iter()
            .map(|&(_, dq)| dq)
            .fold(Duration::MAX, |a, b| a.min(b));
        if min_frac > self.config.persistence_min_frac
            && min_queue_delay >= self.config.persistence_min_queue_delay
        {
            CrossTrafficVerdict::Elastic
        } else {
            CrossTrafficVerdict::Inelastic
        }
    }
}

// The configuration is not written: restore builds the detector with the
// same `ElasticityConfig` first.
serde::layout!(state ElasticityDetector {
    cross_samples, mu_filter, total_samples, last_fft_ratio, last_verdict,
});

/// Configuration for the [`Nimbus`] BasicDelay rate controller.
#[derive(Debug, Clone, Copy)]
pub struct NimbusConfig {
    /// Proportional gain on the queue-delay error term.
    pub alpha: f64,
    /// Target queueing delay as a fraction of the minimum RTT.
    pub target_frac: f64,
    /// Lower bound on the target queueing delay.
    pub target_floor: Duration,
    /// Lower bound on the computed rate.
    pub min_rate: Rate,
    /// Upper bound on the computed rate.
    pub max_rate: Rate,
    /// The pulse generator settings.
    pub pulser: Pulser,
    /// Whether to superimpose pulses on the output rate.
    pub enable_pulses: bool,
}

impl Default for NimbusConfig {
    fn default() -> Self {
        NimbusConfig {
            alpha: 0.5,
            target_frac: 0.1,
            target_floor: Duration::from_millis(3),
            min_rate: Rate::from_kbps(100),
            max_rate: Rate::from_gbps(20),
            pulser: Pulser::default(),
            enable_pulses: true,
        }
    }
}

/// The Nimbus "BasicDelay" rate controller.
///
/// `rate ← recv_rate + α·μ·(d_target − d_q)/d_target`: when the queueing
/// delay `d_q` is below target the controller probes above the receive rate;
/// when above target it backs off proportionally.
#[derive(Debug)]
pub struct Nimbus {
    config: NimbusConfig,
    mu_filter: WindowedFilter<u64>,
    last_rate: Rate,
}

impl Nimbus {
    /// Creates a BasicDelay controller starting at `initial_rate`.
    pub fn new(config: NimbusConfig, initial_rate: Rate) -> Self {
        Nimbus {
            config,
            mu_filter: WindowedFilter::new_max(Duration::from_secs(10)),
            last_rate: initial_rate.clamp(config.min_rate, config.max_rate),
        }
    }

    /// Current bottleneck estimate μ.
    pub fn mu(&self) -> Rate {
        Rate::from_bps(self.mu_filter.get().unwrap_or(self.last_rate.as_bps()))
    }
}

impl BundleCc for Nimbus {
    fn on_measurement(&mut self, m: &Measurement) -> RateUpdate {
        if m.rtt.is_zero() {
            return RateUpdate {
                rate: self.last_rate,
                bottleneck_estimate: None,
            };
        }
        self.mu_filter.update(m.recv_rate.as_bps(), m.now);
        let mu = self.mu();
        let dq = m.queue_delay().as_secs_f64();
        let target = (Duration::from_secs_f64(m.min_rtt.as_secs_f64() * self.config.target_frac))
            .max(self.config.target_floor)
            .as_secs_f64();
        // Normalize the queue-delay error by the propagation RTT rather than
        // by the (much smaller) target so the proportional gain stays modest
        // relative to the feedback delay of one RTT; otherwise the controller
        // slams between zero and 2µ instead of settling at the target.
        let err = (target - dq) / m.min_rtt.as_secs_f64().max(1e-3);
        let base = m.recv_rate.as_bps() as f64 + self.config.alpha * mu.as_bps() as f64 * err;
        let base =
            Rate::from_bps(base.max(0.0) as u64).clamp(self.config.min_rate, self.config.max_rate);
        let rate = if self.config.enable_pulses {
            self.config.pulser.apply(base, m.now, mu)
        } else {
            base
        };
        let rate = rate.clamp(self.config.min_rate, self.config.max_rate);
        self.last_rate = rate;
        RateUpdate {
            rate,
            bottleneck_estimate: Some(mu),
        }
    }

    fn on_feedback_timeout(&mut self, _now: Nanos) -> RateUpdate {
        self.last_rate = self
            .last_rate
            .mul_f64(0.5)
            .clamp(self.config.min_rate, self.config.max_rate);
        RateUpdate {
            rate: self.last_rate,
            bottleneck_estimate: None,
        }
    }

    fn current_rate(&self) -> Rate {
        self.last_rate
    }

    fn name(&self) -> &'static str {
        "nimbus"
    }
}

serde::layout!(state Nimbus { mu_filter, last_rate });

#[cfg(test)]
mod tests {
    use super::*;

    fn m(now_ms: u64, rtt_ms: f64, min_rtt_ms: u64, send_mbps: f64, recv_mbps: f64) -> Measurement {
        Measurement {
            now: Nanos::from_millis(now_ms),
            rtt: Duration::from_secs_f64(rtt_ms / 1000.0),
            min_rtt: Duration::from_millis(min_rtt_ms),
            send_rate: Rate::from_mbps_f64(send_mbps),
            recv_rate: Rate::from_mbps_f64(recv_mbps),
            acked_bytes: Rate::from_mbps_f64(recv_mbps).bytes_over(Duration::from_millis(10)),
            lost_samples: 0,
        }
    }

    #[test]
    fn pulser_is_zero_mean_over_a_period() {
        let p = Pulser::default();
        let mu = Rate::from_mbps(96);
        let steps = 2000;
        let mut sum = 0.0;
        for i in 0..steps {
            let t = Nanos(p.period.as_nanos() * i as u64 / steps as u64);
            sum += p.offset(t, mu);
        }
        let mean = sum / steps as f64;
        assert!(
            mean.abs() < 0.01 * mu.as_bps() as f64,
            "pulse mean {mean} should be ~0"
        );
    }

    #[test]
    fn pulser_up_phase_then_down_phase() {
        let p = Pulser::default();
        let mu = Rate::from_mbps(96);
        // Peak of the up-pulse at T/8.
        let up = p.offset(Nanos(p.period.as_nanos() / 8), mu);
        assert!(up > 0.0);
        assert!((up - 0.25 * mu.as_bps() as f64).abs() < 1e-3 * mu.as_bps() as f64);
        // Middle of the down phase.
        let down = p.offset(Nanos(p.period.as_nanos() * 5 / 8), mu);
        assert!(down < 0.0);
        assert!(down.abs() <= 0.25 / 3.0 * mu.as_bps() as f64 + 1.0);
    }

    #[test]
    fn pulser_required_queue_is_about_8ms() {
        let p = Pulser::default();
        let d = p.required_queue_delay();
        assert!((7.0..9.0).contains(&d.as_millis_f64()), "got {d}");
    }

    #[test]
    fn basic_delay_probes_up_when_queue_empty() {
        let mut nimbus = Nimbus::new(NimbusConfig::default(), Rate::from_mbps(10));
        let u = nimbus.on_measurement(&m(0, 50.0, 50, 10.0, 10.0));
        assert!(
            u.rate > Rate::from_mbps(10),
            "should probe above receive rate, got {}",
            u.rate
        );
    }

    #[test]
    fn basic_delay_backs_off_when_queue_large() {
        let mut nimbus = Nimbus::new(
            NimbusConfig {
                enable_pulses: false,
                ..Default::default()
            },
            Rate::from_mbps(96),
        );
        // Warm the μ estimate.
        nimbus.on_measurement(&m(0, 50.0, 50, 96.0, 96.0));
        // 40 ms of queueing on a 50 ms path: far above the 5 ms target.
        let u = nimbus.on_measurement(&m(10, 90.0, 50, 96.0, 96.0));
        assert!(
            u.rate < Rate::from_mbps(96),
            "should back off, got {}",
            u.rate
        );
    }

    #[test]
    fn cross_rate_estimate_matches_formula() {
        let mut det = ElasticityDetector::with_defaults();
        // Feed one measurement to set μ = 96.
        det.on_measurement(&m(0, 50.0, 50, 48.0, 48.0), Some(Rate::from_mbps(96)));
        // We send 48, receive 32: z = 96*48/32 - 48 = 96 Mbit/s... i.e. the
        // bottleneck is dominated by cross traffic.
        let z = det.cross_rate(Rate::from_mbps(48), Rate::from_mbps(32));
        assert_eq!(z, Rate::from_mbps(96));
        // Receiving everything we send with μ = 96 and S = 48 implies
        // z = 96*48/48 - 48 = 48.
        let z2 = det.cross_rate(Rate::from_mbps(48), Rate::from_mbps(48));
        assert_eq!(z2, Rate::from_mbps(48));
        assert_eq!(det.cross_rate(Rate::from_mbps(48), Rate::ZERO), Rate::ZERO);
    }

    #[test]
    fn persistence_detects_backlogged_cross_traffic() {
        let mut det = ElasticityDetector::with_defaults();
        let mu = Rate::from_mbps(96);
        let mut verdict = CrossTrafficVerdict::Inelastic;
        // Bundle sends 48 and receives 44 while a backlogged flow holds the
        // rest: cross share stays ~50 % for 3 seconds.
        for i in 0..300 {
            verdict = det.on_measurement(&m(i * 10, 70.0, 50, 48.0, 44.0), Some(mu));
        }
        assert_eq!(verdict, CrossTrafficVerdict::Elastic);
    }

    #[test]
    fn persistence_stays_inelastic_for_bursty_cross_traffic() {
        let mut det = ElasticityDetector::with_defaults();
        let mu = Rate::from_mbps(96);
        let mut verdict = CrossTrafficVerdict::Elastic;
        for i in 0..300 {
            // Cross traffic present only 1 sample in 10: its rate regularly
            // drops to ~0.
            let recv = if i % 10 == 0 { 60.0 } else { 90.0 };
            verdict = det.on_measurement(&m(i * 10, 55.0, 50, 90.0, recv), Some(mu));
        }
        assert_eq!(verdict, CrossTrafficVerdict::Inelastic);
    }

    #[test]
    fn fft_decision_detects_pulse_correlated_cross_traffic() {
        let config = ElasticityConfig {
            use_fft_decision: true,
            ..Default::default()
        };
        let mut det = ElasticityDetector::new(config);
        let mu = Rate::from_mbps(96);
        let mut verdict = CrossTrafficVerdict::Inelastic;
        for i in 0..600 {
            let t = i as f64 * 0.01;
            // Elastic cross traffic mirrors our 5 Hz pulses: when we pulse
            // up it yields, when we pulse down it grabs.
            let wiggle = 12.0 * (2.0 * core::f64::consts::PI * 5.0 * t).sin();
            let send = 48.0;
            let recv = 48.0 + wiggle.clamp(-20.0, 0.0) * 0.5 - wiggle.max(0.0) * 0.25;
            verdict = det.on_measurement(&m(i * 10, 60.0, 50, send, recv.max(5.0)), Some(mu));
        }
        assert_eq!(verdict, CrossTrafficVerdict::Elastic);
        assert!(det.fft_ratio() > 3.0, "fft ratio {}", det.fft_ratio());
    }

    #[test]
    fn application_limited_bundle_is_not_elastic() {
        // The bundle only offers 40 of the 96 Mbit/s capacity. The naive
        // cross-rate estimate is large (μ − S), but there is no queueing, so
        // the detector must not declare elastic cross traffic.
        let mut det = ElasticityDetector::with_defaults();
        let mu = Rate::from_mbps(96);
        let mut verdict = CrossTrafficVerdict::Elastic;
        for i in 0..300 {
            verdict = det.on_measurement(&m(i * 10, 50.0, 50, 40.0, 40.0), Some(mu));
        }
        assert_eq!(verdict, CrossTrafficVerdict::Inelastic);
    }

    #[test]
    fn warmup_period_reports_inelastic() {
        let mut det = ElasticityDetector::with_defaults();
        let mu = Rate::from_mbps(96);
        for i in 0..10 {
            let v = det.on_measurement(&m(i * 10, 70.0, 50, 48.0, 44.0), Some(mu));
            assert_eq!(v, CrossTrafficVerdict::Inelastic);
        }
    }

    #[test]
    fn feedback_timeout_halves_rate() {
        let mut nimbus = Nimbus::new(NimbusConfig::default(), Rate::from_mbps(40));
        let r = nimbus.on_feedback_timeout(Nanos::from_secs(1)).rate;
        assert_eq!(r, Rate::from_mbps(20));
        assert_eq!(nimbus.name(), "nimbus");
    }
}
