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
//! ([`offset`]) on the sending rate and watch the *cross traffic's* estimated
//! rate. Nimbus decides with an FFT of that rate (energy at the pulse
//! frequency); a packet-level simulation of the closed loop is noisier than
//! a real testbed, so this detector decides with a persistence rule instead:
//! backlogged, loss-based cross traffic never lets its share of the
//! bottleneck drop, and keeps the bottleneck queue occupied, over a whole
//! `PERSISTENCE_WINDOW` (1 s). The rule reads only the samples inside that
//! window, yet the detector keeps the last 512 (`MAX_SAMPLES`), about 5 s
//! at 10 ms: snapshot layout v3 saves the whole sample deque, so a shorter
//! deque would move checkpoint bytes.
//!
//! No run varies the pulse or the rule, so their parameters are constants:
//! the paper's `T = 0.2 s` and `A = μ/4` (`PULSE_PERIOD`,
//! `PULSE_AMPLITUDE_FRAC`) and the rule's thresholds and warm-up. The
//! detector's one setting is the interval its samples arrive at, the
//! sendbox's control interval.

use std::collections::VecDeque;

use bundler_types::{Duration, Nanos, Rate};
use serde::binary::{Decode, DecodeError, Encode, Reader, State};

use crate::windowed::WindowedFilter;
use crate::{BundleCc, Measurement};

/// Period `T` of the asymmetric sinusoidal pulse Nimbus superimposes on the
/// sending rate: the paper's 0.2 s.
const PULSE_PERIOD: Duration = Duration::from_millis(200);

/// Pulse amplitude `A` as a fraction of the bottleneck rate estimate μ: the
/// paper's `A = μ/4`.
const PULSE_AMPLITUDE_FRAC: f64 = 0.25;

/// The signed rate offset the pulse adds to the base rate at time `now`,
/// given the bottleneck estimate `mu`. Over each period `T` the rate is
/// raised by `A·sin(4πt/T)` during the first quarter and lowered by
/// `(A/3)·sin(4π(t−T/4)/(3T))` for the rest, so the average added rate over
/// a full period is zero.
pub fn offset(now: Nanos, mu: Rate) -> f64 {
    let t = now.as_secs_f64() % PULSE_PERIOD.as_secs_f64();
    let period = PULSE_PERIOD.as_secs_f64();
    let amplitude = PULSE_AMPLITUDE_FRAC * mu.as_bps() as f64;
    let quarter = period / 4.0;
    if t < quarter {
        amplitude * (4.0 * core::f64::consts::PI * t / period).sin()
    } else {
        let u = t - quarter;
        -(amplitude / 3.0) * (4.0 * core::f64::consts::PI * u / (3.0 * period)).sin()
    }
}

/// Applies the pulse to `base`, never going below 5 % of `mu`.
pub fn apply(base: Rate, now: Nanos, mu: Rate) -> Rate {
    let offset = offset(now, mu);
    let pulsed = base.as_bps() as f64 + offset;
    let floor = mu.as_bps() as f64 * 0.05;
    Rate::from_bps(pulsed.max(floor) as u64)
}

/// Queueing (in bytes·seconds terms, expressed as a delay at rate `mu`)
/// that must be available at the sendbox to express the up-pulse: the
/// area under the up-pulse curve is `A·T/(2π)`, which at `A = μ/4` is
/// `μ·T/(8π)` — about 8 ms of queueing for `T = 0.2 s` (paper §5.1).
pub fn required_queue_delay() -> Duration {
    let secs = PULSE_AMPLITUDE_FRAC * PULSE_PERIOD.as_secs_f64() / (2.0 * core::f64::consts::PI);
    Duration::from_secs_f64(secs)
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

serde::layout!(enum CrossTrafficVerdict { 0 => Inelastic, 1 => Elastic });

/// Number of cross-traffic samples the detector keeps (512 ⇒ ~5 s at
/// 10 ms). The rule reads only the persistence window; the rest are kept
/// for the snapshot layout (see the module docs).
const MAX_SAMPLES: usize = 512;

/// Window over which the persistence rule looks at the cross-rate minimum.
const PERSISTENCE_WINDOW: Duration = Duration::from_secs(1);

/// If the cross traffic's share of μ never falls below this fraction over
/// the persistence window, the cross traffic is considered backlogged
/// (elastic).
const PERSISTENCE_MIN_FRAC: f64 = 0.2;

/// The queueing delay must also stay above this floor over the whole
/// persistence window: buffer-filling cross traffic keeps the bottleneck
/// queue occupied, whereas an application-limited bundle with spare
/// capacity (which also makes the cross-rate estimate non-zero) does not.
const PERSISTENCE_MIN_QUEUE_DELAY: Duration = Duration::from_millis(3);

/// Samples required before any verdict other than `Inelastic` is given.
const WARMUP_SAMPLES: u64 = 50;

/// The minimum of a sliding window of samples in O(1) amortized time per
/// sample: the samples smaller than every later one, oldest first, each
/// with its sequence number. A NaN is never the minimum (`f64::min` skips
/// it), so it is not kept.
#[derive(Debug)]
struct WindowMin<T> {
    entries: VecDeque<(u64, T)>,
}

impl<T: PartialOrd + Copy> WindowMin<T> {
    fn new() -> Self {
        WindowMin {
            entries: VecDeque::new(),
        }
    }

    fn push(&mut self, seq: u64, value: T) {
        if value.partial_cmp(&value).is_none() {
            return;
        }
        while self.entries.back().is_some_and(|&(_, v)| v >= value) {
            self.entries.pop_back();
        }
        self.entries.push_back((seq, value));
    }

    /// Forgets the samples numbered below `seq`.
    fn expire_before(&mut self, seq: u64) {
        while self.entries.front().is_some_and(|&(s, _)| s < seq) {
            self.entries.pop_front();
        }
    }

    fn min(&self) -> Option<T> {
        self.entries.front().map(|&(_, v)| v)
    }
}

/// The detector's cross-traffic samples — `(time, rate in bit/s, queueing
/// delay)`, in time order, newest at the back — with running minima of
/// the rate and the delay over the persistence window. The minima are
/// derived, so only the samples are saved; loading rebuilds the rest.
#[derive(Debug)]
struct CrossSamples {
    samples: VecDeque<(Nanos, f64, Duration)>,
    /// Samples ever pushed, which numbers the next one; the front sample
    /// is number `pushed - samples.len()`.
    pushed: u64,
    /// Number of the oldest sample in the last window asked for.
    window_from: u64,
    min_rate: WindowMin<f64>,
    min_queue_delay: WindowMin<Duration>,
}

impl CrossSamples {
    fn new() -> Self {
        CrossSamples {
            samples: VecDeque::new(),
            pushed: 0,
            window_from: 0,
            min_rate: WindowMin::new(),
            min_queue_delay: WindowMin::new(),
        }
    }

    fn front_seq(&self) -> u64 {
        self.pushed - self.samples.len() as u64
    }

    /// Appends a sample, keeping at most `cap` (the oldest go first).
    fn push(&mut self, sample: (Nanos, f64, Duration), cap: usize) {
        let (_, rate, queue_delay) = sample;
        self.samples.push_back(sample);
        self.min_rate.push(self.pushed, rate);
        self.min_queue_delay.push(self.pushed, queue_delay);
        self.pushed += 1;
        if self.samples.len() > cap {
            let excess = self.samples.len() - cap;
            self.samples.drain(..excess);
            let front = self.front_seq();
            self.min_rate.expire_before(front);
            self.min_queue_delay.expire_before(front);
        }
    }

    /// `(count, minimum rate, minimum queueing delay)` over the samples
    /// taken at or after `start_ns`: `INFINITY` and `Duration::MAX` for
    /// none, as a fold with `f64::min` and `Ord::min` would give. `start_ns`
    /// must not decrease from one call to the next — it trails the newest
    /// sample, and samples arrive in time order.
    fn window_since(&mut self, start_ns: u64) -> (usize, f64, Duration) {
        let front = self.front_seq();
        let mut from = self.window_from.max(front);
        while from < self.pushed && self.samples[(from - front) as usize].0.as_nanos() < start_ns {
            from += 1;
        }
        self.window_from = from;
        self.min_rate.expire_before(from);
        self.min_queue_delay.expire_before(from);
        (
            (self.pushed - from) as usize,
            self.min_rate.min().unwrap_or(f64::INFINITY),
            self.min_queue_delay.min().unwrap_or(Duration::MAX),
        )
    }
}

impl State for CrossSamples {
    fn save_state(&self, out: &mut Vec<u8>) {
        self.samples.encode(out);
    }

    fn load_state(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        let samples: VecDeque<(Nanos, f64, Duration)> = Decode::decode(r)?;
        *self = CrossSamples::new();
        let cap = samples.len();
        for sample in samples {
            self.push(sample, cap);
        }
        Ok(())
    }
}

/// Detects the presence of buffer-filling (elastic) cross traffic from the
/// same send/receive-rate measurements Bundler already collects.
#[derive(Debug)]
pub struct ElasticityDetector {
    /// Interval between the samples pushed into the detector (the control
    /// interval).
    sample_interval: Duration,
    /// Cross-traffic rate samples in bit/s plus the queueing delay observed
    /// with them, newest at the back.
    cross_samples: CrossSamples,
    /// The bottleneck rate μ: windowed max of the caller's estimates.
    mu_filter: WindowedFilter<u64>,
    total_samples: u64,
    last_verdict: CrossTrafficVerdict,
}

impl ElasticityDetector {
    /// Creates a detector fed one sample every `sample_interval`.
    pub fn new(sample_interval: Duration) -> Self {
        ElasticityDetector {
            sample_interval,
            cross_samples: CrossSamples::new(),
            mu_filter: WindowedFilter::new_max(Duration::from_secs(10)),
            total_samples: 0,
            last_verdict: CrossTrafficVerdict::Inelastic,
        }
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

    /// Pushes one measurement and the caller's bottleneck estimate `mu`
    /// into the detector and returns the current verdict.
    pub fn on_measurement(&mut self, m: &Measurement, mu: Rate) -> CrossTrafficVerdict {
        self.total_samples += 1;
        self.mu_filter.update(mu.as_bps(), m.now);

        let z = self.cross_rate(m.send_rate, m.recv_rate);
        debug_assert!(
            self.cross_samples
                .samples
                .back()
                .is_none_or(|&(t, _, _)| t <= m.now),
            "cross-traffic samples arrive in time order"
        );
        self.cross_samples
            .push((m.now, z.as_bps() as f64, m.queue_delay()), MAX_SAMPLES);

        if self.total_samples < WARMUP_SAMPLES {
            self.last_verdict = CrossTrafficVerdict::Inelastic;
            return self.last_verdict;
        }

        self.last_verdict = self.persistence_verdict(m.now);
        self.last_verdict
    }

    /// The most recent verdict.
    pub fn verdict(&self) -> CrossTrafficVerdict {
        self.last_verdict
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
            .saturating_sub(PERSISTENCE_WINDOW.as_nanos());
        // Sample times never decrease (see `on_measurement`), so the
        // window is a suffix whose start only moves forward, and its minima
        // are kept as the samples arrive.
        let (n, min_z, min_queue_delay) = self.cross_samples.window_since(window_start);
        // Require the window to be reasonably full before declaring.
        let expected =
            (PERSISTENCE_WINDOW.as_nanos() / self.sample_interval.as_nanos().max(1)) as usize;
        if n < expected / 2 {
            return self.last_verdict;
        }
        let min_frac = min_z / mu;
        if min_frac > PERSISTENCE_MIN_FRAC && min_queue_delay >= PERSISTENCE_MIN_QUEUE_DELAY {
            CrossTrafficVerdict::Elastic
        } else {
            CrossTrafficVerdict::Inelastic
        }
    }
}

// The sample interval is not written: restore builds the detector with the
// same interval first.
serde::layout!(state ElasticityDetector { cross_samples, mu_filter, total_samples, last_verdict });

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
}

impl Default for NimbusConfig {
    fn default() -> Self {
        NimbusConfig {
            alpha: 0.5,
            target_frac: 0.1,
            target_floor: Duration::from_millis(3),
            min_rate: Rate::from_kbps(100),
            max_rate: Rate::from_gbps(20),
        }
    }
}

/// The Nimbus "BasicDelay" rate controller.
///
/// `rate ← recv_rate + α·μ·(d_target − d_q)/d_target`: when the queueing
/// delay `d_q` is below target the controller probes above the receive rate;
/// when above target it backs off proportionally. It emits that rate
/// unpulsed: under Bundler the mode controller superimposes the probe
/// pulses ([`apply`]).
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
    fn on_measurement(&mut self, m: &Measurement) -> Rate {
        if m.rtt.is_zero() {
            return self.last_rate;
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
        let rate = m.recv_rate.as_bps() as f64 + self.config.alpha * mu.as_bps() as f64 * err;
        let rate =
            Rate::from_bps(rate.max(0.0) as u64).clamp(self.config.min_rate, self.config.max_rate);
        self.last_rate = rate;
        rate
    }

    fn on_feedback_timeout(&mut self, _now: Nanos) -> Rate {
        self.last_rate = self
            .last_rate
            .mul_f64(0.5)
            .clamp(self.config.min_rate, self.config.max_rate);
        self.last_rate
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

    /// A detector fed every 10 ms, the default control interval.
    fn detector() -> ElasticityDetector {
        ElasticityDetector::new(Duration::from_millis(10))
    }

    #[test]
    fn pulser_is_zero_mean_over_a_period() {
        let mu = Rate::from_mbps(96);
        let steps = 2000;
        let mut sum = 0.0;
        for i in 0..steps {
            let t = Nanos(PULSE_PERIOD.as_nanos() * i as u64 / steps as u64);
            sum += offset(t, mu);
        }
        let mean = sum / steps as f64;
        assert!(
            mean.abs() < 0.01 * mu.as_bps() as f64,
            "pulse mean {mean} should be ~0"
        );
    }

    #[test]
    fn pulser_up_phase_then_down_phase() {
        let mu = Rate::from_mbps(96);
        // Peak of the up-pulse at T/8.
        let up = offset(Nanos(PULSE_PERIOD.as_nanos() / 8), mu);
        assert!(up > 0.0);
        assert!((up - 0.25 * mu.as_bps() as f64).abs() < 1e-3 * mu.as_bps() as f64);
        // Middle of the down phase.
        let down = offset(Nanos(PULSE_PERIOD.as_nanos() * 5 / 8), mu);
        assert!(down < 0.0);
        assert!(down.abs() <= 0.25 / 3.0 * mu.as_bps() as f64 + 1.0);
    }

    #[test]
    fn pulser_required_queue_is_about_8ms() {
        let d = required_queue_delay();
        assert!((7.0..9.0).contains(&d.as_millis_f64()), "got {d}");
    }

    #[test]
    fn basic_delay_probes_up_when_queue_empty() {
        let mut nimbus = Nimbus::new(NimbusConfig::default(), Rate::from_mbps(10));
        let rate = nimbus.on_measurement(&m(0, 50.0, 50, 10.0, 10.0));
        assert!(
            rate > Rate::from_mbps(10),
            "should probe above receive rate, got {rate}"
        );
    }

    #[test]
    fn basic_delay_backs_off_when_queue_large() {
        let mut nimbus = Nimbus::new(NimbusConfig::default(), Rate::from_mbps(96));
        // Warm the μ estimate.
        nimbus.on_measurement(&m(0, 50.0, 50, 96.0, 96.0));
        // 40 ms of queueing on a 50 ms path: far above the 5 ms target.
        let rate = nimbus.on_measurement(&m(10, 90.0, 50, 96.0, 96.0));
        assert!(rate < Rate::from_mbps(96), "should back off, got {rate}");
    }

    #[test]
    fn cross_rate_estimate_matches_formula() {
        let mut det = detector();
        // Feed one measurement to set μ = 96.
        det.on_measurement(&m(0, 50.0, 50, 48.0, 48.0), Rate::from_mbps(96));
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
        let mut det = detector();
        let mu = Rate::from_mbps(96);
        let mut verdict = CrossTrafficVerdict::Inelastic;
        // Bundle sends 48 and receives 44 while a backlogged flow holds the
        // rest: cross share stays ~50 % for 3 seconds.
        for i in 0..300 {
            verdict = det.on_measurement(&m(i * 10, 70.0, 50, 48.0, 44.0), mu);
        }
        assert_eq!(verdict, CrossTrafficVerdict::Elastic);
    }

    #[test]
    fn persistence_stays_inelastic_for_bursty_cross_traffic() {
        let mut det = detector();
        let mu = Rate::from_mbps(96);
        let mut verdict = CrossTrafficVerdict::Elastic;
        for i in 0..300 {
            // Cross traffic present only 1 sample in 10: its rate regularly
            // drops to ~0.
            let recv = if i % 10 == 0 { 60.0 } else { 90.0 };
            verdict = det.on_measurement(&m(i * 10, 55.0, 50, 90.0, recv), mu);
        }
        assert_eq!(verdict, CrossTrafficVerdict::Inelastic);
    }

    #[test]
    fn application_limited_bundle_is_not_elastic() {
        // The bundle only offers 40 of the 96 Mbit/s capacity. The naive
        // cross-rate estimate is large (μ − S), but there is no queueing, so
        // the detector must not declare elastic cross traffic.
        let mut det = detector();
        let mu = Rate::from_mbps(96);
        let mut verdict = CrossTrafficVerdict::Elastic;
        for i in 0..300 {
            verdict = det.on_measurement(&m(i * 10, 50.0, 50, 40.0, 40.0), mu);
        }
        assert_eq!(verdict, CrossTrafficVerdict::Inelastic);
    }

    #[test]
    fn warmup_period_reports_inelastic() {
        let mut det = detector();
        let mu = Rate::from_mbps(96);
        for i in 0..10 {
            let v = det.on_measurement(&m(i * 10, 70.0, 50, 48.0, 44.0), mu);
            assert_eq!(v, CrossTrafficVerdict::Inelastic);
        }
    }

    /// `(count, minimum rate, minimum queueing delay)` over the samples
    /// taken at or after `start_ns`, by a scan from the newest sample back:
    /// the oracle the running minima are held to.
    fn scan_window(samples: &CrossSamples, start_ns: u64) -> (usize, f64, Duration) {
        samples
            .samples
            .iter()
            .rev()
            .take_while(|&&(t, _, _)| t.as_nanos() >= start_ns)
            .fold(
                (0, f64::INFINITY, Duration::MAX),
                |(n, z, dq), &(_, rate, delay)| (n + 1, z.min(rate), dq.min(delay)),
            )
    }

    /// The persistence rule over [`scan_window`].
    fn scan_persistence_verdict(det: &ElasticityDetector, now: Nanos) -> CrossTrafficVerdict {
        let mu = det.mu().as_bps() as f64;
        if mu <= 0.0 {
            return CrossTrafficVerdict::Inelastic;
        }
        let window_start = now.as_nanos().saturating_sub(PERSISTENCE_WINDOW.as_nanos());
        let (n, min_z, min_queue_delay) = scan_window(&det.cross_samples, window_start);
        let expected =
            (PERSISTENCE_WINDOW.as_nanos() / det.sample_interval.as_nanos().max(1)) as usize;
        if n < expected / 2 {
            return det.last_verdict;
        }
        if min_z / mu > PERSISTENCE_MIN_FRAC && min_queue_delay >= PERSISTENCE_MIN_QUEUE_DELAY {
            CrossTrafficVerdict::Elastic
        } else {
            CrossTrafficVerdict::Inelastic
        }
    }

    /// Random streams of `(gap since the previous sample, rate, queueing
    /// delay, a free draw)`: repeated and jumping timestamps, NaN and zero
    /// rates, and a queueing-delay floor of 0–5 ms per stream, so that some
    /// streams keep the queue occupied throughout.
    fn sample_streams() -> impl proptest::Strategy<Value = Vec<(Duration, f64, Duration, u8)>> {
        let step = (0u8..100, 0u64..50, 0u8..100, 25u64..100, 0u64..40, 0u8..40);
        let streams = (0u64..6, proptest::collection::vec(step, 1..400));
        proptest::Strategy::prop_map(streams, |(floor_ms, steps)| {
            let sample = |(gap, gap_ms, rate_kind, rate_mbps, dq_ms, other)| {
                let gap = match gap {
                    0 => Duration::ZERO,
                    1..=94 => Duration::from_millis(10),
                    95..=97 => Duration::from_millis(gap_ms),
                    _ => Duration::from_secs(2),
                };
                let rate = match rate_kind {
                    0 => f64::NAN,
                    1 => 0.0,
                    _ => rate_mbps as f64 * 1e6,
                };
                (gap, rate, Duration::from_millis(floor_ms + dq_ms), other)
            };
            steps.into_iter().map(sample).collect()
        })
    }

    proptest::proptest! {
        /// The running window minima equal the scan's over random sample
        /// streams, with a sample cap below and above the window's length
        /// and a save/load in the middle, which rebuilds the minima from
        /// the saved samples.
        #[test]
        fn cross_samples_minima_match_a_scan(
            (cap, window_ms) in (1usize..160, 20u64..1500),
            stream in sample_streams(),
        ) {
            let mut samples = CrossSamples::new();
            let mut now = Nanos::ZERO;
            for (gap, rate, queue_delay, other) in stream {
                now += gap;
                samples.push((now, rate, queue_delay), cap);
                let start = now.as_nanos().saturating_sub(window_ms * 1_000_000);
                let expect = scan_window(&samples, start);
                proptest::prop_assert_eq!(samples.window_since(start), expect);
                if other == 39 {
                    let mut bytes = Vec::new();
                    samples.save_state(&mut bytes);
                    let mut restored = CrossSamples::new();
                    let mut r = Reader::new(&bytes);
                    restored.load_state(&mut r).expect("round trip");
                    proptest::prop_assert!(r.is_empty());
                    samples = restored;
                }
            }
        }

        /// Verdicts from the running window minima equal the scan's over
        /// random sample streams at the detector's constants, with μ unset
        /// and moving, and a save/load in the middle.
        #[test]
        fn window_minima_give_the_scans_verdicts(stream in sample_streams()) {
            let mut det = detector();
            let mut now = Nanos::ZERO;
            for (gap, rate, queue_delay, other) in stream {
                now += gap;
                // μ stays unset in a few streams and moves in the rest.
                if other % 20 != 0 || now > Nanos::from_millis(200) {
                    det.mu_filter.update(80_000_000 + other as u64 * 1_000_000, now);
                }
                det.cross_samples.push((now, rate, queue_delay), MAX_SAMPLES);
                let expect = scan_persistence_verdict(&det, now);
                let verdict = det.persistence_verdict(now);
                proptest::prop_assert_eq!(verdict, expect);
                det.last_verdict = verdict;
                if other == 39 {
                    let mut bytes = Vec::new();
                    det.save_state(&mut bytes);
                    let mut restored = detector();
                    let mut r = Reader::new(&bytes);
                    restored.load_state(&mut r).expect("round trip");
                    proptest::prop_assert!(r.is_empty());
                    det = restored;
                }
            }
        }
    }

    /// Pins the detector's saved state, `(len, digest)`, after a fixed
    /// script of 300 samples in which a backlogged flow holds about half
    /// the bottleneck while μ moves: a moved pin is a checkpoint layout or
    /// detector behaviour change.
    #[test]
    fn detector_state_bytes_are_pinned() {
        let mut det = detector();
        let mut verdict = CrossTrafficVerdict::Inelastic;
        for i in 0..300u64 {
            let mu = Rate::from_mbps(94 + i % 5);
            let rtt = 62.0 + (i % 9) as f64;
            let recv = 42.0 + (i % 4) as f64;
            verdict = det.on_measurement(&m(i * 10, rtt, 50, 48.0, recv), mu);
        }
        assert_eq!(verdict, CrossTrafficVerdict::Elastic);
        let mut buf = Vec::new();
        det.save_state(&mut buf);
        assert_eq!(
            (buf.len(), crate::tests::snapshot_digest(&buf)),
            (7241, 0x75c7_9726_25d2_e0e6),
            "saved detector state moved"
        );
    }

    #[test]
    fn feedback_timeout_halves_rate() {
        let mut nimbus = Nimbus::new(NimbusConfig::default(), Rate::from_mbps(40));
        let r = nimbus.on_feedback_timeout(Nanos::from_secs(1));
        assert_eq!(r, Rate::from_mbps(20));
        assert_eq!(nimbus.name(), "nimbus");
    }
}
