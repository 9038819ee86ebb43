//! Windowed min/max filters over time.
//!
//! BBR needs a windowed maximum of delivery-rate samples and a windowed
//! minimum of RTT samples; Nimbus and Copa track windowed minima of RTT.
//! These filters keep a monotonic deque of (time, value) samples so both
//! insert and query are amortized O(1).

use bundler_types::{Duration, Nanos};
use serde::binary::{Decode, Encode};
use std::collections::VecDeque;

/// A windowed extremum filter.
#[derive(Debug, Clone)]
pub struct WindowedFilter<T> {
    window: Duration,
    /// Monotonic deque: front is the current extremum.
    samples: VecDeque<(Nanos, T)>,
    keep_max: bool,
}

impl<T: PartialOrd + Copy> WindowedFilter<T> {
    /// Creates a windowed-maximum filter.
    pub fn new_max(window: Duration) -> Self {
        WindowedFilter {
            window,
            samples: VecDeque::new(),
            keep_max: true,
        }
    }

    /// Creates a windowed-minimum filter.
    pub fn new_min(window: Duration) -> Self {
        WindowedFilter {
            window,
            samples: VecDeque::new(),
            keep_max: false,
        }
    }

    fn dominates(&self, a: T, b: T) -> bool {
        if self.keep_max {
            a >= b
        } else {
            a <= b
        }
    }

    /// Inserts a sample observed at `now`.
    pub fn update(&mut self, value: T, now: Nanos) {
        // Expire old samples.
        while let Some(&(t, _)) = self.samples.front() {
            if now.saturating_since(t) > self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        // Maintain monotonicity: remove trailing samples dominated by the new
        // one.
        while let Some(&(_, v)) = self.samples.back() {
            if self.dominates(value, v) {
                self.samples.pop_back();
            } else {
                break;
            }
        }
        self.samples.push_back((now, value));
    }

    /// Returns the current extremum within the window ending at the most
    /// recent update.
    pub fn get(&self) -> Option<T> {
        self.samples.front().map(|&(_, v)| v)
    }

    /// Drops all samples.
    pub fn reset(&mut self) {
        self.samples.clear();
    }

    /// True if the filter holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

// The window length and extremum direction are configuration.
serde::layout!(state WindowedFilter<T> where [T: Encode + Decode] { samples });

/// An exponentially weighted moving average with configurable gain.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA where each new sample receives weight `alpha`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0,1]");
        Ewma { alpha, value: None }
    }

    /// Adds a sample.
    pub fn update(&mut self, sample: f64) -> f64 {
        let v = match self.value {
            None => sample,
            Some(prev) => prev * (1.0 - self.alpha) + sample * self.alpha,
        };
        self.value = Some(v);
        v
    }

    /// Current smoothed value, if any samples have been added.
    pub fn get(&self) -> Option<f64> {
        self.value
    }

    /// Clears the average.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

// The gain is configuration.
serde::layout!(state Ewma { value });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_filter_tracks_maximum() {
        let mut f = WindowedFilter::new_max(Duration::from_millis(100));
        f.update(5u64, Nanos::from_millis(0));
        f.update(3u64, Nanos::from_millis(10));
        f.update(8u64, Nanos::from_millis(20));
        f.update(2u64, Nanos::from_millis(30));
        assert_eq!(f.get(), Some(8));
    }

    #[test]
    fn max_filter_expires_old_samples() {
        let mut f = WindowedFilter::new_max(Duration::from_millis(100));
        f.update(100u64, Nanos::from_millis(0));
        f.update(5u64, Nanos::from_millis(50));
        // At t=150 the 100 sample (age 150ms) is outside the window; the 5
        // (age 100ms) is not, and dominates the new sample.
        f.update(1u64, Nanos::from_millis(150));
        assert_eq!(f.get(), Some(5));
    }

    #[test]
    fn min_filter_tracks_minimum() {
        let mut f = WindowedFilter::new_min(Duration::from_millis(100));
        f.update(50u64, Nanos::from_millis(0));
        f.update(30u64, Nanos::from_millis(10));
        f.update(70u64, Nanos::from_millis(20));
        assert_eq!(f.get(), Some(30));
        // At t=115 the 30 sample (age 105ms) has left the window.
        f.update(80u64, Nanos::from_millis(115));
        assert_eq!(f.get(), Some(70));
    }

    #[test]
    fn reset_and_empty() {
        let mut f: WindowedFilter<u64> = WindowedFilter::new_min(Duration::from_millis(10));
        assert!(f.is_empty());
        assert_eq!(f.get(), None);
        f.update(1, Nanos::ZERO);
        assert!(!f.is_empty());
        f.reset();
        assert!(f.is_empty());
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.25);
        assert_eq!(e.get(), None);
        for _ in 0..100 {
            e.update(10.0);
        }
        assert!((e.get().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn ewma_first_sample_is_exact() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.update(42.0), 42.0);
        e.reset();
        assert_eq!(e.get(), None);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(1.5);
    }
}
