//! Imbalanced-multipath detection (§5.2 of the paper).
//!
//! When a load balancer spreads the bundle's flows over paths with different
//! delays, the epoch measurements become a random mix of the paths and the
//! delay-based controller misbehaves. The tell-tale is congestion ACKs
//! arriving *out of send order*: the paper finds that single-path scenarios
//! produce at most 0.4 % out-of-order measurements while imbalanced
//! multipath scenarios produce at least 20 %, so a 5 % threshold cleanly
//! separates them (§7.6). When the detector fires, the sendbox disables its
//! rate control and falls back to status-quo behaviour until conditions
//! improve.

use std::collections::VecDeque;

use bundler_types::Nanos;

use crate::measurement::AckOrdering;

/// Configuration of the multipath detector.
#[derive(Debug, Clone, Copy)]
pub struct MultipathConfig {
    /// Out-of-order fraction above which multipath imbalance is declared.
    pub threshold: f64,
    /// Number of most recent measurements the fraction is computed over.
    pub window: usize,
    /// Minimum number of measurements before a verdict is given.
    pub min_samples: u64,
}

impl Default for MultipathConfig {
    fn default() -> Self {
        MultipathConfig {
            threshold: 0.05,
            window: 500,
            min_samples: 100,
        }
    }
}

/// Sliding-window out-of-order fraction detector.
#[derive(Debug)]
pub struct MultipathDetector {
    config: MultipathConfig,
    recent: VecDeque<bool>,
    out_of_order_in_window: usize,
    total_seen: u64,
    total_out_of_order: u64,
    last_update: Option<Nanos>,
}

impl MultipathDetector {
    /// Creates a detector.
    pub fn new(config: MultipathConfig) -> Self {
        MultipathDetector {
            config,
            recent: VecDeque::new(),
            out_of_order_in_window: 0,
            total_seen: 0,
            total_out_of_order: 0,
            last_update: None,
        }
    }

    /// Creates a detector with the paper's defaults (5 % threshold).
    pub fn with_defaults() -> Self {
        Self::new(MultipathConfig::default())
    }

    /// Feeds one measurement's ordering classification.
    pub fn on_ack(&mut self, ordering: AckOrdering, now: Nanos) {
        let ooo = ordering == AckOrdering::OutOfOrder;
        self.total_seen += 1;
        if ooo {
            self.total_out_of_order += 1;
        }
        self.recent.push_back(ooo);
        if ooo {
            self.out_of_order_in_window += 1;
        }
        while self.recent.len() > self.config.window {
            if self.recent.pop_front() == Some(true) {
                self.out_of_order_in_window -= 1;
            }
        }
        self.last_update = Some(now);
    }

    /// Out-of-order fraction over the sliding window.
    pub fn window_fraction(&self) -> f64 {
        if self.recent.is_empty() {
            0.0
        } else {
            self.out_of_order_in_window as f64 / self.recent.len() as f64
        }
    }

    /// Out-of-order fraction over the bundle's lifetime.
    pub fn lifetime_fraction(&self) -> f64 {
        if self.total_seen == 0 {
            0.0
        } else {
            self.total_out_of_order as f64 / self.total_seen as f64
        }
    }

    /// True once enough measurements exist and the windowed fraction exceeds
    /// the threshold.
    pub fn imbalanced(&self) -> bool {
        self.total_seen >= self.config.min_samples && self.window_fraction() > self.config.threshold
    }

    /// Total measurements observed.
    pub fn samples(&self) -> u64 {
        self.total_seen
    }
}

// The config is rebuilt at construction time.
serde::layout!(state MultipathDetector {
    recent, out_of_order_in_window, total_seen, total_out_of_order, last_update,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut MultipathDetector, pattern: &[bool]) {
        for (i, &ooo) in pattern.iter().enumerate() {
            let ordering = if ooo {
                AckOrdering::OutOfOrder
            } else {
                AckOrdering::InOrder
            };
            det.on_ack(ordering, Nanos::from_millis(i as u64));
        }
    }

    #[test]
    fn all_in_order_never_triggers() {
        let mut det = MultipathDetector::with_defaults();
        feed(&mut det, &vec![false; 1000]);
        assert!(!det.imbalanced());
        assert_eq!(det.window_fraction(), 0.0);
        assert_eq!(det.lifetime_fraction(), 0.0);
    }

    #[test]
    fn single_path_level_reordering_stays_below_threshold() {
        // 0.4 % out-of-order (the paper's worst single-path case).
        let mut det = MultipathDetector::with_defaults();
        let pattern: Vec<bool> = (0..1000).map(|i| i % 250 == 0).collect();
        feed(&mut det, &pattern);
        assert!(det.window_fraction() < 0.05);
        assert!(!det.imbalanced());
    }

    #[test]
    fn multipath_level_reordering_triggers() {
        // 20 % out-of-order (the paper's best multipath case).
        let mut det = MultipathDetector::with_defaults();
        let pattern: Vec<bool> = (0..1000).map(|i| i % 5 == 0).collect();
        feed(&mut det, &pattern);
        assert!(det.window_fraction() > 0.05);
        assert!(det.imbalanced());
    }

    #[test]
    fn does_not_trigger_before_min_samples() {
        let mut det = MultipathDetector::with_defaults();
        feed(&mut det, &[true; 50]);
        assert!(!det.imbalanced(), "needs min_samples before a verdict");
        feed(&mut det, &[true; 60]);
        assert!(det.imbalanced());
    }

    #[test]
    fn window_slides_so_detector_recovers() {
        let mut det = MultipathDetector::new(MultipathConfig {
            threshold: 0.05,
            window: 100,
            min_samples: 10,
        });
        feed(&mut det, &[true; 100]);
        assert!(det.imbalanced());
        // A long run of in-order ACKs pushes the bad period out of the
        // window and the detector clears.
        feed(&mut det, &[false; 200]);
        assert!(!det.imbalanced());
        assert_eq!(det.window_fraction(), 0.0);
        assert!(det.lifetime_fraction() > 0.0);
        assert_eq!(det.samples(), 300);
    }
}
