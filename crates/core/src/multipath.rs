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

use crate::measurement::AckOrdering;

/// Out-of-order fraction above which multipath imbalance is declared.
pub(crate) const THRESHOLD: f64 = 0.05;

/// Number of most recent measurements the fraction is computed over.
pub(crate) const WINDOW: usize = 500;

/// Minimum number of measurements before a verdict is given.
pub(crate) const MIN_SAMPLES: u64 = 100;

/// Sliding-window out-of-order fraction detector.
#[derive(Debug, Default)]
pub struct MultipathDetector {
    recent: VecDeque<bool>,
    out_of_order_in_window: usize,
    total_seen: u64,
    total_out_of_order: u64,
}

impl MultipathDetector {
    /// Feeds one measurement's ordering classification.
    pub fn on_ack(&mut self, ordering: AckOrdering) {
        let ooo = ordering == AckOrdering::OutOfOrder;
        self.total_seen += 1;
        if ooo {
            self.total_out_of_order += 1;
        }
        self.recent.push_back(ooo);
        if ooo {
            self.out_of_order_in_window += 1;
        }
        while self.recent.len() > WINDOW {
            if self.recent.pop_front() == Some(true) {
                self.out_of_order_in_window -= 1;
            }
        }
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
        self.total_seen >= MIN_SAMPLES && self.window_fraction() > THRESHOLD
    }

    /// Total measurements observed.
    pub fn samples(&self) -> u64 {
        self.total_seen
    }
}

serde::layout!(state MultipathDetector {
    recent, out_of_order_in_window, total_seen, total_out_of_order,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut MultipathDetector, pattern: &[bool]) {
        for &ooo in pattern {
            let ordering = if ooo {
                AckOrdering::OutOfOrder
            } else {
                AckOrdering::InOrder
            };
            det.on_ack(ordering);
        }
    }

    #[test]
    fn all_in_order_never_triggers() {
        let mut det = MultipathDetector::default();
        feed(&mut det, &vec![false; 1000]);
        assert!(!det.imbalanced());
        assert_eq!(det.window_fraction(), 0.0);
        assert_eq!(det.lifetime_fraction(), 0.0);
    }

    #[test]
    fn single_path_level_reordering_stays_below_threshold() {
        // 0.4 % out-of-order (the paper's worst single-path case).
        let mut det = MultipathDetector::default();
        let pattern: Vec<bool> = (0..1000).map(|i| i % 250 == 0).collect();
        feed(&mut det, &pattern);
        assert!(det.window_fraction() < 0.05);
        assert!(!det.imbalanced());
    }

    #[test]
    fn multipath_level_reordering_triggers() {
        // 20 % out-of-order (the paper's best multipath case).
        let mut det = MultipathDetector::default();
        let pattern: Vec<bool> = (0..1000).map(|i| i % 5 == 0).collect();
        feed(&mut det, &pattern);
        assert!(det.window_fraction() > 0.05);
        assert!(det.imbalanced());
    }

    #[test]
    fn does_not_trigger_before_min_samples() {
        let mut det = MultipathDetector::default();
        feed(&mut det, &[true; 50]);
        assert!(!det.imbalanced(), "needs min_samples before a verdict");
        feed(&mut det, &[true; 60]);
        assert!(det.imbalanced());
    }

    #[test]
    fn window_slides_so_detector_recovers() {
        let mut det = MultipathDetector::default();
        feed(&mut det, &[true; WINDOW]);
        assert!(det.imbalanced());
        // A long run of in-order ACKs pushes the bad period out of the
        // window and the detector clears.
        feed(&mut det, &[false; 2 * WINDOW]);
        assert!(!det.imbalanced());
        assert_eq!(det.window_fraction(), 0.0);
        assert!(det.lifetime_fraction() > 0.0);
        assert_eq!(det.samples(), 3 * WINDOW as u64);
    }
}
