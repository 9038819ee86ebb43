//! Bundler configuration, with defaults matching the paper's prototype.

use bundler_cc::BundleAlg;
use bundler_sched::Policy;
use bundler_types::{Duration, Rate};

/// Tunable parameters of a Bundler deployment.
#[derive(Debug, Clone, Copy)]
pub struct BundlerConfig {
    /// How often the sendbox control plane invokes the congestion controller
    /// (the paper uses CCP's 10 ms interval).
    pub control_interval: Duration,
    /// Epoch spacing target: measurements should arrive roughly once per
    /// `epoch_fraction` of an RTT; the paper uses 0.25 so that a one-RTT
    /// sliding window covers ~4 epochs.
    pub epoch_fraction: f64,
    /// Initial epoch size (packets between sampled boundary packets) used
    /// until the first RTT estimate exists. Must be a power of two.
    pub initial_epoch_size: u32,
    /// Maximum epoch size the sendbox will ever request.
    pub max_epoch_size: u32,
    /// The congestion-control algorithm run on the bundle.
    pub algorithm: BundleAlg,
    /// The scheduling policy applied to the bundle's queue at the sendbox.
    pub policy: Policy,
    /// Initial pacing rate before any feedback arrives.
    pub initial_rate: Rate,
    /// Hard lower bound on the pacing rate.
    pub min_rate: Rate,
    /// Hard upper bound on the pacing rate (also used as the "let traffic
    /// pass" rate when Bundler disables itself).
    pub max_rate: Rate,
    /// Target standing queue at the sendbox while in pass-through mode;
    /// the paper derives 8 ms from the Nimbus pulse area and adds a 2 ms
    /// cushion, giving 10 ms.
    pub pass_through_target_queue: Duration,
    /// Proportional gain of the pass-through PI controller (paper: α = 10).
    pub pi_alpha: f64,
    /// Derivative gain of the pass-through PI controller (paper: β = 10).
    pub pi_beta: f64,
    /// Fraction of out-of-order congestion ACKs above which the bundle is
    /// declared to traverse imbalanced multiple paths (paper §7.6: 5 %).
    pub multipath_threshold: f64,
    /// Minimum number of congestion ACKs before the multipath detector may
    /// trigger.
    pub multipath_min_samples: u64,
    /// How long the elastic verdict must persist before switching to
    /// pass-through mode.
    pub elastic_hold: Duration,
    /// How long the inelastic verdict must persist before switching back to
    /// delay-control mode.
    pub inelastic_hold: Duration,
    /// If no congestion ACK arrives for this long, the controller is told
    /// feedback timed out.
    pub feedback_timeout: Duration,
    /// Packet capacity of the sendbox scheduler.
    pub sendbox_queue_capacity_pkts: usize,
    /// Whether cross-traffic detection (and thus mode switching) is enabled.
    pub enable_cross_traffic_detection: bool,
    /// Whether multipath detection (and thus self-disabling) is enabled.
    pub enable_multipath_detection: bool,
    /// Graceful degradation: when the feedback channel times out (the
    /// receivebox is unreachable, or a control-plane blackout is injected),
    /// fall back to status-quo pass-through at `max_rate` instead of letting
    /// the congestion controller keep cutting its rate against stale state.
    /// Control re-engages as soon as a congestion ACK arrives again.
    pub degrade_on_feedback_timeout: bool,
}

impl Default for BundlerConfig {
    fn default() -> Self {
        BundlerConfig {
            control_interval: Duration::from_millis(10),
            epoch_fraction: 0.25,
            initial_epoch_size: 4,
            max_epoch_size: 1 << 14,
            // The paper's prototype defaults to Copa; this library defaults
            // to the Nimbus BasicDelay rule because its proportional form is
            // markedly more robust at the simulator's epoch-averaged
            // measurement granularity (Figure 14 shows the two provide
            // equivalent benefits). Copa remains available via
            // `BundleAlg::Copa`.
            algorithm: BundleAlg::NimbusBasicDelay,
            policy: Policy::Sfq,
            initial_rate: Rate::from_mbps(10),
            min_rate: Rate::from_kbps(500),
            max_rate: Rate::from_gbps(10),
            pass_through_target_queue: Duration::from_millis(10),
            pi_alpha: 10.0,
            pi_beta: 10.0,
            multipath_threshold: 0.05,
            multipath_min_samples: 100,
            elastic_hold: Duration::from_millis(500),
            inelastic_hold: Duration::from_secs(2),
            feedback_timeout: Duration::from_secs(1),
            // Roughly the deepest queue a site would let build at its edge
            // (~3 MB, a few hundred ms at the evaluation link rates). The
            // endhosts' own congestion controllers keep the backlog bounded
            // once drops start here, exactly as they would have at the
            // in-network bottleneck.
            sendbox_queue_capacity_pkts: 2_048,
            enable_cross_traffic_detection: true,
            enable_multipath_detection: true,
            degrade_on_feedback_timeout: false,
        }
    }
}

impl BundlerConfig {
    /// Validates invariants the rest of the system depends on.
    pub fn validate(&self) -> Result<(), String> {
        if !self.initial_epoch_size.is_power_of_two() {
            return Err(format!(
                "initial_epoch_size must be a power of two, got {}",
                self.initial_epoch_size
            ));
        }
        if !self.max_epoch_size.is_power_of_two() {
            return Err(format!(
                "max_epoch_size must be a power of two, got {}",
                self.max_epoch_size
            ));
        }
        if self.epoch_fraction <= 0.0 || self.epoch_fraction > 1.0 {
            return Err(format!(
                "epoch_fraction must be in (0, 1], got {}",
                self.epoch_fraction
            ));
        }
        if self.min_rate > self.max_rate {
            return Err("min_rate exceeds max_rate".to_string());
        }
        if !(0.0..=1.0).contains(&self.multipath_threshold) {
            return Err("multipath_threshold must be a fraction".to_string());
        }
        if self.control_interval.is_zero() {
            return Err("control_interval must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper() {
        let c = BundlerConfig::default();
        c.validate().expect("default config must validate");
        assert_eq!(c.control_interval, Duration::from_millis(10));
        assert_eq!(c.pass_through_target_queue, Duration::from_millis(10));
        assert_eq!(c.pi_alpha, 10.0);
        assert_eq!(c.pi_beta, 10.0);
        assert!((c.multipath_threshold - 0.05).abs() < 1e-12);
        assert_eq!(c.epoch_fraction, 0.25);
        assert_eq!(c.algorithm, BundleAlg::NimbusBasicDelay);
        assert_eq!(c.policy, Policy::Sfq);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = BundlerConfig {
            initial_epoch_size: 3,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = BundlerConfig {
            epoch_fraction: 0.0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = BundlerConfig {
            min_rate: Rate::from_mbps(100),
            max_rate: Rate::from_mbps(10),
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = BundlerConfig {
            multipath_threshold: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = BundlerConfig {
            control_interval: Duration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = BundlerConfig {
            max_epoch_size: 1000,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
