//! Bundler configuration, with defaults matching the paper's prototype.
//!
//! Only what a deployment varies is a field. The paper fixes the rest of the
//! control plane — quarter-RTT epochs (§4.5), the pass-through PI controller
//! (§5.1), the 5 % out-of-order threshold (§7.6) — so those are constants in
//! the module that reads each one.

use bundler_cc::BundleAlg;
use bundler_sched::Policy;
use bundler_types::{Duration, Rate};

/// Hard lower bound on the pacing rate.
pub const MIN_RATE: Rate = Rate::from_kbps(500);

/// Hard upper bound on the pacing rate (also the "let traffic pass" rate when
/// Bundler disables itself).
pub const MAX_RATE: Rate = Rate::from_gbps(10);

/// Packet capacity of the sendbox scheduler: roughly the deepest queue a site
/// would let build at its edge (~3 MB, a few hundred ms at the evaluation link
/// rates). The endhosts' own congestion controllers keep the backlog bounded
/// once drops start here, exactly as they would have at the in-network
/// bottleneck.
pub const SENDBOX_QUEUE_CAPACITY_PKTS: usize = 2_048;

/// Parameters of a Bundler deployment.
#[derive(Debug, Clone, Copy)]
pub struct BundlerConfig {
    /// How often the sendbox control plane invokes the congestion controller
    /// (the paper uses CCP's 10 ms interval).
    pub control_interval: Duration,
    /// Initial epoch size (packets between sampled boundary packets) used
    /// until the first RTT estimate exists. Must be a power of two.
    pub initial_epoch_size: u32,
    /// The congestion-control algorithm run on the bundle.
    pub algorithm: BundleAlg,
    /// The scheduling policy applied to the bundle's queue at the sendbox.
    pub policy: Policy,
    /// Initial pacing rate before any feedback arrives.
    pub initial_rate: Rate,
    /// Graceful degradation: when the feedback channel times out (the
    /// receivebox is unreachable, or a control-plane blackout is injected),
    /// fall back to status-quo pass-through at [`MAX_RATE`] instead of letting
    /// the congestion controller keep cutting its rate against stale state.
    /// Control re-engages as soon as a congestion ACK arrives again.
    pub degrade_on_feedback_timeout: bool,
}

impl Default for BundlerConfig {
    fn default() -> Self {
        BundlerConfig {
            control_interval: Duration::from_millis(10),
            initial_epoch_size: 4,
            // The paper's prototype defaults to Copa; this library defaults
            // to the Nimbus BasicDelay rule because its proportional form is
            // markedly more robust at the simulator's epoch-averaged
            // measurement granularity (Figure 14 shows the two provide
            // equivalent benefits). Copa remains available via
            // `BundleAlg::Copa`.
            algorithm: BundleAlg::NimbusBasicDelay,
            policy: Policy::Sfq,
            initial_rate: Rate::from_mbps(10),
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
        if self.control_interval.is_zero() {
            return Err("control_interval must be positive".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{epoch, modes, multipath, pi};

    #[test]
    fn default_config_is_valid_and_matches_paper() {
        let c = BundlerConfig::default();
        c.validate().expect("default config must validate");
        assert_eq!(c.control_interval, Duration::from_millis(10));
        assert_eq!(c.algorithm, BundleAlg::NimbusBasicDelay);
        assert_eq!(c.policy, Policy::Sfq);
        assert_eq!(pi::TARGET, Duration::from_millis(10));
        assert_eq!(pi::ALPHA, 10.0);
        assert_eq!(pi::BETA, 10.0);
        assert_eq!(multipath::THRESHOLD, 0.05);
        assert_eq!(epoch::EPOCH_FRACTION, 0.25);
        assert_eq!(epoch::MAX_EPOCH_SIZE, 1 << 14);
        assert_eq!(modes::ELASTIC_HOLD, Duration::from_millis(500));
        assert_eq!(modes::INELASTIC_HOLD, Duration::from_secs(2));
        assert_eq!(
            (MIN_RATE, MAX_RATE),
            (Rate::from_kbps(500), Rate::from_gbps(10))
        );
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = BundlerConfig {
            initial_epoch_size: 3,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = BundlerConfig {
            control_interval: Duration::ZERO,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
