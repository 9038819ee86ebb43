//! Data-rate type used for pacing, token buckets and congestion control.

use core::fmt;
use core::ops::{Add, Sub};

use crate::time::Duration;

/// A data rate in bits per second.
///
/// Rates appear everywhere in Bundler: the congestion controller computes a
/// bundle rate, the token-bucket filter enforces it, and the measurement
/// module estimates send and receive rates from congestion ACKs. Keeping the
/// unit in the type avoids the bits-vs-bytes and per-second-vs-per-ms
/// confusion endemic to this kind of code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rate(u64);

// Declared here rather than in `codec` because the field is private.
serde::layout!(value Rate { 0 });

impl Rate {
    /// The zero rate.
    pub const ZERO: Rate = Rate(0);
    /// The maximum representable rate; used as an "unlimited" sentinel.
    pub const MAX: Rate = Rate(u64::MAX);

    /// Builds a rate from bits per second.
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Builds a rate from kilobits per second.
    pub const fn from_kbps(kbps: u64) -> Self {
        Rate(kbps * 1_000)
    }

    /// Builds a rate from megabits per second.
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Builds a rate from gigabits per second.
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Builds a rate from fractional megabits per second, saturating at zero.
    pub fn from_mbps_f64(mbps: f64) -> Self {
        if mbps <= 0.0 {
            Rate::ZERO
        } else {
            Rate((mbps * 1e6).round() as u64)
        }
    }

    /// Builds a rate from bytes per second.
    pub const fn from_bytes_per_sec(bytes: u64) -> Self {
        Rate(bytes * 8)
    }

    /// Computes the average rate needed to transfer `bytes` in `interval`.
    ///
    /// Returns [`Rate::MAX`] for a zero-length interval.
    pub fn from_bytes_over(bytes: u64, interval: Duration) -> Self {
        if interval.is_zero() {
            return Rate::MAX;
        }
        let bits = bytes as f64 * 8.0;
        Rate((bits / interval.as_secs_f64()).round() as u64)
    }

    /// Returns the rate in bits per second.
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Returns the rate in (fractional) megabits per second.
    pub fn as_mbps_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the rate in bytes per second.
    pub fn as_bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Time to serialize `bytes` bytes at this rate.
    ///
    /// Returns [`Duration::MAX`] for a zero rate.
    pub fn transmit_time(self, bytes: u64) -> Duration {
        if self.0 == 0 {
            return Duration::MAX;
        }
        let secs = (bytes as f64 * 8.0) / self.0 as f64;
        Duration::from_secs_f64(secs)
    }

    /// Number of bytes that can be sent at this rate over `interval`.
    pub fn bytes_over(self, interval: Duration) -> u64 {
        (self.as_bytes_per_sec() * interval.as_secs_f64()).floor() as u64
    }

    /// Scales the rate by a non-negative factor, saturating at zero.
    pub fn mul_f64(self, factor: f64) -> Rate {
        if factor <= 0.0 {
            return Rate::ZERO;
        }
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            Rate::MAX
        } else {
            Rate(v.round() as u64)
        }
    }

    /// Saturating subtraction of two rates.
    pub fn saturating_sub(self, other: Rate) -> Rate {
        Rate(self.0.saturating_sub(other.0))
    }

    /// Saturating addition of two rates.
    pub fn saturating_add(self, other: Rate) -> Rate {
        Rate(self.0.saturating_add(other.0))
    }

    /// Returns the larger of two rates.
    pub fn max(self, other: Rate) -> Rate {
        Rate(self.0.max(other.0))
    }

    /// Returns the smaller of two rates.
    pub fn min(self, other: Rate) -> Rate {
        Rate(self.0.min(other.0))
    }

    /// True if this is the zero rate.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Clamps this rate into `[lo, hi]`.
    pub fn clamp(self, lo: Rate, hi: Rate) -> Rate {
        Rate(self.0.clamp(lo.0, hi.0))
    }
}

impl Add for Rate {
    type Output = Rate;
    fn add(self, rhs: Rate) -> Rate {
        Rate(self.0 + rhs.0)
    }
}

impl Sub for Rate {
    type Output = Rate;
    fn sub(self, rhs: Rate) -> Rate {
        Rate(self.0 - rhs.0)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}Gbit/s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}Mbit/s", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}Kbit/s", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}bit/s", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Rate::from_mbps(96).as_bps(), 96_000_000);
        assert_eq!(Rate::from_kbps(12).as_bps(), 12_000);
        assert_eq!(Rate::from_gbps(1).as_bps(), 1_000_000_000);
        assert_eq!(Rate::from_bytes_per_sec(100).as_bps(), 800);
        assert_eq!(Rate::from_mbps_f64(1.5).as_bps(), 1_500_000);
        assert_eq!(Rate::from_mbps_f64(-2.0), Rate::ZERO);
    }

    #[test]
    fn transmit_time_of_mtu() {
        // 1500 bytes at 12 Mbit/s is exactly 1 ms.
        let r = Rate::from_mbps(12);
        assert_eq!(r.transmit_time(1500), Duration::from_millis(1));
        assert_eq!(Rate::ZERO.transmit_time(1), Duration::MAX);
    }

    #[test]
    fn rate_from_bytes_over_interval() {
        // 12500 bytes over 10 ms is 10 Mbit/s.
        let r = Rate::from_bytes_over(12_500, Duration::from_millis(10));
        assert_eq!(r, Rate::from_mbps(10));
        assert_eq!(Rate::from_bytes_over(100, Duration::ZERO), Rate::MAX);
    }

    #[test]
    fn bytes_over_interval() {
        let r = Rate::from_mbps(8);
        assert_eq!(r.bytes_over(Duration::from_secs(1)), 1_000_000);
        assert_eq!(r.bytes_over(Duration::from_millis(1)), 1_000);
    }

    #[test]
    fn scaling_and_clamping() {
        let r = Rate::from_mbps(100);
        assert_eq!(r.mul_f64(0.5), Rate::from_mbps(50));
        assert_eq!(r.mul_f64(-1.0), Rate::ZERO);
        assert_eq!(
            r.clamp(Rate::from_mbps(10), Rate::from_mbps(40)),
            Rate::from_mbps(40)
        );
        assert_eq!(
            Rate::from_mbps(5).clamp(Rate::from_mbps(10), Rate::from_mbps(40)),
            Rate::from_mbps(10)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Rate::from_mbps(96)), "96.000Mbit/s");
        assert_eq!(format!("{}", Rate::from_gbps(2)), "2.000Gbit/s");
        assert_eq!(format!("{}", Rate::from_bps(100)), "100bit/s");
    }
}
