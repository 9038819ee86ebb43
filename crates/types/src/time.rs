//! Simulation-friendly time types.
//!
//! All Bundler components are driven by caller-supplied timestamps rather
//! than the wall clock, so that the same code runs inside the deterministic
//! simulator and in a real datapath. [`Nanos`] is an absolute point in time,
//! [`Duration`] a difference between two such points. Both are thin wrappers
//! around `u64` nanosecond counts.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute timestamp, in nanoseconds since the start of the simulation
/// (or since an arbitrary epoch on a real datapath).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

/// A span of time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Nanos {
    /// The zero timestamp.
    pub const ZERO: Nanos = Nanos(0);
    /// The maximum representable timestamp; useful as an "infinitely far in
    /// the future" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Builds a timestamp from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Nanos(secs * 1_000_000_000)
    }

    /// Builds a timestamp from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Builds a timestamp from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this timestamp in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns this timestamp in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns this timestamp in (fractional) microseconds — the unit of
    /// Chrome trace-event `ts` fields.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_since(self, earlier: Nanos) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked subtraction returning the elapsed duration, or `None` if
    /// `earlier` is later than `self`.
    pub fn checked_since(self, earlier: Nanos) -> Option<Duration> {
        self.0.checked_sub(earlier.0).map(Duration)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: Duration) -> Nanos {
        Nanos(self.0.saturating_add(d.0))
    }

    /// Returns the later of two timestamps.
    pub fn max(self, other: Nanos) -> Nanos {
        Nanos(self.0.max(other.0))
    }

    /// Returns the earlier of two timestamps.
    pub fn min(self, other: Nanos) -> Nanos {
        Nanos(self.0.min(other.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);
    /// The maximum representable duration.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Builds a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Duration(secs * 1_000_000_000)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Builds a duration from fractional seconds, saturating at zero for
    /// negative inputs.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 {
            Duration::ZERO
        } else {
            Duration((secs * 1e9).round() as u64)
        }
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns this duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns this duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns this duration in (fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }

    /// Multiplies the duration by a non-negative floating point factor,
    /// saturating at the representable range.
    pub fn mul_f64(self, factor: f64) -> Duration {
        if factor <= 0.0 {
            return Duration::ZERO;
        }
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(v.round() as u64)
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        Duration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        Duration(self.0.min(other.0))
    }
}

impl Add<Duration> for Nanos {
    type Output = Nanos;
    fn add(self, rhs: Duration) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Nanos {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Nanos {
    type Output = Nanos;
    fn sub(self, rhs: Duration) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl Sub<Nanos> for Nanos {
    type Output = Duration;
    fn sub(self, rhs: Nanos) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl Sum for Duration {
    fn sum<I: Iterator<Item = Duration>>(iter: I) -> Duration {
        Duration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Nanos::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Duration::from_secs(1).as_secs_f64(), 1.0);
        assert_eq!(Duration::from_millis(250).as_millis_f64(), 250.0);
    }

    #[test]
    fn arithmetic() {
        let t0 = Nanos::from_millis(10);
        let t1 = t0 + Duration::from_millis(5);
        assert_eq!(t1, Nanos::from_millis(15));
        assert_eq!(t1 - t0, Duration::from_millis(5));
        assert_eq!(t0.saturating_since(t1), Duration::ZERO);
        assert_eq!(t1.saturating_since(t0), Duration::from_millis(5));
        assert_eq!(t0.checked_since(t1), None);
    }

    #[test]
    fn duration_scaling() {
        let d = Duration::from_millis(100);
        assert_eq!(d.mul_f64(0.5), Duration::from_millis(50));
        assert_eq!(d.mul_f64(-1.0), Duration::ZERO);
        assert_eq!(d * 3, Duration::from_millis(300));
        assert_eq!(d / 4, Duration::from_millis(25));
    }

    #[test]
    fn duration_from_secs_f64_saturates() {
        assert_eq!(Duration::from_secs_f64(-3.0), Duration::ZERO);
        assert_eq!(
            Duration::from_secs_f64(1e300),
            Duration::from_secs_f64(1e300)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", Duration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Duration(10)), "10ns");
    }

    #[test]
    fn sum_of_durations() {
        let total: Duration = [Duration::from_millis(1), Duration::from_millis(2)]
            .into_iter()
            .sum();
        assert_eq!(total, Duration::from_millis(3));
    }

    #[test]
    fn min_max() {
        let a = Nanos::from_millis(1);
        let b = Nanos::from_millis(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(
            Duration::from_millis(1).max(Duration::from_millis(2)),
            Duration::from_millis(2)
        );
    }
}
