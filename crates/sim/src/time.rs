//! Simulated time.
//!
//! The simulator measures time in integer **nanoseconds**. Two newtypes keep
//! instants and durations from being confused ([C-NEWTYPE]):
//!
//! * [`SimTime`] — an instant on the simulation clock (ns since start).
//! * [`SimDur`] — a span of simulated time.
//!
//! ```
//! use sesame_sim::{SimDur, SimTime};
//!
//! let t = SimTime::ZERO + SimDur::from_us(3);
//! assert_eq!(t.as_nanos(), 3_000);
//! assert_eq!(t - SimTime::ZERO, SimDur::from_nanos(3_000));
//! ```
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDur(u64);

impl SimTime {
    /// The instant at which every simulation starts.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Microseconds since simulation start, as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration elapsed since `earlier`.
    ///
    /// Returns [`SimDur::ZERO`] when `earlier` is in the future, mirroring
    /// `Instant::saturating_duration_since`.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }
}

impl SimDur {
    /// The empty duration.
    pub const ZERO: SimDur = SimDur(0);
    /// The largest representable duration.
    pub const MAX: SimDur = SimDur(u64::MAX);

    /// Creates a duration of `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDur(nanos)
    }

    /// Creates a duration of `micros` microseconds.
    #[inline]
    pub const fn from_us(micros: u64) -> Self {
        SimDur(micros * 1_000)
    }

    /// Creates a duration of `millis` milliseconds.
    #[inline]
    pub const fn from_ms(millis: u64) -> Self {
        SimDur(millis * 1_000_000)
    }

    /// Creates a duration of `secs` seconds.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDur(secs * 1_000_000_000)
    }

    /// The duration in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in seconds, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration in microseconds, as a float (for reporting only).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Whether the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction; returns [`SimDur::ZERO`] on underflow.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies by a float factor, rounding to nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> SimDur {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "duration factor must be finite and non-negative, got {factor}"
        );
        SimDur((self.0 as f64 * factor).round() as u64)
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDur> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl Add for SimDur {
    type Output = SimDur;
    #[inline]
    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign for SimDur {
    #[inline]
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDur {
    type Output = SimDur;
    #[inline]
    fn sub(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 - rhs.0)
    }
}

impl SubAssign for SimDur {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDur) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn mul(self, rhs: u64) -> SimDur {
        SimDur(self.0 * rhs)
    }
}

impl Div<u64> for SimDur {
    type Output = SimDur;
    #[inline]
    fn div(self, rhs: u64) -> SimDur {
        SimDur(self.0 / rhs)
    }
}

impl Div<SimDur> for SimDur {
    type Output = f64;
    #[inline]
    fn div(self, rhs: SimDur) -> f64 {
        self.0 as f64 / rhs.0 as f64
    }
}

impl Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", SimDur(self.0))
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimDur::from_us(1).as_nanos(), 1_000);
        assert_eq!(SimDur::from_ms(1).as_nanos(), 1_000_000);
        assert_eq!(SimDur::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_nanos(42).as_nanos(), 42);
    }

    #[test]
    fn instant_duration_arithmetic() {
        let t0 = SimTime::from_nanos(100);
        let t1 = t0 + SimDur::from_nanos(50);
        assert_eq!(t1.as_nanos(), 150);
        assert_eq!(t1 - t0, SimDur::from_nanos(50));
        assert_eq!(t1 - SimDur::from_nanos(150), SimTime::ZERO);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(late.saturating_since(early), SimDur::from_nanos(10));
        assert_eq!(early.saturating_since(late), SimDur::ZERO);
    }

    #[test]
    fn duration_scaling() {
        let d = SimDur::from_us(10);
        assert_eq!(d * 3, SimDur::from_us(30));
        assert_eq!(d / 2, SimDur::from_us(5));
        assert_eq!(d / SimDur::from_us(5), 2.0);
        assert_eq!(d.mul_f64(0.5), SimDur::from_us(5));
    }

    #[test]
    fn duration_sum_and_saturation() {
        let total: SimDur = [SimDur::from_nanos(1), SimDur::from_nanos(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDur::from_nanos(3));
        assert_eq!(
            SimDur::from_nanos(1).saturating_sub(SimDur::from_nanos(5)),
            SimDur::ZERO
        );
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(SimDur::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimDur::from_us(5).to_string(), "5.000us");
        assert_eq!(SimDur::from_ms(5).to_string(), "5.000ms");
        assert_eq!(SimDur::from_secs(5).to_string(), "5.000s");
        assert_eq!(SimTime::from_nanos(1500).to_string(), "t=1.500us");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert!(SimDur::from_nanos(1) < SimDur::from_us(1));
        assert!(SimTime::MAX > SimTime::ZERO);
    }
}
