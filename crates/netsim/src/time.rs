//! Simulated time.
//!
//! The simulator clock is a non-negative `f64` number of seconds wrapped in
//! [`SimTime`]. Durations are [`TimeDelta`]. Both are totally ordered (NaN is
//! rejected at construction), which lets them key the event queue.

use std::cmp::Ordering;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use crate::units::Latency;

/// An absolute instant on the simulated clock, in seconds since simulation
/// start.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimTime(f64);

/// A span of simulated time, in seconds. May only be non-negative.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TimeDelta(f64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0.0);

    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "SimTime must be finite and >= 0, got {s}");
        SimTime(s)
    }

    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Time elapsed since `earlier`. Saturates at zero for robustness against
    /// floating-point jitter.
    pub fn since(self, earlier: SimTime) -> TimeDelta {
        TimeDelta((self.0 - earlier.0).max(0.0))
    }
}

impl TimeDelta {
    pub const ZERO: TimeDelta = TimeDelta(0.0);

    pub fn from_secs(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "TimeDelta must be finite and >= 0, got {s}");
        TimeDelta(s)
    }

    pub fn from_millis(ms: f64) -> Self {
        Self::from_secs(ms / 1e3)
    }

    pub fn as_secs(self) -> f64 {
        self.0
    }

    pub fn as_millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl From<Latency> for TimeDelta {
    fn from(l: Latency) -> Self {
        TimeDelta(l.as_secs())
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    fn cmp(&self, other: &Self) -> Ordering {
        // Construction forbids NaN, so partial_cmp always succeeds.
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for TimeDelta {}

impl Ord for TimeDelta {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("TimeDelta is never NaN")
    }
}

impl PartialOrd for TimeDelta {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<TimeDelta> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: TimeDelta) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for SimTime {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = TimeDelta;
    fn sub(self, rhs: SimTime) -> TimeDelta {
        self.since(rhs)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl AddAssign for TimeDelta {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Mul<f64> for TimeDelta {
    type Output = TimeDelta;
    fn mul(self, rhs: f64) -> TimeDelta {
        TimeDelta::from_secs(self.0 * rhs)
    }
}

impl Div<f64> for TimeDelta {
    type Output = TimeDelta;
    fn div(self, rhs: f64) -> TimeDelta {
        TimeDelta::from_secs(self.0 / rhs)
    }
}

impl Sum for TimeDelta {
    fn sum<I: Iterator<Item = TimeDelta>>(iter: I) -> TimeDelta {
        iter.fold(TimeDelta::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0 {
            write!(f, "{:.3} s", self.0)
        } else {
            write!(f, "{:.3} ms", self.as_millis())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + TimeDelta::from_millis(1500.0);
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
        let d = t - SimTime::from_secs(0.5);
        assert!((d.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(2.0);
        assert_eq!(a.since(b), TimeDelta::ZERO);
        assert!((b.since(a).as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_rejected() {
        let _ = SimTime::from_secs(f64::NAN);
    }

    #[test]
    fn latency_converts() {
        let d: TimeDelta = Latency::millis(3.0).into();
        assert!((d.as_millis() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn delta_scaling() {
        let d = TimeDelta::from_secs(2.0) * 1.5;
        assert!((d.as_secs() - 3.0).abs() < 1e-12);
        let h = TimeDelta::from_secs(2.0) / 4.0;
        assert!((h.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", TimeDelta::from_secs(1.5)), "1.500 s");
        assert_eq!(format!("{}", TimeDelta::from_millis(2.0)), "2.000 ms");
        assert_eq!(format!("{}", SimTime::from_secs(0.25)), "t=0.250000s");
    }
}
