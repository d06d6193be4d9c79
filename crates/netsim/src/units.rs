//! Physical units used throughout the simulator: bandwidth, data size,
//! one-way latency.
//!
//! All units are newtypes over `f64`/`u64` with explicit constructors so that
//! call-sites read like the paper ("64 Kb messages", "100 Mbps hub") and unit
//! mix-ups are compile errors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Network bandwidth (capacity or measured throughput).
///
/// Stored internally in **bytes per second**. Constructors use the
/// networking convention: 1 Mbps = 10^6 bits/s = 125 000 bytes/s.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Bandwidth(f64);

impl Bandwidth {
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Bandwidth from bytes per second.
    pub fn bytes_per_sec(b: f64) -> Self {
        debug_assert!(b.is_finite() && b >= 0.0, "bandwidth must be finite and >= 0");
        Bandwidth(b)
    }

    /// Bandwidth from bits per second.
    pub(crate) fn bps(bits: f64) -> Self {
        Self::bytes_per_sec(bits / 8.0)
    }

    /// Bandwidth from megabits per second (10^6 bits/s).
    pub fn mbps(mbits: f64) -> Self {
        Self::bps(mbits * 1e6)
    }

    pub(crate) fn as_bytes_per_sec(self) -> f64 {
        self.0
    }

    pub(crate) fn as_bps(self) -> f64 {
        self.0 * 8.0
    }

    pub fn as_mbps(self) -> f64 {
        self.as_bps() / 1e6
    }

    /// Scale the bandwidth by a dimensionless factor (e.g. an efficiency).
    pub fn scaled(self, factor: f64) -> Self {
        Self::bytes_per_sec(self.0 * factor)
    }

    /// Ratio of two bandwidths (dimensionless). Returns `f64::INFINITY` when
    /// dividing by zero bandwidth.
    #[cfg(test)]
    pub(crate) fn ratio(self, other: Bandwidth) -> f64 {
        if other.0 == 0.0 {
            f64::INFINITY
        } else {
            self.0 / other.0
        }
    }

    pub fn min(self, other: Bandwidth) -> Bandwidth {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 * rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mbps = self.as_mbps();
        if mbps >= 1000.0 {
            write!(f, "{:.2} Gbps", mbps / 1000.0)
        } else if mbps >= 1.0 {
            write!(f, "{mbps:.2} Mbps")
        } else {
            write!(f, "{:.1} Kbps", mbps * 1000.0)
        }
    }
}

/// A data size in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bytes(u64);

impl Bytes {
    pub(crate) const ZERO: Bytes = Bytes(0);

    pub const fn new(b: u64) -> Self {
        Bytes(b)
    }

    /// Kibibytes (1024 bytes) — NWS's "64 Kb" throughput probe is 64 KiB.
    pub const fn kib(k: u64) -> Self {
        Bytes(k * 1024)
    }

    pub const fn mib(m: u64) -> Self {
        Bytes(m * 1024 * 1024)
    }

    pub fn as_u64(self) -> u64 {
        self.0
    }

    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.1} MiB", self.0 as f64 / (1024.0 * 1024.0))
        } else if self.0 >= 1024 {
            write!(f, "{:.1} KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// One-way link latency. Stored in seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Latency(f64);

impl Latency {
    pub(crate) const ZERO: Latency = Latency(0.0);

    pub fn secs(s: f64) -> Self {
        debug_assert!(s.is_finite() && s >= 0.0, "latency must be finite and >= 0");
        Latency(s)
    }

    pub fn millis(ms: f64) -> Self {
        Self::secs(ms / 1e3)
    }

    pub fn micros(us: f64) -> Self {
        Self::secs(us / 1e6)
    }

    pub fn as_secs(self) -> f64 {
        self.0
    }

    pub(crate) fn as_millis(self) -> f64 {
        self.0 * 1e3
    }
}

impl Add for Latency {
    type Output = Latency;
    fn add(self, rhs: Latency) -> Latency {
        Latency(self.0 + rhs.0)
    }
}

impl AddAssign for Latency {
    fn add_assign(&mut self, rhs: Latency) {
        self.0 += rhs.0;
    }
}

impl Sum for Latency {
    fn sum<I: Iterator<Item = Latency>>(iter: I) -> Latency {
        iter.fold(Latency::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.as_millis();
        if ms >= 1.0 {
            write!(f, "{ms:.2} ms")
        } else {
            write!(f, "{:.1} us", ms * 1000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Bandwidth {
        /// Bandwidth from kilobits per second (10^3 bits/s).
        fn kbps(kbits: f64) -> Self {
            Self::bps(kbits * 1e3)
        }

        /// Bandwidth from gigabits per second (10^9 bits/s).
        fn gbps(gbits: f64) -> Self {
            Self::bps(gbits * 1e9)
        }

        fn max(self, other: Bandwidth) -> Bandwidth {
            if self.0 >= other.0 {
                self
            } else {
                other
            }
        }
    }

    #[test]
    fn bandwidth_conversions_round_trip() {
        let b = Bandwidth::mbps(100.0);
        assert!((b.as_mbps() - 100.0).abs() < 1e-9);
        assert!((b.as_bytes_per_sec() - 12_500_000.0).abs() < 1e-6);
        assert!((Bandwidth::gbps(1.0).as_mbps() - 1000.0).abs() < 1e-9);
        assert!((Bandwidth::kbps(500.0).as_mbps() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_ratio_and_ordering() {
        let a = Bandwidth::mbps(100.0);
        let b = Bandwidth::mbps(10.0);
        assert!((a.ratio(b) - 10.0).abs() < 1e-9);
        assert_eq!(a.min(b), b);
        assert_eq!(a.max(b), a);
        assert_eq!(b.ratio(Bandwidth::ZERO), f64::INFINITY);
    }

    #[test]
    fn bandwidth_arithmetic_saturates_at_zero() {
        let a = Bandwidth::mbps(10.0);
        let b = Bandwidth::mbps(100.0);
        assert_eq!(a - b, Bandwidth::ZERO);
        assert!(((a + b).as_mbps() - 110.0).abs() < 1e-9);
        assert!(((a * 2.0).as_mbps() - 20.0).abs() < 1e-9);
        assert!(((b / 4.0).as_mbps() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::kib(64).as_u64(), 65_536);
        assert_eq!(Bytes::mib(2).as_u64(), 2 * 1024 * 1024);
        assert_eq!(Bytes::new(4).as_u64(), 4);
    }

    #[test]
    fn latency_sum_and_display() {
        let l = Latency::millis(1.5) + Latency::micros(500.0);
        assert!((l.as_millis() - 2.0).abs() < 1e-9);
        let total: Latency = vec![Latency::millis(1.0); 3].into_iter().sum();
        assert!((total.as_millis() - 3.0).abs() < 1e-9);
        assert_eq!(format!("{}", Latency::millis(2.5)), "2.50 ms");
        assert_eq!(format!("{}", Latency::micros(100.0)), "100.0 us");
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Bandwidth::mbps(100.0)), "100.00 Mbps");
        assert_eq!(format!("{}", Bandwidth::gbps(2.0)), "2.00 Gbps");
        assert_eq!(format!("{}", Bandwidth::kbps(512.0)), "512.0 Kbps");
        assert_eq!(format!("{}", Bytes::kib(64)), "64.0 KiB");
        assert_eq!(format!("{}", Bytes::new(100)), "100 B");
    }

    #[test]
    fn bandwidth_sum() {
        let s: Bandwidth = [Bandwidth::mbps(1.0), Bandwidth::mbps(2.0)].into_iter().sum();
        assert!((s.as_mbps() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_efficiency() {
        let b = Bandwidth::mbps(100.0).scaled(0.3265);
        assert!((b.as_mbps() - 32.65).abs() < 1e-9);
    }
}
