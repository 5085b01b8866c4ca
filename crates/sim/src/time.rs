//! Simulation time and link speed.
//!
//! Time is measured in integer **picoseconds**, like htsim. At common
//! datacenter link speeds the serialization time of a byte is an exact
//! integer number of picoseconds (10 Gb/s = 100 ps/bit = 800 ps/byte), so
//! every event timestamp in the reproduction is exact — there is no
//! floating-point drift anywhere in the hot path.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or duration of) simulated time, in picoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    pub const ZERO: Time = Time(0);
    /// One picosecond.
    pub const PS: Time = Time(1);
    /// One nanosecond.
    pub const NS: Time = Time(1_000);
    /// One microsecond.
    pub const US: Time = Time(1_000_000);
    /// One millisecond.
    pub const MS: Time = Time(1_000_000_000);
    /// One second.
    pub const SEC: Time = Time(1_000_000_000_000);
    /// The largest representable time; used as an "infinite" horizon.
    pub const MAX: Time = Time(u64::MAX);

    pub const fn from_ps(ps: u64) -> Time {
        Time(ps)
    }
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns * 1_000)
    }
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000_000)
    }
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000_000)
    }
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000_000)
    }

    pub const fn as_ps(self) -> u64 {
        self.0
    }
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1e6
    }
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1e9
    }
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1e12
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero if `b > a`.
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}
impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}
impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}
impl SubAssign for Time {
    fn sub_assign(&mut self, rhs: Time) {
        self.0 -= rhs.0;
    }
}
impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}
impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}
impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0")
        } else if ps.is_multiple_of(1_000_000_000_000) {
            write!(f, "{}s", ps / 1_000_000_000_000)
        } else if ps.is_multiple_of(1_000_000_000) {
            write!(f, "{}ms", ps / 1_000_000_000)
        } else if ps.is_multiple_of(1_000_000) {
            write!(f, "{}us", ps / 1_000_000)
        } else if ps.is_multiple_of(1_000) {
            write!(f, "{}ns", ps / 1_000)
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

/// A link speed in bits per second.
///
/// [`Speed::tx_time`] converts a byte count into an exact serialization
/// duration using 128-bit intermediate arithmetic, so non-round speeds
/// (e.g. a failed link renegotiated to 2.5 Gb/s) are still exact to the
/// picosecond.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Speed(pub u64);

impl Speed {
    pub const fn bps(bits_per_sec: u64) -> Speed {
        Speed(bits_per_sec)
    }
    pub const fn gbps(g: u64) -> Speed {
        Speed(g * 1_000_000_000)
    }
    pub const fn mbps(m: u64) -> Speed {
        Speed(m * 1_000_000)
    }

    pub const fn as_bps(self) -> u64 {
        self.0
    }
    pub fn as_gbps(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Serialization time for `bytes` at this speed.
    /// Exact picoseconds-per-byte for this rate, or 0 when the rate does
    /// not divide a byte-picosecond evenly. Every standard rate (any whole
    /// Mb/s) is exact, so hot paths can cache this once at wiring time and
    /// replace the per-packet division in [`Speed::tx_time`] with one
    /// multiply: `tx_time(bytes) == Time::from_ps(bytes * ppb)` whenever
    /// the returned value is non-zero.
    pub const fn ps_per_byte_exact(self) -> u64 {
        if self.0 > 0 && 8_000_000_000_000 % self.0 == 0 {
            8_000_000_000_000 / self.0
        } else {
            0
        }
    }

    pub fn tx_time(self, bytes: u64) -> Time {
        debug_assert!(self.0 > 0, "zero link speed");
        // This runs once per packet per hop (every TX start), so the wide
        // division matters: for packet-sized operands the product fits u64
        // and one native `div` replaces the u128 `__udivti3` call. Both
        // branches compute the identical integer quotient.
        if bytes <= u64::MAX / 8_000_000_000_000 {
            Time((bytes * 8_000_000_000_000) / self.0)
        } else {
            let bits = bytes as u128 * 8;
            Time(((bits * 1_000_000_000_000u128) / self.0 as u128) as u64)
        }
    }

    /// How many bytes this link transfers in `t` (rounding down).
    pub fn bytes_in(self, t: Time) -> u64 {
        ((self.0 as u128 * t.0 as u128) / (8 * 1_000_000_000_000u128)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_gbps_serialization_is_exact() {
        // The paper: a 9 KB jumbogram takes 7.2 us to serialize at 10 Gb/s.
        assert_eq!(Speed::gbps(10).tx_time(9000), Time::from_ns(7_200));
        // A 64-byte trimmed header takes 51.2 ns.
        assert_eq!(Speed::gbps(10).tx_time(64), Time::from_ps(51_200));
        // A 1500-byte MTU packet takes 1.2 us.
        assert_eq!(Speed::gbps(10).tx_time(1500), Time::from_ns(1_200));
    }

    #[test]
    fn one_gbps_serialization() {
        assert_eq!(Speed::gbps(1).tx_time(9000), Time::from_us(72));
    }

    #[test]
    fn bytes_in_inverts_tx_time() {
        let s = Speed::gbps(10);
        for bytes in [1u64, 64, 1500, 9000, 123_456] {
            assert_eq!(s.bytes_in(s.tx_time(bytes)), bytes);
        }
    }

    #[test]
    fn time_arithmetic_and_display() {
        let t = Time::from_us(3) + Time::from_ns(500);
        assert_eq!(t.as_ps(), 3_500 * 1_000);
        assert_eq!(format!("{}", Time::from_us(7)), "7us");
        assert_eq!(format!("{}", Time::from_ms(1)), "1ms");
        assert_eq!(format!("{}", Time::ZERO), "0");
        assert_eq!(
            Time::from_us(1).saturating_sub(Time::from_ms(1)),
            Time::ZERO
        );
    }

    #[test]
    fn time_ordering() {
        assert!(Time::from_ns(999) < Time::US);
        assert_eq!(Time::from_us(1_000), Time::MS);
        assert_eq!(Time::from_ms(1_000), Time::SEC);
    }

    #[test]
    fn speed_sum_and_min_max() {
        assert_eq!(Time::from_us(1).max(Time::from_us(2)), Time::from_us(2));
        assert_eq!(Time::from_us(1).min(Time::from_us(2)), Time::from_us(1));
        let total: Time = [Time::US, Time::US, Time::NS].into_iter().sum();
        assert_eq!(total, Time::from_ns(2001));
    }

    #[test]
    fn odd_speed_uses_wide_arithmetic() {
        // 2.5 Gb/s: 1 byte = 3.2 ns
        assert_eq!(Speed::mbps(2500).tx_time(1), Time::from_ps(3200));
        // Large transfers don't overflow.
        let t = Speed::gbps(400).tx_time(100_000_000_000);
        assert_eq!(t, Time::from_secs(2));
    }
}
