//! Strongly-typed physical units used throughout the framework.
//!
//! All memory-performance quantities in Mess are expressed in three units: bandwidth in
//! gigabytes per second, latency in nanoseconds and simulated time in clock cycles. Newtypes
//! keep them from being mixed up (paper Table I mixes GB/s and ns freely; the type system
//! does not).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Size of one cache line in bytes. Every memory request in the framework moves exactly one
/// cache line, matching the paper's pointer-chase and traffic-generator design where each
/// array element occupies a whole 64-byte line.
pub const CACHE_LINE_BYTES: u64 = 64;

/// A simulated clock-cycle count.
///
/// Cycles are always expressed in the CPU clock domain; memory models convert from their own
/// clock internally.
///
/// ```
/// use mess_types::Cycle;
/// let a = Cycle::new(100);
/// let b = a + Cycle::new(20);
/// assert_eq!(b.as_u64(), 120);
/// assert_eq!((b - a).as_u64(), 20);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycle(u64);

impl Cycle {
    /// The zero cycle.
    pub const ZERO: Cycle = Cycle(0);

    /// Creates a cycle count.
    pub const fn new(value: u64) -> Self {
        Cycle(value)
    }

    /// Returns the raw cycle count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Saturating subtraction; simulation deltas never go negative.
    pub fn saturating_sub(self, other: Cycle) -> Cycle {
        Cycle(self.0.saturating_sub(other.0))
    }

    /// Converts a cycle count to wall-clock nanoseconds at the given frequency.
    ///
    /// ```
    /// use mess_types::{Cycle, Frequency};
    /// let t = Cycle::new(2_100).to_latency(Frequency::from_ghz(2.1));
    /// assert!((t.as_ns() - 1000.0).abs() < 1e-9);
    /// ```
    pub fn to_latency(self, freq: Frequency) -> Latency {
        Latency::from_ns(self.0 as f64 / freq.as_ghz())
    }
}

impl Add for Cycle {
    type Output = Cycle;
    fn add(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 + rhs.0)
    }
}

impl AddAssign for Cycle {
    fn add_assign(&mut self, rhs: Cycle) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycle {
    type Output = Cycle;
    fn sub(self, rhs: Cycle) -> Cycle {
        Cycle(self.0 - rhs.0)
    }
}

impl SubAssign for Cycle {
    fn sub_assign(&mut self, rhs: Cycle) {
        self.0 -= rhs.0;
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;
    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cy", self.0)
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

/// A byte count.
///
/// ```
/// use mess_types::Bytes;
/// let b = Bytes::new(64) * 4;
/// assert_eq!(b.as_u64(), 256);
/// assert!((Bytes::from_gib(1.0).as_gb() - 1.073741824).abs() < 1e-9);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Bytes(u64);

impl Bytes {
    /// The zero byte count.
    pub const ZERO: Bytes = Bytes(0);

    /// Creates a byte count.
    pub const fn new(value: u64) -> Self {
        Bytes(value)
    }

    /// One cache line worth of bytes.
    pub const fn cache_line() -> Self {
        Bytes(CACHE_LINE_BYTES)
    }

    /// Creates a byte count from binary gibibytes.
    pub fn from_gib(gib: f64) -> Self {
        Bytes((gib * (1u64 << 30) as f64) as u64)
    }

    /// Creates a byte count from binary kibibytes.
    pub fn from_kib(kib: f64) -> Self {
        Bytes((kib * 1024.0) as u64)
    }

    /// Creates a byte count from binary mebibytes.
    pub fn from_mib(mib: f64) -> Self {
        Bytes((mib * (1u64 << 20) as f64) as u64)
    }

    /// Returns the raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the byte count in decimal gigabytes.
    pub fn as_gb(self) -> f64 {
        self.0 as f64 / 1e9
    }
}

impl Add for Bytes {
    type Output = Bytes;
    fn add(self, rhs: Bytes) -> Bytes {
        Bytes(self.0 + rhs.0)
    }
}

impl AddAssign for Bytes {
    fn add_assign(&mut self, rhs: Bytes) {
        self.0 += rhs.0;
    }
}

impl Mul<u64> for Bytes {
    type Output = Bytes;
    fn mul(self, rhs: u64) -> Bytes {
        Bytes(self.0 * rhs)
    }
}

impl Sum for Bytes {
    fn sum<I: Iterator<Item = Bytes>>(iter: I) -> Bytes {
        Bytes(iter.map(|b| b.0).sum())
    }
}

impl fmt::Display for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} B", self.0)
    }
}

/// Memory bandwidth in decimal gigabytes per second.
///
/// ```
/// use mess_types::{Bandwidth, Bytes, Latency};
/// let bw = Bandwidth::from_bytes_over(Bytes::new(64_000_000_000), Latency::from_ns(1e9));
/// assert!((bw.as_gbs() - 64.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from GB/s.
    pub const fn from_gbs(gbs: f64) -> Self {
        Bandwidth(gbs)
    }

    /// Computes a bandwidth from a byte count over an elapsed time.
    ///
    /// Returns zero bandwidth for a zero elapsed time.
    pub fn from_bytes_over(bytes: Bytes, elapsed: Latency) -> Self {
        if elapsed.as_ns() <= 0.0 {
            Bandwidth::ZERO
        } else {
            Bandwidth(bytes.as_u64() as f64 / elapsed.as_ns())
        }
    }

    /// Returns the bandwidth in GB/s.
    pub const fn as_gbs(self) -> f64 {
        self.0
    }

    /// Returns the fraction of `max` this bandwidth represents, clamped to `[0, +inf)`.
    pub fn fraction_of(self, max: Bandwidth) -> f64 {
        if max.0 <= 0.0 {
            0.0
        } else {
            (self.0 / max.0).max(0.0)
        }
    }

    /// Returns the smaller of two bandwidths.
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// Returns the larger of two bandwidths.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 - rhs.0)
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

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.0)
    }
}

/// A latency or duration in nanoseconds.
///
/// ```
/// use mess_types::{Frequency, Latency};
/// let l = Latency::from_ns(100.0);
/// assert_eq!(l.to_cycles(Frequency::from_ghz(2.0)).as_u64(), 200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Latency(f64);

impl Latency {
    /// Zero latency.
    pub const ZERO: Latency = Latency(0.0);

    /// Creates a latency from nanoseconds.
    pub const fn from_ns(ns: f64) -> Self {
        Latency(ns)
    }

    /// Creates a latency from microseconds.
    pub fn from_us(us: f64) -> Self {
        Latency(us * 1e3)
    }

    /// Returns the latency in nanoseconds.
    pub const fn as_ns(self) -> f64 {
        self.0
    }

    /// Returns the latency in microseconds.
    pub fn as_us(self) -> f64 {
        self.0 / 1e3
    }

    /// Converts to (rounded-up) clock cycles at the given frequency.
    pub fn to_cycles(self, freq: Frequency) -> Cycle {
        Cycle((self.0 * freq.as_ghz()).round().max(0.0) as u64)
    }

    /// Returns the smaller of two latencies.
    pub fn min(self, other: Latency) -> Latency {
        Latency(self.0.min(other.0))
    }

    /// Returns the larger of two latencies.
    pub fn max(self, other: Latency) -> Latency {
        Latency(self.0.max(other.0))
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

impl Sub for Latency {
    type Output = Latency;
    fn sub(self, rhs: Latency) -> Latency {
        Latency(self.0 - rhs.0)
    }
}

impl Mul<f64> for Latency {
    type Output = Latency;
    fn mul(self, rhs: f64) -> Latency {
        Latency(self.0 * rhs)
    }
}

impl Div<f64> for Latency {
    type Output = Latency;
    fn div(self, rhs: f64) -> Latency {
        Latency(self.0 / rhs)
    }
}

impl Sum for Latency {
    fn sum<I: Iterator<Item = Latency>>(iter: I) -> Latency {
        Latency(iter.map(|l| l.0).sum())
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} ns", self.0)
    }
}

/// A clock frequency in gigahertz.
///
/// ```
/// use mess_types::Frequency;
/// let f = Frequency::from_ghz(2.4);
/// assert!((f.cycle_time_ns() - 0.41666).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
pub struct Frequency(f64);

impl Frequency {
    /// Creates a frequency from GHz.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not strictly positive.
    pub fn from_ghz(ghz: f64) -> Self {
        assert!(ghz > 0.0, "frequency must be positive, got {ghz}");
        Frequency(ghz)
    }

    /// Returns the frequency in GHz.
    pub const fn as_ghz(self) -> f64 {
        self.0
    }

    /// Returns the duration of one clock cycle in nanoseconds.
    pub fn cycle_time_ns(self) -> f64 {
        1.0 / self.0
    }
}

impl Default for Frequency {
    fn default() -> Self {
        Frequency(1.0)
    }
}

impl fmt::Display for Frequency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GHz", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cycle_arithmetic() {
        let a = Cycle::new(10);
        let b = Cycle::new(3);
        assert_eq!((a + b).as_u64(), 13);
        assert_eq!((a - b).as_u64(), 7);
        assert_eq!(b.saturating_sub(a), Cycle::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_u64(), 13);
        c -= b;
        assert_eq!(c.as_u64(), 10);
        assert_eq!((a + 5u64).as_u64(), 15);
    }

    #[test]
    fn cycle_to_latency_roundtrip() {
        let freq = Frequency::from_ghz(2.0);
        let lat = Cycle::new(400).to_latency(freq);
        assert!((lat.as_ns() - 200.0).abs() < 1e-9);
        assert_eq!(lat.to_cycles(freq).as_u64(), 400);
    }

    #[test]
    fn bytes_constructors() {
        assert_eq!(Bytes::cache_line().as_u64(), 64);
        assert_eq!(Bytes::from_kib(1.0).as_u64(), 1024);
        assert_eq!(Bytes::from_mib(2.0).as_u64(), 2 << 20);
        assert_eq!(Bytes::from_gib(1.0).as_u64(), 1 << 30);
        let total: Bytes = vec![Bytes::new(1), Bytes::new(2), Bytes::new(3)]
            .into_iter()
            .sum();
        assert_eq!(total.as_u64(), 6);
    }

    #[test]
    fn bandwidth_from_bytes_over_zero_time_is_zero() {
        let bw = Bandwidth::from_bytes_over(Bytes::new(1000), Latency::ZERO);
        assert_eq!(bw, Bandwidth::ZERO);
    }

    #[test]
    fn bandwidth_fraction_of() {
        let bw = Bandwidth::from_gbs(64.0);
        assert!((bw.fraction_of(Bandwidth::from_gbs(128.0)) - 0.5).abs() < 1e-12);
        assert_eq!(bw.fraction_of(Bandwidth::ZERO), 0.0);
    }

    #[test]
    fn bandwidth_min_max() {
        let a = Bandwidth::from_gbs(10.0);
        let b = Bandwidth::from_gbs(20.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn latency_display_and_units() {
        let l = Latency::from_us(1.5);
        assert!((l.as_ns() - 1500.0).abs() < 1e-9);
        assert!((l.as_us() - 1.5).abs() < 1e-9);
        assert_eq!(format!("{}", Latency::from_ns(89.0)), "89.0 ns");
        assert_eq!(format!("{}", Bandwidth::from_gbs(128.0)), "128.00 GB/s");
        assert_eq!(format!("{}", Cycle::new(7)), "7 cy");
        assert_eq!(format!("{}", Bytes::new(64)), "64 B");
        assert_eq!(format!("{}", Frequency::from_ghz(2.1)), "2.10 GHz");
    }

    #[test]
    #[should_panic(expected = "frequency must be positive")]
    fn zero_frequency_panics() {
        let _ = Frequency::from_ghz(0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let bw = Bandwidth::from_gbs(307.2);
        let json = serde_json::to_string(&bw).unwrap();
        let back: Bandwidth = serde_json::from_str(&json).unwrap();
        assert_eq!(bw, back);
    }

    proptest! {
        #[test]
        fn prop_cycle_latency_roundtrip(cycles in 0u64..1_000_000_000, ghz in 1u32..60) {
            let freq = Frequency::from_ghz(ghz as f64 / 10.0);
            let lat = Cycle::new(cycles).to_latency(freq);
            let back = lat.to_cycles(freq);
            // Round-tripping through ns may be off by at most one cycle due to rounding.
            prop_assert!(back.as_u64().abs_diff(cycles) <= 1);
        }

        #[test]
        fn prop_bandwidth_is_monotone_in_bytes(a in 0u64..1u64 << 40, b in 0u64..1u64 << 40, ns in 1.0f64..1e12) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            let t = Latency::from_ns(ns);
            let bw_lo = Bandwidth::from_bytes_over(Bytes::new(lo), t);
            let bw_hi = Bandwidth::from_bytes_over(Bytes::new(hi), t);
            prop_assert!(bw_lo.as_gbs() <= bw_hi.as_gbs());
        }

        #[test]
        fn prop_saturating_sub_never_underflows(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
            let r = Cycle::new(a).saturating_sub(Cycle::new(b));
            prop_assert!(r.as_u64() <= a);
        }
    }
}
