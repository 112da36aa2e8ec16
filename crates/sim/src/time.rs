//! Simulation time: nanosecond instants and durations.
//!
//! A dedicated pair of newtypes keeps instants and durations from being mixed
//! up and gives the simulator a single place for unit conversions. `u64`
//! nanoseconds cover ~584 years of simulated time, far beyond any replay.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time, nanoseconds from simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// Simulation origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Instant at `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Instant at `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Instant at `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Instant at `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        to_f64(self.0) / 1e9
    }

    /// Duration elapsed since `earlier`; zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Duration of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Duration of `s` seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Duration from fractional seconds, rounded to the nearest nanosecond
    /// (half away from zero). Negative or non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        SimDuration(round_positive(s * 1e9))
    }

    /// Duration from fractional milliseconds (clamping like
    /// [`SimDuration::from_secs_f64`]).
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1e3)
    }

    /// Duration from fractional microseconds (clamping like
    /// [`SimDuration::from_secs_f64`]).
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Length in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        to_f64(self.0) / 1e9
    }

    /// Length in milliseconds as a float.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        to_f64(self.0) / 1e6
    }

    /// True for the zero duration.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

/// 2^63 as a float: below it a value converts through `i64`.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// `n as f64`. Baseline x86-64 has only a signed conversion, so `u64` → `f64`
/// lowers to a branchy sequence; below 2^63 the `i64` conversion of the same
/// value rounds identically.
#[inline]
fn to_f64(n: u64) -> f64 {
    if n < 1 << 63 {
        n as i64 as f64
    } else {
        n as f64
    }
}

/// `x.round() as u64` for `x > 0` without the libm call: truncate, then add
/// one when the dropped fraction is at least a half. `x - t` is exact (below
/// 2^53 `t` is exact and shares `x`'s binade or is zero; above it `x` is an
/// integer and the fraction is zero), and past `u64::MAX` both the cast and
/// the add saturate, as `round() as u64` does. Below 2^63 the conversions go
/// through `i64` (see [`to_f64`]), where the add cannot overflow.
#[inline]
fn round_positive(x: f64) -> u64 {
    if x < TWO_63 {
        let t = x as i64;
        (t + (x - t as f64 >= 0.5) as i64) as u64
    } else {
        let t = x as u64;
        t.saturating_add((x - t as f64 >= 0.5) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction underflow");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, Add::add)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert!((SimTime::from_secs(1).as_secs_f64() - 1.0).abs() < 1e-12);
        assert_eq!(
            SimDuration::from_secs(1) + SimDuration::from_millis(500),
            SimDuration(1_500_000_000)
        );
        assert!((SimDuration::from_millis(2).as_millis_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn float_construction_clamps() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_millis_f64(0.5).as_nanos(), 500_000);
        assert_eq!(SimDuration::from_micros_f64(2.5).as_nanos(), 2_500);
    }

    /// The rounding `from_secs_f64` must reproduce bit for bit.
    fn reference(s: f64) -> u64 {
        (s * 1e9).round() as u64
    }

    #[test]
    fn float_rounding_matches_round_on_edges() {
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        let two_53 = 2f64.powi(53);
        let two_64 = 2f64.powi(64);
        // Nanosecond counts around every rounding boundary that matters.
        let nanos = [
            f64::MIN_POSITIVE,
            below(0.5),
            0.5,
            1.5,
            2.5,
            below(2.5),
            below(two_53) - 0.5,
            below(two_53),
            two_53,
            two_53 + 2.0,
            below(two_64),
            two_64,
            two_64 * 2.0,
            f64::MAX,
        ];
        for x in nanos {
            assert_eq!(round_positive(x), x.round() as u64, "x = {x:e} ns");
        }
        for x in [below(TWO_63), TWO_63, TWO_63 - 0.5, TWO_63 + 2048.0] {
            assert_eq!(round_positive(x), x.round() as u64, "x = {x:e} ns");
        }
        for n in [0, 1, (1 << 53) + 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, u64::MAX] {
            assert_eq!(to_f64(n).to_bits(), (n as f64).to_bits(), "n = {n}");
        }
        for k in 0..10_000u64 {
            let x = k as f64 + 0.5;
            assert_eq!(round_positive(x), x.round() as u64, "x = {x} ns");
            assert_eq!(round_positive(below(x)), below(x).round() as u64, "x < {x} ns");
        }
        // Seconds, including the clamped inputs.
        let secs = [
            0.0,
            -0.0,
            -1.0,
            -1e-9,
            f64::NAN,
            below(0.5) * 1e-9,
            0.5e-9,
            1.5e-9,
            1e-9,
            two_53 * 1e-9,
            two_64 * 1e-9,
            1e11,
            f64::MAX,
        ];
        for s in secs {
            assert_eq!(SimDuration::from_secs_f64(s).as_nanos(), reference(s), "s = {s:e}");
        }
        // Non-finite seconds clamp to zero (where `round() as u64` would
        // saturate +inf).
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NEG_INFINITY), SimDuration::ZERO);
    }

    proptest! {
        #[test]
        fn float_rounding_matches_round(
            mantissa in 0.0f64..1.0,
            exp in -12i32..12,
            bits in any::<u64>(),
        ) {
            let s = mantissa * 10f64.powi(exp);
            prop_assert_eq!(SimDuration::from_secs_f64(s).as_nanos(), reference(s));
            prop_assert_eq!(SimDuration::from_secs_f64(-s).as_nanos(), reference(-s));
            // Arbitrary bit patterns: subnormals, huge values, NaNs.
            let x = f64::from_bits(bits);
            if !x.is_infinite() {
                prop_assert_eq!(SimDuration::from_secs_f64(x).as_nanos(), reference(x));
            }
            // And back: float views of any nanosecond count, either side of 2^63.
            for n in [bits, bits >> 1, bits >> 11, bits >> 40] {
                prop_assert_eq!(SimTime(n).as_secs_f64().to_bits(), (n as f64 / 1e9).to_bits());
                prop_assert_eq!(SimDuration(n).as_secs_f64().to_bits(), (n as f64 / 1e9).to_bits());
                prop_assert_eq!(SimDuration(n).as_millis_f64().to_bits(), (n as f64 / 1e6).to_bits());
            }
        }
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
        assert_eq!(
            SimTime::from_secs(1).saturating_since(SimTime::from_secs(2)),
            SimDuration::ZERO
        );
        let mut acc = SimTime::ZERO;
        acc += SimDuration::from_nanos(7);
        assert_eq!(acc.as_nanos(), 7);
        let total: SimDuration =
            [SimDuration::from_nanos(1), SimDuration::from_nanos(2)].into_iter().sum();
        assert_eq!(total.as_nanos(), 3);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
    }
}
