//! Simulation time.
//!
//! Time is an integer count of nanoseconds since the start of the
//! simulation. Integer time keeps the event loop free of floating-point
//! drift, which matters because probing tools infer available bandwidth
//! from *microsecond-scale* packet gap changes; conversions to and from
//! seconds happen only at the API edges.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation origin, `t = 0`.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the origin.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// Panics when `earlier` is later than `self`; simulation causality
    /// violations should fail loudly.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("SimTime::since: earlier instant is in the future"),
        )
    }

    /// Saturating difference: zero when `earlier` is later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite input. Larger input
    /// saturates at `u64::MAX` nanoseconds (about 584 years), which
    /// overflows the first non-zero instant it is added to: bound
    /// durations read from outside the program first, as
    /// [`crate::impair::parse_duration`] does.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(
            s.is_finite() && s >= 0.0,
            "duration must be finite and non-negative, got {s}"
        );
        SimDuration((s * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting and rate arithmetic).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Integer division of durations (how many `rhs` fit in `self`).
    pub fn div_duration(self, rhs: SimDuration) -> u64 {
        assert!(rhs.0 > 0, "division by zero duration");
        self.0 / rhs.0
    }

    /// Scales the duration by an integer factor.
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction went negative"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction went negative"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// Time to serialise `bytes` onto a link of `rate_bps` capacity,
/// rounded to the nearest nanosecond.
///
/// Panics when the rate is not strictly positive and finite.
pub fn transmission_time(bytes: u32, rate_bps: f64) -> SimDuration {
    assert!(
        rate_bps.is_finite() && rate_bps > 0.0,
        "link rate must be positive, got {rate_bps}"
    );
    let ns = (bytes as f64 * 8.0 * 1e9 / rate_bps).round() as u64;
    SimDuration::from_nanos(ns)
}

/// The packet gap that yields a stream of `rate_bps` with `bytes`-sized
/// packets: `gap = 8 * bytes / rate`.
pub fn gap_for_rate(bytes: u32, rate_bps: f64) -> SimDuration {
    transmission_time(bytes, rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimDuration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimDuration::from_secs(2).as_secs_f64(), 2.0);
        assert_eq!(SimDuration::from_secs_f64(0.25).as_nanos(), 250_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
        assert_eq!(t.since(SimTime::from_nanos(100)).as_nanos(), 50);
        assert_eq!(
            SimTime::from_nanos(10).saturating_since(SimTime::from_nanos(20)),
            SimDuration::ZERO
        );
    }

    #[test]
    #[should_panic]
    fn negative_since_panics() {
        let _ = SimTime::from_nanos(10).since(SimTime::from_nanos(20));
    }

    #[test]
    fn transmission_times() {
        // 1500 B at 100 Mb/s = 120 us
        assert_eq!(
            transmission_time(1500, 100e6),
            SimDuration::from_micros(120)
        );
        // 40 B at 1 Gb/s = 320 ns
        assert_eq!(transmission_time(40, 1e9), SimDuration::from_nanos(320));
    }

    #[test]
    fn gap_for_rate_matches_rate() {
        // sending 1500 B packets every gap yields exactly 30 Mb/s
        let gap = gap_for_rate(1500, 30e6);
        let rate = 1500.0 * 8.0 / gap.as_secs_f64();
        assert!((rate - 30e6).abs() / 30e6 < 1e-6);
    }

    #[test]
    fn duration_division() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d.div_duration(SimDuration::from_millis(3)), 3);
        assert_eq!(d.mul(3).as_nanos(), 30_000_000);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_nanos(1_500_000)), "0.001500s");
        assert_eq!(format!("{}", SimDuration::from_millis(20)), "0.020000s");
    }
}
