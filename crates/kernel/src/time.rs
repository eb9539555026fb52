//! Platform-neutral timestamps.
//!
//! [`Timestamp`] is the substrate's value type for "when something
//! happened": microseconds since an epoch the owning [`Clock`] defines
//! (simulation start for simulated platforms, the Unix epoch for wall
//! clocks). Layers above the environment record moments with this type
//! instead of naming a platform's own time type — the application layer
//! must not care whether it runs on `simnet` or a distributed platform.
//!
//! [`Clock`]: crate::Clock

use std::fmt;
use std::ops::{Add, Sub};

/// An instant in platform time, in microseconds since the platform
/// clock's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The clock's epoch.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Creates a timestamp from microseconds since the epoch.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros)
    }

    /// Creates a timestamp from milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000)
    }

    /// Creates a timestamp from seconds since the epoch.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// (Truncated) milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// (Truncated) seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Microseconds elapsed from `earlier` to `self`, saturating to
    /// zero when `earlier` is later.
    pub const fn micros_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;

    /// Advances the timestamp by `micros` microseconds.
    fn add(self, micros: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(micros))
    }
}

impl Sub for Timestamp {
    type Output = u64;

    /// Microseconds from `rhs` to `self`, saturating to zero.
    fn sub(self, rhs: Timestamp) -> u64 {
        self.micros_since(rhs)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.0 / 1_000_000;
        let micros = self.0 % 1_000_000;
        write!(f, "{secs}.{micros:06}s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        let t = Timestamp::from_secs(3);
        assert_eq!(t.as_micros(), 3_000_000);
        assert_eq!(t.as_millis(), 3_000);
        assert_eq!(t.as_secs(), 3);
        assert_eq!(Timestamp::from_millis(5).as_micros(), 5_000);
        assert_eq!(Timestamp::ZERO.as_micros(), 0);
    }

    #[test]
    fn arithmetic_saturates() {
        let early = Timestamp::from_secs(1);
        let late = Timestamp::from_secs(2);
        assert_eq!(late - early, 1_000_000);
        assert_eq!(early - late, 0);
        assert_eq!(early + 500, Timestamp::from_micros(1_000_500));
    }

    #[test]
    fn display_is_seconds_dot_micros() {
        assert_eq!(Timestamp::from_micros(1_500_000).to_string(), "1.500000s");
        assert_eq!(Timestamp::ZERO.to_string(), "0.000000s");
    }
}
