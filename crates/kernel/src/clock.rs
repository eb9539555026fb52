//! Time sources.
//!
//! Everything above the kernel asks "what time is it" through [`Clock`],
//! so the same code can run against simulated time (`simnet`'s `Sim` is
//! a `Clock` reading its event queue's `now`) or wall-clock time (a real
//! deployment, or benches) without knowing which. Instants are
//! [`Timestamp`](crate::Timestamp)s in every crate, simulated or not.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// A monotone microsecond time source.
pub trait Clock {
    /// Current time in microseconds since this clock's epoch.
    fn now_micros(&self) -> u64;
}

/// Real elapsed time, anchored at construction.
#[derive(Debug, Clone)]
pub struct WallClock {
    epoch: Instant,
}

impl WallClock {
    /// Creates a clock whose epoch is "now".
    pub fn new() -> Self {
        WallClock {
            // This is *the* designed-in wall-clock read: the one place
            // real time enters the system, behind the `Clock` port so
            // everything above can replay against simulated time instead.
            // conform: allow(R5) — WallClock is the Clock port's real-time anchor
            epoch: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// An externally-driven clock: whoever holds it advances it. A test
/// fake for code that reads a [`Clock`] without running a simulation.
///
/// Cloning shares the underlying time cell, so a test can hold one
/// handle and advance it while the code under test reads another.
///
/// # Examples
///
/// ```
/// use cscw_kernel::{Clock, ManualClock};
///
/// let driver = ManualClock::new();
/// let reader = driver.clone();
/// driver.set_micros(1_500);
/// assert_eq!(reader.now_micros(), 1_500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    micros: Rc<Cell<u64>>,
}

impl ManualClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the current time. Monotonicity is the driver's contract:
    /// setting time backwards is not prevented here.
    pub fn set_micros(&self, micros: u64) {
        self.micros.set(micros);
    }

    /// Advances the current time by `delta` microseconds.
    pub fn advance_micros(&self, delta: u64) {
        self.micros.set(self.micros.get() + delta);
    }
}

impl Clock for ManualClock {
    fn now_micros(&self) -> u64 {
        self.micros.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now_micros();
        let b = c.now_micros();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_shares_state_across_clones() {
        let driver = ManualClock::new();
        let reader = driver.clone();
        assert_eq!(reader.now_micros(), 0);
        driver.set_micros(10);
        driver.advance_micros(5);
        assert_eq!(reader.now_micros(), 15);
    }

    #[test]
    fn clocks_are_object_safe() {
        let clocks: Vec<Box<dyn Clock>> =
            vec![Box::new(WallClock::new()), Box::new(ManualClock::new())];
        for c in &clocks {
            let _ = c.now_micros();
        }
    }
}
