//! Simulated wall-clock time.
//!
//! All delays in the reproduction are simulated seconds, not host seconds,
//! so experiment results are deterministic and machine-independent. The
//! clock only ever moves forward.

use crate::event::InvalidEventTime;
use serde::{Deserialize, Serialize};

/// A monotonically advancing simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SimClock {
    now_seconds: f64,
}

impl SimClock {
    /// A clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now_seconds(&self) -> f64 {
        self.now_seconds
    }

    /// Current simulated time in whole milliseconds (for block timestamps).
    ///
    /// Unit contract: the clock counts *seconds* internally and only
    /// [`advance`](Self::advance) can move it, which rejects negative and
    /// non-finite increments — so the stored time is always a finite,
    /// non-negative number of seconds and the conversion cannot go below
    /// zero. The assertion documents (and, in debug builds, enforces)
    /// that invariant instead of silently clamping.
    pub fn now_millis(&self) -> u64 {
        debug_assert!(
            self.now_seconds.is_finite() && self.now_seconds >= 0.0,
            "SimClock invariant violated: time must be finite and non-negative (got {})",
            self.now_seconds
        );
        (self.now_seconds * 1000.0).round() as u64
    }

    /// Advances the clock by `seconds` (must be non-negative and finite).
    pub fn advance(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "clock can only advance by a finite, non-negative amount (got {seconds})"
        );
        self.now_seconds += seconds;
    }

    /// [`advance`](Self::advance) without the panic, for increments a
    /// caller cannot bound: refuses, leaving the clock where it is, when
    /// `seconds` is negative or the time it would reach is not finite.
    pub fn try_advance(&mut self, seconds: f64) -> Result<(), InvalidEventTime> {
        let time_s = self.now_seconds + seconds;
        if !(seconds >= 0.0 && time_s.is_finite()) {
            return Err(InvalidEventTime { time_s });
        }
        self.now_seconds = time_s;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero_and_advances() {
        let mut clock = SimClock::new();
        assert_eq!(clock.now_seconds(), 0.0);
        assert_eq!(clock.now_millis(), 0);
        clock.advance(1.5);
        clock.advance(0.25);
        assert!((clock.now_seconds() - 1.75).abs() < 1e-12);
        assert_eq!(clock.now_millis(), 1750);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_advance_panics() {
        SimClock::new().advance(-1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_advance_panics() {
        SimClock::new().advance(f64::NAN);
    }

    #[test]
    fn try_advance_refuses_a_time_past_the_finite_range() {
        let mut clock = SimClock::new();
        clock.try_advance(1e308).unwrap();
        for bad in [1e308, f64::INFINITY, f64::NAN, -1.0] {
            assert!(clock.try_advance(bad).is_err(), "{bad}");
            assert_eq!(clock.now_seconds(), 1e308);
        }
    }
}
