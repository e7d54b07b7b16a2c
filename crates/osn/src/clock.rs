//! Simulation time.
//!
//! The whole reproduction runs on a discrete clock counting **minutes since
//! the start of the first collection period** (the paper's 7/20/2016).
//! Minutes are fine-grained enough for the reaction-delay distribution
//! (35.8 % of privacy changes land within 24 hours) while keeping all
//! arithmetic in exact integers.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulation time (minutes since study start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulation time in minutes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The study epoch (start of collection period 1).
    pub const EPOCH: SimTime = SimTime(0);

    /// Construct from whole days since the epoch.
    pub const fn from_days(days: u64) -> Self {
        SimTime(days * MINUTES_PER_DAY)
    }

    /// Construct from fractional days (rounded to the nearest minute).
    pub fn from_days_f64(days: f64) -> Self {
        SimTime((days * MINUTES_PER_DAY as f64).round().max(0.0) as u64)
    }

    /// Whole days since the epoch (truncating).
    pub fn days(self) -> u64 {
        self.0 / MINUTES_PER_DAY
    }

    /// Fractional days since the epoch.
    pub fn days_f64(self) -> f64 {
        self.0 as f64 / MINUTES_PER_DAY as f64
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From whole days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * MINUTES_PER_DAY)
    }

    /// From whole hours.
    pub fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 60)
    }

    /// Whole days (truncating).
    pub fn days(self) -> u64 {
        self.0 / MINUTES_PER_DAY
    }

    /// Fractional days.
    pub fn days_f64(self) -> f64 {
        self.0 as f64 / MINUTES_PER_DAY as f64
    }
}

/// Minutes per day.
pub const MINUTES_PER_DAY: u64 = 24 * 60;

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
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.0 / MINUTES_PER_DAY;
        let rem = self.0 % MINUTES_PER_DAY;
        write!(f, "day {} {:02}:{:02}", d, rem / 60, rem % 60)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_roundtrip() {
        assert_eq!(SimTime::from_days(3).days(), 3);
        assert_eq!(SimTime::from_days(3).0, 3 * 1440);
    }

    #[test]
    fn fractional_days() {
        let t = SimTime::from_days_f64(1.5);
        assert_eq!(t.0, 2160);
        assert!((t.days_f64() - 1.5).abs() < 1e-9);
        assert_eq!(t.days(), 1);
    }

    #[test]
    fn negative_fraction_clamps_to_zero() {
        assert_eq!(SimTime::from_days_f64(-2.0), SimTime(0));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_days(1) + SimDuration::from_hours(12);
        assert_eq!(t.0, 1440 + 720);
        assert_eq!((t - SimDuration::from_days(2)).0, 0, "saturates at epoch");
        assert_eq!(t.since(SimTime::from_days(1)).0, 720);
        assert_eq!(SimTime::EPOCH.since(t), SimDuration::ZERO);
    }

    #[test]
    fn duration_helpers() {
        let d = SimDuration::from_days(2) + SimDuration::from_hours(6);
        assert_eq!(d.days(), 2);
        assert!((d.days_f64() - 2.25).abs() < 1e-9);
    }

    #[test]
    fn display_format() {
        assert_eq!(SimTime(1503).to_string(), "day 1 01:03");
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_days(1) < SimTime::from_days(2));
        let mut t = SimTime::EPOCH;
        t += SimDuration::from_hours(1);
        assert_eq!(t.0, 60);
    }
}
