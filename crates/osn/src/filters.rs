//! Abuse-filter deployment eras.
//!
//! The paper's two collection periods straddle the deployment of
//! anti-harassment filtering by Facebook (news-feed algorithm change,
//! August 2016 — §6.3.1) and Instagram (comment filtering, early September
//! 2016 — §6.3.2). Twitter and YouTube deployed nothing relevant in the
//! window. [`FilterSchedule`] maps a network and a sim time to the active
//! [`FilterEra`].
//!
//! Simulation timeline (days since 7/20/2016, the study epoch):
//! period 1 spans days 0–42; Facebook deploys around day 22 (mid-August),
//! Instagram around day 50 (early September); period 2 spans days 152–201.

use crate::clock::SimTime;
use crate::network::Network;
use serde::Serialize;

/// Whether a network's anti-abuse filtering was live at a given time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum FilterEra {
    /// Before the network deployed abuse filtering (or never deployed).
    PreFilter,
    /// After deployment.
    PostFilter,
}

/// Per-network filter deployment times.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FilterSchedule {
    /// Facebook's deployment time, if modeled.
    pub facebook: Option<SimTime>,
    /// Instagram's deployment time, if modeled.
    pub instagram: Option<SimTime>,
}

impl Default for FilterSchedule {
    fn default() -> Self {
        Self::paper()
    }
}

impl FilterSchedule {
    /// The historical schedule: Facebook day 22 (≈ 8/11/2016), Instagram
    /// day 50 (≈ 9/8/2016).
    pub fn paper() -> Self {
        Self {
            facebook: Some(SimTime::from_days(22)),
            instagram: Some(SimTime::from_days(50)),
        }
    }

    /// A schedule with no deployments (for ablation benches).
    pub fn never() -> Self {
        Self {
            facebook: None,
            instagram: None,
        }
    }

    /// The era of `network` at `time`. Networks without a modeled
    /// deployment are permanently [`FilterEra::PreFilter`].
    pub fn era(&self, network: Network, time: SimTime) -> FilterEra {
        let deploy = match network {
            Network::Facebook => self.facebook,
            Network::Instagram => self.instagram,
            _ => None,
        };
        match deploy {
            Some(d) if time >= d => FilterEra::PostFilter,
            _ => FilterEra::PreFilter,
        }
    }
}

/// The paper's collection periods, in days since the epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct StudyPeriods {
    /// Period 1: `[start, end)` — the paper's 7/20/2016–8/31/2016.
    pub period1: (SimTime, SimTime),
    /// Period 2: `[start, end)` — the paper's 12/19/2016–2/6/2017.
    pub period2: (SimTime, SimTime),
}

impl Default for StudyPeriods {
    fn default() -> Self {
        Self::paper()
    }
}

impl StudyPeriods {
    /// The paper's timeline: 42-day summer period, 49-day winter period
    /// starting 152 days after the epoch.
    pub const fn paper() -> Self {
        Self {
            period1: (SimTime::from_days(0), SimTime::from_days(42)),
            period2: (SimTime::from_days(152), SimTime::from_days(201)),
        }
    }

    /// Which period (1 or 2) contains `t`, if either.
    pub fn period_of(&self, t: SimTime) -> Option<u8> {
        if t >= self.period1.0 && t < self.period1.1 {
            Some(1)
        } else if t >= self.period2.0 && t < self.period2.1 {
            Some(2)
        } else {
            None
        }
    }

    /// Duration of a period in days.
    pub fn period_days(&self, which: u8) -> u64 {
        let (s, e) = if which == 1 {
            self.period1
        } else {
            self.period2
        };
        e.since(s).days()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_schedule_straddles_periods() {
        let s = FilterSchedule::paper();
        let p = StudyPeriods::paper();
        // During period 1 collection, Instagram filtering was not yet live
        // for doxes observed early in the period...
        assert_eq!(s.era(Network::Instagram, p.period1.0), FilterEra::PreFilter);
        // ...and by period 2 both networks are post-filter.
        assert_eq!(
            s.era(Network::Instagram, p.period2.0),
            FilterEra::PostFilter
        );
        assert_eq!(s.era(Network::Facebook, p.period2.0), FilterEra::PostFilter);
    }

    #[test]
    fn twitter_and_youtube_never_filter() {
        let s = FilterSchedule::paper();
        for t in [SimTime::from_days(0), SimTime::from_days(500)] {
            assert_eq!(s.era(Network::Twitter, t), FilterEra::PreFilter);
            assert_eq!(s.era(Network::YouTube, t), FilterEra::PreFilter);
        }
    }

    #[test]
    fn deployment_boundary_is_inclusive() {
        let s = FilterSchedule::paper();
        let d = s.facebook.unwrap();
        assert_eq!(s.era(Network::Facebook, d), FilterEra::PostFilter);
        assert_eq!(
            s.era(Network::Facebook, SimTime(d.0 - 1)),
            FilterEra::PreFilter
        );
    }

    #[test]
    fn never_schedule() {
        let s = FilterSchedule::never();
        assert_eq!(
            s.era(Network::Facebook, SimTime::from_days(400)),
            FilterEra::PreFilter
        );
    }

    #[test]
    fn period_lookup() {
        let p = StudyPeriods::paper();
        assert_eq!(p.period_of(SimTime::from_days(10)), Some(1));
        assert_eq!(p.period_of(SimTime::from_days(42)), None); // end exclusive
        assert_eq!(p.period_of(SimTime::from_days(100)), None);
        assert_eq!(p.period_of(SimTime::from_days(160)), Some(2));
        assert_eq!(p.period_days(1), 42);
        assert_eq!(p.period_days(2), 49);
    }
}
