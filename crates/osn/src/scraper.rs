//! The measurement client: the paper's vantage point, in code.
//!
//! §3.1.5: "We visited each referenced online social networking account
//! several times over the study period. Each time we checked to see if the
//! account was in a public, private, or deleted/disabled state. For
//! accounts that were public … we also recorded the text of the public
//! posts … and comments." All probes came from a single IP.
//!
//! [`Scraper`] enforces exactly that observability: a status probe returns
//! only the status at the probe time; comment fetches return only comments
//! already posted on a currently-public account. A token-bucket rate
//! limiter models the single-vantage-point request budget, and every
//! request is accounted.

use crate::account::{AccountId, AccountStatus};
use crate::clock::{SimDuration, SimTime};
use crate::comments::Comment;
use crate::platform::SimOsnWorld;
use serde::Serialize;

/// One observation of an account.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// The account observed.
    pub account: AccountId,
    /// Probe time.
    pub at: SimTime,
    /// Status seen.
    pub status: AccountStatus,
}

/// Errors a scrape request can produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScrapeError {
    /// The account id does not exist on the platform.
    UnknownAccount(AccountId),
    /// The per-day request budget is exhausted at this sim time.
    RateLimited {
        /// When the limiter will next admit a request.
        retry_at: SimTime,
    },
}

impl std::fmt::Display for ScrapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::UnknownAccount(id) => {
                write!(f, "unknown account uid {} on {}", id.uid, id.network)
            }
            Self::RateLimited { retry_at } => write!(f, "rate limited until {retry_at}"),
        }
    }
}

impl std::error::Error for ScrapeError {}

/// Token-bucket rate limiter over simulation time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RateLimiter {
    /// Requests admitted per sim-day.
    pub per_day: u64,
    tokens: f64,
    last_refill: SimTime,
}

impl RateLimiter {
    /// A limiter admitting `per_day` requests per simulated day.
    ///
    /// # Panics
    /// Panics when `per_day == 0`.
    pub fn new(per_day: u64) -> Self {
        assert!(per_day > 0, "rate must be positive");
        Self {
            per_day,
            tokens: per_day as f64,
            last_refill: SimTime::EPOCH,
        }
    }

    /// Try to admit one request at `now`.
    pub fn admit(&mut self, now: SimTime) -> Result<(), ScrapeError> {
        // Refill proportionally to elapsed time; cap at one day's budget.
        let elapsed = now.since(self.last_refill).0 as f64;
        self.tokens =
            (self.tokens + elapsed * self.per_day as f64 / 1440.0).min(self.per_day as f64);
        self.last_refill = now;
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            Ok(())
        } else {
            let deficit = 1.0 - self.tokens;
            let wait_min = (deficit * 1440.0 / self.per_day as f64).ceil() as u64;
            Err(ScrapeError::RateLimited {
                retry_at: now + SimDuration(wait_min.max(1)),
            })
        }
    }
}

/// The scraping client.
#[derive(Debug, Clone)]
pub struct Scraper {
    limiter: RateLimiter,
    requests_made: u64,
}

impl Scraper {
    /// A scraper with the given request budget per simulated day.
    pub fn new(requests_per_day: u64) -> Self {
        Self {
            limiter: RateLimiter::new(requests_per_day),
            requests_made: 0,
        }
    }

    /// A scraper with an effectively unlimited budget (analysis-scale runs).
    pub fn unlimited() -> Self {
        Self::new(u64::MAX / 2)
    }

    /// Probe the status of `id` at `now`.
    pub fn probe(
        &mut self,
        world: &SimOsnWorld,
        id: AccountId,
        now: SimTime,
    ) -> Result<Observation, ScrapeError> {
        self.limiter.admit(now)?;
        self.requests_made += 1;
        let account = world.account(id).ok_or(ScrapeError::UnknownAccount(id))?;
        Ok(Observation {
            account: id,
            at: now,
            status: account.status_at(now),
        })
    }

    /// Fetch the public comments visible on `id` at `now`.
    ///
    /// Returns an empty list when the account is private or inactive — the
    /// vantage point has no social tie to any account (§3.1.5).
    pub fn fetch_comments(
        &mut self,
        world: &SimOsnWorld,
        id: AccountId,
        now: SimTime,
    ) -> Result<Vec<Comment>, ScrapeError> {
        self.limiter.admit(now)?;
        self.requests_made += 1;
        let account = world.account(id).ok_or(ScrapeError::UnknownAccount(id))?;
        if account.status_at(now) != AccountStatus::Public {
            return Ok(Vec::new());
        }
        Ok(world
            .comments()
            .iter()
            .filter(|c| c.on_account == id && c.at <= now)
            .cloned()
            .collect())
    }

    /// Total requests issued (probes + comment fetches).
    pub fn requests_made(&self) -> u64 {
        self.requests_made
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn world_with_account() -> (SimOsnWorld, AccountId) {
        let mut w = SimOsnWorld::new(9);
        let id = w.register(
            Network::Instagram,
            "probed",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        (w, id)
    }

    #[test]
    fn probe_sees_status_at_time() {
        let (mut w, id) = world_with_account();
        w.notify_doxed(id, SimTime::from_days(5));
        let mut s = Scraper::unlimited();
        let early = s.probe(&w, id, SimTime::from_days(0)).unwrap();
        assert_eq!(early.status, AccountStatus::Public);
        // Whatever happened later, the early observation is unchanged and
        // late probes agree with ground truth.
        let late = s.probe(&w, id, SimTime::from_days(60)).unwrap();
        assert_eq!(
            late.status,
            w.account(id).unwrap().status_at(SimTime::from_days(60))
        );
        assert_eq!(s.requests_made(), 2);
    }

    #[test]
    fn unknown_account_errors() {
        let (w, id) = world_with_account();
        let mut s = Scraper::unlimited();
        let bogus = AccountId {
            network: id.network,
            uid: 999,
        };
        assert_eq!(
            s.probe(&w, bogus, SimTime::EPOCH),
            Err(ScrapeError::UnknownAccount(bogus))
        );
    }

    #[test]
    fn comments_only_visible_on_public_accounts() {
        let (mut w, id) = world_with_account();
        w.generate_baseline_comments(&[id], (SimTime::EPOCH, SimTime::from_days(10)));
        let mut s = Scraper::unlimited();
        let visible = s.fetch_comments(&w, id, SimTime::from_days(20)).unwrap();
        assert!(!visible.is_empty());
        // Force the account private; comments disappear from view.
        let mut w2 = SimOsnWorld::new(10);
        let id2 = w2.register(
            Network::Instagram,
            "hidden",
            SimTime::EPOCH,
            AccountStatus::Private,
        );
        w2.generate_baseline_comments(&[id2], (SimTime::EPOCH, SimTime::from_days(10)));
        assert!(s
            .fetch_comments(&w2, id2, SimTime::from_days(20))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn comments_respect_probe_time() {
        let (mut w, id) = world_with_account();
        w.generate_baseline_comments(&[id], (SimTime::from_days(5), SimTime::from_days(10)));
        let mut s = Scraper::unlimited();
        let before = s.fetch_comments(&w, id, SimTime::from_days(4)).unwrap();
        assert!(before.is_empty(), "comments from the future leaked");
        let after = s.fetch_comments(&w, id, SimTime::from_days(11)).unwrap();
        assert_eq!(
            after.len(),
            w.comments().iter().filter(|c| c.on_account == id).count()
        );
    }

    #[test]
    fn rate_limiter_blocks_then_recovers() {
        let mut rl = RateLimiter::new(2);
        let t = SimTime::from_days(1);
        assert!(rl.admit(t).is_ok());
        assert!(rl.admit(t).is_ok());
        let err = rl.admit(t).unwrap_err();
        match err {
            ScrapeError::RateLimited { retry_at } => {
                assert!(retry_at > t);
                assert!(rl.admit(retry_at + SimDuration::from_hours(12)).is_ok());
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
    }

    #[test]
    fn limiter_caps_burst_at_one_day_budget() {
        let mut rl = RateLimiter::new(10);
        // After a long idle period the bucket holds at most one day's worth.
        let t = SimTime::from_days(100);
        let mut admitted = 0;
        while rl.admit(t).is_ok() {
            admitted += 1;
            assert!(admitted < 100, "bucket failed to cap");
        }
        assert_eq!(admitted, 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        RateLimiter::new(0);
    }
}
