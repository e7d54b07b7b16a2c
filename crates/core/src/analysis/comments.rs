//! Cross-account commenter search (paper §5.3.2).
//!
//! The paper recorded 33,570 comments on the public accounts of doxing
//! victims from 9,792 distinct commenters and looked for commenters active
//! on multiple victims' accounts (possible evidence of doxers following
//! their victims) — finding none. The reproduction fetches the public
//! comments of every monitored account through the scraper and runs the
//! same search.

use crate::monitor::Monitor;
use dox_osn::account::AccountId;
use dox_osn::platform::SimOsnWorld;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// §5.3.2's numbers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CommentAnalysis {
    /// Comments recorded on victims' public accounts.
    pub total_comments: usize,
    /// Distinct commenters.
    pub distinct_commenters: usize,
    /// Commenters seen on more than one victim's account.
    pub cross_account_commenters: usize,
    /// Accounts whose comments were fetched.
    pub accounts_fetched: usize,
}

/// Fetch comments for every monitored account (at its final probe time),
/// in account order, and run the cross-account search. The order is
/// fixed because a fault-injected monitor's per-network breakers see
/// the fetches in the order they run.
pub fn analyze_comments(world: &SimOsnWorld, monitor: &mut Monitor) -> CommentAnalysis {
    let mut targets: Vec<(AccountId, dox_osn::clock::SimTime)> = monitor
        .histories()
        .filter_map(|h| h.observations.last().map(|o| (h.account, o.at)))
        .collect();
    targets.sort_unstable_by_key(|&(account, _)| account);
    let mut per_commenter: BTreeMap<String, BTreeSet<AccountId>> = BTreeMap::new();
    let mut total = 0usize;
    let mut fetched = 0usize;
    for (account, at) in targets {
        // Rate limits are retried and injected faults recovered inside the
        // monitor; a `None` here is an explicitly counted miss, not a
        // silent drop.
        let Some(comments) = monitor.fetch_comments_recovering(world, account, at) else {
            continue;
        };
        fetched += 1;
        for c in comments {
            total += 1;
            per_commenter
                .entry(c.commenter)
                .or_default()
                .insert(account);
        }
    }
    let cross = per_commenter.values().filter(|s| s.len() > 1).count();
    CommentAnalysis {
        total_comments: total,
        distinct_commenters: per_commenter.len(),
        cross_account_commenters: cross,
        accounts_fetched: fetched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::Schedule;
    use dox_osn::account::AccountStatus;
    use dox_osn::clock::SimTime;
    use dox_osn::network::Network;

    #[test]
    fn comments_counted_and_no_cross_account_by_construction() {
        let mut world = SimOsnWorld::new(77);
        let mut ids = Vec::new();
        for i in 0..20 {
            ids.push(world.register(
                Network::Instagram,
                &format!("victim{i}"),
                SimTime::EPOCH,
                AccountStatus::Public,
            ));
        }
        world.generate_baseline_comments(&ids, (SimTime::EPOCH, SimTime::from_days(10)));
        for &id in &ids {
            world.notify_doxed(id, SimTime::from_days(12));
        }
        let mut monitor = Monitor::new(Schedule::paper());
        for &id in &ids {
            monitor.enroll_and_probe(&world, id, SimTime::from_days(12));
        }
        let analysis = analyze_comments(&world, &mut monitor);
        assert!(analysis.total_comments > 0);
        assert!(analysis.distinct_commenters > 0);
        assert_eq!(
            analysis.cross_account_commenters, 0,
            "commenter pools are disjoint per account"
        );
        assert!(analysis.accounts_fetched <= 20);
        // each comment has a commenter; distinct ≤ total
        assert!(analysis.distinct_commenters <= analysis.total_comments);
    }

    #[test]
    fn private_accounts_contribute_nothing() {
        let mut world = SimOsnWorld::new(78);
        let id = world.register(
            Network::Instagram,
            "hidden",
            SimTime::EPOCH,
            AccountStatus::Private,
        );
        world.generate_baseline_comments(&[id], (SimTime::EPOCH, SimTime::from_days(10)));
        let mut monitor = Monitor::new(Schedule::paper());
        monitor.enroll_and_probe(&world, id, SimTime::from_days(12));
        let analysis = analyze_comments(&world, &mut monitor);
        assert_eq!(analysis.total_comments, 0);
    }

    #[test]
    fn empty_monitor() {
        let world = SimOsnWorld::new(79);
        let mut monitor = Monitor::new(Schedule::paper());
        let analysis = analyze_comments(&world, &mut monitor);
        assert_eq!(analysis, CommentAnalysis::default());
    }
}
