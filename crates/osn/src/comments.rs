//! Comment streams on public accounts.
//!
//! §5.3.2 of the paper records 33,570 comments left on doxed victims'
//! public accounts by 9,792 distinct commenters, and finds **no** commenter
//! appearing on more than one victim's account. The simulator generates
//! comments accordingly: each account draws from its own commenter pool
//! (pools are disjoint by construction — uid-namespaced per account), and
//! after a dox the comment rate spikes with a harassing fraction.

use crate::account::AccountId;
use crate::clock::{SimDuration, SimTime};
use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// The tone of a comment (ground truth; the scraper only sees text).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CommentTone {
    /// Ordinary social chatter.
    Benign,
    /// Harassing / abusive content (the kind anti-abuse filters target).
    Abusive,
}

/// A comment left on an account's public content.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Comment {
    /// The account commented on.
    pub on_account: AccountId,
    /// Commenter identity — globally unique, namespaced per account so
    /// commenter pools are disjoint (matching the §5.3.2 observation).
    pub commenter: String,
    /// When the comment was posted.
    pub at: SimTime,
    /// The comment body.
    pub text: String,
    /// Ground-truth tone.
    pub tone: CommentTone,
}

/// Parameters of the comment generator.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CommentModel {
    /// Expected benign comments per account over a study window.
    pub benign_per_account: f64,
    /// Expected post-dox comments on a public account (harassment wave).
    pub dox_wave_mean: f64,
    /// Fraction of post-dox comments that are abusive, pre-filter.
    pub abusive_share_pre: f64,
    /// Fraction abusive once filters deploy (filters hide abusive content).
    pub abusive_share_post: f64,
    /// Days over which the post-dox wave decays.
    pub wave_days: f64,
}

impl Default for CommentModel {
    fn default() -> Self {
        Self {
            benign_per_account: 10.0,
            dox_wave_mean: 24.0,
            abusive_share_pre: 0.45,
            abusive_share_post: 0.12,
            wave_days: 10.0,
        }
    }
}

const BENIGN_TEMPLATES: &[&str] = &[
    "great post!",
    "love this",
    "haha nice one",
    "where was this taken?",
    "awesome, congrats",
    "miss you, we should catch up",
    "this is so cool",
    "nice shot",
];

const ABUSIVE_TEMPLATES: &[&str] = &[
    "we know where you live now",
    "everyone has seen your info, good luck",
    "you got dropped, log off",
    "nice address lol",
    "check the paste, it's all there",
    "delete your account while you still can",
    "your phone is about to blow up",
];

impl CommentModel {
    /// Generate the baseline (pre-dox) comment stream for one account over
    /// `[window.0, window.1)`.
    pub fn baseline_stream(
        &self,
        account: AccountId,
        window: (SimTime, SimTime),
        rng: &mut ChaCha8Rng,
    ) -> Vec<Comment> {
        let n = poisson(self.benign_per_account, rng);
        let span = window.1.since(window.0).0.max(1);
        (0..n)
            .map(|k| {
                let at = SimTime(window.0 .0 + rng.random_range(0..span));
                Comment {
                    on_account: account,
                    commenter: commenter_name(account, k, rng),
                    at,
                    text: BENIGN_TEMPLATES[rng.random_range(0..BENIGN_TEMPLATES.len())].into(),
                    tone: CommentTone::Benign,
                }
            })
            .collect()
    }

    /// Generate the post-dox harassment wave for one account doxed at
    /// `dox_time`. `filtered` selects the post-filter abusive share.
    pub fn dox_wave(
        &self,
        account: AccountId,
        dox_time: SimTime,
        filtered: bool,
        rng: &mut ChaCha8Rng,
    ) -> Vec<Comment> {
        let n = poisson(self.dox_wave_mean, rng);
        let abusive_share = if filtered {
            self.abusive_share_post
        } else {
            self.abusive_share_pre
        };
        (0..n)
            .map(|k| {
                // Exponential-ish decay over the wave: early-heavy delays.
                let u: f64 = rng.random_range(0.0f64..1.0).max(1e-9);
                let days = -u.ln() / 3.0 * self.wave_days;
                let days = days.min(self.wave_days * 3.0);
                let at = dox_time + SimDuration((days * 1440.0) as u64);
                let abusive = rng.random_range(0.0..1.0) < abusive_share;
                let (text, tone) = if abusive {
                    (
                        ABUSIVE_TEMPLATES[rng.random_range(0..ABUSIVE_TEMPLATES.len())],
                        CommentTone::Abusive,
                    )
                } else {
                    (
                        BENIGN_TEMPLATES[rng.random_range(0..BENIGN_TEMPLATES.len())],
                        CommentTone::Benign,
                    )
                };
                Comment {
                    on_account: account,
                    commenter: commenter_name(account, 100_000 + k, rng),
                    at,
                    text: text.into(),
                    tone,
                }
            })
            .collect()
    }
}

/// Commenter identity namespaced by account: `"c<net>-<uid>-<pool slot>"`.
///
/// Namespacing guarantees disjoint commenter pools across accounts (the
/// §5.3.2 finding), while the bounded per-account pool makes commenters
/// repeat: the paper saw ≈ 3.4 comments per distinct commenter (33,570
/// comments from 9,792 commenters).
fn commenter_name(account: AccountId, _k: u64, rng: &mut ChaCha8Rng) -> String {
    // A social circle of ~12 people leaves most of an account's comments
    // (calibrated to the paper's 33,570 comments / 9,792 commenters).
    let slot: u32 = rng.random_range(0..12);
    format!(
        "c{}-{}-{slot}",
        account.network.name().to_lowercase().replace('+', "p"),
        account.uid
    )
}

/// Sample a Poisson variate via inversion (adequate for small means).
fn poisson(mean: f64, rng: &mut ChaCha8Rng) -> u64 {
    if mean <= 0.0 {
        return 0;
    }
    let l = (-mean).exp();
    let mut k = 0u64;
    let mut p = 1.0f64;
    loop {
        p *= rng.random_range(0.0..1.0f64);
        if p <= l || k > 10_000 {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use rand_chacha::rand_core::SeedableRng;
    use std::collections::HashSet;

    fn aid(uid: u64) -> AccountId {
        AccountId {
            network: Network::Instagram,
            uid,
        }
    }

    #[test]
    fn baseline_stream_within_window() {
        let m = CommentModel::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let w = (SimTime::from_days(0), SimTime::from_days(42));
        let stream = m.baseline_stream(aid(1), w, &mut rng);
        for c in &stream {
            assert!(c.at >= w.0 && c.at < w.1);
            assert_eq!(c.tone, CommentTone::Benign);
        }
    }

    #[test]
    fn commenter_pools_disjoint_across_accounts() {
        let m = CommentModel::default();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let w = (SimTime::from_days(0), SimTime::from_days(42));
        let a: HashSet<String> = m
            .baseline_stream(aid(1), w, &mut rng)
            .into_iter()
            .map(|c| c.commenter)
            .collect();
        let b: HashSet<String> = m
            .baseline_stream(aid(2), w, &mut rng)
            .into_iter()
            .map(|c| c.commenter)
            .collect();
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn dox_wave_is_early_heavy() {
        let m = CommentModel::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let t0 = SimTime::from_days(10);
        let mut early = 0usize;
        let mut total = 0usize;
        for _ in 0..50 {
            for c in m.dox_wave(aid(9), t0, false, &mut rng) {
                total += 1;
                if c.at.since(t0).days_f64() < m.wave_days {
                    early += 1;
                }
            }
        }
        assert!(total > 0);
        assert!(
            early as f64 / total as f64 > 0.8,
            "wave should concentrate early: {early}/{total}"
        );
    }

    #[test]
    fn filtering_reduces_abusive_share() {
        let m = CommentModel::default();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let t0 = SimTime::from_days(10);
        let share = |filtered: bool, rng: &mut ChaCha8Rng| {
            let mut abusive = 0usize;
            let mut total = 0usize;
            for _ in 0..200 {
                for c in m.dox_wave(aid(5), t0, filtered, rng) {
                    total += 1;
                    if c.tone == CommentTone::Abusive {
                        abusive += 1;
                    }
                }
            }
            abusive as f64 / total.max(1) as f64
        };
        let pre = share(false, &mut rng);
        let post = share(true, &mut rng);
        assert!((pre - 0.45).abs() < 0.05, "pre {pre}");
        assert!((post - 0.12).abs() < 0.05, "post {post}");
    }

    #[test]
    fn poisson_mean_approximately_right() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let n = 20_000;
        let total: u64 = (0..n).map(|_| poisson(7.0, &mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 7.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        assert_eq!(poisson(0.0, &mut rng), 0);
    }
}
