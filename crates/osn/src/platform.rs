//! Account registries — the simulated platforms themselves.
//!
//! [`SimOsnWorld`] holds one registry per network. Registration hands out
//! uids; Instagram's uids are **monotonically increasing with registration
//! order**, the property the paper exploits to draw a uniform random
//! control sample of all registered users (§6.2.1). The registry also
//! resolves handles (the scraper and extractor work with handles, as the
//! paper's pipeline did).

use crate::account::{Account, AccountId, AccountStatus};
use crate::behavior::BehaviorModel;
use crate::clock::SimTime;
use crate::comments::{Comment, CommentModel};
use crate::network::Network;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::collections::{HashMap, HashSet};

/// One network's account registry.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Registry {
    accounts: Vec<Account>,
    by_handle: HashMap<String, u64>,
}

impl Registry {
    /// Register a new account; returns its uid (monotonically increasing).
    ///
    /// # Panics
    /// Panics if the handle is already registered on this network.
    pub fn register(
        &mut self,
        network: Network,
        handle: &str,
        created: SimTime,
        initial: AccountStatus,
    ) -> AccountId {
        let uid = self.accounts.len() as u64;
        let key = handle.to_lowercase();
        assert!(
            !self.by_handle.contains_key(&key),
            "handle {handle:?} already registered on {network}"
        );
        self.by_handle.insert(key, uid);
        let id = AccountId { network, uid };
        self.accounts
            .push(Account::new(id, handle.to_string(), created, initial));
        id
    }

    /// Number of registered accounts.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Resolve a handle (case-insensitive).
    pub fn resolve(&self, handle: &str) -> Option<AccountId> {
        self.by_handle
            .get(&handle.to_lowercase())
            .map(|&uid| self.accounts[uid as usize].id)
    }

    /// Borrow an account by uid.
    pub fn get(&self, uid: u64) -> Option<&Account> {
        self.accounts.get(uid as usize)
    }

    /// Mutably borrow an account by uid.
    pub fn get_mut(&mut self, uid: u64) -> Option<&mut Account> {
        self.accounts.get_mut(uid as usize)
    }

    /// All accounts.
    pub fn accounts(&self) -> &[Account] {
        &self.accounts
    }
}

/// The complete simulated OSN world: one registry per network, the
/// behavioural model, and the generated comment store.
///
/// ```
/// use dox_osn::account::AccountStatus;
/// use dox_osn::clock::SimTime;
/// use dox_osn::network::Network;
/// use dox_osn::platform::SimOsnWorld;
///
/// let mut world = SimOsnWorld::new(7);
/// let id = world.register(
///     Network::Instagram,
///     "victim_a",
///     SimTime::EPOCH,
///     AccountStatus::Public,
/// );
/// world.notify_doxed(id, SimTime::from_days(3));
/// assert!(world.was_doxed(id));
/// assert_eq!(world.resolve(Network::Instagram, "VICTIM_A"), Some(id));
/// ```
#[derive(Debug, Clone)]
pub struct SimOsnWorld {
    registries: HashMap<Network, Registry>,
    behavior: BehaviorModel,
    comment_model: CommentModel,
    comments: Vec<Comment>,
    doxed: HashSet<AccountId>,
    rng: ChaCha8Rng,
}

impl SimOsnWorld {
    /// Create an empty world with the paper-calibrated behaviour model.
    pub fn new(seed: u64) -> Self {
        Self::with_models(BehaviorModel::paper(), CommentModel::default(), seed)
    }

    /// Create a world with explicit models (ablation benches use this).
    pub fn with_models(behavior: BehaviorModel, comment_model: CommentModel, seed: u64) -> Self {
        let registries = Network::ALL
            .iter()
            .map(|&n| (n, Registry::default()))
            .collect();
        Self {
            registries,
            behavior,
            comment_model,
            comments: Vec::new(),
            doxed: HashSet::new(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x05_11),
        }
    }

    /// The behaviour model in force.
    pub fn behavior(&self) -> &BehaviorModel {
        &self.behavior
    }

    /// Register an account.
    pub fn register(
        &mut self,
        network: Network,
        handle: &str,
        created: SimTime,
        initial: AccountStatus,
    ) -> AccountId {
        self.registries
            .get_mut(&network)
            .expect("all networks present")
            .register(network, handle, created, initial)
    }

    /// Register, choosing the initial status from the given distribution
    /// (`p_private` / `p_inactive`, remainder public) and an activity
    /// level from a mean-1 lognormal — most accounts post occasionally,
    /// some are hyperactive, many are effectively abandoned.
    pub fn register_with_status_mix(
        &mut self,
        network: Network,
        handle: &str,
        created: SimTime,
        p_private: f64,
        p_inactive: f64,
    ) -> AccountId {
        let u: f64 = self.rng.random_range(0.0..1.0);
        let initial = if u < p_inactive {
            AccountStatus::Inactive
        } else if u < p_inactive + p_private && network.has_private_state() {
            AccountStatus::Private
        } else {
            AccountStatus::Public
        };
        // Lognormal(μ = −σ²/2, σ = 1) has mean 1 — Box–Muller.
        let u1: f64 = self.rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let activity = (z - 0.5).exp();
        let id = self.register(network, handle, created, initial);
        self.registries
            .get_mut(&network)
            .expect("network present")
            .get_mut(id.uid)
            .expect("just registered")
            .activity = activity;
        id
    }

    /// A network's registry.
    pub fn registry(&self, network: Network) -> &Registry {
        &self.registries[&network]
    }

    /// Resolve a handle on a network.
    pub fn resolve(&self, network: Network, handle: &str) -> Option<AccountId> {
        self.registries[&network].resolve(handle)
    }

    /// Borrow an account.
    pub fn account(&self, id: AccountId) -> Option<&Account> {
        self.registries[&id.network].get(id.uid)
    }

    /// Mark `id` as doxed at `time`: applies the victim-reaction model and
    /// generates the post-dox comment wave if the account is public.
    pub fn notify_doxed(&mut self, id: AccountId, time: SimTime) {
        self.doxed.insert(id);
        let filtered = matches!(
            self.behavior.filters.era(id.network, time),
            crate::filters::FilterEra::PostFilter
        );
        let reg = self
            .registries
            .get_mut(&id.network)
            .expect("network present");
        if let Some(account) = reg.get_mut(id.uid) {
            self.behavior
                .apply_dox_reaction(account, time, &mut self.rng);
            if account.status_at(time) == AccountStatus::Public {
                let wave = self
                    .comment_model
                    .dox_wave(id, time, filtered, &mut self.rng);
                self.comments.extend(wave);
            }
        }
    }

    /// Apply baseline churn to every account of `network` over `window`.
    /// Used to animate the control population.
    pub fn run_baseline_churn(&mut self, network: Network, window: (SimTime, SimTime)) {
        let behavior = self.behavior.clone();
        let reg = self.registries.get_mut(&network).expect("network present");
        for uid in 0..reg.len() as u64 {
            let account = reg.get_mut(uid).expect("uid in range");
            behavior.apply_baseline_churn(account, window, &mut self.rng);
        }
    }

    /// Generate baseline comment streams for the given accounts.
    pub fn generate_baseline_comments(&mut self, ids: &[AccountId], window: (SimTime, SimTime)) {
        for &id in ids {
            let stream = self
                .comment_model
                .baseline_stream(id, window, &mut self.rng);
            self.comments.extend(stream);
        }
    }

    /// All generated comments (ground truth; the scraper filters by
    /// account visibility and probe time).
    pub fn comments(&self) -> &[Comment] {
        &self.comments
    }

    /// Whether `id` has ever been doxed (ground truth, for evaluation).
    pub fn was_doxed(&self, id: AccountId) -> bool {
        self.doxed.contains(&id)
    }

    /// Draw a uniform random sample of `n` Instagram uids (the paper's
    /// control-group technique: Instagram uids are monotonically
    /// increasing, so sampling uids uniformly samples registered users).
    /// Doxed accounts are excluded: Instagram's 600 M users make the
    /// paper's random control "sufficiently likely to be free of doxed
    /// accounts" (§6.2.1); the scaled simulation enforces what full scale
    /// gives for free.
    ///
    /// Sampling is with replacement de-duplicated, so the result may be
    /// slightly smaller than `n` when the registry is small.
    pub fn sample_instagram_uids(&mut self, n: usize) -> Vec<AccountId> {
        let total = self.registries[&Network::Instagram].len() as u64;
        if total == 0 {
            return Vec::new();
        }
        let mut uids: Vec<u64> = (0..n).map(|_| self.rng.random_range(0..total)).collect();
        uids.sort_unstable();
        uids.dedup();
        uids.into_iter()
            .map(|uid| AccountId {
                network: Network::Instagram,
                uid,
            })
            .filter(|id| !self.doxed.contains(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uids_monotonic() {
        let mut w = SimOsnWorld::new(1);
        let a = w.register(
            Network::Instagram,
            "alpha",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        let b = w.register(
            Network::Instagram,
            "beta",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        let c = w.register(
            Network::Instagram,
            "gamma",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        assert!(a.uid < b.uid && b.uid < c.uid);
        // Other networks have independent uid spaces.
        let f = w.register(
            Network::Facebook,
            "alpha",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        assert_eq!(f.uid, 0);
    }

    #[test]
    fn handle_resolution_case_insensitive() {
        let mut w = SimOsnWorld::new(2);
        let id = w.register(
            Network::Twitter,
            "DoxHunter",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        assert_eq!(w.resolve(Network::Twitter, "doxhunter"), Some(id));
        assert_eq!(w.resolve(Network::Twitter, "DOXHUNTER"), Some(id));
        assert_eq!(w.resolve(Network::Twitter, "nobody"), None);
        assert_eq!(w.resolve(Network::Facebook, "DoxHunter"), None);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_handle_panics() {
        let mut w = SimOsnWorld::new(3);
        w.register(
            Network::Twitter,
            "dup",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        w.register(
            Network::Twitter,
            "DUP",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
    }

    #[test]
    fn notify_doxed_can_change_status_and_spawn_comments() {
        let mut w = SimOsnWorld::new(4);
        let mut ids = Vec::new();
        for i in 0..300 {
            ids.push(w.register(
                Network::Instagram,
                &format!("victim{i}"),
                SimTime::EPOCH,
                AccountStatus::Public,
            ));
        }
        for &id in &ids {
            w.notify_doxed(id, SimTime::from_days(3));
        }
        let changed = ids
            .iter()
            .filter(|id| !w.account(**id).unwrap().transitions().is_empty())
            .count();
        assert!(
            changed > 30,
            "pre-filter Instagram should react ~32%: {changed}"
        );
        assert!(!w.comments().is_empty());
    }

    #[test]
    fn instagram_sampling_uniform_over_uids() {
        let mut w = SimOsnWorld::new(5);
        for i in 0..2000 {
            w.register(
                Network::Instagram,
                &format!("u{i}"),
                SimTime::EPOCH,
                AccountStatus::Public,
            );
        }
        let sample = w.sample_instagram_uids(500);
        assert!(!sample.is_empty());
        assert!(sample.iter().all(|id| id.uid < 2000));
        // roughly half below the median uid
        let below = sample.iter().filter(|id| id.uid < 1000).count();
        let frac = below as f64 / sample.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "frac {frac}");
    }

    #[test]
    fn sampling_empty_registry_is_empty() {
        let mut w = SimOsnWorld::new(6);
        assert!(w.sample_instagram_uids(10).is_empty());
    }

    #[test]
    fn status_mix_distribution() {
        let mut w = SimOsnWorld::new(7);
        for i in 0..5000 {
            w.register_with_status_mix(
                Network::Facebook,
                &format!("m{i}"),
                SimTime::EPOCH,
                0.15,
                0.05,
            );
        }
        let reg = w.registry(Network::Facebook);
        let private = reg
            .accounts()
            .iter()
            .filter(|a| a.initial_status == AccountStatus::Private)
            .count() as f64
            / 5000.0;
        let inactive = reg
            .accounts()
            .iter()
            .filter(|a| a.initial_status == AccountStatus::Inactive)
            .count() as f64
            / 5000.0;
        assert!((private - 0.15).abs() < 0.03, "private {private}");
        assert!((inactive - 0.05).abs() < 0.02, "inactive {inactive}");
    }

    #[test]
    fn registered_activity_is_lognormal_mean_one() {
        let mut w = SimOsnWorld::new(21);
        for i in 0..20_000 {
            w.register_with_status_mix(
                Network::Instagram,
                &format!("a{i}"),
                SimTime::EPOCH,
                0.2,
                0.05,
            );
        }
        let reg = w.registry(Network::Instagram);
        let mean: f64 = reg.accounts().iter().map(|a| a.activity).sum::<f64>() / 20_000.0;
        assert!((mean - 1.0).abs() < 0.05, "mean activity {mean}");
        let active = reg.accounts().iter().filter(|a| a.is_active()).count() as f64 / 20_000.0;
        // Lognormal(−0.5, 1): P(X ≥ 0.5) ≈ 0.58 — many accounts idle.
        assert!((0.45..0.72).contains(&active), "active share {active}");
        // Plain `register` leaves the default.
        let id = w.register(
            Network::Twitter,
            "plain",
            SimTime::EPOCH,
            AccountStatus::Public,
        );
        assert_eq!(w.account(id).unwrap().activity, 1.0);
    }

    #[test]
    fn baseline_churn_touches_registry() {
        let mut w = SimOsnWorld::new(8);
        for i in 0..20_000 {
            w.register(
                Network::Instagram,
                &format!("c{i}"),
                SimTime::EPOCH,
                AccountStatus::Public,
            );
        }
        w.run_baseline_churn(Network::Instagram, (SimTime::EPOCH, SimTime::from_days(42)));
        let changed = w
            .registry(Network::Instagram)
            .accounts()
            .iter()
            .filter(|a| !a.transitions().is_empty())
            .count();
        // baseline any-change = 0.2 %: expect ~40 of 20k
        assert!((10..=90).contains(&changed), "changed = {changed}");
    }
}
