//! The attacker population: doxer aliases, teams and the Twitter follow
//! graph.
//!
//! Figure 2 of the paper builds an undirected graph over the 251 doxer
//! aliases observed in dox "credits": an edge connects two doxers who were
//! credited together on a dox, or who follow each other on Twitter (213 of
//! the 251 had Twitter handles; 34 measured accounts were private). The
//! cliques of size ≥ 4 span 61 doxers, the largest containing 11.
//!
//! We model that structure directly: the population is partitioned into
//! teams; teammates co-credit and (when both have public Twitter) follow
//! each other. The default team-size layout reproduces Figure 2's numbers
//! at scale 1.0: the teams of size ≥ 4 sum to 61 members.

use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// One doxer alias.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Doxer {
    /// Index into the population.
    pub id: u32,
    /// The alias used in credits, e.g. "DoxLord_7".
    pub alias: String,
    /// Twitter handle, if the doxer has one (213/251 at paper scale).
    pub twitter: Option<String>,
    /// Whether the Twitter account is private (34 of the 213 — private
    /// accounts contribute no follow edges to the measured graph).
    pub twitter_private: bool,
    /// Team index (singletons get their own team).
    pub team: u32,
}

/// The full attacker population.
#[derive(Debug, Clone, Serialize)]
pub struct DoxerPopulation {
    doxers: Vec<Doxer>,
    teams: Vec<Vec<u32>>,
}

const ALIAS_FIRST: &[&str] = &[
    "Dox", "Shadow", "Null", "Cipher", "Ghost", "Spect", "Vex", "Krypt", "Phant", "Zero", "Hex",
    "Raze", "Grim", "Byte", "Wraith", "Omen",
];
const ALIAS_SECOND: &[&str] = &[
    "Lord", "Hunter", "Reaper", "Smith", "King", "Viper", "Storm", "Fang", "Byte", "Wolf", "Crow",
    "Mancer",
];

/// The team-size layout that reproduces Figure 2 at paper scale:
/// sizes ≥ 4 sum to 61 (11 + 9 + 8 + 7 + 6 + 6 + 5 + 5 + 4), the rest are
/// pairs, trios and singletons totalling 251 doxers.
pub const PAPER_TEAM_SIZES: &[usize] = &[
    11, 9, 8, 7, 6, 6, 5, 5, 4, // 61 doxers in cliques of ≥ 4
    3, 3, 3, 3, 3, 3, 3, 3, // 24 in trios
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, // 40 in pairs
       // 126 singletons appended programmatically to reach 251
];

impl DoxerPopulation {
    /// Generate the paper-scale population (251 doxers, 213 with Twitter).
    pub fn paper(seed: u64) -> Self {
        Self::generate(seed, 1.0)
    }

    /// Generate at `scale` (team sizes are kept, team *counts* shrink).
    ///
    /// # Panics
    /// Panics unless `0.0 < scale <= 1.0`.
    pub fn generate(seed: u64, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD0E5);

        // Build team-size list: the fixed layout plus singletons to 251,
        // then thin by scale (always keep the biggest team so the clique
        // analysis has something to find).
        let mut sizes: Vec<usize> = PAPER_TEAM_SIZES.to_vec();
        let fixed: usize = sizes.iter().sum();
        sizes.extend(std::iter::repeat_n(1, 251 - fixed));
        let keep = ((sizes.len() as f64) * scale).ceil().max(1.0) as usize;
        // Keep a stratified prefix: big teams first so structure survives
        // small scales.
        sizes.truncate(keep.max(1));

        let mut doxers = Vec::new();
        let mut teams = Vec::new();
        for (team_idx, &size) in sizes.iter().enumerate() {
            let mut team = Vec::with_capacity(size);
            for _ in 0..size {
                let id = doxers.len() as u32;
                let alias = format!(
                    "{}{}_{}",
                    ALIAS_FIRST[rng.random_range(0..ALIAS_FIRST.len())],
                    ALIAS_SECOND[rng.random_range(0..ALIAS_SECOND.len())],
                    id
                );
                // 213/251 ≈ 84.9 % have Twitter; of those 34/213 ≈ 16 %
                // are private. Members of big teams always have public
                // Twitter so the team forms a clique in the union graph.
                let in_big_team = size >= 4;
                let has_twitter = in_big_team || rng.random_range(0.0..1.0) < 0.80;
                let twitter_private = !in_big_team && rng.random_range(0.0..1.0) < 0.20;
                doxers.push(Doxer {
                    id,
                    alias: alias.clone(),
                    twitter: has_twitter.then(|| format!("@{}", alias.to_lowercase())),
                    twitter_private,
                    team: team_idx as u32,
                });
                team.push(id);
            }
            teams.push(team);
        }
        Self { doxers, teams }
    }

    /// All doxers.
    pub fn doxers(&self) -> &[Doxer] {
        &self.doxers
    }

    /// All teams (lists of doxer ids).
    pub fn teams(&self) -> &[Vec<u32>] {
        &self.teams
    }

    /// Look up a doxer.
    pub fn get(&self, id: u32) -> &Doxer {
        &self.doxers[id as usize]
    }

    /// Whether `a` and `b` follow each other on Twitter: teammates with
    /// public Twitter accounts on both sides.
    pub fn mutual_follow(&self, a: u32, b: u32) -> bool {
        if a == b {
            return false;
        }
        let (da, db) = (self.get(a), self.get(b));
        da.team == db.team
            && da.twitter.is_some()
            && db.twitter.is_some()
            && !da.twitter_private
            && !db.twitter_private
    }

    /// Sample a team for a credited dox, weighted by team size (bigger
    /// crews drop more doxes), then return `(author, credited_ids)`:
    /// the author plus 0–3 teammates.
    pub fn sample_credits(&self, rng: &mut ChaCha8Rng) -> (u32, Vec<u32>) {
        let total: usize = self.teams.iter().map(Vec::len).sum();
        let mut pick = rng.random_range(0..total);
        let mut team = &self.teams[0];
        for t in &self.teams {
            if pick < t.len() {
                team = t;
                break;
            }
            pick -= t.len();
        }
        let author = team[rng.random_range(0..team.len())];
        let mut credited = vec![author];
        let extra = rng.random_range(0..=3usize.min(team.len() - 1));
        let mut pool: Vec<u32> = team.iter().copied().filter(|&d| d != author).collect();
        for _ in 0..extra {
            if pool.is_empty() {
                break;
            }
            let k = rng.random_range(0..pool.len());
            credited.push(pool.swap_remove(k));
        }
        (author, credited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_population_has_251_doxers_213_with_twitter() {
        let p = DoxerPopulation::paper(1);
        assert_eq!(p.doxers().len(), 251);
        let with_twitter = p.doxers().iter().filter(|d| d.twitter.is_some()).count();
        assert!(
            (200..=226).contains(&with_twitter),
            "with twitter = {with_twitter}"
        );
    }

    #[test]
    fn big_team_members_sum_to_61() {
        let p = DoxerPopulation::paper(2);
        let in_big: usize = p
            .teams()
            .iter()
            .filter(|t| t.len() >= 4)
            .map(Vec::len)
            .sum();
        assert_eq!(in_big, 61);
        let max = p.teams().iter().map(Vec::len).max().unwrap();
        assert_eq!(max, 11);
    }

    #[test]
    fn big_teams_form_twitter_cliques() {
        let p = DoxerPopulation::paper(3);
        for team in p.teams().iter().filter(|t| t.len() >= 4) {
            for &a in team {
                for &b in team {
                    if a != b {
                        assert!(p.mutual_follow(a, b), "{a} and {b} should follow");
                    }
                }
            }
        }
    }

    #[test]
    fn follows_never_cross_teams() {
        let p = DoxerPopulation::paper(4);
        let a = p.teams()[0][0];
        let b = p.teams()[1][0];
        assert!(!p.mutual_follow(a, b));
        assert!(!p.mutual_follow(a, a));
    }

    #[test]
    fn aliases_unique() {
        let p = DoxerPopulation::paper(5);
        let mut aliases: Vec<&str> = p.doxers().iter().map(|d| d.alias.as_str()).collect();
        let n = aliases.len();
        aliases.sort_unstable();
        aliases.dedup();
        assert_eq!(aliases.len(), n);
    }

    #[test]
    fn credits_come_from_one_team() {
        let p = DoxerPopulation::paper(6);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..200 {
            let (author, credited) = p.sample_credits(&mut rng);
            assert!(credited.contains(&author));
            assert!(credited.len() <= 4);
            let team = p.get(credited[0]).team;
            for &c in &credited {
                assert_eq!(p.get(c).team, team);
            }
            // No duplicate credits.
            let mut sorted = credited.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), credited.len());
        }
    }

    #[test]
    fn scaled_population_keeps_biggest_team() {
        let p = DoxerPopulation::generate(7, 0.05);
        assert!(!p.doxers().is_empty());
        let max = p.teams().iter().map(Vec::len).max().unwrap();
        assert_eq!(max, 11, "big teams are kept first under scaling");
    }

    #[test]
    fn deterministic() {
        let a = DoxerPopulation::paper(8);
        let b = DoxerPopulation::paper(8);
        assert_eq!(a.doxers(), b.doxers());
    }

    #[test]
    #[should_panic(expected = "scale must be in")]
    fn bad_scale_panics() {
        DoxerPopulation::generate(0, 0.0);
    }
}
