//! The synthetic world: countries, states and cities on a coordinate grid.
//!
//! Everything is generated procedurally from a seed. One country is flagged
//! as the "primary" English-speaking country (the stand-in for the United
//! States, where 64.5 % of dox victims with an address were located —
//! paper Table 5); persona generation in `dox-synth` weights addresses
//! accordingly.

use crate::coords::LatLon;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Identifier of a country within a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct CountryId(pub u16);

/// Identifier of a state within a [`World`] (global, not per-country).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct StateId(pub u16);

/// Identifier of a city within a [`World`] (global, not per-state).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct CityId(pub u32);

/// A country: a named collection of states laid out on a grid.
#[derive(Debug, Clone, Serialize)]
pub struct Country {
    /// Identifier.
    pub id: CountryId,
    /// Synthetic name, e.g. "Varnland".
    pub name: String,
    /// Whether this is the primary country (the USA stand-in).
    pub primary: bool,
    /// States belonging to this country.
    pub states: Vec<StateId>,
    /// Grid dimensions used to lay out states (needed for adjacency).
    pub grid_cols: u16,
}

/// A state/province: a named grid cell of a country containing cities.
#[derive(Debug, Clone, Serialize)]
pub struct State {
    /// Identifier.
    pub id: StateId,
    /// Owning country.
    pub country: CountryId,
    /// Synthetic name, e.g. "North Kelsia".
    pub name: String,
    /// Two-letter abbreviation used in postal addresses.
    pub abbrev: String,
    /// Position in the country's state grid `(row, col)`.
    pub grid_pos: (u16, u16),
    /// Centroid coordinate.
    pub center: LatLon,
    /// Cities in this state.
    pub cities: Vec<CityId>,
}

/// A city: a named point with a zip-code range.
#[derive(Debug, Clone, Serialize)]
pub struct City {
    /// Identifier.
    pub id: CityId,
    /// Owning state.
    pub state: StateId,
    /// Synthetic name, e.g. "Brackford".
    pub name: String,
    /// Location.
    pub location: LatLon,
    /// Inclusive zip-code range `[lo, hi]` assigned to this city.
    pub zip_range: (u32, u32),
    /// Relative population weight (for sampling residents).
    pub population_weight: f64,
}

/// Configuration for [`World::generate`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorldConfig {
    /// Number of countries (the first is primary). Must be ≥ 1.
    pub countries: u16,
    /// States per country (laid out on a near-square grid).
    pub states_per_country: u16,
    /// Cities per state.
    pub cities_per_state: u16,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            countries: 8,
            states_per_country: 12,
            cities_per_state: 6,
        }
    }
}

/// The fully generated synthetic world.
#[derive(Debug, Clone, Serialize)]
pub struct World {
    countries: Vec<Country>,
    states: Vec<State>,
    cities: Vec<City>,
    seed: u64,
}

const CITY_PREFIX: &[&str] = &[
    "Brack", "Hale", "Mor", "Thorn", "Wel", "Ash", "Crow", "Dun", "Els", "Fen", "Gren", "Holt",
    "Ives", "Kel", "Lun", "Marsh", "Nor", "Oak", "Pell", "Quar",
];
const CITY_SUFFIX: &[&str] = &[
    "ford", "ton", "ville", "burg", "haven", "field", "mouth", "wick", "stead", "port",
];
const STATE_FIRST: &[&str] = &[
    "Kelsia", "Varn", "Orsley", "Tarn", "Quill", "Meridia", "Sorrel", "Baxter", "Corvale",
    "Denholm", "Ferris", "Garland", "Hollis", "Ingram", "Jessup", "Lorane",
];
const STATE_PREFIX: &[&str] = &["North ", "South ", "East ", "West ", "New ", ""];
const COUNTRY_NAMES: &[&str] = &[
    "Amerigo",
    "Varnland",
    "Ostrea",
    "Caldonia",
    "Meridonia",
    "Tarvos",
    "Elandria",
    "Norvik",
    "Sundara",
    "Quorria",
    "Pellandria",
    "Vostia",
];

impl World {
    /// Generate a world deterministically from `seed`.
    ///
    /// # Panics
    /// Panics if `config.countries == 0` or any per-level count is zero.
    pub fn generate(config: &WorldConfig, seed: u64) -> Self {
        assert!(config.countries >= 1, "need at least one country");
        assert!(config.states_per_country >= 1, "need at least one state");
        assert!(config.cities_per_state >= 1, "need at least one city");

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6e0_6e0);
        let mut countries = Vec::new();
        let mut states = Vec::new();
        let mut cities = Vec::new();
        let mut next_zip = 10_000u32;

        let grid_cols = (config.states_per_country as f64).sqrt().ceil() as u16;

        for c in 0..config.countries {
            // Place each country centre on a coarse global grid so countries
            // are well separated (~30 degrees apart).
            let c_lat = -50.0 + 25.0 * f64::from(c % 5) + rng.random_range(-3.0..3.0);
            let c_lon = -160.0 + 40.0 * f64::from(c / 5 % 8) + rng.random_range(-5.0..5.0);
            let country_id = CountryId(c);
            let name = COUNTRY_NAMES[usize::from(c) % COUNTRY_NAMES.len()].to_string();
            let mut state_ids = Vec::new();

            for s in 0..config.states_per_country {
                let state_id = StateId(states.len() as u16);
                let (row, col) = (s / grid_cols, s % grid_cols);
                // States tile a ~10x10 degree country on a grid; each cell
                // is a few degrees across, so same-state points are within a
                // couple hundred km and different-state points are not.
                let s_lat = c_lat + 2.5 * f64::from(row) + rng.random_range(-0.3..0.3);
                let s_lon = c_lon + 2.5 * f64::from(col) + rng.random_range(-0.3..0.3);
                let center = LatLon::new(s_lat, s_lon);
                let first = STATE_FIRST[usize::from(state_id.0) % STATE_FIRST.len()];
                let prefix = STATE_PREFIX[usize::from(state_id.0 / 16) % STATE_PREFIX.len()];
                let sname = format!("{prefix}{first}");
                let abbrev = {
                    let letters: Vec<char> = sname.chars().filter(|c| c.is_alphabetic()).collect();
                    let a = letters.first().copied().unwrap_or('X');
                    let b = letters
                        .get(1 + usize::from(state_id.0) % 3)
                        .copied()
                        .unwrap_or('Y');
                    format!("{}{}", a.to_ascii_uppercase(), b.to_ascii_uppercase())
                };
                let mut city_ids = Vec::new();
                for k in 0..config.cities_per_state {
                    let city_id = CityId(cities.len() as u32);
                    let loc = LatLon::new(
                        center.lat + rng.random_range(-1.0..1.0),
                        center.lon + rng.random_range(-1.0..1.0),
                    );
                    let name = format!(
                        "{}{}",
                        CITY_PREFIX[rng.random_range(0..CITY_PREFIX.len())],
                        CITY_SUFFIX[rng.random_range(0..CITY_SUFFIX.len())]
                    );
                    let span = rng.random_range(3..12u32);
                    let zip_range = (next_zip, next_zip + span);
                    next_zip += span + 1;
                    // First city of a state is the "capital": biggest weight.
                    let population_weight = if k == 0 {
                        rng.random_range(5.0..10.0)
                    } else {
                        rng.random_range(0.5..3.0)
                    };
                    cities.push(City {
                        id: city_id,
                        state: state_id,
                        name,
                        location: loc,
                        zip_range,
                        population_weight,
                    });
                    city_ids.push(city_id);
                }
                states.push(State {
                    id: state_id,
                    country: country_id,
                    name: sname,
                    abbrev,
                    grid_pos: (row, col),
                    center,
                    cities: city_ids,
                });
                state_ids.push(state_id);
            }
            countries.push(Country {
                id: country_id,
                name,
                primary: c == 0,
                states: state_ids,
                grid_cols,
            });
        }
        Self {
            countries,
            states,
            cities,
            seed,
        }
    }

    /// The seed this world was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// All countries.
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// All states.
    pub fn states(&self) -> &[State] {
        &self.states
    }

    /// All cities.
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// Look up a country.
    pub fn country(&self, id: CountryId) -> &Country {
        &self.countries[usize::from(id.0)]
    }

    /// Look up a state.
    pub fn state(&self, id: StateId) -> &State {
        &self.states[usize::from(id.0)]
    }

    /// Look up a city.
    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.0 as usize]
    }

    /// The primary (USA stand-in) country.
    pub fn primary_country(&self) -> &Country {
        self.countries
            .iter()
            .find(|c| c.primary)
            .expect("generate() always marks one country primary")
    }

    /// Find the city owning `zip`, if any.
    pub fn city_by_zip(&self, zip: u32) -> Option<&City> {
        self.cities
            .iter()
            .find(|c| zip >= c.zip_range.0 && zip <= c.zip_range.1)
    }

    /// Geocode by `(city name, state abbreviation)`, case-insensitive —
    /// what an analyst does with an address that lacks a zip code. City
    /// names are not globally unique; the state disambiguates.
    pub fn city_by_name_in_state(&self, name: &str, state_abbrev: &str) -> Option<&City> {
        self.cities.iter().find(|c| {
            c.name.eq_ignore_ascii_case(name)
                && self
                    .state(c.state)
                    .abbrev
                    .eq_ignore_ascii_case(state_abbrev)
        })
    }

    /// Whether two states are adjacent: same country and neighbouring grid
    /// cells (4-neighbourhood).
    pub fn states_adjacent(&self, a: StateId, b: StateId) -> bool {
        let (sa, sb) = (self.state(a), self.state(b));
        if sa.country != sb.country || a == b {
            return false;
        }
        let (ra, ca) = sa.grid_pos;
        let (rb, cb) = sb.grid_pos;
        let dr = (i32::from(ra) - i32::from(rb)).abs();
        let dc = (i32::from(ca) - i32::from(cb)).abs();
        dr + dc == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig::default(), 42)
    }

    #[test]
    fn deterministic_generation() {
        let a = World::generate(&WorldConfig::default(), 7);
        let b = World::generate(&WorldConfig::default(), 7);
        assert_eq!(a.cities().len(), b.cities().len());
        assert_eq!(a.city(CityId(0)).name, b.city(CityId(0)).name);
        assert_eq!(a.state(StateId(3)).center, b.state(StateId(3)).center);
    }

    #[test]
    fn counts_match_config() {
        let cfg = WorldConfig {
            countries: 3,
            states_per_country: 4,
            cities_per_state: 5,
        };
        let w = World::generate(&cfg, 1);
        assert_eq!(w.countries().len(), 3);
        assert_eq!(w.states().len(), 12);
        assert_eq!(w.cities().len(), 60);
    }

    #[test]
    fn exactly_one_primary_country() {
        let w = world();
        assert_eq!(w.countries().iter().filter(|c| c.primary).count(), 1);
        assert_eq!(w.primary_country().id, CountryId(0));
    }

    #[test]
    fn zip_ranges_disjoint_and_resolvable() {
        let w = world();
        let mut ranges: Vec<(u32, u32)> = w.cities().iter().map(|c| c.zip_range).collect();
        ranges.sort_unstable();
        for pair in ranges.windows(2) {
            assert!(pair[0].1 < pair[1].0, "zip ranges overlap: {pair:?}");
        }
        let c = w.city(CityId(5));
        assert_eq!(w.city_by_zip(c.zip_range.0).unwrap().id, c.id);
        assert_eq!(w.city_by_zip(c.zip_range.1).unwrap().id, c.id);
    }

    #[test]
    fn unknown_zip_is_none() {
        let w = world();
        assert!(w.city_by_zip(1).is_none());
    }

    #[test]
    fn cities_belong_to_their_state() {
        let w = world();
        for st in w.states() {
            for &cid in &st.cities {
                assert_eq!(w.city(cid).state, st.id);
            }
        }
    }

    #[test]
    fn adjacency_is_grid_neighbourhood() {
        let w = world();
        let country = &w.countries()[0];
        // Find two states in the same grid row, adjacent columns.
        let s0 = country.states[0];
        let s1 = country.states[1];
        assert!(w.states_adjacent(s0, s1));
        assert!(w.states_adjacent(s1, s0));
        assert!(!w.states_adjacent(s0, s0));
    }

    #[test]
    fn adjacency_never_crosses_countries() {
        let w = world();
        let a = w.countries()[0].states[0];
        let b = w.countries()[1].states[0];
        assert!(!w.states_adjacent(a, b));
    }

    #[test]
    fn same_state_cities_closer_than_cross_country() {
        let w = world();
        let st = &w.states()[0];
        let c0 = w.city(st.cities[0]);
        let c1 = w.city(st.cities[1]);
        let within = c0.location.distance_km(&c1.location);
        let other_country_city = w.city(w.state(w.countries()[1].states[0]).cities[0]);
        let across = c0.location.distance_km(&other_country_city.location);
        assert!(within < across, "within={within} across={across}");
    }

    #[test]
    #[should_panic(expected = "at least one country")]
    fn zero_countries_panics() {
        World::generate(
            &WorldConfig {
                countries: 0,
                ..WorldConfig::default()
            },
            0,
        );
    }
}
