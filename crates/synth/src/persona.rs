//! Victim personas.
//!
//! A [`Persona`] is a fully realized synthetic person: demographics drawn
//! from Table 5's distributions, a home address in the synthetic world, an
//! IP address whose geolocation is *mostly* consistent with the address
//! (calibrated to §4.1's 32/36 close, 1/36 adjacent, 3/36 far), and a set
//! of online accounts. Dox files render a subset of these attributes; the
//! measurement pipeline then re-derives the distributions.

use crate::config::{DemographicRates, SynthConfig};
use crate::handles;
use crate::names;
use crate::text::push_decimal;
use crate::truth::{Community, Gender};
use dox_geo::alloc::Allocation;
use dox_geo::model::{CityId, World};
use dox_geo::postal::PostalAddress;
use dox_osn::network::Network;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::net::Ipv4Addr;

/// A family member mention.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct FamilyMember {
    /// Relation ("mother", "brother", …).
    pub relation: String,
    /// Their (synthetic) name.
    pub name: String,
}

/// A fully realized synthetic victim.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Persona {
    /// Stable id.
    pub id: u64,
    /// Given name.
    pub first_name: String,
    /// Surname.
    pub last_name: String,
    /// Age in years (Table 5: min 10, mean ≈ 21.7, max 74).
    pub age: u8,
    /// Gender (Table 5 shares).
    pub gender: Gender,
    /// Synthetic date of birth, consistent with `age`; `(year, month, day)`
    /// with year relative to the study year 2016.
    pub dob: (u16, u8, u8),
    /// Home address in the synthetic world.
    pub address: PostalAddress,
    /// Whether the persona lives in the primary (USA stand-in) country.
    pub primary_country: bool,
    /// Phone number (reserved 555-01xx style exchange).
    pub phone: String,
    /// Email address (reserved `.example` domain).
    pub email: String,
    /// Last-seen IP address.
    pub ip: Ipv4Addr,
    /// Name of the ISP owning that IP.
    pub isp_name: String,
    /// A password (synthetic) that "leaked".
    pub password: String,
    /// SSN-shaped identifier (random digits, 900+ area = invalid range).
    pub ssn: String,
    /// Credit-card-shaped number (prefix 9999 — not a valid IIN).
    pub credit_card: String,
    /// School attended.
    pub school: String,
    /// Physical description.
    pub physical: String,
    /// Criminal-record blurb.
    pub criminal: String,
    /// Other financial detail.
    pub financial: String,
    /// Family members.
    pub family: Vec<FamilyMember>,
    /// Miscellaneous usernames (non-OSN).
    pub usernames: Vec<String>,
    /// OSN accounts: `(network, handle)`. Which of these a given dox
    /// reveals is decided at render time.
    pub accounts: Vec<(Network, String)>,
    /// Community-site accounts: `(site, handle)` — drives Table 7 labels.
    pub community_accounts: Vec<(String, String)>,
    /// Ground-truth community, if any.
    pub community: Option<Community>,
}

impl Persona {
    /// Full display name.
    pub fn full_name(&self) -> String {
        [self.first_name.as_str(), &self.last_name].join(" ")
    }

    /// The handle this persona uses on `network`, if they have an account.
    pub fn handle_on(&self, network: Network) -> Option<&str> {
        self.accounts
            .iter()
            .find(|(n, _)| *n == network)
            .map(|(_, h)| h.as_str())
    }
}

/// Outcomes of the IP-vs-address consistency lottery (§4.1 calibration).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IpPlacement {
    /// ISP homed in the persona's state (32/36).
    SameState,
    /// ISP in an adjacent state (1/36).
    AdjacentState,
    /// ISP anywhere else (3/36).
    Far,
}

/// Generates personas against a geographic world and IP allocation.
#[derive(Debug)]
pub struct PersonaGenerator<'w> {
    world: &'w World,
    alloc: &'w Allocation,
    demo: DemographicRates,
    next_id: u64,
}

impl<'w> PersonaGenerator<'w> {
    /// Create a generator.
    pub fn new(world: &'w World, alloc: &'w Allocation, config: &SynthConfig) -> Self {
        Self {
            world,
            alloc,
            demo: config.demographics,
            next_id: 0,
        }
    }

    /// Number of personas generated so far.
    pub fn generated(&self) -> u64 {
        self.next_id
    }

    /// Generate the next persona.
    pub fn generate(&mut self, rng: &mut ChaCha8Rng) -> Persona {
        let id = self.next_id;
        self.next_id += 1;

        let gender = self.sample_gender(rng);
        let feminine = gender == Gender::Female;
        let first_name = names::first_name(rng, feminine);
        let last_name = names::last_name(rng);
        let age = self.sample_age(rng);
        let dob = sample_dob(age, rng);

        let primary_country = rng.random_range(0.0..1.0) < self.demo.primary_country;
        let city = self.sample_city(primary_country, rng);
        let city_info = self.world.city(city);
        let zip = rng.random_range(city_info.zip_range.0..=city_info.zip_range.1);
        let address = PostalAddress {
            number: rng.random_range(1..9999),
            street: names::street_name(rng),
            city,
            zip,
        };

        let (ip, isp_name) = self.sample_ip(city, rng);

        let base = handles::base_handle(&first_name, &last_name, rng);
        let base = handles::decorate(&base, rng);
        let domain = names::email_domain(rng);
        let mut email = String::with_capacity(base.len() + 1 + domain.len());
        email.extend(
            base.chars()
                .map(|c| if matches!(c, '-' | '.') { '_' } else { c }),
        );
        email.push('@');
        email.push_str(domain);
        let mut phone = String::with_capacity("(NNN) 555-01NN".len());
        phone.push('(');
        push_decimal(&mut phone, rng.random_range(200..989u32), 3);
        phone.push_str(") 555-01");
        push_decimal(&mut phone, rng.random_range(0..100u32), 2);

        // Every persona owns every network account with some probability;
        // dox files later reveal a subset. Ownership is generous so the
        // render-time Table 9 / Table 2 rates are the binding constraint.
        let mut accounts = Vec::new();
        for network in Network::ALL {
            if rng.random_range(0.0..1.0) < 0.9 {
                let h = handles::network_handle(&base, network, id, rng);
                accounts.push((network, h));
            }
        }

        let (community, community_accounts) = sample_community(&base, rng);

        let n_family = rng.random_range(1..4usize);
        let family = (0..n_family)
            .map(|_| {
                let rel = names::RELATIONS[rng.random_range(0..names::RELATIONS.len())];
                let fem = matches!(rel, "mother" | "sister" | "aunt" | "grandmother");
                FamilyMember {
                    relation: rel.to_string(),
                    name: [names::first_name(rng, fem).as_str(), &last_name].join(" "),
                }
            })
            .collect();

        let n_usernames = rng.random_range(1..4usize);
        let usernames = (0..n_usernames)
            .map(|_| handles::decorate(&base, rng))
            .collect();

        Persona {
            id,
            first_name,
            last_name,
            age,
            gender,
            dob,
            address,
            primary_country,
            phone,
            email,
            ip,
            isp_name,
            password: digits_after("hunter", rng.random_range(10..9999u32)),
            ssn: sample_ssn(rng),
            credit_card: sample_credit_card(rng),
            school: names::school_name(rng),
            physical: sample_physical(rng),
            criminal: ["shoplifting 2014", "vandalism 2013", "none found"][rng.random_range(0..3)]
                .to_string(),
            financial: {
                let mut financial = digits_after("owes $", rng.random_range(500..20000u32));
                financial.push_str(" on a car loan");
                financial
            },
            family,
            usernames,
            accounts,
            community_accounts,
            community,
        }
    }

    fn sample_gender(&self, rng: &mut ChaCha8Rng) -> Gender {
        let u: f64 = rng.random_range(0.0..1.0);
        if u < self.demo.male {
            Gender::Male
        } else if u < self.demo.male + self.demo.female {
            Gender::Female
        } else {
            Gender::Other
        }
    }

    fn sample_age(&self, rng: &mut ChaCha8Rng) -> u8 {
        let g = sample_gamma(self.demo.age_shape, self.demo.age_scale, rng);
        let age = self.demo.age_min as f64 + g;
        age.clamp(self.demo.age_min as f64, self.demo.age_max as f64)
            .round() as u8
    }

    fn sample_city(&self, primary: bool, rng: &mut ChaCha8Rng) -> CityId {
        let country = if primary {
            self.world.primary_country()
        } else {
            let others: Vec<_> = self
                .world
                .countries()
                .iter()
                .filter(|c| !c.primary)
                .collect();
            others[rng.random_range(0..others.len())]
        };
        let state = country.states[rng.random_range(0..country.states.len())];
        let cities = &self.world.state(state).cities;
        // Population-weighted choice.
        let weights: Vec<f64> = cities
            .iter()
            .map(|&c| self.world.city(c).population_weight)
            .collect();
        let total: f64 = weights.iter().sum();
        let mut pick = rng.random_range(0.0..total);
        for (i, w) in weights.iter().enumerate() {
            if pick < *w {
                return cities[i];
            }
            pick -= w;
        }
        *cities.last().expect("states have at least one city")
    }

    fn sample_ip(&self, home_city: CityId, rng: &mut ChaCha8Rng) -> (Ipv4Addr, String) {
        let placement = {
            let u: f64 = rng.random_range(0.0..1.0);
            // §4.1: 32/36 same-state, 1/36 adjacent, 3/36 far.
            if u < 32.0 / 36.0 {
                IpPlacement::SameState
            } else if u < 33.0 / 36.0 {
                IpPlacement::AdjacentState
            } else {
                IpPlacement::Far
            }
        };
        let home_state = self.world.city(home_city).state;
        let state = match placement {
            IpPlacement::SameState => home_state,
            IpPlacement::AdjacentState => {
                let adj: Vec<_> = self
                    .world
                    .states()
                    .iter()
                    .filter(|s| self.world.states_adjacent(s.id, home_state))
                    .map(|s| s.id)
                    .collect();
                if adj.is_empty() {
                    home_state
                } else {
                    adj[rng.random_range(0..adj.len())]
                }
            }
            IpPlacement::Far => {
                let far: Vec<_> = self
                    .world
                    .states()
                    .iter()
                    .filter(|s| s.id != home_state && !self.world.states_adjacent(s.id, home_state))
                    .map(|s| s.id)
                    .collect();
                far[rng.random_range(0..far.len())]
            }
        };
        let isps = self.alloc.isps_in_state(state);
        let isp = isps[rng.random_range(0..isps.len())];
        let block = &isp.blocks[rng.random_range(0..isp.blocks.len())];
        // Skip the network address itself.
        let offset = rng.random_range(1..block.size());
        let ip = block.nth(offset).expect("offset within block");
        (ip, isp.name.clone())
    }
}

/// Sample from Gamma(shape, scale) via Marsaglia–Tsang (shape ≥ 1).
fn sample_gamma(shape: f64, scale: f64, rng: &mut ChaCha8Rng) -> f64 {
    assert!(shape >= 1.0, "Marsaglia-Tsang needs shape >= 1");
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Box–Muller standard normal.
        let u1: f64 = rng.random_range(f64::EPSILON..1.0);
        let u2: f64 = rng.random_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.random_range(f64::EPSILON..1.0);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v * scale;
        }
    }
}

/// `prefix` then `n` in decimal.
fn digits_after(prefix: &str, n: u32) -> String {
    let mut out = String::with_capacity(prefix.len() + 10);
    out.push_str(prefix);
    push_decimal(&mut out, n, 1);
    out
}

/// An SSN-shaped `9NN-NN-NNNN` (the 900 area is never issued).
fn sample_ssn(rng: &mut ChaCha8Rng) -> String {
    let mut ssn = String::with_capacity("9NN-NN-NNNN".len());
    ssn.push('9');
    push_decimal(&mut ssn, rng.random_range(0..100u32), 2);
    ssn.push('-');
    push_decimal(&mut ssn, rng.random_range(10..99u32), 2);
    ssn.push('-');
    push_decimal(&mut ssn, rng.random_range(0..10000u32), 4);
    ssn
}

/// A card-shaped `9999 NNNN NNNN NNNN` (no issuer uses the 9999 prefix).
fn sample_credit_card(rng: &mut ChaCha8Rng) -> String {
    let mut card = String::with_capacity("9999 NNNN NNNN NNNN".len());
    card.push_str("9999");
    for _ in 0..3 {
        card.push(' ');
        push_decimal(&mut card, rng.random_range(0..10000u32), 4);
    }
    card
}

/// Height and hair colour: `5'11" brown hair`.
fn sample_physical(rng: &mut ChaCha8Rng) -> String {
    let mut physical = String::with_capacity("N'NN\" blond hair".len());
    push_decimal(&mut physical, rng.random_range(5..7u32), 1);
    physical.push('\'');
    push_decimal(&mut physical, rng.random_range(0..12u32), 1);
    physical.push_str("\" ");
    physical.push_str(["brown", "black", "blond", "red"][rng.random_range(0..4)]);
    physical.push_str(" hair");
    physical
}

fn sample_dob(age: u8, rng: &mut ChaCha8Rng) -> (u16, u8, u8) {
    // Study year 2016.
    let year = 2016 - u16::from(age);
    (year, rng.random_range(1..13u8), rng.random_range(1..29u8))
}

fn sample_community(
    base: &str,
    rng: &mut ChaCha8Rng,
) -> (Option<Community>, Vec<(String, String)>) {
    // Community membership is decided at render time by the dox config
    // rates; the persona carries the *accounts* for every community type it
    // belongs to. Here we roll an independent membership to keep personas
    // reusable: ~14% gamers, ~5% hackers, ~1.3% celebrities (slightly above
    // Table 7 so render-time label rates bind).
    let u: f64 = rng.random_range(0.0..1.0);
    if u < 0.014 {
        (Some(Community::Celebrity), Vec::new())
    } else if u < 0.014 + 0.055 {
        let n = rng.random_range(2..4usize);
        let accounts = (0..n)
            .map(|i| {
                (
                    names::HACKING_SITES[i % names::HACKING_SITES.len()].to_string(),
                    community_handle(base, i),
                )
            })
            .collect();
        (Some(Community::Hacker), accounts)
    } else if u < 0.014 + 0.055 + 0.14 {
        let n = rng.random_range(2..4usize);
        let accounts = (0..n)
            .map(|i| {
                (
                    names::GAMING_SITES[i % names::GAMING_SITES.len()].to_string(),
                    community_handle(base, i),
                )
            })
            .collect();
        (Some(Community::Gamer), accounts)
    } else {
        (None, Vec::new())
    }
}

/// `base_i`, the handle a persona uses on its `i`-th community site.
fn community_handle(base: &str, i: usize) -> String {
    let mut handle = String::with_capacity(base.len() + 2);
    handle.push_str(base);
    handle.push('_');
    push_decimal(&mut handle, i as u64, 1);
    handle
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::AllocConfig;
    use dox_geo::model::WorldConfig;
    use rand_chacha::rand_core::SeedableRng;

    struct Fixture {
        world: World,
        alloc: Allocation,
    }

    fn fixture() -> Fixture {
        let world = World::generate(
            &WorldConfig {
                countries: 4,
                states_per_country: 6,
                cities_per_state: 8,
            },
            77,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 77);
        Fixture { world, alloc }
    }

    fn make_personas(n: usize) -> Vec<Persona> {
        let f = fixture();
        let cfg = SynthConfig::test_scale();
        let mut g = PersonaGenerator::new(&f.world, &f.alloc, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        (0..n).map(|_| g.generate(&mut rng)).collect()
    }

    #[test]
    fn ids_sequential_and_unique() {
        let ps = make_personas(10);
        for (i, p) in ps.iter().enumerate() {
            assert_eq!(p.id, i as u64);
        }
    }

    #[test]
    fn age_distribution_matches_table5() {
        let ps = make_personas(5000);
        let ages: Vec<f64> = ps.iter().map(|p| p.age as f64).collect();
        let mean = ages.iter().sum::<f64>() / ages.len() as f64;
        let min = ages.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ages.iter().cloned().fold(0.0, f64::max);
        assert!((mean - 21.7).abs() < 1.0, "mean age {mean}");
        assert!(min >= 10.0);
        assert!(max <= 74.0);
    }

    #[test]
    fn gender_distribution_matches_table5() {
        let ps = make_personas(5000);
        let male = ps.iter().filter(|p| p.gender == Gender::Male).count() as f64 / 5000.0;
        let female = ps.iter().filter(|p| p.gender == Gender::Female).count() as f64 / 5000.0;
        assert!((male - 0.831).abs() < 0.02, "male {male}");
        assert!((female - 0.165).abs() < 0.02, "female {female}");
    }

    #[test]
    fn primary_country_share_matches_table5() {
        let ps = make_personas(5000);
        let primary = ps.iter().filter(|p| p.primary_country).count() as f64 / 5000.0;
        assert!((primary - 0.645).abs() < 0.02, "primary {primary}");
    }

    #[test]
    fn dob_consistent_with_age() {
        for p in make_personas(100) {
            assert_eq!(u16::from(p.age), 2016 - p.dob.0);
            assert!((1..=12).contains(&p.dob.1));
            assert!((1..=28).contains(&p.dob.2));
        }
    }

    #[test]
    fn ip_mostly_consistent_with_address() {
        let f = fixture();
        let cfg = SynthConfig::test_scale();
        let mut g = PersonaGenerator::new(&f.world, &f.alloc, &cfg);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let db = dox_geo::geoip::GeoIpDb::build(&f.world, &f.alloc);
        let n = 3000;
        let mut same = 0usize;
        let mut adjacent = 0usize;
        for _ in 0..n {
            let p = g.generate(&mut rng);
            let rec = db.lookup(p.ip).expect("persona IPs are allocated");
            let home = p.address.state(&f.world);
            if rec.state == home {
                same += 1;
            } else if f.world.states_adjacent(rec.state, home) {
                adjacent += 1;
            }
        }
        let fs = same as f64 / n as f64;
        let fa = adjacent as f64 / n as f64;
        assert!((fs - 32.0 / 36.0).abs() < 0.03, "same-state {fs}");
        assert!((fa - 1.0 / 36.0).abs() < 0.02, "adjacent {fa}");
    }

    #[test]
    fn phone_uses_reserved_exchange() {
        for p in make_personas(50) {
            assert!(p.phone.contains("555-01"), "{}", p.phone);
        }
    }

    #[test]
    fn email_uses_reserved_tld() {
        for p in make_personas(50) {
            assert!(p.email.ends_with(".example"), "{}", p.email);
            assert_eq!(p.email.matches('@').count(), 1);
        }
    }

    #[test]
    fn ssn_and_cc_use_invalid_ranges() {
        for p in make_personas(50) {
            assert!(p.ssn.starts_with('9'), "SSN area 900+ is never issued");
            assert!(p.credit_card.starts_with("9999"), "IIN 9999 is unassigned");
        }
    }

    #[test]
    fn community_members_have_enough_accounts() {
        let ps = make_personas(3000);
        for p in &ps {
            match p.community {
                Some(Community::Gamer) | Some(Community::Hacker) => {
                    assert!(p.community_accounts.len() >= 2);
                }
                _ => {}
            }
        }
        let gamers = ps
            .iter()
            .filter(|p| p.community == Some(Community::Gamer))
            .count() as f64
            / ps.len() as f64;
        assert!((gamers - 0.14).abs() < 0.03, "gamers {gamers}");
    }

    #[test]
    fn most_personas_have_most_accounts() {
        let ps = make_personas(500);
        let avg = ps.iter().map(|p| p.accounts.len()).sum::<usize>() as f64 / 500.0;
        assert!(avg > 5.0, "avg accounts {avg}");
    }

    #[test]
    fn deterministic_generation() {
        let a = make_personas(5);
        let b = make_personas(5);
        assert_eq!(a, b);
    }
}
