//! The §4.1 "validation by IP address" comparison.
//!
//! The paper samples doxes containing both an IP and a postal address,
//! geolocates the IP and classifies the pair:
//!
//! - **exact** — geolocation and postal address coincide (rare: 4 of the 32
//!   close matches);
//! - **close** — same state/province/region;
//! - **adjacent** — the IP resolves to a neighbouring state ("ambiguous" in
//!   the paper: 1 of 36);
//! - **far** — a distant state or another country (3 of 36).

use crate::geoip::GeoIpDb;
use crate::model::World;
use crate::postal::PostalAddress;
use serde::Serialize;
use std::net::Ipv4Addr;

/// Outcome classes of the IP/postal consistency check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ConsistencyClass {
    /// The IP geolocates to the *same city* as the postal address — the
    /// paper's "the two match exactly" case (4 of 32 close matches).
    ExactMatch,
    /// Same state, different city ("the postal address included … detail
    /// that was not available from geolocation, or the two addresses were
    /// in different, but near-by cities").
    Close,
    /// Adjacent state in the same country.
    Adjacent,
    /// Anything farther, including unresolvable IPs.
    Far,
}

/// Classify an (IP, postal address) pair per §4.1.
///
/// An IP outside the geolocation database classifies as [`ConsistencyClass::Far`]
/// — an analyst faced with an unresolvable IP cannot corroborate the
/// address, which is the same conclusion.
pub fn classify_pair(
    world: &World,
    db: &GeoIpDb,
    ip: Ipv4Addr,
    address: &PostalAddress,
) -> ConsistencyClass {
    let Some(rec) = db.lookup(ip) else {
        return ConsistencyClass::Far;
    };
    let addr_state = address.state(world);
    if rec.state == addr_state {
        if rec.city == address.city {
            ConsistencyClass::ExactMatch
        } else {
            ConsistencyClass::Close
        }
    } else if world.states_adjacent(rec.state, addr_state) {
        ConsistencyClass::Adjacent
    } else {
        ConsistencyClass::Far
    }
}

/// Aggregate counts over a batch of classified pairs, in the shape the
/// paper reports (36 doxes: 32 close-or-exact, 1 adjacent, 3 far; of the
/// close ones, 4 exact).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ConsistencySummary {
    /// Exact coordinate matches.
    pub exact: usize,
    /// Same-state matches (excluding exact).
    pub close: usize,
    /// Adjacent-state cases.
    pub adjacent: usize,
    /// Far mismatches.
    pub far: usize,
}

impl ConsistencySummary {
    /// Tally a batch of classifications.
    pub fn from_classes(classes: &[ConsistencyClass]) -> Self {
        let mut s = Self::default();
        for c in classes {
            match c {
                ConsistencyClass::ExactMatch => s.exact += 1,
                ConsistencyClass::Close => s.close += 1,
                ConsistencyClass::Adjacent => s.adjacent += 1,
                ConsistencyClass::Far => s.far += 1,
            }
        }
        s
    }

    /// Total classified pairs.
    pub fn total(&self) -> usize {
        self.exact + self.close + self.adjacent + self.far
    }

    /// "Close match" in the paper's sense: same state, including exact.
    pub fn close_or_exact(&self) -> usize {
        self.exact + self.close
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{AllocConfig, Allocation};
    use crate::model::WorldConfig;

    struct Fixture {
        world: World,
        alloc: Allocation,
        db: GeoIpDb,
    }

    fn fixture() -> Fixture {
        let world = World::generate(
            &WorldConfig {
                countries: 2,
                states_per_country: 6,
                cities_per_state: 3,
            },
            21,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 21);
        let db = GeoIpDb::build(&world, &alloc);
        Fixture { world, alloc, db }
    }

    fn address_in_state(f: &Fixture, state_idx: usize) -> PostalAddress {
        let st = &f.world.states()[state_idx];
        let city = f.world.city(st.cities[0]);
        PostalAddress {
            number: 7,
            street: "Test Way".into(),
            city: city.id,
            zip: city.zip_range.0,
        }
    }

    fn ip_in_state(f: &Fixture, state_idx: usize) -> Ipv4Addr {
        let st = f.world.states()[state_idx].id;
        let isp = f.alloc.isps_in_state(st)[0];
        isp.blocks[0].nth(10).unwrap()
    }

    #[test]
    fn same_state_is_close_or_exact() {
        let f = fixture();
        let c = classify_pair(
            &f.world,
            &f.db,
            ip_in_state(&f, 0),
            &address_in_state(&f, 0),
        );
        assert!(
            matches!(c, ConsistencyClass::Close | ConsistencyClass::ExactMatch),
            "{c:?}"
        );
    }

    #[test]
    fn adjacent_state_is_adjacent() {
        let f = fixture();
        // states 0 and 1 are neighbouring grid columns in the same country
        let s0 = f.world.states()[0].id;
        let s1 = f.world.states()[1].id;
        assert!(f.world.states_adjacent(s0, s1));
        let c = classify_pair(
            &f.world,
            &f.db,
            ip_in_state(&f, 1),
            &address_in_state(&f, 0),
        );
        assert_eq!(c, ConsistencyClass::Adjacent);
    }

    #[test]
    fn other_country_is_far() {
        let f = fixture();
        // state 6 is in the second country (6 states per country)
        let c = classify_pair(
            &f.world,
            &f.db,
            ip_in_state(&f, 6),
            &address_in_state(&f, 0),
        );
        assert_eq!(c, ConsistencyClass::Far);
    }

    #[test]
    fn unresolvable_ip_is_far() {
        let f = fixture();
        let c = classify_pair(
            &f.world,
            &f.db,
            Ipv4Addr::new(0, 0, 0, 1),
            &address_in_state(&f, 0),
        );
        assert_eq!(c, ConsistencyClass::Far);
    }

    #[test]
    fn summary_tallies() {
        use ConsistencyClass::*;
        let s =
            ConsistencySummary::from_classes(&[ExactMatch, Close, Close, Adjacent, Far, Far, Far]);
        assert_eq!(s.exact, 1);
        assert_eq!(s.close, 2);
        assert_eq!(s.adjacent, 1);
        assert_eq!(s.far, 3);
        assert_eq!(s.total(), 7);
        assert_eq!(s.close_or_exact(), 3);
    }

    #[test]
    fn empty_summary() {
        let s = ConsistencySummary::from_classes(&[]);
        assert_eq!(s.total(), 0);
    }
}
