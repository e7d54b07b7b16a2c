//! Longest-prefix-match IP geolocation over an [`Allocation`].
//!
//! Mirrors the interface of a commercial geo-IP database: look up an IPv4
//! address, get back the owning ASN, ISP name, state and a representative
//! coordinate. Internally a sorted interval table with binary search —
//! `O(log n)` per query, which the benchmark suite measures.

use crate::alloc::{Allocation, Asn};
use crate::coords::LatLon;
use crate::model::{CityId, StateId, World};
use serde::Serialize;
use std::net::Ipv4Addr;

/// The result of a successful geolocation query.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GeoIpRecord {
    /// Owning autonomous system.
    pub asn: Asn,
    /// ISP name.
    pub isp: String,
    /// The state the address resolves into.
    pub state: StateId,
    /// The city-level resolution of the lookup (the ISP's home city —
    /// real geo-IP data is city-granular, not subscriber-granular).
    pub city: CityId,
    /// Representative coordinate (the resolved city's location).
    pub location: LatLon,
}

#[derive(Debug, Clone, Serialize)]
struct Entry {
    start: u32,
    /// Inclusive end of the block.
    end: u32,
    asn: Asn,
    state: StateId,
    city: CityId,
}

/// A queryable geolocation database built from an [`Allocation`].
///
/// ```
/// use dox_geo::alloc::{AllocConfig, Allocation};
/// use dox_geo::geoip::GeoIpDb;
/// use dox_geo::model::{World, WorldConfig};
///
/// let world = World::generate(&WorldConfig::default(), 1);
/// let alloc = Allocation::generate(&world, &AllocConfig::default(), 1);
/// let db = GeoIpDb::build(&world, &alloc);
/// let isp = &alloc.isps()[0];
/// let record = db.lookup(isp.blocks[0].nth(5).unwrap()).unwrap();
/// assert_eq!(record.asn, isp.asn);
/// assert_eq!(record.state, isp.home_state);
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct GeoIpDb {
    entries: Vec<Entry>,
    isp_names: Vec<(Asn, String)>,
    city_locations: Vec<LatLon>,
}

impl GeoIpDb {
    /// Index `alloc` for querying. Blocks are assumed disjoint (guaranteed
    /// by [`Allocation::generate`]).
    pub fn build(world: &World, alloc: &Allocation) -> Self {
        let mut entries = Vec::with_capacity(alloc.n_blocks());
        let mut isp_names = Vec::with_capacity(alloc.isps().len());
        for isp in alloc.isps() {
            isp_names.push((isp.asn, isp.name.clone()));
            for block in &isp.blocks {
                let start = block.start_u32();
                let end = start + (block.size() - 1);
                entries.push(Entry {
                    start,
                    end,
                    asn: isp.asn,
                    state: isp.home_state,
                    city: isp.home_city,
                });
            }
        }
        entries.sort_unstable_by_key(|e| e.start);
        isp_names.sort_unstable_by_key(|(asn, _)| *asn);
        let city_locations = world.cities().iter().map(|c| c.location).collect();
        Self {
            entries,
            isp_names,
            city_locations,
        }
    }

    /// Number of indexed blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the database indexes no blocks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Geolocate `addr`. Returns `None` for unallocated space.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<GeoIpRecord> {
        let ip = u32::from(addr);
        let idx = match self.entries.binary_search_by_key(&ip, |e| e.start) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let entry = &self.entries[idx];
        if ip > entry.end {
            return None;
        }
        let isp = self
            .isp_names
            .binary_search_by_key(&entry.asn, |(a, _)| *a)
            .ok()
            .map(|i| self.isp_names[i].1.clone())
            .unwrap_or_default();
        Some(GeoIpRecord {
            asn: entry.asn,
            isp,
            state: entry.state,
            city: entry.city,
            location: self.city_locations[entry.city.0 as usize],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AllocConfig;
    use crate::model::WorldConfig;

    fn setup() -> (World, Allocation, GeoIpDb) {
        let world = World::generate(
            &WorldConfig {
                countries: 2,
                states_per_country: 4,
                cities_per_state: 2,
            },
            3,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 3);
        let db = GeoIpDb::build(&world, &alloc);
        (world, alloc, db)
    }

    #[test]
    fn every_allocated_address_resolves_to_owner() {
        let (_, alloc, db) = setup();
        for isp in alloc.isps() {
            for block in &isp.blocks {
                for probe in [0, block.size() / 2, block.size() - 1] {
                    let addr = block.nth(probe).unwrap();
                    let rec = db.lookup(addr).unwrap_or_else(|| panic!("miss at {addr}"));
                    assert_eq!(rec.asn, isp.asn);
                    assert_eq!(rec.state, isp.home_state);
                    assert_eq!(rec.isp, isp.name);
                }
            }
        }
    }

    #[test]
    fn unallocated_space_misses() {
        let (_, _, db) = setup();
        assert!(db.lookup(Ipv4Addr::new(0, 0, 0, 1)).is_none());
        assert!(db.lookup(Ipv4Addr::new(255, 255, 255, 255)).is_none());
    }

    #[test]
    fn boundary_just_past_block_misses_or_next_block() {
        let (_, alloc, db) = setup();
        // Address immediately before the very first block must miss.
        let first = alloc
            .isps()
            .iter()
            .flat_map(|i| &i.blocks)
            .map(|b| b.start_u32())
            .min()
            .unwrap();
        let before = Ipv4Addr::from(first - 1);
        assert!(db.lookup(before).is_none());
    }

    #[test]
    fn location_is_isp_home_city() {
        let (world, alloc, db) = setup();
        let isp = &alloc.isps()[0];
        let rec = db.lookup(isp.blocks[0].nth(1).unwrap()).unwrap();
        assert_eq!(rec.city, isp.home_city);
        assert_eq!(rec.location, world.city(isp.home_city).location);
        assert_eq!(world.city(rec.city).state, isp.home_state);
    }

    #[test]
    fn db_size_matches_allocation() {
        let (_, alloc, db) = setup();
        assert_eq!(db.len(), alloc.n_blocks());
        assert!(!db.is_empty());
    }
}
