//! ASN and CIDR allocation over the synthetic world.
//!
//! Each autonomous system (a synthetic ISP) is homed in one state and owns a
//! handful of CIDR blocks. The resulting allocation table is what the
//! [`crate::geoip::GeoIpDb`] indexes, and what `dox-synth` samples from when
//! a persona needs a plausible IP address "located" near their home.

use crate::ip::Cidr;
use crate::model::{CityId, StateId, World};
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::net::Ipv4Addr;

/// Identifier of an autonomous system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub struct Asn(pub u32);

/// A synthetic ISP: an ASN, a name, a home state and its address blocks.
#[derive(Debug, Clone, Serialize)]
pub struct Isp {
    /// The autonomous system number.
    pub asn: Asn,
    /// Synthetic ISP name, e.g. "Norvik Telecom".
    pub name: String,
    /// The state the ISP serves (geolocation resolves into this state).
    pub home_state: StateId,
    /// The city the ISP's infrastructure geolocates to. Real geo-IP data is
    /// city-granular; a subscriber in another city of the same state
    /// geolocates "close but not exact" (§4.1).
    pub home_city: CityId,
    /// CIDR blocks owned by this ISP.
    pub blocks: Vec<Cidr>,
}

/// Configuration for [`Allocation::generate`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AllocConfig {
    /// ISPs per state.
    pub isps_per_state: u16,
    /// CIDR blocks per ISP.
    pub blocks_per_isp: u16,
    /// Prefix length of each allocated block (e.g. 18 → 16k addresses).
    pub block_prefix_len: u8,
}

impl Default for AllocConfig {
    fn default() -> Self {
        Self {
            isps_per_state: 2,
            blocks_per_isp: 2,
            block_prefix_len: 18,
        }
    }
}

/// The complete address-space allocation of the synthetic internet.
#[derive(Debug, Clone, Serialize)]
pub struct Allocation {
    isps: Vec<Isp>,
}

const ISP_FIRST: &[&str] = &[
    "Norvik", "Apex", "Cirrus", "Quanta", "Vantage", "Meridian", "Halcyon", "Summit", "Beacon",
    "Cobalt", "Drift", "Ember",
];
const ISP_SECOND: &[&str] = &[
    "Telecom",
    "Broadband",
    "Fiber",
    "Networks",
    "Online",
    "Cable",
    "Wireless",
    "Net",
];

impl Allocation {
    /// Allocate ISPs and address blocks for every state of `world`,
    /// deterministically from `seed`.
    ///
    /// Blocks are carved sequentially from `1.0.0.0` upward, so they are
    /// disjoint by construction.
    ///
    /// # Panics
    /// Panics if the configuration would exhaust the 32-bit address space
    /// or uses a prefix length outside `8..=30`.
    pub fn generate(world: &World, config: &AllocConfig, seed: u64) -> Self {
        assert!(
            (8..=30).contains(&config.block_prefix_len),
            "block prefix length must be within 8..=30"
        );
        let block_size = 1u64 << (32 - u32::from(config.block_prefix_len));
        let total_blocks = world.states().len() as u64
            * u64::from(config.isps_per_state)
            * u64::from(config.blocks_per_isp);
        let space_needed = total_blocks * block_size;
        assert!(
            0x0100_0000 + space_needed < u64::from(u32::MAX),
            "allocation exceeds the IPv4 space: {total_blocks} blocks of {block_size}"
        );

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xA5A5);
        let mut isps = Vec::new();
        let mut cursor: u32 = 0x0100_0000; // 1.0.0.0 — skip reserved 0/8
        let mut next_asn = 64_500u32;

        for state in world.states() {
            for _ in 0..config.isps_per_state {
                let mut blocks = Vec::new();
                for _ in 0..config.blocks_per_isp {
                    let cidr = Cidr::new(Ipv4Addr::from(cursor), config.block_prefix_len)
                        .expect("cursor is always block-aligned");
                    blocks.push(cidr);
                    cursor = cursor
                        .checked_add(block_size as u32)
                        .expect("space checked above");
                }
                let name = format!(
                    "{} {}",
                    ISP_FIRST[rng.random_range(0..ISP_FIRST.len())],
                    ISP_SECOND[rng.random_range(0..ISP_SECOND.len())]
                );
                let home_city = state.cities[rng.random_range(0..state.cities.len())];
                isps.push(Isp {
                    asn: Asn(next_asn),
                    name,
                    home_state: state.id,
                    home_city,
                    blocks,
                });
                next_asn += 1;
            }
        }
        Self { isps }
    }

    /// All ISPs.
    pub fn isps(&self) -> &[Isp] {
        &self.isps
    }

    /// ISPs homed in `state`.
    pub fn isps_in_state(&self, state: StateId) -> Vec<&Isp> {
        self.isps.iter().filter(|i| i.home_state == state).collect()
    }

    /// Look up an ISP by ASN.
    pub fn isp(&self, asn: Asn) -> Option<&Isp> {
        self.isps.iter().find(|i| i.asn == asn)
    }

    /// Total number of allocated blocks.
    pub fn n_blocks(&self) -> usize {
        self.isps.iter().map(|i| i.blocks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorldConfig;

    fn small() -> (World, Allocation) {
        let world = World::generate(
            &WorldConfig {
                countries: 2,
                states_per_country: 3,
                cities_per_state: 2,
            },
            5,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 5);
        (world, alloc)
    }

    #[test]
    fn every_state_has_isps() {
        let (world, alloc) = small();
        for st in world.states() {
            let isps = alloc.isps_in_state(st.id);
            assert_eq!(isps.len(), 2);
            for isp in isps {
                assert_eq!(isp.blocks.len(), 2);
            }
        }
    }

    #[test]
    fn blocks_are_disjoint() {
        let (_, alloc) = small();
        let mut starts: Vec<(u32, u32)> = alloc
            .isps()
            .iter()
            .flat_map(|i| i.blocks.iter().map(|b| (b.start_u32(), b.size())))
            .collect();
        starts.sort_unstable();
        for w in starts.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "blocks overlap");
        }
    }

    #[test]
    fn asns_unique() {
        let (_, alloc) = small();
        let mut asns: Vec<u32> = alloc.isps().iter().map(|i| i.asn.0).collect();
        let before = asns.len();
        asns.sort_unstable();
        asns.dedup();
        assert_eq!(before, asns.len());
    }

    #[test]
    fn deterministic() {
        let (world, _) = small();
        let a = Allocation::generate(&world, &AllocConfig::default(), 9);
        let b = Allocation::generate(&world, &AllocConfig::default(), 9);
        assert_eq!(a.isps().len(), b.isps().len());
        assert_eq!(a.isps()[0].name, b.isps()[0].name);
        assert_eq!(a.isps()[0].blocks, b.isps()[0].blocks);
    }

    #[test]
    fn isp_lookup() {
        let (_, alloc) = small();
        let first = &alloc.isps()[0];
        assert_eq!(alloc.isp(first.asn).unwrap().name, first.name);
        assert!(alloc.isp(Asn(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "prefix length")]
    fn rejects_tiny_prefix() {
        let (world, _) = small();
        Allocation::generate(
            &world,
            &AllocConfig {
                block_prefix_len: 4,
                ..AllocConfig::default()
            },
            0,
        );
    }
}
