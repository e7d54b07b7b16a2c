//! The validation studies (paper §4).
//!
//! 1. **Validation by IP address** (§4.1): sample 50 detected doxes that
//!    include an IP address, keep those that also include a postal
//!    address, geolocate the IP, and classify the pair as exact / close /
//!    adjacent / far. The paper: 36 doxes had both, 32 were close (4 of
//!    them exact), 1 adjacent, 3 far.
//! 2. **Validation by post deletion** (Table 3): within one month of
//!    posting, dox-labeled pastebin files were deleted 3× as often as
//!    other files (12.8 % vs 4.2 %).

use crate::pipeline::DetectedDox;
use dox_geo::consistency::{classify_pair, ConsistencyClass, ConsistencySummary};
use dox_geo::geoip::GeoIpDb;
use dox_geo::model::World;
use dox_geo::postal::PostalAddress;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// §4.1's result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct IpValidation {
    /// Doxes sampled (paper: 50).
    pub sampled: usize,
    /// Of those, doxes with both an IP and a postal address (paper: 36).
    pub with_both: usize,
    /// Consistency outcome counts.
    pub summary: ConsistencySummary,
}

/// Run §4.1: sample up to `sample_size` unique detected doxes whose
/// extraction found an IP, then classify those that also carry a zip-coded
/// address.
///
/// The postal side is reconstructed from the extracted zip code via the
/// world's zip index — exactly the information a dox reader would use to
/// geocode the address.
pub fn validate_by_ip(
    detected: &[DetectedDox],
    world: &World,
    db: &GeoIpDb,
    sample_size: usize,
    seed: u64,
) -> IpValidation {
    let mut with_ip: Vec<&DetectedDox> = detected
        .iter()
        .filter(|d| d.duplicate.is_none() && !d.extracted.fields.ips.is_empty())
        .collect();
    // Deterministic sample of `sample_size`.
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1BAD_D00D);
    for i in 0..with_ip.len().min(sample_size) {
        let j = rng.random_range(i..with_ip.len());
        with_ip.swap(i, j);
    }
    with_ip.truncate(sample_size);

    let mut v = IpValidation {
        sampled: with_ip.len(),
        ..IpValidation::default()
    };
    let mut classes: Vec<ConsistencyClass> = Vec::new();
    for d in &with_ip {
        let Some(city) = geocode_extracted_address(world, d) else {
            continue;
        };
        let address = PostalAddress {
            number: 1,
            street: String::new(),
            city: city.id,
            zip: city.zip_range.0,
        };
        let ip = d.extracted.fields.ips[0];
        v.with_both += 1;
        classes.push(classify_pair(world, db, ip, &address));
    }
    v.summary = ConsistencySummary::from_classes(&classes);
    v
}

/// Geocode a detection's extracted postal address: by zip code when one
/// was extracted, else by the `…, City, ST` tail of the address line —
/// the same two strategies a human analyst would use.
fn geocode_extracted_address<'w>(
    world: &'w World,
    d: &DetectedDox,
) -> Option<&'w dox_geo::model::City> {
    if let Some(zip) = d.extracted.fields.zip {
        if let Some(city) = world.city_by_zip(zip) {
            return Some(city);
        }
    }
    let address = d.extracted.fields.address.as_deref()?;
    // "1210 Maple Street, Brackford, NK 10234" or "…, Brackford, NK".
    let mut parts = address.rsplit(',').map(str::trim);
    let last = parts.next()?;
    let city_name = parts.next()?;
    let state_abbrev = last.split_whitespace().next()?;
    world.city_by_name_in_state(city_name, state_abbrev)
}

/// Table 3's result, re-exported from the site substrate with the paper's
/// framing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct DeletionValidation {
    /// Dox-labeled pastes posted in period 1.
    pub dox_total: u64,
    /// Deleted within a month.
    pub dox_deleted: u64,
    /// Other pastes.
    pub other_total: u64,
    /// Deleted within a month.
    pub other_deleted: u64,
}

impl DeletionValidation {
    /// Dox deletion rate.
    pub fn dox_rate(&self) -> f64 {
        if self.dox_total == 0 {
            0.0
        } else {
            self.dox_deleted as f64 / self.dox_total as f64
        }
    }

    /// Non-dox deletion rate.
    pub fn other_rate(&self) -> f64 {
        if self.other_total == 0 {
            0.0
        } else {
            self.other_deleted as f64 / self.other_total as f64
        }
    }

    /// The paper's headline: dox files delete ≈ 3× as often.
    pub fn ratio(&self) -> f64 {
        let o = self.other_rate();
        if o == 0.0 {
            f64::INFINITY
        } else {
            self.dox_rate() / o
        }
    }
}

impl From<dox_sites::pastebin::DeletionSurvey> for DeletionValidation {
    fn from(s: dox_sites::pastebin::DeletionSurvey) -> Self {
        Self {
            dox_total: s.dox_total,
            dox_deleted: s.dox_deleted,
            other_total: s.other_total,
            other_deleted: s.other_deleted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_extract::record::extract;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::WorldConfig;
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::Source;

    fn fixture() -> (World, Allocation, GeoIpDb) {
        let world = World::generate(
            &WorldConfig {
                countries: 3,
                states_per_country: 6,
                cities_per_state: 8,
            },
            91,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 91);
        let db = GeoIpDb::build(&world, &alloc);
        (world, alloc, db)
    }

    fn detected_with(text: String) -> DetectedDox {
        DetectedDox {
            doc_id: 0,
            source: Source::Pastebin,
            period: 1,
            posted_at: SimTime::EPOCH,
            observed_at: SimTime::EPOCH,
            extracted: extract(&text),
            text,
            duplicate: None,
            truth: None,
        }
    }

    #[test]
    fn consistent_pairs_classify_close_or_exact() {
        let (world, alloc, db) = fixture();
        // Build doxes whose IP and zip are deliberately consistent.
        let mut docs = Vec::new();
        for i in 0..20 {
            let state = &world.states()[i % world.states().len()];
            let city = world.city(state.cities[0]);
            let isp = alloc.isps_in_state(state.id)[0];
            let ip = isp.blocks[0].nth(7 + i as u32).unwrap();
            docs.push(detected_with(format!(
                "Name: Victim {i}\nAddress: 1 Test Way, {}, {} {}\nIP: {ip}\n",
                city.name,
                world.state(state.id).abbrev,
                city.zip_range.0
            )));
        }
        let v = validate_by_ip(&docs, &world, &db, 50, 1);
        assert_eq!(v.sampled, 20);
        assert_eq!(v.with_both, 20);
        assert_eq!(
            v.summary.close_or_exact(),
            20,
            "same-state IPs must classify close: {:?}",
            v.summary
        );
    }

    #[test]
    fn doxes_without_zip_dont_count_toward_both() {
        let (world, alloc, db) = fixture();
        let isp = &alloc.isps()[0];
        let ip = isp.blocks[0].nth(3).unwrap();
        let docs = vec![detected_with(format!("IP: {ip}\nno address here"))];
        let v = validate_by_ip(&docs, &world, &db, 50, 2);
        assert_eq!(v.sampled, 1);
        assert_eq!(v.with_both, 0);
    }

    #[test]
    fn sample_size_respected() {
        let (world, alloc, db) = fixture();
        let isp = &alloc.isps()[0];
        let docs: Vec<DetectedDox> = (0..100)
            .map(|i| {
                let ip = isp.blocks[0].nth(10 + i).unwrap();
                detected_with(format!("IP: {ip}"))
            })
            .collect();
        let v = validate_by_ip(&docs, &world, &db, 50, 3);
        assert_eq!(v.sampled, 50);
    }

    #[test]
    fn duplicates_excluded_from_sampling() {
        let (world, alloc, db) = fixture();
        let isp = &alloc.isps()[0];
        let ip = isp.blocks[0].nth(3).unwrap();
        let mut doc = detected_with(format!("IP: {ip}"));
        doc.duplicate = Some((crate::dedup::DuplicateKind::ExactBody, 0));
        let v = validate_by_ip(&[doc], &world, &db, 50, 4);
        assert_eq!(v.sampled, 0);
    }

    #[test]
    fn deletion_validation_rates() {
        let v = DeletionValidation {
            dox_total: 1122,
            dox_deleted: 144,
            other_total: 483_063,
            other_deleted: 20_501,
        };
        assert!((v.dox_rate() - 0.128).abs() < 0.001);
        assert!((v.other_rate() - 0.042).abs() < 0.001);
        assert!(v.ratio() > 3.0);
    }

    #[test]
    fn empty_deletion_validation() {
        let v = DeletionValidation::default();
        assert_eq!(v.dox_rate(), 0.0);
        assert!(v.ratio().is_infinite());
    }
}
