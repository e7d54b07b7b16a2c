//! Victim demographics (paper Table 5).
//!
//! Computed over the manually labeled doxes: age range and mean, gender
//! shares, and — among labeled doxes that include an address — the
//! fraction of victims located in the primary (USA stand-in) country.

use crate::labeling::LabeledDox;
use dox_synth::truth::Gender;
use serde::Serialize;

/// The Table 5 row values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct Demographics {
    /// Minimum stated age.
    pub min_age: u8,
    /// Maximum stated age.
    pub max_age: u8,
    /// Mean stated age.
    pub mean_age: f64,
    /// Fraction female.
    pub female: f64,
    /// Fraction male.
    pub male: f64,
    /// Fraction other.
    pub other: f64,
    /// Fraction in the primary country, among labeled doxes with an
    /// address.
    pub primary_country: f64,
    /// Labeled doxes with an address (the denominator for the row above —
    /// the paper's footnote: "percentage of the 300 dox files that
    /// included an address").
    pub with_address: usize,
    /// Total labeled doxes.
    pub total: usize,
}

/// Compute Table 5 over the labeled sample.
///
/// Ages count only doxes that state an age or date of birth (an annotator
/// can't know an unstated age). Gender is recorded for every labeled dox
/// (dox files state or imply it).
pub fn demographics(labeled: &[LabeledDox]) -> Demographics {
    let mut d = Demographics {
        min_age: u8::MAX,
        total: labeled.len(),
        ..Demographics::default()
    };
    let mut age_sum = 0u64;
    let mut age_n = 0u64;
    let (mut male, mut female, mut other) = (0usize, 0usize, 0usize);
    let mut primary = 0usize;

    for l in labeled {
        let t = &l.truth;
        if t.fields.age || t.fields.dob {
            d.min_age = d.min_age.min(t.age);
            d.max_age = d.max_age.max(t.age);
            age_sum += u64::from(t.age);
            age_n += 1;
        }
        match t.gender {
            Gender::Male => male += 1,
            Gender::Female => female += 1,
            Gender::Other => other += 1,
        }
        if t.fields.address {
            d.with_address += 1;
            primary += usize::from(t.primary_country);
        }
    }
    if age_n > 0 {
        d.mean_age = age_sum as f64 / age_n as f64;
    } else {
        d.min_age = 0;
    }
    let n = labeled.len().max(1) as f64;
    d.male = male as f64 / n;
    d.female = female as f64 / n;
    d.other = other as f64 / n;
    d.primary_country = if d.with_address > 0 {
        primary as f64 / d.with_address as f64
    } else {
        0.0
    };
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_synth::truth::{DoxTruth, IncludedFields};

    fn labeled(age: u8, stated: bool, gender: Gender, address: bool, primary: bool) -> LabeledDox {
        LabeledDox {
            doc_id: 0,
            period: 1,
            truth: DoxTruth {
                persona_id: 0,
                age,
                gender,
                primary_country: primary,
                fields: IncludedFields {
                    age: stated,
                    address,
                    ..IncludedFields::default()
                },
                osn_handles: vec![],
                community: None,
                motivation: None,
                credits: vec![],
                duplicate_of: None,
                exact_duplicate: false,
                sloppy: false,
                stub: false,
            },
        }
    }

    #[test]
    fn ages_only_counted_when_stated() {
        let sample = vec![
            labeled(10, true, Gender::Male, true, true),
            labeled(30, true, Gender::Female, true, false),
            labeled(99, false, Gender::Male, false, false), // unstated age
        ];
        let d = demographics(&sample);
        assert_eq!(d.min_age, 10);
        assert_eq!(d.max_age, 30);
        assert!((d.mean_age - 20.0).abs() < 1e-9);
    }

    #[test]
    fn gender_shares() {
        let sample = vec![
            labeled(20, true, Gender::Male, false, false),
            labeled(20, true, Gender::Male, false, false),
            labeled(20, true, Gender::Female, false, false),
            labeled(20, true, Gender::Other, false, false),
        ];
        let d = demographics(&sample);
        assert!((d.male - 0.5).abs() < 1e-9);
        assert!((d.female - 0.25).abs() < 1e-9);
        assert!((d.other - 0.25).abs() < 1e-9);
    }

    #[test]
    fn primary_country_uses_address_denominator() {
        let sample = vec![
            labeled(20, true, Gender::Male, true, true),
            labeled(20, true, Gender::Male, true, false),
            labeled(20, true, Gender::Male, false, true), // no address: excluded
        ];
        let d = demographics(&sample);
        assert_eq!(d.with_address, 2);
        assert!((d.primary_country - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_is_safe() {
        let d = demographics(&[]);
        assert_eq!(d.total, 0);
        assert_eq!(d.mean_age, 0.0);
        assert_eq!(d.min_age, 0);
        assert_eq!(d.primary_country, 0.0);
    }
}
