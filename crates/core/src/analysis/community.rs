//! Victim communities (paper Table 7) and stated motivations helper types.
//!
//! The paper classifies a labeled victim as a *gamer* or *hacker* when the
//! dox lists more than two accounts on the corresponding community sites,
//! and as a *celebrity* when the victim is publicly known. The annotator's
//! evidence is the dox text itself; here the ground-truth `community`
//! field plays that role (the generator only sets it when the dox actually
//! exposes the community accounts).

use crate::labeling::LabeledDox;
use dox_synth::truth::Community;
use serde::Serialize;

/// The Table 7 counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct CommunityBreakdown {
    /// Hackers.
    pub hacker: usize,
    /// Gamers.
    pub gamer: usize,
    /// Celebrities.
    pub celebrity: usize,
    /// Labeled doxes.
    pub total: usize,
}

impl CommunityBreakdown {
    /// Victims assigned to any category.
    pub fn categorized(&self) -> usize {
        self.hacker + self.gamer + self.celebrity
    }

    /// Fraction of labeled doxes in a category.
    pub fn fraction(&self, count: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            count as f64 / self.total as f64
        }
    }
}

/// Compute Table 7 over the labeled sample.
pub fn community_breakdown(labeled: &[LabeledDox]) -> CommunityBreakdown {
    let mut b = CommunityBreakdown {
        total: labeled.len(),
        ..CommunityBreakdown::default()
    };
    for l in labeled {
        match l.truth.community {
            Some(Community::Hacker) => b.hacker += 1,
            Some(Community::Gamer) => b.gamer += 1,
            Some(Community::Celebrity) => b.celebrity += 1,
            None => {}
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_synth::truth::{DoxTruth, Gender, IncludedFields};

    fn labeled(community: Option<Community>) -> LabeledDox {
        LabeledDox {
            doc_id: 0,
            period: 1,
            truth: DoxTruth {
                persona_id: 0,
                age: 20,
                gender: Gender::Male,
                primary_country: true,
                fields: IncludedFields::default(),
                osn_handles: vec![],
                community,
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
    fn categories_counted() {
        let sample = vec![
            labeled(Some(Community::Gamer)),
            labeled(Some(Community::Gamer)),
            labeled(Some(Community::Hacker)),
            labeled(Some(Community::Celebrity)),
            labeled(None),
            labeled(None),
        ];
        let b = community_breakdown(&sample);
        assert_eq!(b.gamer, 2);
        assert_eq!(b.hacker, 1);
        assert_eq!(b.celebrity, 1);
        assert_eq!(b.categorized(), 4);
        assert!((b.fraction(b.gamer) - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sample() {
        let b = community_breakdown(&[]);
        assert_eq!(b.categorized(), 0);
        assert_eq!(b.fraction(0), 0.0);
    }
}
