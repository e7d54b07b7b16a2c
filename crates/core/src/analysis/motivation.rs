//! Stated motivations (paper Table 8).
//!
//! Counts the doxes whose text states a motivation the annotator could
//! infer: competitive, revenge, justice or political. The remainder
//! (≈ 71.6 % in the paper) state none.

use crate::labeling::LabeledDox;
use dox_synth::truth::Motivation;
use serde::Serialize;

/// The Table 8 counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct MotivationBreakdown {
    /// Competitive doxes.
    pub competitive: usize,
    /// Revenge doxes.
    pub revenge: usize,
    /// Justice doxes.
    pub justice: usize,
    /// Political doxes.
    pub political: usize,
    /// Labeled doxes.
    pub total: usize,
}

impl MotivationBreakdown {
    /// Doxes with any inferable motivation.
    pub fn with_motivation(&self) -> usize {
        self.competitive + self.revenge + self.justice + self.political
    }

    /// Fraction of labeled doxes.
    pub fn fraction(&self, count: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            count as f64 / self.total as f64
        }
    }
}

/// Compute Table 8 over the labeled sample.
pub fn motivation_breakdown(labeled: &[LabeledDox]) -> MotivationBreakdown {
    let mut b = MotivationBreakdown {
        total: labeled.len(),
        ..MotivationBreakdown::default()
    };
    for l in labeled {
        match l.truth.motivation {
            Some(Motivation::Competitive) => b.competitive += 1,
            Some(Motivation::Revenge) => b.revenge += 1,
            Some(Motivation::Justice) => b.justice += 1,
            Some(Motivation::Political) => b.political += 1,
            None => {}
        }
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_synth::truth::{DoxTruth, Gender, IncludedFields};

    fn labeled(motivation: Option<Motivation>) -> LabeledDox {
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
                community: None,
                motivation,
                credits: vec![],
                duplicate_of: None,
                exact_duplicate: false,
                sloppy: false,
                stub: false,
            },
        }
    }

    #[test]
    fn motivations_counted() {
        let sample = vec![
            labeled(Some(Motivation::Justice)),
            labeled(Some(Motivation::Justice)),
            labeled(Some(Motivation::Revenge)),
            labeled(Some(Motivation::Competitive)),
            labeled(Some(Motivation::Political)),
            labeled(None),
        ];
        let b = motivation_breakdown(&sample);
        assert_eq!(b.justice, 2);
        assert_eq!(b.revenge, 1);
        assert_eq!(b.with_motivation(), 5);
        assert!((b.fraction(b.justice) - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sample() {
        let b = motivation_breakdown(&[]);
        assert_eq!(b.with_motivation(), 0);
        assert_eq!(b.fraction(3), 0.0);
    }
}
