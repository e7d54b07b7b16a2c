//! Simulated manual labeling (paper §3.2).
//!
//! The paper hand-labels 464 doxes randomly selected from the classified
//! set, noting demographic categories, victim community and stated
//! motivation. In the reproduction the "human labeler" reads the
//! generator's ground truth — the exact information a careful annotator
//! would write down — for a deterministic random sample of the detected
//! doxes, sized per period like the paper's 270 + 194.

use crate::pipeline::DetectedDox;
use dox_synth::truth::DoxTruth;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One manually labeled dox.
#[derive(Debug, Clone)]
pub struct LabeledDox {
    /// The labeled document id.
    pub doc_id: u64,
    /// Collection period.
    pub period: u8,
    /// The label content (what the annotator wrote down).
    pub truth: DoxTruth,
}

/// Fraction of period-1 detections to label. The paper labeled 270 in
/// period 1 and 194 in period 2 (of 2,976 / 2,554 classified), i.e. ≈ 9 %
/// and ≈ 7.6 %; the divisor 0.9 compensates for stub doxes being skipped
/// by the annotator (they carry nothing labelable), so the drawn sample
/// still lands on the paper's 270 + 194.
const FRAC_PERIOD1: f64 = 270.0 / 2976.0 / 0.9;
/// Fraction of period-2 detections to label (see [`FRAC_PERIOD1`]).
const FRAC_PERIOD2: f64 = 194.0 / 2554.0 / 0.9;
/// Never label fewer than this many per period (small-scale runs).
const MIN_PER_PERIOD: usize = 40;

/// Draw the labeling sample. Only true doxes can be labeled — an annotator
/// looking at a false positive would discard it, as the paper's labelers
/// implicitly did (their demographic tables describe actual victims).
/// Screencap-mirror stubs are likewise skipped: their text carries nothing
/// to put in Tables 5–8. Returns labeled doxes in document order.
pub fn label_sample(detected: &[DetectedDox], seed: u64) -> Vec<LabeledDox> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x1A8E_1E55);
    let mut out = Vec::new();
    for (period, frac) in [(1u8, FRAC_PERIOD1), (2u8, FRAC_PERIOD2)] {
        let pool: Vec<&DetectedDox> = detected
            .iter()
            .filter(|d| d.period == period && d.truth.as_ref().is_some_and(|t| !t.stub))
            .collect();
        if pool.is_empty() {
            continue;
        }
        let want = ((pool.len() as f64 * frac).round() as usize)
            .max(MIN_PER_PERIOD)
            .min(pool.len());
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        // Partial Fisher–Yates: shuffle the first `want` positions.
        for i in 0..want {
            let j = rng.random_range(i..indices.len());
            indices.swap(i, j);
        }
        for &i in indices.iter().take(want) {
            let d = pool[i];
            // The pool filter above keeps only docs with non-stub truth.
            let Some(truth) = d.truth.as_ref() else {
                continue;
            };
            out.push(LabeledDox {
                doc_id: d.doc_id,
                period: d.period,
                truth: truth.as_ref().clone(),
            });
        }
    }
    out.sort_by_key(|l| l.doc_id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::Source;
    use dox_synth::truth::{Gender, IncludedFields};

    fn fake_detected(n: usize, period: u8, with_truth: bool) -> Vec<DetectedDox> {
        (0..n)
            .map(|i| DetectedDox {
                doc_id: (u64::from(period) << 32) + i as u64,
                source: Source::Pastebin,
                period,
                posted_at: SimTime::from_days(1),
                observed_at: SimTime::from_days(1),
                text: String::new(),
                extracted: Default::default(),
                duplicate: None,
                truth: with_truth.then(|| {
                    Box::new(DoxTruth {
                        persona_id: i as u64,
                        age: 20,
                        gender: Gender::Male,
                        primary_country: true,
                        fields: IncludedFields::default(),
                        osn_handles: vec![],
                        community: None,
                        motivation: None,
                        credits: vec![],
                        duplicate_of: None,
                        exact_duplicate: false,
                        sloppy: false,
                        stub: false,
                    })
                }),
            })
            .collect()
    }

    #[test]
    fn sample_sizes_follow_plan() {
        let mut detected = fake_detected(1000, 1, true);
        detected.extend(fake_detected(1000, 2, true));
        let labeled = label_sample(&detected, 1);
        let p1 = labeled.iter().filter(|l| l.period == 1).count();
        let p2 = labeled.iter().filter(|l| l.period == 2).count();
        assert_eq!(p1, 101); // round(1000 * 270/2976 / 0.9)
        assert_eq!(p2, 84); // round(1000 * 194/2554 / 0.9)
    }

    #[test]
    fn minimum_applies_at_small_scale() {
        let detected = fake_detected(60, 1, true);
        let labeled = label_sample(&detected, 2);
        assert_eq!(labeled.len(), 40);
    }

    #[test]
    fn sample_never_exceeds_pool() {
        let detected = fake_detected(10, 1, true);
        let labeled = label_sample(&detected, 3);
        assert_eq!(labeled.len(), 10);
    }

    #[test]
    fn false_positives_never_labeled() {
        let mut detected = fake_detected(50, 1, true);
        detected.extend(fake_detected(50, 1, false));
        let labeled = label_sample(&detected, 4);
        assert!(labeled.len() <= 50);
    }

    #[test]
    fn no_duplicate_labels_and_deterministic() {
        let detected = fake_detected(500, 1, true);
        let a = label_sample(&detected, 5);
        let b = label_sample(&detected, 5);
        let ids_a: Vec<u64> = a.iter().map(|l| l.doc_id).collect();
        let ids_b: Vec<u64> = b.iter().map(|l| l.doc_id).collect();
        assert_eq!(ids_a, ids_b);
        let mut dedup = ids_a.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), ids_a.len());
    }

    #[test]
    fn empty_pool_is_fine() {
        assert!(label_sample(&[], 6).is_empty());
    }
}
