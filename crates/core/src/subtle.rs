//! Subtle-dox detection — the paper's §7.3 future-work item, implemented.
//!
//! "Finally, we plan to improve the coverage of the doxes we detect by
//! understanding how to identify most subtle instances of doxing that
//! occur in addition to blatant doxes."
//!
//! The TF-IDF classifier misses doxes that carry little of the genre's
//! vocabulary: thread fragments ("ig is `<handle>`"), bare-handle drops,
//! screencap stubs. Those documents *do* carry personally identifying
//! structure that the extractor finds. [`SubtleDoxDetector`] exploits
//! that: a document whose classifier decision lands in a configurable
//! gray zone below the decision boundary is promoted to "dox" when its
//! extraction record is dense enough — at least `min_pii_kinds` distinct
//! categories of personal information.
//!
//! The combination is strictly recall-increasing over the base classifier
//! and its false-positive cost is bounded by the gray-zone width, which
//! the ablation benchmark sweeps.

use crate::training::DoxClassifier;
use dox_extract::record::{extract, ExtractedDox};
use serde::Serialize;

/// Configuration of the second stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SubtleConfig {
    /// Width of the gray zone below the decision boundary: documents with
    /// `decision > -margin` are eligible for promotion.
    pub margin: f64,
    /// Minimum distinct PII categories for promotion.
    pub min_pii_kinds: usize,
}

impl Default for SubtleConfig {
    fn default() -> Self {
        Self {
            margin: 0.6,
            min_pii_kinds: 2,
        }
    }
}

/// The verdict of the combined detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// The base classifier said dox.
    Classifier,
    /// The base classifier declined, but the gray-zone + extraction rule
    /// promoted the document.
    Promoted,
    /// Not a dox.
    Negative,
}

impl Verdict {
    /// Whether the verdict marks the document a dox.
    pub fn is_dox(self) -> bool {
        !matches!(self, Verdict::Negative)
    }
}

/// The §7.3 combined detector.
pub struct SubtleDoxDetector<'c> {
    classifier: &'c DoxClassifier,
    config: SubtleConfig,
}

/// Count distinct PII categories in an extraction record: OSN accounts,
/// real name, age/DOB, phone, email, IP, address, SSN/CC/financial data,
/// passwords, family members, other usernames.
pub fn pii_kinds(e: &ExtractedDox) -> usize {
    let f = &e.fields;
    [
        !e.osn.is_empty(),
        f.first_name.is_some() || f.last_name.is_some(),
        f.age.is_some() || f.dob.is_some(),
        !f.phones.is_empty(),
        !f.emails.is_empty(),
        !f.ips.is_empty(),
        f.address.is_some(),
        !f.ssns.is_empty() || !f.credit_cards.is_empty(),
        !f.passwords.is_empty(),
        !f.family.is_empty(),
        !f.usernames.is_empty(),
    ]
    .iter()
    .filter(|&&b| b)
    .count()
}

impl<'c> SubtleDoxDetector<'c> {
    /// Wrap a trained classifier.
    pub fn new(classifier: &'c DoxClassifier, config: SubtleConfig) -> Self {
        Self { classifier, config }
    }

    /// Judge a plain-text document.
    pub fn judge(&self, text: &str) -> Verdict {
        let decision = self.classifier.decision(text);
        if decision > 0.0 {
            return Verdict::Classifier;
        }
        if decision > -self.config.margin && pii_kinds(&extract(text)) >= self.config.min_pii_kinds
        {
            return Verdict::Promoted;
        }
        Verdict::Negative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::{World, WorldConfig};
    use dox_synth::config::SynthConfig;
    use dox_synth::corpus::CorpusGenerator;
    use std::sync::OnceLock;

    struct Fixture {
        classifier: DoxClassifier,
        /// (plain text, is_dox, is_subtle) triples from a fresh stream.
        docs: Vec<(String, bool, bool)>,
    }

    fn fixture() -> &'static Fixture {
        static F: OnceLock<Fixture> = OnceLock::new();
        F.get_or_init(|| {
            let world = World::generate(&WorldConfig::default(), 88);
            let alloc = Allocation::generate(&world, &AllocConfig::default(), 88);
            let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::at_scale(0.01));
            let (texts, labels) = gen.training_sets();
            let (classifier, _) = crate::training::DoxClassifier::train(&texts, &labels, 88);
            let mut docs = Vec::new();
            for period in [1u8, 2] {
                let _ = gen.generate_period(period, &mut |d| {
                    let text = if d.source.is_html() {
                        dox_textkit::html::html_to_text(&d.body)
                    } else {
                        d.body.clone()
                    };
                    let (is_dox, subtle) = match d.truth.as_dox() {
                        Some(t) => (true, t.sloppy || t.stub),
                        None => (false, false),
                    };
                    docs.push((text, is_dox, subtle));
                    std::ops::ControlFlow::Continue(())
                });
            }
            Fixture { classifier, docs }
        })
    }

    fn recall_fp(detector: &dyn Fn(&str) -> bool) -> (f64, usize) {
        let f = fixture();
        let mut tp = 0usize;
        let mut fp = 0usize;
        let mut pos = 0usize;
        for (text, is_dox, _) in &f.docs {
            let hit = detector(text);
            if *is_dox {
                pos += 1;
                tp += usize::from(hit);
            } else {
                fp += usize::from(hit);
            }
        }
        (tp as f64 / pos.max(1) as f64, fp)
    }

    #[test]
    fn combined_recall_never_below_base() {
        let f = fixture();
        let base = |t: &str| f.classifier.is_dox(t);
        let det = SubtleDoxDetector::new(&f.classifier, SubtleConfig::default());
        let combined = |t: &str| det.judge(t).is_dox();
        let (r_base, _) = recall_fp(&base);
        let (r_comb, _) = recall_fp(&combined);
        assert!(
            r_comb >= r_base,
            "promotion can only add detections: {r_comb} vs {r_base}"
        );
    }

    #[test]
    fn promotions_require_pii_density() {
        let f = fixture();
        let det = SubtleDoxDetector::new(&f.classifier, SubtleConfig::default());
        let log_line = "2016-08-03T12:00:00Z INFO worker-1: request 4221 completed in 35ms";
        assert_eq!(det.judge(log_line), Verdict::Negative);
        // A gray-zone document dense with PII but light on dox vocabulary.
        let fragment = "posting what we have so far, more later\n\
                        first name jaren last name thornvik\n\
                        insta is jaren_thornvik40x3\n";
        let v = det.judge(fragment);
        assert!(
            v.is_dox(),
            "PII-dense fragment should be caught by some stage: {v:?}"
        );
    }

    #[test]
    fn wider_margin_trades_fp_for_recall() {
        let f = fixture();
        let narrow = SubtleDoxDetector::new(
            &f.classifier,
            SubtleConfig {
                margin: 0.1,
                min_pii_kinds: 2,
            },
        );
        let wide = SubtleDoxDetector::new(
            &f.classifier,
            SubtleConfig {
                margin: 2.0,
                min_pii_kinds: 2,
            },
        );
        let (r_narrow, fp_narrow) = recall_fp(&|t| narrow.judge(t).is_dox());
        let (r_wide, fp_wide) = recall_fp(&|t| wide.judge(t).is_dox());
        assert!(r_wide >= r_narrow);
        assert!(fp_wide >= fp_narrow);
    }

    #[test]
    fn pii_kind_counter() {
        let e = extract(
            "Name: Kaia Sandvik\nAge: 22\nPhone: (414) 555-0123\n\
             Email: k@inbox.example\nIP: 73.20.1.5\ntwitter: kaia_s22",
        );
        let kinds = pii_kinds(&e);
        assert!(kinds >= 5, "kinds = {kinds}");
        assert_eq!(pii_kinds(&ExtractedDox::default()), 0);
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::Classifier.is_dox());
        assert!(Verdict::Promoted.is_dox());
        assert!(!Verdict::Negative.is_dox());
    }
}
