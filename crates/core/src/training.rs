//! Classifier training and evaluation (paper §3.1.2, Table 1).
//!
//! The labeled corpus comes from the sources the paper used: dox-for-hire
//! "proof-of-work" archives as positives (749 at paper scale) and a
//! manually vetted random crawl of pastebin as negatives (4,220). The
//! evaluation protocol is a 2/3–1/3 split; the deployed model is then
//! retrained on the full labeled corpus. The texts are tokenized once for
//! both fits.

use dox_ml::eval::{evaluate_corpus, train_full_corpus};
use dox_ml::metrics::ClassificationReport;
use dox_ml::sgd::{SgdClassifier, SgdConfig};
use dox_textkit::corpus::TokenizedCorpus;
use dox_textkit::tfidf::{TfidfConfig, TfidfVectorizer};
use serde::Serialize;

/// The trained classifier stage: vectorizer plus linear model.
#[derive(Clone)]
pub struct DoxClassifier {
    vectorizer: TfidfVectorizer,
    model: SgdClassifier,
    /// Held-out evaluation, in Table 1's shape.
    pub evaluation: ClassificationReport,
    /// Training-set sizes `(positives, negatives)`.
    pub training_sizes: (usize, usize),
}

/// Summary of the Table 1 run, serializable for EXPERIMENTS.md.
#[derive(Debug, Clone, Serialize)]
pub struct ClassifierSummary {
    /// Held-out report.
    pub report: ClassificationReport,
    /// `(train, test)` sizes of the evaluation split.
    pub split_sizes: (usize, usize),
    /// `(positives, negatives)` in the full labeled corpus.
    pub corpus_sizes: (usize, usize),
}

impl DoxClassifier {
    /// Train and evaluate per the paper's protocol.
    ///
    /// # Panics
    /// Panics if `texts` is empty or lengths differ.
    pub fn train(texts: &[String], labels: &[bool], seed: u64) -> (Self, ClassifierSummary) {
        let corpus = TokenizedCorpus::new(texts, &TfidfConfig::default());
        let outcome = evaluate_corpus(&corpus, labels, 2.0 / 3.0, seed, SgdConfig::paper());
        let (vectorizer, model) = train_full_corpus(&corpus, labels, seed, SgdConfig::paper());
        let positives = labels.iter().filter(|&&l| l).count();
        let negatives = labels.len() - positives;
        let summary = ClassifierSummary {
            report: outcome.report,
            split_sizes: outcome.sizes,
            corpus_sizes: (positives, negatives),
        };
        (
            Self {
                vectorizer,
                model,
                evaluation: outcome.report,
                training_sizes: (positives, negatives),
            },
            summary,
        )
    }

    /// The fitted vectorizer (vocabulary and idf weights).
    pub fn vectorizer(&self) -> &TfidfVectorizer {
        &self.vectorizer
    }

    /// The trained linear model.
    pub fn model(&self) -> &SgdClassifier {
        &self.model
    }

    /// Classify one plain-text document.
    pub fn is_dox(&self, text: &str) -> bool {
        self.decision(text) > 0.0
    }

    /// The raw decision value (distance from the separating hyperplane).
    ///
    /// Scored by the vectorizer's fused pass, bit-identical to
    /// `model.decision_function(&vectorizer.transform(text))` without
    /// building the TF-IDF vector.
    pub fn decision(&self, text: &str) -> f64 {
        self.vectorizer.dot(text, self.model.weights()) + self.model.intercept()
    }

    /// The most dox-indicative vocabulary terms, for model inspection.
    pub fn top_dox_terms(&self, k: usize) -> Vec<(String, f64)> {
        // An unfitted vectorizer has no vocabulary to inspect.
        let Some(model) = self.vectorizer.model() else {
            return Vec::new();
        };
        let vocab = model.vocabulary();
        let tokens = vocab.tokens_in_order();
        self.model
            .top_positive_features(k)
            .into_iter()
            .filter_map(|(idx, w)| tokens.get(idx as usize).map(|t| (t.to_string(), w)))
            .collect()
    }
}

/// The trained classifier is the engine's classification stage: this is
/// the only coupling between `dox-core` and the generic streaming engine.
impl dox_engine::DoxDetector for DoxClassifier {
    fn is_dox(&self, text: &str) -> bool {
        DoxClassifier::is_dox(self, text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::{World, WorldConfig};
    use dox_synth::config::SynthConfig;
    use dox_synth::corpus::CorpusGenerator;

    fn trained() -> (DoxClassifier, ClassifierSummary) {
        let world = World::generate(&WorldConfig::default(), 31);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 31);
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let (texts, labels) = gen.training_sets();
        DoxClassifier::train(&texts, &labels, 31)
    }

    #[test]
    fn classifier_beats_90_percent_f1_on_synthetic_corpus() {
        let (_, summary) = trained();
        assert!(
            summary.report.dox.f1 > 0.80,
            "dox F1 = {}",
            summary.report.dox.f1
        );
        assert!(summary.report.not.f1 > 0.95);
    }

    #[test]
    fn table1_shape_not_class_stronger_than_dox_class() {
        // Table 1: the negative class scores higher than the dox class
        // (0.99/0.98 vs 0.81/0.89) — class imbalance plus hard negatives
        // make the rare class harder. Compare via recall and F1: with the
        // small held-out positive set at test scale, dox precision can hit
        // exactly 1.0 (zero false positives), so precision alone is noise.
        let (_, summary) = trained();
        assert!(summary.report.not.recall >= summary.report.dox.recall);
        assert!(summary.report.not.f1 >= summary.report.dox.f1);
    }

    #[test]
    fn deployed_model_classifies_obvious_cases() {
        let (clf, _) = trained();
        let dox = "Name: John Example\nAge: 19\nAddress: 12 Maple Street, \
                   Brackford, NK 10234\nPhone: (312) 555-0188\nIP: 73.54.12.9\n\
                   dropped by DoxLord_3";
        let code = "fn main() { println!(\"hello\"); } // just some rust code";
        assert!(clf.is_dox(dox));
        assert!(!clf.is_dox(code));
        assert!(clf.decision(dox) > clf.decision(code));
    }

    #[test]
    fn top_terms_are_doxy() {
        let (clf, _) = trained();
        let terms = clf.top_dox_terms(25);
        assert_eq!(terms.len(), 25);
        // weights descending
        for w in terms.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        let vocab: Vec<&str> = terms.iter().map(|(t, _)| t.as_str()).collect();
        let doxy_hits = ["dox", "phone", "age", "name", "address", "dropped", "ip"]
            .iter()
            .filter(|k| vocab.iter().any(|v| v.contains(*k)))
            .count();
        assert!(doxy_hits >= 2, "top terms {vocab:?}");
    }
}
