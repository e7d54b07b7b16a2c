//! End-to-end "vectorize → split → train → evaluate" helpers.
//!
//! The dox-classifier evaluation (paper Table 1) vectorizes the labeled
//! corpus with TF-IDF, splits two-thirds / one-third (stratified by
//! label), fits the SGD model on the training part and reports per-class
//! metrics on the held-out part. [`evaluate_classifier`] packages that
//! protocol so the pipeline, the benchmarks and the tests all run the
//! identical procedure; [`train_full`] fits the deployed model on the
//! whole corpus.
//!
//! Both take raw texts and are thin wrappers over [`evaluate_corpus`] and
//! [`train_full_corpus`], which take a [`TokenizedCorpus`]: a caller that
//! evaluates and then deploys tokenizes its texts once for both. The
//! evaluation's held-out fold needs no vectorizer of its own, only the
//! training fold's token-id remap and idf weights.

use crate::metrics::ClassificationReport;
use crate::sgd::{SgdClassifier, SgdConfig};
use crate::split::{stratified_split, take};
use dox_textkit::corpus::TokenizedCorpus;
use dox_textkit::sparse::SparseVec;
use dox_textkit::tfidf::{TfidfConfig, TfidfVectorizer};

/// What one classifier evaluation run reports.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Held-out classification report (paper Table 1 shape).
    pub report: ClassificationReport,
    /// Sizes: `(train, test)`.
    pub sizes: (usize, usize),
}

/// Run the paper's evaluation protocol.
///
/// - `texts`/`labels`: the labeled corpus (positive = dox).
/// - `train_fraction`: the paper uses `2.0/3.0`.
/// - `seed`: governs the split; SGD shuffles by `sgd.seed`.
///
/// The vectorizer is fitted on the **training fold only** — fitting idf on
/// the full corpus would leak document frequencies from the evaluation set.
///
/// # Panics
/// Panics if inputs are empty or lengths differ.
pub fn evaluate_classifier<S: AsRef<str>>(
    texts: &[S],
    labels: &[bool],
    train_fraction: f64,
    seed: u64,
    sgd: SgdConfig,
) -> EvalOutcome {
    evaluate_corpus(
        &TokenizedCorpus::new(texts),
        labels,
        train_fraction,
        seed,
        sgd,
    )
}

/// [`evaluate_classifier`] on a corpus already tokenized.
///
/// # Panics
/// Panics if the corpus is empty or its length differs from `labels`.
pub fn evaluate_corpus(
    corpus: &TokenizedCorpus,
    labels: &[bool],
    train_fraction: f64,
    seed: u64,
    sgd: SgdConfig,
) -> EvalOutcome {
    assert_eq!(corpus.len(), labels.len(), "texts/labels length mismatch");
    assert!(!corpus.is_empty(), "cannot evaluate with no samples");

    let (train_idx, test_idx) = stratified_split(labels, train_fraction, seed);
    let fold = corpus.fit(&train_idx);
    let train_vecs: Vec<SparseVec> = train_idx.iter().map(|&i| fold.transform(i)).collect();
    let classifier = SgdClassifier::fit(
        sgd,
        fold.n_features(),
        &train_vecs,
        &take(labels, &train_idx),
    );

    let predicted: Vec<bool> = test_idx
        .iter()
        .map(|&i| classifier.predict(&fold.transform(i)))
        .collect();
    let report = ClassificationReport::from_labels(&predicted, &take(labels, &test_idx));

    EvalOutcome {
        report,
        sizes: (train_idx.len(), test_idx.len()),
    }
}

/// Train on the *entire* labeled corpus (no held-out evaluation); used when
/// deploying the classifier inside the measurement pipeline after its
/// quality has been established.
///
/// `_tfidf` carries nothing (see [`TfidfConfig`]); it is kept only for
/// the benchmark harness's classify layer.
pub fn train_full<S: AsRef<str>>(
    texts: &[S],
    labels: &[bool],
    seed: u64,
    sgd: SgdConfig,
    _tfidf: TfidfConfig,
) -> (TfidfVectorizer, SgdClassifier) {
    train_full_corpus(&TokenizedCorpus::new(texts), labels, seed, sgd)
}

/// [`train_full`] on a corpus already tokenized.
///
/// # Panics
/// Panics if the corpus length differs from `labels`.
pub fn train_full_corpus(
    corpus: &TokenizedCorpus,
    labels: &[bool],
    seed: u64,
    mut sgd: SgdConfig,
) -> (TfidfVectorizer, SgdClassifier) {
    assert_eq!(corpus.len(), labels.len(), "texts/labels length mismatch");
    sgd.seed = seed;
    let all: Vec<usize> = (0..corpus.len()).collect();
    let fit = corpus.fit(&all);
    let vecs: Vec<SparseVec> = all.iter().map(|&i| fit.transform(i)).collect();
    let classifier = SgdClassifier::fit(sgd, fit.n_features(), &vecs, labels);
    (fit.vectorizer(), classifier)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small synthetic labeled corpus: "dox-like" vs "code-like" texts
    /// with distinct vocabulary.
    fn corpus() -> (Vec<String>, Vec<bool>) {
        let mut texts = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            texts.push(format!(
                "dox drop name victim{i} address {i} main street phone 555-01{i:02} \
                 ip 10.0.{i}.1 isp examplenet dropped by doxer{i}"
            ));
            labels.push(true);
            texts.push(format!(
                "fn func{i}() {{ let x = {i}; println!(\"value {{}}\", x); }} \
                 // snippet number {i} for the build"
            ));
            labels.push(false);
        }
        (texts, labels)
    }

    #[test]
    fn paper_protocol_reaches_high_f1_on_separable_corpus() {
        let (texts, labels) = corpus();
        let out = evaluate_classifier(&texts, &labels, 2.0 / 3.0, 7, SgdConfig::paper());
        assert!(out.report.dox.f1 > 0.9, "report: {:?}", out.report);
        assert!(out.report.not.f1 > 0.9);
        assert_eq!(out.sizes.0 + out.sizes.1, texts.len());
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (texts, labels) = corpus();
        let run = || evaluate_classifier(&texts, &labels, 2.0 / 3.0, 11, SgdConfig::paper()).report;
        let (a, b) = (run(), run());
        assert_eq!(a.dox.precision, b.dox.precision);
        assert_eq!(a.accuracy, b.accuracy);
    }

    #[test]
    fn split_sizes_follow_fraction() {
        let (texts, labels) = corpus();
        let out = evaluate_classifier(&texts, &labels, 0.5, 1, SgdConfig::paper());
        assert_eq!(out.sizes.0, 60);
        assert_eq!(out.sizes.1, 60);
    }

    #[test]
    fn train_full_model_classifies_training_data() {
        let (texts, labels) = corpus();
        let (vect, clf) = train_full(
            &texts,
            &labels,
            3,
            SgdConfig::paper(),
            TfidfConfig::default(),
        );
        let correct = texts
            .iter()
            .zip(&labels)
            .filter(|(t, &y)| clf.predict(&vect.transform(t)) == y)
            .count();
        assert!(correct as f64 / texts.len() as f64 > 0.95);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_corpus_panics() {
        evaluate_classifier::<&str>(&[], &[], 0.5, 0, SgdConfig::paper());
    }
}
