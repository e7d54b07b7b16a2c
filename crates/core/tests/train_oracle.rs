//! Differential test: `DoxClassifier::train`, which tokenizes the labeled
//! corpus once for both of its fits, against the reference protocol that
//! tokenizes every text afresh for each fit and each vector — the 2/3
//! evaluation fold, then the deployed model on the whole corpus.
//!
//! On the study's training sets at scale 0.03, the evaluation fold's
//! vocabulary, idf and training vectors, the deployed vocabulary and idf,
//! the SGD weights and intercept must match by bits, and the Table 1
//! summary must be equal.

#[path = "../../textkit/tests/oracle/mod.rs"]
mod oracle;

use dox_core::study::StudyConfig;
use dox_core::training::DoxClassifier;
use dox_geo::alloc::Allocation;
use dox_geo::model::World;
use dox_ml::metrics::ClassificationReport;
use dox_ml::sgd::{SgdClassifier, SgdConfig};
use dox_ml::split::{stratified_split, take};
use dox_synth::corpus::CorpusGenerator;
use dox_textkit::corpus::TokenizedCorpus;
use oracle::{assert_same_model, same_bits, OracleFit};

fn check_seed(seed: u64) {
    let cfg = StudyConfig::builder().seed(seed).scale(0.03).build();
    let world = World::generate(&cfg.world, cfg.seed);
    let alloc = Allocation::generate(&world, &cfg.alloc, cfg.seed);
    let (texts, labels) = CorpusGenerator::new(&world, &alloc, cfg.synth.clone()).training_sets();
    let (classifier, summary) = DoxClassifier::train(&texts, &labels, seed);

    // The evaluation: fit on the training fold, score the held-out fold.
    let (train_idx, test_idx) = stratified_split(&labels, 2.0 / 3.0, seed);
    let fold = OracleFit::new(&take(&texts, &train_idx));
    let train_vecs: Vec<_> = train_idx
        .iter()
        .map(|&i| fold.transform(&texts[i]))
        .collect();
    let corpus = TokenizedCorpus::new(&texts);
    let corpus_fold = corpus.fit(&train_idx);
    assert_same_model(corpus_fold.vectorizer().model().expect("fitted"), &fold);
    for (&i, expected) in train_idx.iter().zip(&train_vecs) {
        assert!(
            same_bits(&corpus_fold.transform(i), expected),
            "seed {seed}: doc {i}"
        );
    }
    let eval_model = SgdClassifier::fit(
        SgdConfig::paper(),
        fold.idf.len(),
        &train_vecs,
        &take(&labels, &train_idx),
    );
    let predicted: Vec<bool> = test_idx
        .iter()
        .map(|&i| eval_model.predict(&fold.transform(&texts[i])))
        .collect();
    let report = ClassificationReport::from_labels(&predicted, &take(&labels, &test_idx));
    assert_eq!(format!("{:?}", summary.report), format!("{report:?}"));
    assert_eq!(
        format!("{:?}", classifier.evaluation),
        format!("{report:?}")
    );
    assert_eq!(summary.split_sizes, (train_idx.len(), test_idx.len()));
    let positives = labels.iter().filter(|&&l| l).count();
    assert_eq!(summary.corpus_sizes, (positives, labels.len() - positives));
    assert_eq!(classifier.training_sizes, summary.corpus_sizes);

    // The deployed model: the whole corpus, SGD seeded by the study seed.
    let full = OracleFit::new(&texts);
    let vecs: Vec<_> = texts.iter().map(|t| full.transform(t)).collect();
    let mut sgd = SgdConfig::paper();
    sgd.seed = seed;
    let model = SgdClassifier::fit(sgd, full.idf.len(), &vecs, &labels);
    assert_same_model(classifier.vectorizer().model().expect("fitted"), &full);
    let weights = |m: &SgdClassifier| m.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
    assert_eq!(weights(classifier.model()), weights(&model), "seed {seed}");
    assert_eq!(
        classifier.model().intercept().to_bits(),
        model.intercept().to_bits()
    );
    assert!(texts.len() > 500, "seed {seed}: only {} texts", texts.len());
}

#[test]
fn train_matches_the_reference_protocol_seed_7() {
    check_seed(7);
}

#[test]
fn train_matches_the_reference_protocol_seed_1() {
    check_seed(1);
}

#[test]
fn train_matches_the_reference_protocol_seed_42() {
    check_seed(42);
}
