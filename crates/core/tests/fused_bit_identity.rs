//! Differential test: the fused classify path against the materialised
//! one over the whole synthetic study stream.
//!
//! For every collected document — chan posts through `html_to_text`, as
//! the engine's stage does — the fused `TfidfVectorizer::dot` plus the
//! intercept must have the same bits as
//! `SgdClassifier::decision_function(&TfidfVectorizer::transform(text))`,
//! and the deployed detector must return the materialised verdict.

use dox_core::study::{Study, StudyConfig};
use dox_geo::alloc::Allocation;
use dox_geo::model::World;
use dox_ml::eval::train_full;
use dox_ml::sgd::SgdConfig;
use dox_synth::corpus::CorpusGenerator;
use dox_textkit::html::html_to_text;
use dox_textkit::tfidf::TfidfConfig;
use std::ops::ControlFlow;

fn check_stream(seed: u64) {
    let cfg = StudyConfig::builder().seed(seed).scale(0.01).build();
    // The study's first generator call is the training set, so this is
    // exactly the model `DoxClassifier::train` deploys.
    let world = World::generate(&cfg.world, cfg.seed);
    let alloc = Allocation::generate(&world, &cfg.alloc, cfg.seed);
    let (texts, labels) = CorpusGenerator::new(&world, &alloc, cfg.synth.clone()).training_sets();
    let (vectorizer, model) = train_full(
        &texts,
        &labels,
        cfg.seed,
        SgdConfig::paper(),
        TfidfConfig::default(),
    );
    let study = Study::new(cfg);
    let detector = study.train_detector().expect("training succeeds");

    let (mut docs, mut html, mut doxes, mut mismatches, mut flips) = (0u64, 0u64, 0u64, 0u64, 0u64);
    study
        .synthetic_stream(&mut |_, collected| {
            let doc = &collected.doc;
            let text = if doc.source.is_html() {
                html += 1;
                html_to_text(&doc.body)
            } else {
                doc.body.clone()
            };
            let materialised = model.decision_function(&vectorizer.transform(&text));
            let fused = vectorizer.dot(&text, model.weights()) + model.intercept();
            mismatches += u64::from(fused.to_bits() != materialised.to_bits());
            let verdict = materialised > 0.0;
            flips += u64::from(detector.is_dox(&text) != verdict);
            doxes += u64::from(verdict);
            docs += 1;
            ControlFlow::Continue(())
        })
        .expect("fault-free stream");

    assert!(docs > 10_000, "seed {seed}: only {docs} documents");
    assert!(
        html > 0 && doxes > 0,
        "seed {seed}: {html} html, {doxes} doxes"
    );
    assert_eq!(
        mismatches, 0,
        "seed {seed}: bit mismatches over {docs} docs"
    );
    assert_eq!(flips, 0, "seed {seed}: verdict flips over {docs} docs");
}

#[test]
fn fused_decisions_are_bit_identical_on_the_study_stream_seed_7() {
    check_stream(7);
}

#[test]
fn fused_decisions_are_bit_identical_on_the_study_stream_seed_11() {
    check_stream(11);
}
