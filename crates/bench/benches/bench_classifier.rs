//! Classifier benchmarks (paper Table 1) and model ablations.
//!
//! Regenerates Table 1's evaluation (TF-IDF + SGD, 2/3–1/3 split), times
//! it alone (`train_paper_protocol`) and with the deployed full-corpus fit
//! the study pays for (`train_deployed`, `DoxClassifier::train`), and
//! compares the paper's hinge-loss SGD against logistic SGD, multinomial
//! naive Bayes and the keyword-rule baseline — the design-choice ablation
//! called out in DESIGN.md. The `classify` group times one document at a
//! time through the deployed classifier's fused `is_dox` and through the
//! materialised `transform` + `decision_function` it replaces. The
//! `study_stream` group runs the study's own document stream (scale 0.01,
//! chan posts through `html_to_text` as the engine's stage does) through
//! the deployed detector, and reports ns/doc and MB/s for `is_dox` and for
//! `html_to_text`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dox_bench::BenchFixture;
use dox_core::study::{Study, StudyConfig};
use dox_core::training::DoxClassifier;
use dox_ml::baseline::{KeywordBaseline, MultinomialNb};
use dox_ml::eval::evaluate_classifier;
use dox_ml::metrics::ClassificationReport;
use dox_ml::sgd::{SgdClassifier, SgdConfig};
use dox_textkit::html::html_to_text;
use dox_textkit::tfidf::{TfidfConfig, TfidfVectorizer};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

fn quality_note(name: &str, report: &ClassificationReport) {
    dox_obs::emit!(
        dox_obs::Level::Info,
        "bench.table1",
        name,
        dox_p = format!("{:.2}", report.dox.precision),
        dox_r = format!("{:.2}", report.dox.recall),
        dox_f1 = format!("{:.2}", report.dox.f1),
        not_p = format!("{:.2}", report.not.precision),
        not_r = format!("{:.2}", report.not.recall),
        not_f1 = format!("{:.2}", report.not.f1),
    );
}

fn bench_training(c: &mut Criterion) {
    dox_obs::global().events().set_echo(true);
    let fixture = BenchFixture::new();
    let (texts, labels) = fixture.training_sets(0.05);

    // Print the Table 1 numbers once per run so `cargo bench` output
    // documents the quality alongside the speed.
    let outcome = evaluate_classifier(
        &texts,
        &labels,
        2.0 / 3.0,
        7,
        SgdConfig::paper(),
        TfidfConfig::default(),
    );
    quality_note("sgd-hinge", &outcome.report);
    let logistic = evaluate_classifier(
        &texts,
        &labels,
        2.0 / 3.0,
        7,
        SgdConfig::logistic(),
        TfidfConfig::default(),
    );
    quality_note("sgd-log", &logistic.report);

    let mut group = c.benchmark_group("classifier");
    group.sample_size(10);
    group.bench_function("train_paper_protocol", |b| {
        b.iter(|| {
            black_box(evaluate_classifier(
                black_box(&texts),
                black_box(&labels),
                2.0 / 3.0,
                7,
                SgdConfig::paper(),
                TfidfConfig::default(),
            ))
        })
    });
    group.bench_function("train_deployed", |b| {
        b.iter(|| {
            black_box(DoxClassifier::train(
                black_box(&texts),
                black_box(&labels),
                7,
            ))
        })
    });

    // Inference throughput over a pre-vectorized batch.
    let mut vect = TfidfVectorizer::default();
    let vecs = vect.fit_transform(&texts);
    let n_features = vect.model().expect("fitted").n_features();
    let clf = SgdClassifier::fit(SgdConfig::paper(), n_features, &vecs, &labels);
    group.bench_function("predict_batch", |b| {
        b.iter(|| black_box(clf.predict_batch(black_box(&vecs))))
    });

    let nb = MultinomialNb::fit(n_features, &vecs, &labels, 1.0);
    group.bench_function("naive_bayes_predict_batch", |b| {
        b.iter(|| black_box(nb.predict_batch(black_box(&vecs))))
    });

    let kw = KeywordBaseline::default();
    group.bench_function("keyword_baseline_predict", |b| {
        b.iter(|| {
            let hits = texts.iter().filter(|t| kw.predict(black_box(t))).count();
            black_box(hits)
        })
    });
    group.finish();

    // Ablation quality notes.
    let nb_pred = nb.predict_batch(&vecs);
    quality_note(
        "naive-bayes(train-set)",
        &ClassificationReport::from_labels(&nb_pred, &labels),
    );
    let kw_pred: Vec<bool> = texts.iter().map(|t| kw.predict(t)).collect();
    quality_note(
        "keyword-rules(train-set)",
        &ClassificationReport::from_labels(&kw_pred, &labels),
    );
}

/// Per-document classify cost: the fused pass against materialising the
/// TF-IDF vector, on the same documents and the same fitted model.
fn bench_classify(c: &mut Criterion) {
    let fixture = BenchFixture::new();
    let (texts, labels) = fixture.training_sets(0.05);
    let (deployed, _) = DoxClassifier::train(&texts, &labels, 7);
    let (vect, clf) = (deployed.vectorizer(), deployed.model());
    let fused = || {
        texts
            .iter()
            .filter(|t| deployed.is_dox(black_box(t)))
            .count()
    };
    let materialised = || {
        texts
            .iter()
            .filter(|t| clf.decision_function(&vect.transform(black_box(t))) > 0.0)
            .count()
    };
    assert_eq!(fused(), materialised(), "the two paths must agree");

    let mut group = c.benchmark_group("classify");
    group.sample_size(10);
    group.throughput(Throughput::Elements(texts.len() as u64));
    group.bench_function("is_dox", |b| b.iter(fused));
    group.bench_function("transform_decision_function", |b| b.iter(materialised));
    group.finish();

    let per_doc_ns = |f: &dyn Fn() -> usize| {
        let start = Instant::now();
        for _ in 0..5 {
            black_box(f());
        }
        start.elapsed().as_nanos() as f64 / (5 * texts.len()) as f64
    };
    let (fused_ns, materialised_ns) = (per_doc_ns(&fused), per_doc_ns(&materialised));
    dox_obs::emit!(
        dox_obs::Level::Info,
        "bench.classify",
        "per-call",
        docs = texts.len(),
        is_dox_ns = format!("{fused_ns:.0}"),
        transform_decision_ns = format!("{materialised_ns:.0}"),
        ratio = format!("{:.2}", materialised_ns / fused_ns),
    );
}

/// Median seconds of `passes` timed runs of `f`.
fn median_secs(passes: usize, f: &dyn Fn() -> usize) -> f64 {
    let mut secs: Vec<f64> = (0..passes)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[passes / 2]
}

/// Classify and HTML-convert cost per document and per byte on the
/// study's own stream: every collected document, chan posts converted
/// first, through the detector the study deploys.
fn bench_study_stream(c: &mut Criterion) {
    let study = Study::new(StudyConfig::builder().seed(7).scale(0.01).build());
    let detector = study.train_detector().expect("training succeeds");
    let (mut texts, mut html) = (Vec::new(), Vec::new());
    study
        .synthetic_stream(&mut |_, collected| {
            let body = collected.doc.body;
            if collected.doc.source.is_html() {
                texts.push(html_to_text(&body));
                html.push(body);
            } else {
                texts.push(body);
            }
            ControlFlow::Continue(())
        })
        .expect("fault-free stream");
    let text_bytes: usize = texts.iter().map(String::len).sum();
    let html_bytes: usize = html.iter().map(String::len).sum();
    let classify = || {
        texts
            .iter()
            .filter(|t| detector.is_dox(black_box(t)))
            .count()
    };
    let convert = || html.iter().map(|h| html_to_text(black_box(h)).len()).sum();

    let mut group = c.benchmark_group("study_stream");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(text_bytes as u64));
    group.bench_function("is_dox", |b| b.iter(classify));
    group.throughput(Throughput::Bytes(html_bytes as u64));
    group.bench_function("html_to_text", |b| b.iter(convert));
    group.finish();

    let (classify_s, convert_s) = (median_secs(9, &classify), median_secs(9, &convert));
    dox_obs::emit!(
        dox_obs::Level::Info,
        "bench.study_stream",
        "per-doc",
        docs = texts.len(),
        html_docs = html.len(),
        is_dox_ns_per_doc = format!("{:.0}", classify_s * 1e9 / texts.len() as f64),
        is_dox_mb_per_s = format!("{:.0}", text_bytes as f64 / classify_s / 1e6),
        html_to_text_ns_per_doc = format!("{:.0}", convert_s * 1e9 / html.len() as f64),
        html_to_text_mb_per_s = format!("{:.0}", html_bytes as f64 / convert_s / 1e6),
    );
}

criterion_group!(benches, bench_training, bench_classify, bench_study_stream);
criterion_main!(benches);
