//! Vectorization throughput of the fitted TF-IDF representation (the
//! paper's, at scikit-learn's defaults): the materialised `transform`
//! and the fit.
//!
//! Feeds into Table 1: the vectorizer dominates per-document
//! classification cost across the 1.74 M-document stream.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dox_bench::BenchFixture;
use dox_textkit::tfidf::TfidfVectorizer;
use std::hint::black_box;

fn bench_vectorizers(c: &mut Criterion) {
    let fixture = BenchFixture::new();
    let (texts, _) = fixture.training_sets(0.02);
    let docs: Vec<&str> = texts.iter().map(String::as_str).take(500).collect();
    let total_bytes: u64 = docs.iter().map(|d| d.len() as u64).sum();

    let mut group = c.benchmark_group("vectorize");
    group.throughput(Throughput::Bytes(total_bytes));

    let mut tfidf = TfidfVectorizer::default();
    tfidf.fit(&docs);
    group.bench_function(BenchmarkId::new("tfidf_transform", docs.len()), |b| {
        b.iter(|| {
            for d in &docs {
                black_box(tfidf.transform(black_box(d)));
            }
        })
    });

    group.bench_function("tfidf_fit_500_docs", |b| {
        b.iter(|| {
            let mut v = TfidfVectorizer::default();
            v.fit(black_box(&docs));
            black_box(v);
        })
    });
    group.finish();
}

criterion_group!(benches, bench_vectorizers);
criterion_main!(benches);
