//! Extractor benchmarks (paper Table 2): throughput of the full extraction
//! record over realistic dox bodies, the same scan with one rule set at a
//! time (OSN handles, sensitive fields, credits), and `extract` over the
//! dox texts of the dense study mix (every source at 6% doxes, chan posts
//! converted from HTML first, as the pipeline sees them).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dox_bench::BenchFixture;
use dox_core::study::{Study, StudyConfig};
use dox_extract::credits::extract_credits;
use dox_extract::fields::extract_fields;
use dox_extract::osn::extract_osn;
use dox_extract::record::extract;
use dox_textkit::html::html_to_text;
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

fn bench_extraction(c: &mut Criterion) {
    let fixture = BenchFixture::new();
    let bodies = fixture.dox_bodies(200);
    let total_bytes: u64 = bodies.iter().map(|b| b.len() as u64).sum();

    let mut group = c.benchmark_group("extract");
    group.throughput(Throughput::Bytes(total_bytes));
    group.bench_function("full_record_200_doxes", |b| {
        b.iter(|| {
            for body in &bodies {
                black_box(extract(black_box(body)));
            }
        })
    });
    group.bench_function("osn_pass", |b| {
        b.iter(|| {
            for body in &bodies {
                black_box(extract_osn(black_box(body)));
            }
        })
    });
    group.bench_function("fields_pass", |b| {
        b.iter(|| {
            for body in &bodies {
                black_box(extract_fields(black_box(body)));
            }
        })
    });
    group.bench_function("credits_pass", |b| {
        b.iter(|| {
            for body in &bodies {
                black_box(extract_credits(black_box(body)));
            }
        })
    });
    group.finish();
}

/// Dox share of every source in the dense mix, percent of its documents.
const DENSE_DOX_PERCENT: u64 = 6;

/// The dox texts of the dense mix at scale 0.01, seed 11, as the
/// pipeline's extract stage receives them.
fn dense_dox_texts() -> Vec<String> {
    let mut cfg = StudyConfig::builder().seed(11).scale(0.01).build();
    for period in [&mut cfg.synth.period1, &mut cfg.synth.period2] {
        for source in [
            &mut period.pastebin,
            &mut period.chan4_b,
            &mut period.chan4_pol,
            &mut period.chan8_pol,
            &mut period.chan8_baphomet,
        ] {
            source.doxes = source.doxes.max(source.total * DENSE_DOX_PERCENT / 100);
        }
    }
    let mut texts = Vec::new();
    Study::new(cfg)
        .synthetic_stream(&mut |_, collected| {
            let doc = collected.doc;
            if doc.truth.is_dox() {
                texts.push(if doc.source.is_html() {
                    html_to_text(&doc.body)
                } else {
                    doc.body
                });
            }
            ControlFlow::Continue(())
        })
        .expect("fault-free stream");
    texts
}

/// `extract` per dox and per byte on the dense mix.
fn bench_study_dense(c: &mut Criterion) {
    dox_obs::global().events().set_echo(true);
    let texts = dense_dox_texts();
    let bytes: usize = texts.iter().map(String::len).sum();
    let run = || {
        texts
            .iter()
            .map(|t| extract(black_box(t)).osn.len())
            .sum::<usize>()
    };

    let mut group = c.benchmark_group("study_dense");
    group.sample_size(20);
    group.throughput(Throughput::Bytes(bytes as u64));
    group.bench_function("extract", |b| b.iter(run));
    group.finish();

    let mut secs: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            black_box(run());
            start.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    let median = secs[secs.len() / 2];
    dox_obs::emit!(
        dox_obs::Level::Info,
        "bench.extract.study_dense",
        "per-dox",
        doxes = texts.len(),
        bytes = bytes,
        extract_ns_per_dox = format!("{:.0}", median * 1e9 / texts.len() as f64),
        extract_mb_per_s = format!("{:.1}", bytes as f64 / median / 1e6),
    );
}

criterion_group!(benches, bench_extraction, bench_study_dense);
criterion_main!(benches);
