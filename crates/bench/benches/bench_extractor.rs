//! Extractor benchmarks (paper Table 2): throughput of the full extraction
//! record over realistic dox bodies, plus the per-pass split (line parse
//! vs OSN handles vs sensitive fields vs credits). The OSN and field
//! passes read lines parsed once outside the timed loop, as `extract`
//! shares one parse between them.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dox_bench::BenchFixture;
use dox_extract::credits::extract_credits;
use dox_extract::fields::extract_fields;
use dox_extract::lines::parse_lines;
use dox_extract::osn::extract_osn;
use dox_extract::record::extract;
use std::hint::black_box;

fn bench_extraction(c: &mut Criterion) {
    let fixture = BenchFixture::new();
    let bodies = fixture.dox_bodies(200);
    let total_bytes: u64 = bodies.iter().map(|b| b.len() as u64).sum();
    let parsed: Vec<_> = bodies.iter().map(|b| parse_lines(b)).collect();

    let mut group = c.benchmark_group("extract");
    group.throughput(Throughput::Bytes(total_bytes));
    group.bench_function("full_record_200_doxes", |b| {
        b.iter(|| {
            for body in &bodies {
                black_box(extract(black_box(body)));
            }
        })
    });
    group.bench_function("lines_pass", |b| {
        b.iter(|| {
            for body in &bodies {
                black_box(parse_lines(black_box(body)));
            }
        })
    });
    group.bench_function("osn_pass", |b| {
        b.iter(|| {
            for (body, lines) in bodies.iter().zip(&parsed) {
                black_box(extract_osn(black_box(body), lines));
            }
        })
    });
    group.bench_function("fields_pass", |b| {
        b.iter(|| {
            for (body, lines) in bodies.iter().zip(&parsed) {
                black_box(extract_fields(black_box(body), lines));
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

criterion_group!(benches, bench_extraction);
criterion_main!(benches);
