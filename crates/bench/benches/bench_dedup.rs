//! De-duplication benchmarks (paper §3.1.4): the streaming dedup over a
//! realistic dox stream with reposts.

use criterion::{criterion_group, criterion_main, Criterion};
use dox_bench::BenchFixture;
use dox_core::dedup::{Deduplicator, DuplicateKind};
use dox_extract::record::{extract, ExtractedDox};
use dox_obs::Level;
use std::hint::black_box;

/// A stream of doxes in which every third document re-posts an earlier one
/// (half of those byte-exact, half with a cosmetic suffix).
fn duplicate_stream(bodies: &[String]) -> Vec<(String, ExtractedDox)> {
    let mut out: Vec<(String, ExtractedDox)> = Vec::new();
    for (i, body) in bodies.iter().enumerate() {
        let text = if i % 3 == 2 && i >= 3 {
            let orig = &out[i - 3].0;
            if i % 2 == 0 {
                orig.clone()
            } else {
                format!("{orig}\nUPDATE: reposted")
            }
        } else {
            body.clone()
        };
        let rec = extract(&text);
        out.push((text, rec));
    }
    out
}

fn bench_dedup(c: &mut Criterion) {
    dox_obs::global().events().set_echo(true);
    let fixture = BenchFixture::new();
    let stream = duplicate_stream(&fixture.dox_bodies(300));

    let mut group = c.benchmark_group("dedup");
    group.bench_function("paper_two_pass_300_docs", |b| {
        b.iter(|| {
            let mut d = Deduplicator::new();
            for (i, (text, rec)) in stream.iter().enumerate() {
                black_box(d.check(i as u64, text, rec));
            }
            black_box(d)
        })
    });
    group.finish();

    // Report the funnel split once (feeds the Figure 1 notes).
    let mut d = Deduplicator::new();
    let (mut exact, mut account_set, mut unique) = (0u64, 0u64, 0u64);
    for (i, (text, rec)) in stream.iter().enumerate() {
        match d.check(i as u64, text, rec) {
            Some((DuplicateKind::ExactBody, _)) => exact += 1,
            Some((DuplicateKind::AccountSet, _)) => account_set += 1,
            None => unique += 1,
        }
    }
    dox_obs::emit!(
        Level::Info,
        "bench.fig1.dedup",
        "funnel split",
        total = stream.len(),
        exact = exact,
        account_set = account_set,
        unique = unique,
    );
}

criterion_group!(benches, bench_dedup);
criterion_main!(benches);
