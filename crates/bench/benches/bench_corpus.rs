//! Corpus-generation benchmarks: the collect layer standing in for the
//! paper's 1.74 M scraped pastes and chan posts (§3.1.1, Figure 1).
//!
//! Rows: one test-scale period through `CorpusGenerator::generate_period`
//! (generator construction included, and timed alone beside it), one
//! 160-word Markov prose body, one body of each paste kind, and
//! `html_to_text` over the chan bodies that period produced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dox_bench::BenchFixture;
use dox_synth::markov::MarkovChain;
use dox_synth::pastes::PasteGenerator;
use dox_synth::truth::PasteKind;
use dox_textkit::html::html_to_text;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::ops::ControlFlow;

/// `SynthConfig::test_scale()`.
const TEST_SCALE: f64 = 0.002;

fn bench_corpus(c: &mut Criterion) {
    let fixture = BenchFixture::new();
    let mut chan_bodies = Vec::new();
    let mut docs = 0u64;
    let _ = fixture
        .generator(TEST_SCALE)
        .generate_period(2, &mut |doc| {
            docs += 1;
            if doc.source.is_html() {
                chan_bodies.push(doc.body);
            }
            ControlFlow::Continue(())
        });

    let mut group = c.benchmark_group("corpus");
    group.sample_size(10);
    group.bench_function("generator_new", |b| {
        b.iter(|| black_box(fixture.generator(TEST_SCALE)))
    });
    group.throughput(Throughput::Elements(docs));
    group.bench_function("generate_period_2_test_scale", |b| {
        b.iter(|| {
            let mut n = 0u64;
            let _ = fixture
                .generator(TEST_SCALE)
                .generate_period(2, &mut |doc| {
                    n += black_box(doc).id;
                    ControlFlow::Continue(())
                });
            n
        })
    });
    group.finish();

    let mut group = c.benchmark_group("paste");
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let chain = MarkovChain::prose();
    group.bench_function("markov_generate_160", |b| {
        b.iter(|| chain.generate(black_box(160), &mut rng))
    });
    let pastes = PasteGenerator::new(0.0);
    for kind in [
        PasteKind::Code,
        PasteKind::Log,
        PasteKind::Config,
        PasteKind::Chat,
        PasteKind::Prose,
        PasteKind::CredentialDump,
        PasteKind::UserList,
        PasteKind::FormData,
        PasteKind::ProfileCard,
        PasteKind::DoxTutorial,
        PasteKind::DoxDiscussion,
    ] {
        group.bench_function(
            BenchmarkId::new("generate_kind", format!("{kind:?}")),
            |b| b.iter(|| pastes.generate_kind(black_box(kind), &mut rng)),
        );
    }
    group.finish();

    let mut group = c.benchmark_group("html2text");
    group.throughput(Throughput::Elements(chan_bodies.len() as u64));
    group.bench_function("generated_chan_bodies", |b| {
        b.iter(|| {
            for body in &chan_bodies {
                black_box(html_to_text(black_box(body)));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_corpus);
criterion_main!(benches);
