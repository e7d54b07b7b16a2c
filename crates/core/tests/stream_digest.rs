//! Pins the synthetic corpus stream at byte level.
//!
//! The stream is a byte-level pure function of `(config, seed)`: every
//! collected document, the classifier's training set and the text the
//! engine extracts from each chan post. This test folds all three into a
//! hand-written FNV-1a digest (stable across toolchains, unlike
//! `DefaultHasher`) and compares it with constants recorded before the
//! generator was last optimised, so a renderer rewrite that changes one
//! byte or one RNG draw fails here rather than as a report drift.
//!
//! A *deliberate* generator change (new paste kind, different volumes,
//! a reordered draw) updates the constants below and records the change,
//! with the reason, in CHANGES.md.

use dox_core::study::{Study, StudyConfig};
use dox_geo::alloc::Allocation;
use dox_geo::model::World;
use dox_synth::corpus::CorpusGenerator;
use dox_textkit::html::html_to_text;
use std::ops::ControlFlow;

/// 64-bit FNV-1a, folded incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        // A separator, so adjacent fields cannot trade bytes.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }
}

/// Digests of `(stream, training set, chan html_to_text)` and the number
/// of collected documents, for the paper mix at scale 0.01.
fn digests(seed: u64) -> (u64, u64, u64, u64) {
    digests_of(StudyConfig::builder().seed(seed).scale(0.01).build())
}

/// The same digests for a dox-dense mix: every source's dox share raised
/// to 6 % of its documents (perfbench's `study-dense` mix), so the dox
/// renderer writes ~1k doxes here instead of the paper mix's ~50.
fn dense_digests(seed: u64) -> (u64, u64, u64, u64) {
    let mut cfg = StudyConfig::builder().seed(seed).scale(0.01).build();
    for period in [&mut cfg.synth.period1, &mut cfg.synth.period2] {
        for source in [
            &mut period.pastebin,
            &mut period.chan4_b,
            &mut period.chan4_pol,
            &mut period.chan8_pol,
            &mut period.chan8_baphomet,
        ] {
            source.doxes = source.doxes.max(source.total * 6 / 100);
        }
    }
    digests_of(cfg)
}

fn digests_of(cfg: StudyConfig) -> (u64, u64, u64, u64) {
    // The study's first generator call is the training set.
    let world = World::generate(&cfg.world, cfg.seed);
    let alloc = Allocation::generate(&world, &cfg.alloc, cfg.seed);
    let (texts, labels) = CorpusGenerator::new(&world, &alloc, cfg.synth.clone()).training_sets();
    let mut training = Fnv::new();
    for (text, label) in texts.iter().zip(&labels) {
        training.feed(text.as_bytes());
        training.feed(&[u8::from(*label)]);
    }

    let (mut stream, mut html, mut docs) = (Fnv::new(), Fnv::new(), 0u64);
    Study::new(cfg)
        .synthetic_stream(&mut |period, collected| {
            let json = serde_json::to_string(&(period, &collected)).expect("serializable");
            stream.feed(json.as_bytes());
            if collected.doc.source.is_html() {
                html.feed(html_to_text(&collected.doc.body).as_bytes());
            }
            docs += 1;
            ControlFlow::Continue(())
        })
        .expect("fault-free stream");
    (stream.0, training.0, html.0, docs)
}

#[test]
fn stream_is_pinned_seed_7() {
    assert_eq!(
        digests(7),
        (
            2_017_050_969_979_703_345,
            2_928_196_981_343_708_424,
            13_469_253_876_656_817_405,
            17_379
        )
    );
}

#[test]
fn stream_is_pinned_seed_11() {
    assert_eq!(
        digests(11),
        (
            10_801_560_210_673_792_011,
            9_865_763_345_683_302_591,
            12_106_121_167_717_501_721,
            17_379
        )
    );
}

#[test]
fn dense_stream_is_pinned_seed_7() {
    assert_eq!(
        dense_digests(7),
        (
            1_551_349_059_905_737_060,
            2_928_196_981_343_708_424,
            17_234_087_010_323_812_963,
            17_379
        )
    );
}

#[test]
fn dense_stream_is_pinned_seed_11() {
    assert_eq!(
        dense_digests(11),
        (
            13_649_831_551_643_266_951,
            9_865_763_345_683_302_591,
            12_447_357_918_032_755_179,
            17_379
        )
    );
}
