//! Allocation guard for the classify hot path.
//!
//! This binary installs a counting global allocator. After one warm-up
//! call per thread, `DoxClassifier::is_dox` must make no heap allocation
//! for an ASCII document and at most one — the `str::to_lowercase` copy —
//! for any other, and the engine stage must not copy a plain-text body
//! it rejects.

use dox_core::training::DoxClassifier;
use dox_engine::{classify_and_extract, StageLocal};
use dox_geo::alloc::{AllocConfig, Allocation};
use dox_geo::model::{World, WorldConfig};
use dox_osn::clock::SimTime;
use dox_sites::collect::CollectedDoc;
use dox_synth::config::SynthConfig;
use dox_synth::corpus::{CorpusGenerator, Source, SynthDoc};
use dox_synth::truth::{GroundTruth, PasteKind};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread count of allocations. The
/// default `realloc` and `alloc_zeroed` go through `alloc`, so growth is
/// counted too.
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; counting only
// updates a const-initialized thread-local integer, which never allocates.
// dox-lint:allow(unsafe-audit) a global allocator can only be installed through an unsafe trait
unsafe impl GlobalAlloc for CountingAlloc {
    // dox-lint:allow(unsafe-audit) the caller upholds `GlobalAlloc::alloc`'s contract
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    // dox-lint:allow(unsafe-audit) `ptr` came from `alloc` above with this `layout`
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn classifier() -> DoxClassifier {
    let world = World::generate(&WorldConfig::default(), 31);
    let alloc = Allocation::generate(&world, &AllocConfig::default(), 31);
    let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
    let (texts, labels) = gen.training_sets();
    DoxClassifier::train(&texts, &labels, 31).0
}

#[test]
fn is_dox_allocates_nothing_per_ascii_document_and_once_otherwise() {
    let clf = classifier();
    let big = "Name: John Example\nAddress: 12 Maple Street\nPhone: (312) 555-0188\n".repeat(40);
    let ascii = [
        "Name: John Example\nAge: 19\nIP: 73.54.12.9\ndropped by DoxLord_3",
        "fn main() { println!(\"hello\"); } // just some rust code",
        "",
        "a I x",
        big.as_str(),
    ];
    let non_ascii = [
        "Straße 12, Zürich — phone ✆ 555-0188",
        "ΟΔΥΣΣΕΥΣ σοφία ΣΟΦΙΑ",
        "名前: 山田太郎 住所: 東京都",
        "naïve café 😀 dox",
    ];
    // Warm-up: the per-thread scratch grows to the largest document once.
    let warm = clf.is_dox(&big);
    for doc in ascii {
        let mut verdict = !warm;
        let n = allocations_during(|| verdict = clf.is_dox(doc));
        assert_eq!(n, 0, "{n} allocations classifying {doc:.40?}");
        assert_eq!(verdict, clf.is_dox(doc));
    }
    for doc in non_ascii {
        let n = allocations_during(|| {
            std::hint::black_box(clf.is_dox(doc));
        });
        assert!(n <= 1, "{n} allocations classifying {doc:?}");
    }
}

#[test]
fn the_stage_rejects_a_plain_text_document_without_allocating() {
    let clf = classifier();
    let collected = CollectedDoc {
        doc: SynthDoc {
            id: 1,
            source: Source::Pastebin,
            posted_at: SimTime(0),
            body: "fn main() { println!(\"hello\"); } // just some rust code".into(),
            deleted_after: None,
            truth: GroundTruth::Paste {
                kind: PasteKind::Code,
            },
        },
        collected_at: SimTime(5),
    };
    let mut timings = StageLocal::default();
    let warm = classify_and_extract(&clf, &collected, &mut timings);
    assert!(warm.is_none(), "the code paste is not a dox");
    let n = allocations_during(|| {
        std::hint::black_box(classify_and_extract(&clf, &collected, &mut timings));
    });
    assert_eq!(n, 0, "{n} allocations staging a rejected paste");
}
