//! Allocation guard for tokenizing the training corpus.
//!
//! This binary installs a counting global allocator. Tokenizing the
//! study's training set at scale 0.03 with `TokenizedCorpus::new` must
//! allocate nothing per document and nothing per distinct token, only
//! when a growing buffer doubles, plus one `str::to_lowercase` copy
//! (grown at most once) per non-ASCII text: with `D` documents and `V`
//! distinct tokens, at most `6 · ⌈log2(D + V)⌉ + 2 · (non-ASCII texts)`
//! allocations.

use dox_core::study::StudyConfig;
use dox_geo::alloc::Allocation;
use dox_geo::model::World;
use dox_synth::corpus::CorpusGenerator;
use dox_textkit::corpus::TokenizedCorpus;
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

/// At scale 0.03 (995 texts, 8,163 distinct tokens, all ASCII) the
/// bound is 6 · ⌈log2(995 + 8,163)⌉ = 84; the scan made 69 allocations
/// when this test was written, and the per-occurrence interning it
/// replaced made 18,515.
#[test]
fn tokenizing_the_training_set_allocates_per_doubling_not_per_document() {
    let cfg = StudyConfig::builder().seed(7).scale(0.03).build();
    let world = World::generate(&cfg.world, cfg.seed);
    let alloc = Allocation::generate(&world, &cfg.alloc, cfg.seed);
    let (texts, _) = CorpusGenerator::new(&world, &alloc, cfg.synth.clone()).training_sets();
    let mut corpus = None;
    let n = allocations_during(|| corpus = Some(TokenizedCorpus::new(&texts)));
    let corpus = corpus.expect("tokenized");
    let all: Vec<usize> = (0..texts.len()).collect();
    let distinct = corpus.fit(&all).n_features();
    let non_ascii = texts.iter().filter(|t| !t.is_ascii()).count();
    // Six buffers grow by doubling: token bytes, token spans, per-token
    // counts, a document's token list, the interning table and the
    // term list; a few more are allocated once at their final size.
    let log2 = (texts.len() + distinct)
        .next_power_of_two()
        .trailing_zeros() as usize;
    let bound = 6 * log2 + 2 * non_ascii;
    assert!(
        n as usize <= bound,
        "{n} allocations for {} texts, {distinct} distinct tokens (bound {bound})",
        texts.len()
    );
}
