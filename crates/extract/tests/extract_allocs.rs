//! Allocation guard for `dox_extract::extract`.
//!
//! This binary installs a counting global allocator. After one warm-up
//! pass over the corpus on this thread (the scan's reused buffers grow to
//! the largest document once), one `extract` call must allocate at most
//! once per heap buffer the returned record owns: every `String` and `Vec`
//! is allocated once, at its final size, and nothing else is. A document
//! with non-ASCII text may pay [`NON_ASCII_SLACK`] more, because
//! `str::to_lowercase` can outgrow the buffer it starts with.

use dox_extract::{extract, ExtractedDox};
use dox_geo::alloc::{AllocConfig, Allocation};
use dox_geo::model::{World, WorldConfig};
use dox_synth::config::SynthConfig;
use dox_synth::corpus::CorpusGenerator;
use dox_textkit::html::html_to_text;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

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

/// Extra allocations allowed for a document with non-ASCII text.
const NON_ASCII_SLACK: u64 = 2;

/// `extract(text)` and the allocations it made.
fn counted_extract(text: &str) -> (ExtractedDox, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let record = extract(text);
    (record, ALLOCATIONS.with(Cell::get) - before)
}

/// The heap buffers `record` owns: each non-empty `String` and `Vec`.
fn owned_buffers(record: &ExtractedDox) -> u64 {
    let s = |s: &String| u64::from(s.capacity() > 0);
    let o = |o: &Option<String>| o.as_ref().map_or(0, s);
    let strings = |v: &[String]| v.iter().map(s).sum::<u64>();
    let vec = |cap: usize| u64::from(cap > 0);
    let f = &record.fields;
    vec(record.osn.capacity())
        + record.osn.iter().map(|r| s(&r.handle)).sum::<u64>()
        + [&f.first_name, &f.last_name, &f.address, &f.school, &f.isp]
            .into_iter()
            .map(o)
            .sum::<u64>()
        + [
            &f.phones,
            &f.emails,
            &f.ssns,
            &f.credit_cards,
            &f.passwords,
            &f.usernames,
        ]
        .into_iter()
        .map(|v| vec(v.capacity()) + strings(v))
        .sum::<u64>()
        + vec(f.ips.capacity())
        + vec(f.family.capacity())
        + f.family.iter().map(|(r, n)| s(r) + s(n)).sum::<u64>()
        + vec(record.credits.capacity())
        + record
            .credits
            .iter()
            .map(|c| s(&c.alias) + o(&c.twitter))
            .sum::<u64>()
}

/// Every dox of the study corpus at scale 0.01 (seed 7), plus the doxes of
/// the dense mix (every source at 6% doxes), as the pipeline sees them.
fn corpus_doxes() -> Vec<String> {
    let world = World::generate(&WorldConfig::default(), 7);
    let alloc = Allocation::generate(&world, &AllocConfig::default(), 7);
    let mut out = Vec::new();
    for dense in [false, true] {
        let mut config = SynthConfig {
            seed: 7,
            ..SynthConfig::at_scale(0.01)
        };
        if dense {
            for period in [&mut config.period1, &mut config.period2] {
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
        }
        let mut generator = CorpusGenerator::new(&world, &alloc, config);
        let mut keep = |doc: dox_synth::corpus::SynthDoc| {
            if doc.truth.is_dox() {
                out.push(if doc.source.is_html() {
                    html_to_text(&doc.body)
                } else {
                    doc.body
                });
            }
            ControlFlow::Continue(())
        };
        let _ = generator.generate_period(1, &mut keep);
        let _ = generator.generate_period(2, &mut keep);
    }
    out
}

#[test]
fn extract_allocates_only_what_the_record_keeps() {
    let doxes = corpus_doxes();
    assert!(doxes.len() > 500, "{} doxes", doxes.len());
    for text in &doxes {
        std::hint::black_box(extract(text));
    }
    let (mut records, mut allocations) = (0u64, 0u64);
    for text in &doxes {
        let (record, n) = counted_extract(text);
        let owned = owned_buffers(&record);
        assert!(
            n <= owned,
            "{n} allocations for a record owning {owned} buffers: {text:?}"
        );
        records += owned;
        allocations += n;
    }
    assert_eq!(allocations, records, "every owned buffer is allocated once");
}

#[test]
fn non_ascii_documents_stay_within_the_slack() {
    let docs = [
        "Email: Ünï.Çode@Mail.Example\nig: \u{212A}aia_s\nName: élodie straße",
        "İnsta: victim_1\nfb: https://facebook.com/Some.One\ndropped by Ǆemal, thanks to Ωmega_1",
        "名前: 山田太郎\nfamily; Jürgen Groß (father)\naddress: 12 Straße, Zürich 80331",
    ];
    for text in docs {
        std::hint::black_box(extract(text));
        let (record, n) = counted_extract(text);
        let owned = owned_buffers(&record);
        assert!(
            n <= owned + NON_ASCII_SLACK,
            "{n} allocations for {owned} buffers: {text:?}"
        );
    }
}

#[test]
fn an_empty_record_allocates_nothing() {
    std::hint::black_box(extract("warm up"));
    for text in ["", "\n\n", "just some prose without any fields", "a: b"] {
        let (record, n) = counted_extract(text);
        assert_eq!(n, owned_buffers(&record), "{text:?}");
        assert_eq!(n, 0, "{text:?}");
    }
}
