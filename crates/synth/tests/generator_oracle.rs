//! Differential properties: the corpus generator's text renderers write
//! the same bytes and make the same RNG draws as the reference copies in
//! `oracle/`, which build their bodies with `write!`/`format!`.
//!
//! Every check also compares the next `next_u64` after the call, so a
//! renderer that draws one word more or less, or in another order, fails
//! even where its text happens to match. Each seeded call first reads
//! `seed % 16` words, so calls start at every offset of a keystream block.

mod oracle;

use dox_synth::corpus::wrap_chan_html;
use dox_synth::markov::MarkovChain;
use dox_synth::names::PROSE_SEED;
use dox_synth::pastes::PasteGenerator;
use dox_synth::truth::PasteKind;
use rand::RngExt;
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Seeded calls per paste kind, per Markov check and per chan check.
const CALLS: u64 = 10_000;

const KINDS: [PasteKind; 11] = [
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
];

/// Two generators at the same stream position: seeded with `seed`, then
/// advanced by `seed % 16` words.
fn rng_pair(seed: u64) -> (ChaCha8Rng, ChaCha8Rng) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..seed % 16 {
        rng.next_u32();
    }
    (rng.clone(), rng)
}

/// Run `lib` and `reference` on one seeded stream each and require the
/// same text and the same next draw.
fn assert_same(
    what: &str,
    seed: u64,
    lib: impl FnOnce(&mut ChaCha8Rng) -> String,
    reference: impl FnOnce(&mut ChaCha8Rng) -> String,
) {
    let (mut a, mut b) = rng_pair(seed);
    assert_eq!(lib(&mut a), reference(&mut b), "{what}, seed {seed}");
    assert_eq!(a.next_u64(), b.next_u64(), "{what}, seed {seed}: draws");
}

#[test]
fn every_paste_kind_matches_the_oracle() {
    let pastes = PasteGenerator::new(0.0);
    let prose = oracle::markov::MarkovChain::prose();
    for kind in KINDS {
        for seed in 0..CALLS {
            assert_same(
                &format!("{kind:?}"),
                seed,
                |rng| pastes.generate_kind(kind, rng),
                |rng| oracle::pastes::generate_kind(&prose, kind, rng),
            );
        }
    }
}

#[test]
fn markov_generate_matches_the_oracle() {
    let chain = MarkovChain::prose();
    let reference = oracle::markov::MarkovChain::prose();
    for seed in 0..CALLS {
        let n_words = (seed as usize * 37) % 300;
        assert_same(
            &format!("{n_words} words"),
            seed,
            |rng| chain.generate(n_words, rng),
            |rng| reference.generate(n_words, rng),
        );
    }
    // Tiny corpora: every walk hits dead ends and restarts.
    for corpus in ["a b c", "x y x y z x y q r", PROSE_SEED] {
        let chain = MarkovChain::train(corpus);
        let reference = oracle::markov::MarkovChain::train(corpus);
        for seed in 0..200 {
            let n_words = seed as usize % 24;
            assert_same(
                &format!("{corpus:.10}: {n_words} words"),
                seed,
                |rng| chain.generate(n_words, rng),
                |rng| reference.generate(n_words, rng),
            );
        }
    }
}

/// Fragments of adversarial chan text: every byte the wrapper escapes,
/// quotes it does not, multi-byte UTF-8 of each length, control bytes and
/// markup that is already escaped.
const PIECES: &[&str] = &[
    "&",
    "<",
    ">",
    "'",
    "\n",
    "\"",
    "\r",
    "\t",
    " ",
    "a",
    "Z",
    "0",
    "\u{0}",
    "\u{7f}",
    "\u{80}",
    "é",
    "ß",
    "日本",
    "🦀",
    "\u{feff}",
    "&amp;",
    "&#039;",
    "<br>",
    "&gt;&gt;",
    "line",
    "\n\n",
    "drop the dox",
    "0123456789abcdef",
];

/// A seeded text of 0..64 pieces (the empty text included).
fn adversarial_text(rng: &mut ChaCha8Rng) -> String {
    let n = rng.random_range(0..64usize);
    (0..n)
        .map(|_| PIECES[rng.random_range(0..PIECES.len())])
        .collect()
}

#[test]
fn wrap_chan_html_matches_the_oracle() {
    let mut fixed: Vec<String> = [
        "",
        "no newline at all",
        "\n",
        "&<>'\n",
        "ends with an escape&",
        "'starts quoted",
        "日本語のテキスト\n🦀 crab & <b>",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    // Every byte value below 0x80 once, and every single-piece text.
    fixed.push((0u8..0x80).map(char::from).collect());
    fixed.extend(PIECES.iter().map(|p| p.to_string()));
    // Long runs without a special byte, then one at every offset.
    for at in 0..40 {
        let mut text = "x".repeat(40);
        text.insert(at, '&');
        fixed.push(text);
    }
    for (seed, text) in fixed.iter().enumerate() {
        assert_same(
            &format!("{text:?}"),
            seed as u64,
            |rng| wrap_chan_html(text, rng),
            |rng| oracle::chan::wrap_chan_html(text, rng),
        );
    }

    let mut texts = ChaCha8Rng::seed_from_u64(0xC4A7);
    for seed in 0..CALLS {
        let text = adversarial_text(&mut texts);
        assert_same(
            &format!("{text:?}"),
            seed,
            |rng| wrap_chan_html(&text, rng),
            |rng| oracle::chan::wrap_chan_html(&text, rng),
        );
    }
}

#[test]
fn generated_paste_bodies_wrap_like_the_oracle() {
    // The wrapper's real input: the bodies the paste generators write.
    let pastes = PasteGenerator::new(0.0);
    let mut bodies = ChaCha8Rng::seed_from_u64(0xB0D1);
    for seed in 0..2_000 {
        let kind = KINDS[seed as usize % KINDS.len()];
        let body = pastes.generate_kind(kind, &mut bodies);
        assert_same(
            &format!("{kind:?}"),
            seed,
            |rng| wrap_chan_html(&body, rng),
            |rng| oracle::chan::wrap_chan_html(&body, rng),
        );
    }
}
