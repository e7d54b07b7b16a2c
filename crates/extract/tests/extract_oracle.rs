//! Differential properties: `dox_extract::extract`, which parses each
//! document's lines once and shares the borrowed parse between its
//! passes, returns exactly the record of the reference extractor in
//! `oracle/` — on the generated study corpus and on seeded adversarial
//! documents.
//!
//! The reference credit search slices the original text with offsets found
//! in a lowercased copy, which goes wrong where lowercasing changes a
//! char's UTF-8 length (`İ`, `ẞ`, U+212A KELVIN SIGN). The compared inputs
//! hold no such char (the corpus check asserts it); on text that does, the
//! library is held to the no-panic property below and to the credit
//! regression test in `src/record.rs`.

mod oracle;

use dox_extract::extract;
use dox_geo::alloc::{AllocConfig, Allocation};
use dox_geo::model::{World, WorldConfig};
use dox_synth::config::SynthConfig;
use dox_synth::corpus::CorpusGenerator;
use dox_textkit::html::html_to_text;
use proptest::collection::vec;
use proptest::prelude::*;
use std::ops::ControlFlow;

/// Whether every char of `text` lowercases to the same UTF-8 length, so
/// the reference credit search reads the text correctly.
fn comparable(text: &str) -> bool {
    text.chars()
        .all(|c| c.to_lowercase().map(char::len_utf8).sum::<usize>() == c.len_utf8())
}

fn assert_matches_oracle(text: &str) {
    assert_eq!(extract(text), oracle::extract(text), "text: {text:?}");
}

/// Every dox and every 20th non-dox of the study corpus at scale 0.01,
/// chan bodies converted from HTML as the pipeline does.
#[test]
fn study_corpus_matches_the_oracle() {
    for seed in [7u64, 11] {
        let world = World::generate(&WorldConfig::default(), seed);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), seed);
        let config = SynthConfig {
            seed,
            ..SynthConfig::at_scale(0.01)
        };
        let mut generator = CorpusGenerator::new(&world, &alloc, config);
        let (mut doxes, mut pastes, mut non_dox_seen) = (0usize, 0usize, 0usize);
        let mut check = |doc: dox_synth::corpus::SynthDoc| {
            let is_dox = doc.truth.is_dox();
            if !is_dox {
                non_dox_seen += 1;
                if non_dox_seen % 20 != 0 {
                    return ControlFlow::Continue(());
                }
            }
            let text = if doc.source.is_html() {
                html_to_text(&doc.body)
            } else {
                doc.body
            };
            assert!(comparable(&text), "corpus text left out: {text:?}");
            assert_matches_oracle(&text);
            *(if is_dox { &mut doxes } else { &mut pastes }) += 1;
            ControlFlow::Continue(())
        };
        let _ = generator.generate_period(1, &mut check);
        let _ = generator.generate_period(2, &mut check);
        assert!(
            doxes > 20 && pastes > 200,
            "seed {seed}: {doxes} doxes, {pastes} pastes"
        );
    }
}

/// Fragments adversarial documents are assembled from: overlapping and
/// adjacent profile hosts, path keywords, labels in every shape and case,
/// the field shapes, credit phrases in mixed case, CRLF and bare CR, and
/// non-ASCII handles and labels.
const PIECES: &[&str] = &[
    "facebook.com/",
    "m.facebook.com/",
    "www.facebook.com/",
    "notfacebook.com/",
    "fb.me/",
    "plus.google.com/+",
    "plus.google.com/",
    "twitter.com/",
    "mobile.twitter.com/",
    "instagram.com/",
    "youtube.com/",
    "youtu.be/",
    "twitch.tv/",
    "www.twitch.tv/",
    "https://",
    "/",
    "//",
    "victim_1",
    "Kaia.S",
    "a.b.c.",
    "xy",
    "watch",
    "Login",
    "ünï",
    "名前",
    "victim-pics",
    "Facebook",
    "FB",
    "fbs",
    "insta",
    "IG",
    "twitter",
    "g+",
    "skype",
    "Name",
    "Age",
    "DOB",
    "Address",
    "Phone",
    "Email",
    "Password",
    "Known aliases",
    "family",
    "Family:",
    "ISP",
    "School",
    "ÜBER",
    "Ñame",
    "mother",
    ": ",
    "; ",
    ":",
    ";",
    " ",
    "  ",
    "\t",
    " - ",
    " and ",
    " AND ",
    ", ",
    ",",
    "(",
    ")",
    "@",
    "+",
    ".",
    "\n",
    "\n",
    "\r\n",
    "\r",
    "dropped by ",
    "DROPPED BY ",
    "Doxed By ",
    "dox by ",
    "credit to ",
    "Credits: ",
    ", thanks to ",
    " Thanks To ",
    " with help from ",
    " for ",
    " FOR ",
    "DoxerAlice",
    "@DoxerBob",
    "Charlie (@Chaz_9)",
    "22",
    "200",
    "04/12/1997",
    "1997-04-12",
    "(414) 555-0123",
    "1-312-555-0188",
    "312.555.0188",
    "912-34-5678",
    "9999 1234 5678 9012",
    "9999-1234-5678-9012",
    "Jo.Doe@Mail.Example",
    "73.20.1.5",
    "77 Cedar Lane, Halemouth, NK 10340",
    "Maren Berg (mother)",
    "é",
    "ß",
    "Σ",
    "😀",
    "\u{301}",
];

/// Chars whose lowercase has a different UTF-8 length.
const LENGTH_CHANGING: &[&str] = &["İ", "ẞ", "\u{212A}"];

fn document(pieces: &[usize]) -> String {
    pieces.iter().map(|&i| PIECES[i]).collect()
}

#[test]
fn every_piece_is_comparable() {
    assert!(PIECES.iter().all(|p| comparable(p)));
    assert!(LENGTH_CHANGING.iter().all(|c| !comparable(c)));
}

proptest! {
    #[test]
    fn adversarial_documents_match_the_oracle(pieces in vec(0usize..PIECES.len(), 0..120)) {
        let text = document(&pieces);
        prop_assert_eq!(extract(&text), oracle::extract(&text));
    }

    #[test]
    fn adversarial_lines_match_the_oracle(
        lines in vec((0usize..PIECES.len(), 0usize..PIECES.len(), 0usize..PIECES.len()), 0..40),
        ending in 0usize..2,
    ) {
        let eol = ["\n", "\r\n"][ending];
        let text: String = lines
            .iter()
            .map(|&(a, b, c)| format!("{}{}{}{eol}", PIECES[a], PIECES[b], PIECES[c]))
            .collect();
        prop_assert_eq!(extract(&text), oracle::extract(&text));
    }

    /// Arbitrary Unicode, with the pieces above and the length-changing
    /// chars mixed in: `extract` never panics.
    #[test]
    fn extract_never_panics_on_arbitrary_unicode(
        atoms in vec((0usize..PIECES.len() * 3, 0u32..0x11_0000), 0..300),
    ) {
        let text: String = atoms
            .iter()
            .map(|&(i, code)| match PIECES.get(i) {
                Some(piece) => (*piece).to_string(),
                None if i % 4 == 0 => LENGTH_CHANGING[code as usize % 3].to_string(),
                None => char::from_u32(code).unwrap_or('\u{FFFD}').to_string(),
            })
            .collect();
        let _ = extract(&text);
    }
}

/// Every dox of the dense mix (every source at 6% doxes) at scale 0.01 on
/// seed 13, which no other check or benchmark uses, chan bodies converted
/// from HTML as the pipeline does.
#[test]
fn dense_mix_on_an_unseen_seed_matches_the_oracle() {
    let seed = 13u64;
    let world = World::generate(&WorldConfig::default(), seed);
    let alloc = Allocation::generate(&world, &AllocConfig::default(), seed);
    let mut config = SynthConfig {
        seed,
        ..SynthConfig::at_scale(0.01)
    };
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
    let mut generator = CorpusGenerator::new(&world, &alloc, config);
    let mut doxes = 0usize;
    let mut check = |doc: dox_synth::corpus::SynthDoc| {
        if doc.truth.is_dox() {
            let text = if doc.source.is_html() {
                html_to_text(&doc.body)
            } else {
                doc.body
            };
            assert!(comparable(&text), "corpus text left out: {text:?}");
            assert_matches_oracle(&text);
            doxes += 1;
        }
        ControlFlow::Continue(())
    };
    let _ = generator.generate_period(1, &mut check);
    let _ = generator.generate_period(2, &mut check);
    assert!(doxes > 500, "{doxes} doxes");
}

/// The field grammar's edges: phone, SSN, card, IPv4 and email shapes and
/// near-misses, glued to digits and the bytes the shapes are made of,
/// separated by every kind of line break and by Unicode whitespace, next
/// to non-ASCII letters — where a byte scanner can drift from
/// `split_whitespace`, `trim` and `is_alphanumeric`.
const FIELD_ATOMS: &[&str] = &[
    "312-555-0188",
    "(312) 555-0188",
    "(312)555-0188",
    "(312)  555-0188",
    "1-312-555-0188",
    "1 312.555.0188",
    "1-(312) 555-0188",
    "312.555-0188",
    "31-555-0188",
    "912-34-5678",
    "912-345-678",
    "9999 1234 5678 9012",
    "9999-1234-5678-9012",
    "9999-1234-5678",
    "1234",
    "0042",
    "12345",
    "73.20.1.5",
    "255.255.255.255",
    "256.1.1.1",
    "01.2.3.4",
    "1.2.3",
    "1.2.3.4.5",
    "a@b.co",
    "Jo.Doe@Mail.Example",
    "x@y",
    "@z.com",
    "a@b..c",
    "a@-b.c",
    "0",
    "1",
    "7",
    "55",
    ".",
    "..",
    "-",
    "(",
    ")",
    "@",
    ",",
    ";",
    ":",
    "/",
    " ",
    "  ",
    "\t",
    "\r",
    "\r\n",
    "\n",
    "\u{A0}",
    "\u{2028}",
    "\u{3000}",
    "\u{B}",
    "\u{C}",
    "\u{85}",
    "é",
    "ü",
    "ß",
    "Σ",
    "ñ",
    "名",
    "ig: ",
    "fb ",
    "Phone: ",
    "SSN ",
    "Email: ",
    "IP: ",
    "Age: ",
    "Name: ",
    "user_1",
    "x.y-z",
    "twitter.com/",
];

proptest! {
    #[test]
    fn field_grammar_edges_match_the_oracle(atoms in vec(0usize..FIELD_ATOMS.len(), 0..60)) {
        let text: String = atoms.iter().map(|&i| FIELD_ATOMS[i]).collect();
        prop_assert_eq!(extract(&text), oracle::extract(&text), "text: {:?}", text);
    }
}

#[test]
fn every_field_atom_is_comparable() {
    assert!(FIELD_ATOMS.iter().all(|a| comparable(a)));
}

#[test]
fn empty_text_matches_the_oracle() {
    assert_matches_oracle("");
    assert_matches_oracle("\n\r\n");
}

#[test]
fn overlapping_hosts_match_the_oracle() {
    for text in [
        "m.facebook.com/x_victim",
        "www.facebook.com/x_victim and facebook.com/x_victim",
        "facebook.com/facebook.com/victim_2",
        "m.facebook.com.facebook.com/victim_3",
        "mobile.twitter.com.twitter.com/loud_2",
        "fb: https://m.facebook.com/Some.One - www.twitch.tv/streamer_1",
        "links: mobile.twitter.com/loud_1, twitter.com/loud_1, youtu.be/clip_99",
    ] {
        assert_matches_oracle(text);
    }
}

#[test]
fn ten_thousand_line_documents_match_the_oracle() {
    for stride in [7usize, 31] {
        for eol in ["\n", "\r\n"] {
            let text: String = (0..10_000)
                .map(|i| {
                    let at = i * stride;
                    format!(
                        "{}{}{}{eol}",
                        PIECES[at % PIECES.len()],
                        PIECES[(at / 3) % PIECES.len()],
                        PIECES[(at / 7 + 1) % PIECES.len()],
                    )
                })
                .collect();
            assert_matches_oracle(&text);
        }
    }
}
