//! Property tests for the fused scorer's ASCII pass: on ASCII documents
//! `TfidfVectorizer::dot` scans bytes against a word-byte class table and
//! looks each word up case-folded by its head and tail words, and must
//! still equal `transform(doc).dot_dense(weights)` bit for bit.
//!
//! The documents are ASCII only: words of 1-24 bytes with random case at
//! every byte, digits and `_`, separated by runs of every ASCII
//! punctuation and control byte, 0 to 4 KB long so words straddle every
//! 8- and 64-byte boundary, and some ending on a word's last byte. The
//! vocabulary holds near misses of the 8-byte head/tail lookup: tokens of
//! 8, 9, 16 and 17 bytes, tokens sharing a length and head but not a
//! tail, and tokens sharing a tail but not a head.

use dox_textkit::tfidf::{TfidfConfig, TfidfVectorizer};
use dox_textkit::tokenize::TokenizerConfig;
use proptest::prelude::*;

/// Vocabulary words, already lowercase.
const VOCAB: &[&str] = &[
    "ab",
    "dox",
    "name",
    "x1",
    "__",
    "a_b_c",
    "2024",
    "phone_no",
    // 8 bytes, and 8-byte heads with different tails.
    "abcdefgh",
    "abcdefghi",
    "abcdefghj",
    "abcdefghij",
    "abcdefghik",
    // Same tail, different head.
    "zbcdefghij",
    "abcdefgzij",
    // 16 and 17 bytes, each with a near miss.
    "abcdefghijklmnop",
    "abcdefghijklmnoq",
    "abcdefghijklmnopq",
    "xbcdefghijklmnopq",
    "abcdefghijklmnopr",
    "address_line_0001",
    "address_line_0002",
    "0123456789abcdefghijklmn",
];

/// Every ASCII byte outside `[0-9A-Za-z_]`.
fn separators() -> Vec<u8> {
    (0u8..0x80)
        .filter(|b| !b.is_ascii_alphanumeric() && *b != b'_')
        .collect()
}

/// A splitmix64 stream, so one generated seed builds one document.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

const WORD_BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_";

/// One word: a vocabulary token, a vocabulary token cut or extended by
/// a byte, or random word bytes, 1-24 bytes long — then a random case
/// for every byte.
fn word(rng: &mut Rng) -> Vec<u8> {
    let mut w: Vec<u8> = match rng.below(4) {
        0 | 1 => VOCAB[rng.below(VOCAB.len())].as_bytes().to_vec(),
        2 => {
            let mut w = VOCAB[rng.below(VOCAB.len())].as_bytes().to_vec();
            if rng.below(2) == 0 {
                w.pop();
            } else {
                w.push(WORD_BYTES[rng.below(WORD_BYTES.len())]);
            }
            w
        }
        _ => (0..1 + rng.below(24))
            .map(|_| WORD_BYTES[rng.below(WORD_BYTES.len())])
            .collect(),
    };
    w.truncate(24);
    if w.is_empty() {
        w.push(b'q');
    }
    for b in &mut w {
        if rng.below(2) == 0 {
            b.make_ascii_uppercase();
        }
    }
    w
}

/// An ASCII document of at most `max_len` bytes; with `end_on_word` it
/// ends on the last byte of a word.
fn document(seed: u64, max_len: usize, end_on_word: bool) -> String {
    let seps = separators();
    let mut rng = Rng(seed);
    let mut doc = Vec::new();
    while doc.len() < max_len {
        for _ in 0..1 + rng.below(3) {
            doc.push(seps[rng.below(seps.len())]);
        }
        doc.extend(word(&mut rng));
    }
    doc.truncate(max_len);
    if end_on_word {
        while doc
            .last()
            .is_some_and(|b| !b.is_ascii_alphanumeric() && *b != b'_')
        {
            doc.pop();
        }
    }
    String::from_utf8(doc).expect("ASCII")
}

fn fitted(variant: usize) -> TfidfVectorizer {
    let mut cfg = TfidfConfig::default();
    match variant {
        0 => {}
        1 => cfg.sublinear_tf = true,
        2 => cfg.l2_normalize = false,
        _ => {
            cfg.tokenizer = TokenizerConfig {
                min_token_len: 1,
                ..TokenizerConfig::default()
            }
        }
    }
    // Uneven document frequencies, so idf varies by feature.
    let corpus: Vec<String> = (0..9)
        .map(|d| {
            VOCAB
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + d) % 3 != 0 || i % 4 == d % 4)
                .map(|(_, w)| *w)
                .collect::<Vec<_>>()
                .join(" q ")
        })
        .collect();
    let mut v = TfidfVectorizer::new(cfg);
    v.fit(&corpus);
    v
}

/// Deterministic signed weights, one per feature.
fn weights(v: &TfidfVectorizer) -> Vec<f64> {
    let n = v.model().map_or(0, |m| m.n_features());
    (0..n)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 2001) as f64 / 500.0 - 2.0)
        .collect()
}

fn assert_bit_identical(v: &TfidfVectorizer, doc: &str, w: &[f64]) -> Result<(), TestCaseError> {
    let fused = v.dot(doc, w);
    let materialised = v.transform(doc).dot_dense(w);
    prop_assert_eq!(
        fused.to_bits(),
        materialised.to_bits(),
        "fused {} vs materialised {} on {:?}",
        fused,
        materialised,
        doc
    );
    Ok(())
}

proptest! {
    #[test]
    fn ascii_pass_is_bit_identical_to_the_materialised_score(
        seed in any::<u64>(),
        max_len in 0usize..=4096,
        end_on_word in any::<bool>(),
        variant in 0usize..4,
    ) {
        let v = fitted(variant);
        let doc = document(seed, max_len, end_on_word);
        assert_bit_identical(&v, &doc, &weights(&v))?;
    }

    #[test]
    fn near_miss_words_alone_and_at_the_document_edges(
        word_at in 0usize..VOCAB.len(),
        case_mask in any::<u32>(),
        edit in 0usize..3,
        sep in 0usize..separators().len(),
    ) {
        let v = fitted(0);
        let w = weights(&v);
        let mut token: Vec<u8> = VOCAB[word_at].as_bytes().to_vec();
        match edit {
            0 => {}
            1 => {
                token.pop();
            }
            _ => token.push(b'z'),
        }
        for (i, b) in token.iter_mut().enumerate() {
            if case_mask >> (i % 32) & 1 == 1 {
                b.make_ascii_uppercase();
            }
        }
        let token = String::from_utf8(token).expect("ASCII");
        let sep = char::from(separators()[sep]);
        for doc in [
            token.clone(),
            format!("{sep}{token}"),
            format!("{token}{sep}"),
            format!("{token}{sep}{token}"),
            format!("{}{sep}{token}", "y".repeat(63)),
        ] {
            assert_bit_identical(&v, &doc, &w)?;
        }
    }
}

#[test]
fn every_vocabulary_word_is_found_in_any_case() {
    let v = fitted(0);
    let w = weights(&v);
    for token in VOCAB {
        for doc in [
            token.to_string(),
            token.to_ascii_uppercase(),
            format!("{}\t{}\0", token.to_ascii_uppercase(), token),
        ] {
            let fused = v.dot(&doc, &w);
            assert_eq!(
                fused.to_bits(),
                v.transform(&doc).dot_dense(&w).to_bits(),
                "{doc:?}"
            );
            assert_ne!(fused, 0.0, "{doc:?} scores");
        }
    }
}
