//! Property tests: the fused `TfidfVectorizer::dot` is bit-identical to
//! `transform(doc).dot_dense(weights)`.
//!
//! The synthetic study corpus is pure ASCII, so these documents are built
//! to reach everything it does not: non-ASCII letters, `İ` (which
//! lowercases to two chars), word-final `Σ`, combining marks, `_` and
//! digits inside words, 1-char words, and empty and multi-KB documents.

use dox_textkit::tfidf::TfidfVectorizer;
use proptest::collection::vec;
use proptest::prelude::*;

/// Words the documents are assembled from; most are in the vocabulary
/// once lowercased.
const WORDS: &[&str] = &[
    "dox",
    "Name",
    "ADDRESS",
    "phone",
    "ssn",
    "dropped",
    "by",
    "x",
    "I",
    "a",
    "42",
    "v2",
    "snake_case",
    "_",
    "__init__",
    "Straße",
    "ÉCOLE",
    "naïve",
    "İstanbul",
    "İ",
    "ΟΔΥΣΣΕΥΣ",
    "Σ",
    "σοφία",
    "ΣΟΦΙΑ",
    "e\u{301}te\u{301}",
    "\u{301}\u{301}",
    "中文字",
    "Ωmega",
    "ǅemal",
    "ﬁle",
    "K",
    "unseen",
    "😀",
    "١٢٣",
];

/// Word separators, including ones that glue words together.
const SEPARATORS: &[&str] = &[" ", "\n", ": ", "-", "'", ".", "", "\t", " | ", "’", "  "];

/// The corpus the vocabulary is fitted on: lowercased words with uneven
/// document frequencies, so idf varies by feature.
fn corpus() -> Vec<String> {
    (0..12)
        .map(|d| {
            WORDS
                .iter()
                .enumerate()
                .filter(|(i, _)| (i + d) % 3 != 0 || i % 5 == d % 5)
                .map(|(_, w)| w.to_lowercase())
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

/// Deterministic signed weights; `len_pct` of the features get one, so
/// scoring also covers a model narrower than the vocabulary.
fn weights(n_features: usize, len_pct: usize) -> Vec<f64> {
    (0..n_features * len_pct / 100)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 2001) as f64 / 500.0 - 2.0)
        .collect()
}

fn document(pieces: &[(usize, usize, usize)]) -> String {
    let mut doc = String::new();
    for &(word, case, sep) in pieces {
        let w = WORDS[word];
        match case {
            0 => doc.push_str(w),
            1 => doc.push_str(&w.to_uppercase()),
            _ => doc.push_str(&w.to_lowercase()),
        }
        doc.push_str(SEPARATORS[sep]);
    }
    doc
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
    fn fused_dot_is_bit_identical_on_mixed_script_documents(
        pieces in vec((0usize..WORDS.len(), 0usize..3, 0usize..SEPARATORS.len()), 0..1200),
        len_pct in 50usize..=100,
    ) {
        let mut v = TfidfVectorizer::default();
        v.fit(&corpus());
        let n = v.model().map_or(0, |m| m.n_features());
        let w = weights(n, len_pct);
        assert_bit_identical(&v, &document(&pieces), &w)?;
    }

    #[test]
    fn fused_dot_is_bit_identical_on_arbitrary_text(
        text in ".{0,400}",
        upper in "[A-Za-z0-9_ ]{0,200}",
    ) {
        let mut v = TfidfVectorizer::default();
        v.fit(&corpus());
        let n = v.model().map_or(0, |m| m.n_features());
        let w = weights(n, 100);
        assert_bit_identical(&v, &text, &w)?;
        assert_bit_identical(&v, &upper, &w)?;
        assert_bit_identical(&v, &format!("{upper}İ{text}ΟΔΥΣΣΕΥΣ"), &w)?;
    }
}

#[test]
fn empty_multi_kb_and_one_char_documents() {
    let mut v = TfidfVectorizer::default();
    v.fit(&corpus());
    let w = weights(v.model().map_or(0, |m| m.n_features()), 100);
    let big = "Name: DOX dropped by İstanbul ΟΔΥΣΣΕΥΣ x ".repeat(400);
    for doc in [
        "",
        " ",
        "a",
        "I x K",
        "İ",
        "Σ",
        &big,
        &big.to_ascii_lowercase(),
    ] {
        assert_eq!(
            v.dot(doc, &w).to_bits(),
            v.transform(doc).dot_dense(&w).to_bits()
        );
    }
    assert_eq!(v.dot("", &w), 0.0);
}

#[test]
fn unfitted_vectorizer_scores_zero() {
    assert_eq!(TfidfVectorizer::default().dot("dox dox", &[1.0; 8]), 0.0);
}
