//! Property tests: the tokenize-once fit (`TokenizedCorpus`, under
//! `TfidfVectorizer::fit`) is bit-identical to the reference fit that
//! tokenizes every text into owned tokens each time it reads it.
//!
//! Corpora are built from the same words as the fused-scorer properties —
//! mixed case, non-ASCII, `İ`, word-final `Σ`, `_`, one-char words — plus
//! empty, punctuation-only and duplicate documents. Compared: the
//! vocabulary in feature order, document frequencies, idf bits, every
//! training vector, and the fused `dot` scores of the fitted vectorizer.

mod oracle;

use dox_textkit::corpus::TokenizedCorpus;
use dox_textkit::tfidf::TfidfVectorizer;
use oracle::{assert_same_model, same_bits, OracleFit};
use proptest::collection::vec;
use proptest::prelude::*;

/// Words the documents are assembled from.
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
    // The interner's key compare: 9, 16 and 17+ bytes; pairs sharing
    // the first or the last 8 bytes; equal lengths a middle byte apart
    // (past 16 bytes, one the head and tail words both miss); capitals.
    "addresses",
    "Addresses",
    "pastebin_user_01",
    "pastebin_user_02",
    "PASTEBIN_USER_01",
    "contact_information",
    "facebook_profile_url",
    "password",
    "passwords",
    "password_hash",
    "PASSWORD_HASH",
    "home_address",
    "email_address",
    "Email_Address",
    "dox_a_bin",
    "dox_b_bin",
    "accounts1_numbers",
    "accounts2_numbers",
    "ACCOUNTS2_NUMBERS",
    "screen_name_a_handle_alias",
    "screen_name_b_handle_alias",
];

/// Word separators, including ones that glue words together.
const SEPARATORS: &[&str] = &[" ", "\n", ": ", "-", "'", ".", "", "\t", " | ", "’", "  "];

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

/// The generated documents, then the extras: each is empty,
/// punctuation-only, or a duplicate of an earlier document.
fn corpus(docs: &[Vec<(usize, usize, usize)>], extras: &[usize]) -> Vec<String> {
    let mut texts: Vec<String> = docs.iter().map(|d| document(d)).collect();
    for &e in extras {
        let text = match e % 4 {
            0 => String::new(),
            1 => SEPARATORS[..=e % SEPARATORS.len()].concat(),
            _ if texts.is_empty() => String::new(),
            _ => texts[e % texts.len()].clone(),
        };
        texts.push(text);
    }
    texts
}

/// Deterministic signed weights, one per feature.
fn weights(n_features: usize) -> Vec<f64> {
    (0..n_features)
        .map(|i| ((i as u64).wrapping_mul(2_654_435_761) % 2001) as f64 / 500.0 - 2.0)
        .collect()
}

proptest! {
    #[test]
    fn fit_matches_the_reference_fit(
        docs in vec(vec((0usize..WORDS.len(), 0usize..3, 0usize..SEPARATORS.len()), 0..40), 0..10),
        extras in vec(0usize..64, 0..4),
    ) {
        let texts = corpus(&docs, &extras);
        let oracle = OracleFit::new(&texts);

        let mut vectorizer = TfidfVectorizer::default();
        assert_same_model(vectorizer.fit(&texts), &oracle);

        let w = weights(oracle.idf.len());
        let probe = "Name: İstanbul ΟΔΥΣΣΕΥΣ dox dropped by __init__ Σ";
        for text in &texts {
            let expected = oracle.transform(text);
            let vec = vectorizer.transform(text);
            prop_assert!(same_bits(&vec, &expected), "{:?}: {:?} vs {:?}", text, vec, expected);
            prop_assert_eq!(
                vectorizer.dot(text, &w).to_bits(),
                expected.dot_dense(&w).to_bits()
            );
        }
        prop_assert_eq!(
            vectorizer.dot(probe, &w).to_bits(),
            oracle.transform(probe).dot_dense(&w).to_bits()
        );
    }

    #[test]
    fn a_fit_on_any_subset_matches_the_reference_fit_of_its_texts(
        docs in vec(vec((0usize..WORDS.len(), 0usize..3, 0usize..SEPARATORS.len()), 0..30), 0..10),
        extras in vec(0usize..64, 0..4),
        mask in any::<u16>(),
    ) {
        let texts = corpus(&docs, &extras);
        // Listed in reverse, as a shuffled split would list them.
        let subset: Vec<usize> = (0..texts.len()).rev().filter(|i| mask & (1 << i) != 0).collect();
        let fold_texts: Vec<&str> = subset.iter().map(|&i| texts[i].as_str()).collect();
        let oracle = OracleFit::new(&fold_texts);

        let corpus = TokenizedCorpus::new(&texts);
        prop_assert_eq!(corpus.len(), texts.len());
        let fold = corpus.fit(&subset);
        prop_assert_eq!(fold.n_features(), oracle.idf.len());
        assert_same_model(fold.vectorizer().model().expect("fitted"), &oracle);
        // Every document, in the fold or held out.
        for (i, text) in texts.iter().enumerate() {
            prop_assert!(same_bits(&fold.transform(i), &oracle.transform(text)), "{:?}", text);
        }
    }
}
