//! # dox-textkit
//!
//! Text-processing substrate for the doxing-measurement reproduction.
//!
//! The paper's classification stage (§3.1.2) is built on scikit-learn's
//! `TfidfVectorizer` and pre-processes chan HTML with `html2text`. This crate
//! provides from-scratch, dependency-free equivalents:
//!
//! - [`normalize`] — the extraction stage's phone and handle helpers.
//! - [`tokenize`] — the word tokenizer: lowercase, then the scikit-learn
//!   default token pattern (`\w\w+`) as unigrams.
//! - [`html`] — an `html2text`-style converter that maps HTML markup to
//!   semantically equivalent plain text (lists, breaks, entity decoding).
//! - [`sparse`] — sorted-index sparse vectors and the linear-algebra kernels
//!   used by the TF-IDF vectorizer and SGD classifier.
//! - [`vocab`] — the fitted vocabulary: tokens in feature order, document
//!   frequencies, and the frozen token→index table every lookup reads
//!   (private `table` module).
//! - [`corpus`] — a training corpus tokenized once into interned token
//!   ids, from which every TF-IDF fit builds its vocabulary, idf weights
//!   and vectors.
//! - [`tfidf`] — a `TfidfVectorizer` at scikit-learn 0.17's defaults and
//!   only those (unigrams, raw tf, smooth idf, l2 normalization, no
//!   pruning), with a fused allocation-free scorer for inference.
//! - [`hashing`] — FNV-1a, the stable hash behind dedup keys.
//!
//! All types are deterministic: no randomness, no hash-map iteration order
//! leaks into observable output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

// The crate's unit tests share the integration tests' reference fit,
// which names the crate by its own name.
#[cfg(test)]
extern crate self as dox_textkit;

pub mod corpus;
pub mod hashing;
pub mod html;
pub mod normalize;
pub mod sparse;
mod table;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use sparse::SparseVec;
pub use tfidf::{TfidfModel, TfidfVectorizer};
pub use tokenize::Tokenizer;
pub use vocab::Vocabulary;
