//! # dox-textkit
//!
//! Text-processing substrate for the doxing-measurement reproduction.
//!
//! The paper's classification stage (§3.1.2) is built on scikit-learn's
//! `TfidfVectorizer` and pre-processes chan HTML with `html2text`. This crate
//! provides from-scratch, dependency-free equivalents:
//!
//! - [`normalize`] — unicode-light text normalization helpers.
//! - [`tokenize`] — word tokenizers and n-gram expansion compatible with the
//!   scikit-learn default token pattern (`\w\w+`).
//! - [`html`] — an `html2text`-style converter that maps HTML markup to
//!   semantically equivalent plain text (lists, breaks, entity decoding).
//! - [`sparse`] — sorted-index sparse vectors and the linear-algebra kernels
//!   used by the TF-IDF vectorizer and SGD classifier.
//! - [`vocab`] — vocabulary construction with document-frequency pruning.
//! - [`corpus`] — a training corpus tokenized once into interned token
//!   ids, from which every TF-IDF fit builds its vocabulary, idf weights
//!   and vectors.
//! - [`tfidf`] — a `TfidfVectorizer` equivalent (smooth idf, sublinear-tf
//!   option, l2 normalization), matching sklearn 0.17 defaults, with a
//!   fused allocation-free scorer for inference (its frozen token→index
//!   table lives in the private `table` module).
//! - [`hashing`] — a stateless feature-hashing vectorizer.
//! - [`similarity`] — shingling, Jaccard similarity and SimHash used by the
//!   de-duplication stage (§3.1.4).
//!
//! All types are deterministic: no randomness, no hash-map iteration order
//! leaks into observable output.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod corpus;
pub mod hashing;
pub mod html;
pub mod normalize;
pub mod similarity;
pub mod sparse;
mod table;
pub mod tfidf;
pub mod tokenize;
pub mod vocab;

pub use sparse::SparseVec;
pub use tfidf::{TfidfModel, TfidfVectorizer};
pub use tokenize::Tokenizer;
pub use vocab::Vocabulary;
