//! TF-IDF vectorization at scikit-learn's defaults.
//!
//! The paper (§3.1.2) vectorizes documents with `TfidfVectorizer` from
//! scikit-learn 0.17.1 using default parameters, and [`TfidfVectorizer`]
//! computes exactly that configuration and no other:
//!
//! - lowercasing, then the token pattern `\w\w+` as unigrams, no stop
//!   words ([`crate::tokenize`]);
//! - every training token kept: no document-frequency pruning and no
//!   feature cap;
//! - raw term counts for tf;
//! - **smooth idf**: `idf(t) = ln((1 + n) / (1 + df(t))) + 1`;
//! - l2 normalization of each document vector.
//!
//! Fitting runs on a [`TokenizedCorpus`]: each text is tokenized once
//! into interned token ids, and the vocabulary, idf weights and training
//! vectors are all built from those ids. [`TfidfVectorizer::fit`] wraps
//! it; a caller that fits more than once on the same texts (the
//! classifier's evaluation fold, then its full corpus) builds the corpus
//! itself and fits on document subsets.
//!
//! There are two ways to use a fitted vectorizer. [`TfidfVectorizer::transform`]
//! materialises the document's [`SparseVec`]; model inspection and the
//! differential tests need those vectors, and training builds the same
//! ones from token ids ([`crate::corpus::CorpusFit::transform`]). Inference
//! only needs `w·x`, so [`TfidfVectorizer::dot`] fuses tokenize, vectorize
//! and score into one pass over borrowed words with reused scratch
//! buffers, and evaluates the same floating-point operations in the same
//! order, so its result is bit-identical to `transform(doc).dot_dense(weights)`.

use crate::corpus::TokenizedCorpus;
use crate::sparse::SparseVec;
use crate::tokenize::{ascii_word_spans, word_spans, Tokenizer, TokenizerConfig};
use crate::vocab::Vocabulary;
use std::cell::Cell;

/// The vectorizer's settings, of which there are none.
///
/// Kept, with [`TfidfVectorizer::config`], only so the benchmark
/// harness's classify layer (`perfbench/src/layers.rs`) compiles until
/// that layer is rewritten to time the fused scorer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TfidfConfig {
    /// The tokenizer's settings (none).
    pub tokenizer: TokenizerConfig,
}

/// A fitted TF-IDF model: vocabulary plus idf weights.
#[derive(Debug, Clone)]
pub struct TfidfModel {
    vocab: Vocabulary,
    idf: Vec<f64>,
}

impl TfidfModel {
    /// The model of `vocab` and its `idf` weights, one per feature.
    pub(crate) fn new(vocab: Vocabulary, idf: Vec<f64>) -> Self {
        Self { vocab, idf }
    }

    /// The fitted vocabulary.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// The idf weight of feature `idx`.
    pub fn idf(&self, idx: u32) -> f64 {
        self.idf[idx as usize]
    }

    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.idf.len()
    }
}

/// TF-IDF vectorizer: fit on a corpus, transform documents to [`SparseVec`]s.
///
/// ```
/// use dox_textkit::TfidfVectorizer;
///
/// let corpus = ["name and address of the victim", "fn main() {}"];
/// let mut vectorizer = TfidfVectorizer::default();
/// vectorizer.fit(&corpus);
/// let vec = vectorizer.transform("the victim name");
/// assert!(vec.nnz() > 0);
/// assert!((vec.l2_norm() - 1.0).abs() < 1e-9, "l2-normalized like sklearn");
/// ```
#[derive(Debug, Clone, Default)]
pub struct TfidfVectorizer {
    model: Option<TfidfModel>,
}

impl TfidfVectorizer {
    /// A vectorizer fitted to `model`.
    pub(crate) fn fitted(model: TfidfModel) -> Self {
        Self { model: Some(model) }
    }

    /// The settings (see [`TfidfConfig`]).
    pub fn config(&self) -> &TfidfConfig {
        const CONFIG: TfidfConfig = TfidfConfig {
            tokenizer: TokenizerConfig,
        };
        &CONFIG
    }

    /// The fitted model, if [`TfidfVectorizer::fit`] has run.
    pub fn model(&self) -> Option<&TfidfModel> {
        self.model.as_ref()
    }

    /// Fit the vocabulary and idf weights on `corpus`.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) -> &TfidfModel {
        let corpus = TokenizedCorpus::new(corpus);
        let all: Vec<usize> = (0..corpus.len()).collect();
        self.model.insert(corpus.fit(&all).model())
    }

    /// Transform one document into a TF-IDF vector.
    ///
    /// # Panics
    /// Panics if the vectorizer has not been fitted.
    pub fn transform(&self, doc: &str) -> SparseVec {
        let model = self
            .model
            .as_ref()
            .expect("TfidfVectorizer::transform called before fit");
        let tokens = Tokenizer.tokenize(doc);
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(tokens.len());
        for tok in &tokens {
            if let Some(idx) = model.vocab.get(tok) {
                pairs.push((idx, 1.0));
            }
        }
        weigh(&model.idf, &SparseVec::from_pairs(pairs))
    }

    /// `transform(doc).dot_dense(weights)`, bit for bit, without building
    /// the vector: the fused inference path.
    ///
    /// One pass finds the document's words, looks each up in the
    /// vocabulary's frozen token table and counts the hits in a reused
    /// per-feature array whose bitmaps then yield them in feature order.
    /// An ASCII document is scanned byte by byte against a word-byte
    /// class table, and each word is looked up case-folded in place, so
    /// nothing is copied or decoded. Any other text is lowercased with
    /// `str::to_lowercase` into an owned copy, then split with
    /// `word_spans` and looked up exactly. tf·idf, the l2 norm, the
    /// `1/norm` scale and the dot product are evaluated in the
    /// materialised path's order, so no rounding differs. After the first
    /// call on a thread it allocates nothing for ASCII text and once (the
    /// lowercase copy) otherwise.
    ///
    /// An unfitted vectorizer has no vocabulary: every document is the
    /// zero vector and scores `0.0`.
    pub fn dot(&self, doc: &str, weights: &[f64]) -> f64 {
        let Some(model) = &self.model else {
            return 0.0;
        };
        let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
        let score = fused_dot(model, doc, weights, &mut scratch);
        // Dropped instead when the thread is being torn down.
        let _ = SCRATCH.try_with(|slot| slot.set(scratch));
        score
    }
}

fn fused_dot(model: &TfidfModel, doc: &str, weights: &[f64], scratch: &mut Scratch) -> f64 {
    let Scratch { counts, values } = scratch;
    let table = &model.vocab.table;
    counts.prepare(model.n_features());
    values.clear();
    values.reserve(model.n_features());
    if doc.is_ascii() {
        let bytes = doc.as_bytes();
        ascii_word_spans(bytes, |start, end| {
            if let Some(idx) = table.get_folded(bytes, start, end) {
                counts.add(idx);
            }
        });
    } else {
        let text = doc.to_lowercase();
        for (start, end) in word_spans(&text) {
            if let Some(idx) = table.get(&text[start..end]) {
                counts.add(idx);
            }
        }
    }

    // `SparseVec::from_pairs` + `map_values`: tf·idf per feature, in
    // feature order, zeros dropped.
    counts.drain(|idx, count| {
        let v = count as f64 * model.idf[idx as usize];
        if v != 0.0 {
            values.push((idx, v));
        }
    });
    // `SparseVec::l2_normalize`, then `SparseVec::dot_dense`.
    let norm = values.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
    let factor = (norm > 0.0).then(|| 1.0 / norm);
    let mut acc = 0.0;
    for &(idx, v) in values.iter() {
        let v = factor.map_or(v, |f| v * f);
        if let Some(&w) = weights.get(idx as usize) {
            acc += w * v;
        }
    }
    acc
}

/// Buffers [`TfidfVectorizer::dot`] reuses across calls on one thread.
#[derive(Default)]
struct Scratch {
    counts: FeatureCounts,
    /// `(feature, tf·idf)` in feature order; as long as the vocabulary,
    /// so it never grows mid-document.
    values: Vec<(u32, f64)>,
}

/// Term counts of one document, dense over the vocabulary, with a bitmap
/// of the features present so they are visited in feature order without
/// sorting, and a bitmap of the bitmap's non-zero words so a document
/// visits only the words it touched. All zero between documents.
#[derive(Default)]
struct FeatureCounts {
    counts: Vec<u32>,
    present: Vec<u64>,
    /// Bit `w` set when `present[w]` is non-zero.
    dirty: Vec<u64>,
}

impl FeatureCounts {
    /// Make room for `n_features` features.
    fn prepare(&mut self, n_features: usize) {
        if self.counts.len() < n_features {
            self.counts.resize(n_features, 0);
            self.present.resize(n_features.div_ceil(64), 0);
            self.dirty.resize(self.present.len().div_ceil(64), 0);
        }
    }

    fn add(&mut self, idx: u32) {
        let i = idx as usize;
        self.counts[i] += 1;
        self.present[i / 64] |= 1 << (i % 64);
        self.dirty[i / 4096] |= 1 << (i / 64 % 64);
    }

    /// Call `f(feature, count)` for every counted feature, ascending,
    /// and reset the counts to zero.
    fn drain(&mut self, mut f: impl FnMut(u32, u32)) {
        for (d, dirty) in self.dirty.iter_mut().enumerate() {
            while *dirty != 0 {
                let w = d * 64 + dirty.trailing_zeros() as usize;
                let word = &mut self.present[w];
                while *word != 0 {
                    let i = w * 64 + word.trailing_zeros() as usize;
                    f(i as u32, std::mem::take(&mut self.counts[i]));
                    *word &= *word - 1;
                }
                *dirty &= *dirty - 1;
            }
        }
    }
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::default();
}

/// A document vector from its term counts: tf·idf per feature (zeros
/// dropped), then l2-normalized. The one tail of
/// [`TfidfVectorizer::transform`] and [`crate::corpus::CorpusFit::transform`].
pub(crate) fn weigh(idf: &[f64], counts: &SparseVec) -> SparseVec {
    let mut vec = counts.map_values(|idx, tf| tf * idf[idx as usize]);
    vec.l2_normalize();
    vec
}

/// The smooth idf weight of a token in `df` of `n_docs` documents.
pub(crate) fn smooth_idf(df: u32, n_docs: usize) -> f64 {
    let n = n_docs as f64;
    ((1.0 + n) / (1.0 + f64::from(df))).ln() + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const CORPUS: [&str; 4] = [
        "the cat sat on the mat",
        "the dog sat on the log",
        "cats and dogs living together",
        "full dox: name address phone ssn",
    ];

    fn fitted() -> TfidfVectorizer {
        let mut v = TfidfVectorizer::default();
        v.fit(&CORPUS);
        v
    }

    #[test]
    fn fit_builds_model() {
        let v = fitted();
        let m = v.model().unwrap();
        assert!(m.n_features() > 0);
        assert_eq!(m.vocabulary().n_docs(), 4);
    }

    #[test]
    fn vectors_are_unit_norm() {
        let v = fitted();
        for doc in CORPUS {
            let vec = v.transform(doc);
            assert!((vec.l2_norm() - 1.0).abs() < 1e-9, "doc: {doc}");
        }
    }

    #[test]
    fn smooth_idf_formula_matches_sklearn() {
        // token "the" appears in 2 of 4 docs => idf = ln(5/3) + 1
        let v = fitted();
        let m = v.model().unwrap();
        let idx = m.vocabulary().get("the").unwrap();
        let expected = (5.0f64 / 3.0).ln() + 1.0;
        assert!((m.idf(idx) - expected).abs() < 1e-12);
    }

    #[test]
    fn rare_terms_weigh_more_than_common() {
        let v = fitted();
        let m = v.model().unwrap();
        let the = m.vocabulary().get("the").unwrap();
        let ssn = m.vocabulary().get("ssn").unwrap();
        assert!(m.idf(ssn) > m.idf(the));
    }

    #[test]
    fn unknown_tokens_vanish() {
        let v = fitted();
        let vec = v.transform("zzz qqq www");
        assert!(vec.is_empty());
    }

    #[test]
    fn identical_docs_identical_vectors() {
        let v = fitted();
        assert_eq!(v.transform(CORPUS[0]), v.transform(CORPUS[0]));
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn transform_before_fit_panics() {
        TfidfVectorizer::default().transform("boom");
    }
}
