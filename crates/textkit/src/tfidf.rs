//! TF-IDF vectorization matching scikit-learn defaults.
//!
//! The paper (§3.1.2) vectorizes documents with `TfidfVectorizer` from
//! scikit-learn 0.17.1 using default parameters. The defaults that matter:
//!
//! - token pattern `\w\w+`, lowercasing, no stop-word removal;
//! - raw term counts for tf (no sublinear scaling);
//! - **smooth idf**: `idf(t) = ln((1 + n) / (1 + df(t))) + 1`;
//! - l2 normalization of each document vector.
//!
//! [`TfidfVectorizer`] reproduces that behaviour; every knob is exposed via
//! [`TfidfConfig`] so ablation benchmarks can vary them.
//!
//! Fitting runs on a [`TokenizedCorpus`]: each text is tokenized once
//! into interned token ids, and the vocabulary, idf weights and training
//! vectors are all built from those ids. [`TfidfVectorizer::fit`] and
//! [`TfidfVectorizer::fit_transform`] wrap it; a caller that fits more
//! than once on the same texts (the classifier's evaluation fold, then
//! its full corpus) builds the corpus itself and fits on document subsets.
//!
//! There are two ways to use a fitted vectorizer. [`TfidfVectorizer::transform`]
//! materialises the document's [`SparseVec`]; the ablation baselines and
//! model inspection need those vectors, and training builds the same ones
//! from token ids ([`crate::corpus::CorpusFit::transform`]). Inference only needs
//! `w·x`, so [`TfidfVectorizer::dot`] fuses tokenize, vectorize and score
//! into one pass over borrowed words with reused scratch buffers, and
//! evaluates the same floating-point operations in the same order, so its
//! result is bit-identical to `transform(doc).dot_dense(weights)`.

use crate::corpus::TokenizedCorpus;
use crate::sparse::SparseVec;
use crate::table::TokenTable;
use crate::tokenize::{ascii_word_spans, word_spans, Tokenizer, TokenizerConfig};
use crate::vocab::{VocabConfig, Vocabulary};
use serde::Serialize;
use std::cell::Cell;

/// Configuration for [`TfidfVectorizer`].
#[derive(Debug, Clone, PartialEq)]
pub struct TfidfConfig {
    /// Tokenizer settings (defaults match sklearn).
    pub tokenizer: TokenizerConfig,
    /// Vocabulary pruning settings.
    pub vocab: VocabConfig,
    /// Add one to document frequencies ("smooth" idf, sklearn default true).
    pub smooth_idf: bool,
    /// Replace tf with `1 + ln(tf)` (sklearn default false).
    pub sublinear_tf: bool,
    /// Apply idf weighting at all (sklearn default true).
    pub use_idf: bool,
    /// l2-normalize each document vector (sklearn default true).
    pub l2_normalize: bool,
}

impl Default for TfidfConfig {
    fn default() -> Self {
        Self {
            tokenizer: TokenizerConfig::default(),
            vocab: VocabConfig::default(),
            smooth_idf: true,
            sublinear_tf: false,
            use_idf: true,
            l2_normalize: true,
        }
    }
}

/// A fitted TF-IDF model: vocabulary plus idf weights.
#[derive(Debug, Clone, Serialize)]
pub struct TfidfModel {
    vocab: Vocabulary,
    idf: Vec<f64>,
}

impl TfidfModel {
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
#[derive(Debug, Clone)]
pub struct TfidfVectorizer {
    config: TfidfConfig,
    tokenizer: Tokenizer,
    model: Option<TfidfModel>,
    /// The fitted vocabulary, frozen for [`TfidfVectorizer::dot`]. Derived
    /// from `model` in `fit`, never serialized.
    table: TokenTable,
}

impl Default for TfidfVectorizer {
    fn default() -> Self {
        Self::new(TfidfConfig::default())
    }
}

impl TfidfVectorizer {
    /// Create an unfitted vectorizer.
    pub fn new(config: TfidfConfig) -> Self {
        let tokenizer = Tokenizer::new(config.tokenizer.clone());
        Self {
            config,
            tokenizer,
            model: None,
            table: TokenTable::default(),
        }
    }

    /// A vectorizer fitted to `vocab` and its `idf` weights.
    pub(crate) fn fitted(config: TfidfConfig, vocab: Vocabulary, idf: Vec<f64>) -> Self {
        Self {
            table: TokenTable::new(&vocab),
            model: Some(TfidfModel { vocab, idf }),
            ..Self::new(config)
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TfidfConfig {
        &self.config
    }

    /// The fitted model, if [`TfidfVectorizer::fit`] has run.
    pub fn model(&self) -> Option<&TfidfModel> {
        self.model.as_ref()
    }

    /// Fit the vocabulary and idf weights on `corpus`.
    pub fn fit<S: AsRef<str>>(&mut self, corpus: &[S]) -> &TfidfModel {
        let corpus = TokenizedCorpus::new(corpus, &self.config);
        let all: Vec<usize> = (0..corpus.len()).collect();
        *self = corpus.fit(&all).vectorizer();
        self.model.as_ref().expect("just fitted")
    }

    /// Fit on `corpus` and transform every document, tokenizing each once.
    pub fn fit_transform<S: AsRef<str>>(&mut self, corpus: &[S]) -> Vec<SparseVec> {
        let corpus = TokenizedCorpus::new(corpus, &self.config);
        let all: Vec<usize> = (0..corpus.len()).collect();
        let fit = corpus.fit(&all);
        *self = fit.vectorizer();
        all.iter().map(|&doc| fit.transform(doc)).collect()
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
        let tokens = self.tokenizer.tokenize(doc);
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(tokens.len());
        for tok in &tokens {
            if let Some(idx) = model.vocab.get(tok) {
                pairs.push((idx, 1.0));
            }
        }
        weigh(&self.config, &model.idf, &SparseVec::from_pairs(pairs))
    }

    /// `transform(doc).dot_dense(weights)`, bit for bit, without building
    /// the vector: the fused inference path.
    ///
    /// One pass finds the document's words, looks each up in the frozen
    /// `TokenTable` and counts the hits in a reused per-feature array
    /// whose bitmaps then yield them in feature order. An ASCII document
    /// (with lowercasing on) is scanned byte by byte against a word-byte
    /// class table, and each word is looked up case-folded in place, so
    /// nothing is copied or decoded. Any other text takes the tokenizer's
    /// path: `str::to_lowercase` into an owned copy when lowercasing, then
    /// `word_spans` and exact lookups. tf·idf, the l2 norm, the `1/norm`
    /// scale and the dot product are evaluated in the materialised path's
    /// order, so no rounding differs. After the first call on a thread it
    /// allocates nothing for ASCII text and once (the lowercase copy)
    /// otherwise.
    ///
    /// An unfitted vectorizer has no vocabulary: every document is the
    /// zero vector and scores `0.0`. Word n-grams are an ablation option
    /// no deployed model uses; with them configured, `dot` scores the
    /// materialised vector.
    pub fn dot(&self, doc: &str, weights: &[f64]) -> f64 {
        let Some(model) = &self.model else {
            return 0.0;
        };
        if self.config.tokenizer.ngram_range != (1, 1) {
            return self.transform(doc).dot_dense(weights);
        }
        let mut scratch = SCRATCH.try_with(Cell::take).unwrap_or_default();
        let score = self.fused_dot(model, doc, weights, &mut scratch);
        // Dropped instead when the thread is being torn down.
        let _ = SCRATCH.try_with(|slot| slot.set(scratch));
        score
    }

    fn fused_dot(
        &self,
        model: &TfidfModel,
        doc: &str,
        weights: &[f64],
        scratch: &mut Scratch,
    ) -> f64 {
        let Scratch { counts, values } = scratch;
        let tok = &self.config.tokenizer;
        counts.prepare(model.n_features());
        values.clear();
        values.reserve(model.n_features());
        if tok.lowercase && doc.is_ascii() {
            let bytes = doc.as_bytes();
            ascii_word_spans(bytes, tok.min_token_len, |start, end| {
                if let Some(idx) = self.table.get_folded(bytes, start, end) {
                    counts.add(idx);
                }
            });
        } else {
            let owned;
            let text = if tok.lowercase {
                owned = doc.to_lowercase();
                &owned
            } else {
                doc
            };
            for (start, end) in word_spans(text, tok.min_token_len) {
                if let Some(idx) = self.table.get(&text[start..end]) {
                    counts.add(idx);
                }
            }
        }

        // `SparseVec::from_pairs` + `map_values`: tf·idf per feature, in
        // feature order, zeros dropped.
        counts.drain(|idx, count| {
            let tf = count as f64;
            let tf = if self.config.sublinear_tf {
                1.0 + tf.ln()
            } else {
                tf
            };
            let v = tf * model.idf[idx as usize];
            if v != 0.0 {
                values.push((idx, v));
            }
        });
        // `SparseVec::l2_normalize`, then `SparseVec::dot_dense`.
        let mut factor = None;
        if self.config.l2_normalize {
            let norm = values.iter().map(|&(_, v)| v * v).sum::<f64>().sqrt();
            if norm > 0.0 {
                factor = Some(1.0 / norm);
            }
        }
        let mut acc = 0.0;
        for &(idx, v) in values.iter() {
            let v = factor.map_or(v, |f| v * f);
            if let Some(&w) = weights.get(idx as usize) {
                acc += w * v;
            }
        }
        acc
    }

    /// Transform a batch of documents.
    pub fn transform_batch<S: AsRef<str>>(&self, docs: &[S]) -> Vec<SparseVec> {
        docs.iter().map(|d| self.transform(d.as_ref())).collect()
    }
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
/// dropped), then the l2 normalization when configured. The one tail of
/// [`TfidfVectorizer::transform`] and [`crate::corpus::CorpusFit::transform`].
pub(crate) fn weigh(config: &TfidfConfig, idf: &[f64], counts: &SparseVec) -> SparseVec {
    let mut vec = counts.map_values(|idx, tf| {
        let tf = if config.sublinear_tf {
            1.0 + tf.ln()
        } else {
            tf
        };
        tf * idf[idx as usize]
    });
    if config.l2_normalize {
        vec.l2_normalize();
    }
    vec
}

/// The idf weight of each feature from its document frequency.
pub(crate) fn compute_idf(
    doc_freq: impl Iterator<Item = u32>,
    n_docs: usize,
    config: &TfidfConfig,
) -> Vec<f64> {
    let n = n_docs as f64;
    doc_freq
        .map(|df| {
            if !config.use_idf {
                return 1.0;
            }
            let df = df as f64;
            if config.smooth_idf {
                ((1.0 + n) / (1.0 + df)).ln() + 1.0
            } else {
                (n / df).ln() + 1.0
            }
        })
        .collect()
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
    fn transform_batch_matches_loop() {
        let v = fitted();
        let batch = v.transform_batch(&CORPUS);
        for (i, doc) in CORPUS.iter().enumerate() {
            assert_eq!(batch[i], v.transform(doc));
        }
    }

    #[test]
    fn sublinear_tf_damps_repeats() {
        let corpus = ["spam spam spam spam unique", "other words here"];
        let mut sub = TfidfVectorizer::new(TfidfConfig {
            sublinear_tf: true,
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        let mut plain = TfidfVectorizer::new(TfidfConfig {
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        plain.fit(&corpus);
        sub.fit(&corpus);
        let pm = plain.model().unwrap();
        let idx = pm.vocabulary().get("spam").unwrap();
        let p = plain.transform(corpus[0]).get(idx);
        let s = sub.transform(corpus[0]).get(idx);
        assert!(s < p, "sublinear tf should reduce the weight of repeats");
    }

    #[test]
    #[should_panic(expected = "before fit")]
    fn transform_before_fit_panics() {
        TfidfVectorizer::default().transform("boom");
    }

    #[test]
    fn idf_disabled_gives_uniform_weights() {
        let mut v = TfidfVectorizer::new(TfidfConfig {
            use_idf: false,
            l2_normalize: false,
            ..TfidfConfig::default()
        });
        v.fit(&CORPUS);
        let m = v.model().unwrap();
        for i in 0..m.n_features() as u32 {
            assert_eq!(m.idf(i), 1.0);
        }
    }
}
