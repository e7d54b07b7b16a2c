//! The reference TF-IDF fit the fit-path tests compare against, bit for
//! bit, at scikit-learn's defaults: every text lowercased and split into
//! owned `\w\w+` tokens one char at a time, the vocabulary from a
//! `VocabBuilder` that counts document frequencies in a map and sorts its
//! tokens, smooth idf from those frequencies, and each vector from the
//! text tokenized again, looked up token by token, summed one count at a
//! time and l2-normalized. Nothing here calls the crate's tokenizer,
//! corpus or vocabulary.

use dox_textkit::sparse::SparseVec;
use dox_textkit::tfidf::TfidfModel;
use std::collections::HashMap;

/// sklearn's `(?u)\b\w\w+\b` on the lowercased text: runs of at least two
/// alphanumeric or `_` chars.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    for ch in text.to_lowercase().chars().chain([' ']) {
        if ch.is_alphanumeric() || ch == '_' {
            word.push(ch);
        } else if word.chars().count() >= 2 {
            tokens.push(std::mem::take(&mut word));
        } else {
            word.clear();
        }
    }
    tokens
}

/// Incremental vocabulary builder: feed tokenized documents, then freeze.
#[derive(Default)]
pub struct VocabBuilder {
    doc_freq: HashMap<String, u32>,
    n_docs: usize,
}

impl VocabBuilder {
    /// Record one document's tokens (duplicates within the document count
    /// once toward document frequency).
    pub fn add_document(&mut self, tokens: &[String]) {
        self.n_docs += 1;
        let mut seen: Vec<&str> = tokens.iter().map(String::as_str).collect();
        seen.sort_unstable();
        seen.dedup();
        for tok in seen {
            *self.doc_freq.entry(tok.to_string()).or_insert(0) += 1;
        }
    }

    /// Freeze: every token seen, in lexicographic order.
    pub fn build(self) -> OracleVocab {
        let mut entries: Vec<(String, u32)> = self.doc_freq.into_iter().collect();
        entries.sort_unstable();
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, (tok, _))| (tok.clone(), i as u32))
            .collect();
        let (tokens, doc_freq) = entries.into_iter().unzip();
        OracleVocab {
            tokens,
            doc_freq,
            n_docs: self.n_docs,
            index,
        }
    }
}

/// A vocabulary built the reference way.
pub struct OracleVocab {
    /// Tokens in feature order.
    pub tokens: Vec<String>,
    /// Document frequency per feature.
    pub doc_freq: Vec<u32>,
    /// Documents fitted on.
    pub n_docs: usize,
    index: HashMap<String, u32>,
}

/// A vocabulary and idf weights fitted the reference way.
pub struct OracleFit {
    pub vocab: OracleVocab,
    pub idf: Vec<f64>,
}

impl OracleFit {
    pub fn new<S: AsRef<str>>(texts: &[S]) -> Self {
        let mut builder = VocabBuilder::default();
        for text in texts {
            builder.add_document(&tokenize(text.as_ref()));
        }
        let vocab = builder.build();
        let n = vocab.n_docs as f64;
        let idf = vocab
            .doc_freq
            .iter()
            .map(|&df| ((1.0 + n) / (1.0 + df as f64)).ln() + 1.0)
            .collect();
        Self { vocab, idf }
    }

    pub fn transform(&self, text: &str) -> SparseVec {
        let pairs = tokenize(text)
            .iter()
            .filter_map(|token| Some((*self.vocab.index.get(token)?, 1.0)))
            .collect();
        let mut vec =
            SparseVec::from_pairs(pairs).map_values(|idx, tf| tf * self.idf[idx as usize]);
        vec.l2_normalize();
        vec
    }
}

/// Equal indices and equal value bits.
pub fn same_bits(a: &SparseVec, b: &SparseVec) -> bool {
    a.indices() == b.indices()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `model` has the oracle's vocabulary (tokens in feature order, document
/// frequencies, document count) and its idf weights by bits.
pub fn assert_same_model(model: &TfidfModel, oracle: &OracleFit) {
    let vocab = model.vocabulary();
    assert_eq!(vocab.tokens_in_order(), oracle.vocab.tokens);
    assert_eq!(vocab.n_docs(), oracle.vocab.n_docs);
    assert_eq!(model.n_features(), oracle.idf.len());
    for idx in 0..oracle.idf.len() as u32 {
        assert_eq!(vocab.doc_freq(idx), oracle.vocab.doc_freq[idx as usize]);
        assert_eq!(vocab.get(&oracle.vocab.tokens[idx as usize]), Some(idx));
        assert_eq!(model.idf(idx).to_bits(), oracle.idf[idx as usize].to_bits());
    }
}
