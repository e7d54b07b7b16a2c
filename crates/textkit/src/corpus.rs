//! A training corpus tokenized once.
//!
//! Fitting a TF-IDF model reads every document twice — once to count
//! document frequencies, once to build its vector — and the classifier's
//! protocol fits twice: on the evaluation's training fold, then on the
//! whole labeled corpus. [`TokenizedCorpus`] walks each text once, interns
//! every distinct token once, and keeps each document as its sorted
//! `(token id, count)` pairs. Ids are ranks in token order, and so is
//! every vocabulary's feature order, so a [`CorpusFit`] over any subset of
//! the documents is integer work: count df over ids, keep every id the
//! subset uses, and remap ids to feature indices in the order they
//! already have.
//!
//! [`TfidfVectorizer::fit`] runs on this corpus too, so the crate has one
//! fit path, and [`CorpusFit::transform`] of a document is bit-identical to
//! [`TfidfVectorizer::transform`] of its text.

use crate::sparse::SparseVec;
use crate::tfidf::{smooth_idf, weigh, TfidfModel, TfidfVectorizer};
use crate::tokenize::word_spans;
use crate::vocab::Vocabulary;
use std::collections::HashMap;

/// Marks a token id that has no feature in a fit.
const DROPPED: u32 = u32::MAX;

/// Documents tokenized once, as interned `(token id, count)` lists.
///
/// ```
/// use dox_textkit::corpus::TokenizedCorpus;
///
/// let texts = ["Name and ADDRESS of the victim", "fn main() {}", "the victim"];
/// let corpus = TokenizedCorpus::new(&texts);
/// let fold = corpus.fit(&[0, 2]);
/// let vectorizer = fold.vectorizer();
/// assert_eq!(fold.transform(1), vectorizer.transform(texts[1]));
/// assert_eq!(fold.transform(2), vectorizer.transform(texts[2]));
/// ```
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    /// Every distinct token, in lexicographic order; a token's id is its
    /// position.
    tokens: Vec<String>,
    /// Per document, `(token id, count)` sorted by id.
    docs: Vec<Vec<(u32, u32)>>,
}

impl TokenizedCorpus {
    /// Tokenize `texts`.
    ///
    /// Text is lowercased as [`crate::Tokenizer::tokenize`] does it (ASCII
    /// in a reused buffer, anything else through `str::to_lowercase`) and
    /// split with the tokenizer's own word rule, with no owned `String`
    /// per token.
    pub fn new<S: AsRef<str>>(texts: &[S]) -> Self {
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut lowered = String::new();
        let mut occurrences: Vec<Vec<u32>> = Vec::with_capacity(texts.len());
        for text in texts {
            let text = text.as_ref();
            if text.is_ascii() {
                lowered.clear();
                lowered.push_str(text);
                lowered.make_ascii_lowercase();
            } else {
                lowered = text.to_lowercase();
            }
            let words = word_spans(&lowered);
            occurrences.push(
                words
                    .map(|(start, end)| intern(&mut index, &lowered[start..end]))
                    .collect(),
            );
        }
        // Renumber the first-seen ids by rank in token order.
        let mut interned: Vec<(String, u32)> = index.into_iter().collect();
        interned.sort_unstable();
        let mut rank = vec![0u32; interned.len()];
        for (id, &(_, first_seen)) in interned.iter().enumerate() {
            rank[first_seen as usize] = id as u32;
        }
        let tokens = interned.into_iter().map(|(token, _)| token).collect();
        let docs = occurrences
            .into_iter()
            .map(|mut ids| {
                for id in &mut ids {
                    *id = rank[*id as usize];
                }
                ids.sort_unstable();
                let mut doc: Vec<(u32, u32)> = Vec::new();
                for id in ids {
                    match doc.last_mut() {
                        Some((last, count)) if *last == id => *count += 1,
                        _ => doc.push((id, 1)),
                    }
                }
                doc
            })
            .collect();
        Self { tokens, docs }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Fit a vocabulary and idf weights on the documents `docs` (indices
    /// into the corpus), exactly as [`TfidfVectorizer::fit`] would on
    /// their texts: df is counted over the listed documents, and every
    /// token they use becomes a feature, in token order.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn fit(&self, docs: &[usize]) -> CorpusFit<'_> {
        let mut doc_freq = vec![0u32; self.tokens.len()];
        for &doc in docs {
            for &(id, _) in &self.docs[doc] {
                doc_freq[id as usize] += 1;
            }
        }
        // Ids order as their tokens do, so id order is feature order.
        let kept: Vec<(u32, u32)> = doc_freq
            .iter()
            .enumerate()
            .filter(|&(_, &df)| df > 0)
            .map(|(id, &df)| (id as u32, df))
            .collect();
        let mut features = vec![DROPPED; self.tokens.len()];
        for (feature, &(id, _)) in kept.iter().enumerate() {
            features[id as usize] = feature as u32;
        }
        let idf = kept
            .iter()
            .map(|&(_, df)| smooth_idf(df, docs.len()))
            .collect();
        CorpusFit {
            corpus: self,
            kept,
            features,
            idf,
            n_docs: docs.len(),
        }
    }
}

/// The interned id of `token`, the next free one when it is new; only a
/// token seen for the first time pays for an owned copy.
fn intern(index: &mut HashMap<String, u32>, token: &str) -> u32 {
    if let Some(&id) = index.get(token) {
        return id;
    }
    let id = index.len() as u32;
    index.insert(token.to_owned(), id);
    id
}

/// A vocabulary and idf weights fitted on some documents of a
/// [`TokenizedCorpus`], as token-id remaps.
#[derive(Debug, Clone)]
pub struct CorpusFit<'a> {
    corpus: &'a TokenizedCorpus,
    /// `(token id, df)` of every kept token, in feature order.
    kept: Vec<(u32, u32)>,
    /// The feature index of every token id, `DROPPED` when it has none.
    features: Vec<u32>,
    idf: Vec<f64>,
    n_docs: usize,
}

impl CorpusFit<'_> {
    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.idf.len()
    }

    /// The TF-IDF vector of corpus document `doc`, bit-identical to
    /// `self.vectorizer().transform(text)` of its text. Any document of
    /// the corpus can be transformed, fitted on or not.
    ///
    /// # Panics
    /// Panics if `doc` is out of range.
    pub fn transform(&self, doc: usize) -> SparseVec {
        // Features follow id order, so the remapped indices stay sorted.
        let (indices, counts) = self.corpus.docs[doc]
            .iter()
            .filter_map(|&(id, count)| {
                let feature = self.features[id as usize];
                (feature != DROPPED).then_some((feature, f64::from(count)))
            })
            .unzip();
        weigh(&self.idf, &SparseVec::from_parts(indices, counts))
    }

    /// The fitted model: its vocabulary, with the frozen table every
    /// lookup reads, and its idf weights.
    pub(crate) fn model(&self) -> TfidfModel {
        let tokens = &self.corpus.tokens;
        let entries = self
            .kept
            .iter()
            .map(|&(id, df)| (tokens[id as usize].clone(), df));
        TfidfModel::new(
            Vocabulary::from_entries(entries, self.n_docs),
            self.idf.clone(),
        )
    }

    /// The fitted vectorizer, for inference on new text.
    pub fn vectorizer(&self) -> TfidfVectorizer {
        TfidfVectorizer::fitted(self.model())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_are_id_counts_with_ids_in_token_order() {
        let corpus = TokenizedCorpus::new(&["bb AA bb", "aa ÄÄ", "", "!! x"]);
        assert_eq!(corpus.tokens, ["aa", "bb", "ää"]);
        assert_eq!(
            corpus.docs,
            [vec![(0, 1), (1, 2)], vec![(0, 1), (2, 1)], vec![], vec![]]
        );
        assert_eq!(corpus.len(), 4);
    }

    #[test]
    fn tokens_unseen_by_the_fit_are_dropped() {
        let texts = ["alpha beta", "beta gamma", "gamma delta"];
        let corpus = TokenizedCorpus::new(&texts);
        let fold = corpus.fit(&[0, 1]);
        assert_eq!(fold.n_features(), 3);
        let vectorizer = fold.vectorizer();
        let vocab = vectorizer.model().expect("fitted").vocabulary();
        assert_eq!(vocab.tokens_in_order(), ["alpha", "beta", "gamma"]);
        assert_eq!(vocab.n_docs(), 2);
        let df: Vec<u32> = (0..3).map(|idx| vocab.doc_freq(idx)).collect();
        assert_eq!(df, [1, 2, 1], "documents, not occurrences");
        assert_eq!(fold.transform(2), vectorizer.transform(texts[2]));
        assert_eq!(fold.transform(2).nnz(), 1);
        assert!(corpus
            .fit(&[])
            .vectorizer()
            .model()
            .expect("fitted")
            .vocabulary()
            .is_empty());
    }
}
