//! A training corpus tokenized once.
//!
//! Fitting a TF-IDF model reads every document twice — once to count
//! document frequencies, once to build its vector — and the classifier's
//! protocol fits twice: on the evaluation's training fold, then on the
//! whole labeled corpus. [`TokenizedCorpus`] walks each text once, interns
//! every distinct token once, and keeps each document as its sorted
//! `(token id, count)` pairs. Ids are ranks in token order, and so is
//! every vocabulary's feature order, so a [`CorpusFit`] over any subset of
//! the documents is integer work: count df over ids, prune with the
//! vocabulary's one rule, and remap ids to feature indices in the order
//! they already have.
//!
//! [`TfidfVectorizer::fit`] runs on this corpus too, so the crate has one
//! fit path, and [`CorpusFit::transform`] of a document is bit-identical to
//! [`TfidfVectorizer::transform`] of its text.

use crate::sparse::SparseVec;
use crate::tfidf::{compute_idf, weigh, TfidfConfig, TfidfVectorizer};
use crate::tokenize::{word_spans, Tokenizer};
use crate::vocab::{select, Vocabulary};
use std::collections::HashMap;

/// Marks a token id that has no feature in a fit.
const DROPPED: u32 = u32::MAX;

/// Documents tokenized once, as interned `(token id, count)` lists.
///
/// ```
/// use dox_textkit::corpus::TokenizedCorpus;
/// use dox_textkit::tfidf::TfidfConfig;
///
/// let texts = ["Name and ADDRESS of the victim", "fn main() {}", "the victim"];
/// let corpus = TokenizedCorpus::new(&texts, &TfidfConfig::default());
/// let fold = corpus.fit(&[0, 2]);
/// let vectorizer = fold.vectorizer();
/// assert_eq!(fold.transform(1), vectorizer.transform(texts[1]));
/// assert_eq!(fold.transform(2), vectorizer.transform(texts[2]));
/// ```
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    config: TfidfConfig,
    /// Every distinct token, in lexicographic order; a token's id is its
    /// position.
    tokens: Vec<String>,
    /// Per document, `(token id, count)` sorted by id.
    docs: Vec<Vec<(u32, u32)>>,
}

impl TokenizedCorpus {
    /// Tokenize `texts` with `config`'s tokenizer settings.
    ///
    /// Text is lowercased as [`Tokenizer::tokenize`] does it (ASCII in a
    /// reused buffer, anything else through `str::to_lowercase`) and split
    /// with the tokenizer's own word rule, with no owned `String` per
    /// token. Without lowercasing, or with word n-grams, whatever
    /// [`Tokenizer::tokenize`] emits is interned.
    pub fn new<S: AsRef<str>>(texts: &[S], config: &TfidfConfig) -> Self {
        let tok = &config.tokenizer;
        let tokenizer = Tokenizer::new(tok.clone());
        let words_only = tok.lowercase && tok.ngram_range == (1, 1);
        let mut index: HashMap<String, u32> = HashMap::new();
        let mut lowered = String::new();
        let mut occurrences: Vec<Vec<u32>> = Vec::with_capacity(texts.len());
        for text in texts {
            let text = text.as_ref();
            let mut ids = Vec::new();
            if words_only {
                if text.is_ascii() {
                    lowered.clear();
                    lowered.push_str(text);
                    lowered.make_ascii_lowercase();
                } else {
                    lowered = text.to_lowercase();
                }
                let words = word_spans(&lowered, tok.min_token_len);
                ids.extend(words.map(|(start, end)| intern(&mut index, &lowered[start..end])));
            } else {
                let emitted = tokenizer.tokenize(text);
                ids.extend(emitted.iter().map(|t| intern(&mut index, t)));
            }
            occurrences.push(ids);
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
        Self {
            config: config.clone(),
            tokens,
            docs,
        }
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
    /// their texts: df is counted over the listed documents, then pruned
    /// and ordered by the one rule [`crate::vocab::VocabBuilder::build`]
    /// applies.
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
        // Ids order as their tokens do, so they stand in for them.
        let seen = doc_freq
            .iter()
            .enumerate()
            .filter(|&(_, &df)| df > 0)
            .map(|(id, &df)| (id as u32, df))
            .collect();
        let kept = select(seen, docs.len(), &self.config.vocab);
        let mut features = vec![DROPPED; self.tokens.len()];
        for (feature, &(id, _)) in kept.iter().enumerate() {
            features[id as usize] = feature as u32;
        }
        let idf = compute_idf(kept.iter().map(|&(_, df)| df), docs.len(), &self.config);
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
        weigh(
            &self.corpus.config,
            &self.idf,
            &SparseVec::from_parts(indices, counts),
        )
    }

    /// The fitted vectorizer: its `String`-keyed vocabulary and the frozen
    /// table the fused scorer reads, for inference on new text.
    pub fn vectorizer(&self) -> TfidfVectorizer {
        let tokens = &self.corpus.tokens;
        let entries = self
            .kept
            .iter()
            .map(|&(id, df)| (tokens[id as usize].clone(), df));
        TfidfVectorizer::fitted(
            self.corpus.config.clone(),
            Vocabulary::from_selected(entries, self.n_docs),
            self.idf.clone(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_are_id_counts_with_ids_in_token_order() {
        let corpus = TokenizedCorpus::new(&["b A b", "a ÄÄ", "", "!!"], &TfidfConfig::default());
        let config = TfidfConfig {
            tokenizer: crate::tokenize::TokenizerConfig {
                min_token_len: 1,
                ..Default::default()
            },
            ..TfidfConfig::default()
        };
        let short = TokenizedCorpus::new(&["b A b", "a ÄÄ", "", "!!"], &config);
        assert_eq!(corpus.tokens, ["ää"]);
        assert_eq!(corpus.docs, [vec![], vec![(0, 1)], vec![], vec![]]);
        assert_eq!(short.tokens, ["a", "b", "ää"]);
        assert_eq!(
            short.docs,
            [vec![(0, 1), (1, 2)], vec![(0, 1), (2, 1)], vec![], vec![]]
        );
        assert_eq!(short.len(), 4);
    }

    #[test]
    fn tokens_unseen_by_the_fit_are_dropped() {
        let texts = ["alpha beta", "beta gamma", "gamma delta"];
        let corpus = TokenizedCorpus::new(&texts, &TfidfConfig::default());
        let fold = corpus.fit(&[0, 1]);
        assert_eq!(fold.n_features(), 3);
        let vectorizer = fold.vectorizer();
        let vocab = vectorizer.model().expect("fitted").vocabulary();
        assert_eq!(vocab.tokens_in_order(), ["alpha", "beta", "gamma"]);
        assert_eq!(vocab.n_docs(), 2);
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
