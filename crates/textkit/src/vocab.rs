//! Vocabulary construction with document-frequency accounting.
//!
//! A [`Vocabulary`] maps tokens to dense feature indices and records each
//! token's document frequency, which the TF-IDF vectorizer turns into idf
//! weights. Construction is deterministic: feature indices are assigned by
//! sorting the surviving tokens lexicographically, matching scikit-learn.

use serde::Serialize;
use std::collections::HashMap;

/// Document-frequency pruning options, mirroring sklearn's
/// `min_df`/`max_df` parameters (defaults `1` and `1.0`).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct VocabConfig {
    /// Drop tokens appearing in fewer than this many documents.
    pub min_df: usize,
    /// Drop tokens appearing in more than this fraction of documents.
    pub max_df_ratio: f64,
    /// Optional cap on vocabulary size (keep the most frequent tokens).
    pub max_features: Option<usize>,
}

impl Default for VocabConfig {
    fn default() -> Self {
        Self {
            min_df: 1,
            max_df_ratio: 1.0,
            max_features: None,
        }
    }
}

/// A frozen token→index mapping with document frequencies.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Vocabulary {
    index: HashMap<String, u32>,
    /// Document frequency per feature index.
    doc_freq: Vec<u32>,
    /// Number of documents the vocabulary was fitted on.
    n_docs: usize,
}

/// Incremental builder: feed tokenized documents, then freeze.
#[derive(Debug, Clone, Default)]
pub struct VocabBuilder {
    doc_freq: HashMap<String, u32>,
    n_docs: usize,
}

impl VocabBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one document's tokens (duplicates within the document count
    /// once toward document frequency).
    pub fn add_document<S: AsRef<str>>(&mut self, tokens: &[S]) {
        self.n_docs += 1;
        let mut seen: Vec<&str> = tokens.iter().map(AsRef::as_ref).collect();
        seen.sort_unstable();
        seen.dedup();
        for tok in seen {
            // Only a token seen for the first time pays for an owned key.
            match self.doc_freq.get_mut(tok) {
                Some(df) => *df += 1,
                None => {
                    self.doc_freq.insert(tok.to_string(), 1);
                }
            }
        }
    }

    /// Number of documents added so far.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Freeze into a [`Vocabulary`], applying pruning.
    pub fn build(self, config: &VocabConfig) -> Vocabulary {
        let mut entries: Vec<(String, u32)> = self.doc_freq.into_iter().collect();
        entries.sort_unstable();
        Vocabulary::from_selected(select(entries, self.n_docs, config), self.n_docs)
    }
}

/// The one pruning rule: keep the `(token, df)` entries that pass
/// `min_df` and `max_df_ratio`, and cap them at `max_features`.
///
/// `entries` come in token order and the kept ones leave in it, which is
/// feature order. Keys must be distinct and order as their tokens do:
/// the tokens themselves, or ids ranked in token order.
pub(crate) fn select<K: Ord>(
    mut entries: Vec<(K, u32)>,
    n_docs: usize,
    config: &VocabConfig,
) -> Vec<(K, u32)> {
    let max_df = (config.max_df_ratio * n_docs as f64).floor() as u32;
    entries.retain(|&(_, df)| df as usize >= config.min_df && (n_docs == 0 || df <= max_df));
    if let Some(cap) = config.max_features {
        // Keep highest-df tokens; tie-break lexicographically for
        // determinism (sklearn keeps highest term frequency — df is the
        // closest stable analogue available here).
        entries.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(cap);
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    }
    entries
}

impl Vocabulary {
    /// The vocabulary of `entries`, `(token, df)` in feature order as
    /// [`select`] returns them.
    pub(crate) fn from_selected(
        entries: impl IntoIterator<Item = (String, u32)>,
        n_docs: usize,
    ) -> Self {
        let entries = entries.into_iter();
        let mut index = HashMap::with_capacity(entries.size_hint().0);
        let mut doc_freq = Vec::with_capacity(entries.size_hint().0);
        for (i, (tok, df)) in entries.enumerate() {
            index.insert(tok, i as u32);
            doc_freq.push(df);
        }
        Vocabulary {
            index,
            doc_freq,
            n_docs,
        }
    }

    /// Fit a vocabulary over pre-tokenized documents in one call.
    pub fn fit<S: AsRef<str>>(docs: &[Vec<S>], config: &VocabConfig) -> Self {
        let mut b = VocabBuilder::new();
        for d in docs {
            b.add_document(d);
        }
        b.build(config)
    }

    /// Feature index for `token`, if in vocabulary.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.index.get(token).copied()
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.doc_freq.len()
    }

    /// True when no tokens survived pruning.
    pub fn is_empty(&self) -> bool {
        self.doc_freq.is_empty()
    }

    /// Document frequency of feature `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    pub fn doc_freq(&self, idx: u32) -> u32 {
        self.doc_freq[idx as usize]
    }

    /// Number of documents the vocabulary was fitted on.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Tokens in feature-index order (for diagnostics and model dumps).
    pub fn tokens_in_order(&self) -> Vec<&str> {
        let mut v: Vec<(&str, u32)> = self.index.iter().map(|(t, &i)| (t.as_str(), i)).collect();
        v.sort_unstable_by_key(|&(_, i)| i);
        v.into_iter().map(|(t, _)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(raw: &[&[&str]]) -> Vec<Vec<String>> {
        raw.iter()
            .map(|d| d.iter().map(|s| s.to_string()).collect())
            .collect()
    }

    #[test]
    fn indices_are_lexicographic() {
        let v = Vocabulary::fit(
            &docs(&[&["zebra", "apple"], &["apple", "mango"]]),
            &VocabConfig::default(),
        );
        assert_eq!(v.get("apple"), Some(0));
        assert_eq!(v.get("mango"), Some(1));
        assert_eq!(v.get("zebra"), Some(2));
        assert_eq!(v.tokens_in_order(), vec!["apple", "mango", "zebra"]);
    }

    #[test]
    fn doc_freq_counts_documents_not_occurrences() {
        let v = Vocabulary::fit(
            &docs(&[&["dup", "dup", "dup"], &["dup", "other"]]),
            &VocabConfig::default(),
        );
        assert_eq!(v.doc_freq(v.get("dup").unwrap()), 2);
        assert_eq!(v.doc_freq(v.get("other").unwrap()), 1);
        assert_eq!(v.n_docs(), 2);
    }

    #[test]
    fn min_df_prunes_rare() {
        let cfg = VocabConfig {
            min_df: 2,
            ..VocabConfig::default()
        };
        let v = Vocabulary::fit(&docs(&[&["rare", "common"], &["common"]]), &cfg);
        assert_eq!(v.get("rare"), None);
        assert!(v.get("common").is_some());
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn max_df_prunes_ubiquitous() {
        let cfg = VocabConfig {
            max_df_ratio: 0.5,
            ..VocabConfig::default()
        };
        let v = Vocabulary::fit(
            &docs(&[&["stop", "a"], &["stop", "b"], &["stop", "c"], &["c"]]),
            &cfg,
        );
        assert_eq!(v.get("stop"), None); // df 3/4 > 0.5
        assert!(v.get("c").is_some()); // df 2/4 == 0.5
    }

    #[test]
    fn max_features_keeps_most_frequent() {
        let cfg = VocabConfig {
            max_features: Some(1),
            ..VocabConfig::default()
        };
        let v = Vocabulary::fit(&docs(&[&["hi", "lo"], &["hi"]]), &cfg);
        assert_eq!(v.len(), 1);
        assert!(v.get("hi").is_some());
    }

    #[test]
    fn empty_fit_is_empty() {
        let v = Vocabulary::fit(&docs(&[]), &VocabConfig::default());
        assert!(v.is_empty());
        assert_eq!(v.n_docs(), 0);
    }

    #[test]
    fn unknown_token_is_none() {
        let v = Vocabulary::fit(&docs(&[&["known"]]), &VocabConfig::default());
        assert_eq!(v.get("unknown"), None);
    }
}
