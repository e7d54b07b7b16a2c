//! The fitted vocabulary.
//!
//! A [`Vocabulary`] maps tokens to dense feature indices and records each
//! token's document frequency, which the TF-IDF vectorizer turns into idf
//! weights. It keeps every token seen in training (scikit-learn's defaults
//! prune nothing), and feature indices follow lexicographic token order,
//! as in scikit-learn. Lookups go through one frozen token table, the
//! same one the fused scorer reads.

use crate::table::TokenTable;

/// A frozen token→index mapping with document frequencies.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    /// Every token, in feature-index order.
    tokens: Vec<String>,
    /// Document frequency per feature index.
    doc_freq: Vec<u32>,
    /// Number of documents the vocabulary was fitted on.
    n_docs: usize,
    /// The token→index lookup.
    pub(crate) table: TokenTable,
}

impl Vocabulary {
    /// The vocabulary of `entries`, `(token, df)` in feature order: the
    /// tokens distinct and ascending.
    pub(crate) fn from_entries(
        entries: impl IntoIterator<Item = (String, u32)>,
        n_docs: usize,
    ) -> Self {
        let (tokens, doc_freq): (Vec<String>, Vec<u32>) = entries.into_iter().unzip();
        Vocabulary {
            table: TokenTable::new(&tokens, &doc_freq),
            tokens,
            doc_freq,
            n_docs,
        }
    }

    /// Feature index for `token`, if in vocabulary.
    pub fn get(&self, token: &str) -> Option<u32> {
        self.table.get(token)
    }

    /// Vocabulary size.
    pub fn len(&self) -> usize {
        self.doc_freq.len()
    }

    /// True when the fit saw no tokens.
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
    pub fn tokens_in_order(&self) -> &[String] {
        &self.tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab(tokens: &[&str]) -> Vocabulary {
        Vocabulary::from_entries(tokens.iter().map(|t| (t.to_string(), 1)), 1)
    }

    #[test]
    fn features_follow_entry_order() {
        let v = vocab(&["apple", "mango", "zebra"]);
        assert_eq!(v.get("apple"), Some(0));
        assert_eq!(v.get("mango"), Some(1));
        assert_eq!(v.get("zebra"), Some(2));
        assert_eq!(v.tokens_in_order(), ["apple", "mango", "zebra"]);
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn empty_vocabulary_is_empty() {
        let v = vocab(&[]);
        assert!(v.is_empty());
        assert_eq!(v.get("dox"), None);
        assert!(Vocabulary::default().is_empty());
    }

    #[test]
    fn unknown_token_is_none() {
        assert_eq!(vocab(&["known"]).get("unknown"), None);
    }
}
