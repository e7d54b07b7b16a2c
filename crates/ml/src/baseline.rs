//! Baseline classifiers the paper's TF-IDF + SGD approach is compared
//! against in our ablation benchmarks.
//!
//! The paper does not report a formal baseline, but the obvious pre-ML
//! approach — keyword rules ("dox", "name:", "address:", …) — is the one a
//! paste-site operator would deploy first, and multinomial naive Bayes is
//! the canonical cheap text classifier. Both are implemented here so the
//! benchmark suite can show where the learned classifier wins.

use dox_textkit::sparse::SparseVec;
use dox_textkit::tokenize::Tokenizer;
use serde::Serialize;
use std::collections::HashSet;

/// A transparent keyword/heuristic dox detector.
///
/// Scores a document by counting indicator hits; classifies as dox when the
/// score reaches `threshold`. Indicators follow doxing-tutorial vocabulary:
/// the word "dox" itself, labeled sensitive fields, and bragging phrases.
#[derive(Debug, Clone, Serialize)]
pub struct KeywordBaseline {
    /// Minimum number of distinct indicator hits to classify as dox.
    pub threshold: usize,
}

impl Default for KeywordBaseline {
    fn default() -> Self {
        Self { threshold: 3 }
    }
}

/// Indicator terms; all lowercase, matched against tokenized text.
const TOKEN_INDICATORS: &[&str] = &["dox", "doxed", "doxx", "doxxed", "d0x", "swat", "swatted"];

/// Labeled-field indicators; matched as substrings of the lowercased text.
const PHRASE_INDICATORS: &[&str] = &[
    "full name",
    "real name",
    "name:",
    "address:",
    "addy:",
    "phone:",
    "phone number",
    "date of birth",
    "dob:",
    "zip:",
    "zipcode",
    "ip:",
    "ip address",
    "isp:",
    "ssn",
    "social security",
    "mother's name",
    "father's name",
    "skype:",
    "facebook:",
    "twitter:",
    "instagram:",
    "school:",
    "dropped by",
    "get rekt",
    "have fun",
];

impl KeywordBaseline {
    /// Count distinct indicator hits in `text`.
    pub fn score(&self, text: &str) -> usize {
        let lower = text.to_lowercase();
        let tokens: HashSet<String> = Tokenizer::sklearn_default()
            .tokenize(&lower)
            .into_iter()
            .collect();
        let tok_hits = TOKEN_INDICATORS
            .iter()
            .filter(|t| tokens.contains(**t))
            .count();
        let phrase_hits = PHRASE_INDICATORS
            .iter()
            .filter(|p| lower.contains(**p))
            .count();
        tok_hits + phrase_hits
    }

    /// Classify `text` as dox / not-dox.
    pub fn predict(&self, text: &str) -> bool {
        self.score(text) >= self.threshold
    }
}

/// Multinomial naive Bayes over term-count vectors with Laplace smoothing.
#[derive(Debug, Clone, Serialize)]
pub struct MultinomialNb {
    log_prior_pos: f64,
    log_prior_neg: f64,
    log_lik_pos: Vec<f64>,
    log_lik_neg: Vec<f64>,
}

impl MultinomialNb {
    /// Train on `(sample, label)` pairs over `n_features` features with
    /// Laplace smoothing `alpha` (use `1.0` for classic add-one).
    ///
    /// Samples are expected to be term *counts*; TF-IDF-weighted vectors
    /// also work (weights act as fractional counts) but the probabilistic
    /// interpretation is then approximate.
    ///
    /// # Panics
    /// Panics on empty input, length mismatch, or non-positive `alpha`.
    pub fn fit(n_features: usize, samples: &[SparseVec], labels: &[bool], alpha: f64) -> Self {
        assert!(!samples.is_empty(), "cannot fit on an empty training set");
        assert_eq!(
            samples.len(),
            labels.len(),
            "samples/labels length mismatch"
        );
        assert!(alpha > 0.0, "smoothing alpha must be positive");

        let mut count_pos = vec![0.0f64; n_features];
        let mut count_neg = vec![0.0f64; n_features];
        let (mut n_pos, mut n_neg) = (0usize, 0usize);
        for (x, &y) in samples.iter().zip(labels) {
            let target = if y {
                n_pos += 1;
                &mut count_pos
            } else {
                n_neg += 1;
                &mut count_neg
            };
            x.axpy_into(1.0, target);
        }
        let total_pos: f64 = count_pos.iter().sum::<f64>() + alpha * n_features as f64;
        let total_neg: f64 = count_neg.iter().sum::<f64>() + alpha * n_features as f64;
        let log_lik = |counts: &[f64], total: f64| {
            counts
                .iter()
                .map(|&c| ((c + alpha) / total).ln())
                .collect::<Vec<f64>>()
        };
        let n = samples.len() as f64;
        // Laplace-smoothed class priors keep an all-one-class training set
        // from producing -inf.
        let prior_pos = ((n_pos as f64 + 1.0) / (n + 2.0)).ln();
        let prior_neg = ((n_neg as f64 + 1.0) / (n + 2.0)).ln();
        Self {
            log_prior_pos: prior_pos,
            log_prior_neg: prior_neg,
            log_lik_pos: log_lik(&count_pos, total_pos),
            log_lik_neg: log_lik(&count_neg, total_neg),
        }
    }

    /// Log-odds of the positive class.
    pub fn decision_function(&self, x: &SparseVec) -> f64 {
        let pos = self.log_prior_pos + x.dot_dense(&self.log_lik_pos);
        let neg = self.log_prior_neg + x.dot_dense(&self.log_lik_neg);
        pos - neg
    }

    /// Predict the label of one sample.
    pub fn predict(&self, x: &SparseVec) -> bool {
        self.decision_function(x) > 0.0
    }

    /// Predict a batch.
    pub fn predict_batch(&self, xs: &[SparseVec]) -> Vec<bool> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOXY: &str = "DOX DROP!!! Full Name: John Example\nAddress: 12 Main St\n\
                        Phone: 555-0100\nIP: 10.1.2.3\nDropped by xX_alice_Xx";
    const CODE: &str = "fn main() { println!(\"hello world\"); } // rust snippet";

    #[test]
    fn keyword_flags_obvious_dox() {
        let b = KeywordBaseline::default();
        assert!(b.predict(DOXY), "score = {}", b.score(DOXY));
    }

    #[test]
    fn keyword_passes_code() {
        let b = KeywordBaseline::default();
        assert!(!b.predict(CODE));
        assert_eq!(b.score(""), 0);
    }

    #[test]
    fn keyword_threshold_monotone() {
        let lenient = KeywordBaseline { threshold: 1 };
        let strict = KeywordBaseline { threshold: 50 };
        assert!(lenient.predict(DOXY));
        assert!(!strict.predict(DOXY));
    }

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    fn toy() -> (Vec<SparseVec>, Vec<bool>) {
        // feature 0 = "name", feature 1 = "println"
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..10 {
            xs.push(sv(&[(0, 3.0), (2, 1.0)]));
            ys.push(true);
            xs.push(sv(&[(1, 3.0), (2, 1.0)]));
            ys.push(false);
        }
        (xs, ys)
    }

    #[test]
    fn nb_learns_toy_problem() {
        let (xs, ys) = toy();
        let nb = MultinomialNb::fit(3, &xs, &ys, 1.0);
        assert!(xs.iter().zip(&ys).all(|(x, &y)| nb.predict(x) == y));
    }

    #[test]
    fn nb_priors_shift_empty_sample() {
        // Heavily imbalanced labels: empty doc should follow the prior.
        let xs: Vec<SparseVec> = (0..20).map(|_| SparseVec::new()).collect();
        let ys: Vec<bool> = (0..20).map(|i| i < 18).collect();
        let nb = MultinomialNb::fit(1, &xs, &ys, 1.0);
        assert!(nb.predict(&SparseVec::new()));
    }

    #[test]
    fn nb_single_class_training_does_not_nan() {
        let xs = vec![sv(&[(0, 1.0)]); 3];
        let ys = vec![true; 3];
        let nb = MultinomialNb::fit(1, &xs, &ys, 1.0);
        let d = nb.decision_function(&xs[0]);
        assert!(d.is_finite());
        assert!(nb.predict(&xs[0]));
    }

    #[test]
    fn nb_unseen_feature_is_neutral() {
        let (xs, ys) = toy();
        let nb = MultinomialNb::fit(3, &xs, &ys, 1.0);
        // decision on a vector with only out-of-range features = prior only
        let d = nb.decision_function(&sv(&[(100, 1.0)]));
        assert!(d.is_finite());
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn nb_empty_panics() {
        MultinomialNb::fit(1, &[], &[], 1.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be positive")]
    fn nb_zero_alpha_panics() {
        MultinomialNb::fit(1, &[SparseVec::new()], &[true], 0.0);
    }

    #[test]
    fn nb_batch_matches_single() {
        let (xs, ys) = toy();
        let nb = MultinomialNb::fit(3, &xs, &ys, 1.0);
        assert_eq!(nb.predict_batch(&xs), ys);
    }
}
