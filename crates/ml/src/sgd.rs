//! A binary SGD linear classifier: scikit-learn's `SGDClassifier` at the
//! settings the paper used, and only those.
//!
//! scikit-learn 0.17.1 defaults that we replicate:
//!
//! - loss: hinge (linear SVM)
//! - penalty: L2 with `alpha = 1e-4`
//! - learning rate schedule: `optimal` — `eta(t) = 1 / (alpha * (t0 + t))`
//!   with `t0` chosen by Léon Bottou's heuristic
//! - an intercept, not regularized, whose updates are scaled by 0.01 (the
//!   sparse-input intercept decay)
//! - samples shuffled each epoch; no weight averaging
//! - `n_iter = 20` (the one non-default the paper sets)
//!
//! The implementation stores weights densely (vocabulary sizes here are
//! 10⁴–10⁵) and consumes [`SparseVec`] samples.

use crate::split::shuffle;
use dox_textkit::sparse::SparseVec;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Regularization strength (sklearn default `1e-4`).
const ALPHA: f64 = 1e-4;
/// Passes over the training data; the paper sets 20.
const EPOCHS: usize = 20;
/// Scale applied to intercept updates: scikit-learn's
/// `SPARSE_INTERCEPT_DECAY`, so the intercept does not swing with class
/// imbalance.
const INTERCEPT_DECAY: f64 = 0.01;

/// The one setting of [`SgdClassifier`] that is not fixed: the seed of
/// its epoch shuffles.
#[derive(Debug, Clone, PartialEq)]
pub struct SgdConfig {
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl SgdConfig {
    /// The paper's configuration, with the default shuffle seed.
    pub fn paper() -> Self {
        Self { seed: 0x5eed }
    }
}

/// A trained binary linear classifier. Labels are `true` (positive class,
/// "dox") and `false` (negative class).
#[derive(Debug, Clone)]
pub struct SgdClassifier {
    weights: Vec<f64>,
    intercept: f64,
}

impl SgdClassifier {
    /// Train a classifier on `(sample, label)` pairs.
    ///
    /// `n_features` bounds the feature indices that participate in training;
    /// out-of-range indices in samples are ignored (they can occur when a
    /// vectorizer is refitted on a superset corpus).
    ///
    /// # Panics
    /// Panics if `samples` and `labels` lengths differ or no samples given.
    pub fn fit(
        config: SgdConfig,
        n_features: usize,
        samples: &[SparseVec],
        labels: &[bool],
    ) -> Self {
        assert_eq!(
            samples.len(),
            labels.len(),
            "samples/labels length mismatch"
        );
        assert!(!samples.is_empty(), "cannot fit on an empty training set");

        let mut w = vec![0.0f64; n_features];
        let mut intercept = 0.0f64;

        // sklearn's `optimal` schedule: eta(t) = 1 / (alpha * (t0 + t)),
        // t0 = 1 / (alpha * eta0). Bottou's heuristic takes
        // typ = sqrt(1 / sqrt(alpha)) and eta0 = typ / max(1, dloss(-typ, 1));
        // the hinge's dloss there is 1, so eta0 = typ.
        let typw = (1.0 / ALPHA.sqrt()).sqrt();
        let t0 = 1.0 / (typw * ALPHA);

        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut t = 1.0f64;
        // Multiplicative weight-scale trick: the L2 shrink each step is a
        // uniform scale, applied lazily so updates stay O(nnz).
        let mut wscale = 1.0f64;

        for _epoch in 0..EPOCHS {
            shuffle(&mut order, &mut rng);
            for &i in &order {
                let x = &samples[i];
                let y = if labels[i] { 1.0 } else { -1.0 };
                let eta = 1.0 / (ALPHA * (t0 + t));

                let margin = (x.dot_dense(&w) * wscale + intercept) * y;

                // w <- w * (1 - eta * alpha)
                wscale *= 1.0 - eta * ALPHA;
                if wscale < 1e-9 {
                    rescale(&mut w, &mut wscale);
                }

                // The hinge's gradient is `y` inside the margin, else 0:
                // w <- w + eta * y * x.
                if margin < 1.0 {
                    x.axpy_into(eta * y / wscale, &mut w);
                    intercept += eta * y * INTERCEPT_DECAY;
                }
                t += 1.0;
            }
        }

        rescale(&mut w, &mut wscale);
        Self {
            weights: w,
            intercept,
        }
    }

    /// The raw decision value `w·x + b`; positive predicts the dox class.
    pub fn decision_function(&self, x: &SparseVec) -> f64 {
        x.dot_dense(&self.weights) + self.intercept
    }

    /// Predict the label of one sample.
    pub fn predict(&self, x: &SparseVec) -> bool {
        self.decision_function(x) > 0.0
    }

    /// The trained weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The trained intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// Indices of the `k` most positive (dox-indicative) weights,
    /// descending. Useful for model inspection reports.
    pub fn top_positive_features(&self, k: usize) -> Vec<(u32, f64)> {
        let mut idx: Vec<(u32, f64)> = self
            .weights
            .iter()
            .enumerate()
            .map(|(i, &w)| (i as u32, w))
            .collect();
        idx.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("weights are finite"));
        idx.truncate(k);
        idx
    }
}

fn rescale(w: &mut [f64], wscale: &mut f64) {
    if *wscale != 1.0 {
        for v in w.iter_mut() {
            *v *= *wscale;
        }
        *wscale = 1.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(pairs: &[(u32, f64)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    /// Linearly separable toy problem: feature 0 ⇒ positive, feature 1 ⇒
    /// negative.
    fn toy() -> (Vec<SparseVec>, Vec<bool>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for k in 0..20 {
            let bias = 0.1 * (k % 3) as f64;
            xs.push(sv(&[(0, 1.0), (2, bias)]));
            ys.push(true);
            xs.push(sv(&[(1, 1.0), (2, bias)]));
            ys.push(false);
        }
        (xs, ys)
    }

    #[test]
    fn learns_separable_problem() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit(SgdConfig::paper(), 3, &xs, &ys);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(clf.predict(x), y);
        }
        assert!(clf.weights()[0] > 0.0);
        assert!(clf.weights()[1] < 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = toy();
        let a = SgdClassifier::fit(SgdConfig::paper(), 3, &xs, &ys);
        let b = SgdClassifier::fit(SgdConfig::paper(), 3, &xs, &ys);
        assert_eq!(a.weights(), b.weights());
        assert_eq!(a.intercept(), b.intercept());
    }

    #[test]
    fn different_seed_different_path_same_answer() {
        let (xs, ys) = toy();
        let mut cfg = SgdConfig::paper();
        cfg.seed = 99;
        let a = SgdClassifier::fit(cfg, 3, &xs, &ys);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(a.predict(x), y);
        }
    }

    #[test]
    fn intercept_handles_biased_classes() {
        // All-zero features; labels 90% positive. Model must lean positive
        // via the intercept.
        let xs: Vec<SparseVec> = (0..50).map(|_| SparseVec::new()).collect();
        let ys: Vec<bool> = (0..50).map(|i| i % 10 != 0).collect();
        let clf = SgdClassifier::fit(SgdConfig::paper(), 1, &xs, &ys);
        assert!(clf.predict(&SparseVec::new()));
    }

    #[test]
    fn out_of_range_features_ignored() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit(SgdConfig::paper(), 3, &xs, &ys);
        let weird = sv(&[(0, 1.0), (500, 9.0)]);
        assert!(clf.predict(&weird));
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_panics() {
        SgdClassifier::fit(SgdConfig::paper(), 1, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        SgdClassifier::fit(SgdConfig::paper(), 1, &[SparseVec::new()], &[]);
    }

    #[test]
    fn top_features_sorted_descending() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit(SgdConfig::paper(), 3, &xs, &ys);
        let top = clf.top_positive_features(2);
        assert_eq!(top[0].0, 0);
        assert!(top[0].1 >= top[1].1);
    }
}
