//! A binary SGD linear classifier compatible with scikit-learn's
//! `SGDClassifier` defaults as used by the paper.
//!
//! scikit-learn 0.17.1 defaults that we replicate:
//!
//! - loss: hinge (linear SVM)
//! - penalty: L2 with `alpha = 1e-4`
//! - learning rate schedule: `optimal` — `eta(t) = 1 / (alpha * (t0 + t))`
//!   with `t0` chosen by Léon Bottou's heuristic
//! - `fit_intercept = true`; the intercept learning rate is not regularized
//! - samples shuffled each epoch
//! - `n_iter = 20` (the one non-default the paper sets)
//!
//! The implementation stores weights densely (vocabulary sizes here are
//! 10⁴–10⁵) and consumes [`SparseVec`] samples.

use dox_textkit::sparse::SparseVec;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;

/// Loss functions supported by [`SgdClassifier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Loss {
    /// Hinge loss (linear SVM) — the sklearn default used by the paper.
    Hinge,
    /// Logistic loss; enables calibrated probability estimates.
    Log,
    /// Modified Huber loss — robust, supports probability estimates.
    ModifiedHuber,
}

/// Regularization penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Penalty {
    /// No regularization.
    None,
    /// Ridge penalty `alpha * ||w||² / 2` (sklearn default).
    L2,
    /// Lasso penalty `alpha * ||w||₁` via truncated gradient.
    L1,
}

/// Hyper-parameters for [`SgdClassifier`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SgdConfig {
    /// Loss function.
    pub loss: Loss,
    /// Penalty kind.
    pub penalty: Penalty,
    /// Regularization strength (sklearn default `1e-4`).
    pub alpha: f64,
    /// Number of passes over the training data. The paper sets 20.
    pub epochs: usize,
    /// Fit an unregularized intercept term (sklearn default true).
    pub fit_intercept: bool,
    /// Scale applied to intercept updates. scikit-learn uses 0.01 for
    /// sparse inputs (`SPARSE_INTERCEPT_DECAY`) so the intercept does not
    /// swing with class imbalance; dense inputs use 1.0.
    pub intercept_decay: f64,
    /// Shuffle samples each epoch (sklearn default true).
    pub shuffle: bool,
    /// RNG seed for shuffling.
    pub seed: u64,
    /// Average the weight vectors over updates (ASGD; sklearn `average`).
    pub average: bool,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self::paper()
    }
}

impl SgdConfig {
    /// The exact configuration used in the paper: sklearn defaults with 20
    /// training passes.
    pub fn paper() -> Self {
        Self {
            loss: Loss::Hinge,
            penalty: Penalty::L2,
            alpha: 1e-4,
            epochs: 20,
            fit_intercept: true,
            intercept_decay: 0.01,
            shuffle: true,
            seed: 0x5eed,
            average: false,
        }
    }

    /// Logistic-regression variant (used by ablation benches).
    pub fn logistic() -> Self {
        Self {
            loss: Loss::Log,
            ..Self::paper()
        }
    }
}

/// A trained binary linear classifier. Labels are `true` (positive class,
/// "dox") and `false` (negative class).
#[derive(Debug, Clone, Serialize)]
pub struct SgdClassifier {
    config: SgdConfig,
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
        // Averaged weights (only maintained when config.average).
        let mut w_avg = vec![0.0f64; if config.average { n_features } else { 0 }];
        let mut intercept_avg = 0.0f64;
        let mut n_updates = 0u64;

        // sklearn's `optimal` schedule: eta(t) = 1 / (alpha * (t0 + t)).
        // t0 = 1 / (alpha * eta0) with eta0 from Bottou's heuristic:
        // eta0 such that the typical initial loss decreases; sklearn uses
        // typ = sqrt(1 / sqrt(alpha)) and eta0 = typ / max(1, dloss(-typ, 1)).
        let typw = (1.0 / config.alpha.sqrt()).sqrt();
        let initial_eta0 = typw / dloss(config.loss, -typw, 1.0).max(1.0);
        let t0 = 1.0 / (initial_eta0 * config.alpha);

        let mut order: Vec<usize> = (0..samples.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let mut t = 1.0f64;
        // Multiplicative weight-scale trick: the L2 shrink each step is a
        // uniform scale, applied lazily so updates stay O(nnz).
        let mut wscale = 1.0f64;

        for _epoch in 0..config.epochs {
            if config.shuffle {
                fisher_yates(&mut order, &mut rng);
            }
            for &i in &order {
                let x = &samples[i];
                let y = if labels[i] { 1.0 } else { -1.0 };
                let eta = 1.0 / (config.alpha * (t0 + t));

                let margin = (x.dot_dense(&w) * wscale + intercept) * y;
                let grad = dloss(config.loss, margin, y);

                if let Penalty::L2 = config.penalty {
                    // w <- w * (1 - eta * alpha)
                    wscale *= 1.0 - eta * config.alpha;
                    if wscale < 1e-9 {
                        rescale(&mut w, &mut wscale);
                    }
                }

                if grad != 0.0 {
                    // w <- w + eta * grad * y * x (grad already includes y
                    // direction, see dloss contract)
                    x.axpy_into(eta * grad / wscale, &mut w);
                    if config.fit_intercept {
                        intercept += eta * grad * config.intercept_decay;
                    }
                }

                if let Penalty::L1 = config.penalty {
                    l1_truncate(&mut w, wscale, eta * config.alpha, x);
                }

                if config.average {
                    // Incremental mean of the (scaled) iterates.
                    n_updates += 1;
                    let k = n_updates as f64;
                    for (a, &cur) in w_avg.iter_mut().zip(&w) {
                        *a += (cur * wscale - *a) / k;
                    }
                    intercept_avg += (intercept - intercept_avg) / k;
                }
                t += 1.0;
            }
        }

        rescale(&mut w, &mut wscale);
        if config.average && n_updates > 0 {
            w = w_avg;
            intercept = intercept_avg;
        }
        Self {
            config,
            weights: w,
            intercept,
        }
    }

    /// Train with the paper's configuration.
    pub fn fit_paper(n_features: usize, samples: &[SparseVec], labels: &[bool]) -> Self {
        Self::fit(SgdConfig::paper(), n_features, samples, labels)
    }

    /// The raw decision value `w·x + b`; positive predicts the dox class.
    pub fn decision_function(&self, x: &SparseVec) -> f64 {
        x.dot_dense(&self.weights) + self.intercept
    }

    /// Predict the label of one sample.
    pub fn predict(&self, x: &SparseVec) -> bool {
        self.decision_function(x) > 0.0
    }

    /// Predict a batch of samples.
    pub fn predict_batch(&self, xs: &[SparseVec]) -> Vec<bool> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Positive-class probability estimate.
    ///
    /// Exact for [`Loss::Log`] (sigmoid of the decision value); for the other
    /// losses this applies the same sigmoid as a monotonic squashing, which
    /// preserves ranking but is uncalibrated — adequate for thresholding
    /// experiments, documented as such.
    pub fn predict_proba(&self, x: &SparseVec) -> f64 {
        let d = self.decision_function(x);
        1.0 / (1.0 + (-d).exp())
    }

    /// The trained weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The trained intercept.
    pub fn intercept(&self) -> f64 {
        self.intercept
    }

    /// The configuration the model was trained with.
    pub fn config(&self) -> &SgdConfig {
        &self.config
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

/// Negative derivative of the loss at `margin = y * f(x)`, multiplied by the
/// label direction: the update applied is `w += eta * dloss * x`.
///
/// Contract: returns `0` when the sample is already confidently correct.
fn dloss(loss: Loss, margin: f64, y: f64) -> f64 {
    match loss {
        Loss::Hinge => {
            if margin < 1.0 {
                y
            } else {
                0.0
            }
        }
        Loss::Log => {
            // d/dz log(1 + e^{-z}) = -1/(1+e^z); update magnitude in (0,1).
            y / (1.0 + margin.exp())
        }
        Loss::ModifiedHuber => {
            if margin >= 1.0 {
                0.0
            } else if margin >= -1.0 {
                2.0 * (1.0 - margin) * y
            } else {
                4.0 * y
            }
        }
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

/// Truncated-gradient L1: shrink only the coordinates touched by `x`
/// toward zero by `shrink` (in true weight units).
fn l1_truncate(w: &mut [f64], wscale: f64, shrink: f64, x: &SparseVec) {
    for &i in x.indices() {
        if let Some(slot) = w.get_mut(i as usize) {
            let true_w = *slot * wscale;
            let shrunk = if true_w > 0.0 {
                (true_w - shrink).max(0.0)
            } else {
                (true_w + shrink).min(0.0)
            };
            *slot = shrunk / wscale;
        }
    }
}

fn fisher_yates(order: &mut [usize], rng: &mut ChaCha8Rng) {
    for i in (1..order.len()).rev() {
        let j = rng.random_range(0..=i);
        order.swap(i, j);
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
        let clf = SgdClassifier::fit_paper(3, &xs, &ys);
        for (x, &y) in xs.iter().zip(&ys) {
            assert_eq!(clf.predict(x), y);
        }
        assert!(clf.weights()[0] > 0.0);
        assert!(clf.weights()[1] < 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = toy();
        let a = SgdClassifier::fit_paper(3, &xs, &ys);
        let b = SgdClassifier::fit_paper(3, &xs, &ys);
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
    fn log_loss_learns_too() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit(SgdConfig::logistic(), 3, &xs, &ys);
        let acc = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| clf.predict(x) == y)
            .count();
        assert_eq!(acc, xs.len());
        // probabilities ordered correctly
        assert!(clf.predict_proba(&sv(&[(0, 1.0)])) > 0.5);
        assert!(clf.predict_proba(&sv(&[(1, 1.0)])) < 0.5);
    }

    #[test]
    fn modified_huber_learns() {
        let (xs, ys) = toy();
        let cfg = SgdConfig {
            loss: Loss::ModifiedHuber,
            ..SgdConfig::paper()
        };
        let clf = SgdClassifier::fit(cfg, 3, &xs, &ys);
        assert!(xs.iter().zip(&ys).all(|(x, &y)| clf.predict(x) == y));
    }

    #[test]
    fn l1_produces_sparser_weights_than_l2() {
        let (xs, ys) = toy();
        let l2 = SgdClassifier::fit(SgdConfig::paper(), 3, &xs, &ys);
        let l1 = SgdClassifier::fit(
            SgdConfig {
                penalty: Penalty::L1,
                alpha: 1e-2,
                ..SgdConfig::paper()
            },
            3,
            &xs,
            &ys,
        );
        let nz = |w: &[f64]| w.iter().filter(|v| v.abs() > 1e-12).count();
        assert!(nz(l1.weights()) <= nz(l2.weights()));
    }

    #[test]
    fn averaging_still_classifies() {
        let (xs, ys) = toy();
        let cfg = SgdConfig {
            average: true,
            ..SgdConfig::paper()
        };
        let clf = SgdClassifier::fit(cfg, 3, &xs, &ys);
        assert!(xs.iter().zip(&ys).all(|(x, &y)| clf.predict(x) == y));
    }

    #[test]
    fn intercept_handles_biased_classes() {
        // All-zero features; labels 90% positive. Model must lean positive
        // via the intercept.
        let xs: Vec<SparseVec> = (0..50).map(|_| SparseVec::new()).collect();
        let ys: Vec<bool> = (0..50).map(|i| i % 10 != 0).collect();
        let clf = SgdClassifier::fit(SgdConfig::logistic(), 1, &xs, &ys);
        assert!(clf.predict(&SparseVec::new()));
    }

    #[test]
    fn out_of_range_features_ignored() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit_paper(3, &xs, &ys);
        let weird = sv(&[(0, 1.0), (500, 9.0)]);
        assert!(clf.predict(&weird));
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_panics() {
        SgdClassifier::fit_paper(1, &[], &[]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        SgdClassifier::fit_paper(1, &[SparseVec::new()], &[]);
    }

    #[test]
    fn top_features_sorted_descending() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit_paper(3, &xs, &ys);
        let top = clf.top_positive_features(2);
        assert_eq!(top[0].0, 0);
        assert!(top[0].1 >= top[1].1);
    }

    #[test]
    fn predict_batch_matches_single() {
        let (xs, ys) = toy();
        let clf = SgdClassifier::fit_paper(3, &xs, &ys);
        let batch = clf.predict_batch(&xs);
        for (b, x) in batch.iter().zip(&xs) {
            assert_eq!(*b, clf.predict(x));
        }
        assert_eq!(batch, ys);
    }
}
