//! # dox-ml
//!
//! Machine-learning substrate for the dox classifier (paper §3.1.2).
//!
//! The paper trains a stochastic-gradient-descent linear model
//! (scikit-learn 0.17.1 `SGDClassifier`, 20 training passes, all other
//! parameters default) over TF-IDF vectors, and evaluates it with a
//! two-thirds / one-third split, reporting per-class precision, recall, F1
//! and support (paper Table 1). This crate implements:
//!
//! - [`sgd`] — that binary `SGDClassifier` and only it: hinge loss, L2
//!   penalty, sklearn's `optimal` learning-rate schedule, 20 shuffled
//!   epochs; the shuffle seed is its one setting.
//! - [`metrics`] — confusion matrices, per-class precision/recall/F1 and the
//!   classification-report layout used by Table 1.
//! - [`split`] — the deterministic stratified train/test split and the
//!   Fisher–Yates shuffle it and the SGD epochs share.
//! - [`eval`] — end-to-end "vectorize, train, evaluate" helpers shared by
//!   the pipeline, benchmarks and tests.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod eval;
pub mod metrics;
pub mod sgd;
pub mod split;

pub use metrics::{ClassMetrics, ClassificationReport, ConfusionMatrix};
pub use sgd::{SgdClassifier, SgdConfig};
