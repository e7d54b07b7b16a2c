//! Classification metrics: confusion matrix, precision / recall / F1 and
//! the classification-report layout the paper uses for Table 1.

use serde::Serialize;

/// A binary confusion matrix. The positive class is "dox".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ConfusionMatrix {
    /// True positives: doxes classified as doxes.
    pub tp: usize,
    /// False positives: non-doxes classified as doxes.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives: doxes classified as non-doxes.
    pub fn_: usize,
}

impl ConfusionMatrix {
    /// Build from parallel predicted / actual label slices.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_labels(predicted: &[bool], actual: &[bool]) -> Self {
        assert_eq!(predicted.len(), actual.len(), "label length mismatch");
        let mut m = Self::default();
        for (&p, &a) in predicted.iter().zip(actual) {
            match (p, a) {
                (true, true) => m.tp += 1,
                (true, false) => m.fp += 1,
                (false, false) => m.tn += 1,
                (false, true) => m.fn_ += 1,
            }
        }
        m
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// Overall accuracy; 0 for an empty matrix.
    pub fn accuracy(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            (self.tp + self.tn) as f64 / t as f64
        }
    }

    /// Metrics of the positive (dox) class.
    pub fn positive_class(&self) -> ClassMetrics {
        ClassMetrics::from_counts(self.tp, self.fp, self.fn_, self.tp + self.fn_)
    }

    /// Metrics of the negative (non-dox) class.
    pub fn negative_class(&self) -> ClassMetrics {
        // For the negative class, a "true positive" is a true negative.
        ClassMetrics::from_counts(self.tn, self.fn_, self.fp, self.tn + self.fp)
    }
}

/// Precision / recall / F1 / support for one class.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassMetrics {
    /// Precision: of everything predicted into the class, how much belongs.
    pub precision: f64,
    /// Recall: of everything in the class, how much was found.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
    /// Number of true members of the class in the evaluation set.
    pub support: usize,
}

impl ClassMetrics {
    /// Compute metrics from raw counts. Undefined ratios (zero denominators)
    /// are reported as 0, matching scikit-learn's warning-then-zero
    /// behaviour.
    pub fn from_counts(tp: usize, fp: usize, fn_: usize, support: usize) -> Self {
        let precision = ratio(tp, tp + fp);
        let recall = ratio(tp, tp + fn_);
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
            support,
        }
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The two-class classification report of paper Table 1: per-class metrics
/// plus the support-weighted average row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ClassificationReport {
    /// Metrics of the "Dox" class.
    pub dox: ClassMetrics,
    /// Metrics of the "Not" class.
    pub not: ClassMetrics,
    /// Support-weighted averages (the "Avg / Total" row).
    pub weighted: ClassMetrics,
    /// Overall accuracy.
    pub accuracy: f64,
}

impl ClassificationReport {
    /// Build the report from predictions.
    pub fn from_labels(predicted: &[bool], actual: &[bool]) -> Self {
        Self::from_confusion(ConfusionMatrix::from_labels(predicted, actual))
    }

    /// Build the report from a confusion matrix.
    pub fn from_confusion(m: ConfusionMatrix) -> Self {
        let dox = m.positive_class();
        let not = m.negative_class();
        let total = (dox.support + not.support).max(1);
        let w = |f: fn(&ClassMetrics) -> f64| {
            (f(&dox) * dox.support as f64 + f(&not) * not.support as f64) / total as f64
        };
        let weighted = ClassMetrics {
            precision: w(|c| c.precision),
            recall: w(|c| c.recall),
            f1: w(|c| c.f1),
            support: dox.support + not.support,
        };
        Self {
            dox,
            not,
            weighted,
            accuracy: m.accuracy(),
        }
    }

    /// Render in the layout of paper Table 1.
    pub fn to_table(&self) -> String {
        let mut s = String::new();
        s.push_str("Label        Precision  Recall  F1     # Samples\n");
        for (name, c) in [("Dox", &self.dox), ("Not", &self.not)] {
            s.push_str(&format!(
                "{name:<12} {:<10.2} {:<7.2} {:<6.2} {}\n",
                c.precision, c.recall, c.f1, c.support
            ));
        }
        let c = &self.weighted;
        s.push_str(&format!(
            "{:<12} {:<10.2} {:<7.2} {:<6.2} {}\n",
            "Avg / Total", c.precision, c.recall, c.f1, c.support
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_counts() {
        let pred = [true, true, false, false, true];
        let act = [true, false, false, true, true];
        let m = ConfusionMatrix::from_labels(&pred, &act);
        assert_eq!(
            m,
            ConfusionMatrix {
                tp: 2,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert_eq!(m.total(), 5);
        assert!((m.accuracy() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn perfect_classifier() {
        let labels = [true, false, true, false];
        let r = ClassificationReport::from_labels(&labels, &labels);
        assert_eq!(r.dox.precision, 1.0);
        assert_eq!(r.dox.recall, 1.0);
        assert_eq!(r.not.f1, 1.0);
        assert_eq!(r.accuracy, 1.0);
    }

    #[test]
    fn degenerate_all_negative_predictions() {
        let pred = [false, false, false];
        let act = [true, true, false];
        let r = ClassificationReport::from_labels(&pred, &act);
        assert_eq!(r.dox.precision, 0.0); // 0/0 -> 0
        assert_eq!(r.dox.recall, 0.0);
        assert_eq!(r.dox.f1, 0.0);
        assert_eq!(r.not.recall, 1.0);
    }

    #[test]
    fn class_metrics_match_hand_computation() {
        // tp=8, fp=2, fn=1 -> p=0.8, r=8/9
        let c = ClassMetrics::from_counts(8, 2, 1, 9);
        assert!((c.precision - 0.8).abs() < 1e-12);
        assert!((c.recall - 8.0 / 9.0).abs() < 1e-12);
        let f1 = 2.0 * 0.8 * (8.0 / 9.0) / (0.8 + 8.0 / 9.0);
        assert!((c.f1 - f1).abs() < 1e-12);
    }

    #[test]
    fn weighted_average_is_support_weighted() {
        let m = ConfusionMatrix {
            tp: 9,
            fp: 1,
            tn: 89,
            fn_: 1,
        };
        let r = ClassificationReport::from_confusion(m);
        let expect = (r.dox.precision * 10.0 + r.not.precision * 90.0) / 100.0;
        assert!((r.weighted.precision - expect).abs() < 1e-12);
        assert_eq!(r.weighted.support, 100);
    }

    #[test]
    fn negative_class_mirrors_positive() {
        let m = ConfusionMatrix {
            tp: 5,
            fp: 3,
            tn: 10,
            fn_: 2,
        };
        let n = m.negative_class();
        // negative precision = tn / (tn + fn)
        assert!((n.precision - 10.0 / 12.0).abs() < 1e-12);
        // negative recall = tn / (tn + fp)
        assert!((n.recall - 10.0 / 13.0).abs() < 1e-12);
        assert_eq!(n.support, 13);
    }

    #[test]
    fn table_layout_contains_rows() {
        let labels = [true, false];
        let r = ClassificationReport::from_labels(&labels, &labels);
        let t = r.to_table();
        assert!(t.contains("Dox"));
        assert!(t.contains("Not"));
        assert!(t.contains("Avg / Total"));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        ConfusionMatrix::from_labels(&[true], &[]);
    }

    #[test]
    fn empty_matrix_is_safe() {
        let m = ConfusionMatrix::default();
        assert_eq!(m.accuracy(), 0.0);
        let r = ClassificationReport::from_confusion(m);
        assert_eq!(r.weighted.support, 0);
    }
}
