//! The ingest data model: what the pipeline emits per detected dox, the
//! Figure 1 funnel counters, and the combined output both the sequential
//! reference pipeline and the streaming engine produce.

use crate::dedup::DuplicateKind;
use dox_extract::record::ExtractedDox;
use dox_osn::clock::SimTime;
use dox_synth::corpus::Source;
use dox_synth::truth::DoxTruth;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A document the classifier flagged as a dox.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectedDox {
    /// Document id from the stream.
    pub doc_id: u64,
    /// Source site.
    pub source: Source,
    /// Collection period (1 or 2).
    pub period: u8,
    /// Posting time.
    pub posted_at: SimTime,
    /// When the collector saw it (monitoring starts here).
    pub observed_at: SimTime,
    /// Plain-text body (after HTML conversion).
    pub text: String,
    /// Extraction record.
    pub extracted: ExtractedDox,
    /// De-duplication verdict; `None` means this is the first dox of its
    /// victim.
    pub duplicate: Option<(DuplicateKind, u64)>,
    /// Ground truth when the document really is a dox (false positives
    /// carry `None`). Used only by evaluation, never by inference.
    pub truth: Option<Box<DoxTruth>>,
}

/// Per-stage counters — the numbers on the Figure 1 funnel.
///
/// Construct with [`PipelineCounters::default`] and the struct-update
/// syntax is reserved to this crate: the struct is `#[non_exhaustive]` so
/// new funnel stages can be added without breaking downstream crates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct PipelineCounters {
    /// Documents processed per source.
    pub per_source: BTreeMap<String, u64>,
    /// Documents processed per period: `[period1, period2]`.
    pub per_period: [u64; 2],
    /// Classified as dox per period.
    pub dox_per_period: [u64; 2],
    /// Duplicates removed per period.
    pub duplicates_per_period: [u64; 2],
    /// Total documents.
    pub total: u64,
    /// Total classified as dox.
    pub classified_dox: u64,
    /// Exact-body duplicates.
    pub exact_duplicates: u64,
    /// Account-set duplicates.
    pub account_set_duplicates: u64,
}

impl PipelineCounters {
    /// Unique doxes after dedup. Saturates at zero: counters assembled
    /// from partial or merged streams can carry more recorded duplicates
    /// than classified doxes, and a funnel count must never wrap.
    pub fn unique_doxes(&self) -> u64 {
        self.classified_dox
            .saturating_sub(self.exact_duplicates)
            .saturating_sub(self.account_set_duplicates)
    }

    /// Unique doxes in one period (saturating, like [`Self::unique_doxes`]).
    pub fn unique_in_period(&self, which: u8) -> u64 {
        let i = usize::from(which - 1);
        self.dox_per_period[i].saturating_sub(self.duplicates_per_period[i])
    }

    /// Count one document from the source named `source`; the key is
    /// allocated only the first time a source is seen.
    pub fn count_source(&mut self, source: &str) {
        match self.per_source.get_mut(source) {
            Some(n) => *n += 1,
            None => {
                self.per_source.insert(source.to_string(), 1);
            }
        }
    }

    /// Fold `other` into `self`, field by field. The engine's commit
    /// state keeps the document-level and dedup-level counters as two halves,
    /// the split its checkpoints persist; the merged result equals what
    /// one sequential pass would have counted because the two halves
    /// touch disjoint fields.
    pub fn absorb(&mut self, other: &PipelineCounters) {
        for (source, n) in &other.per_source {
            *self.per_source.entry(source.clone()).or_insert(0) += n;
        }
        for i in 0..2 {
            self.per_period[i] += other.per_period[i];
            self.dox_per_period[i] += other.dox_per_period[i];
            self.duplicates_per_period[i] += other.duplicates_per_period[i];
        }
        self.total += other.total;
        self.classified_dox += other.classified_dox;
        self.exact_duplicates += other.exact_duplicates;
        self.account_set_duplicates += other.account_set_duplicates;
    }
}

/// The outcome of the pure per-document stage: `None` when the classifier
/// rejects the document, else the plain text plus its extraction record.
pub type StagedDoc = Option<(String, ExtractedDox)>;

/// Everything an ingest run accumulates: the detected doxes (stream
/// order; their ids are the documents labeled dox, which the Table 3
/// deletion survey reads) and the funnel counters.
#[derive(Debug, Default)]
pub struct PipelineOutput {
    /// Every detected dox, stream order.
    pub detected: Vec<DetectedDox>,
    /// Figure 1 funnel counters.
    pub counters: PipelineCounters,
    /// Documents dropped because a poisoned stage worker exhausted its
    /// retry budget — an explicit coverage gap, never a silent loss. Zero
    /// in fault-free and fully-recovered runs.
    pub stage_gap_docs: u64,
}

impl PipelineOutput {
    /// Every detected dox, stream order.
    pub fn detected(&self) -> &[DetectedDox] {
        &self.detected
    }

    /// Detected doxes that survived de-duplication.
    pub fn unique_doxes(&self) -> impl Iterator<Item = &DetectedDox> {
        self.detected.iter().filter(|d| d.duplicate.is_none())
    }

    /// Stage counters.
    pub fn counters(&self) -> &PipelineCounters {
        &self.counters
    }

    /// Ground-truth confusion counts over everything detected:
    /// `(true_pos, false_pos)` — false negatives need the caller's truth
    /// stream, so only what the pipeline can see is reported.
    pub fn detection_quality(&self) -> (u64, u64) {
        let tp = self.detected.iter().filter(|d| d.truth.is_some()).count() as u64;
        let fp = self.detected.len() as u64 - tp;
        (tp, fp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_counts_saturate_when_duplicates_exceed_doxes() {
        // Counters merged from partial streams can record more duplicates
        // than classified doxes; the funnel arithmetic must clamp at zero
        // instead of wrapping to ~2^64.
        let c = PipelineCounters {
            classified_dox: 3,
            exact_duplicates: 2,
            account_set_duplicates: 2,
            dox_per_period: [1, 2],
            duplicates_per_period: [4, 0],
            ..PipelineCounters::default()
        };
        assert_eq!(c.unique_doxes(), 0);
        assert_eq!(c.unique_in_period(1), 0);
        assert_eq!(c.unique_in_period(2), 2);
    }

    #[test]
    #[allow(clippy::field_reassign_with_default)]
    fn absorb_is_fieldwise_addition() {
        let mut a = PipelineCounters::default();
        a.total = 10;
        a.per_period = [6, 4];
        a.per_source.insert("pastebin.com".into(), 10);
        a.classified_dox = 3;
        a.dox_per_period = [2, 1];

        let mut b = PipelineCounters::default();
        b.duplicates_per_period = [1, 0];
        b.exact_duplicates = 1;
        b.per_source.insert("pastebin.com".into(), 2);
        b.per_source.insert("4chan/b".into(), 5);

        a.absorb(&b);
        assert_eq!(a.total, 10);
        assert_eq!(a.per_source["pastebin.com"], 12);
        assert_eq!(a.per_source["4chan/b"], 5);
        assert_eq!(a.exact_duplicates, 1);
        assert_eq!(a.unique_doxes(), 2);
        assert_eq!(a.unique_in_period(1), 1);
    }
}
