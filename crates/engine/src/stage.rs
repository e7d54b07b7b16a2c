//! The pure per-document stage work: HTML→text conversion, dox
//! classification, and — for classified doxes — extraction.
//!
//! Everything here is free of shared mutable state, which is what lets
//! both the batch pipeline and the streaming engine fan it out across
//! worker threads without changing a single bit of the result. Timings
//! are accumulated into thread-local [`StageLocal`] histograms and merged
//! once per chunk, so the hot loop performs no atomic traffic.

use crate::output::StagedDoc;
use dox_obs::{Counter, Histogram, LocalHistogram, Registry};
use dox_sites::collect::CollectedDoc;
use dox_textkit::html::html_to_text;
use std::borrow::Cow;
use std::time::Instant;

/// The classification stage seen by the engine: anything that can say
/// whether a plain-text document is a dox.
///
/// The trained TF-IDF + SGD `DoxClassifier` in `dox-core` is the real
/// implementation; tests substitute keyword stubs. Implementations must
/// be pure (same text → same verdict) or the run stops being a pure
/// function of `(config, seed)`.
pub trait DoxDetector: Send + Sync {
    /// Classify one plain-text document.
    fn is_dox(&self, text: &str) -> bool;
}

impl<T: DoxDetector + ?Sized> DoxDetector for &T {
    fn is_dox(&self, text: &str) -> bool {
        (**self).is_dox(text)
    }
}

impl<T: DoxDetector + ?Sized> DoxDetector for std::sync::Arc<T> {
    fn is_dox(&self, text: &str) -> bool {
        (**self).is_dox(text)
    }
}

/// Pre-resolved shared handles for the per-document stage metrics
/// (Figure 1's conversion/classify/extract stages), resolved once so
/// workers merge locals with a handful of relaxed atomic ops.
#[derive(Clone)]
pub struct StageMetrics {
    /// Documents that went through HTML→text conversion.
    pub html_converted: Counter,
    /// Per-document stage durations, nanoseconds.
    pub html_convert_ns: Histogram,
    /// Classification durations, nanoseconds.
    pub classify_ns: Histogram,
    /// Extraction durations, nanoseconds.
    pub extract_ns: Histogram,
}

impl StageMetrics {
    /// Resolve the canonical `pipeline.*` metric names in `registry`.
    pub fn resolve(registry: &Registry) -> Self {
        Self {
            html_converted: registry.counter("pipeline.funnel.html_converted"),
            html_convert_ns: registry.histogram("pipeline.stage.html_convert"),
            classify_ns: registry.histogram("pipeline.stage.classify"),
            extract_ns: registry.histogram("pipeline.stage.extract"),
        }
    }
}

/// Per-worker stage timings: workers accumulate locally and merge once
/// per chunk, so the parallel classify fan-out adds no atomic contention.
#[derive(Default)]
pub struct StageLocal {
    /// HTML conversion durations.
    pub html_convert: LocalHistogram,
    /// Classification durations.
    pub classify: LocalHistogram,
    /// Extraction durations.
    pub extract: LocalHistogram,
    /// Documents converted from HTML.
    pub html_converted: u64,
}

impl StageLocal {
    /// Fold the local timings into the shared stage metrics, leaving
    /// `self` empty.
    pub fn merge_into(&mut self, metrics: &StageMetrics) {
        self.html_convert.merge_into(&metrics.html_convert_ns);
        self.classify.merge_into(&metrics.classify_ns);
        self.extract.merge_into(&metrics.extract_ns);
        metrics.html_converted.add(self.html_converted);
        self.html_converted = 0;
    }
}

/// The pure (parallelizable) per-document work: HTML conversion,
/// classification, and — for classified doxes — extraction. Stage timings
/// land in `timings`; they observe the work without affecting the result.
pub fn classify_and_extract<C: DoxDetector + ?Sized>(
    classifier: &C,
    collected: &CollectedDoc,
    timings: &mut StageLocal,
) -> StagedDoc {
    let doc = &collected.doc;
    // Only a classified dox keeps its text, so plain bodies are borrowed
    // and copied on that branch alone.
    let text: Cow<'_, str> = if doc.source.is_html() {
        // dox-lint:allow(determinism) HTML-convert timing histogram; observation only
        let start = Instant::now();
        let text = html_to_text(&doc.body);
        timings.html_convert.record_duration(start.elapsed());
        timings.html_converted += 1;
        Cow::Owned(text)
    } else {
        Cow::Borrowed(&doc.body)
    };
    // dox-lint:allow(determinism) classify timing histogram; observation only
    let start = Instant::now();
    let is_dox = classifier.is_dox(&text);
    timings.classify.record_duration(start.elapsed());
    if !is_dox {
        return None;
    }
    // dox-lint:allow(determinism) extract timing histogram; observation only
    let start = Instant::now();
    let extracted = dox_extract::record::extract(&text);
    timings.extract.record_duration(start.elapsed());
    Some((text.into_owned(), extracted))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::{Source, SynthDoc};
    use dox_synth::truth::GroundTruth;

    /// A detector that flags documents containing "dox".
    pub(crate) struct KeywordDetector;

    impl DoxDetector for KeywordDetector {
        fn is_dox(&self, text: &str) -> bool {
            text.contains("dox")
        }
    }

    fn doc(source: Source, body: &str) -> CollectedDoc {
        CollectedDoc {
            doc: SynthDoc {
                id: 1,
                source,
                posted_at: SimTime(0),
                body: body.to_string(),
                deleted_after: None,
                truth: GroundTruth::Paste {
                    kind: dox_synth::truth::PasteKind::Code,
                },
            },
            collected_at: SimTime(5),
        }
    }

    #[test]
    fn html_sources_are_converted_before_classification() {
        let mut timings = StageLocal::default();
        let collected = doc(Source::Chan4B, "full&#039;s dox<br>fb: someone");
        let staged = classify_and_extract(&KeywordDetector, &collected, &mut timings);
        let (text, _) = staged.expect("keyword matches");
        assert!(!text.contains("<br>"), "HTML must be stripped: {text:?}");
        assert_eq!(timings.html_converted, 1);
        assert!(timings.classify.count() == 1);
    }

    #[test]
    fn rejected_documents_skip_extraction() {
        let mut timings = StageLocal::default();
        let collected = doc(Source::Pastebin, "innocuous paste");
        assert!(classify_and_extract(&KeywordDetector, &collected, &mut timings).is_none());
        assert_eq!(timings.extract.count(), 0);
        assert_eq!(timings.html_converted, 0);
    }

    #[test]
    fn arc_and_ref_detectors_delegate() {
        fn via_generic<D: DoxDetector>(detector: D) -> bool {
            detector.is_dox("a dox")
        }
        let arc: std::sync::Arc<dyn DoxDetector> = std::sync::Arc::new(KeywordDetector);
        assert!(arc.is_dox("a dox"));
        assert!(via_generic(&KeywordDetector), "&T blanket impl delegates");
        assert!(!arc.is_dox("nothing"));
    }
}
