//! The five-stage measurement pipeline (paper Figure 1) — the sequential
//! reference implementation.
//!
//! [`Pipeline`] consumes the collection stream one document at a time:
//! HTML conversion for chan posts, TF-IDF + SGD classification, extraction
//! of accounts/fields/credits for classified doxes, then streaming
//! de-duplication. Everything needed by the downstream analyses is
//! accumulated in the pipeline state: detected doxes with their extraction
//! records (whose sources, ids and posting times label the Table 3
//! deletion survey), per-stage counters, and the dox-labeled document ids.
//!
//! Production runs go through the streaming
//! [`Engine`](dox_engine::Engine) instead; this type remains the
//! executable specification the engine's determinism suite compares
//! against, byte for byte. The shared data model ([`DetectedDox`],
//! [`PipelineCounters`], [`PipelineOutput`]) lives in `dox-engine` and is
//! re-exported here so existing `dox_core::pipeline::*` paths keep
//! working.

use crate::training::DoxClassifier;
use dox_engine::dedup::{Deduplicator, DuplicateKind};
use dox_engine::stage::{classify_and_extract, StageLocal, StageMetrics};
use dox_obs::{Counter, Registry};
use dox_sites::collect::CollectedDoc;
use std::time::Instant;

pub use dox_engine::output::{DetectedDox, PipelineCounters, PipelineOutput, StagedDoc};

/// The funnel counters the reference pipeline maintains on top of the
/// pure stage metrics.
#[derive(Clone)]
struct FunnelMetrics {
    collected: Counter,
    classified_dox: Counter,
    duplicates: Counter,
    unique: Counter,
    dedup_ns: dox_obs::Histogram,
}

impl FunnelMetrics {
    fn resolve(registry: &Registry) -> Self {
        Self {
            collected: registry.counter("pipeline.funnel.collected"),
            classified_dox: registry.counter("pipeline.funnel.classified_dox"),
            duplicates: registry.counter("pipeline.funnel.duplicates"),
            unique: registry.counter("pipeline.funnel.unique"),
            dedup_ns: registry.histogram("pipeline.stage.dedup"),
        }
    }
}

/// The streaming pipeline (sequential reference implementation).
pub struct Pipeline {
    classifier: DoxClassifier,
    dedup: Deduplicator,
    output: PipelineOutput,
    stages: StageMetrics,
    funnel: FunnelMetrics,
}

impl Pipeline {
    /// Build a pipeline around a trained classifier, instrumented against
    /// the process-global metrics registry.
    pub fn new(classifier: DoxClassifier) -> Self {
        Self::with_registry(classifier, dox_obs::global())
    }

    /// Build a pipeline recording its stage spans and funnel counters
    /// into `registry` instead of the process-global one.
    pub fn with_registry(classifier: DoxClassifier, registry: &Registry) -> Self {
        Self {
            classifier,
            dedup: Deduplicator::new(),
            output: PipelineOutput::default(),
            stages: StageMetrics::resolve(registry),
            funnel: FunnelMetrics::resolve(registry),
        }
    }

    /// Process one collected document from period `period`.
    pub fn process(&mut self, collected: &CollectedDoc, period: u8) {
        let mut timings = StageLocal::default();
        let stage = classify_and_extract(&self.classifier, collected, &mut timings);
        timings.merge_into(&self.stages);

        let doc = &collected.doc;
        let counters = &mut self.output.counters;
        counters.total += 1;
        self.funnel.collected.inc();
        counters.per_period[usize::from(period - 1)] += 1;
        counters.count_source(doc.source.name());

        let Some((text, extracted)) = stage else {
            return;
        };
        counters.classified_dox += 1;
        self.funnel.classified_dox.inc();
        counters.dox_per_period[usize::from(period - 1)] += 1;

        // dox-lint:allow(determinism) dedup latency histogram; observation only
        let dedup_start = Instant::now();
        let duplicate = self.dedup.check(doc.id, &text, &extracted);
        self.funnel.dedup_ns.observe_duration(dedup_start.elapsed());
        if let Some((kind, _)) = duplicate {
            counters.duplicates_per_period[usize::from(period - 1)] += 1;
            self.funnel.duplicates.inc();
            match kind {
                DuplicateKind::ExactBody => counters.exact_duplicates += 1,
                DuplicateKind::AccountSet => counters.account_set_duplicates += 1,
                DuplicateKind::Fuzzy => {}
            }
        } else {
            self.funnel.unique.inc();
        }

        self.output.detected.push(DetectedDox {
            doc_id: doc.id,
            source: doc.source,
            period,
            posted_at: doc.posted_at,
            observed_at: collected.collected_at,
            text,
            extracted,
            duplicate,
            truth: doc.truth.as_dox().map(|t| Box::new(t.clone())),
        });
    }

    /// Every detected dox, posting order.
    pub fn detected(&self) -> &[DetectedDox] {
        self.output.detected()
    }

    /// Detected doxes that survived de-duplication.
    pub fn unique_doxes(&self) -> impl Iterator<Item = &DetectedDox> {
        self.output.unique_doxes()
    }

    /// Stage counters.
    pub fn counters(&self) -> &PipelineCounters {
        self.output.counters()
    }

    /// Ground-truth confusion counts over everything processed so far:
    /// `(true_pos, false_pos, false_neg)` — true negatives are
    /// `total − the rest`. Needs the caller to track false negatives, so
    /// this only reports what the pipeline can see (tp, fp).
    pub fn detection_quality(&self) -> (u64, u64) {
        self.output.detection_quality()
    }

    /// The trained classifier (model inspection, examples).
    pub fn classifier(&self) -> &DoxClassifier {
        &self.classifier
    }

    /// Consume the pipeline, yielding the accumulated output in the same
    /// shape the streaming engine produces (the determinism suite
    /// compares the two byte for byte).
    pub fn into_output(self) -> PipelineOutput {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::{World, WorldConfig};
    use dox_sites::collect::Collector;
    use dox_synth::config::SynthConfig;
    use dox_synth::corpus::CorpusGenerator;
    use std::ops::ControlFlow;

    fn run_pipeline() -> Pipeline {
        let world = World::generate(&WorldConfig::default(), 71);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 71);
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let (texts, labels) = gen.training_sets();
        let (clf, _) = DoxClassifier::train(&texts, &labels, 71);
        let mut pipeline = Pipeline::new(clf);
        let mut collector = Collector::new(71);
        for period in [1u8, 2] {
            let _ = collector.collect_period(&mut gen, period, &mut |c| {
                pipeline.process(&c, period);
                ControlFlow::Continue(())
            });
        }
        pipeline
    }

    #[test]
    fn counters_track_the_stream() {
        let p = run_pipeline();
        let cfg = SynthConfig::test_scale();
        assert_eq!(p.counters().total, cfg.total_documents());
        assert_eq!(p.counters().per_period[0], cfg.period1.total());
        assert!(p.counters().classified_dox > 0);
        assert_eq!(
            p.counters().classified_dox,
            p.counters().dox_per_period.iter().sum::<u64>()
        );
    }

    #[test]
    fn detection_quality_is_high_on_synthetic_corpus() {
        let p = run_pipeline();
        let (tp, fp) = p.detection_quality();
        assert!(tp > 0);
        // Most detections are true doxes (paper: precision 0.81).
        let precision = tp as f64 / (tp + fp).max(1) as f64;
        assert!(precision > 0.6, "precision {precision}");
        // Most true doxes are detected (paper: recall 0.89).
        let truth_doxes = SynthConfig::test_scale().total_doxes();
        let recall = tp as f64 / truth_doxes as f64;
        assert!(recall > 0.6, "recall {recall}");
    }

    #[test]
    fn chan_html_is_converted_before_classification() {
        let p = run_pipeline();
        for d in p.detected() {
            assert!(
                !d.text.contains("<br>"),
                "HTML leaked into pipeline text for doc {}",
                d.doc_id
            );
        }
    }

    #[test]
    fn duplicates_marked_and_counted() {
        let p = run_pipeline();
        let marked = p
            .detected()
            .iter()
            .filter(|d| d.duplicate.is_some())
            .count() as u64;
        let counted = p.counters().exact_duplicates + p.counters().account_set_duplicates;
        assert_eq!(marked, counted);
        assert_eq!(
            p.unique_doxes().count() as u64,
            p.counters().classified_dox - marked
        );
    }

    #[test]
    fn metrics_registry_mirrors_funnel_counters() {
        let registry = dox_obs::Registry::new();
        let world = World::generate(&WorldConfig::default(), 71);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 71);
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let (texts, labels) = gen.training_sets();
        let (clf, _) = DoxClassifier::train(&texts, &labels, 71);
        let mut pipeline = Pipeline::with_registry(clf, &registry);
        let mut collector = Collector::new(71);
        for period in [1u8, 2] {
            let _ = collector.collect_period(&mut gen, period, &mut |c| {
                pipeline.process(&c, period);
                ControlFlow::Continue(())
            });
        }
        let c = pipeline.counters();
        let snap = registry.snapshot();
        assert_eq!(snap.counters["pipeline.funnel.collected"], c.total);
        assert_eq!(
            snap.counters["pipeline.funnel.classified_dox"],
            c.classified_dox
        );
        assert_eq!(snap.counters["pipeline.funnel.unique"], c.unique_doxes());
        assert_eq!(
            snap.counters["pipeline.funnel.classified_dox"]
                - snap.counters["pipeline.funnel.duplicates"],
            c.unique_doxes()
        );
        // Every classified dox passed through classify, extract and dedup
        // spans; every document through classify.
        assert_eq!(snap.spans["pipeline.stage.classify"].count, c.total);
        assert_eq!(snap.spans["pipeline.stage.extract"].count, c.classified_dox);
        assert_eq!(snap.spans["pipeline.stage.dedup"].count, c.classified_dox);
        assert!(snap.spans["pipeline.stage.html_convert"].count > 0);
        assert!(snap.spans["pipeline.stage.classify"].sum > 0);
    }

    #[test]
    fn every_classified_dox_is_detected_once() {
        let p = run_pipeline();
        let ids: std::collections::BTreeSet<u64> = p.detected().iter().map(|d| d.doc_id).collect();
        assert_eq!(ids.len(), p.detected().len());
        assert_eq!(ids.len() as u64, p.counters().classified_dox);
        assert!(!ids.contains(&u64::MAX));
    }
}
