//! The collection client.
//!
//! Stage one of the measurement pipeline (paper §3.1.1, Figure 1): gather
//! every document posted to the monitored sites during a collection
//! period. [`Collector`] wraps the generator-to-hub flow, stamps each
//! document with a collection time (posting time plus a small scrape
//! latency), and keeps per-source counters — the numbers Figure 1 and
//! Table 4 report.

use crate::hub::SiteHub;
use dox_fault::{FaultBoundary, FaultDomain, FaultPlanConfig};
use dox_obs::trace::{fault_hop, hop};
use dox_obs::{redact, Registry, Tracer};
use dox_osn::clock::{SimDuration, SimTime};
use dox_synth::corpus::{CorpusGenerator, Source, SynthDoc};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// One collected document as the pipeline sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CollectedDoc {
    /// The underlying document (body, source, truth).
    pub doc: SynthDoc,
    /// When the collector fetched it.
    pub collected_at: SimTime,
}

/// Per-source collection counters (Figure 1 input volumes).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct CollectionStats {
    counts: BTreeMap<Source, u64>,
}

impl CollectionStats {
    /// Documents collected from `source`.
    pub fn count(&self, source: Source) -> u64 {
        self.counts.get(&source).copied().unwrap_or(0)
    }

    /// Total documents collected.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    fn bump(&mut self, source: Source) {
        *self.counts.entry(source).or_insert(0) += 1;
    }
}

/// The collection client: drives the generator, feeds the hub, emits
/// [`CollectedDoc`]s to a sink.
///
/// A collector built with [`Collector::with_faults`] simulates the
/// unreliable fetch boundary the paper's crawlers faced: each document
/// fetch runs through a [`FaultBoundary`] — a seeded fault plan with
/// retry/backoff and a per-source circuit breaker, all in virtual time.
/// Recovered fetches deliver the document unchanged (same
/// `collected_at`, so downstream output stays byte-identical); exhausted
/// fetches surface in the boundary's coverage gaps — never as silent
/// drops. The hub ingests every generated document either way: the
/// *site* saw the post, only the collector missed it.
pub struct Collector {
    hub: SiteHub,
    stats_p1: CollectionStats,
    stats_p2: CollectionStats,
    faults: Option<FaultBoundary>,
    tracer: Tracer,
    /// Scrape latency added to each document's posting time.
    pub scrape_latency: SimDuration,
}

impl Collector {
    /// Create a collector with a fresh [`SiteHub`]. The sites simulate
    /// nothing random, so no state depends on `seed`; fault plans carry
    /// their own seed.
    pub fn new(_seed: u64) -> Self {
        Self {
            hub: SiteHub::new(),
            stats_p1: CollectionStats::default(),
            stats_p2: CollectionStats::default(),
            faults: None,
            tracer: Tracer::disabled(),
            scrape_latency: SimDuration(5),
        }
    }

    /// Attach observability: sampled documents are admitted to `tracer`
    /// with a `collect` hop (the head of their causal trace), and a fault
    /// boundary times its fetches into `registry`
    /// ([`FaultBoundary::instrument`]).
    pub fn instrument(&mut self, registry: &Registry, tracer: &Tracer) {
        if let Some(f) = &mut self.faults {
            f.instrument(registry);
        }
        self.tracer = tracer.clone();
    }

    /// Create a collector whose fetches run through a fault plan, with
    /// the default retry policy and per-source circuit breakers.
    pub fn with_faults(plan: FaultPlanConfig) -> Self {
        let mut collector = Self::new(0);
        collector.faults = Some(FaultBoundary::new(plan));
        collector
    }

    /// Collect one period end-to-end: generate, ingest into the sites,
    /// emit collected documents in order.
    ///
    /// The sink controls the stream: returning
    /// [`ControlFlow::Break`] stops collection immediately (the document
    /// that triggered the break has already been ingested into the hub
    /// and counted). The same `Break` is returned to the caller.
    ///
    /// # Panics
    /// Panics if `which` is not 1 or 2.
    pub fn collect_period(
        &mut self,
        gen: &mut CorpusGenerator<'_>,
        which: u8,
        sink: &mut dyn FnMut(CollectedDoc) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(which == 1 || which == 2, "periods are 1 and 2");
        let hub = &mut self.hub;
        let stats = if which == 1 {
            &mut self.stats_p1
        } else {
            &mut self.stats_p2
        };
        let latency = self.scrape_latency;
        let faults = &mut self.faults;
        let tracer = &self.tracer;
        gen.generate_period(which, &mut |doc| {
            hub.ingest(&doc);
            let collected_at = doc.posted_at + latency;
            if let Some(f) = faults.as_mut() {
                let source = doc.source.name();
                match f.run(FaultDomain::Collect, source, doc.id, collected_at.0) {
                    Err(_) => {
                        // The site has the post; the collector missed it.
                        // The boundary counted the gap — the document is
                        // not delivered.
                        return ControlFlow::Continue(());
                    }
                    Ok(outcome) => {
                        if tracer.sampled(doc.id) {
                            // The generator is single-threaded, so trace
                            // admission order here is exactly document
                            // order — deterministic buffer occupancy.
                            tracer.begin(
                                doc.id,
                                fault_hop(
                                    "collect",
                                    collected_at.0,
                                    outcome.attempts,
                                    outcome.delay,
                                    outcome.breaker_trips,
                                    format!("source={source} body={}", redact(&doc.body)),
                                ),
                            );
                        }
                    }
                }
            } else if tracer.sampled(doc.id) {
                tracer.begin(
                    doc.id,
                    hop(
                        "collect",
                        collected_at.0,
                        format!("source={} body={}", doc.source.name(), redact(&doc.body)),
                    ),
                );
            }
            stats.bump(doc.source);
            sink(CollectedDoc { doc, collected_at })
        })
    }

    /// Per-source counters for a period.
    pub fn stats(&self, which: u8) -> &CollectionStats {
        if which == 1 {
            &self.stats_p1
        } else {
            &self.stats_p2
        }
    }

    /// The underlying sites (deletion survey, per-site posting counts).
    pub fn hub(&self) -> &SiteHub {
        &self.hub
    }

    /// The fetch boundary — retry accounting, the documents missed per
    /// source, the per-source breakers; `None` for a fault-free
    /// collector.
    pub fn faults(&self) -> Option<&FaultBoundary> {
        self.faults.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::{World, WorldConfig};
    use dox_synth::config::SynthConfig;

    fn setup() -> (World, Allocation, SynthConfig) {
        let world = World::generate(&WorldConfig::default(), 9);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 9);
        (world, alloc, SynthConfig::test_scale())
    }

    #[test]
    fn counters_match_config_volumes() {
        let (world, alloc, config) = setup();
        let p1_total = config.period1.total();
        let p2_total = config.period2.total();
        let p2_chan_b = config.period2.chan4_b.total;
        let mut gen = CorpusGenerator::new(&world, &alloc, config);
        let mut collector = Collector::new(9);
        let mut n = 0u64;
        let _ = collector.collect_period(&mut gen, 1, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        let _ = collector.collect_period(&mut gen, 2, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(collector.stats(1).total(), p1_total);
        assert_eq!(collector.stats(2).total(), p2_total);
        assert_eq!(collector.stats(2).count(Source::Chan4B), p2_chan_b);
        assert_eq!(n, p1_total + p2_total);
    }

    #[test]
    fn collection_time_trails_posting_time() {
        let (world, alloc, config) = setup();
        let mut gen = CorpusGenerator::new(&world, &alloc, config);
        let mut collector = Collector::new(9);
        let _ = collector.collect_period(&mut gen, 1, &mut |c| {
            assert_eq!(c.collected_at.0, c.doc.posted_at.0 + 5);
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn sink_break_stops_collection_early() {
        let (world, alloc, config) = setup();
        let total = config.period1.total();
        let mut gen = CorpusGenerator::new(&world, &alloc, config);
        let mut collector = Collector::new(9);
        let mut n = 0u64;
        let flow = collector.collect_period(&mut gen, 1, &mut |_| {
            n += 1;
            if n == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(n, 3);
        assert!(
            collector.stats(1).total() < total,
            "collection stopped early"
        );
        assert_eq!(
            collector.stats(1).total(),
            3,
            "counted exactly what reached the sink"
        );
    }

    fn collect_all(collector: &mut Collector, config: SynthConfig) -> Vec<CollectedDoc> {
        let (world, alloc, _) = setup();
        let mut gen = CorpusGenerator::new(&world, &alloc, config);
        let mut docs = Vec::new();
        for which in [1, 2] {
            let _ = collector.collect_period(&mut gen, which, &mut |c| {
                docs.push(c);
                ControlFlow::Continue(())
            });
        }
        docs
    }

    #[test]
    fn recovered_faults_deliver_an_identical_stream() {
        let (_, _, config) = setup();
        let mut clean = Collector::new(9);
        let baseline = collect_all(&mut clean, config.clone());

        // Heavy transient weather, but every fault recovers within the
        // default retry budget.
        let plan = FaultPlanConfig {
            transient_ppm: 300_000,
            max_transient_failures: 2,
            ..FaultPlanConfig::default()
        };
        let mut faulty = Collector::with_faults(plan);
        let recovered = collect_all(&mut faulty, config);
        assert_eq!(recovered, baseline, "recovery must not change the stream");
        let faults = faulty.faults().expect("a fault boundary");
        assert!(faults.stats().retries > 0, "weather actually blew");
        assert!(faults.gaps().is_empty());
    }

    #[test]
    fn exhausted_fetches_become_coverage_gaps_not_silent_drops() {
        let (_, _, config) = setup();
        let total = config.total_documents();
        let plan = FaultPlanConfig {
            hard_ppm: 100_000, // ~10% of fetches permanently fail
            ..FaultPlanConfig::default()
        };
        let mut collector = Collector::with_faults(plan);
        let delivered = collect_all(&mut collector, config).len() as u64;
        let faults = collector.faults().expect("a fault boundary");
        let gaps = faults.gaps();
        assert!(gaps.missed_collection_total() > 0, "hard faults must bite");
        assert_eq!(
            delivered + gaps.missed_collection_total(),
            total,
            "every generated document is either delivered or an explicit gap"
        );
        assert_eq!(
            collector.hub().total_ingested(),
            total,
            "the sites saw every post even when the collector missed it"
        );
        assert!(faults.stats().exhausted > 0);
    }

    #[test]
    fn instrumented_collector_traces_fetches_and_times_the_shim() {
        use dox_obs::TraceConfig;
        let (_, _, config) = setup();
        let plan = FaultPlanConfig {
            transient_ppm: 300_000,
            max_transient_failures: 2,
            ..FaultPlanConfig::default()
        };
        let mut collector = Collector::with_faults(plan);
        let registry = Registry::new();
        let tracer = Tracer::new(TraceConfig {
            seed: 9,
            sample_ppm: dox_obs::SAMPLE_ALL,
            capacity: 1 << 20,
        });
        collector.instrument(&registry, &tracer);
        let delivered = collect_all(&mut collector, config).len() as u64;
        assert_eq!(tracer.admitted(), delivered, "every delivered doc traced");
        let traces = tracer.recent(usize::MAX);
        assert!(traces
            .iter()
            .all(|t| t.hops.first().is_some_and(|h| h.stage == "collect")));
        assert!(
            traces
                .iter()
                .any(|t| t.hops.first().is_some_and(|h| h.attempts > 1)),
            "heavy transient weather must surface retry attempts in hops"
        );
        assert!(
            traces
                .iter()
                .all(|t| t.hops.iter().all(|h| h.note.contains("body=[redacted"))),
            "hop notes carry the redacted fingerprint, never the body"
        );
        let shim = registry.snapshot();
        let retry_wait = &shim.spans["pipeline.stage.retry_wait"];
        let ops = collector.faults().expect("a fault boundary").stats().ops;
        assert_eq!(retry_wait.count, ops);
    }

    #[test]
    fn hub_sees_every_document() {
        let (world, alloc, config) = setup();
        let total = config.total_documents();
        let mut gen = CorpusGenerator::new(&world, &alloc, config);
        let mut collector = Collector::new(9);
        let _ = collector.collect_period(&mut gen, 1, &mut |_| ControlFlow::Continue(()));
        let _ = collector.collect_period(&mut gen, 2, &mut |_| ControlFlow::Continue(()));
        assert_eq!(collector.hub().total_ingested(), total);
    }
}
