//! # dox-bench
//!
//! Benchmarks and the experiment reproduction harness.
//!
//! The `repro` binary regenerates every table and figure of the paper
//! (`cargo run -p dox-bench --release --bin repro -- --scale 0.05`);
//! the Criterion benches (`cargo bench`) measure the throughput of each
//! pipeline stage plus the filter-era counterfactual ablation called out
//! in DESIGN.md.
//!
//! This library exposes the shared fixture builders the benches use so
//! they stay consistent and cheap to construct.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use dox_geo::alloc::{AllocConfig, Allocation};
use dox_geo::model::{World, WorldConfig};
use dox_synth::config::SynthConfig;
use dox_synth::corpus::CorpusGenerator;

/// A reusable benchmark fixture: world + allocation, with helpers that
/// materialize labeled corpora and document streams.
pub struct BenchFixture {
    /// The synthetic geography.
    pub world: World,
    /// The IP allocation over it.
    pub alloc: Allocation,
    /// Seed used for every derived generator.
    pub seed: u64,
}

impl BenchFixture {
    /// Standard fixture (seed 0xBE9C).
    pub fn new() -> Self {
        let seed = 0xBE9C;
        let world = World::generate(
            &WorldConfig {
                countries: 6,
                states_per_country: 8,
                cities_per_state: 8,
            },
            seed,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), seed);
        Self { world, alloc, seed }
    }

    /// A corpus generator at `scale`.
    pub fn generator(&self, scale: f64) -> CorpusGenerator<'_> {
        CorpusGenerator::new(&self.world, &self.alloc, SynthConfig::at_scale(scale))
    }

    /// A labeled training corpus at `scale`.
    pub fn training_sets(&self, scale: f64) -> (Vec<String>, Vec<bool>) {
        self.generator(scale).training_sets()
    }

    /// `n` proof-of-work dox bodies (rich, labeled).
    pub fn dox_bodies(&self, n: usize) -> Vec<String> {
        self.generator(0.02)
            .proof_of_work_sample(n)
            .into_iter()
            .map(|(doc, _)| doc.body)
            .collect()
    }
}

impl Default for BenchFixture {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds_and_generates() {
        let f = BenchFixture::new();
        let (texts, labels) = f.training_sets(0.002);
        assert_eq!(texts.len(), labels.len());
        assert!(!f.dox_bodies(5).is_empty());
    }
}
