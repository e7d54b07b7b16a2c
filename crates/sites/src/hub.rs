//! The five sites together.
//!
//! [`SiteHub`] ingests the synthetic document stream, routing each
//! document to its service: pastebin tallies the Table 3 deletion survey
//! from the paste's precomputed deletion time; every site counts its
//! postings. No site keeps a record per post, so the hub's memory does
//! not grow with the corpus. The hub is the stateful "internet" the
//! collection client scrapes.

use crate::pastebin::SimPastebin;
use dox_synth::corpus::{Source, SynthDoc};

/// The five text-sharing sites.
#[derive(Debug, Default)]
pub struct SiteHub {
    pastebin: SimPastebin,
    /// Postings per site, indexed by `Source as usize`.
    ingested: [u64; Source::ALL.len()],
}

impl SiteHub {
    /// Create the sites.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one document from the synthetic stream.
    pub fn ingest(&mut self, doc: &SynthDoc) {
        if doc.source == Source::Pastebin {
            let deleted_at = doc.deleted_after.map(|d| doc.posted_at + d);
            self.pastebin.post(doc.id, doc.posted_at, deleted_at);
        }
        self.ingested[doc.source as usize] += 1;
    }

    /// The pastebin service (deletion surveys).
    pub fn pastebin(&self) -> &SimPastebin {
        &self.pastebin
    }

    /// Documents posted to `source`.
    pub fn ingested(&self, source: Source) -> u64 {
        self.ingested[source as usize]
    }

    /// Total documents ingested across all sites.
    pub fn total_ingested(&self) -> u64 {
        self.ingested.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::{World, WorldConfig};
    use dox_synth::config::SynthConfig;
    use dox_synth::corpus::CorpusGenerator;

    #[test]
    fn ingests_full_test_stream() {
        let world = World::generate(&WorldConfig::default(), 1);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 1);
        let config = SynthConfig::test_scale();
        let expected = config.total_documents();
        let p2_chan_b = config.period2.chan4_b.total;
        let mut gen = CorpusGenerator::new(&world, &alloc, config);
        let mut hub = SiteHub::new();
        let mut sink = |d: dox_synth::corpus::SynthDoc| {
            hub.ingest(&d);
            std::ops::ControlFlow::Continue(())
        };
        let _ = gen.generate_period(1, &mut sink);
        let _ = gen.generate_period(2, &mut sink);
        assert_eq!(hub.total_ingested(), expected);
        assert!(hub.ingested(Source::Pastebin) > 0);
        assert!(hub.ingested(Source::Chan4B) >= p2_chan_b);
        let survey = hub.pastebin().deletion_survey([]);
        assert!(survey.other_total > 0 && survey.other_total < hub.ingested(Source::Pastebin));
    }
}
