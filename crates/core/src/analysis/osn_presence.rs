//! Networks referenced in dox files (paper Table 9).
//!
//! Counts, over **all classified doxes** (Table 9's denominator is the
//! 5,530 detected files, pre-dedup), how many reference each of the six
//! measured networks — via the pipeline's extractor, exactly as the paper
//! generated these counts (§6.1: "We generated these counts using the
//! account extractor described in section 3.1.3").

use crate::pipeline::DetectedDox;
use dox_osn::network::Network;
use serde::Serialize;
use std::collections::BTreeMap;

/// The Table 9 counts.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct OsnPresence {
    /// Doxes referencing each network.
    pub per_network: BTreeMap<Network, usize>,
    /// Total classified doxes (the denominator).
    pub total_doxes: usize,
}

impl OsnPresence {
    /// Count for a network.
    pub fn count(&self, network: Network) -> usize {
        self.per_network.get(&network).copied().unwrap_or(0)
    }

    /// Fraction of doxes referencing a network.
    pub fn fraction(&self, network: Network) -> f64 {
        if self.total_doxes == 0 {
            0.0
        } else {
            self.count(network) as f64 / self.total_doxes as f64
        }
    }
}

/// Compute Table 9 over every detected dox.
pub fn osn_presence(detected: &[DetectedDox]) -> OsnPresence {
    let mut p = OsnPresence {
        total_doxes: detected.len(),
        ..OsnPresence::default()
    };
    for d in detected {
        let mut seen = std::collections::BTreeSet::new();
        for r in &d.extracted.osn {
            seen.insert(r.network);
        }
        for n in seen {
            *p.per_network.entry(n).or_insert(0) += 1;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::clock::SimTime;
    use dox_synth::corpus::Source;

    fn detected(text: &str) -> DetectedDox {
        DetectedDox {
            doc_id: 0,
            source: Source::Pastebin,
            period: 1,
            posted_at: SimTime::EPOCH,
            observed_at: SimTime::EPOCH,
            text: text.to_string(),
            extracted: dox_extract::record::extract(text),
            duplicate: None,
            truth: None,
        }
    }

    #[test]
    fn networks_counted_once_per_dox() {
        let docs = vec![
            detected("facebook: victim.one1\nfb: victim.two2\ntwitter: victim_tw1"),
            detected("facebook.com/victim.three3"),
            detected("no accounts here"),
        ];
        let p = osn_presence(&docs);
        assert_eq!(p.total_doxes, 3);
        assert_eq!(p.count(Network::Facebook), 2, "two docs, not three handles");
        assert_eq!(p.count(Network::Twitter), 1);
        assert_eq!(p.count(Network::Twitch), 0);
        assert!((p.fraction(Network::Facebook) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_input() {
        let p = osn_presence(&[]);
        assert_eq!(p.total_doxes, 0);
        assert_eq!(p.fraction(Network::Facebook), 0.0);
    }
}
