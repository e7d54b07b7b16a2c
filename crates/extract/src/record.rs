//! The aggregate extraction record.
//!
//! [`extract`] walks one plain-text document once, applying every
//! extraction rule as it goes, and returns an [`ExtractedDox`]: the OSN
//! account references (used for de-duplication and monitoring), the
//! sensitive fields (Table 6 accounting and §4.1 validation) and the
//! doxer credits (Figure 2).

use crate::credits::Credit;
use crate::fields::ExtractedFields;
use crate::osn::OsnRef;
use crate::scan::{scan, Parts};
use dox_osn::network::Network;
use serde::{Deserialize, Serialize};

/// Everything extracted from one document.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtractedDox {
    /// Social-network account references, deduplicated and sorted.
    pub osn: Vec<OsnRef>,
    /// Sensitive fields.
    pub fields: ExtractedFields,
    /// Doxer credits.
    pub credits: Vec<Credit>,
}

impl ExtractedDox {
    /// The handles referenced on `network`.
    pub fn handles_on(&self, network: Network) -> Vec<&str> {
        self.osn
            .iter()
            .filter(|r| r.network == network)
            .map(|r| r.handle.as_str())
            .collect()
    }

    /// The account-set key used by the §3.1.4 de-duplication rule: the
    /// sorted `(network, handle)` list. Two doxes with identical non-empty
    /// keys target the same victim.
    pub fn account_set_key(&self) -> Vec<(Network, String)> {
        self.osn
            .iter()
            .map(|r| (r.network, r.handle.clone()))
            .collect()
    }
}

/// Run every extractor over `text` (plain text — convert chan HTML first
/// with [`dox_textkit::html::html_to_text`]).
///
/// ```
/// use dox_extract::extract;
///
/// let record = extract("Name: Kaia Sandvik\nPhone: (414) 555-0123\nig: kaia_s22");
/// assert_eq!(record.fields.first_name.as_deref(), Some("Kaia"));
/// assert_eq!(record.fields.phones, vec!["4145550123".to_string()]);
/// assert_eq!(record.osn.len(), 1);
/// ```
pub fn extract(text: &str) -> ExtractedDox {
    scan(text, Parts::ALL)
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOX: &str = "\
Name: Kaia Sandvik
Age: 22
Address: 77 Cedar Lane, Halemouth, NK 10340
Phone: (414) 555-0123
IP: 73.20.1.5
Facebook: https://facebook.com/kaia.sandvik40
twitter: @kaiasand40
insta; kaiasand40
dropped by ByteCrow_3 and @HexMancer_8
";

    #[test]
    fn aggregate_extraction() {
        let e = extract(DOX);
        assert_eq!(e.osn.len(), 3);
        assert_eq!(e.handles_on(Network::Facebook), vec!["kaia.sandvik40"]);
        assert_eq!(e.handles_on(Network::Twitter), vec!["kaiasand40"]);
        assert_eq!(e.handles_on(Network::Instagram), vec!["kaiasand40"]);
        assert_eq!(e.fields.age, Some(22));
        assert_eq!(e.fields.phones, vec!["4145550123"]);
        assert_eq!(e.credits.len(), 2);
    }

    #[test]
    fn account_set_key_is_sorted_and_stable() {
        let a = extract(DOX);
        let b = extract(DOX);
        assert_eq!(a.account_set_key(), b.account_set_key());
        let key = a.account_set_key();
        let mut sorted = key.clone();
        sorted.sort();
        assert_eq!(key, sorted);
    }

    #[test]
    fn empty_document() {
        let e = extract("");
        assert!(e.osn.is_empty());
        assert!(e.credits.is_empty());
        assert!(e.account_set_key().is_empty());
    }

    #[test]
    fn handles_on_missing_network() {
        let e = extract(DOX);
        assert!(e.handles_on(Network::Twitch).is_empty());
    }

    #[test]
    fn length_changing_lowercase_before_a_credit() {
        // `İ` lowercases to three bytes: offsets from a lowercased copy
        // would land mid-char here and misread the aliases.
        let e = extract("İ dropped by éé\n");
        assert!(e.credits.is_empty());
        let e = extract("İ dropped by Alice and Bob\n");
        let aliases: Vec<&str> = e.credits.iter().map(|c| c.alias.as_str()).collect();
        assert_eq!(aliases, vec!["Alice", "Bob"]);
        let e = extract("ẞ \u{212A} Doxed By Vex_7 THANKS TO Kel_9");
        assert_eq!(e.credits.len(), 2, "{:?}", e.credits);
    }
}
