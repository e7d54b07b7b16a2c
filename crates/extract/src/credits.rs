//! Doxer-credit parsing.
//!
//! §5.3.2: credits "mention the aliases of the doxers or collaborating
//! parties for bragging, reputation or other reasons", e.g.
//! `dropped by DoxerAlice and @DoxerBob, thanks to Charlie (@DoxerCharlie)
//! for the SSN info`. [`extract_credits`] recovers the alias list plus any
//! attached Twitter handles; the Figure 2 clique analysis consumes these.
//!
//! The scan of [`crate::extract`] looks for the openers as it walks each
//! line (`opener_at`); the first of each opener on a line opens a clause
//! that runs to the end of the line. Phrases are matched ignoring ASCII
//! case on the original bytes, so every offset is a char boundary.

use crate::scan::{Parts, Phrase, Span};
use serde::{Deserialize, Serialize};

/// One credited party.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Credit {
    /// The alias as written (without any `@`).
    pub alias: String,
    /// Twitter handle if one was attached (`@name` form or `alias (@name)`).
    pub twitter: Option<String>,
}

/// Phrases that open a credit clause, matched ignoring ASCII case.
pub(crate) const OPENERS: [&str; 5] = [
    "dropped by ",
    "doxed by ",
    "dox by ",
    "credit to ",
    "credits: ",
];
/// Phrases that attach additional parties, matched ignoring ASCII case.
const CONNECTORS: [Phrase; 3] = [
    Phrase::new(", thanks to "),
    Phrase::new(" thanks to "),
    Phrase::new(" with help from "),
];
/// Trailing prose after the parties ("for the ssn info").
const FOR: Phrase = Phrase::new(" for ");
/// Between parties.
const AND: Phrase = Phrase::new(" and ");

/// Extract the credit list from a document.
pub fn extract_credits(text: &str) -> Vec<Credit> {
    crate::scan::scan(text, Parts::CREDITS).credits
}

/// The opener (index into [`OPENERS`]) that starts at the start of `s`.
pub(crate) fn opener_at(s: &[u8]) -> Option<usize> {
    // Every opener's second letter is an `r` or an `o`.
    if !matches!(s.get(1), Some(b'r' | b'R' | b'o' | b'O')) {
        return None;
    }
    OPENERS.iter().position(|o| {
        s.get(..o.len())
            .is_some_and(|head| head.eq_ignore_ascii_case(o.as_bytes()))
    })
}

/// The parties one scan found, as `(opener, alias, twitter)` spans.
#[derive(Debug, Default)]
pub(crate) struct CreditScan {
    found: Vec<(usize, Span, Option<Span>)>,
    merged: Vec<(Span, Option<Span>)>,
}

impl CreditScan {
    /// Forget the previous document.
    pub fn reset(&mut self) {
        self.found.clear();
        self.merged.clear();
    }

    /// The parties of the clause `clause` (a slice of `text`) that
    /// `opener` opened.
    pub fn clause(&mut self, text: &str, opener: usize, clause: &str) {
        // Split off connector tails first ("…, thanks to X for the info").
        let segments = CONNECTORS[0]
            .split(clause, true)
            .flat_map(|s| CONNECTORS[1].split(s, true))
            .flat_map(|s| CONNECTORS[2].split(s, true));
        for seg in segments {
            // Trim trailing prose ("for the ssn info", "for the help").
            let seg = FOR.find(seg, 0, true).map_or(seg, |i| &seg[..i]);
            let parties = AND
                .split(seg, true)
                .flat_map(|p| p.split(','))
                .map(str::trim)
                .filter(|p| !p.is_empty());
            for (alias, twitter) in parties.filter_map(parse_party) {
                let twitter = twitter.map(|t| Span::of(text, t));
                self.found.push((opener, Span::of(text, alias), twitter));
            }
        }
    }

    /// The credits in opener order, then text order, one per alias
    /// (ignoring ASCII case): a later mention fills in a missing Twitter
    /// handle.
    pub fn finish(&mut self, text: &str) -> Vec<Credit> {
        for opener in 0..OPENERS.len() {
            for &(_, alias, twitter) in self.found.iter().filter(|f| f.0 == opener) {
                let alias_text = alias.get(text);
                match self
                    .merged
                    .iter_mut()
                    .find(|(a, _)| a.get(text).eq_ignore_ascii_case(alias_text))
                {
                    Some((_, existing)) => *existing = existing.or(twitter),
                    None => self.merged.push((alias, twitter)),
                }
            }
        }
        self.merged
            .iter()
            .map(|&(alias, twitter)| Credit {
                alias: alias.get(text).to_owned(),
                twitter: twitter.map(|t| t.get(text).to_owned()),
            })
            .collect()
    }
}

/// Parse one party — `Alias`, `@handle`, or `Alias (@handle)` — into its
/// alias and Twitter handle, both borrowed from `part`.
fn parse_party(part: &str) -> Option<(&str, Option<&str>)> {
    let part = part.trim().trim_end_matches('.');
    if part.is_empty() || part.split_whitespace().count() > 3 {
        return None;
    }
    // "Alias (@handle)" form.
    if let Some(open) = part.find('(') {
        let alias = part[..open].trim();
        let inner = part[open + 1..].trim_end_matches(')').trim();
        if alias.is_empty() {
            return None;
        }
        return Some((alias, inner.strip_prefix('@')));
    }
    // "@handle" form: the handle is both alias and Twitter identity.
    if let Some(handle) = part.strip_prefix('@') {
        return valid_alias(handle).then_some((handle, Some(handle)));
    }
    valid_alias(part).then_some((part, None))
}

fn valid_alias(a: &str) -> bool {
    !a.is_empty()
        && a.len() <= 30
        && a.bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_opener_passes_the_second_letter_filter() {
        for (k, o) in OPENERS.iter().enumerate() {
            assert_eq!(opener_at(o.to_uppercase().as_bytes()), Some(k));
        }
    }

    #[test]
    fn paper_example_parses_fully() {
        let text = "dox below\ndropped by DoxerAlice and @DoxerBob, thanks to \
                    Charlie (@DoxerCharlie) for the SSN info";
        let credits = extract_credits(text);
        assert_eq!(credits.len(), 3);
        assert_eq!(credits[0].alias, "DoxerAlice");
        assert_eq!(credits[0].twitter, None);
        assert_eq!(credits[1].alias, "DoxerBob");
        assert_eq!(credits[1].twitter.as_deref(), Some("DoxerBob"));
        assert_eq!(credits[2].alias, "Charlie");
        assert_eq!(credits[2].twitter.as_deref(), Some("DoxerCharlie"));
    }

    #[test]
    fn single_credit() {
        let credits = extract_credits("dropped by GrimReaper_12");
        assert_eq!(credits.len(), 1);
        assert_eq!(credits[0].alias, "GrimReaper_12");
    }

    #[test]
    fn comma_list() {
        let credits = extract_credits("dropped by A1x, B2y and C3z");
        let aliases: Vec<&str> = credits.iter().map(|c| c.alias.as_str()).collect();
        assert_eq!(aliases, vec!["A1x", "B2y", "C3z"]);
    }

    #[test]
    fn alternate_openers() {
        assert_eq!(
            extract_credits("doxed by NullFang_3")[0].alias,
            "NullFang_3"
        );
        assert_eq!(extract_credits("credit to HexWolf_9")[0].alias, "HexWolf_9");
    }

    #[test]
    fn clause_stops_at_newline() {
        let credits = extract_credits("dropped by OnlyMe_1\nName: Not A Credit");
        assert_eq!(credits.len(), 1);
    }

    #[test]
    fn trailing_prose_trimmed() {
        let credits = extract_credits("dropped by Vex_7 for the lulz");
        assert_eq!(credits.len(), 1);
        assert_eq!(credits[0].alias, "Vex_7");
    }

    #[test]
    fn no_credits_in_plain_text() {
        assert!(extract_credits("Name: John\nPhone: 555-0100").is_empty());
        assert!(extract_credits("").is_empty());
    }

    #[test]
    fn multiword_garbage_rejected() {
        let credits = extract_credits("dropped by someone who shall remain nameless forever");
        assert!(credits.is_empty(), "{credits:?}");
    }

    #[test]
    fn duplicate_aliases_merge_keeping_twitter() {
        let text = "dropped by Omen_5\ndropped by @Omen_5";
        let credits = extract_credits(text);
        assert_eq!(credits.len(), 1);
        assert_eq!(credits[0].twitter.as_deref(), Some("Omen_5"));
    }

    #[test]
    fn case_insensitive_opener() {
        let credits = extract_credits("Dropped By ShadowKing_2");
        assert_eq!(credits.len(), 1);
    }
}
