//! Doxer-credit parsing.
//!
//! §5.3.2: credits "mention the aliases of the doxers or collaborating
//! parties for bragging, reputation or other reasons", e.g.
//! `dropped by DoxerAlice and @DoxerBob, thanks to Charlie (@DoxerCharlie)
//! for the SSN info`. [`extract_credits`] recovers the alias list plus any
//! attached Twitter handles; the Figure 2 clique analysis consumes these.

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
const OPENERS: &[&str] = &[
    "dropped by ",
    "doxed by ",
    "dox by ",
    "credit to ",
    "credits: ",
];
/// Phrases that attach additional parties, matched ignoring ASCII case.
const CONNECTORS: &[&str] = &[", thanks to ", " thanks to ", " with help from "];

/// Extract the credit list from a document.
pub fn extract_credits(text: &str) -> Vec<Credit> {
    let mut out: Vec<Credit> = Vec::new();
    for opener in OPENERS {
        let mut search = 0usize;
        while let Some(at) = find_ignore_ascii_case(text, opener, search) {
            let start = at + opener.len();
            // The clause runs to end-of-line.
            let end = text[start..].find('\n').map_or(text.len(), |e| start + e);
            parse_clause(&text[start..end], &mut out);
            search = end;
        }
    }
    dedup(out)
}

/// The offset of the first match of the ASCII `needle` in `s` at or after
/// `from`, ignoring ASCII case. Matching bytes of the original text keeps
/// every offset on a char boundary of `s`.
fn find_ignore_ascii_case(s: &str, needle: &str, from: usize) -> Option<usize> {
    s.as_bytes()[from..]
        .windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle.as_bytes()))
        .map(|at| from + at)
}

fn parse_clause(clause: &str, out: &mut Vec<Credit>) {
    // Split off connector tails first ("…, thanks to X for the info").
    let mut segments: Vec<&str> = vec![clause];
    for conn in CONNECTORS {
        segments = segments
            .into_iter()
            .flat_map(|s| split_insensitive(s, conn))
            .collect();
    }
    for seg in segments {
        // Trim trailing prose ("for the ssn info", "for the help").
        let seg = find_ignore_ascii_case(seg, " for ", 0).map_or(seg, |i| &seg[..i]);
        for part in split_parties(seg) {
            if let Some(c) = parse_party(part) {
                out.push(c);
            }
        }
    }
}

/// Split `s` on the ASCII `sep`, ignoring ASCII case.
fn split_insensitive<'a>(s: &'a str, sep: &str) -> Vec<&'a str> {
    let mut parts = Vec::new();
    let mut start = 0usize;
    while let Some(at) = find_ignore_ascii_case(s, sep, start) {
        parts.push(&s[start..at]);
        start = at + sep.len();
    }
    parts.push(&s[start..]);
    parts
}

/// Split a party list on `" and "` and commas.
fn split_parties(seg: &str) -> Vec<&str> {
    split_insensitive(seg, " and ")
        .into_iter()
        .flat_map(|p| p.split(','))
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect()
}

/// Parse one party: `Alias`, `@handle`, or `Alias (@handle)`.
fn parse_party(part: &str) -> Option<Credit> {
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
        let twitter = inner.strip_prefix('@').map(str::to_string);
        return Some(Credit {
            alias: alias.to_string(),
            twitter,
        });
    }
    // "@handle" form: the handle is both alias and Twitter identity.
    if let Some(handle) = part.strip_prefix('@') {
        if !valid_alias(handle) {
            return None;
        }
        return Some(Credit {
            alias: handle.to_string(),
            twitter: Some(handle.to_string()),
        });
    }
    if !valid_alias(part) {
        return None;
    }
    Some(Credit {
        alias: part.to_string(),
        twitter: None,
    })
}

fn valid_alias(a: &str) -> bool {
    !a.is_empty()
        && a.len() <= 30
        && a.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
}

fn dedup(credits: Vec<Credit>) -> Vec<Credit> {
    let mut out: Vec<Credit> = Vec::new();
    for c in credits {
        if let Some(existing) = out
            .iter_mut()
            .find(|e| e.alias.eq_ignore_ascii_case(&c.alias))
        {
            if existing.twitter.is_none() {
                existing.twitter = c.twitter;
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
