//! Doxer-credit parsing.
//!
//! §5.3.2: credits "mention the aliases of the doxers or collaborating
//! parties for bragging, reputation or other reasons", e.g.
//! `dropped by DoxerAlice and @DoxerBob, thanks to Charlie (@DoxerCharlie)
//! for the SSN info`. [`extract_credits`] recovers the alias list plus any
//! attached Twitter handles; the Figure 2 clique analysis consumes these.

use dox_extract::credits::Credit;

/// Phrases that open a credit clause.
const OPENERS: &[&str] = &[
    "dropped by ",
    "doxed by ",
    "dox by ",
    "credit to ",
    "credits: ",
];
/// Phrases that attach additional parties.
const CONNECTORS: &[&str] = &[", thanks to ", " thanks to ", " with help from "];

/// Extract the credit list from a document.
pub fn extract_credits(text: &str) -> Vec<Credit> {
    let lower = text.to_lowercase();
    let mut out: Vec<Credit> = Vec::new();
    for opener in OPENERS {
        let mut search = 0usize;
        while let Some(rel) = lower[search..].find(opener) {
            let start = search + rel + opener.len();
            // The clause runs to end-of-line.
            let end = text[start..].find('\n').map_or(text.len(), |e| start + e);
            let clause = &text[start..end];
            parse_clause(clause, &mut out);
            search = end.min(lower.len());
            if search >= lower.len() {
                break;
            }
        }
    }
    dedup(out)
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
        let seg = match find_insensitive(seg, " for ") {
            Some(i) => &seg[..i],
            None => seg,
        };
        for part in split_parties(seg) {
            if let Some(c) = parse_party(part) {
                out.push(c);
            }
        }
    }
}

fn split_insensitive<'a>(s: &'a str, sep: &str) -> Vec<&'a str> {
    let lower = s.to_lowercase();
    let sep_lower = sep.to_lowercase();
    let mut parts = Vec::new();
    let mut start = 0usize;
    let mut from = 0usize;
    while let Some(rel) = lower[from..].find(&sep_lower) {
        let at = from + rel;
        parts.push(&s[start..at]);
        start = at + sep.len();
        from = start;
    }
    parts.push(&s[start..]);
    parts
}

fn find_insensitive(s: &str, needle: &str) -> Option<usize> {
    s.to_lowercase().find(&needle.to_lowercase())
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
