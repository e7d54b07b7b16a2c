//! The line-level grammar of semi-structured dox files.
//!
//! The paper's §3.1.3 lists the formats a Facebook account shows up in:
//!
//! 1. `Facebook: https://facebook.com/example`
//! 2. `FB example`
//! 3. `fbs: example - example2 - example3`
//! 4. `facebooks; example and example2`
//!
//! [`parse_line`] normalizes a line into `(label, values)` covering all of
//! those shapes; [`split_values`] handles the multi-value separators.

use serde::Serialize;

/// A parsed semi-structured line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct LabeledLine {
    /// The lowercased label.
    pub label: String,
    /// The value strings, in order.
    pub values: Vec<String>,
    /// Which syntactic shape matched.
    pub shape: LineShape,
}

/// The syntactic shape of a labeled line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum LineShape {
    /// `label: value` (or `label; value`).
    Separator,
    /// `LABEL value` — bare label followed by one token.
    Bare,
}

/// Split a value string on the multi-value separators doxers use:
/// `" - "`, `" and "`, `","`. Empty fragments are dropped; fragments are
/// trimmed.
pub fn split_values(raw: &str) -> Vec<String> {
    // Apply separators in decreasing specificity; " - " before "-" is
    // deliberate: hyphens inside handles must survive.
    let mut parts: Vec<String> = vec![raw.to_string()];
    for sep in [" - ", " and ", ","] {
        parts = parts
            .into_iter()
            .flat_map(|p| {
                p.split(sep)
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect::<Vec<_>>()
            })
            .collect();
    }
    parts
}

/// Parse one line into a [`LabeledLine`], if it matches the grammar.
///
/// - Separator shape: a label of at most `max_label_words` words before the
///   first `:` or `;`.
/// - Bare shape: `LABEL value` where the first token is short (≤ 12 chars)
///   and the remainder is 1–3 handle-like tokens.
pub fn parse_line(line: &str) -> Option<LabeledLine> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    if let Some((label, rest)) = split_label(line, &[':', ';']) {
        if label.is_empty() || label.split_whitespace().count() > 3 {
            return None;
        }
        let values = split_values(&rest);
        if values.is_empty() {
            return None;
        }
        return Some(LabeledLine {
            label: label.to_lowercase(),
            values,
            shape: LineShape::Separator,
        });
    }
    // Bare shape: "FB example" / "fbs example example2". The label must be
    // short or shouty (an abbreviation), or ordinary prose would match.
    let mut words = line.split_whitespace();
    let first = words.next()?;
    let abbreviation_like = first.len() <= 4 || first.chars().all(|c| c.is_ascii_uppercase());
    if !abbreviation_like {
        return None;
    }
    let rest: Vec<&str> = words.collect();
    if rest.is_empty() || rest.len() > 2 {
        return None;
    }
    if !rest
        .iter()
        .all(|w| dox_textkit::normalize::is_handle_like(w))
    {
        return None;
    }
    Some(LabeledLine {
        label: first.to_lowercase(),
        values: rest.into_iter().map(str::to_string).collect(),
        shape: LineShape::Bare,
    })
}

/// Parse every line of `text`.
pub fn parse_lines(text: &str) -> Vec<LabeledLine> {
    text.lines().filter_map(parse_line).collect()
}

/// Split a line at the first occurrence of any of the given separator
/// characters, returning `(label, rest)` with both sides trimmed.
///
/// Returns `None` when no separator occurs. This is the first step of the
/// semi-structured "label: value" parsing described in §3.1.3 of the paper.
pub fn split_label(line: &str, separators: &[char]) -> Option<(String, String)> {
    let idx = line.find(|c| separators.contains(&c))?;
    let (label, rest) = line.split_at(idx);
    let rest = &rest[rest.chars().next().map_or(0, char::len_utf8)..];
    Some((label.trim().to_string(), rest.trim().to_string()))
}
