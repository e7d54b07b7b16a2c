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

/// A parsed semi-structured line, borrowing its values from the text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabeledLine<'a> {
    /// The lowercased label.
    pub label: String,
    /// The value strings, in order.
    pub values: Vec<&'a str>,
    /// Which syntactic shape matched.
    pub shape: LineShape,
}

/// The syntactic shape of a labeled line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineShape {
    /// `label: value` (or `label; value`).
    Separator,
    /// `LABEL value` — bare label followed by one token.
    Bare,
}

/// Split a value string on the multi-value separators doxers use:
/// `" - "`, `" and "`, `","`. Empty fragments are dropped; fragments are
/// trimmed.
pub fn split_values(raw: &str) -> Vec<&str> {
    // Apply separators in decreasing specificity; " - " before "-" is
    // deliberate: hyphens inside handles must survive.
    let mut parts = vec![raw];
    for sep in [" - ", " and ", ","] {
        parts = parts
            .into_iter()
            .flat_map(|p| p.split(sep).map(str::trim).filter(|s| !s.is_empty()))
            .collect();
    }
    parts
}

/// Parse one line into a [`LabeledLine`], if it matches the grammar.
///
/// - Separator shape: a label of at most three words before the first
///   `:` or `;`.
/// - Bare shape: `LABEL value` where the first token is short (≤ 4 bytes)
///   or all uppercase, and the remainder is 1–2 handle-like tokens.
pub fn parse_line(line: &str) -> Option<LabeledLine<'_>> {
    let line = line.trim();
    if line.is_empty() {
        return None;
    }
    if let Some((label, rest)) = line.split_once([':', ';']) {
        let label = label.trim();
        if label.is_empty() || label.split_whitespace().count() > 3 {
            return None;
        }
        let values = split_values(rest.trim());
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
    let values: Vec<&str> = words.collect();
    if values.is_empty() || values.len() > 2 {
        return None;
    }
    if !values
        .iter()
        .all(|w| dox_textkit::normalize::is_handle_like(w))
    {
        return None;
    }
    Some(LabeledLine {
        label: first.to_lowercase(),
        values,
        shape: LineShape::Bare,
    })
}

/// Parse every line of `text`. [`crate::extract`] calls this once per
/// document and hands the result to the OSN and field passes.
pub fn parse_lines(text: &str) -> Vec<LabeledLine<'_>> {
    text.lines().filter_map(parse_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_1_url_value() {
        let l = parse_line("Facebook: https://facebook.com/example").unwrap();
        assert_eq!(l.label, "facebook");
        assert_eq!(l.values, vec!["https://facebook.com/example"]);
        assert_eq!(l.shape, LineShape::Separator);
    }

    #[test]
    fn paper_example_2_bare() {
        let l = parse_line("FB example").unwrap();
        assert_eq!(l.label, "fb");
        assert_eq!(l.values, vec!["example"]);
        assert_eq!(l.shape, LineShape::Bare);
    }

    #[test]
    fn paper_example_3_dash_separated() {
        let l = parse_line("fbs: example - example2 - example3").unwrap();
        assert_eq!(l.label, "fbs");
        assert_eq!(l.values, vec!["example", "example2", "example3"]);
    }

    #[test]
    fn paper_example_4_and_separated() {
        let l = parse_line("facebooks; example and example2").unwrap();
        assert_eq!(l.label, "facebooks");
        assert_eq!(l.values, vec!["example", "example2"]);
    }

    #[test]
    fn hyphenated_handles_survive() {
        let l = parse_line("ig: cool-handle").unwrap();
        assert_eq!(l.values, vec!["cool-handle"]);
    }

    #[test]
    fn comma_values() {
        let l = parse_line("Known aliases: one, two, three").unwrap();
        assert_eq!(l.values, vec!["one", "two", "three"]);
    }

    #[test]
    fn long_labels_rejected() {
        assert!(parse_line("this is a very long sentence with a colon: x").is_none());
    }

    #[test]
    fn bare_shape_requires_handle_like_values() {
        assert!(parse_line("FB not a handle at all here").is_none());
        assert!(parse_line("plain sentence without separators").is_none());
    }

    #[test]
    fn empty_and_blank_lines() {
        assert!(parse_line("").is_none());
        assert!(parse_line("   ").is_none());
        assert!(parse_line("label:").is_none());
        assert!(parse_line(":value").is_none());
    }

    #[test]
    fn parse_lines_filters() {
        let text = "Name: John Example\n\nrandom prose here that is long\nIP: 10.0.0.1\n";
        let lines = parse_lines(text);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0].label, "name");
        assert_eq!(lines[1].label, "ip");
    }

    #[test]
    fn values_are_trimmed() {
        let l = parse_line("skype:   live.someone  ").unwrap();
        assert_eq!(l.values, vec!["live.someone"]);
    }
}
