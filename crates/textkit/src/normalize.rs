//! Light-weight text normalization.
//!
//! The classification pipeline lowercases input (the scikit-learn
//! `TfidfVectorizer` default) and the extraction pipeline needs a small set
//! of whitespace / punctuation helpers that behave identically on every
//! platform.

/// Lowercase `text` using Unicode simple case folding.
///
/// Equivalent to `str::to_lowercase` but named to make call sites in the
/// vectorizer self-describing.
pub fn lowercase(text: &str) -> String {
    text.to_lowercase()
}

/// Collapse every run of Unicode whitespace into a single ASCII space and
/// trim the ends.
///
/// ```
/// assert_eq!(dox_textkit::normalize::collapse_whitespace("a\t b\n\nc "), "a b c");
/// ```
pub fn collapse_whitespace(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_ws = true; // leading whitespace is dropped
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(ch);
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Strip every character that is not alphanumeric from `text`.
///
/// Used when canonicalizing extracted handles and phone numbers.
pub fn strip_non_alphanumeric(text: &str) -> String {
    text.chars().filter(|c| c.is_alphanumeric()).collect()
}

/// Keep only ASCII digits.
///
/// `digits_only("+1 (312) 555-0188")` is `"13125550188"`; the field
/// extractors use this to canonicalize phone numbers before comparison.
pub fn digits_only(text: &str) -> String {
    text.chars().filter(|c| c.is_ascii_digit()).collect()
}

/// True if `word` consists solely of ASCII alphanumerics, `_`, `-` or `.`,
/// the character set shared by the handle grammars of the measured social
/// networks.
pub fn is_handle_like(word: &str) -> bool {
    !word.is_empty()
        && word
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-' || c == '.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowercase_is_unicode_aware() {
        assert_eq!(lowercase("DoX Ünïcode"), "dox ünïcode");
    }

    #[test]
    fn collapse_whitespace_handles_empty() {
        assert_eq!(collapse_whitespace(""), "");
        assert_eq!(collapse_whitespace("   \t\n"), "");
    }

    #[test]
    fn collapse_whitespace_preserves_single_spaces() {
        assert_eq!(collapse_whitespace("a b c"), "a b c");
    }

    #[test]
    fn collapse_whitespace_collapses_runs() {
        assert_eq!(collapse_whitespace("  a \r\n b\t\tc  "), "a b c");
    }

    #[test]
    fn strip_non_alphanumeric_keeps_unicode_letters() {
        assert_eq!(strip_non_alphanumeric("a-b_c!ü"), "abcü");
    }

    #[test]
    fn digits_only_extracts_phone() {
        assert_eq!(digits_only("+1 (312) 555-0188"), "13125550188");
        assert_eq!(digits_only("no digits"), "");
    }

    #[test]
    fn handle_like_accepts_typical_usernames() {
        assert!(is_handle_like("xX_doxer_Xx"));
        assert!(is_handle_like("user.name-99"));
        assert!(!is_handle_like(""));
        assert!(!is_handle_like("has space"));
        assert!(!is_handle_like("emoji😀"));
    }
}
