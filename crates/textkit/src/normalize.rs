//! Light-weight text normalization for the extraction stage: phone
//! canonicalization and the handle alphabet, identical on every platform.

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
