//! Word tokenization and n-gram expansion.
//!
//! The paper's classifier uses scikit-learn's `TfidfVectorizer` with default
//! parameters, whose token pattern is `(?u)\b\w\w+\b`: maximal runs of word
//! characters (alphanumerics plus underscore) of length at least two.
//! [`Tokenizer`] reproduces that behaviour without a regex engine.

/// Configuration for [`Tokenizer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenizerConfig {
    /// Lowercase the input before tokenizing (sklearn default: `true`).
    pub lowercase: bool,
    /// Minimum token length in characters (sklearn default: `2`).
    pub min_token_len: usize,
    /// Inclusive n-gram range `(lo, hi)` over words (sklearn default `(1,1)`).
    pub ngram_range: (usize, usize),
}

impl Default for TokenizerConfig {
    fn default() -> Self {
        Self {
            lowercase: true,
            min_token_len: 2,
            ngram_range: (1, 1),
        }
    }
}

/// A deterministic word tokenizer matching the scikit-learn default token
/// pattern `\w\w+` with optional word n-gram expansion.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer {
    config: TokenizerConfig,
}

impl Tokenizer {
    /// Create a tokenizer with the given configuration.
    pub fn new(config: TokenizerConfig) -> Self {
        Self { config }
    }

    /// Create a tokenizer matching scikit-learn `TfidfVectorizer` defaults.
    pub fn sklearn_default() -> Self {
        Self::new(TokenizerConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> &TokenizerConfig {
        &self.config
    }

    /// Tokenize `text` into owned tokens, including n-gram expansion.
    ///
    /// Word characters are Unicode alphanumerics plus `_`; every maximal run
    /// of length `>= min_token_len` becomes a token. N-grams of words are
    /// joined with a single space, matching sklearn's convention.
    ///
    /// ```
    /// let t = dox_textkit::Tokenizer::sklearn_default();
    /// assert_eq!(t.tokenize("Dox'd: John_Doe a I"), vec!["dox", "john_doe"]);
    /// ```
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let lowered;
        let text = if self.config.lowercase {
            lowered = text.to_lowercase();
            &lowered
        } else {
            text
        };
        let words: Vec<&str> = word_spans(text, self.config.min_token_len)
            .map(|(start, end)| &text[start..end])
            .collect();
        let (lo, hi) = self.config.ngram_range;
        if (lo, hi) == (1, 1) {
            return words.into_iter().map(str::to_string).collect();
        }
        let mut out = Vec::new();
        for n in lo..=hi {
            if n == 0 || n > words.len() {
                continue;
            }
            for window in words.windows(n) {
                out.push(window.join(" "));
            }
        }
        out
    }
}

/// The byte spans `(start, end)` of the maximal word-character runs of
/// `text` that are at least `min_len` characters long, in text order.
///
/// This is the one implementation of sklearn's `\w\w+` rule: word
/// characters are Unicode alphanumerics plus `_`. [`Tokenizer::tokenize`]
/// and the fused TF-IDF scorer both walk it; the scorer's ASCII pass
/// walks [`ascii_word_spans`], its byte-at-a-time equal on ASCII text.
pub(crate) fn word_spans(text: &str, min_len: usize) -> WordSpans<'_> {
    WordSpans {
        chars: text.char_indices(),
        len: text.len(),
        min_len,
    }
}

/// Iterator returned by [`word_spans`].
#[derive(Debug, Clone)]
pub(crate) struct WordSpans<'a> {
    chars: std::str::CharIndices<'a>,
    len: usize,
    min_len: usize,
}

impl Iterator for WordSpans<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let mut start = None;
        let mut char_count = 0usize;
        loop {
            match self.chars.next() {
                Some((idx, ch)) if ch.is_alphanumeric() || ch == '_' => {
                    start.get_or_insert(idx);
                    char_count += 1;
                }
                Some((idx, _)) => {
                    if let Some(s) = start.take() {
                        if char_count >= self.min_len {
                            return Some((s, idx));
                        }
                    }
                    char_count = 0;
                }
                None => {
                    let s = start?;
                    return (char_count >= self.min_len).then_some((s, self.len));
                }
            }
        }
    }
}

/// Bytes of sklearn's `\w` class in ASCII text: `0-9`, `A-Z`, `a-z`, `_`.
static WORD_BYTE: [bool; 256] = {
    let mut class = [false; 256];
    let mut b = 0;
    while b < 256 {
        class[b] = (b as u8).is_ascii_alphanumeric() || b == b'_' as usize;
        b += 1;
    }
    class
};

/// [`word_spans`] of ASCII text, byte by byte: calls `f(start, end)` for
/// each maximal word-byte run at least `min_len` bytes long, in order. On
/// ASCII text a byte is a char and lowercasing moves no word boundary, so
/// these are the spans `word_spans` finds in the lowercased text.
pub(crate) fn ascii_word_spans(bytes: &[u8], min_len: usize, mut f: impl FnMut(usize, usize)) {
    let min_len = min_len.max(1);
    let mut at = 0;
    while at < bytes.len() {
        while at < bytes.len() && !WORD_BYTE[usize::from(bytes[at])] {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && WORD_BYTE[usize::from(bytes[at])] {
            at += 1;
        }
        if at - start >= min_len {
            f(start, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_sklearn_pattern() {
        let t = Tokenizer::sklearn_default();
        // single-character tokens are dropped, punctuation splits
        assert_eq!(
            t.tokenize("I am a dox-file, v2!"),
            vec!["am", "dox", "file", "v2"]
        );
    }

    #[test]
    fn underscore_is_word_char() {
        let t = Tokenizer::sklearn_default();
        assert_eq!(t.tokenize("snake_case_name"), vec!["snake_case_name"]);
    }

    #[test]
    fn lowercasing_can_be_disabled() {
        let t = Tokenizer::new(TokenizerConfig {
            lowercase: false,
            ..TokenizerConfig::default()
        });
        assert_eq!(t.tokenize("DoX DoX"), vec!["DoX", "DoX"]);
    }

    #[test]
    fn bigrams_join_with_space() {
        let t = Tokenizer::new(TokenizerConfig {
            ngram_range: (1, 2),
            ..TokenizerConfig::default()
        });
        assert_eq!(
            t.tokenize("full name here"),
            vec!["full", "name", "here", "full name", "name here"]
        );
    }

    #[test]
    fn pure_bigrams() {
        let t = Tokenizer::new(TokenizerConfig {
            ngram_range: (2, 2),
            ..TokenizerConfig::default()
        });
        assert_eq!(t.tokenize("aa bb cc"), vec!["aa bb", "bb cc"]);
    }

    #[test]
    fn ngram_longer_than_text_is_empty() {
        let t = Tokenizer::new(TokenizerConfig {
            ngram_range: (3, 3),
            ..TokenizerConfig::default()
        });
        assert!(t.tokenize("aa bb").is_empty());
    }

    #[test]
    fn unicode_words_survive() {
        let t = Tokenizer::sklearn_default();
        assert_eq!(t.tokenize("héllo wörld"), vec!["héllo", "wörld"]);
    }

    #[test]
    fn empty_input() {
        let t = Tokenizer::sklearn_default();
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("!!! ... ---").is_empty());
    }

    #[test]
    fn trailing_word_is_kept() {
        let t = Tokenizer::sklearn_default();
        assert_eq!(t.tokenize("ends with word"), vec!["ends", "with", "word"]);
    }

    #[test]
    fn spans_index_the_original_text() {
        let text = "éé a_1 ?? Ωx-y 中文";
        let words: Vec<&str> = word_spans(text, 2).map(|(s, e)| &text[s..e]).collect();
        assert_eq!(words, vec!["éé", "a_1", "Ωx", "中文"]);
        assert_eq!(word_spans("x y", 1).count(), 2);
    }

    #[test]
    fn ascii_spans_equal_word_spans_on_ascii_text() {
        let all: String = (0u8..0x80).map(char::from).collect();
        for text in [
            "",
            "x",
            "ab",
            " a bb_2 C-dd\tEe9 ",
            "trailing_word",
            "__init__: 42, v2!",
            &all,
        ] {
            for min_len in 0..4 {
                let mut ascii = Vec::new();
                ascii_word_spans(text.as_bytes(), min_len, |s, e| ascii.push((s, e)));
                let chars: Vec<_> = word_spans(text, min_len).collect();
                assert_eq!(ascii, chars, "{text:?} min_len {min_len}");
            }
        }
    }

    #[test]
    fn min_len_respects_chars_not_bytes() {
        let t = Tokenizer::sklearn_default();
        // 'éé' is two chars, four bytes; must be kept.
        assert_eq!(t.tokenize("éé"), vec!["éé"]);
    }
}
