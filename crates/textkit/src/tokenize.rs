//! Word tokenization.
//!
//! The paper's classifier uses scikit-learn's `TfidfVectorizer` with default
//! parameters: the text is lowercased and its tokens are the matches of
//! `(?u)\b\w\w+\b`, maximal runs of word characters (alphanumerics plus
//! underscore) at least two characters long, as unigrams. [`Tokenizer`]
//! reproduces exactly that, without a regex engine; it has no options.

/// The shortest token, in chars: the two `\w` of `\w\w+`.
pub(crate) const MIN_TOKEN_LEN: usize = 2;

/// The tokenizer's settings, of which there are none.
///
/// Kept, with [`Tokenizer::new`], only so the benchmark harness's
/// classify layer (`perfbench/src/layers.rs`) compiles until that layer
/// is rewritten to time the fused scorer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenizerConfig;

/// A deterministic word tokenizer: lowercase, then scikit-learn's
/// `\w\w+` unigrams.
#[derive(Debug, Clone, Default)]
pub struct Tokenizer;

impl Tokenizer {
    /// The tokenizer; `config` carries nothing (see [`TokenizerConfig`]).
    pub fn new(_config: TokenizerConfig) -> Self {
        Self
    }

    /// Tokenize `text` into owned tokens.
    ///
    /// The text is lowercased with `str::to_lowercase`; word characters
    /// are Unicode alphanumerics plus `_`, and every maximal run of at
    /// least two of them becomes a token.
    ///
    /// ```
    /// let t = dox_textkit::Tokenizer;
    /// assert_eq!(t.tokenize("Dox'd: John_Doe a I"), vec!["dox", "john_doe"]);
    /// ```
    pub fn tokenize(&self, text: &str) -> Vec<String> {
        let text = text.to_lowercase();
        word_spans(&text)
            .map(|(start, end)| text[start..end].to_string())
            .collect()
    }
}

/// The byte spans `(start, end)` of the maximal word-character runs of
/// `text` that are at least [`MIN_TOKEN_LEN`] characters long, in text
/// order.
///
/// This is the one implementation of sklearn's `\w\w+` rule: word
/// characters are Unicode alphanumerics plus `_`. [`Tokenizer::tokenize`]
/// and the fused TF-IDF scorer both walk it; the scorer's ASCII pass
/// walks [`ascii_word_spans`], its byte-at-a-time equal on ASCII text.
pub(crate) fn word_spans(text: &str) -> WordSpans<'_> {
    WordSpans {
        chars: text.char_indices(),
        len: text.len(),
    }
}

/// Iterator returned by [`word_spans`].
#[derive(Debug, Clone)]
pub(crate) struct WordSpans<'a> {
    chars: std::str::CharIndices<'a>,
    len: usize,
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
                        if char_count >= MIN_TOKEN_LEN {
                            return Some((s, idx));
                        }
                    }
                    char_count = 0;
                }
                None => {
                    let s = start?;
                    return (char_count >= MIN_TOKEN_LEN).then_some((s, self.len));
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
/// each maximal word-byte run at least [`MIN_TOKEN_LEN`] bytes long, in
/// order. On
/// ASCII text a byte is a char and lowercasing moves no word boundary, so
/// these are the spans `word_spans` finds in the lowercased text.
pub(crate) fn ascii_word_spans(bytes: &[u8], mut f: impl FnMut(usize, usize)) {
    let mut at = 0;
    while at < bytes.len() {
        while at < bytes.len() && !WORD_BYTE[usize::from(bytes[at])] {
            at += 1;
        }
        let start = at;
        while at < bytes.len() && WORD_BYTE[usize::from(bytes[at])] {
            at += 1;
        }
        if at - start >= MIN_TOKEN_LEN {
            f(start, at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_sklearn_pattern() {
        let t = Tokenizer;
        // single-character tokens are dropped, punctuation splits
        assert_eq!(
            t.tokenize("I am a dox-file, v2!"),
            vec!["am", "dox", "file", "v2"]
        );
    }

    #[test]
    fn underscore_is_word_char() {
        let t = Tokenizer;
        assert_eq!(t.tokenize("snake_case_name"), vec!["snake_case_name"]);
    }

    #[test]
    fn unicode_words_survive() {
        let t = Tokenizer;
        assert_eq!(t.tokenize("héllo wörld"), vec!["héllo", "wörld"]);
    }

    #[test]
    fn empty_input() {
        let t = Tokenizer;
        assert!(t.tokenize("").is_empty());
        assert!(t.tokenize("!!! ... ---").is_empty());
    }

    #[test]
    fn trailing_word_is_kept() {
        let t = Tokenizer;
        assert_eq!(t.tokenize("ends with word"), vec!["ends", "with", "word"]);
    }

    #[test]
    fn spans_index_the_original_text() {
        let text = "éé a_1 ?? Ωx-y 中文";
        let words: Vec<&str> = word_spans(text).map(|(s, e)| &text[s..e]).collect();
        assert_eq!(words, vec!["éé", "a_1", "Ωx", "中文"]);
        assert_eq!(word_spans("x y").count(), 0);
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
            let mut ascii = Vec::new();
            ascii_word_spans(text.as_bytes(), |s, e| ascii.push((s, e)));
            let chars: Vec<_> = word_spans(text).collect();
            assert_eq!(ascii, chars, "{text:?}");
        }
    }

    #[test]
    fn min_len_respects_chars_not_bytes() {
        let t = Tokenizer;
        // 'éé' is two chars, four bytes; must be kept.
        assert_eq!(t.tokenize("éé"), vec!["éé"]);
    }
}
