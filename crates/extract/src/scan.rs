//! The one pass over a document.
//!
//! [`scan`] walks the text's bytes once, front to back. An ASCII byte is
//! classified by a table; at a byte ≥ 0x80 the scan decodes that char, so
//! whitespace is exactly `char::is_whitespace` and word and line
//! boundaries agree with `split_whitespace` and `trim`. As it walks it
//!
//! - splits the text into words, and hands each word to the shape rules
//!   of [`crate::fields`] (card groups, SSNs, IPv4 literals, emails);
//! - tries each rule where it can start: profile URLs at `/`
//!   ([`crate::osn`]), phone shapes at `(` and where a run of digits
//!   ends, credit openers at `d`/`c` ([`crate::credits`]);
//! - notes per line its first `:`/`;`, its first `:`, and its first
//!   three words, and at the line's `\n` reads its label
//!   ([`crate::lines`]), the family block and the credit clauses.
//!
//! The rules record offsets and numbers in per-thread buffers that are
//! reused from one document to the next; the record's `String`s and
//! `Vec`s are allocated once each, at their final size, by the `finish`
//! step of each rule set.

use crate::credits::{opener_at, CreditScan, OPENERS};
use crate::fields::FieldScan;
use crate::lines::{fold, rules_of, LineShape, LineValues};
use crate::osn::OsnScan;
use crate::record::ExtractedDox;
use std::cell::RefCell;
use std::cmp::Ordering;

/// Which rule sets a scan runs; the others' parts of the record stay
/// empty.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Parts {
    osn: bool,
    fields: bool,
    credits: bool,
}

impl Parts {
    /// Everything: [`crate::extract`].
    pub const ALL: Parts = Parts {
        osn: true,
        fields: true,
        credits: true,
    };
    /// Account references only.
    pub const OSN: Parts = Parts {
        osn: true,
        fields: false,
        credits: false,
    };
    /// Sensitive fields only.
    pub const FIELDS: Parts = Parts {
        osn: false,
        fields: true,
        credits: false,
    };
    /// Doxer credits only.
    pub const CREDITS: Parts = Parts {
        osn: false,
        fields: false,
        credits: true,
    };
}

/// A byte range of the scanned text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    pub start: usize,
    pub end: usize,
}

impl Span {
    /// The span of `sub`, which must be a slice of `text`.
    pub fn of(text: &str, sub: &str) -> Span {
        let start = (sub.as_ptr() as usize).wrapping_sub(text.as_ptr() as usize);
        debug_assert!(start + sub.len() <= text.len(), "not a slice of the text");
        Span {
            start,
            end: start + sub.len(),
        }
    }

    /// The spanned text.
    pub fn get(self, text: &str) -> &str {
        &text[self.start..self.end]
    }
}

/// Byte classes; a word's `any` and `all` are the OR and AND over its
/// bytes (a non-ASCII char counts as [`WIDE`]).
const WS: u8 = 1;
pub(crate) const DIGIT: u8 = 1 << 1;
/// `[A-Za-z0-9_.-]`: the handle alphabet.
const HANDLE: u8 = 1 << 2;
pub(crate) const AT: u8 = 1 << 3;
pub(crate) const DOT: u8 = 1 << 4;
pub(crate) const DASH: u8 = 1 << 5;
/// A byte other than a digit some rule starts at: `/ : ; (`, `d D c C`.
const MARK: u8 = 1 << 6;
const WIDE: u8 = 1 << 7;

/// The bytes the tight loop of [`Scan::walk`] stops at.
const STOP: u8 = WS | DIGIT | MARK | WIDE;

/// The class of every byte; any byte ≥ 0x80 is [`WIDE`] until its char
/// is decoded.
const CLASS: [u8; 256] = {
    let mut t = [WIDE; 256];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        t[b] = match c {
            // `char::is_whitespace` in ASCII: \t \n \v \f \r and space.
            b'\t'..=b'\r' | b' ' => WS,
            b'0'..=b'9' => DIGIT | HANDLE,
            b'd' | b'D' | b'c' | b'C' => HANDLE | MARK,
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => HANDLE,
            b'.' => HANDLE | DOT,
            b'-' => HANDLE | DASH,
            b'@' => AT,
            b'/' | b':' | b';' | b'(' => MARK,
            _ => 0,
        };
        b += 1;
    }
    t
};

/// The char at byte `i`, a char boundary before the end of `text`.
fn char_at(text: &str, i: usize) -> char {
    text[i..]
        .chars()
        .next()
        .unwrap_or(char::REPLACEMENT_CHARACTER)
}

/// One whitespace-delimited word of the text.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Word {
    span: Span,
    any: u8,
    all: u8,
}

impl Word {
    /// The word's text.
    pub fn get(self, text: &str) -> &str {
        self.span.get(text)
    }
    /// Some byte of the word is in `class`.
    pub fn any(self, class: u8) -> bool {
        self.any & class != 0
    }
    /// Every byte of the word is in `class`.
    pub fn all(self, class: u8) -> bool {
        self.all & class != 0
    }
}

/// What the scan notes about the line it is in.
#[derive(Debug, Clone, Copy)]
struct Line {
    /// Words so far.
    words: usize,
    /// The first word: the trimmed line starts here.
    first: Span,
    /// Where the second word starts.
    second: usize,
    /// Whether the second and third words are in the handle alphabet (a
    /// bare label's values must be).
    handle_values: bool,
    /// End of the last word: the trimmed line ends here.
    last_end: usize,
    /// The first `:` or `;`, and how many words start before it.
    sep: Option<(usize, usize)>,
    /// The first `:`.
    colon: Option<usize>,
    /// Credit openers met on this line (bit per opener) and where each
    /// one's clause starts.
    openers: u8,
    clauses: [usize; OPENERS.len()],
}

impl Line {
    const EMPTY: Line = Line {
        words: 0,
        first: Span { start: 0, end: 0 },
        second: 0,
        handle_values: true,
        last_end: 0,
        sep: None,
        colon: None,
        openers: 0,
        clauses: [0; OPENERS.len()],
    };
}

/// The rule sets' buffers, kept per thread between scans.
#[derive(Debug, Default)]
struct Scratch {
    osn: OsnScan,
    fields: FieldScan,
    credits: CreditScan,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Scan `text` once and return the parts of the record `parts` asks for.
pub(crate) fn scan(text: &str, parts: Parts) -> ExtractedDox {
    SCRATCH.with_borrow_mut(|s| scan_with(text, parts, s))
}

fn scan_with(text: &str, parts: Parts, s: &mut Scratch) -> ExtractedDox {
    s.osn.reset();
    s.fields.reset();
    s.credits.reset();
    Scan { text, parts, s }.walk();
    ExtractedDox {
        osn: s.osn.finish(text),
        fields: s.fields.finish(text),
        credits: s.credits.finish(text),
    }
}

struct Scan<'t, 's> {
    text: &'t str,
    parts: Parts,
    s: &'s mut Scratch,
}

impl Scan<'_, '_> {
    fn walk(&mut self) {
        let text = self.text;
        let bytes = text.as_bytes();
        let mut line = Line::EMPTY;
        let mut i = 0;
        'text: loop {
            // Whitespace up to the next word, closing each line on its `\n`.
            let start = loop {
                let Some(&b) = bytes.get(i) else {
                    break 'text;
                };
                match CLASS[usize::from(b)] {
                    WS => {
                        if b == b'\n' {
                            self.line_end(&line, i);
                            line = Line::EMPTY;
                        }
                        i += 1;
                    }
                    WIDE => match char_at(text, i) {
                        c if c.is_whitespace() => i += c.len_utf8(),
                        _ => break i,
                    },
                    _ => break i,
                }
            };
            // One word.
            line.words += 1;
            let (mut any, mut all) = (0u8, !0u8);
            loop {
                // Most bytes are plain ASCII and cost one table lookup.
                let mut class = WS;
                while let Some(&b) = bytes.get(i) {
                    class = CLASS[usize::from(b)];
                    if class & STOP != 0 {
                        break;
                    }
                    any |= class;
                    all &= class;
                    i += 1;
                }
                let Some(&b) = bytes.get(i) else {
                    break;
                };
                if class & WS != 0 {
                    break;
                }
                if class & WIDE != 0 {
                    let c = char_at(text, i);
                    if c.is_whitespace() {
                        break;
                    }
                    any |= WIDE;
                    all &= WIDE;
                    i += c.len_utf8();
                    continue;
                }
                any |= class;
                all &= class;
                if class & DIGIT != 0 {
                    if self.parts.fields {
                        self.s.fields.digit(bytes, i);
                    }
                } else {
                    self.mark(&mut line, b, i, start);
                }
                i += 1;
            }
            let word = Word {
                span: Span { start, end: i },
                any,
                all,
            };
            self.word(&mut line, word);
        }
        self.line_end(&line, bytes.len());
    }

    /// The line's latest word is `w`.
    #[inline]
    fn word(&mut self, line: &mut Line, w: Word) {
        match line.words {
            1 => line.first = w.span,
            2 => {
                line.second = w.span.start;
                line.handle_values = w.all(HANDLE);
            }
            3 => line.handle_values &= w.all(HANDLE),
            _ => {}
        }
        line.last_end = w.span.end;
        if self.parts.fields {
            self.s.fields.word(self.text, w);
        }
    }

    /// A [`MARK`] byte `b` at `at`, in a word starting at `word_start`.
    #[inline]
    fn mark(&mut self, line: &mut Line, b: u8, at: usize, word_start: usize) {
        let bytes = self.text.as_bytes();
        match b {
            b'/' if self.parts.osn => self.s.osn.slash(self.text, at),
            b':' | b';' => {
                if line.sep.is_none() {
                    // The word holding the separator counts toward the
                    // label unless the separator starts it.
                    let before = line.words - usize::from(word_start == at);
                    line.sep = Some((at, before));
                }
                if b == b':' && line.colon.is_none() {
                    line.colon = Some(at);
                }
            }
            b'(' if self.parts.fields => self.s.fields.phone(bytes, at),
            b'd' | b'D' | b'c' | b'C' if self.parts.credits => {
                if let Some(k) = opener_at(&bytes[at..]) {
                    if line.openers & (1 << k) == 0 {
                        line.openers |= 1 << k;
                        line.clauses[k] = at + OPENERS[k].len();
                    }
                }
            }
            _ => {}
        }
    }

    /// The line ends at `end` (its `\n`, or the end of the text).
    fn line_end(&mut self, line: &Line, end: usize) {
        let text = self.text;
        if self.parts.credits {
            for (k, &start) in line.clauses.iter().enumerate() {
                if line.openers & (1 << k) != 0 {
                    self.s.credits.clause(text, k, &text[start..end]);
                }
            }
        }
        // Empty for a line with no word (`Line::EMPTY` spans nothing).
        let trimmed = Span {
            start: line.first.start,
            end: line.last_end,
        };
        if self.parts.fields {
            self.s.fields.family_line(text, trimmed, line.colon);
        }
        if !(self.parts.osn || self.parts.fields) {
            return;
        }
        let Some((label, values)) = labeled(text, line, trimmed) else {
            return;
        };
        let Some(rules) = fold(label).and_then(|l| rules_of(&l)) else {
            return;
        };
        if let Some(network) = rules.network.filter(|_| self.parts.osn) {
            self.s.osn.labeled(text, network, values);
        }
        if let Some(rule) = rules.field.filter(|_| self.parts.fields) {
            self.s.fields.labeled(text, rule, values);
        }
    }
}

/// The label (as written) and values of a line, if it is labeled: the
/// separator shape when the line has a `:` or `;`, else the bare shape.
fn labeled<'t>(text: &'t str, line: &Line, trimmed: Span) -> Option<(&'t str, LineValues<'t>)> {
    if let Some((sep, label_words)) = line.sep {
        if label_words == 0 || label_words > 3 {
            return None;
        }
        let label = text[trimmed.start..sep].trim_end();
        let rest = text[sep + 1..trimmed.end].trim();
        return Some((label, LineValues::after_separator(rest)));
    }
    // Bare shape: "FB example" / "fbs example example2". The label must be
    // short or shouty (an abbreviation), or ordinary prose would match.
    if !(2..=3).contains(&line.words) || !line.handle_values {
        return None;
    }
    let label = line.first.get(text);
    if label.len() > 4 && !label.bytes().all(|b| b.is_ascii_uppercase()) {
        return None;
    }
    let rest = &text[line.second..trimmed.end];
    Some((
        label,
        LineValues {
            rest,
            shape: LineShape::Bare,
        },
    ))
}

/// An ASCII phrase, searched for by its rarest byte: candidates are the
/// positions of that byte, and each is checked against the whole phrase.
/// A match is all ASCII, so it always starts and ends on char boundaries.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Phrase {
    bytes: &'static [u8],
    anchor: usize,
}

impl Phrase {
    /// `text` (ASCII), anchored on its rarest byte: punctuation, then
    /// letters by falling English frequency, a space last.
    pub const fn new(text: &'static str) -> Phrase {
        const BY_FREQUENCY: &[u8] = b" etaoinshrdlucmfwygpbvkxjqz";
        let bytes = text.as_bytes();
        let (mut anchor, mut best, mut k) = (0, 0, 0);
        while k < bytes.len() {
            // Rank 0 for a byte not in the list, else its place from the end.
            let (b, mut rank, mut f) = (bytes[k].to_ascii_lowercase(), 0, 0);
            while f < BY_FREQUENCY.len() {
                if BY_FREQUENCY[f] == b {
                    rank = BY_FREQUENCY.len() - f;
                }
                f += 1;
            }
            if k == 0 || rank < best {
                (anchor, best) = (k, rank);
            }
            k += 1;
        }
        Phrase { bytes, anchor }
    }

    /// The phrase's length in bytes.
    pub fn len(self) -> usize {
        self.bytes.len()
    }

    /// `s` split on the phrase (ignoring ASCII case when `fold` is set),
    /// as `str::split` would.
    pub fn split(self, s: &str, fold: bool) -> impl Iterator<Item = &str> {
        let mut from = Some(0usize);
        std::iter::from_fn(move || {
            let start = from?;
            let end = self.find(s, start, fold);
            from = end.map(|at| at + self.len());
            Some(&s[start..end.unwrap_or(s.len())])
        })
    }

    /// The first match in `hay` at or after `from`, ignoring ASCII case
    /// when `fold` is set.
    pub fn find(self, hay: &str, from: usize, fold: bool) -> Option<usize> {
        let (hay, a) = (hay.as_bytes(), self.bytes[self.anchor]);
        let fold_anchor = fold && a.is_ascii_alphabetic();
        let mut at = from + self.anchor;
        loop {
            let rest = hay.get(at..)?;
            at += if fold_anchor {
                rest.iter().position(|&b| b | 0x20 == a | 0x20)?
            } else {
                rest.iter().position(|&b| b == a)?
            };
            let start = at - self.anchor;
            let hit = match hay.get(start..start + self.bytes.len()) {
                Some(w) if fold => w.eq_ignore_ascii_case(self.bytes),
                Some(w) => w == self.bytes,
                None => false,
            };
            if hit {
                return Some(start);
            }
            at += 1;
        }
    }
}

/// `a` and `b` ordered as their lowercase (`str::to_lowercase`) would be.
pub(crate) fn lower_cmp(a: &str, b: &str) -> Ordering {
    if a.is_ascii() && b.is_ascii() {
        let (a, b) = (a.bytes(), b.bytes());
        return a
            .map(|c| c.to_ascii_lowercase())
            .cmp(b.map(|c| c.to_ascii_lowercase()));
    }
    // `str::to_lowercase` maps each char on its own except `Σ`, which
    // lowers by context (final sigma); text holding one is compared
    // lowercased whole.
    if a.contains('Σ') || b.contains('Σ') {
        return a.to_lowercase().cmp(&b.to_lowercase());
    }
    // Comparing chars orders as comparing their UTF-8 bytes does.
    let (a, b) = (a.chars(), b.chars());
    a.flat_map(char::to_lowercase)
        .cmp(b.flat_map(char::to_lowercase))
}

/// `s` lowercased (`str::to_lowercase`).
pub(crate) fn lowercase(s: &str) -> String {
    if s.is_ascii() {
        s.to_ascii_lowercase()
    } else {
        s.to_lowercase()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_osn::network::Network;

    #[test]
    fn ascii_whitespace_matches_char_is_whitespace() {
        assert!(CLASS[128..].iter().all(|&c| c == WIDE));
        for b in 0u8..128 {
            assert_eq!(
                CLASS[usize::from(b)] & WS != 0,
                char::from(b).is_whitespace(),
                "{b:#x}"
            );
        }
    }

    #[test]
    fn phrases_find_what_a_window_search_finds() {
        let hay = "a - b AND c, Thanks To d thanks to e, with help from F For - x";
        for (text, fold) in [
            (" - ", false),
            (" and ", true),
            (",", false),
            (" for ", true),
            (", thanks to ", true),
            (" with help from ", true),
        ] {
            let phrase = Phrase::new(text);
            for from in 0..=hay.len() {
                let want = hay.as_bytes()[from..]
                    .windows(text.len())
                    .position(|w| {
                        if fold {
                            w.eq_ignore_ascii_case(text.as_bytes())
                        } else {
                            w == text.as_bytes()
                        }
                    })
                    .map(|at| from + at);
                assert_eq!(phrase.find(hay, from, fold), want, "{text:?} from {from}");
            }
        }
        assert_eq!(Phrase::new(" thanks to ").anchor, 5, "the k");
        assert_eq!(Phrase::new(", thanks to ").anchor, 0, "the comma");
    }

    #[test]
    fn lower_cmp_orders_as_lowercased_strings() {
        let words = [
            "Abc",
            "abd",
            "ÄBC",
            "äbc",
            "\u{212A}a",
            "ka",
            "",
            "a",
            "Z",
            "ΣΣ",
            "σς",
            "σσ",
        ];
        for a in words {
            for b in words {
                assert_eq!(
                    lower_cmp(a, b),
                    a.to_lowercase().cmp(&b.to_lowercase()),
                    "{a} {b}"
                );
            }
        }
    }

    #[test]
    fn unicode_whitespace_splits_words_and_trims_lines() {
        let text = "Name:\u{3000}Jo\u{A0}Doe\u{2028}\nAge\u{85}22";
        let e = crate::extract(text);
        assert_eq!(e.fields.first_name.as_deref(), Some("Jo"));
        assert_eq!(e.fields.last_name.as_deref(), Some("Doe"));
        assert_eq!(e.fields.age, Some(22));
    }

    #[test]
    fn line_grammar_shapes() {
        let text = "\
fb: https://twitch.tv/streamer_1
FB example2
fbs: ex3 - ex4
facebooks; ex5 and ex6
skype:   live.someone  
Name: Jo Doe
my real full name is: Al Bo
Name:
FB not a handle at all
Age 22
SCHOOL: Hill High";
        let e = crate::extract(text);
        let refs: Vec<(Network, &str)> = e
            .osn
            .iter()
            .map(|r| (r.network, r.handle.as_str()))
            .collect();
        assert_eq!(
            refs,
            [
                (Network::Facebook, "ex3"),
                (Network::Facebook, "ex4"),
                (Network::Facebook, "ex5"),
                (Network::Facebook, "ex6"),
                (Network::Facebook, "example2"),
                (Network::Twitch, "streamer_1"),
                (Network::Skype, "live.someone"),
            ]
        );
        // A label of more than three words is prose, and a separator line
        // with no value is no labeled line: the first `Name:` stands.
        assert_eq!(e.fields.first_name.as_deref(), Some("Jo"));
        // The bare shape feeds the field rules too.
        assert_eq!(e.fields.age, Some(22));
        assert_eq!(e.fields.school.as_deref(), Some("Hill High"));
    }
}
