//! The line-level grammar of semi-structured dox files.
//!
//! The paper's §3.1.3 lists the formats a Facebook account shows up in:
//!
//! 1. `Facebook: https://facebook.com/example`
//! 2. `FB example`
//! 3. `fbs: example - example2 - example3`
//! 4. `facebooks; example and example2`
//!
//! A line is labeled in one of two shapes, both read off the trimmed
//! line the scan (`crate::scan`) has already split into words:
//!
//! - **Separator**: a label of at most three words before the first `:`
//!   or `;`, and at least one value after it ([`split_values`]).
//! - **Bare**: `LABEL value` with no separator, where the first word is
//!   short (≤ 4 bytes) or all uppercase, and the 1–2 words after it are
//!   handle-like.
//!
//! Labels are compared lowercased (`fold`) against one table of
//! every label a rule knows (`rules_of`); values are borrowed from the
//! text and only the ones a record keeps are ever copied.

use crate::fields::{field_labels, FieldLabel};
use crate::osn::network_labels;
use crate::scan::Phrase;
use dox_osn::network::Network;
use std::sync::OnceLock;

/// The values of a labeled line, borrowed from the text: everything after
/// the separator, or the words after a bare label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineValues<'t> {
    /// The trimmed text after the separator, or from the second word of
    /// a bare line to its end.
    pub rest: &'t str,
    /// Which syntactic shape matched.
    pub shape: LineShape,
}

/// The syntactic shape of a labeled line, which says how to read its
/// values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineShape {
    /// `label: value` (or `label; value`) with no multi-value separator
    /// after the label: the trimmed rest is the one value, or none.
    Whole,
    /// `label: v1 - v2`, `label; v1 and v2`, `label: v1, v2`: the rest
    /// goes through [`split_values`].
    Separated,
    /// `LABEL value` — bare label followed by one or two tokens.
    Bare,
}

impl<'t> LineValues<'t> {
    /// The values after a line's `:` or `;`, `rest` trimmed.
    pub fn after_separator(rest: &'t str) -> Self {
        let shape = if has_separator(rest) {
            LineShape::Separated
        } else {
            LineShape::Whole
        };
        LineValues { rest, shape }
    }

    /// Whether the line has a value at all.
    pub fn any(self) -> bool {
        match self.shape {
            LineShape::Whole => !self.rest.is_empty(),
            // `rest` is trimmed, so a separator cannot start it: unless
            // it starts with a comma, its first byte is part of a value.
            LineShape::Separated => !self.rest.starts_with(',') || self.iter().next().is_some(),
            LineShape::Bare => true,
        }
    }

    /// The line's value when it has exactly one without splitting.
    pub fn single(self) -> Option<&'t str> {
        (self.shape == LineShape::Whole && !self.rest.is_empty()).then_some(self.rest)
    }

    /// The value strings, in order.
    pub fn iter(self) -> impl Iterator<Item = &'t str> {
        let (whole, separated, bare) = match self.shape {
            LineShape::Whole => (self.single(), None, None),
            LineShape::Separated => (None, Some(split_values(self.rest)), None),
            LineShape::Bare => (None, None, Some(self.rest.split_whitespace())),
        };
        whole
            .into_iter()
            .chain(separated.into_iter().flatten())
            .chain(bare.into_iter().flatten())
    }

    /// The values joined with `", "` into `out` (cleared first) — the
    /// string the field rules read.
    pub fn join_into(self, out: &mut String) {
        out.clear();
        for (k, value) in self.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(value);
        }
    }
}

/// The multi-value separators, in the order they apply.
const DASH: Phrase = Phrase::new(" - ");
const AND: Phrase = Phrase::new(" and ");
const COMMA: Phrase = Phrase::new(",");

/// Split a value string on the multi-value separators doxers use:
/// `" - "`, `" and "`, `","`, in that order. Each fragment is trimmed and
/// empty fragments are dropped before the next separator applies; the
/// fragments are borrowed from `raw` and nothing is allocated.
pub fn split_values(raw: &str) -> impl Iterator<Item = &str> {
    // " - " before "-" is deliberate: hyphens inside handles must survive.
    fragments(raw, DASH)
        .flat_map(|p| fragments(p, AND))
        .flat_map(|p| fragments(p, COMMA))
}

/// Whether [`split_values`] has a separator to split `raw` on: a `-` or
/// `,`, or ` and `.
fn has_separator(raw: &str) -> bool {
    let b = raw.as_bytes();
    b.iter().any(|&c| c == b'-' || c == b',') || AND.find(raw, 0, false).is_some()
}

/// `s` split on `sep`, each piece trimmed, empty pieces dropped.
fn fragments(s: &str, sep: Phrase) -> impl Iterator<Item = &str> {
    sep.split(s, false).map(str::trim).filter(|p| !p.is_empty())
}

/// What a lowercased label selects: the network whose handles the line
/// lists, the field rule its values feed, or both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LabelRules {
    /// The network named by the label (`Network::parse`).
    pub network: Option<Network>,
    /// The field rule the label selects.
    pub field: Option<FieldLabel>,
}

/// Every known label as its zero-padded [`Folded::key`] with its rules,
/// in buckets by length.
type RuleTable = [Vec<(u128, LabelRules)>; FOLD_CAP + 1];
static RULES: OnceLock<RuleTable> = OnceLock::new();

/// The rules `label` (lowercased) selects, if any.
pub(crate) fn rules_of(label: &Folded) -> Option<LabelRules> {
    let key = label.key;
    RULES.get_or_init(rule_table)[label.len]
        .iter()
        .find(|&&(known, _)| known == key)
        .map(|&(_, rules)| rules)
}

/// The label table. Where two entries share a label the first one wins,
/// as in the rules' own lookups: the first network in `Network::ALL`
/// order, the first field list in [`field_labels`] order.
fn rule_table() -> RuleTable {
    fn entry<'t>(table: &'t mut RuleTable, label: &str) -> Option<&'t mut LabelRules> {
        // Every known label fits the fold buffer (a unit test holds it).
        let folded = fold(label)?;
        let (bucket, key) = (&mut table[folded.len], folded.key);
        let at = match bucket.iter().position(|&(known, _)| known == key) {
            Some(at) => at,
            None => {
                bucket.push((key, LabelRules::default()));
                bucket.len() - 1
            }
        };
        Some(&mut bucket[at].1)
    }
    let mut table = RuleTable::default();
    for (label, network) in network_labels() {
        if let Some(rules) = entry(&mut table, &label) {
            rules.network.get_or_insert(network);
        }
    }
    for (label, field) in field_labels() {
        if let Some(rules) = entry(&mut table, label) {
            rules.field.get_or_insert(field);
        }
    }
    table
}

/// The longest label any rule matches ("known aliases", "date of birth").
const FOLD_CAP: usize = 16;

/// A label lowercased (Unicode `to_lowercase`), packed into one integer:
/// its bytes little-endian and zero-padded, with its length (a label may
/// hold NUL bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Folded {
    key: u128,
    len: usize,
}

impl Folded {
    /// The empty label.
    const EMPTY: Folded = Folded { key: 0, len: 0 };

    /// `self` with `b` appended, or `None` past [`FOLD_CAP`] bytes.
    const fn push(self, b: u8) -> Option<Folded> {
        if self.len == FOLD_CAP {
            return None;
        }
        Some(Folded {
            key: self.key | (b as u128) << (8 * self.len),
            len: self.len + 1,
        })
    }

    /// A label that is lowercase ASCII already, folded at compile time.
    pub const fn of_lowercase_ascii(label: &str) -> Folded {
        let (bytes, mut folded, mut k) = (label.as_bytes(), Folded::EMPTY, 0);
        while k < bytes.len() && k < FOLD_CAP {
            folded.key |= (bytes[k] as u128) << (8 * k);
            k += 1;
        }
        folded.len = bytes.len();
        folded
    }

    /// The lowercased bytes.
    #[cfg(test)]
    fn to_vec(self) -> Vec<u8> {
        self.key.to_le_bytes()[..self.len].to_vec()
    }
}

/// `u8::to_ascii_lowercase` on each byte of `word` at once: an
/// `A`..=`Z` byte gains `0x20`, every other byte is kept.
fn ascii_lowercase(word: u128) -> u128 {
    let splat = |b: u8| u128::from_le_bytes([b; FOLD_CAP]);
    let low7 = word & splat(0x7f);
    // Top bit of each byte: set where its low seven bits are >= b'A'
    // and clear where they are > b'Z'; no carry crosses a byte.
    let ge_a = low7 + splat(0x80 - b'A');
    let gt_z = low7 + splat(0x80 - b'Z' - 1);
    let upper = ge_a & !gt_z & !word & splat(0x80);
    word | upper >> 2
}

/// `label` lowercased as `str::to_lowercase` would, or `None` when that
/// is longer than any label a rule knows.
pub(crate) fn fold(label: &str) -> Option<Folded> {
    let bytes = label.as_bytes();
    if bytes.len() <= FOLD_CAP && label.is_ascii() {
        let mut buf = [0; FOLD_CAP];
        buf[..bytes.len()].copy_from_slice(bytes);
        return Some(Folded {
            key: ascii_lowercase(u128::from_le_bytes(buf)),
            len: bytes.len(),
        });
    }
    let mut folded = Folded::EMPTY;
    for c in label.chars().flat_map(char::to_lowercase) {
        let mut utf8 = [0; 4];
        for &b in c.encode_utf8(&mut utf8).as_bytes() {
            folded = folded.push(b)?;
        }
    }
    Some(folded)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn values(rest: &str) -> Vec<&str> {
        LineValues::after_separator(rest).iter().collect()
    }

    #[test]
    fn paper_example_3_dash_separated() {
        assert_eq!(
            split_values("example - example2 - example3").collect::<Vec<_>>(),
            ["example", "example2", "example3"]
        );
    }

    #[test]
    fn paper_example_4_and_separated() {
        assert_eq!(
            split_values("example and example2").collect::<Vec<_>>(),
            ["example", "example2"]
        );
    }

    #[test]
    fn hyphenated_handles_survive() {
        assert_eq!(
            split_values("cool-handle").collect::<Vec<_>>(),
            ["cool-handle"]
        );
    }

    #[test]
    fn comma_values() {
        assert_eq!(
            split_values("one, two,three").collect::<Vec<_>>(),
            ["one", "two", "three"]
        );
    }

    #[test]
    fn separators_apply_in_order_on_trimmed_fragments() {
        // " - " takes the space " and " would need.
        assert_eq!(
            split_values("x -  and b").collect::<Vec<_>>(),
            ["x", "and b"]
        );
        assert_eq!(split_values(" , - ,").count(), 0);
        assert_eq!(split_values("a - - b").collect::<Vec<_>>(), ["a", "- b"]);
    }

    #[test]
    fn the_whole_value_shortcut_splits_as_split_values() {
        for rest in [
            "a b", "a and b", "a andb", "land b", "x-y", "x,y", "and", "d", "", "a  and",
        ] {
            let values = LineValues::after_separator(rest);
            let split: Vec<&str> = split_values(rest).collect();
            assert_eq!(values.iter().collect::<Vec<_>>(), split, "{rest:?}");
        }
    }

    #[test]
    fn any_value() {
        for rest in ["", ",", ", ,", ",x", "a", "- -", "and", ", - ,"] {
            let values = LineValues::after_separator(rest);
            assert_eq!(values.any(), values.iter().next().is_some(), "{rest:?}");
        }
    }

    #[test]
    fn bare_values_are_words() {
        let bare = LineValues {
            rest: "a.b  c_d",
            shape: LineShape::Bare,
        };
        assert_eq!(bare.iter().collect::<Vec<_>>(), ["a.b", "c_d"]);
        assert_eq!(values("a, b"), ["a", "b"]);
        assert_eq!(values("a b"), ["a b"]);
    }

    #[test]
    fn join_matches_the_values() {
        let mut out = String::from("stale");
        LineValues::after_separator("Jo - Doe and X").join_into(&mut out);
        assert_eq!(out, "Jo, Doe, X");
    }

    #[test]
    fn every_known_label_folds_and_is_found() {
        for (label, _) in network_labels() {
            assert!(label.len() <= FOLD_CAP, "{label}");
            assert_eq!(
                rules_of(&fold(&label).unwrap()).unwrap().network,
                Network::parse(&label)
            );
        }
        for (label, _) in field_labels() {
            assert!(label.len() <= FOLD_CAP, "{label}");
            assert!(rules_of(&fold(label).unwrap()).unwrap().field.is_some());
        }
        assert_eq!(rules_of(&fold("myspace").unwrap()), None);
        assert_eq!(
            rules_of(&fold("Google+").unwrap()).unwrap().network,
            Some(Network::GooglePlus)
        );
    }

    #[test]
    fn ascii_lowercase_matches_the_byte_rule() {
        for b in 0..=u8::MAX {
            let word = u128::from_le_bytes([b; FOLD_CAP]);
            let want = u128::from_le_bytes([b.to_ascii_lowercase(); FOLD_CAP]);
            assert_eq!(ascii_lowercase(word), want, "{b:#x}");
        }
    }

    #[test]
    fn fold_is_unicode_lowercase() {
        for label in [
            "Known Aliases",
            "ÜBER",
            "\u{212A}",
            "İg",
            "S\u{212A}YPE",
            "",
        ] {
            let folded = fold(label).unwrap();
            assert_eq!(folded.to_vec(), label.to_lowercase().into_bytes());
        }
        assert!(fold("a label longer than any").is_none());
        assert!(fold("ééééééééé").is_none());
        assert_eq!(
            fold("S\u{212A}YPE"),
            Some(Folded::of_lowercase_ascii("skype"))
        );
    }
}
