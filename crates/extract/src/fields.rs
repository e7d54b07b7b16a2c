//! Sensitive-field extractors.
//!
//! One rule per Table 2 / Table 6 category. Extractors are heuristic by
//! design — the paper's extractor has per-field accuracies between 58.4 %
//! (phone) and 95.2 % (Instagram) — and operate on the plain-text form of a
//! document (chan HTML is converted upstream).
//!
//! The rules run inside the one scan of [`crate::extract`]: shape rules
//! (phone, SSN, card, IPv4, email) on the words and bytes it walks, label
//! rules on its labeled lines. `FieldScan` keeps what they find as
//! offsets and numbers, and `FieldScan::finish` copies out only what
//! the record keeps.

use crate::lines::{fold, Folded, LineShape, LineValues};
use crate::scan::{lower_cmp, lowercase, Parts, Span, Word, AT, DASH, DIGIT, DOT};
use dox_geo::ip::ipv4_literals;

use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;

/// A family-member mention: `(relation, name)`.
pub type FamilyRef = (String, String);

/// Everything the field extractors pull from one document.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ExtractedFields {
    /// First name, when a real name was found.
    pub first_name: Option<String>,
    /// Last name.
    pub last_name: Option<String>,
    /// Age in years.
    pub age: Option<u8>,
    /// Date of birth `(year, month, day)`.
    pub dob: Option<(u16, u8, u8)>,
    /// Phone numbers (digit-canonicalized).
    pub phones: Vec<String>,
    /// Email addresses.
    pub emails: Vec<String>,
    /// IPv4 addresses.
    pub ips: Vec<Ipv4Addr>,
    /// Street-address line, when present.
    pub address: Option<String>,
    /// Zip code.
    pub zip: Option<u32>,
    /// SSN-shaped identifiers.
    pub ssns: Vec<String>,
    /// Credit-card-shaped numbers (digit-canonicalized).
    pub credit_cards: Vec<String>,
    /// School name.
    pub school: Option<String>,
    /// ISP name.
    pub isp: Option<String>,
    /// Passwords.
    pub passwords: Vec<String>,
    /// Family members.
    pub family: Vec<FamilyRef>,
    /// Other usernames.
    pub usernames: Vec<String>,
}

/// Label aliases of the fields a later line overwrites, lowercased, in
/// the order of [`FieldScan::last`]. Phone numbers are matched by shape
/// anywhere in the text (see [`phone_at`]), so they need no label list.
const SINGLE_LABELS: [&[&str]; 6] = [
    &["name", "real name", "full name"],
    &["age"],
    &["dob", "date of birth", "birthday"],
    &["address", "addy", "addr", "home address"],
    &["school", "college", "university"],
    &["isp", "provider", "carrier"],
];
const NAME: usize = 0;
const AGE: usize = 1;
const DOB: usize = 2;
const ADDRESS: usize = 3;
const SCHOOL: usize = 4;
const ISP: usize = 5;
const PASSWORD_LABELS: &[&str] = &["password", "pass", "pw", "passwords"];
const ALIAS_LABELS: &[&str] = &["known aliases", "aliases", "usernames", "alias"];
const FAMILY_LABEL: &str = "family";
const RELATIONS: [&str; 9] = [
    "mother",
    "father",
    "brother",
    "sister",
    "uncle",
    "aunt",
    "grandmother",
    "grandfather",
    "cousin",
];

/// The field rule a label selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FieldLabel {
    /// One of [`SINGLE_LABELS`]: the field's last labeled line wins.
    Single(usize),
    /// Every value is a password.
    Password,
    /// Every value is another username.
    Alias,
    /// `family; Jane Berg (mother) - Tom Berg (brother)`.
    Family,
}

/// Every field label, lowercased, with its rule, in the order the rules
/// are tried.
pub(crate) fn field_labels() -> impl Iterator<Item = (&'static str, FieldLabel)> {
    let single = SINGLE_LABELS
        .iter()
        .enumerate()
        .flat_map(|(k, labels)| labels.iter().map(move |l| (*l, FieldLabel::Single(k))));
    let tagged = |labels: &'static [&'static str], rule| labels.iter().map(move |l| (*l, rule));
    single
        .chain(tagged(PASSWORD_LABELS, FieldLabel::Password))
        .chain(tagged(ALIAS_LABELS, FieldLabel::Alias))
        .chain(tagged(&[FAMILY_LABEL], FieldLabel::Family))
}

/// Run every field extractor over `text`.
pub fn extract_fields(text: &str) -> ExtractedFields {
    crate::scan::scan(text, Parts::FIELDS).fields
}

/// Emails: tokens containing `@` with a dotted domain, lowercased,
/// sorted and deduplicated.
pub fn extract_emails(text: &str) -> Vec<String> {
    extract_fields(text).emails
}

/// Phones: `(ddd) ddd-dddd`, `ddd-ddd-dddd`, `ddd.ddd.dddd`, optionally
/// prefixed `1-`/`1 `; returns canonical 10-digit strings. Shapes are
/// matched explicitly so SSNs (`ddd-dd-dddd`) and longer id numbers never
/// collide, and matching never crosses line boundaries.
pub fn extract_phones(text: &str) -> Vec<String> {
    extract_fields(text).phones
}

/// SSN-shaped: `ddd-dd-dddd`.
pub fn extract_ssns(text: &str) -> Vec<String> {
    extract_fields(text).ssns
}

/// Credit-card-shaped: four groups of four digits (spaces or dashes).
pub fn extract_credit_cards(text: &str) -> Vec<String> {
    extract_fields(text).credit_cards
}

/// What the field rules found so far in one scan: offsets into the text
/// and numbers, kept per thread and reused, so a scan allocates nothing
/// here once the buffers have grown.
#[derive(Debug, Default)]
pub(crate) struct FieldScan {
    phones: Vec<u64>,
    emails: Vec<Span>,
    ips: Vec<Ipv4Addr>,
    ssns: Vec<Span>,
    cards: Vec<u64>,
    passwords: Vec<Span>,
    usernames: Vec<Span>,
    /// `(relation, name)` from `Family:` blocks, then from `family;` lines.
    family_block: Vec<(usize, Span)>,
    family_inline: Vec<(usize, Span)>,
    /// The last labeled line of each field in [`SINGLE_LABELS`].
    last: [Option<(Span, LineShape)>; 6],
    /// Consecutive words of exactly four digits, across lines.
    card_run: usize,
    /// The three groups before the current one in that run.
    card_groups: [u64; 3],
    /// Whether the previous line was `Family:` or a relation under it.
    in_family_block: bool,
    /// Phone shapes are tried again from here (after the last match).
    phone_next: usize,
    /// The joined values of one labeled line.
    joined: String,
}

impl FieldScan {
    /// Forget the previous document.
    pub fn reset(&mut self) {
        self.phones.clear();
        self.emails.clear();
        self.ips.clear();
        self.ssns.clear();
        self.cards.clear();
        self.passwords.clear();
        self.usernames.clear();
        self.family_block.clear();
        self.family_inline.clear();
        self.last = [None; 6];
        self.card_run = 0;
        self.in_family_block = false;
        self.phone_next = 0;
    }

    /// The digit at byte `at` of `bytes`: where a run of digits ends, the
    /// only two places in it a phone shape can start. `ddd-` and `ddd.`
    /// start 3 digits before the run's end; the country prefix (`1-`,
    /// `1 `) is the run's last digit. Trying those two, in order, finds the
    /// matches trying every byte would.
    #[inline]
    pub fn digit(&mut self, bytes: &[u8], at: usize) {
        if bytes.get(at + 1).is_some_and(u8::is_ascii_digit) {
            return;
        }
        if let Some(start) = at.checked_sub(2) {
            self.phone(bytes, start);
        }
        if bytes[at] == b'1' {
            self.phone(bytes, at);
        }
    }

    /// A phone shape may start at byte `at`; after a match, shapes are
    /// tried again only past it.
    pub fn phone(&mut self, bytes: &[u8], at: usize) {
        if at < self.phone_next {
            return;
        }
        if let Some((len, number)) = phone_at(&bytes[at..]) {
            self.phones.push(number);
            self.phone_next = at + len;
        }
    }

    /// One whitespace-delimited word: card groups, SSNs, IPv4 literals and
    /// emails.
    #[inline]
    pub fn word(&mut self, text: &str, word: Word) {
        if word.any(DIGIT | AT) {
            self.shaped_word(text, word);
        } else {
            self.card_run = 0;
        }
    }

    /// A word with a digit or an `@`.
    fn shaped_word(&mut self, text: &str, word: Word) {
        let w = word.get(text);
        if w.len() == 4 && word.all(DIGIT) {
            let group = w.bytes().fold(0, |n, b| n * 10 + u64::from(b - b'0'));
            self.card_run += 1;
            if self.card_run >= 4 {
                let [a, b, c] = self.card_groups;
                self.cards
                    .push(((a * 10_000 + b) * 10_000 + c) * 10_000 + group);
            }
            self.card_groups = [self.card_groups[1], self.card_groups[2], group];
        } else {
            self.card_run = 0;
            if let Some(card) = dashed_card(w) {
                self.cards.push(card);
            }
        }
        if word.any(DIGIT) {
            if word.any(DASH) && w.len() >= 11 {
                if let Some(ssn) = ssn_in(w) {
                    self.ssns.push(Span::of(text, ssn));
                }
            }
            if word.any(DOT) && w.len() >= 7 {
                self.ips.extend(ipv4_literals(w).map(|(_, ip)| ip));
            }
        }
        if word.any(AT) {
            self.emails
                .extend(email_tokens(w).map(|t| Span::of(text, t)));
        }
    }

    /// A labeled line whose label selects `rule`.
    pub fn labeled(&mut self, text: &str, rule: FieldLabel, values: LineValues<'_>) {
        match rule {
            FieldLabel::Single(k) => {
                // A separator line with no values is not a labeled line.
                if values.any() {
                    self.last[k] = Some((Span::of(text, values.rest), values.shape));
                }
            }
            FieldLabel::Password => self
                .passwords
                .extend(values.iter().map(|v| Span::of(text, v))),
            FieldLabel::Alias => self
                .usernames
                .extend(values.iter().map(|v| Span::of(text, v))),
            FieldLabel::Family => {
                for value in values.iter() {
                    if let Some(open) = value.rfind('(') {
                        let name = value[..open].trim();
                        let rel = value[open + 1..].trim_end_matches(')').trim();
                        if let Some(r) = relation(rel).filter(|_| !name.is_empty()) {
                            self.family_inline.push((r, Span::of(text, name)));
                        }
                    }
                }
            }
        }
    }

    /// The block form of family mentions: `trimmed` is the trimmed line and
    /// `colon` its first `:`. A `Family:` line opens the block; each
    /// `relation: name` line under it stays in it.
    pub fn family_line(&mut self, text: &str, trimmed: Span, colon: Option<usize>) {
        if trimmed.get(text).eq_ignore_ascii_case("family:") {
            self.in_family_block = true;
            return;
        }
        if !self.in_family_block {
            return;
        }
        if let Some(colon) = colon {
            let rel = text[trimmed.start..colon].trim();
            if let Some(r) = relation(rel) {
                let name = text[colon + 1..trimmed.end].trim();
                self.family_block.push((r, Span::of(text, name)));
                return;
            }
        }
        self.in_family_block = false;
    }

    /// The fields of the scanned document, each value copied out once.
    pub fn finish(&mut self, text: &str) -> ExtractedFields {
        let mut out = ExtractedFields::default();
        let last = self.last;
        if let Some(name) = joined(text, last[NAME], &mut self.joined) {
            let mut words = name.split_whitespace();
            out.first_name = words.next().map(capitalize);
            out.last_name = words.next().map(capitalize);
        }
        if let Some(age) = joined(text, last[AGE], &mut self.joined) {
            out.age = age.parse::<u8>().ok().filter(|a| (5..=120).contains(a));
        }
        if let Some(dob) = joined(text, last[DOB], &mut self.joined) {
            out.dob = parse_dob(dob);
        }
        if let Some(address) = joined(text, last[ADDRESS], &mut self.joined) {
            out.zip = trailing_zip(address);
            out.address = Some(address.to_owned());
        }
        out.school = joined(text, last[SCHOOL], &mut self.joined).map(str::to_owned);
        out.isp = joined(text, last[ISP], &mut self.joined).map(str::to_owned);

        self.phones.sort_unstable();
        self.phones.dedup();
        out.phones = self.phones.iter().map(|&n| decimal(n, 10)).collect();
        self.emails
            .sort_unstable_by(|a, b| lower_cmp(a.get(text), b.get(text)));
        self.emails
            .dedup_by(|a, b| lower_cmp(a.get(text), b.get(text)).is_eq());
        out.emails = self.emails.iter().map(|e| lowercase(e.get(text))).collect();
        out.ips = self.ips.to_vec();
        self.ssns.sort_unstable_by_key(|s| s.get(text));
        self.ssns.dedup_by_key(|s| s.get(text));
        out.ssns = owned(text, &self.ssns);
        self.cards.sort_unstable();
        self.cards.dedup();
        out.credit_cards = self.cards.iter().map(|&n| decimal(n, 16)).collect();
        out.passwords = owned(text, &self.passwords);
        out.usernames = owned(text, &self.usernames);
        out.family = self
            .family_block
            .iter()
            .chain(&self.family_inline)
            .map(|&(r, name)| (RELATIONS[r].to_owned(), name.get(text).to_owned()))
            .collect();
        out
    }
}

/// The values of a recorded labeled line joined with `", "`: the value
/// itself when there is one, else joined into `buf`.
fn joined<'a>(
    text: &'a str,
    line: Option<(Span, LineShape)>,
    buf: &'a mut String,
) -> Option<&'a str> {
    let (rest, shape) = line?;
    let values = LineValues {
        rest: rest.get(text),
        shape,
    };
    if let Some(value) = values.single() {
        return Some(value);
    }
    values.join_into(buf);
    Some(buf.as_str())
}

/// The spans' text, copied.
fn owned(text: &str, spans: &[Span]) -> Vec<String> {
    spans.iter().map(|s| s.get(text).to_owned()).collect()
}

/// `n` as exactly `width` decimal digits (leading zeros kept).
fn decimal(mut n: u64, width: usize) -> String {
    let mut digits = vec![b'0'; width];
    for d in digits.iter_mut().rev() {
        *d = b'0' + (n % 10) as u8;
        n /= 10;
    }
    String::from_utf8(digits).unwrap_or_default()
}

/// The index in [`RELATIONS`] of `rel` lowercased.
fn relation(rel: &str) -> Option<usize> {
    const KEYS: [Folded; RELATIONS.len()] = {
        let mut keys = [Folded::of_lowercase_ascii(""); RELATIONS.len()];
        let mut k = 0;
        while k < RELATIONS.len() {
            keys[k] = Folded::of_lowercase_ascii(RELATIONS[k]);
            k += 1;
        }
        keys
    };
    let rel = fold(rel)?;
    KEYS.iter().position(|&k| k == rel)
}

fn capitalize(w: &str) -> String {
    let mut c = w.chars();
    let Some(first) = c.next() else {
        return String::new();
    };
    let rest = c.as_str();
    if first.is_ascii() {
        let mut out = String::with_capacity(w.len());
        out.push(first.to_ascii_uppercase());
        out.push_str(rest);
        return out;
    }
    let upper = first.to_uppercase();
    let len = upper.clone().map(char::len_utf8).sum::<usize>() + rest.len();
    let mut out = String::with_capacity(len);
    out.extend(upper);
    out.push_str(rest);
    out
}

/// The email-shaped tokens of one word: the word split at `,`, `;`, `(`
/// and `)`, each piece trimmed of non-alphanumeric chars, kept when it
/// has a non-empty local part and a dotted domain of ASCII letters,
/// digits and `-`.
fn email_tokens(word: &str) -> impl Iterator<Item = &str> {
    word.split([',', ';', '(', ')']).filter_map(|token| {
        let token = token.trim_matches(|c: char| !c.is_alphanumeric());
        let (local, domain) = token.split_once('@')?;
        let domain_ok = domain.contains('.')
            && domain.split('.').all(|p| {
                !p.is_empty() && p.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'-')
            });
        (!local.is_empty() && domain_ok).then_some(token)
    })
}

/// The SSN a word holds: the word trimmed of non-digits is `ddd-dd-dddd`.
fn ssn_in(word: &str) -> Option<&str> {
    // Trimming non-digit bytes trims whole chars: no byte of a longer char
    // is an ASCII digit.
    let b = word.as_bytes();
    let start = b.iter().position(u8::is_ascii_digit)?;
    let end = b.iter().rposition(u8::is_ascii_digit)? + 1;
    let w = &word[start..end];
    let shaped = w.len() == 11
        && w.bytes().enumerate().all(|(k, b)| match k {
            3 | 6 => b == b'-',
            _ => b.is_ascii_digit(),
        });
    shaped.then_some(w)
}

/// A word that is exactly `dddd-dddd-dddd-dddd`, as its 16-digit number.
fn dashed_card(word: &str) -> Option<u64> {
    let b = word.as_bytes();
    if b.len() != 19 {
        return None;
    }
    b.iter().enumerate().try_fold(0u64, |n, (k, &c)| match k {
        4 | 9 | 14 => (c == b'-').then_some(n),
        _ => c.is_ascii_digit().then(|| n * 10 + u64::from(c - b'0')),
    })
}

/// Try to match a phone shape at the start of `s`; returns
/// `(matched_len, ten_digit_number)`.
#[inline]
fn phone_at(s: &[u8]) -> Option<(usize, u64)> {
    // Optional "1-" / "1 " country prefix.
    let prefix = if s.starts_with(b"1-") || s.starts_with(b"1 ") {
        2
    } else {
        0
    };
    let r = &s[prefix..];
    let (area_at, mid_at) = if r.first() == Some(&b'(') {
        // Shape A: (ddd) ddd-dddd (space after the area code optional).
        if r.get(4) != Some(&b')') {
            return None;
        }
        (1, if r.get(5) == Some(&b' ') { 6 } else { 5 })
    } else {
        // Shape B: ddd<sep>ddd<sep>dddd with sep in {-, .}.
        if !matches!(r.get(3), Some(b'-' | b'.')) {
            return None;
        }
        (0, 4)
    };
    let area = digits(r, area_at, 3)?;
    let mid = digits(r, mid_at, 3)?;
    let sep = mid_at + 3;
    if !matches!(r.get(sep), Some(b'-' | b'.')) {
        return None;
    }
    let last = digits(r, sep + 1, 4)?;
    // A phone match must not be followed by further digits (they would
    // make it part of a longer number, e.g. a credit card).
    let end = sep + 5;
    if r.get(end).is_some_and(u8::is_ascii_digit) {
        return None;
    }
    Some((prefix + end, (area * 1_000 + mid) * 10_000 + last))
}

/// The `n` bytes of `s` at `at` as a number, if they are all digits.
fn digits(s: &[u8], at: usize, n: usize) -> Option<u64> {
    s.get(at..at + n)?.iter().try_fold(0u64, |acc, &b| {
        b.is_ascii_digit().then(|| acc * 10 + u64::from(b - b'0'))
    })
}

/// DOB formats: `mm/dd/yyyy` or `yyyy-mm-dd`.
pub fn parse_dob(raw: &str) -> Option<(u16, u8, u8)> {
    let t = raw.trim();
    if let Some((m, rest)) = t.split_once('/') {
        let (d, y) = rest.split_once('/')?;
        let (m, d, y) = (m.parse().ok()?, d.parse().ok()?, y.parse().ok()?);
        return valid_date(y, m, d).then_some((y, m, d));
    }
    let mut it = t.split('-');
    let y: u16 = it.next()?.parse().ok()?;
    let m: u8 = it.next()?.parse().ok()?;
    let d: u8 = it.next()?.parse().ok()?;
    valid_date(y, m, d).then_some((y, m, d))
}

fn valid_date(y: u16, m: u8, d: u8) -> bool {
    (1900..=2020).contains(&y) && (1..=12).contains(&m) && (1..=31).contains(&d)
}

/// Trailing 5-digit zip on an address line.
pub fn trailing_zip(address: &str) -> Option<u32> {
    let last = address.split_whitespace().last()?;
    let trimmed = last.trim_matches(|c: char| !c.is_ascii_digit());
    if trimmed.len() == 5 {
        trimmed.parse().ok()
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fields(text: &str) -> ExtractedFields {
        extract_fields(text)
    }

    const SAMPLE: &str = "\
Name: Jaren Thornvik
Age: 19
DOB: 04/12/1997
Address: 1210 Maple Street, Brackford, NK 10234
Phone: (312) 555-0188
Email: jaren_t@mailbox.example
IP: 73.54.12.9
ISP: Norvik Telecom
School: Riverview High School
Password: hunter4422
SSN: 912-34-5678
CC: 9999 1234 5678 9012
Family:
  mother: Maren Thornvik
  brother: Kolten Thornvik
Known aliases: xX_jaren_Xx, jaren99
";

    #[test]
    fn full_labeled_dox_extracts_everything() {
        let f = fields(SAMPLE);
        assert_eq!(f.first_name.as_deref(), Some("Jaren"));
        assert_eq!(f.last_name.as_deref(), Some("Thornvik"));
        assert_eq!(f.age, Some(19));
        assert_eq!(f.dob, Some((1997, 4, 12)));
        assert_eq!(f.phones, vec!["3125550188"]);
        assert_eq!(f.emails, vec!["jaren_t@mailbox.example"]);
        assert_eq!(f.ips, vec!["73.54.12.9".parse::<Ipv4Addr>().unwrap()]);
        assert!(f.address.as_deref().unwrap().contains("Maple Street"));
        assert_eq!(f.zip, Some(10234));
        assert_eq!(f.ssns, vec!["912-34-5678"]);
        assert_eq!(f.credit_cards, vec!["9999123456789012"]);
        assert!(f.school.as_deref().unwrap().contains("Riverview"));
        assert!(f.isp.as_deref().unwrap().contains("Norvik"));
        assert_eq!(f.passwords, vec!["hunter4422"]);
        assert_eq!(f.family.len(), 2);
        assert_eq!(f.family[0].0, "mother");
        assert_eq!(f.usernames, vec!["xX_jaren_Xx", "jaren99"]);
    }

    #[test]
    fn inline_family_form() {
        let f = fields("family; Maren Berg (mother) - Tomas Berg (brother)");
        assert_eq!(f.family.len(), 2);
        assert_eq!(f.family[1], ("brother".into(), "Tomas Berg".into()));
    }

    #[test]
    fn phone_formats() {
        assert_eq!(extract_phones("call 312-555-0188 now"), vec!["3125550188"]);
        assert_eq!(extract_phones("(312) 555-0188"), vec!["3125550188"]);
        assert_eq!(extract_phones("1-312-555-0188"), vec!["3125550188"]);
        // Bare digit runs are not phones.
        assert!(extract_phones("id 3125550188 in the db").is_empty());
    }

    #[test]
    fn email_edge_cases() {
        assert_eq!(
            extract_emails("mail: A.B@Inbox.Example!"),
            vec!["a.b@inbox.example"]
        );
        assert!(extract_emails("not@domain").is_empty());
        assert!(extract_emails("@nothing.example").is_empty());
        assert!(extract_emails("plain text").is_empty());
    }

    #[test]
    fn emails_lowercase_and_dedup_as_str_to_lowercase_does() {
        // A final `Σ` lowers to `ς`, so both spellings are one address.
        assert_eq!(extract_emails("ΣΣ@x.com σς@x.com"), vec!["σς@x.com"]);
        assert_eq!(extract_emails("Ü@x.de ü@x.de"), vec!["ü@x.de"]);
    }

    #[test]
    fn ssn_shape_only() {
        assert_eq!(extract_ssns("ssn 912-34-5678 ok"), vec!["912-34-5678"]);
        assert!(
            extract_ssns("phone 312-555-0188").is_empty(),
            "wrong grouping"
        );
        assert!(extract_ssns("date 2016-08-01").is_empty());
    }

    #[test]
    fn cc_dashed_form() {
        assert_eq!(
            extract_credit_cards("card 9999-1234-5678-9012 exp"),
            vec!["9999123456789012"]
        );
    }

    #[test]
    fn dob_iso_form() {
        assert_eq!(parse_dob("1997-04-12"), Some((1997, 4, 12)));
        assert_eq!(parse_dob("13/40/1997"), None);
        assert_eq!(parse_dob("garbage"), None);
    }

    #[test]
    fn age_bounds() {
        assert_eq!(fields("Age: 200").age, None);
        assert_eq!(fields("Age: 3").age, None);
        assert_eq!(fields("Age: 74").age, Some(74));
    }

    #[test]
    fn zip_requires_five_digits() {
        assert_eq!(trailing_zip("12 Main St, Town, ST 10234"), Some(10234));
        assert_eq!(trailing_zip("12 Main St, Town, ST 1023"), None);
        assert_eq!(trailing_zip(""), None);
    }

    #[test]
    fn sloppy_narrative_extracts_partially() {
        let text = "say hi to Jaren Thornvik everyone. 19 years old living at \
                    1210 Maple Street, Brackford, NK 10234. connects from 73.54.12.9";
        let f = fields(text);
        // IPs are found anywhere; labeled fields are not.
        assert_eq!(f.ips.len(), 1);
        assert_eq!(f.first_name, None, "narrative names need labels");
        assert_eq!(f.age, None);
    }

    #[test]
    fn empty_input() {
        assert_eq!(fields(""), ExtractedFields::default());
    }
}
