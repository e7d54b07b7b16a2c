//! Sensitive-field extractors.
//!
//! One function per Table 2 / Table 6 category. Extractors are heuristic by
//! design — the paper's extractor has per-field accuracies between 58.4 %
//! (phone) and 95.2 % (Instagram) — and operate on the plain-text form of a
//! document (chan HTML is converted upstream).

use super::ip::find_ipv4_literals;
use super::lines::{parse_lines, LabeledLine};
use dox_extract::fields::{ExtractedFields, FamilyRef};

/// Label aliases per field, lowercased.
const NAME_LABELS: &[&str] = &["name", "real name", "full name"];
const AGE_LABELS: &[&str] = &["age"];
const DOB_LABELS: &[&str] = &["dob", "date of birth", "birthday"];
// Phone numbers are matched by shape anywhere in the text (see
// `match_phone_at`), so no label list is needed for them.
const ADDRESS_LABELS: &[&str] = &["address", "addy", "addr", "home address"];
const SCHOOL_LABELS: &[&str] = &["school", "college", "university"];
const ISP_LABELS: &[&str] = &["isp", "provider", "carrier"];
const PASSWORD_LABELS: &[&str] = &["password", "pass", "pw", "passwords"];
const ALIAS_LABELS: &[&str] = &["known aliases", "aliases", "usernames", "alias"];

/// Run every field extractor over `text`.
pub fn extract_fields(text: &str) -> ExtractedFields {
    let lines = parse_lines(text);
    let mut out = ExtractedFields {
        ips: find_ipv4_literals(text)
            .into_iter()
            .map(|(_, ip)| ip)
            .collect(),
        emails: extract_emails(text),
        ssns: extract_ssns(text),
        credit_cards: extract_credit_cards(text),
        phones: extract_phones(text),
        ..ExtractedFields::default()
    };

    for line in &lines {
        let label = line.label.as_str();
        let joined = line.values.join(", ");
        if NAME_LABELS.contains(&label) {
            let mut words = joined.split_whitespace();
            out.first_name = words.next().map(capitalize);
            out.last_name = words.next().map(capitalize);
        } else if AGE_LABELS.contains(&label) {
            out.age = joined
                .trim()
                .parse::<u8>()
                .ok()
                .filter(|&a| (5..=120).contains(&a));
        } else if DOB_LABELS.contains(&label) {
            out.dob = parse_dob(&joined);
        } else if ADDRESS_LABELS.contains(&label) {
            out.address = Some(joined.clone());
            out.zip = trailing_zip(&joined);
        } else if SCHOOL_LABELS.contains(&label) {
            out.school = Some(joined.clone());
        } else if ISP_LABELS.contains(&label) {
            out.isp = Some(joined.clone());
        } else if PASSWORD_LABELS.contains(&label) {
            out.passwords.extend(line.values.iter().cloned());
        } else if ALIAS_LABELS.contains(&label) {
            out.usernames.extend(line.values.iter().cloned());
        }
    }

    out.family = extract_family(text, &lines);
    out
}

fn capitalize(w: &str) -> String {
    let mut c = w.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => String::new(),
    }
}

/// Emails: tokens containing `@` with a dotted domain.
pub fn extract_emails(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for token in text.split(|c: char| c.is_whitespace() || matches!(c, ',' | ';' | '(' | ')')) {
        let token = token.trim_matches(|c: char| !c.is_alphanumeric());
        let Some((local, domain)) = token.split_once('@') else {
            continue;
        };
        if local.is_empty() || !domain.contains('.') {
            continue;
        }
        if domain
            .split('.')
            .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'))
        {
            out.push(token.to_lowercase());
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Phones: `(ddd) ddd-dddd`, `ddd-ddd-dddd`, `ddd.ddd.dddd`, optionally
/// prefixed `1-`/`1 `; returns canonical 10-digit strings. Shapes are
/// matched explicitly so SSNs (`ddd-dd-dddd`) and longer id numbers never
/// collide, and matching never crosses line boundaries.
pub fn extract_phones(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let mut i = 0;
        while i < line.len() {
            if let Some((len, digits)) = match_phone_at(&line[i..]) {
                out.push(digits);
                i += len;
            } else {
                i += line[i..].chars().next().map_or(1, char::len_utf8);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Try to match a phone shape at the start of `s`; returns
/// `(matched_len, canonical_digits)`.
fn match_phone_at(s: &str) -> Option<(usize, String)> {
    // Optional "1-" / "1 " country prefix.
    let (prefix_len, rest) = if let Some(r) = s.strip_prefix("1-").or_else(|| s.strip_prefix("1 "))
    {
        (2usize, r)
    } else {
        (0usize, s)
    };
    // Shape A: (ddd) ddd-dddd (space after the area code optional).
    if let Some(r) = rest.strip_prefix('(') {
        let area = take_digits(r, 3)?;
        let r = r[3..].strip_prefix(')')?;
        let r = r.strip_prefix(' ').unwrap_or(r);
        let mid = take_digits(r, 3)?;
        let r2 = r[3..].strip_prefix(['-', '.'])?;
        let last = take_digits(r2, 4)?;
        reject_digit_tail(&r2[4..])?;
        let consumed = prefix_len + (rest.len() - r2.len()) + 4;
        return Some((consumed, format!("{area}{mid}{last}")));
    }
    // Shape B: ddd<sep>ddd<sep>dddd with sep in {-, .}.
    let area = take_digits(rest, 3)?;
    let r = rest[3..].strip_prefix(['-', '.'])?;
    let mid = take_digits(r, 3)?;
    let r2 = r[3..].strip_prefix(['-', '.'])?;
    let last = take_digits(r2, 4)?;
    reject_digit_tail(&r2[4..])?;
    let consumed = prefix_len + (rest.len() - r2.len()) + 4;
    Some((consumed, format!("{area}{mid}{last}")))
}

/// The first `n` bytes of `s` as digits, if they are all digits.
fn take_digits(s: &str, n: usize) -> Option<String> {
    let b = s.as_bytes();
    if b.len() >= n && b[..n].iter().all(u8::is_ascii_digit) {
        Some(s[..n].to_string())
    } else {
        None
    }
}

/// A phone match must not be followed by further digits (they would make
/// it part of a longer number, e.g. a credit card).
fn reject_digit_tail(tail: &str) -> Option<()> {
    match tail.bytes().next() {
        Some(b) if b.is_ascii_digit() => None,
        _ => Some(()),
    }
}

/// SSN-shaped: `ddd-dd-dddd`.
pub fn extract_ssns(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for word in text.split_whitespace() {
        let w = word.trim_matches(|c: char| !c.is_ascii_digit());
        let parts: Vec<&str> = w.split('-').collect();
        if parts.len() == 3
            && parts[0].len() == 3
            && parts[1].len() == 2
            && parts[2].len() == 4
            && parts.iter().all(|p| p.bytes().all(|b| b.is_ascii_digit()))
        {
            out.push(w.to_string());
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Credit-card-shaped: four groups of four digits (spaces or dashes).
pub fn extract_credit_cards(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let words: Vec<&str> = text.split_whitespace().collect();
    for w in words.windows(4) {
        if w.iter()
            .all(|g| g.len() == 4 && g.bytes().all(|b| b.is_ascii_digit()))
        {
            out.push(w.join(""));
        }
    }
    // Single-token 16-digit groups with dashes.
    for word in &words {
        let groups: Vec<&str> = word.split('-').collect();
        if groups.len() == 4
            && groups
                .iter()
                .all(|g| g.len() == 4 && g.bytes().all(|b| b.is_ascii_digit()))
        {
            out.push(groups.join(""));
        }
    }
    out.sort_unstable();
    out.dedup();
    out
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

/// Family extraction: an indented block under a `Family:` header
/// (`  mother: Jane Doe`), or a `family; Name (relation) - …` line.
fn extract_family(text: &str, lines: &[LabeledLine]) -> Vec<FamilyRef> {
    let mut out = Vec::new();
    const RELATIONS: &[&str] = &[
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
    // Block form.
    let mut in_block = false;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.eq_ignore_ascii_case("family:") {
            in_block = true;
            continue;
        }
        if in_block {
            if let Some((rel, name)) = trimmed.split_once(':') {
                let rel = rel.trim().to_lowercase();
                if RELATIONS.contains(&rel.as_str()) {
                    out.push((rel, name.trim().to_string()));
                    continue;
                }
            }
            in_block = false;
        }
    }
    // Inline form: `family; Jane Berg (mother) - Tom Berg (brother)`.
    for line in lines {
        if line.label != "family" {
            continue;
        }
        for value in &line.values {
            if let Some(open) = value.rfind('(') {
                let name = value[..open].trim();
                let rel = value[open + 1..]
                    .trim_end_matches(')')
                    .trim()
                    .to_lowercase();
                if RELATIONS.contains(&rel.as_str()) && !name.is_empty() {
                    out.push((rel, name.to_string()));
                }
            }
        }
    }
    out
}
