//! Numbers and case-folded names appended to generated text without
//! `core::fmt`.
//!
//! Every renderer in this crate builds its text with `push_str`; these
//! helpers write the bytes `format!` (or `to_lowercase`/`to_uppercase`)
//! wrote for the same values, so the stream stays byte-identical while
//! skipping the formatter's machinery and the temporary strings.

use std::net::Ipv4Addr;

/// The numbers 0..100 as two digits each ("00", "01", ..., "99").
const PAIRS: &str = "\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// `n` (below 100) as two digits.
fn pair(n: u64) -> &'static str {
    let at = 2 * n as usize;
    &PAIRS[at..at + 2]
}

/// Append `n` in decimal, zero-padded to at least `width` digits: the
/// bytes `format!("{n:0width$}")` writes.
pub(crate) fn push_decimal(out: &mut String, n: impl Into<u64>, width: usize) {
    let n = n.into();
    if width == 2 && n < 100 {
        out.push_str(pair(n));
        return;
    }
    if width > 1 {
        let digits = n.checked_ilog10().unwrap_or(0) as usize + 1;
        for _ in digits..width {
            out.push('0');
        }
    }
    push_digits(out, n);
}

/// `n` in decimal, two digits per push after the leading one or two.
fn push_digits(out: &mut String, n: u64) {
    if n >= 100 {
        push_digits(out, n / 100);
        out.push_str(pair(n % 100));
    } else if n >= 10 {
        out.push_str(pair(n));
    } else {
        out.push(char::from(b'0' + n as u8));
    }
}

/// Append `ip` as its `Display` impl writes it (`a.b.c.d`).
pub(crate) fn push_ipv4(out: &mut String, ip: Ipv4Addr) {
    let [a, b, c, d] = ip.octets();
    push_digits(out, a.into());
    for octet in [b, c, d] {
        out.push('.');
        push_digits(out, octet.into());
    }
}

/// Append `s` lower-cased: the bytes `s.to_lowercase()` gives.
pub(crate) fn push_lowercase(out: &mut String, s: &str) {
    let start = out.len();
    out.push_str(s);
    lowercase_from(out, start);
}

/// Lower-case what `out` holds from byte `start` on, in place for ASCII:
/// the bytes `out[start..].to_lowercase()` gives.
pub(crate) fn lowercase_from(out: &mut String, start: usize) {
    let tail = &mut out[start..];
    if tail.is_ascii() {
        tail.make_ascii_lowercase();
    } else {
        let lower = tail.to_lowercase();
        out.truncate(start);
        out.push_str(&lower);
    }
}

/// Append `s` upper-cased: the bytes `s.to_uppercase()` gives.
pub(crate) fn push_uppercase(out: &mut String, s: &str) {
    if s.is_ascii() {
        let start = out.len();
        out.push_str(s);
        out[start..].make_ascii_uppercase();
    } else {
        out.push_str(&s.to_uppercase());
    }
}

/// Append `n` in lower-case hex, zero-padded to 8 digits: `format!("{n:08x}")`.
pub(crate) fn push_hex8(out: &mut String, n: u32) {
    for shift in (0..8).rev().map(|nibble| 4 * nibble) {
        out.push(char::from(b"0123456789abcdef"[(n >> shift) as usize & 0xf]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decimals_match_format() {
        let values = (0..1200u64)
            .chain([9_999, 10_000, 99_999_999, u64::from(u32::MAX), u64::MAX])
            .chain((0..64).map(|b| 1u64 << b))
            .chain((1..20).flat_map(|p| [10u64.pow(p) - 1, 10u64.pow(p)]));
        for n in values {
            for width in 0..=24 {
                let mut out = String::from("x");
                push_decimal(&mut out, n, width);
                assert_eq!(out, format!("x{n:0width$}"), "{n} width {width}");
            }
        }
    }

    #[test]
    fn ipv4_matches_display() {
        for octets in [
            [0, 0, 0, 0],
            [255, 255, 255, 255],
            [10, 0, 9, 99],
            [1, 22, 133, 4],
        ] {
            let ip = Ipv4Addr::from(octets);
            let mut out = String::new();
            push_ipv4(&mut out, ip);
            assert_eq!(out, ip.to_string());
        }
    }

    #[test]
    fn lowercase_matches_to_lowercase() {
        for s in [
            "",
            "Jaren",
            "THORNVIK",
            "already lower",
            "Ærøskøbing",
            "İstanbul",
            "ẞ",
        ] {
            let mut out = String::from("X");
            push_lowercase(&mut out, s);
            assert_eq!(out, format!("X{}", s.to_lowercase()));
        }
    }

    #[test]
    fn lowercase_from_matches_to_lowercase() {
        for s in ["Jaren Thornvik", "ΟΔΥΣ ΣΑΣ", "İstanbul Ok", ""] {
            let mut out = String::from("KEEP ");
            out.push_str(s);
            lowercase_from(&mut out, 5);
            assert_eq!(out, format!("KEEP {}", s.to_lowercase()));
        }
    }

    #[test]
    fn uppercase_matches_to_uppercase() {
        for s in ["", "fb", "google+", "face book", "straße", "ǆ"] {
            let mut out = String::from("x");
            push_uppercase(&mut out, s);
            assert_eq!(out, format!("x{}", s.to_uppercase()));
        }
    }

    #[test]
    fn hex8_matches_format() {
        for n in [
            0,
            1,
            0xf,
            0x10,
            0xdead_beef,
            0x0abc_0000,
            u32::MAX - 1,
            u32::MAX,
        ] {
            let mut out = String::new();
            push_hex8(&mut out, n);
            assert_eq!(out, format!("{n:08x}"));
        }
    }
}
