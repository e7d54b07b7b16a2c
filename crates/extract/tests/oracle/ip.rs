//! IPv4 literal search as `dox_geo::ip::find_ipv4_literals` did it before
//! that function became one allocation-free pass, copied here so the
//! reference extractor does not depend on the code it checks.

use std::net::Ipv4Addr;

/// Scan `text` for IPv4 dotted-quad literals and return them with byte
/// offsets. Candidate tokens must be exactly four dot-separated decimal
/// octets in `0..=255`; version-like strings (`1.2.3.4.5`) are rejected.
pub fn find_ipv4_literals(text: &str) -> Vec<(usize, Ipv4Addr)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        // Token = maximal run of digits and dots.
        let start = i;
        while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
            i += 1;
        }
        let token = &text[start..i];
        // Reject if embedded in a larger word (e.g. "v1.2.3.4").
        let prev_ok =
            start == 0 || !(bytes[start - 1].is_ascii_alphanumeric() || bytes[start - 1] == b'.');
        if !prev_ok {
            continue;
        }
        let token = token.trim_end_matches('.');
        let parts: Vec<&str> = token.split('.').collect();
        if parts.len() != 4 {
            continue;
        }
        if !parts
            .iter()
            .all(|p| !p.is_empty() && p.len() <= 3 && p.parse::<u16>().is_ok_and(|v| v <= 255))
        {
            continue;
        }
        if let Ok(ip) = token.parse::<Ipv4Addr>() {
            out.push((start, ip));
        }
    }
    out
}
