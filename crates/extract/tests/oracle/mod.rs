//! The extractor as it was before extraction moved onto one borrowed
//! parse, kept as the reference the differential properties compare the
//! library against: `parse_lines` runs once per pass into owned values,
//! `url_pass` scans the text once per known host into a `BTreeSet`, and
//! credits search a `to_lowercase()` copy of the text. The record types
//! are the library's, so the two outputs compare with `==`.
//!
//! The credit search slices the original text with offsets found in the
//! lowercased copy, so on text where lowercasing changes a char's UTF-8
//! length it misreads clauses or panics; callers keep such text away.

#![allow(dead_code)]

mod credits;
mod fields;
mod ip;
mod lines;
mod osn;

use dox_extract::ExtractedDox;

/// Run every reference extractor over `text`.
pub fn extract(text: &str) -> ExtractedDox {
    ExtractedDox {
        osn: osn::extract_osn(text),
        fields: fields::extract_fields(text),
        credits: credits::extract_credits(text),
    }
}
