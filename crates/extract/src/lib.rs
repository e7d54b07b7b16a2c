//! # dox-extract
//!
//! Semi-structured extraction from dox files (paper §3.1.3).
//!
//! Dox files are "semi-structured": easy for humans, nontrivial for
//! programs. The paper hand-labeled 125 dox files, then built an extractor
//! mixing statistical and heuristic approaches, evaluating per-field
//! accuracy (Table 2). This crate implements that extractor:
//!
//! - [`lines`] — the line-level grammar: `label: value`, `label; v1 - v2`,
//!   `LABEL value`, multi-value separators ("a - b", "a and b", commas).
//! - `scan` — the one pass over a document's bytes that applies every
//!   rule below and allocates only what the returned record keeps.
//! - [`osn`] — social-network account extraction: profile-URL patterns,
//!   label aliases ("FB", "fbs", "insta", …), handle validation.
//! - [`fields`] — sensitive-field extractors: names, age, date of birth,
//!   phone numbers, emails, IPs, addresses and zip codes, SSNs, credit
//!   cards, schools, ISPs, passwords, family members.
//! - [`credits`] — doxer-credit parsing ("dropped by A and @B, thanks to
//!   C (@c)") feeding the Figure 2 network analysis.
//! - [`record`] — [`record::ExtractedDox`], the aggregate of everything
//!   extracted from one document.
//! - [`accuracy`] — the Table 2 evaluation protocol: per-field extractor
//!   accuracy against hand labels (ground truth).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod accuracy;
pub mod credits;
pub mod fields;
pub mod lines;
pub mod osn;
pub mod record;
mod scan;

pub use record::{extract, ExtractedDox};
