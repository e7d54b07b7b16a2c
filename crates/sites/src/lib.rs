//! # dox-sites
//!
//! Simulated text-sharing sites — the collection substrate (paper §3.1.1).
//!
//! The original study scraped every paste posted to pastebin.com (via the
//! paid scraping API) and every posting on 4chan `/b/`,`/pol/` and 8ch
//! `/pol/`,`/baphomet/`. This crate stands in for those services:
//!
//! - [`hub`] — [`hub::SiteHub`]: the five sites, ingesting the synthetic
//!   document stream: per-site posting counts, and the pastebin's
//!   deletion tally.
//! - [`pastebin`] — the pastebin-like service: the Table 3 deletion
//!   survey, tallied as each paste is posted, with no per-paste archive.
//! - [`collect`] — the collection client: merges the sites' feeds into one
//!   chronological stream of [`collect::CollectedDoc`]s with per-source
//!   counters (Figure 1's input volumes).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod collect;
pub mod hub;
pub mod pastebin;

pub use collect::{CollectedDoc, Collector};
pub use hub::SiteHub;
