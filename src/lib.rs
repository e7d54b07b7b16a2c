//! # doxing-repro
//!
//! A full reproduction of *"Fifteen Minutes of Unwanted Fame: Detecting and
//! Characterizing Doxing"* (Snyder, Doerfler, Kanich, McCoy — IMC 2017) as a
//! Rust workspace.
//!
//! This façade crate re-exports every subsystem so that downstream users (and
//! the runnable examples in `examples/`) can depend on a single crate:
//!
//! - [`textkit`] — tokenization, HTML→text, sparse vectors, TF-IDF at
//!   scikit-learn's defaults.
//! - [`ml`] — the paper's SGD linear classifier, evaluation metrics, the
//!   stratified split.
//! - [`geo`] — synthetic geography, geo-IP, postal geocoding, consistency.
//! - [`synth`] — synthetic persona / dox / paste corpus generation.
//! - [`osn`] — simulated online social network platforms and scraping.
//! - [`sites`] — simulated paste sites (pastebin-like, chan-like boards).
//! - [`extract`] — OSN account, sensitive-field and credit extraction.
//! - [`engine`] — the sharded streaming ingest engine.
//! - [`core`] — the end-to-end measurement pipeline, analyses and reports.
//! - [`obs`] — metrics, span timing and structured events (dependency-free).
//! - [`serve`] — the continuous-ingest service daemon and its HTTP API.
//!
//! ## Quickstart
//!
//! ```
//! use doxing_repro::core::prelude::*;
//!
//! // A miniature end-to-end run of the paper's measurement study.
//! let cfg = StudyConfig::test_scale();
//! let report = Study::new(cfg).run().expect("study runs");
//! assert!(report.pipeline.total > 0);
//! ```

pub use dox_core as core;
pub use dox_engine as engine;
pub use dox_extract as extract;
pub use dox_fault as fault;
pub use dox_geo as geo;
pub use dox_ml as ml;
pub use dox_obs as obs;
pub use dox_osn as osn;
pub use dox_serve as serve;
pub use dox_sites as sites;
pub use dox_store as store;
pub use dox_synth as synth;
pub use dox_textkit as textkit;
