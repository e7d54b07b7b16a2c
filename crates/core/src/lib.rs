//! # dox-core
//!
//! The paper's primary contribution: the end-to-end doxing measurement
//! pipeline (Figure 1), its analyses (Tables 1–10, Figures 2–3, the three
//! validation studies) and the study driver that regenerates every result.
//!
//! Pipeline stages (paper §3.1):
//!
//! 1. **Collection** — `dox-sites` feeds every document posted to the five
//!    monitored sources during the two collection periods.
//! 2. **Classification** — TF-IDF + SGD (`dox-textkit` + `dox-ml`), trained
//!    on proof-of-work positives and random-crawl negatives; chan HTML is
//!    converted with the `html2text` equivalent first.
//! 3. **Extraction** — `dox-extract` pulls OSN accounts, sensitive fields
//!    and doxer credits from every classified dox.
//! 4. **De-duplication** — exact-body matching, then OSN-account-set
//!    identity ([`dedup`]).
//! 5. **Monitoring** — the `dox-osn` scraper probes each referenced account
//!    on the day-0/1/2/3/7/weekly schedule ([`monitor`]).
//!
//! The [`analysis`] modules compute every reported statistic, [`report`]
//! renders them in the paper's table layouts, and [`study`] wires the
//! whole reproduction together as a pure function of `(StudyConfig, seed)`.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod error;
pub mod labeling;
pub mod monitor;
pub mod pipeline;
pub mod report;
pub mod study;
pub mod subtle;
pub mod training;

/// De-duplication (stage four). The implementation moved into
/// `dox-engine` so the streaming engine can shard it; the module is
/// re-exported here so `dox_core::dedup::*` paths keep working.
pub use dox_engine::dedup;

pub use error::{Error, Result};
pub use pipeline::{DetectedDox, Pipeline, PipelineCounters};
pub use study::{Study, StudyConfig};

/// One-stop imports for driving the reproduction.
///
/// ```
/// use dox_core::prelude::*;
///
/// let config = StudyConfig::builder().seed(3).scale(0.005).build();
/// let report = Study::new(config).run().expect("study runs");
/// assert!(report.pipeline.total > 0);
/// ```
pub mod prelude {
    pub use crate::error::{Error, Result};
    pub use crate::report::{full_report, to_json};
    pub use crate::study::{ExperimentReport, Study, StudyConfig, StudyConfigBuilder};
    pub use dox_engine::{Engine, EngineConfig, EngineError, Session, SessionBuilder};
    pub use dox_obs::Registry;
}
