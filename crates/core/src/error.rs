//! Typed errors for the study driver and report serialization.
//!
//! Fallible entry points ([`Study::run`](crate::study::Study::run),
//! [`Engine::from_config`](dox_engine::Engine::from_config), report
//! serialization) return [`Error`] instead of panicking, so binaries and
//! services embedding the reproduction can surface failures without
//! aborting the process.

use dox_engine::EngineError;
use dox_osn::scraper::ScrapeError;

/// Everything that can go wrong driving a study end to end.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// The ingest engine rejected its configuration or failed mid-stream.
    Engine(EngineError),
    /// The training corpus violated an invariant — e.g. a proof-of-work
    /// positive the generator failed to label as a dox.
    Training(String),
    /// A report failed to serialize.
    Serialize(serde_json::Error),
    /// A scrape request failed in a way monitoring could not absorb.
    Scrape(ScrapeError),
    /// The run was deliberately halted mid-ingest by the fault plan's
    /// kill switch (chaos testing); resume from the last checkpoint.
    Halted {
        /// Collected documents ingested before the halt.
        docs_ingested: u64,
    },
    /// A checkpoint could not be loaded, validated, or written.
    Checkpoint(String),
    /// The configuration cannot be hosted as a resident service session
    /// — e.g. a fault plan, which service-mode report replay cannot
    /// reproduce deterministically.
    ServiceMode(String),
}

/// Convenience alias used by the fallible `dox-core` entry points.
pub type Result<T> = std::result::Result<T, Error>;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Engine(e) => write!(f, "ingest engine error: {e}"),
            Error::Training(why) => write!(f, "training corpus invariant violated: {why}"),
            Error::Serialize(e) => write!(f, "report serialization failed: {e}"),
            Error::Scrape(e) => write!(f, "scrape failed: {e}"),
            Error::Halted { docs_ingested } => write!(
                f,
                "run halted by the fault plan's kill switch after {docs_ingested} documents"
            ),
            Error::Checkpoint(why) => write!(f, "checkpoint error: {why}"),
            Error::ServiceMode(why) => write!(f, "service mode rejected the config: {why}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Engine(e) => Some(e),
            Error::Serialize(e) => Some(e),
            Error::Scrape(e) => Some(e),
            Error::Training(_) | Error::Halted { .. } | Error::Checkpoint(_) => None,
            Error::ServiceMode(_) => None,
        }
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<ScrapeError> for Error {
    fn from(e: ScrapeError) -> Self {
        Error::Scrape(e)
    }
}

impl From<serde_json::Error> for Error {
    fn from(e: serde_json::Error) -> Self {
        Error::Serialize(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_errors_convert_and_display() {
        let err = Error::from(EngineError::ZeroWorkers);
        assert!(matches!(err, Error::Engine(EngineError::ZeroWorkers)));
        assert!(err.to_string().contains("worker"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn scrape_errors_convert_and_chain() {
        let err = Error::from(ScrapeError::RateLimited {
            retry_at: dox_osn::clock::SimTime(99),
        });
        assert!(err.to_string().contains("rate limited"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn halted_and_checkpoint_errors_render_context() {
        let halted = Error::Halted { docs_ingested: 42 };
        assert!(halted.to_string().contains("42"));
        assert!(std::error::Error::source(&halted).is_none());
        let ck = Error::Checkpoint("fingerprint mismatch".into());
        assert!(ck.to_string().contains("fingerprint mismatch"));
    }

    #[test]
    fn service_mode_errors_render_context() {
        let err = Error::ServiceMode("fault plans are not supported".into());
        assert!(err.to_string().contains("fault plans"));
        assert!(std::error::Error::source(&err).is_none());
    }

    #[test]
    fn training_errors_carry_context() {
        let err = Error::Training("PoW doc 12 not labeled dox".into());
        assert!(err.to_string().contains("PoW doc 12"));
        assert!(std::error::Error::source(&err).is_none());
    }
}
