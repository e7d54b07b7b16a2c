//! Observability for the doxing-measurement pipeline.
//!
//! Three pieces, all dependency-free and safe to leave enabled in release
//! builds:
//!
//! * **Metrics** — a [`Registry`] of named atomic [`Counter`]s, [`Gauge`]s
//!   and log₂-bucketed [`Histogram`]s. Handles are `Arc`-backed and cheap
//!   to clone, so hot paths resolve them once and update lock-free.
//! * **Spans** — [`StageSpan`] is an RAII timer that records its elapsed
//!   wall-clock time into a histogram of the [`Registry`] it is handed,
//!   so callers instrument against their own registry rather than a
//!   process-global. A default process [`global`] registry exists for
//!   the common case.
//! * **Events** — a ring-buffered structured [`EventLog`] (level, target,
//!   message, key/value fields) that replaces scattered `eprintln!` calls.
//!   Echoing to stderr is a runtime toggle, so `--quiet` is one call.
//! * **Redaction** — [`redact()`] wraps a sensitive string so only its
//!   length and a stable fingerprint can reach a sink; `dox-lint`'s
//!   `pii-taint` dataflow rule enforces that document content goes
//!   through it.
//! * **Traces** — [`Tracer`] follows sampled documents hop by hop
//!   through the pipeline with seeded ids and sim-clock timestamps, so
//!   the exported JSONL is byte-identical for a given
//!   `(config, seed, sampling)` at any worker/shard topology.
//! * **HTTP** — [`http`] is a minimal HTTP/1.1 substrate (router with
//!   `:param` captures, bounded worker pool, keep-alive, body limits)
//!   shared by the telemetry endpoint and the `dox-serve` daemon.
//! * **Telemetry** — [`Telemetry`] serves the live snapshot, rolling
//!   per-stage docs/s, and recent traces over that server
//!   (`GET /metrics`, `GET /traces`).
//!
//! Metrics observe the computation without participating in it: recording
//! must never change what the pipeline produces. The study stays a pure
//! function of `(config, seed)` whether or not anything reads the
//! registry.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod http;
pub mod metrics;
pub mod redact;
pub mod snapshot;
pub mod span;
pub mod telemetry;
pub mod trace;

pub use event::{Event, EventLog, Level};
pub use http::{HttpServer, Request, Response, Router, ServerConfig};
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram, Registry};
pub use redact::{redact, Redacted};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use span::StageSpan;
pub use telemetry::Telemetry;
pub use trace::{Trace, TraceConfig, TraceHop, Tracer, SAMPLE_ALL};

use std::sync::OnceLock;

/// The default process-wide registry.
///
/// Instrumentation that is not handed an explicit registry records here;
/// `repro --metrics` snapshots it.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Emit a structured event to the [`global`] registry's log.
///
/// ```
/// dox_obs::emit!(dox_obs::Level::Info, "repro", "study completed",
///                elapsed_ms = 12, scale = 0.05);
/// ```
#[macro_export]
macro_rules! emit {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::global().events().emit(
            $level,
            $target,
            $msg,
            vec![$((stringify!($key).to_string(), format!("{}", $value))),*],
        )
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_registry_is_shared() {
        global().counter("test.obs.global").add(2);
        global().counter("test.obs.global").add(3);
        assert_eq!(global().counter("test.obs.global").get(), 5);
    }

    #[test]
    fn emit_macro_records_fields() {
        emit!(
            Level::Warn,
            "test",
            "something odd",
            code = 7,
            where_ = "here"
        );
        let events = global().events().recent();
        let e = events
            .iter()
            .rev()
            .find(|e| e.target == "test")
            .expect("event recorded");
        assert_eq!(e.level, Level::Warn);
        assert_eq!(e.message, "something odd");
        assert!(e.fields.contains(&("code".to_string(), "7".to_string())));
    }
}
