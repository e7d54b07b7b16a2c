//! # dox-serve
//!
//! Service mode for the doxing-measurement reproduction: resident
//! [`dox_engine`] sessions behind an HTTP/JSON API, turning the batch
//! study into a continuous-ingest daemon.
//!
//! The paper's pipeline is a batch experiment — collect two periods,
//! then analyze. A monitoring deployment instead receives documents as
//! they are posted and must answer questions *while ingesting*: has
//! this victim been doxed before, which accounts does a dox reference,
//! what does the funnel look like right now. This crate hosts that
//! shape without giving up the reproduction's determinism contract:
//! a tenant that ingests the study's document stream produces a
//! `/v1/report` byte-identical to [`dox_core::Study::run`].
//!
//! Three layers:
//!
//! * [`tenant`] — one resident session per tenant: a trained detector,
//!   a live engine [`dox_engine::Session`], and the PII-safe query
//!   indexes (victims, accounts, alerts) maintained from committed
//!   detections. Checkpoint/resume wraps the engine's checkpoint barrier.
//! * [`api`] — the route table over [`dox_obs::http`]: tenant CRUD,
//!   batch ingest with per-document verdicts, victim/account lookups,
//!   the cursor-paged alert stream, and the full report. The telemetry
//!   routes (`/metrics`, `/traces`) are mounted on the same port,
//!   alongside `/healthz` (liveness) and `/readyz` (flips unready the
//!   instant a drain begins).
//! * [`quota`] — per-tenant ingest quotas (token-bucket docs/s plus an
//!   in-flight byte cap) answering `429` + `Retry-After` on breach; the
//!   fairness half of the overload policy (DESIGN.md §13).
//! * The `dox-serve` binary — CLI flags, SIGTERM drain (checkpoint
//!   every tenant, then exit), and `--resume` restore.
//!
//! Everything a query can return passes through
//! [`dox_obs::redact()`]-derived fingerprints: handles and bodies never
//! leave the process.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod api;
pub mod quota;
pub mod tenant;

pub use api::{router, ServeState};
pub use quota::{QuotaSpec, QuotaState};
pub use tenant::{AlertRecord, IngestOutcome, Tenant, TenantSpec};
