//! Operational observability for the placement workspace.
//!
//! This crate turns the raw `placer-telemetry` primitives (per-thread event
//! rings, counters, histograms, spans) into the layer an operator actually
//! watches a run through:
//!
//! * [`progress`] — a live [`progress::ProgressSink`]: solver loop events
//!   (Nesterov iteration, SA temperature level, Xu19 round, GNN epoch) are
//!   tapped via the telemetry observer hook, rate-limited per thread,
//!   pushed into a bounded non-blocking ring, and drained by a reporter
//!   thread into human or JSONL status lines on stderr (or a file).
//!   Per-job context (label, deadline) attaches budget slack and an ETA
//!   estimate to each event.
//! * [`metrics`] — [`metrics::MetricsSnapshot`]: a point-in-time copy of
//!   every registered counter/span/histogram, with log-bucket percentile
//!   summaries, serializable to flat JSON (one line, `trace_report`
//!   compatible) and to Prometheus text exposition format.
//! * [`ledger`] — [`ledger::RunLedger`]: an append-only JSONL manifest of
//!   every jobs/sweep/bench invocation (git describe, ISA, wall time,
//!   outcome counts, metrics snapshot), one atomic `write` per record.
//!
//! Like the telemetry crate, the hot half has two personalities: with the
//! `enabled` feature the progress pipeline is live; without it progress
//! installation is an inert no-op (the binaries refuse `--progress` with a
//! rebuild hint). Metrics and the ledger are always compiled — against
//! no-op registries they simply produce empty snapshots.
//!
//! The PR-3 contracts carry over: nothing here perturbs solver arithmetic
//! (bit-identity of observed vs unobserved runs), and the recording side of
//! the progress pipeline is allocation-free and non-blocking after warm-up.

pub mod ledger;
pub mod metrics;
pub mod progress;

/// True when this build carries the live progress pipeline (the `enabled`
/// feature, forwarded from the workspace `telemetry` feature).
pub fn progress_compiled() -> bool {
    cfg!(feature = "enabled")
}
