//! # placer-jobs
//!
//! Deadline-aware multi-circuit placement job engine, built on the unified
//! [`Placer`](eplace::Placer) trait.
//!
//! A job is one `(circuit, placer, budget)` triple described by a
//! [`JobSpec`] (one JSON object per line — see [`spec::parse_jobs`]). The
//! [`JobEngine`] fans independent jobs out over the `placer-parallel`
//! worker pool and reduces every run to a [`JobReport`]:
//!
//! - **deadlines** (`deadline_ms`) and **step limits** (`step_limit`) map
//!   onto a [`RunBudget`](eplace::RunBudget); on expiry the placer
//!   legalizes its best-so-far state and the job reports `exhausted`,
//!   with the deadline slack recorded in a telemetry histogram;
//! - **cancellation** produces a checkpoint file, and re-running the same
//!   spec with [`JobEngine::resume`] set finishes the run **bit-for-bit**
//!   equal to an uninterrupted one;
//! - **failures** ([`PlaceError`](eplace::PlaceError)) retry up to
//!   `max_retries` times with the seed rotated by one per attempt.
//!
//! # Examples
//!
//! ```
//! use placer_jobs::{JobEngine, JobStatus, JobSpec};
//!
//! let mut spec = JobSpec::new("demo", "adder", "xu19");
//! spec.step_limit = Some(1); // expire almost immediately
//! let report = &JobEngine::default().run(&[spec])[0];
//! assert_eq!(report.status, JobStatus::Exhausted);
//! assert_eq!(report.legal, Some(true)); // exhausted is still legal
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod engine;
pub mod spec;

// The codec lives in `placer_telemetry::json`; new code imports it from
// there. This path stays because the end-to-end benchmark in `perfbench/`
// imports `placer_jobs::json::{parse_object, Json}`.
pub use placer_telemetry::json;

pub use engine::{
    make_placer, make_placer_variant, make_placer_with, JobEngine, PlacerFactory, VariantOverrides,
};
pub use spec::{
    check_protocol_version, normalize_timing, parse_jobs, spec_from_pairs, JobReport, JobSpec,
    JobStatus, Profile, SpecError, PROTOCOL_VERSION,
};
