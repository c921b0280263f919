//! Zero-overhead instrumentation for the placement workspace.
//!
//! The crate has two personalities selected at compile time:
//!
//! * With the `enabled` feature (off by default) it provides scoped timing
//!   spans with thread-aware nesting, monotonic counters, log-scale
//!   histograms, and a buffered JSONL event sink. The hot path is
//!   allocation-free after warm-up: events go to per-thread fixed-capacity
//!   buffers that instrumented code drains with [`flush`] *outside* its
//!   move/iteration loops, counters and span statistics are plain atomics
//!   registered on an intrusive static list, and the sink serialises into a
//!   reusable line buffer.
//! * Without it every entry point is an inlinable no-op and [`active`] is a
//!   constant `false`, so `if active() { ... }` blocks and `record` calls
//!   are removed entirely by dead-code elimination.
//!
//! Instrumented code never pays for a sink that is not installed: even in
//! `enabled` builds, recording is gated on a relaxed atomic flag that is
//! only true between [`install`] and [`uninstall`].
//!
//! The verbosity gate ([`verbose`] / [`vlog!`]) is deliberately *not*
//! feature-gated: diagnostic prints replaced throughout the workspace stay
//! reachable in default builds via `PLACER_VERBOSE=<level>`, but default to
//! silent. The sites are cold paths, so the single relaxed atomic load they
//! cost is irrelevant.
//!
//! # Event model
//!
//! Everything written to the sink is one JSON object per line:
//!
//! * `{"type":"event","kind":"gp_iter","t_us":...,"thread":...,<fields>}` —
//!   a point sample from a solver loop; field values are `f64` (non-finite
//!   values serialise as `null`).
//! * `{"type":"counter","name":...,"value":...}` — monotonic count since
//!   [`install`] (stats are reset when a sink is installed).
//! * `{"type":"span","name":...,"calls":...,"total_ns":...,"self_ns":...}`
//!   — aggregate of a scoped timer; `self_ns` excludes enclosed spans.
//! * `{"type":"histogram","name":...,"count":...,"b<i>":...}` — log-scale
//!   buckets; bucket `i` (1..=63) covers values in `[2^(i-33), 2^(i-32))`,
//!   bucket 0 collects non-positive and non-finite samples.
//! * `{"type":"manifest",...}` / `{"type":"phase",...}` — run metadata
//!   written directly by the harness via [`manifest`] / [`emit_meta`].
//!
//! The [`json`] module holds the flat-JSON codec these lines are written
//! with. Every other JSONL reader and writer in the workspace uses it too,
//! so it is compiled in whether or not `enabled` is on.

use std::sync::atomic::{AtomicU8, Ordering};

pub mod json;

/// A typed value for [`manifest`] / [`emit_meta`] metadata lines.
///
/// Metadata is written off the hot path, so strings are allowed here even
/// though [`record`] restricts event payloads to `f64`.
pub enum Field<'a> {
    /// Floating-point value (non-finite serialises as `null`).
    F(f64),
    /// Unsigned integer value.
    U(u64),
    /// Signed integer value.
    I(i64),
    /// Boolean value.
    B(bool),
    /// String value (JSON-escaped).
    S(&'a str),
}

/// Number of buckets in every [`Histogram`] (and in the `b<i>` keys of
/// serialized histogram lines).
pub const HISTOGRAM_BUCKETS: usize = 64;

/// `[lower, upper)` value bounds of histogram bucket `i`, matching the
/// exponent-derived bucketing: bucket `i` in `1..=63` covers
/// `[2^(i-33), 2^(i-32))`; bucket 0 collects non-positive and non-finite
/// samples and reports `(-inf, 0)`. Shared by both feature states so
/// report tooling can interpret buckets without a live registry.
pub fn histogram_bucket_bounds(i: usize) -> (f64, f64) {
    if i == 0 {
        return (f64::NEG_INFINITY, 0.0);
    }
    let i = i.min(HISTOGRAM_BUCKETS - 1) as i32;
    (2f64.powi(i - 33), 2f64.powi(i - 32))
}

// u8::MAX marks "not yet initialised from PLACER_VERBOSE".
static VERBOSITY: AtomicU8 = AtomicU8::new(u8::MAX);

#[cold]
fn init_verbosity() -> u8 {
    let level = std::env::var("PLACER_VERBOSE")
        .ok()
        .and_then(|s| s.trim().parse::<u8>().ok())
        .unwrap_or(0)
        .min(u8::MAX - 1);
    VERBOSITY.store(level, Ordering::Relaxed);
    level
}

/// True when diagnostic output at `level` is enabled. Level 1 is "notable
/// anomalies" (solver gave up, model infeasible), level 2 is per-round
/// progress, level 3 turns on dump files. Defaults to 0 (silent); set via
/// `PLACER_VERBOSE` or [`set_verbosity`].
#[inline]
pub fn verbose(level: u8) -> bool {
    let v = VERBOSITY.load(Ordering::Relaxed);
    let v = if v == u8::MAX { init_verbosity() } else { v };
    level <= v
}

/// Overrides the `PLACER_VERBOSE`-derived verbosity for this process.
pub fn set_verbosity(level: u8) {
    VERBOSITY.store(level.min(u8::MAX - 1), Ordering::Relaxed);
}

/// Prints a diagnostic line to stderr when [`verbose`]`(level)` holds.
/// The format arguments are not evaluated otherwise.
#[macro_export]
macro_rules! vlog {
    ($level:expr, $($arg:tt)*) => {
        if $crate::verbose($level) {
            eprintln!("[placer] {}", format_args!($($arg)*));
        }
    };
}

#[cfg(feature = "enabled")]
mod real;
#[cfg(feature = "enabled")]
pub use real::*;

#[cfg(not(feature = "enabled"))]
mod noop;
#[cfg(not(feature = "enabled"))]
pub use noop::*;

#[cfg(test)]
mod shared_tests {
    #[test]
    fn verbosity_defaults_to_silent() {
        // Not set in the test environment; levels above 0 must be off.
        if std::env::var("PLACER_VERBOSE").is_err() {
            assert!(!crate::verbose(1));
            assert!(!crate::verbose(2));
        }
        crate::set_verbosity(2);
        assert!(crate::verbose(2));
        assert!(!crate::verbose(3));
        crate::set_verbosity(0);
        assert!(!crate::verbose(1));
    }
}
