//! Point-in-time snapshots of the telemetry stat registries.
//!
//! A [`MetricsSnapshot`] copies every registered counter, span, and
//! histogram out of `placer-telemetry`'s intrusive registries (cheap, no
//! locks held by the recording side), so it can be taken mid-run. It
//! serializes two ways:
//!
//! * **Flat JSON** — one line with dotted keys (`counter.jobs_completed`,
//!   `span.gp_run.total_ns`, `hist.job_deadline_slack_ms.b34`), parseable
//!   by [`placer_telemetry::json::parse_object`] and embeddable verbatim in a run
//!   ledger record. [`MetricsSnapshot::from_flat_json`] round-trips it.
//! * **Prometheus text exposition** — counters, per-span counters, and
//!   cumulative-bucket histograms under a `placer_` prefix.
//!
//! Histogram percentiles are estimated from the log-scale buckets: bucket
//! `i` in `1..=63` covers `[2^(i-33), 2^(i-32))` and is represented by its
//! geometric midpoint, bucket 0 (non-positive/non-finite samples) by `0`.
//! The estimate is therefore within a factor of `sqrt(2)` of the true
//! sample value, which is what a 2x-bucketed histogram can promise.

use std::fmt::Write as FmtWrite;

use placer_telemetry::json::{parse_object, push_escaped, push_f64, Json};
use placer_telemetry::{histogram_bucket_bounds, HISTOGRAM_BUCKETS};

/// One monotonic counter at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Registered counter name.
    pub name: String,
    /// Count accumulated since the current trace/observer session began.
    pub value: u64,
}

/// One scoped-timer aggregate at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Registered span name.
    pub name: String,
    /// Number of completed enters.
    pub calls: u64,
    /// Total wall time inside the span, nanoseconds.
    pub total_ns: u64,
    /// Total time excluding nested spans on the same thread, nanoseconds.
    pub self_ns: u64,
}

/// One log-scale histogram at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Registered histogram name.
    pub name: String,
    /// Total recorded samples.
    pub count: u64,
    /// Per-bucket sample counts; index semantics follow
    /// [`placer_telemetry::histogram_bucket_bounds`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty histogram with all-zero buckets.
    pub fn empty(name: &str) -> Self {
        HistogramSnapshot {
            name: name.to_string(),
            count: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    /// The representative value of bucket `i`: `0` for bucket 0, the
    /// geometric midpoint of the bucket's bounds otherwise.
    pub fn bucket_value(i: usize) -> f64 {
        if i == 0 {
            return 0.0;
        }
        let (lo, hi) = histogram_bucket_bounds(i);
        (lo * hi).sqrt()
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) from the buckets.
    /// Returns `None` for an empty histogram. A single-sample histogram
    /// returns that sample's bucket representative for every `q`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if n > 0 && cum >= target {
                return Some(Self::bucket_value(i));
            }
        }
        // count and buckets are updated by separate relaxed atomics, so a
        // mid-record snapshot can see count ahead of the buckets; answer
        // with the highest populated bucket.
        self.buckets
            .iter()
            .rposition(|&n| n > 0)
            .map(Self::bucket_value)
    }

    /// `(p50, p90, p99)` estimates, or `None` when empty.
    pub fn summary(&self) -> Option<(f64, f64, f64)> {
        Some((
            self.percentile(0.50)?,
            self.percentile(0.90)?,
            self.percentile(0.99)?,
        ))
    }
}

/// A copy of every registered counter, span, and histogram, sorted by
/// name for deterministic serialization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All registered counters.
    pub counters: Vec<CounterSnapshot>,
    /// All registered spans.
    pub spans: Vec<SpanSnapshot>,
    /// All registered histograms.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Snapshots the live telemetry registries. Against a build without
    /// the `telemetry` feature (no-op registries) this returns an empty
    /// snapshot.
    pub fn capture() -> Self {
        let mut snap = MetricsSnapshot::default();
        placer_telemetry::visit_counters(&mut |name, value| {
            snap.counters.push(CounterSnapshot {
                name: name.to_string(),
                value,
            });
        });
        placer_telemetry::visit_spans(&mut |name, calls, total_ns, self_ns| {
            snap.spans.push(SpanSnapshot {
                name: name.to_string(),
                calls,
                total_ns,
                self_ns,
            });
        });
        placer_telemetry::visit_histograms(&mut |name, count, buckets| {
            snap.histograms.push(HistogramSnapshot {
                name: name.to_string(),
                count,
                buckets: buckets.to_vec(),
            });
        });
        snap.counters.sort_by(|a, b| a.name.cmp(&b.name));
        snap.spans.sort_by(|a, b| a.name.cmp(&b.name));
        snap.histograms.sort_by(|a, b| a.name.cmp(&b.name));
        snap
    }

    /// True when nothing is registered (e.g. telemetry compiled out).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.spans.is_empty() && self.histograms.is_empty()
    }

    /// Appends the snapshot's dotted key/value pairs (each preceded by a
    /// comma) to a flat JSON object under construction.
    pub fn append_flat(&self, line: &mut String) {
        for c in &self.counters {
            line.push_str(",\"counter.");
            push_escaped(line, &c.name);
            let _ = write!(line, "\":{}", c.value);
        }
        for s in &self.spans {
            for (field, value) in [
                ("calls", s.calls),
                ("total_ns", s.total_ns),
                ("self_ns", s.self_ns),
            ] {
                line.push_str(",\"span.");
                push_escaped(line, &s.name);
                let _ = write!(line, ".{field}\":{value}");
            }
        }
        for h in &self.histograms {
            line.push_str(",\"hist.");
            push_escaped(line, &h.name);
            let _ = write!(line, ".count\":{}", h.count);
            for (i, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    line.push_str(",\"hist.");
                    push_escaped(line, &h.name);
                    let _ = write!(line, ".b{i}\":{n}");
                }
            }
            if let Some((p50, p90, p99)) = h.summary() {
                for (tag, v) in [("p50", p50), ("p90", p90), ("p99", p99)] {
                    line.push_str(",\"hist.");
                    push_escaped(line, &h.name);
                    let _ = write!(line, ".{tag}\":");
                    push_f64(line, v);
                }
            }
        }
    }

    /// One flat JSON line: `{"type":"metrics","counter.x":1,...}`.
    pub fn to_flat_json(&self) -> String {
        let mut line = String::from("{\"type\":\"metrics\"");
        self.append_flat(&mut line);
        line.push('}');
        line
    }

    /// Rebuilds a snapshot from a [`Self::to_flat_json`] line (or any flat
    /// object using the same dotted keys, e.g. a ledger record). Derived
    /// percentile keys (`.p50`/`.p90`/`.p99`) are ignored — they are
    /// recomputed from the buckets.
    ///
    /// # Errors
    ///
    /// Returns a message for unparseable lines or malformed keys.
    pub fn from_flat_json(line: &str) -> Result<Self, String> {
        let pairs = parse_object(line)?;
        let mut snap = MetricsSnapshot::default();
        for (key, value) in pairs {
            let num = |v: &Json| -> Result<u64, String> {
                v.as_num()
                    .map(|f| f as u64)
                    .ok_or_else(|| format!("non-numeric value for {key:?}"))
            };
            if let Some(name) = key.strip_prefix("counter.") {
                snap.counters.push(CounterSnapshot {
                    name: name.to_string(),
                    value: num(&value)?,
                });
            } else if let Some(rest) = key.strip_prefix("span.") {
                let (name, field) = rest
                    .rsplit_once('.')
                    .ok_or_else(|| format!("bad span key {key:?}"))?;
                let span = match snap.spans.last_mut() {
                    Some(s) if s.name == name => s,
                    _ => {
                        snap.spans.push(SpanSnapshot {
                            name: name.to_string(),
                            calls: 0,
                            total_ns: 0,
                            self_ns: 0,
                        });
                        snap.spans.last_mut().unwrap()
                    }
                };
                match field {
                    "calls" => span.calls = num(&value)?,
                    "total_ns" => span.total_ns = num(&value)?,
                    "self_ns" => span.self_ns = num(&value)?,
                    other => return Err(format!("unknown span field {other:?}")),
                }
            } else if let Some(rest) = key.strip_prefix("hist.") {
                let (name, field) = rest
                    .rsplit_once('.')
                    .ok_or_else(|| format!("bad histogram key {key:?}"))?;
                if matches!(field, "p50" | "p90" | "p99") {
                    continue;
                }
                let hist = match snap.histograms.last_mut() {
                    Some(h) if h.name == name => h,
                    _ => {
                        snap.histograms.push(HistogramSnapshot::empty(name));
                        snap.histograms.last_mut().unwrap()
                    }
                };
                if field == "count" {
                    hist.count = num(&value)?;
                } else if let Some(i) = field.strip_prefix('b') {
                    let i: usize = i.parse().map_err(|_| format!("bad bucket key {key:?}"))?;
                    if i >= HISTOGRAM_BUCKETS {
                        return Err(format!("bucket index out of range in {key:?}"));
                    }
                    hist.buckets[i] = num(&value)?;
                } else {
                    return Err(format!("unknown histogram field {field:?}"));
                }
            }
        }
        Ok(snap)
    }

    /// Prometheus text exposition format (one `placer_`-prefixed family
    /// per counter and span field; histograms with cumulative `le`
    /// buckets). The histogram `_sum` is approximated from bucket
    /// representatives — exact sums are not recorded.
    pub fn to_prometheus(&self) -> String {
        fn sanitize(out: &mut String, name: &str) {
            for c in name.chars() {
                if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
        }
        let mut out = String::new();
        for c in &self.counters {
            let mut name = String::from("placer_");
            sanitize(&mut name, &c.name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        if !self.spans.is_empty() {
            let _ = writeln!(out, "# TYPE placer_span_calls_total counter");
            let _ = writeln!(out, "# TYPE placer_span_time_seconds_total counter");
            let _ = writeln!(out, "# TYPE placer_span_self_seconds_total counter");
            for s in &self.spans {
                let mut label = String::new();
                sanitize(&mut label, &s.name);
                let _ = writeln!(
                    out,
                    "placer_span_calls_total{{span=\"{label}\"}} {}",
                    s.calls
                );
                let _ = writeln!(
                    out,
                    "placer_span_time_seconds_total{{span=\"{label}\"}} {}",
                    s.total_ns as f64 / 1e9
                );
                let _ = writeln!(
                    out,
                    "placer_span_self_seconds_total{{span=\"{label}\"}} {}",
                    s.self_ns as f64 / 1e9
                );
            }
        }
        for h in &self.histograms {
            let mut name = String::from("placer_");
            sanitize(&mut name, &h.name);
            let _ = writeln!(out, "# TYPE {name} histogram");
            let top = h.buckets.iter().rposition(|&n| n > 0).unwrap_or(0);
            let mut cum = 0u64;
            let mut sum = 0.0f64;
            for (i, &n) in h.buckets.iter().enumerate().take(top + 1) {
                cum += n;
                sum += n as f64 * HistogramSnapshot::bucket_value(i);
                let le = histogram_bucket_bounds(i).1;
                let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {sum}");
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_with(samples_by_bucket: &[(usize, u64)]) -> HistogramSnapshot {
        let mut h = HistogramSnapshot::empty("t");
        for &(i, n) in samples_by_bucket {
            h.buckets[i] = n;
            h.count += n;
        }
        h
    }

    #[test]
    fn percentile_empty_is_none() {
        let h = HistogramSnapshot::empty("t");
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.summary(), None);
    }

    #[test]
    fn percentile_single_sample() {
        // One sample in bucket 33 ([1, 2)); every quantile answers its
        // geometric midpoint sqrt(2).
        let h = hist_with(&[(33, 1)]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            let p = h.percentile(q).unwrap();
            assert!((p - 2f64.sqrt()).abs() < 1e-12, "q={q} -> {p}");
        }
    }

    #[test]
    fn percentile_log_bucket_edges() {
        // 10 samples in [1,2), 10 in [2,4): p50 from bucket 33, p90+ from
        // bucket 34 (midpoint sqrt(2*4) = 2*sqrt(2)).
        let h = hist_with(&[(33, 10), (34, 10)]);
        assert!((h.percentile(0.50).unwrap() - 2f64.sqrt()).abs() < 1e-12);
        assert!((h.percentile(0.90).unwrap() - 8f64.sqrt()).abs() < 1e-12);
        assert!((h.percentile(1.0).unwrap() - 8f64.sqrt()).abs() < 1e-12);
        // Clamp buckets: 63 is the top; its midpoint still answers.
        let top = hist_with(&[(63, 1)]);
        assert!(top.percentile(0.5).unwrap().is_finite());
        // Bucket 1 is the bottom positive bucket.
        let bottom = hist_with(&[(1, 3)]);
        let (lo, hi) = histogram_bucket_bounds(1);
        assert!((bottom.percentile(0.5).unwrap() - (lo * hi).sqrt()).abs() < 1e-40);
    }

    #[test]
    fn percentile_bucket_zero_reports_zero() {
        // Non-positive samples land in bucket 0 and answer 0.0.
        let h = hist_with(&[(0, 5), (33, 5)]);
        assert_eq!(h.percentile(0.25), Some(0.0));
        assert!((h.percentile(0.9).unwrap() - 2f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn flat_json_round_trip() {
        let snap = MetricsSnapshot {
            counters: vec![
                CounterSnapshot {
                    name: "jobs_completed".into(),
                    value: 3,
                },
                CounterSnapshot {
                    name: "sa_moves".into(),
                    value: 12345,
                },
            ],
            spans: vec![SpanSnapshot {
                name: "gp_run".into(),
                calls: 2,
                total_ns: 1_500_000,
                self_ns: 900_000,
            }],
            histograms: vec![hist_with(&[(0, 1), (33, 4), (40, 2)])],
        };
        let line = snap.to_flat_json();
        assert!(line.starts_with("{\"type\":\"metrics\""));
        assert!(line.contains("\"counter.jobs_completed\":3"));
        assert!(line.contains("\"span.gp_run.total_ns\":1500000"));
        assert!(line.contains("\"hist.t.b33\":4"));
        assert!(line.contains("\"hist.t.p50\":"));
        let back = MetricsSnapshot::from_flat_json(&line).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn from_flat_json_rejects_garbage() {
        assert!(MetricsSnapshot::from_flat_json("nope").is_err());
        assert!(MetricsSnapshot::from_flat_json(r#"{"hist.t.b99":1}"#).is_err());
        assert!(MetricsSnapshot::from_flat_json(r#"{"span.t.weird":1}"#).is_err());
    }

    #[test]
    fn prometheus_exposition_shape() {
        let snap = MetricsSnapshot {
            counters: vec![CounterSnapshot {
                name: "jobs_completed".into(),
                value: 3,
            }],
            spans: vec![SpanSnapshot {
                name: "gp_run".into(),
                calls: 2,
                total_ns: 2_000_000_000,
                self_ns: 1_000_000_000,
            }],
            histograms: vec![hist_with(&[(33, 2), (34, 2)])],
        };
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE placer_jobs_completed counter"));
        assert!(text.contains("placer_jobs_completed 3"));
        assert!(text.contains("placer_span_time_seconds_total{span=\"gp_run\"} 2"));
        // Cumulative buckets end at the total count under +Inf.
        assert!(text.contains("placer_t_bucket{le=\"2\"} 2"));
        assert!(text.contains("placer_t_bucket{le=\"4\"} 4"));
        assert!(text.contains("placer_t_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("placer_t_count 4"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
        }
    }

    #[test]
    fn empty_capture_against_noop_registries() {
        // Without the telemetry feature the visitors are no-ops; with it
        // this still holds before any counter is touched in this process
        // — either way capture() must not panic.
        let snap = MetricsSnapshot::capture();
        let _ = snap.to_flat_json();
        let _ = snap.to_prometheus();
    }
}
