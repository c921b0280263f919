//! Folds a telemetry JSONL trace (written by `--trace` runs of the bench
//! binaries) into a human-readable summary: the run manifest, a per-phase
//! span table, counters, histograms, and first→last convergence lines for
//! each event kind.
//!
//! Also understands the other JSONL the harness emits: job/sweep report
//! rows (typeless lines with `id` + `status`, including the sweep racing
//! `killed` status and its optional `fom` field), `--progress=jsonl`
//! streams, and run-ledger records — so any produced file validates.
//!
//! Usage: `trace_report <trace.jsonl> [more.jsonl ...]`. Exits nonzero on
//! unreadable files or malformed lines, so CI can use it as a validator.

use std::collections::BTreeMap;

use placer_bench::print_row;
use placer_telemetry::json::{parse_object, Json};

/// Per-field aggregate over all events of one kind.
#[derive(Debug, Clone, Copy)]
struct FieldAgg {
    first: f64,
    last: f64,
    min: f64,
    max: f64,
}

#[derive(Debug, Default)]
struct KindAgg {
    count: u64,
    fields: BTreeMap<String, FieldAgg>,
}

fn report(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut manifests: Vec<String> = Vec::new();
    let mut events: BTreeMap<String, KindAgg> = BTreeMap::new();
    let mut counters: Vec<(String, f64)> = Vec::new();
    let mut spans: Vec<(String, f64, f64, f64)> = Vec::new(); // name, calls, total_ms, self_ms
    let mut histograms: Vec<(String, f64, String)> = Vec::new();
    let mut phases: Vec<(String, f64)> = Vec::new();
    let mut report_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut report_foms: Vec<f64> = Vec::new();
    let mut progress_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut ledgers: Vec<String> = Vec::new();

    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let kv = parse_object(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let get = |key: &str| kv.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let get_num = |key: &str| get(key).and_then(Json::as_num);
        let get_str = |key: &str| get(key).and_then(Json::as_str).map(str::to_string);
        let Some(ty) = get_str("type") else {
            // Job/sweep report rows carry no `type` tag (the pre-sweep
            // protocol froze their shape): recognize them by id + status.
            let (Some(_), Some(status)) = (get_str("id"), get_str("status")) else {
                return Err(format!("{path}:{}: no type", lineno + 1));
            };
            *report_counts.entry(status).or_insert(0) += 1;
            if let Some(fom) = get_num("fom") {
                report_foms.push(fom);
            }
            continue;
        };
        match ty.as_str() {
            "manifest" => {
                let pairs: Vec<String> = kv
                    .iter()
                    .filter(|(k, _)| k != "type")
                    .map(|(k, v)| {
                        let v = match v {
                            Json::Num(n) => format!("{n}"),
                            Json::Str(s) => s.clone(),
                            Json::Bool(b) => format!("{b}"),
                            Json::Null => "null".into(),
                        };
                        format!("{k}={v}")
                    })
                    .collect();
                manifests.push(pairs.join("  "));
            }
            "event" => {
                let kind = get_str("kind")
                    .ok_or_else(|| format!("{path}:{}: event without kind", lineno + 1))?;
                let agg = events.entry(kind).or_default();
                agg.count += 1;
                for (k, v) in &kv {
                    if k == "type" || k == "kind" || k == "t_us" || k == "thread" {
                        continue;
                    }
                    let Some(x) = v.as_num() else { continue };
                    agg.fields
                        .entry(k.clone())
                        .and_modify(|f| {
                            f.last = x;
                            f.min = f.min.min(x);
                            f.max = f.max.max(x);
                        })
                        .or_insert(FieldAgg {
                            first: x,
                            last: x,
                            min: x,
                            max: x,
                        });
                }
            }
            "counter" => {
                let name = get_str("name").unwrap_or_default();
                counters.push((name, get_num("value").unwrap_or(0.0)));
            }
            "span" => {
                spans.push((
                    get_str("name").unwrap_or_default(),
                    get_num("calls").unwrap_or(0.0),
                    get_num("total_ns").unwrap_or(0.0) / 1e6,
                    get_num("self_ns").unwrap_or(0.0) / 1e6,
                ));
            }
            "histogram" => {
                let name = get_str("name").unwrap_or_default();
                let count = get_num("count").unwrap_or(0.0);
                // Non-empty buckets, rendered as 2^(i-33) range labels.
                let buckets: Vec<String> = kv
                    .iter()
                    .filter_map(|(k, v)| {
                        let i: i32 = k.strip_prefix('b')?.parse().ok()?;
                        let n = v.as_num()?;
                        if i == 0 {
                            Some(format!("≤0:{n}"))
                        } else {
                            Some(format!("2^{}:{n}", i - 33))
                        }
                    })
                    .collect();
                histograms.push((name, count, buckets.join(" ")));
            }
            "phase" => {
                phases.push((
                    get_str("name").unwrap_or_default(),
                    get_num("seconds").unwrap_or(0.0),
                ));
            }
            "progress" => {
                let phase = get_str("phase").unwrap_or_default();
                *progress_counts.entry(phase).or_insert(0) += 1;
            }
            "ledger" => {
                let mut parts: Vec<String> = Vec::new();
                for key in ["cmd", "git", "ts_ms", "wall_ms", "jobs", "variants"] {
                    if let Some(v) = get(key) {
                        let v = match v {
                            Json::Num(n) => format!("{n}"),
                            Json::Str(s) => s.clone(),
                            Json::Bool(b) => format!("{b}"),
                            Json::Null => "null".into(),
                        };
                        parts.push(format!("{key}={v}"));
                    }
                }
                ledgers.push(parts.join("  "));
            }
            _ => {} // forward compatibility: unknown line types are skipped
        }
    }

    println!("== {path} ==");
    for m in &manifests {
        println!("manifest: {m}");
    }
    for l in &ledgers {
        println!("ledger: {l}");
    }
    for (name, seconds) in &phases {
        println!("wall {name}: {seconds:.3}s");
    }

    if !report_counts.is_empty() {
        let total: u64 = report_counts.values().sum();
        let by_status: Vec<String> = report_counts
            .iter()
            .map(|(status, n)| format!("{status} {n}"))
            .collect();
        print!("report rows: {total} ({})", by_status.join(", "));
        if !report_foms.is_empty() {
            let best = report_foms.iter().copied().fold(f64::INFINITY, f64::min);
            let mean = report_foms.iter().sum::<f64>() / report_foms.len() as f64;
            print!(
                "  fom best={best:.6} mean={mean:.6} over {}",
                report_foms.len()
            );
        }
        println!();
    }

    if !progress_counts.is_empty() {
        let total: u64 = progress_counts.values().sum();
        let by_phase: Vec<String> = progress_counts
            .iter()
            .map(|(phase, n)| format!("{phase} {n}"))
            .collect();
        println!("progress events: {total} ({})", by_phase.join(", "));
    }

    // Stats reset on sink install but registry membership persists, so a
    // multi-trace process reports zero-call spans from earlier traces; they
    // carry no information.
    spans.retain(|(_, calls, _, _)| *calls > 0.0);
    if !spans.is_empty() {
        println!("\nphase summary (spans):");
        let widths = [22usize, 10, 12, 12, 11];
        print_row(
            &[
                "span".into(),
                "calls".into(),
                "total_ms".into(),
                "self_ms".into(),
                "mean_us".into(),
            ],
            &widths,
        );
        spans.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite"));
        for (name, calls, total_ms, self_ms) in &spans {
            print_row(
                &[
                    name.clone(),
                    format!("{calls}"),
                    format!("{total_ms:.3}"),
                    format!("{self_ms:.3}"),
                    format!("{:.2}", total_ms / calls.max(1.0) * 1e3),
                ],
                &widths,
            );
        }
    }

    counters.retain(|(_, value)| *value > 0.0);
    if !counters.is_empty() {
        println!("\ncounters:");
        for (name, value) in &counters {
            println!("  {name:<24} {value}");
        }
    }

    if !histograms.is_empty() {
        println!("\nhistograms:");
        for (name, count, buckets) in &histograms {
            println!("  {name:<24} n={count}  {buckets}");
        }
    }

    if !events.is_empty() {
        println!("\nevents (first → last over the trace):");
        for (kind, agg) in &events {
            println!("  {kind} ×{}", agg.count);
            for (field, f) in &agg.fields {
                if agg.count == 1 || (f.first == f.last && f.min == f.max) {
                    println!("    {field:<18} {: >12.4}", f.last);
                } else {
                    println!(
                        "    {field:<18} {: >12.4} → {: >12.4}   [min {:.4}, max {:.4}]",
                        f.first, f.last, f.min, f.max
                    );
                }
            }
        }
    }
    println!();
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("usage: trace_report <trace.jsonl> [more.jsonl ...]");
        std::process::exit(2);
    }
    let mut failed = false;
    for path in &args {
        if let Err(e) = report(path) {
            eprintln!("error: {e}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
