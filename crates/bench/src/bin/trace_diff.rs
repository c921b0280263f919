//! Compares two runs for forensics and regression gating: either two
//! telemetry JSONL traces (from `--trace` runs) or two
//! `BENCH_hotpaths.json` snapshots (auto-detected by the `"benches"` key).
//!
//! ```text
//! trace_diff OLD NEW [--threshold PCT] [--check] [--folded FILE]
//! ```
//!
//! For traces, the diff covers per-span wall time (`total_ns`, with
//! `self_ns` and call counts alongside), counters, and histogram sample
//! counts; a span whose total time grew by more than `--threshold` percent
//! (default 20) is flagged as a regression. For bench snapshots the
//! per-lane speedups are compared, and a lane whose speedup fell by more
//! than the threshold regresses.
//!
//! `--folded FILE` additionally writes the NEW trace's spans as folded
//! stacks (`placer;<span> <self_us>`), the input format of flamegraph.pl
//! and speedscope.
//!
//! Exit codes: `0` clean, `1` unreadable/malformed input, `2` bad usage,
//! `3` when `--check` is set and at least one regression was flagged.

use std::collections::BTreeMap;

use placer_bench::{parse_speedups, print_row};
use placer_telemetry::json::{parse_object, Json};

struct Options {
    old: String,
    new: String,
    threshold_pct: f64,
    check: bool,
    folded: Option<String>,
}

fn usage() -> &'static str {
    "usage: trace_diff OLD NEW [--threshold PCT] [--check] [--folded FILE]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        old: String::new(),
        new: String::new(),
        threshold_pct: 20.0,
        check: false,
        folded: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = it.next().ok_or("`--threshold` needs a value")?;
                opts.threshold_pct = v.parse().map_err(|_| format!("bad percent `{v}`"))?;
            }
            "--check" => opts.check = true,
            "--folded" => {
                opts.folded = Some(it.next().ok_or("`--folded` needs a value")?.clone());
            }
            flag if flag.starts_with("--threshold=") => {
                let v = &flag["--threshold=".len()..];
                opts.threshold_pct = v.parse().map_err(|_| format!("bad percent `{v}`"))?;
            }
            flag if flag.starts_with("--folded=") => {
                opts.folded = Some(flag["--folded=".len()..].to_string());
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if opts.old.is_empty() => opts.old = path.to_string(),
            path if opts.new.is_empty() => opts.new = path.to_string(),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    if opts.old.is_empty() || opts.new.is_empty() {
        return Err("need two files to compare".into());
    }
    if opts.threshold_pct <= 0.0 {
        return Err("threshold must be positive".into());
    }
    Ok(opts)
}

/// Everything comparable extracted from one telemetry trace.
#[derive(Default)]
struct TraceStats {
    /// name → (calls, total_ns, self_ns); repeated snapshots accumulate.
    spans: BTreeMap<String, (f64, f64, f64)>,
    counters: BTreeMap<String, f64>,
    /// histogram name → sample count.
    hist_counts: BTreeMap<String, f64>,
}

fn parse_trace(path: &str, text: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let kv = parse_object(line).map_err(|e| format!("{path}:{}: {e}", lineno + 1))?;
        let get = |key: &str| kv.iter().find(|(k, _)| k == key).map(|(_, v)| v);
        let get_num = |key: &str| get(key).and_then(Json::as_num);
        let get_str = |key: &str| get(key).and_then(Json::as_str);
        match get_str("type") {
            Some("span") => {
                let name = get_str("name").unwrap_or_default().to_string();
                let e = stats.spans.entry(name).or_insert((0.0, 0.0, 0.0));
                e.0 += get_num("calls").unwrap_or(0.0);
                e.1 += get_num("total_ns").unwrap_or(0.0);
                e.2 += get_num("self_ns").unwrap_or(0.0);
            }
            Some("counter") => {
                let name = get_str("name").unwrap_or_default().to_string();
                *stats.counters.entry(name).or_insert(0.0) += get_num("value").unwrap_or(0.0);
            }
            Some("histogram") => {
                let name = get_str("name").unwrap_or_default().to_string();
                *stats.hist_counts.entry(name).or_insert(0.0) += get_num("count").unwrap_or(0.0);
            }
            // Events, manifests, phases, progress and ledger lines carry
            // no per-name aggregate to diff.
            _ => {}
        }
    }
    Ok(stats)
}

fn pct_delta(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        100.0 * (new - old) / old
    }
}

fn fmt_delta(delta: f64) -> String {
    if delta.is_infinite() {
        "new".to_string()
    } else {
        format!("{delta:+.1}%")
    }
}

fn diff_traces(opts: &Options, old: &TraceStats, new: &TraceStats) -> usize {
    let mut regressions = 0;

    let span_names: std::collections::BTreeSet<&String> =
        old.spans.keys().chain(new.spans.keys()).collect();
    if !span_names.is_empty() {
        println!("spans (total time):");
        let widths = [22usize, 12, 12, 9, 12];
        print_row(
            &[
                "span".into(),
                "old_ms".into(),
                "new_ms".into(),
                "calls".into(),
                "delta".into(),
            ],
            &widths,
        );
        for name in span_names {
            let (oc, ot, _) = old.spans.get(name).copied().unwrap_or((0.0, 0.0, 0.0));
            let (nc, nt, _) = new.spans.get(name).copied().unwrap_or((0.0, 0.0, 0.0));
            if oc == 0.0 && nc == 0.0 {
                continue; // registry residue on both sides
            }
            let delta = pct_delta(ot, nt);
            let regressed = ot > 0.0 && delta > opts.threshold_pct;
            if regressed {
                regressions += 1;
            }
            print_row(
                &[
                    name.clone(),
                    format!("{:.3}", ot / 1e6),
                    format!("{:.3}", nt / 1e6),
                    format!("{nc}"),
                    format!(
                        "{}{}",
                        fmt_delta(delta),
                        if regressed { "  REGRESSED" } else { "" }
                    ),
                ],
                &widths,
            );
        }
    }

    let counter_names: std::collections::BTreeSet<&String> =
        old.counters.keys().chain(new.counters.keys()).collect();
    let changed: Vec<(&String, f64, f64)> = counter_names
        .into_iter()
        .map(|name| {
            (
                name,
                old.counters.get(name).copied().unwrap_or(0.0),
                new.counters.get(name).copied().unwrap_or(0.0),
            )
        })
        .filter(|(_, o, n)| *o != 0.0 || *n != 0.0)
        .collect();
    if !changed.is_empty() {
        println!("\ncounters:");
        for (name, o, n) in changed {
            println!(
                "  {name:<28} {o:>12} -> {n:<12} {}",
                fmt_delta(pct_delta(o, n))
            );
        }
    }

    let hist_names: std::collections::BTreeSet<&String> = old
        .hist_counts
        .keys()
        .chain(new.hist_counts.keys())
        .collect();
    let mut any_hist = false;
    for name in hist_names {
        let o = old.hist_counts.get(name).copied().unwrap_or(0.0);
        let n = new.hist_counts.get(name).copied().unwrap_or(0.0);
        if o == 0.0 && n == 0.0 {
            continue;
        }
        if !any_hist {
            println!("\nhistogram sample counts:");
            any_hist = true;
        }
        println!(
            "  {name:<28} {o:>12} -> {n:<12} {}",
            fmt_delta(pct_delta(o, n))
        );
    }

    regressions
}

fn diff_benches(opts: &Options, old_json: &str, new_json: &str) -> usize {
    let old = parse_speedups(old_json);
    let new = parse_speedups(new_json);
    let mut regressions = 0;
    println!("bench lanes (speedup over seed reference):");
    let widths = [22usize, 10, 10, 12];
    print_row(
        &["lane".into(), "old".into(), "new".into(), "delta".into()],
        &widths,
    );
    for (name, want) in &old {
        let Some((_, got)) = new.iter().find(|(n, _)| n == name) else {
            println!("lane {name} missing from {}", opts.new);
            regressions += 1;
            continue;
        };
        let delta = pct_delta(*want, *got);
        // A lane regresses when its speedup *fell* past the threshold.
        let regressed = delta < -opts.threshold_pct;
        if regressed {
            regressions += 1;
        }
        print_row(
            &[
                name.clone(),
                format!("{want:.2}x"),
                format!("{got:.2}x"),
                format!(
                    "{}{}",
                    fmt_delta(delta),
                    if regressed { "  REGRESSED" } else { "" }
                ),
            ],
            &widths,
        );
    }
    for (name, _) in &new {
        if !old.iter().any(|(n, _)| n == name) {
            println!("lane {name} only in {}", opts.new);
        }
    }
    regressions
}

fn write_folded(path: &str, stats: &TraceStats) -> Result<(), String> {
    let mut out = String::new();
    for (name, (calls, _, self_ns)) in &stats.spans {
        if *calls == 0.0 {
            continue;
        }
        out.push_str(&format!(
            "placer;{} {}\n",
            name,
            (*self_ns / 1e3).round() as u64
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("write {path}: {e}"))
}

fn run(opts: &Options) -> Result<usize, String> {
    let old_text =
        std::fs::read_to_string(&opts.old).map_err(|e| format!("read {}: {e}", opts.old))?;
    let new_text =
        std::fs::read_to_string(&opts.new).map_err(|e| format!("read {}: {e}", opts.new))?;
    let old_is_bench = old_text.contains("\"benches\":");
    let new_is_bench = new_text.contains("\"benches\":");
    if old_is_bench != new_is_bench {
        return Err("cannot compare a trace against a bench snapshot".into());
    }
    println!(
        "== {} vs {} (threshold {}%) ==",
        opts.old, opts.new, opts.threshold_pct
    );
    let regressions = if old_is_bench {
        if opts.folded.is_some() {
            return Err("--folded needs trace inputs, not bench snapshots".into());
        }
        diff_benches(opts, &old_text, &new_text)
    } else {
        let old = parse_trace(&opts.old, &old_text)?;
        let new = parse_trace(&opts.new, &new_text)?;
        let n = diff_traces(opts, &old, &new);
        if let Some(folded) = &opts.folded {
            write_folded(folded, &new)?;
            println!("\nfolded stacks: wrote {folded}");
        }
        n
    };
    if regressions > 0 {
        println!(
            "\n{regressions} regression(s) past the {}% threshold",
            opts.threshold_pct
        );
    } else {
        println!(
            "\nno regressions past the {}% threshold",
            opts.threshold_pct
        );
    }
    Ok(regressions)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("trace_diff: {e}\n{}", usage());
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Err(e) => {
            eprintln!("trace_diff: {e}");
            std::process::exit(1);
        }
        Ok(regressions) if opts.check && regressions > 0 => std::process::exit(3),
        Ok(_) => {}
    }
}
