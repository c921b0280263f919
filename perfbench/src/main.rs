//! End-to-end placement benchmark.
//!
//! ```text
//! perfbench --workload <table3_analytical|table3_sa|serve_eco|all>
//!           --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Runs one workload through the public placer APIs, checks every
//! placement it gets back, prints the workload's named metrics (per placer, per request class)
//! with their units, a host fingerprint, and as the last line one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced; with
//! `--trace 1` (a build with the `trace` feature) they are the per-layer
//! set, taken from spans the benchmark records around its calls into each
//! layer, plus the counters the telemetry build keeps.

mod check;
mod serve;
mod table3;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use check::Tally;
use trace::Tracer;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: &[&str] = &["table3_analytical", "table3_sa", "serve_eco"];

/// End-to-end metrics (`--trace 0`), measured on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("place_s", "s"),
    ("hpwl_gm", "um"),
    ("area_gm", "um2"),
    ("jobs_per_s", "1/s"),
    ("ok_frac", "frac"),
];

/// Per-layer metrics (`--trace 1`). A layer the workload never enters
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.delta_ms", "ms"),
    ("artifacts.build_ms", "ms"),
    ("artifacts.patch_ms", "ms"),
    ("artifacts.hit_rate", "frac"),
    ("global.ms", "ms"),
    ("global.iters", "count"),
    ("global.share", "frac"),
    ("detailed.ms", "ms"),
    ("detailed.rounds", "count"),
    ("detailed.share", "frac"),
    ("mathopt.milp_nodes", "count"),
    ("mathopt.milp_pruned", "count"),
    ("mathopt.simplex_pivots", "count"),
    ("mathopt.pivots_per_node", "count"),
    ("xu19.global_ms", "ms"),
    ("xu19.legalize_ms", "ms"),
    ("sa.anneal_ms", "ms"),
    ("sa.repair_ms", "ms"),
    ("sa.moves", "count"),
    ("sa.moves_per_s", "1/s"),
    ("sa.accept_rate", "frac"),
    ("eco.replace_ms", "ms"),
    ("eco.fast_frac", "frac"),
    ("jobs.run_job_ms", "ms"),
    ("serve.accepted_ms", "ms"),
    ("serve.report_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.pending_max", "count"),
    ("serve.preempted", "count"),
    ("trace.overhead_frac", "frac"),
    ("self_ms.eplace", "ms"),
    ("self_ms.global", "ms"),
    ("self_ms.detailed", "ms"),
    ("self_ms.xu19", "ms"),
    ("self_ms.sa", "ms"),
    ("self_ms.netlist", "ms"),
    ("self_ms.artifacts", "ms"),
    ("self_ms.eco", "ms"),
    ("self_ms.jobs", "ms"),
    ("self_ms.serve", "ms"),
];

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

impl Ctx {
    /// A scratch directory for this run inside the output directory,
    /// emptied first.
    pub fn run_dir(&self, workload: &str) -> PathBuf {
        let dir = self.out.join(format!("run-{workload}-seed{}", self.seed));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the run directory");
        std::fs::canonicalize(&dir).expect("resolve the run directory")
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub tally: Tally,
    /// Contract metrics: the end-to-end set, or the per-layer set when traced.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Per-placer and per-request-class metrics with units, printed above
    /// the result line.
    pub detail: Vec<(String, f64, &'static str)>,
    /// Per-circuit (or per-request-class) records, one JSON object each.
    pub records: Vec<String>,
    /// Spans of the traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn new(tally: Tally) -> Self {
        Self {
            tally,
            metrics: BTreeMap::new(),
            detail: Vec::new(),
            records: Vec::new(),
            tracer: None,
        }
    }

    pub fn detail(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.detail.push((name.into(), value, unit));
    }

    /// Fills the per-layer metrics every traced run shares: layer self
    /// times and the MILP counters.
    pub fn layer_common(&mut self, tracer: &Tracer) {
        for (layer, ms) in tracer.self_ms_by_layer() {
            if let Some((name, _)) = PER_LAYER
                .iter()
                .find(|(n, _)| n.strip_prefix("self_ms.") == Some(layer.as_str()))
            {
                self.metrics.insert(name, ms);
            }
        }
        let count = |name: &str| placer_telemetry::counter_value(name).unwrap_or(0) as f64;
        let (nodes, pivots) = (count("milp_nodes"), count("simplex_pivots"));
        self.metrics.insert("mathopt.milp_nodes", nodes);
        self.metrics
            .insert("mathopt.milp_pruned", count("milp_pruned"));
        self.metrics.insert("mathopt.simplex_pivots", pivots);
        self.metrics
            .insert("mathopt.pivots_per_node", ratio(pivots, nodes));
    }
}

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples above it. A sample of 20 or fewer has no such
/// percentile worth the name, so its tail is the maximum.
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub beyond: usize,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let k = if n > 20 { n - 11 } else { n.saturating_sub(1) };
    Tail {
        value: v.get(k).copied().unwrap_or(0.0),
        percentile: if n == 0 {
            0.0
        } else {
            100.0 * (k + 1) as f64 / n as f64
        },
        beyond: n.saturating_sub(k + 1),
        samples: n,
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Times `SETUP_REPEATS` set-ups and keeps the last one's product.
pub fn repeat_setup<T>(mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        // Drop the previous product first: a daemon must stop before the
        // next one starts.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Runs whole passes while the next one is expected to end within
/// `seconds` (always at least one); returns each pass's product and time.
pub fn timed_passes<T>(seconds: f64, mut pass: impl FnMut(usize) -> T) -> Vec<(T, f64)> {
    let start = Instant::now();
    let mut out: Vec<(T, f64)> = Vec::new();
    loop {
        let t = Instant::now();
        let product = pass(out.len());
        let took = t.elapsed().as_secs_f64();
        out.push((product, took));
        if start.elapsed().as_secs_f64() + took > seconds {
            return out;
        }
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: String,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from("perfbench/out");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?} or all)"
        ));
    }
    let trace = trace.unwrap_or(false);
    if trace && !cfg!(feature = "trace") {
        return Err("--trace 1 needs a build with `--features trace`".into());
    }
    Ok(Args {
        workload,
        ctx: Ctx {
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace,
            out,
        },
    })
}

/// Host and build facts recorded with every result set.
fn fingerprint() -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let mut features = vec!["parallel"];
    if cfg!(feature = "trace") {
        features.push("trace");
    }
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        ("simd", placer_simd::selected().name().to_string()),
        ("placer_threads", placer_parallel::max_threads().to_string()),
        ("features", features.join("+")),
        ("git_rev", env("PERFBENCH_GIT_REV")),
        ("source_hash", env("PERFBENCH_SOURCE_HASH")),
    ]
}

fn run_workload(name: &str, ctx: &Ctx) -> Outcome {
    match name {
        "table3_analytical" => table3::run(table3::Kind::Analytical, ctx),
        "table3_sa" => table3::run(table3::Kind::Sa, ctx),
        "serve_eco" => serve::run(ctx),
        _ => unreachable!("workload names are checked when parsing"),
    }
}

/// Fills the contract metrics of a run that did not produce them with
/// zeros (a layer the workload never enters), and checks none is missing
/// from an untraced run.
fn contract_metrics(outcome: &Outcome, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
    let list = if trace { PER_LAYER } else { END_TO_END };
    list.iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied();
            assert!(
                trace || value.is_some(),
                "end-to-end metric `{name}` was not measured"
            );
            (name, value.unwrap_or(0.0), unit)
        })
        .collect()
}

/// `"name": {"value": v, "unit": u}, ...` for a JSON object body.
fn metrics_json<N: AsRef<str>>(items: &[(N, f64, &str)]) -> String {
    items
        .iter()
        .map(|(n, v, u)| {
            format!(
                r#"{}: {{"value": {}, "unit": {}}}"#,
                json_str(n.as_ref()),
                json_num(*v),
                json_str(u)
            )
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn write_results(
    path: &Path,
    workload: &str,
    ctx: &Ctx,
    outcome: &Outcome,
    metrics: &[(&str, f64, &str)],
) {
    let fp = fingerprint()
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    let text = format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"fingerprint\": {{{fp}}}, \
         \"attempted\": {}, \"failed\": {}, \"problems\": [{}], \"metrics\": {{{}}}, \"detail\": {{{}}}, \
         \"records\": [{}]}}\n",
        json_str(workload),
        ctx.seed,
        json_num(ctx.seconds),
        ctx.trace,
        outcome.tally.attempted,
        outcome.tally.failed,
        outcome.tally.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
        metrics_json(metrics),
        metrics_json(&outcome.detail),
        outcome.records.join(", "),
    );
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let ctx = &args.ctx;
    std::fs::create_dir_all(&ctx.out).expect("create the output directory");
    // One placer thread: runs compare placer work, not fan-out on a shared host.
    placer_parallel::set_max_threads(1);

    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let mut total = Tally::default();
    let mut result_metrics = Vec::new();
    for name in &names {
        let outcome = run_workload(name, ctx);
        let metrics = contract_metrics(&outcome, ctx.trace);
        println!(
            "== {name} (seed {}, trace {})",
            ctx.seed,
            u8::from(ctx.trace)
        );
        for (metric, value, unit) in outcome
            .detail
            .iter()
            .map(|(n, v, u)| (n.as_str(), *v, *u))
            .chain(metrics.iter().copied())
        {
            println!("  {metric:<28} {value:>14.4} {unit}");
        }
        println!(
            "  failed_frac                  {:>14.4} frac ({} of {})",
            outcome.tally.failed_frac(),
            outcome.tally.failed,
            outcome.tally.attempted
        );
        for p in &outcome.tally.problems {
            println!("  problem: {p}");
        }
        let tag = format!("{name}-seed{}-trace{}", ctx.seed, u8::from(ctx.trace));
        if let Some(tracer) = &outcome.tracer {
            let path = ctx.out.join(format!("spans-{tag}.jsonl"));
            if let Err(e) = tracer.write_jsonl(&path) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
        }
        write_results(
            &ctx.out.join(format!("result-{tag}.json")),
            name,
            ctx,
            &outcome,
            &metrics,
        );
        for (metric, value, unit) in metrics {
            let key = if names.len() > 1 {
                format!("{name}.{metric}")
            } else {
                metric.to_string()
            };
            result_metrics.push((key, value, unit));
        }
        total.absorb(outcome.tally);
    }
    let fp = fingerprint()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ");
    println!("fingerprint: {fp}");
    let metrics = metrics_json(&result_metrics);
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
        total.failed == 0 && total.attempted > 0,
        total.attempted,
        total.failed
    );
}
