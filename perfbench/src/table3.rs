//! The two Table III workloads: every paper circuit placed cold, one
//! circuit at a time on one placer thread.
//!
//! - `table3_analytical`: ePlace-A (`PlacerConfig::default`) and Xu19
//!   (`Xu19Placer::default`).
//! - `table3_sa`: SA at the paper's Table III budget
//!   (`placer_bench::sa_config`).
//!
//! Placer seeds are the paper's defaults on every workload seed; the seed
//! only orders the circuits (seed 0 keeps the paper's order). A placer
//! seed change moves ePlace-A's summed time by about a quarter, through
//! different MILP trees, which would bury any change worth gating.
//!
//! The untraced run times `Placer::place`. The traced run first times one
//! untraced pass, then places every circuit again through the layers'
//! public stage functions (`GlobalPlacer::run` and `legalize` per restart,
//! `run_global` and `legalize_two_stage`, `anneal` and `repair_placement`)
//! under spans, so each stage's time is measured where the benchmark calls
//! it.

use analog_netlist::{testcases, Circuit, Placement};
use eplace::{
    legalize, DetailedPlacer, EPlaceA, GlobalPlacer, PlaceError, Placer, PlacerConfig, RunBudget,
};
use placer_sa::{anneal, repair_placement, SaConfig, SaPlacer};
use placer_xu19::{legalize_two_stage, run_global, Xu19GlobalConfig, Xu19Placer};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

use crate::check::{verify, Tally, TOL_MEMORY};
use crate::trace::Tracer;
use crate::{
    geomean, json_num, json_str, median, ratio, repeat_setup, tail, timed_passes, Ctx, Outcome,
};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Analytical,
    Sa,
}

impl Kind {
    fn placers(self) -> &'static [&'static str] {
        match self {
            Kind::Analytical => &["eplace_a", "xu19"],
            Kind::Sa => &["sa"],
        }
    }
}

/// The placer at the paper's Table III settings, or at its default
/// settings for the set-up warm-up (SA's default budget is a small
/// fraction of the paper's).
fn make_placer(placer: &str, circuit: &Circuit, warm_up: bool) -> Box<dyn Placer> {
    match placer {
        "eplace_a" => Box::new(EPlaceA::new(PlacerConfig::default())),
        "xu19" => Box::new(Xu19Placer::default()),
        "sa" if warm_up => Box::new(SaPlacer::new(SaConfig::default())),
        "sa" => Box::new(SaPlacer::new(placer_bench::sa_config(circuit))),
        other => unreachable!("unknown placer `{other}`"),
    }
}

/// One placement of one circuit.
struct Placed {
    placer: &'static str,
    circuit: String,
    ms: f64,
    hpwl: f64,
    area: f64,
}

/// The paper circuits in the seed's order.
fn circuits(seed: u64) -> Vec<Circuit> {
    let mut all = testcases::all_testcases();
    if seed != 0 {
        all.shuffle(&mut StdRng::seed_from_u64(seed));
    }
    all
}

/// `Placer::place` with an unlimited budget, timed and checked.
fn place_cold(
    placer: &'static str,
    circuit: &Circuit,
    warm_up: bool,
    tally: &mut Tally,
) -> Option<Placed> {
    let p = make_placer(placer, circuit, warm_up);
    let t = Instant::now();
    let outcome = p.place(circuit, &RunBudget::unlimited());
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let what = format!("{placer} {}", circuit.name());
    let sol = match outcome {
        Ok(o) if o.is_complete() => o
            .solution()
            .cloned()
            .expect("complete outcomes carry a solution"),
        Ok(o) => {
            tally.outcome(&what, Err(format!("unbudgeted run ended {}", o.status())));
            return None;
        }
        Err(e) => {
            tally.outcome(&what, Err(e.to_string()));
            return None;
        }
    };
    let ok = tally.outcome(
        &what,
        verify(circuit, &sol.placement, sol.hpwl, sol.area, TOL_MEMORY),
    );
    ok.then(|| Placed {
        placer,
        circuit: circuit.name().to_string(),
        ms,
        hpwl: sol.hpwl,
        area: sol.area,
    })
}

fn pass(kind: Kind, circuits: &[Circuit], tally: &mut Tally) -> Vec<Placed> {
    let mut out = Vec::new();
    for c in circuits {
        for &placer in kind.placers() {
            out.extend(place_cold(placer, c, false, tally));
        }
    }
    out
}

/// Set-up: build the circuits and warm each placer up on the smallest
/// one (code paging, SIMD selection and allocator pools settle there).
fn setup(kind: Kind, seed: u64, tally: &mut Tally) -> Vec<Circuit> {
    let circuits = circuits(seed);
    let smallest = circuits
        .iter()
        .min_by_key(|c| c.num_devices())
        .expect("ten paper circuits");
    for &placer in kind.placers() {
        place_cold(placer, smallest, true, tally);
    }
    circuits
}

pub fn run(kind: Kind, ctx: &Ctx) -> Outcome {
    let mut tally = Tally::default();
    let (circuits, setup_s) = repeat_setup(|_| setup(kind, ctx.seed, &mut tally));
    if ctx.trace {
        return run_traced(kind, &circuits, tally);
    }
    let passes = timed_passes(ctx.seconds, |_| pass(kind, &circuits, &mut tally));
    let mut out = Outcome::new(tally);
    let pass_stat = |f: &dyn Fn(&[Placed]) -> f64| {
        median(&passes.iter().map(|(p, _)| f(p)).collect::<Vec<_>>())
    };
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|(p, _)| p.iter().map(|r| r.ms))
        .collect();
    let wall: f64 = passes.iter().map(|(_, s)| s).sum();
    let t = tail(&latencies);
    out.metrics.insert("setup_s", setup_s);
    out.metrics.insert(
        "place_s",
        pass_stat(&|p| p.iter().map(|r| r.ms).sum::<f64>() / 1e3),
    );
    out.metrics.insert(
        "hpwl_gm",
        pass_stat(&|p| geomean(&p.iter().map(|r| r.hpwl).collect::<Vec<_>>())),
    );
    out.metrics.insert(
        "area_gm",
        pass_stat(&|p| geomean(&p.iter().map(|r| r.area).collect::<Vec<_>>())),
    );
    out.metrics
        .insert("jobs_per_s", latencies.len() as f64 / wall);
    out.metrics.insert("ok_frac", 1.0 - out.tally.failed_frac());

    for &placer in kind.placers() {
        let of = |p: &[Placed]| -> Vec<(f64, f64, f64)> {
            p.iter()
                .filter(|r| r.placer == placer)
                .map(|r| (r.ms, r.hpwl, r.area))
                .collect()
        };
        let place_s = median(
            &passes
                .iter()
                .map(|(p, _)| of(p).iter().map(|r| r.0).sum::<f64>() / 1e3)
                .collect::<Vec<_>>(),
        );
        let first = of(&passes[0].0);
        out.detail(format!("{placer}.place_s"), place_s, "s");
        out.detail(
            format!("{placer}.hpwl_gm"),
            geomean(&first.iter().map(|r| r.1).collect::<Vec<_>>()),
            "um",
        );
        out.detail(
            format!("{placer}.area_gm"),
            geomean(&first.iter().map(|r| r.2).collect::<Vec<_>>()),
            "um2",
        );
    }
    out.detail("passes", passes.len() as f64, "count");
    out.detail("p50_ms (per placement)", median(&latencies), "ms");
    out.detail(format!("tail_ms (slowest of {})", t.samples), t.value, "ms");
    // Each circuit's result next to the geomeans, so drift in one circuit
    // (a MILP cap outcome under host load) is not averaged away.
    for r in &passes[0].0 {
        out.detail(format!("{}.{}.hpwl", r.placer, r.circuit), r.hpwl, "um");
        out.detail(format!("{}.{}.area", r.placer, r.circuit), r.area, "um2");
        out.records.push(format!(
            r#"{{"placer": {}, "circuit": {}, "ms": {}, "hpwl": {}, "area": {}}}"#,
            json_str(r.placer),
            json_str(&r.circuit),
            json_num(r.ms),
            json_num(r.hpwl),
            json_num(r.area)
        ));
    }
    out
}

/// Per-pass sums the stage functions return (work counts the spans
/// cannot see).
#[derive(Default)]
struct Work {
    global_iters: usize,
    detailed_rounds: usize,
    sa_moves: usize,
}

/// ePlace-A's restart loop, as `EPlaceA::place` runs it, through the
/// public stage functions: seeded GP then ILP legalization per restart,
/// keeping the best result by area·HPWL.
fn eplace_a_stages(
    circuit: &Circuit,
    tr: &mut Tracer,
    req: u64,
    work: &mut Work,
) -> Result<(Placement, f64, f64), PlaceError> {
    let config = PlacerConfig::default();
    let util_ladder = [1.0, 1.0, 1.0, 1.5];
    let mut best: Option<(Placement, f64, f64)> = None;
    let mut last_err = None;
    for k in 0..config.restarts.max(1) {
        let mut global = config.global.clone();
        global.seed = config.global.seed + k as u64;
        global.utilization = (global.utilization * util_ladder[k % util_ladder.len()]).min(0.8);
        let (gp, stats) = tr.span("global.run", req, |_| {
            GlobalPlacer::new(global).run(circuit)
        });
        work.global_iters += stats.iterations;
        let dp = tr.span("detailed.legalize", req, |_| {
            if config.preserve_gp {
                DetailedPlacer::new(config.detailed.clone()).run_preserving(circuit, &gp)
            } else {
                legalize(circuit, &gp, &config.detailed)
            }
        });
        match dp {
            Ok((placement, ds)) => {
                work.detailed_rounds += ds.rounds;
                let better = best.as_ref().is_none_or(|b| b.1 * b.2 > ds.hpwl * ds.area);
                if better {
                    best = Some((placement, ds.hpwl, ds.area));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.ok_or_else(|| last_err.expect("at least one restart ran"))
}

fn staged_place(
    placer: &str,
    circuit: &Circuit,
    tr: &mut Tracer,
    req: u64,
    work: &mut Work,
) -> Result<(Placement, f64, f64), String> {
    match placer {
        "eplace_a" => tr
            .span("eplace.place", req, |tr| {
                eplace_a_stages(circuit, tr, req, work)
            })
            .map_err(|e| e.to_string()),
        "xu19" => tr.span("xu19.place", req, |tr| {
            let (gp, _) = tr.span("xu19.run_global", req, |_| {
                run_global(circuit, &Xu19GlobalConfig::default())
            });
            let (p, stats) = tr
                .span("xu19.legalize_two_stage", req, |_| {
                    legalize_two_stage(circuit, &gp)
                })
                .map_err(|e| e.to_string())?;
            Ok((p, stats.hpwl, stats.area))
        }),
        "sa" => tr.span("sa.place", req, |tr| {
            let cfg = placer_bench::sa_config(circuit);
            let annealed = tr.span("sa.anneal", req, |_| anneal(circuit, &cfg, None));
            work.sa_moves += annealed.moves;
            let p = tr
                .span("sa.repair_placement", req, |_| {
                    repair_placement(circuit, &annealed.placement)
                })
                .map_err(|e| e.to_string())?;
            let (h, a) = (p.hpwl(circuit), p.area(circuit));
            Ok((p, h, a))
        }),
        other => unreachable!("unknown placer `{other}`"),
    }
}

fn noop_observer(_kind: &'static str, _t_us: u64, _fields: &[(&'static str, f64)]) {}

/// Circuits the tracing overhead is measured on: the five smallest, so
/// the traced run stays near the length of an untraced one.
const OVERHEAD_CIRCUITS: usize = 5;

fn run_traced(kind: Kind, circuits: &[Circuit], mut tally: Tally) -> Outcome {
    let mut small: Vec<usize> = (0..circuits.len()).collect();
    small.sort_by_key(|&i| circuits[i].num_devices());
    small.truncate(OVERHEAD_CIRCUITS);
    let subset: Vec<Circuit> = small.iter().map(|&i| circuits[i].clone()).collect();
    let t = Instant::now();
    pass(kind, &subset, &mut tally);
    let untraced_s = t.elapsed().as_secs_f64();

    let mut tr = Tracer::new(Instant::now(), 0, true);
    let mut work = Work::default();
    // Activates the counters the telemetry build keeps; resets them first.
    placer_telemetry::install_observer(noop_observer);
    let t = Instant::now();
    let mut per_circuit = Vec::new();
    let mut subset_s = 0.0;
    for (req, c) in circuits.iter().enumerate() {
        let circuit_t = Instant::now();
        for &placer in kind.placers() {
            let what = format!("{placer} {} (stages)", c.name());
            match staged_place(placer, c, &mut tr, req as u64, &mut work) {
                Ok((p, h, a)) => {
                    tally.outcome(&what, verify(c, &p, h, a, TOL_MEMORY));
                }
                Err(e) => {
                    tally.outcome(&what, Err(e));
                }
            }
        }
        if small.contains(&req) {
            subset_s += circuit_t.elapsed().as_secs_f64();
        }
        per_circuit.push(c.name().to_string());
    }
    let traced_s = t.elapsed().as_secs_f64();
    let mut out = Outcome::new(tally);
    out.layer_common(&tr);
    placer_telemetry::uninstall_observer();

    let count = |name: &str| placer_telemetry::counter_value(name).unwrap_or(0) as f64;
    let eplace_ms = tr.total_ms("eplace.place");
    let (global_ms, detailed_ms) = (tr.total_ms("global.run"), tr.total_ms("detailed.legalize"));
    let anneal_ms = tr.total_ms("sa.anneal");
    let m = &mut out.metrics;
    m.insert("global.ms", global_ms);
    m.insert("global.iters", work.global_iters as f64);
    m.insert("global.share", ratio(global_ms, eplace_ms));
    m.insert("detailed.ms", detailed_ms);
    m.insert("detailed.rounds", work.detailed_rounds as f64);
    m.insert("detailed.share", ratio(detailed_ms, eplace_ms));
    m.insert("xu19.global_ms", tr.total_ms("xu19.run_global"));
    m.insert("xu19.legalize_ms", tr.total_ms("xu19.legalize_two_stage"));
    m.insert("sa.anneal_ms", anneal_ms);
    m.insert("sa.repair_ms", tr.total_ms("sa.repair_placement"));
    m.insert("sa.moves", work.sa_moves as f64);
    m.insert(
        "sa.moves_per_s",
        ratio(work.sa_moves as f64, anneal_ms / 1e3),
    );
    m.insert(
        "sa.accept_rate",
        ratio(count("sa_accepts"), count("sa_moves")),
    );
    m.insert("trace.overhead_frac", subset_s / untraced_s - 1.0);

    // Per-circuit stage split, so the circuit that dominates shows.
    let globals = tr.durations_ms("global.run");
    let details = tr.durations_ms("detailed.legalize");
    let restarts = PlacerConfig::default().restarts.max(1);
    if kind == Kind::Analytical {
        for (i, name) in per_circuit.iter().enumerate() {
            let g: f64 = globals.iter().skip(i * restarts).take(restarts).sum();
            let d: f64 = details.iter().skip(i * restarts).take(restarts).sum();
            out.detail(format!("eplace_a.{name}.global_ms"), g, "ms");
            out.detail(format!("eplace_a.{name}.detailed_ms"), d, "ms");
        }
    }
    out.detail("untraced_small5_s", untraced_s, "s");
    out.detail("traced_small5_s", subset_s, "s");
    out.detail("traced_pass_s", traced_s, "s");
    out.tracer = Some(tr);
    out
}
