//! Regenerates `BENCH_hotpaths.json`: before/after wall-times for the hot
//! paths the engine work optimized.
//!
//! "Before" is the seed implementation, kept in-tree as `*_reference`;
//! "after" is the shipping path. `--quick` cuts the sample counts for CI
//! smoke runs; pass an output path as the first non-flag argument to write
//! somewhere other than `./BENCH_hotpaths.json`.
//!
//! `--check[=PATH]` additionally compares the measured speedups against a
//! committed baseline (default `BENCH_hotpaths.json` in the working
//! directory) and exits nonzero if any kernel's speedup fell to less than
//! half its committed value — speedups are machine-relative ratios, so the
//! gate ports across hardware where absolute times would not.
//!
//! The SIMD-dispatched kernels additionally get one lane per instruction
//! set the host supports (`wa_grad/scalar`, `wa_grad/avx2`, ...): the seed
//! reference pinned to the scalar backend vs the shipping path forced to
//! that ISA. `--check` skips lanes the host cannot measure and, when the
//! baseline was produced under a different `PLACER_SIMD` selection (e.g.
//! the forced-scalar CI lane), gates only the per-ISA rows.

use std::time::Instant;

use analog_netlist::{testcases, Circuit, Placement};
use eplace::wirelength::{wa_wirelength, wa_wirelength_reference};
use eplace::DensityGrid;
use placer_bench::cli::CommonOpts;
use placer_bench::{parse_speedups, spiral_positions, synthetic_circuit};
use placer_gnn::{
    CircuitGraph, GradScratch, InferenceScratch, Network, TrainOptions, Trainer, TrainingSample,
};
use placer_numeric::{Grid, PoissonSolver};
use placer_sa::{
    anneal, anneal_reference, evaluate, BlockModel, MoveEvaluator, PackScratch, SaConfig, SaState,
    SequencePair,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GRID: usize = 256;
/// `--check` fails when the `dp_milp` lane needs more simplex pivots per
/// branch-and-bound node than this.
const DP_PIVOTS_PER_NODE_CEILING: f64 = 30.0;

/// A deterministic permutation of `0..n` (multiplicative-LCG Fisher–Yates).
fn lcg_permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (s >> 33) as usize % (i + 1);
        v.swap(i, j);
    }
    v
}

/// The annealer's move repertoire, replayed through public API so both
/// pricing legs of `sa_move` see identical trial streams.
fn random_move(state: &mut SaState, num_devices: usize, rng: &mut StdRng) {
    let sp = &mut state.seq_pair;
    let m = sp.s1.len();
    match rng.gen_range(0..5) {
        0 => {
            let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
            sp.s1.swap(i, j);
        }
        1 => {
            let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
            sp.s2.swap(i, j);
        }
        2 => {
            let (i, j) = (rng.gen_range(0..m), rng.gen_range(0..m));
            sp.s1.swap(i, j);
            sp.s2.swap(i, j);
        }
        3 => {
            let i = rng.gen_range(0..m);
            let j = rng.gen_range(0..m);
            let d = sp.s1.remove(i);
            sp.s1.insert(j, d);
        }
        _ => {
            let d = rng.gen_range(0..num_devices);
            if rng.gen_bool(0.5) {
                state.flips[d].0 = !state.flips[d].0;
            } else {
                state.flips[d].1 = !state.flips[d].1;
            }
        }
    }
}

/// A deterministic off-grid placement for GNN feature refreshes.
fn staggered_placement(circuit: &Circuit) -> Placement {
    let n = circuit.num_devices();
    let mut p = Placement::new(n);
    for i in 0..n {
        p.positions[i] = (3.0 + 1.7 * i as f64, 2.0 + 0.9 * (i % 5) as f64);
    }
    p
}

/// Extracts a top-level scalar value (`"key": value`) from the JSON body.
fn parse_scalar<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\": ");
    for line in json.lines() {
        // Top-level scalars only: bench rows live in deeper, brace-prefixed
        // lines and never start with a quote.
        let t = line.trim_start();
        if !t.starts_with('"') {
            continue;
        }
        if let Some(pos) = t.find(&needle) {
            let rest = &t[pos + needle.len()..];
            return Some(rest.trim_end().trim_end_matches(',').trim_matches('"'));
        }
    }
    None
}

struct BenchRow {
    name: String,
    detail: String,
    before_ms: f64,
    after_ms: f64,
}

/// Median seconds per call over `samples` timed calls (after one warm-up).
fn time_median<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples.max(2))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

fn parse_args(
    args: &[String],
) -> Result<(bool, Option<String>, Option<String>, CommonOpts), String> {
    let mut quick = false;
    let mut check_baseline = None;
    let mut positional_out = None;
    let mut common = CommonOpts::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if common.take(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => check_baseline = Some("BENCH_hotpaths.json".to_string()),
            flag if flag.starts_with("--check=") => {
                check_baseline = flag.strip_prefix("--check=").map(str::to_string);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            path if positional_out.is_none() => positional_out = Some(path.to_string()),
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    // The kernel timing loops have no job scope or trace manifest to
    // stream, so the observability flags that need one are refused rather
    // than silently ignored.
    if common.eco_threshold.is_some() {
        return Err("`--eco-threshold` does not apply to kernel benchmarks".into());
    }
    if common.progress.is_some() || common.trace.is_some() {
        return Err("`--progress`/`--trace` do not apply to kernel benchmarks".into());
    }
    Ok((quick, check_baseline, positional_out, common))
}

fn main() {
    let t0 = Instant::now();
    let raw_args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, check_baseline, positional_out, common) = match parse_args(&raw_args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!(
                "bench_hotpaths: {e}\nusage: bench_hotpaths [OUT.json] [--quick] \
                 [--check[=BASELINE]] [--out FILE] [--threads N] [--ledger none|PATH]"
            );
            std::process::exit(2);
        }
    };
    common.apply_threads();
    // `--out` and the historical positional spelling name the same file;
    // the flag wins when both are given.
    let out_path = common
        .out
        .as_ref()
        .map(|p| p.display().to_string())
        .or(positional_out)
        .unwrap_or_else(|| "BENCH_hotpaths.json".to_string());
    let samples = if quick { 3 } else { 15 };
    let mut rows = Vec::new();

    // --- poisson_solve: planned DCT solve_into vs mirror-extended FFT. ---
    {
        let mut solver = PoissonSolver::new(GRID, GRID, 1.0, 1.0);
        let mut rho = Grid::new(GRID, GRID);
        for iy in 0..GRID {
            for ix in 0..GRID {
                let (x, y) = (ix as f64 / GRID as f64, iy as f64 / GRID as f64);
                rho.set(ix, iy, (6.3 * x).sin() * (4.7 * y).cos());
            }
        }
        let mut out = Grid::new(GRID, GRID);
        let after = time_median(samples, || solver.solve_into(&rho, &mut out));
        let before = time_median(samples, || {
            std::hint::black_box(solver.solve_reference(&rho));
        });
        rows.push(BenchRow {
            name: "poisson_solve".to_string(),
            detail: format!("{GRID}x{GRID} grid"),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- density_eval: block scatter/solve/gather vs allocate-per-call. ---
    {
        let circuit = synthetic_circuit(1500, 11);
        let side = (circuit.total_device_area() / 0.5).sqrt();
        let positions = spiral_positions(&circuit, side);
        let mut grid = DensityGrid::new((0.0, 0.0), (side, side), GRID);
        let after = time_median(samples, || {
            std::hint::black_box(grid.evaluate(&circuit, &positions));
        });
        let before = time_median(samples, || {
            std::hint::black_box(grid.evaluate_reference(&circuit, &positions));
        });
        rows.push(BenchRow {
            name: "density_eval".to_string(),
            detail: format!("{GRID}x{GRID} grid, 1500 devices"),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- wa_grad: block-partial accumulation vs the single-pass seed. ----
    {
        let circuit = synthetic_circuit(4096, 3);
        let side = (circuit.total_device_area() / 0.5).sqrt();
        let positions = spiral_positions(&circuit, side);
        let gamma = side * 0.02;
        let mut grad = vec![0.0; 2 * circuit.num_devices()];
        let after = time_median(samples, || {
            std::hint::black_box(wa_wirelength(&circuit, &positions, gamma, &mut grad));
        });
        let before = time_median(samples, || {
            std::hint::black_box(wa_wirelength_reference(
                &circuit, &positions, gamma, &mut grad,
            ));
        });
        rows.push(BenchRow {
            name: "wa_grad".to_string(),
            detail: "4096 devices".to_string(),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- sa_pack: O(n log n) Fenwick packing vs the O(n²) seed scan. ----
    {
        let n = 2048;
        let sp = SequencePair {
            s1: lcg_permutation(n, 0xA5A5_1234),
            s2: lcg_permutation(n, 0x5A5A_4321),
            flips: vec![(false, false); n],
        };
        let widths: Vec<f64> = (0..n).map(|i| 1.0 + (i % 13) as f64 * 0.5).collect();
        let heights: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64 * 0.8).collect();
        let mut scratch = PackScratch::new();
        let mut out = Vec::new();
        let after = time_median(samples, || {
            sp.pack_dims_with(&widths, &heights, &mut scratch, &mut out);
            std::hint::black_box(&out);
        });
        let before = time_median(samples, || {
            std::hint::black_box(sp.pack_dims_reference(&widths, &heights));
        });
        rows.push(BenchRow {
            name: "sa_pack".to_string(),
            detail: format!("{n} blocks, one packing"),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- sa_move: incremental trial pricing vs full recomputation. ------
    {
        let circuit = testcases::cc_ota();
        let model = BlockModel::new(&circuit);
        let cfg = SaConfig::default();
        let n = circuit.num_devices();
        let mut rng = StdRng::seed_from_u64(7);
        let mut state = SaState {
            seq_pair: SequencePair::identity(model.len()),
            flips: vec![(false, false); n],
        };
        for _ in 0..4 * model.len() {
            random_move(&mut state, n, &mut rng);
        }
        let mut evaluator = MoveEvaluator::new(&circuit, &model, &cfg, &state, None);
        let mut trial = state.clone();
        let moves = 1000;
        // Both legs price the exact same 1000 unaccepted trial moves.
        let after = time_median(samples, || {
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..moves {
                trial.copy_from(&state);
                random_move(&mut trial, n, &mut rng);
                std::hint::black_box(evaluator.eval_trial(&trial));
            }
        });
        let before = time_median(samples, || {
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..moves {
                trial.copy_from(&state);
                random_move(&mut trial, n, &mut rng);
                std::hint::black_box(evaluate(&circuit, &model, &trial, &cfg, None));
            }
        });
        rows.push(BenchRow {
            name: "sa_move".to_string(),
            detail: format!("cc_ota, {moves} trial moves"),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- sa_sweep: incremental annealer vs the full-recompute seed, -----
    // --- single-threaded so the ratio is purely algorithmic.        -----
    {
        let circuit = testcases::cc_ota();
        // The production budget (SaConfig::default): 120 levels x 160
        // moves per chain, so per-chain setup amortizes the way a real
        // placement run amortizes it.
        let cfg = SaConfig {
            chains: 4,
            ..SaConfig::default()
        };
        let sa_samples = if quick { 2 } else { 5 };
        placer_parallel::set_max_threads(1);
        let before = time_median(sa_samples, || {
            std::hint::black_box(anneal_reference(&circuit, &cfg, None));
        });
        let after = time_median(sa_samples, || {
            std::hint::black_box(anneal(&circuit, &cfg, None));
        });
        placer_parallel::set_max_threads(0);
        rows.push(BenchRow {
            name: "sa_sweep".to_string(),
            detail: "cc_ota, 4 chains x 19200 moves (full recompute vs incremental)".to_string(),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- sa_chains: the same incremental run, 1 thread vs 4 requested ---
    // --- worker threads (≈1.0x on single-core hosts — honest number). ---
    {
        let circuit = testcases::cc_ota();
        let cfg = SaConfig {
            temperatures: 10,
            moves_per_temperature: 100,
            chains: 4,
            ..SaConfig::default()
        };
        let sa_samples = if quick { 2 } else { 5 };
        placer_parallel::set_max_threads(1);
        let before = time_median(sa_samples, || {
            std::hint::black_box(anneal(&circuit, &cfg, None));
        });
        placer_parallel::set_max_threads(4);
        let after = time_median(sa_samples, || {
            std::hint::black_box(anneal(&circuit, &cfg, None));
        });
        placer_parallel::set_max_threads(0);
        rows.push(BenchRow {
            name: "sa_chains".to_string(),
            detail: "cc_ota, 4 chains, 1 thread vs 4 requested threads".to_string(),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- sa_chains_par: the same 1-vs-4-thread comparison above the -----
    // --- CHAIN_WORK_THRESHOLD crossover (sa_chains sits below it, so ----
    // --- its honest ratio is ~1.0x: the annealer stays serial there). ---
    // --- 50 devices x 30 temps x 400 moves = 600k device-moves per ------
    // --- chain, where the fan-out is actually taken. --------------------
    {
        let circuit = testcases::scalable_array(8);
        let cfg = SaConfig {
            temperatures: 30,
            moves_per_temperature: 400,
            chains: 4,
            ..SaConfig::default()
        };
        let sa_samples = if quick { 2 } else { 5 };
        placer_parallel::set_max_threads(1);
        let before = time_median(sa_samples, || {
            std::hint::black_box(anneal(&circuit, &cfg, None));
        });
        placer_parallel::set_max_threads(4);
        let after = time_median(sa_samples, || {
            std::hint::black_box(anneal(&circuit, &cfg, None));
        });
        placer_parallel::set_max_threads(0);
        rows.push(BenchRow {
            name: "sa_chains_par".to_string(),
            detail: "array8 (50 devices), 4 chains x 600k device-moves, 1 vs 4 threads".to_string(),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- eco_replace: single-device resize handled by the incremental ---
    // --- ECO path (artifact patch + warm-start + region re-legalize) ----
    // --- vs the cold path (rebuild every artifact, re-place from -------
    // --- scratch). Same placer, same budget, same edit. -----------------
    {
        use analog_netlist::NetlistDelta;
        use eplace::{CircuitArtifacts, EcoConfig, RunBudget};
        use placer_jobs::{make_placer, Profile};

        let circuit = testcases::cc_ota();
        let (placer, _) =
            make_placer("eplace-a", Profile::Small, None).expect("small profile is valid");
        let delta = NetlistDelta::parse("resize RB 18k\n").expect("canonical deck");
        let edited = delta.apply(&circuit).expect("delta applies").circuit;
        let artifacts = CircuitArtifacts::build(circuit.clone());
        let cold_base = placer
            .run(&artifacts, None, &RunBudget::unlimited())
            .expect("base place succeeds");
        let warm = eplace::eco::warm_checkpoint(
            &circuit,
            &cold_base.solution().expect("complete").placement,
        );
        let eco = EcoConfig::default();
        let before = time_median(samples, || {
            let rebuilt = CircuitArtifacts::build(edited.clone());
            std::hint::black_box(
                placer
                    .run(&rebuilt, None, &RunBudget::unlimited())
                    .expect("cold re-place succeeds"),
            );
        });
        let after = time_median(samples, || {
            let rep = placer
                .replace(&artifacts, &delta, &warm, &RunBudget::unlimited(), &eco)
                .expect("eco replace succeeds");
            assert!(
                rep.outcome.is_fast(),
                "a 1/13 resize must take the fast path"
            );
            std::hint::black_box(rep);
        });
        rows.push(BenchRow {
            name: "eco_replace".to_string(),
            detail: "cc_ota, resize RB, cold rebuild+re-place vs patch+warm ECO".to_string(),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- dp_milp: one ePlace-A detailed-placement ILP (VCO2, x axis, ---
    // --- first round, as DetailedPlacer builds it) solved by the ------
    // --- warm-started branch and bound under the shipping options, ----
    // --- vs a cold root-LP solve paid at every one of its nodes (what --
    // --- each node cost before warm starts). Pivots per node are a -----
    // --- machine-independent count, gated by an absolute ceiling. ------
    let dp_pivots_per_node;
    {
        use eplace::{DetailedConfig, DetailedPlacer, GlobalConfig, GlobalPlacer};

        let circuit = testcases::vco2();
        let global = GlobalPlacer::new(GlobalConfig::default()).run(&circuit).0;
        let config = DetailedConfig::default();
        let [model, _] = DetailedPlacer::new(config.clone()).axis_models(&circuit, &global);
        let (solved, work) = model.solve_milp_counted(&config.milp);
        solved.expect("VCO2 x-axis ILP solves");
        dp_pivots_per_node = work.pivots as f64 / work.nodes as f64;
        let after = time_median(samples, || {
            std::hint::black_box(model.solve_milp(&config.milp).expect("solves"));
        });
        let cold_lp = time_median(samples, || {
            std::hint::black_box(model.solve_lp().expect("root LP solves"));
        });
        rows.push(BenchRow {
            name: "dp_milp".to_string(),
            detail: format!(
                "vco2 x axis, {} nodes, {dp_pivots_per_node:.1} pivots/node, {:.0} ns/node, cold LP per node vs warm B&B",
                work.nodes,
                after * 1e9 / work.nodes as f64
            ),
            before_ms: cold_lp * work.nodes as f64 * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- gnn_forward: CSR scratch-reusing inference vs the dense seed. ---
    // At paper-testcase sizes (≤32 nodes, ≈30% dense Â) both legs are
    // tanh-bound; 512 nodes (≈2.6% dense) is where the O(n²) adjacency
    // products the CSR plan eliminates dominate — same scale policy as
    // `wa_grad`/`sa_pack` above. EXPERIMENTS.md records both sizes.
    {
        let circuit = synthetic_circuit(512, 5);
        let n = circuit.num_devices();
        let network = Network::default_config(17);
        let graph = CircuitGraph::new(&circuit, &staggered_placement(&circuit), 20.0);
        let mut scratch = InferenceScratch::new(&network, n);
        let calls = if quick { 20 } else { 50 };
        let after = time_median(samples, || {
            for _ in 0..calls {
                std::hint::black_box(network.predict_with(&graph, &mut scratch));
            }
        });
        let before = time_median(samples, || {
            for _ in 0..calls {
                std::hint::black_box(network.predict(&graph));
            }
        });
        rows.push(BenchRow {
            name: "gnn_forward".to_string(),
            detail: format!("synthetic, {n} nodes, {calls} inferences"),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- gnn_posgrad: input-gradient-only CSR backward vs the full ------
    // --- dense backward of the seed (which also built ParamGrads it -----
    // --- immediately threw away).                                   -----
    {
        let circuit = synthetic_circuit(512, 5);
        let n = circuit.num_devices();
        let network = Network::default_config(17);
        let graph = CircuitGraph::new(&circuit, &staggered_placement(&circuit), 20.0);
        let mut scratch = GradScratch::new(&network, n);
        let mut grads = vec![(0.0, 0.0); n];
        let calls = if quick { 20 } else { 50 };
        let after = time_median(samples, || {
            for _ in 0..calls {
                std::hint::black_box(network.position_gradient_with(
                    &graph,
                    &mut scratch,
                    &mut grads,
                ));
            }
        });
        let before = time_median(samples, || {
            for _ in 0..calls {
                std::hint::black_box(network.position_gradient_reference(&graph));
            }
        });
        rows.push(BenchRow {
            name: "gnn_posgrad".to_string(),
            detail: format!("synthetic, {n} nodes, {calls} gradient calls"),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- gnn_fit: block-deterministic in-place training vs the ----------
    // --- sequential flattening seed, single-threaded so the ratio -------
    // --- is purely algorithmic.                                   -------
    {
        let circuit = testcases::scf();
        let samples_set: Vec<TrainingSample> = (0..32)
            .map(|k| {
                let mut p = staggered_placement(&circuit);
                for (i, pos) in p.positions.iter_mut().enumerate() {
                    pos.0 += (k as f64) * 0.6 + (i % 3) as f64 * 0.2;
                    pos.1 += (k as f64) * 0.3;
                }
                TrainingSample {
                    graph: CircuitGraph::new(&circuit, &p, 20.0),
                    label: f64::from(k % 2),
                }
            })
            .collect();
        let opts = TrainOptions {
            epochs: if quick { 3 } else { 8 },
            batch_size: 8,
            learning_rate: 0.05,
            seed: 1,
        };
        placer_parallel::set_max_threads(1);
        let fit_samples = if quick { 2 } else { 5 };
        let after = time_median(fit_samples, || {
            let mut network = Network::default_config(17);
            let mut trainer = Trainer::new();
            std::hint::black_box(trainer.fit(&mut network, &samples_set, &opts));
        });
        let before = time_median(fit_samples, || {
            let mut network = Network::default_config(17);
            let mut trainer = Trainer::new();
            std::hint::black_box(trainer.fit_reference(&mut network, &samples_set, &opts));
        });
        placer_parallel::set_max_threads(0);
        rows.push(BenchRow {
            name: "gnn_fit".to_string(),
            detail: format!(
                "scf, 32 samples x {} epochs, batch 8, 1 thread",
                opts.epochs
            ),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- sweep_amortized: the batched-sweep setup path. 64 variants of ---
    // --- the same circuit, each needing parsed netlist + device→net ------
    // --- index + GNN topology: cold rebuilds everything per variant, -----
    // --- the shipping path shares one ArtifactCache so variants 2..64 ----
    // --- are content-hash lookups. ---------------------------------------
    {
        use analog_netlist::parser;
        use eplace::{ArtifactCache, CircuitArtifacts};

        let circuit = testcases::cc_ota();
        let deck = parser::write_spice(&circuit);
        let cons = parser::write_constraints(&circuit);
        let variants = 64;
        let before = time_median(samples, || {
            for _ in 0..variants {
                let mut c = parser::parse_spice(&deck).expect("canonical deck");
                parser::parse_constraints(&mut c, &cons).expect("canonical constraints");
                std::hint::black_box(CircuitArtifacts::build(c));
            }
        });
        let after = time_median(samples, || {
            // A fresh cache per call keeps the first variant an honest
            // miss — the measured ratio is the real 1-build-63-hits
            // amortization, not a pre-warmed best case.
            let cache = ArtifactCache::new();
            for _ in 0..variants {
                std::hint::black_box(cache.get_or_parse(&deck, Some(&cons)).expect("cached deck"));
            }
        });
        rows.push(BenchRow {
            name: "sweep_amortized".to_string(),
            detail: format!("cc_ota, {variants} variants, cold parse+build vs artifact cache"),
            before_ms: before * 1e3,
            after_ms: after * 1e3,
        });
    }

    // --- Per-ISA lanes: the SIMD-dispatched kernels measured under each --
    // --- backend this host supports. "Before" is the seed reference ------
    // --- pinned to the scalar backend (the density reference shares the --
    // --- dispatched row kernels, so the pin matters there); "after" is ---
    // --- the shipping path forced to the lane's ISA. ---------------------
    let mut skipped: Vec<(String, String)> = Vec::new();
    {
        use placer_simd::Backend;

        // Same workloads as the unsuffixed rows above, rebuilt here so the
        // lanes stay meaningful if those rows ever change scale.
        let wa_circuit = synthetic_circuit(4096, 3);
        let wa_side = (wa_circuit.total_device_area() / 0.5).sqrt();
        let wa_positions = spiral_positions(&wa_circuit, wa_side);
        let wa_gamma = wa_side * 0.02;
        let mut wa_grad_buf = vec![0.0; 2 * wa_circuit.num_devices()];

        let d_circuit = synthetic_circuit(1500, 11);
        let d_side = (d_circuit.total_device_area() / 0.5).sqrt();
        let d_positions = spiral_positions(&d_circuit, d_side);
        let mut d_grid = DensityGrid::new((0.0, 0.0), (d_side, d_side), GRID);

        let sa_circuit = testcases::cc_ota();
        let sa_model = BlockModel::new(&sa_circuit);
        let sa_cfg = SaConfig::default();
        let sa_n = sa_circuit.num_devices();
        let mut sa_rng = StdRng::seed_from_u64(7);
        let mut sa_state = SaState {
            seq_pair: SequencePair::identity(sa_model.len()),
            flips: vec![(false, false); sa_n],
        };
        for _ in 0..4 * sa_model.len() {
            random_move(&mut sa_state, sa_n, &mut sa_rng);
        }
        let mut sa_eval = MoveEvaluator::new(&sa_circuit, &sa_model, &sa_cfg, &sa_state, None);
        let mut sa_trial = sa_state.clone();
        let sa_moves = 1000;

        // Reference legs once, pinned to scalar: the "before" column is the
        // seed cost, identical for every lane of the same kernel.
        placer_simd::force(Some(Backend::Scalar));
        let wa_before = time_median(samples, || {
            std::hint::black_box(wa_wirelength_reference(
                &wa_circuit,
                &wa_positions,
                wa_gamma,
                &mut wa_grad_buf,
            ));
        });
        let d_before = time_median(samples, || {
            std::hint::black_box(d_grid.evaluate_reference(&d_circuit, &d_positions));
        });
        let sa_before = time_median(samples, || {
            let mut rng = StdRng::seed_from_u64(99);
            for _ in 0..sa_moves {
                sa_trial.copy_from(&sa_state);
                random_move(&mut sa_trial, sa_n, &mut rng);
                std::hint::black_box(evaluate(&sa_circuit, &sa_model, &sa_trial, &sa_cfg, None));
            }
        });

        for isa in [Backend::Scalar, Backend::Avx2, Backend::Avx512] {
            if isa > placer_simd::detected() {
                // Unmeasurable lanes are reported, not silently dropped:
                // one `skipped:` line each, and the fingerprint below
                // records the list so a baseline consumer can tell a
                // skipped lane from a deleted one.
                let reason = format!("host supports up to {}", placer_simd::detected().name());
                for kernel in ["wa_grad", "density_eval", "sa_move"] {
                    skipped.push((format!("{kernel}/{}", isa.name()), reason.clone()));
                }
                continue;
            }
            placer_simd::force(Some(isa));
            let wa_after = time_median(samples, || {
                std::hint::black_box(wa_wirelength(
                    &wa_circuit,
                    &wa_positions,
                    wa_gamma,
                    &mut wa_grad_buf,
                ));
            });
            rows.push(BenchRow {
                name: format!("wa_grad/{}", isa.name()),
                detail: "4096 devices, seed reference vs dispatched".to_string(),
                before_ms: wa_before * 1e3,
                after_ms: wa_after * 1e3,
            });
            let d_after = time_median(samples, || {
                std::hint::black_box(d_grid.evaluate(&d_circuit, &d_positions));
            });
            rows.push(BenchRow {
                name: format!("density_eval/{}", isa.name()),
                detail: format!("{GRID}x{GRID} grid, 1500 devices, seed reference vs dispatched"),
                before_ms: d_before * 1e3,
                after_ms: d_after * 1e3,
            });
            let sa_after = time_median(samples, || {
                let mut rng = StdRng::seed_from_u64(99);
                for _ in 0..sa_moves {
                    sa_trial.copy_from(&sa_state);
                    random_move(&mut sa_trial, sa_n, &mut rng);
                    std::hint::black_box(sa_eval.eval_trial(&sa_trial));
                }
            });
            rows.push(BenchRow {
                name: format!("sa_move/{}", isa.name()),
                detail: format!("cc_ota, {sa_moves} trial moves, oracle vs dispatched"),
                before_ms: sa_before * 1e3,
                after_ms: sa_after * 1e3,
            });
        }
        // Back to env/CPUID resolution so the fingerprint below records the
        // backend a normal run of this build would use.
        placer_simd::force(None);
    }

    // Host/config fingerprint: timings are only comparable between runs
    // that share the build profile and feature set; the thread count and
    // host matter less (the gate compares machine-relative ratios) but are
    // recorded so drifts can be explained.
    let mut json = String::from("{\n");
    json.push_str(&format!(
        "  \"quick\": {quick},\n  \"os\": \"{}\",\n  \"arch\": \"{}\",\n  \"profile\": \"{}\",\n  \"parallel\": {},\n  \"telemetry\": {},\n  \"threads\": {},\n  \"simd_detected\": \"{}\",\n  \"simd_selected\": \"{}\",\n",
        std::env::consts::OS,
        std::env::consts::ARCH,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        cfg!(feature = "parallel"),
        cfg!(feature = "telemetry"),
        placer_parallel::max_threads(),
        placer_simd::detected().name(),
        placer_simd::selected().name()
    ));
    let skipped_lanes: Vec<String> = skipped
        .iter()
        .map(|(lane, _)| format!("\"{lane}\""))
        .collect();
    json.push_str(&format!("  \"skipped\": [{}],\n", skipped_lanes.join(", ")));
    json.push_str("  \"benches\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let speedup = r.before_ms / r.after_ms;
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"detail\": \"{}\", \"before_ms\": {:.3}, \"after_ms\": {:.3}, \"speedup\": {:.2} }}{}\n",
            r.name,
            r.detail,
            r.before_ms,
            r.after_ms,
            speedup,
            if i + 1 < rows.len() { "," } else { "" }
        ));
        println!(
            "{:<20} {:<44} before {:>9.3} ms   after {:>9.3} ms   {:>5.2}x",
            r.name, r.detail, r.before_ms, r.after_ms, speedup
        );
    }
    json.push_str("  ]\n}\n");
    for (lane, reason) in &skipped {
        println!("skipped: {lane} ({reason})");
    }
    // Snapshot the committed baseline *before* writing: with default paths
    // `--check` would otherwise compare the new file against itself.
    let baseline_snapshot = check_baseline
        .as_ref()
        .map(|p| std::fs::read_to_string(p).unwrap_or_else(|e| panic!("read baseline {p}: {e}")));
    std::fs::write(&out_path, &json).expect("write BENCH_hotpaths.json");
    println!("wrote {out_path}");

    // Run-ledger record: one line per invocation with the per-lane
    // speedups, so regressions are visible in history without diffing the
    // snapshot files by hand.
    {
        use placer_obs::ledger::{LedgerRecord, RunLedger};

        let ledger = RunLedger::from_flag(common.ledger.as_deref());
        let mut record = LedgerRecord::new("bench_hotpaths");
        record
            .flag("quick", quick)
            .str_field("out", &out_path)
            .str_field("simd_detected", placer_simd::detected().name())
            .str_field("simd_selected", placer_simd::selected().name())
            .uint("threads", placer_parallel::max_threads() as u64)
            .uint("lanes", rows.len() as u64)
            .uint("lanes_skipped", skipped.len() as u64)
            .num("wall_ms", t0.elapsed().as_secs_f64() * 1e3);
        for r in &rows {
            record.num(&format!("speedup.{}", r.name), r.before_ms / r.after_ms);
        }
        record.metrics(&placer_obs::metrics::MetricsSnapshot::capture());
        if let Err(e) = ledger.append(&record) {
            eprintln!("bench_hotpaths: appending run ledger: {e}");
        }
    }

    if let Some(baseline) = baseline_snapshot {
        let committed = parse_speedups(&baseline);
        let current = parse_speedups(&json);
        let mut failed = false;
        // Fingerprint gate: comparing a debug or differently-featured run
        // against the committed baseline would produce meaningless verdicts,
        // so mismatches there fail loudly. A thread-count difference only
        // warns — the checked quantities are per-kernel ratios.
        for key in ["profile", "parallel", "telemetry"] {
            let want = parse_scalar(&baseline, key);
            let got = parse_scalar(&json, key);
            if want.is_some() && want != got {
                println!(
                    "check: FINGERPRINT MISMATCH on {key}: baseline {}, this run {} — \
                     rebuild to match the baseline or regenerate it",
                    want.unwrap_or("<missing>"),
                    got.unwrap_or("<missing>")
                );
                failed = true;
            }
        }
        if let (Some(want), Some(got)) = (
            parse_scalar(&baseline, "threads"),
            parse_scalar(&json, "threads"),
        ) {
            if want != got {
                println!(
                    "check: warning: thread count differs (baseline {want}, this run {got}); \
                     ratios are still comparable"
                );
            }
        }
        // A per-ISA lane (`wa_grad/avx2`, ...) only gates on hosts that can
        // measure it; unsuffixed rows only gate when both runs dispatched
        // to the same SIMD backend — a forced-scalar lane would otherwise
        // "regress" every kernel whose committed speedup includes SIMD.
        let detected = placer_simd::detected();
        let baseline_simd = parse_scalar(&baseline, "simd_selected");
        let current_simd = parse_scalar(&json, "simd_selected");
        let simd_mismatch = baseline_simd.is_some() && baseline_simd != current_simd;
        if simd_mismatch {
            println!(
                "check: note: SIMD backend differs (baseline {}, this run {}); \
                 gating only the matching per-ISA lanes",
                baseline_simd.unwrap_or("<missing>"),
                current_simd.unwrap_or("<missing>")
            );
        }
        for (name, want) in &committed {
            if let Some((_, isa)) = name.split_once('/') {
                let measurable = match placer_simd::Backend::parse(isa) {
                    Some(b) => b <= detected,
                    None => false,
                };
                if !measurable {
                    println!("skipped: {name} (host supports up to {})", detected.name());
                    continue;
                }
            } else if simd_mismatch {
                println!("skipped: {name} (SIMD backend differs from baseline)");
                continue;
            }
            let Some((_, got)) = current.iter().find(|(n, _)| n == name) else {
                println!("check: kernel {name} missing from current run");
                failed = true;
                continue;
            };
            // Ratios, not absolute times: a kernel fails only if its
            // speedup collapsed to less than half the committed value.
            if *got < want / 2.0 {
                println!(
                    "check: {name} regressed — committed speedup {want:.2}x, measured {got:.2}x"
                );
                failed = true;
            } else {
                println!("check: {name} ok ({got:.2}x vs committed {want:.2}x)");
            }
        }
        // Absolute floors: unlike the relative gates above, these hold
        // regardless of what the baseline committed — each ratio is the
        // feature's contract. The artifact cache must buy at least 3x over
        // cold per-variant setup, and the incremental ECO path at least 5x
        // over a cold rebuild-and-re-place for a single-device edit.
        for (lane, floor) in [("sweep_amortized", 3.0), ("eco_replace", 5.0)] {
            if let Some((_, got)) = current.iter().find(|(n, _)| n == lane) {
                if *got < floor {
                    println!("check: {lane} below its {floor:.2}x floor — measured {got:.2}x");
                    failed = true;
                } else {
                    println!("check: {lane} ok ({got:.2}x vs {floor:.2}x floor)");
                }
            } else {
                println!("check: {lane} lane missing from current run");
                failed = true;
            }
        }
        // Pivot counts do not depend on the host, so this ceiling is
        // absolute: warm-started nodes must stay a handful of pivots each.
        if dp_pivots_per_node > DP_PIVOTS_PER_NODE_CEILING {
            println!(
                "check: dp_milp above its {DP_PIVOTS_PER_NODE_CEILING} pivots/node ceiling — \
                 measured {dp_pivots_per_node:.1}"
            );
            failed = true;
        } else {
            println!(
                "check: dp_milp ok ({dp_pivots_per_node:.1} pivots/node vs \
                 {DP_PIVOTS_PER_NODE_CEILING} ceiling)"
            );
        }
        if failed {
            std::process::exit(1);
        }
        println!("check: all kernels within 2x of committed speedups");
    }
}
