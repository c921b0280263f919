//! Compact tour of the paper's experiments at reduced budgets: one circuit
//! per experiment class, so the whole tour finishes in well under a minute.
//! The full-budget regenerators live in `crates/bench/src/bin/`.
//!
//! ```sh
//! cargo run --release --example paper_tables
//! ```

use analog_netlist::testcases;
use analog_perf::{train_performance_model, DatasetOptions, Evaluator};
use eplace::{EPlaceA, EPlaceAP, PerfConfig, PlacerConfig, SymmetryMode};
use placer_bench::run_placer;
use placer_gnn::TrainOptions;
use placer_sa::{SaConfig, SaPlacer};
use placer_xu19::Xu19Placer;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = testcases::cm_ota1();
    println!("=== circuit: {} ===\n", circuit.name());

    // Table I flavor: soft vs hard symmetry in global placement.
    let soft = run_placer(&EPlaceA::new(PlacerConfig::default()), &circuit);
    let mut hard_cfg = PlacerConfig::default();
    hard_cfg.global.symmetry = SymmetryMode::Hard;
    let hard = run_placer(&EPlaceA::new(hard_cfg), &circuit);
    println!(
        "[Table I]  soft symmetry: area {:.1}, HPWL {:.1}",
        soft.area, soft.hpwl
    );
    println!(
        "[Table I]  hard symmetry: area {:.1}, HPWL {:.1}\n",
        hard.area, hard.hpwl
    );

    // Figure 2 flavor: area-term ablation.
    let mut no_area_cfg = PlacerConfig::default();
    no_area_cfg.global.eta_scale = 0.0;
    let no_area = run_placer(&EPlaceA::new(no_area_cfg), &circuit);
    println!(
        "[Fig. 2]   without area term: area {:.1} ({:+.0}%), HPWL {:.1} ({:+.0}%)\n",
        no_area.area,
        100.0 * (no_area.area / soft.area - 1.0),
        no_area.hpwl,
        100.0 * (no_area.hpwl / soft.hpwl - 1.0),
    );

    // Table III flavor: the three methods.
    let sa = SaPlacer::new(SaConfig {
        temperatures: 80,
        moves_per_temperature: 60 * circuit.num_devices(),
        ..SaConfig::default()
    });
    let sa = run_placer(&sa, &circuit);
    let xu = run_placer(&Xu19Placer::default(), &circuit);
    println!(
        "[Table III] SA:       area {:.1}, HPWL {:.1}, {:.2}s",
        sa.area, sa.hpwl, sa.seconds
    );
    println!(
        "[Table III] [11]:     area {:.1}, HPWL {:.1}, {:.2}s",
        xu.area, xu.hpwl, xu.seconds
    );
    println!(
        "[Table III] ePlace-A: area {:.1}, HPWL {:.1}, {:.2}s\n",
        soft.area, soft.hpwl, soft.seconds
    );

    // Table V/VI flavor: performance-driven placement.
    let evaluator = Evaluator::new(&circuit);
    let (network, dataset) = train_performance_model(
        &circuit,
        &evaluator,
        &DatasetOptions {
            samples: 400,
            ..DatasetOptions::default()
        },
        &TrainOptions {
            epochs: 15,
            ..TrainOptions::default()
        },
    );
    let ap = EPlaceAP::new(
        PlacerConfig::default(),
        PerfConfig::new(0.6, dataset.scale),
        network,
    );
    let ap = run_placer(&ap, &circuit);
    println!(
        "[Table V]  FOM conventional {:.3} -> performance-driven {:.3}",
        evaluator.fom(&circuit, &soft.placement),
        evaluator.fom(&circuit, &ap.placement),
    );
    Ok(())
}
