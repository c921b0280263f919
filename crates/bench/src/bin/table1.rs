//! Table I: soft vs. hard symmetry constraints in global placement
//! (post-detailed-placement area/HPWL/runtime on CC-OTA, Comp2, VCO2).
//!
//! To isolate the GP effect, each mode runs single-restart with
//! structure-preserving legalization and metrics are averaged over five
//! seeds (restart selection and the reassignment passes would otherwise
//! mask the soft-vs-hard difference behind seed variance).
//!
//! Paper shape: hard constraints increase both area and wirelength.

use analog_netlist::{testcases, Circuit};
use eplace::{EPlaceA, PlaceOutcome, Placer, PlacerConfig, RunBudget, SymmetryMode};
use placer_bench::print_row;

fn averaged(circuit: &Circuit, mode: SymmetryMode) -> (f64, f64, f64) {
    let mut area = 0.0;
    let mut hpwl = 0.0;
    let mut seconds = 0.0;
    let seeds = 5u64;
    let mut successes = 0.0;
    for seed in 1..=seeds {
        let mut config = PlacerConfig::default();
        config.global.symmetry = mode;
        config.global.seed = seed;
        config.restarts = 1;
        config.preserve_gp = true;
        if let Ok(PlaceOutcome::Complete(result)) =
            EPlaceA::new(config).place(circuit, &RunBudget::unlimited())
        {
            area += result.area;
            hpwl += result.hpwl;
            seconds += result.stage1_seconds + result.stage2_seconds;
            successes += 1.0;
        }
    }
    (area / successes, hpwl / successes, seconds / successes)
}

fn main() {
    let widths = [8usize, 10, 10, 10, 10, 10, 10];
    print_row(
        &[
            "Design".into(),
            "SoftArea".into(),
            "HardArea".into(),
            "SoftHPWL".into(),
            "HardHPWL".into(),
            "Soft s".into(),
            "Hard s".into(),
        ],
        &widths,
    );
    for circuit in [testcases::cc_ota(), testcases::comp2(), testcases::vco2()] {
        let soft = averaged(&circuit, SymmetryMode::Soft);
        let hard = averaged(&circuit, SymmetryMode::Hard);
        print_row(
            &[
                circuit.name().to_string(),
                format!("{:.1}", soft.0),
                format!("{:.1}", hard.0),
                format!("{:.1}", soft.1),
                format!("{:.1}", hard.1),
                format!("{:.2}", soft.2),
                format!("{:.2}", hard.2),
            ],
            &widths,
        );
    }
    println!("\n(5-seed averages; paper: hard symmetry in GP worsens both area and HPWL)");
}
