//! Table VI: detailed performance metrics of CC-OTA under ePlace-A
//! (conventional) vs. ePlace-AP (performance-driven).
//!
//! Paper shape: ePlace-AP recovers the UGF spec and gains substantial BW at
//! a modest phase-margin cost.

use analog_netlist::testcases;
use eplace::{EPlaceA, PlacerConfig};
use placer_bench::{print_row, run_placer, train_model};

fn main() {
    let circuit = testcases::cc_ota();
    let model = train_model(&circuit);
    let conventional = run_placer(&EPlaceA::new(PlacerConfig::default()), &circuit);
    let perf_driven = run_placer(&model.eplace_ap(), &circuit);

    let report_a = model.evaluator.evaluate(&circuit, &conventional.placement);
    let report_ap = model.evaluator.evaluate(&circuit, &perf_driven.placement);

    let widths = [18usize, 12, 16, 16];
    print_row(
        &[
            "Metric".into(),
            "Spec".into(),
            "ePlace-A".into(),
            "ePlace-AP".into(),
        ],
        &widths,
    );
    for (ma, mp) in report_a.metrics.iter().zip(&report_ap.metrics) {
        print_row(
            &[
                ma.name.clone(),
                format!("{:.1}", ma.spec),
                format!("{:.1} ({:.0}%)", ma.value, 100.0 * ma.normalized()),
                format!("{:.1} ({:.0}%)", mp.value, 100.0 * mp.normalized()),
            ],
            &widths,
        );
    }
    println!();
    print_row(
        &[
            "FOM".into(),
            String::new(),
            format!("{:.2}", report_a.fom()),
            format!("{:.2}", report_ap.fom()),
        ],
        &widths,
    );
    println!("\n(paper: AP meets gain+UGF, +43% BW, −8% PM; FOM 0.86 → 0.96)");
}
