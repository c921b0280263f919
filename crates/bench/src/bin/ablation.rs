//! Ablation study for §IV-C's three explanations of ePlace-A's quality
//! edge over \[11\]:
//!
//! 1. explicit area optimization (η·Area(v) in GP; Fig. 2 has the sweep),
//! 2. WA instead of LSE wirelength smoothing,
//! 3. device flipping in detailed placement (Table IV has the head-to-head).
//!
//! This binary toggles each knob inside ePlace-A itself, holding everything
//! else fixed.

use eplace::{EPlaceA, PlacerConfig, Smoothing};
use placer_bench::{paper_circuits, print_row, run_placer};

fn main() {
    let widths = [8usize, 16, 10, 10];
    print_row(
        &[
            "Design".into(),
            "variant".into(),
            "area".into(),
            "hpwl".into(),
        ],
        &widths,
    );
    let variants: Vec<(&str, PlacerConfig)> = vec![
        ("baseline", PlacerConfig::default()),
        ("no-area-term", {
            let mut c = PlacerConfig::default();
            c.global.eta_scale = 0.0;
            c
        }),
        ("lse-smoothing", {
            let mut c = PlacerConfig::default();
            c.global.smoothing = Smoothing::Lse;
            c
        }),
        ("no-flipping", {
            let mut c = PlacerConfig::default();
            c.detailed.flipping = false;
            c
        }),
    ];
    // Fan the (circuit, variant) grid out in parallel, printing in order.
    let circuits = paper_circuits();
    let grid = placer_parallel::par_map(circuits.len() * variants.len(), |k| {
        let circuit = &circuits[k / variants.len()];
        let (_, config) = &variants[k % variants.len()];
        run_placer(&EPlaceA::new(config.clone()), circuit)
    });
    for (k, run) in grid.into_iter().enumerate() {
        let circuit = &circuits[k / variants.len()];
        let (name, _) = variants[k % variants.len()];
        print_row(
            &[
                circuit.name().to_string(),
                name.to_string(),
                format!("{:.1}", run.area),
                format!("{:.1}", run.hpwl),
            ],
            &widths,
        );
        if k % variants.len() == variants.len() - 1 {
            println!();
        }
    }
    println!("(each knob off should cost quality relative to the baseline)");
}
