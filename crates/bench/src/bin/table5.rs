//! Table V: FOM comparison among the three methods, each in conventional
//! and performance-driven form (Perf* = our extension of \[11\]).
//!
//! Paper shape: performance-driven variants lift FOM for every method;
//! the analytical ones gain more than SA; ePlace-AP is best (≈0.90 avg).

use eplace::{EPlaceA, PlacerConfig};
use placer_bench::{
    fom_of, paper_circuits, print_row, run_placer, run_sa_perf, run_xu19_perf, sa_config,
    train_model,
};
use placer_sa::SaPlacer;
use placer_xu19::Xu19Placer;

fn main() {
    let widths = [8usize, 8, 8, 8, 8, 8, 8];
    print_row(
        &[
            "Design".into(),
            "SA conv".into(),
            "SA perf".into(),
            "[11]cnv".into(),
            "[11]prf".into(),
            "eA conv".into(),
            "eAP prf".into(),
        ],
        &widths,
    );
    let mut sums = [0.0f64; 6];
    let mut count = 0.0;
    // Model training + six placer runs per circuit are independent across
    // circuits; fan them out and print in the paper's order.
    let circuits = paper_circuits();
    let all_foms = placer_parallel::par_map(circuits.len(), |i| {
        let circuit = &circuits[i];
        let model = train_model(circuit);
        let ev = &model.evaluator;
        [
            fom_of(
                circuit,
                ev,
                &run_placer(&SaPlacer::new(sa_config(circuit)), circuit),
            ),
            fom_of(circuit, ev, &run_sa_perf(circuit, &model)),
            fom_of(circuit, ev, &run_placer(&Xu19Placer::default(), circuit)),
            fom_of(circuit, ev, &run_xu19_perf(circuit, &model)),
            fom_of(
                circuit,
                ev,
                &run_placer(&EPlaceA::new(PlacerConfig::default()), circuit),
            ),
            fom_of(circuit, ev, &run_placer(&model.eplace_ap(), circuit)),
        ]
    });
    for (circuit, foms) in circuits.iter().zip(all_foms) {
        for (s, f) in sums.iter_mut().zip(&foms) {
            *s += f;
        }
        count += 1.0;
        print_row(
            &[
                circuit.name().to_string(),
                format!("{:.2}", foms[0]),
                format!("{:.2}", foms[1]),
                format!("{:.2}", foms[2]),
                format!("{:.2}", foms[3]),
                format!("{:.2}", foms[4]),
                format!("{:.2}", foms[5]),
            ],
            &widths,
        );
    }
    println!();
    print_row(
        &[
            "Avg.".into(),
            format!("{:.2}", sums[0] / count),
            format!("{:.2}", sums[1] / count),
            format!("{:.2}", sums[2] / count),
            format!("{:.2}", sums[3] / count),
            format!("{:.2}", sums[4] / count),
            format!("{:.2}", sums[5] / count),
        ],
        &widths,
    );
    println!("\n(paper averages: SA 0.81/0.87, [11] 0.81/0.88, ePlace 0.81/0.90)");
}
