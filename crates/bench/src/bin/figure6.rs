//! Figure 6: FOM–area tradeoff on CM-OTA1 by varying the performance
//! weights of the three performance-driven methods.
//!
//! Paper shape: ePlace-AP's points sit nearest the upper-left corner
//! (high FOM at small area).

use analog_netlist::testcases;
use eplace::{EPlaceAP, PerfConfig, PlacerConfig};
use placer_bench::{fom_of, print_row, run_placer, train_model, RunMetrics};
use placer_sa::SaPlacer;
use placer_xu19::Xu19Placer;

fn main() {
    let circuit = testcases::cm_ota1();
    let model = train_model(&circuit);
    let widths = [10usize, 12, 10, 8];
    print_row(
        &["method".into(), "param".into(), "area".into(), "FOM".into()],
        &widths,
    );

    for alpha in [0.1, 0.3, 0.6, 1.2, 2.5] {
        let placer = EPlaceAP::new(
            PlacerConfig::default(),
            PerfConfig::new(alpha, model.dataset.scale),
            model.network.clone(),
        );
        let run = run_placer(&placer, &circuit);
        print_row(
            &[
                "ePlace-AP".into(),
                format!("a={alpha}"),
                format!("{:.1}", run.area),
                format!("{:.2}", fom_of(&circuit, &model.evaluator, &run)),
            ],
            &widths,
        );
    }

    for weight in [10.0, 30.0, 60.0, 120.0, 250.0] {
        let run: RunMetrics = SaPlacer::new(placer_bench::sa_perf_config(&circuit))
            .place_perf(&circuit, &model.network, weight, model.dataset.scale)
            .expect("SA failed")
            .into();
        print_row(
            &[
                "SA-perf".into(),
                format!("w={weight}"),
                format!("{:.1}", run.area),
                format!("{:.2}", fom_of(&circuit, &model.evaluator, &run)),
            ],
            &widths,
        );
    }

    for alpha in [0.1, 0.3, 0.6, 1.2, 2.5] {
        let run: RunMetrics = Xu19Placer::default()
            .place_perf(&circuit, &model.network, alpha, model.dataset.scale)
            .expect("xu19 failed")
            .into();
        print_row(
            &[
                "[11]perf".into(),
                format!("a={alpha}"),
                format!("{:.1}", run.area),
                format!("{:.2}", fom_of(&circuit, &model.evaluator, &run)),
            ],
            &widths,
        );
    }
    println!("\n(plot FOM vs area; paper: ePlace-AP nearest the upper-left corner)");
}
