//! Figure 5: HPWL–area tradeoff on CM-OTA1 by sweeping placement
//! parameters of all three methods.
//!
//! Paper shape: ePlace-A's points sit closest to the lower-left corner
//! (Pareto-dominant) across the sweep, not just at one setting.

use analog_netlist::testcases;
use eplace::{EPlaceA, PlacerConfig};
use placer_bench::{print_row, run_placer};
use placer_sa::{SaConfig, SaPlacer};
use placer_xu19::{Xu19GlobalConfig, Xu19Placer};

fn main() {
    let circuit = testcases::cm_ota1();
    let widths = [10usize, 12, 10, 10];
    print_row(
        &[
            "method".into(),
            "param".into(),
            "area".into(),
            "hpwl".into(),
        ],
        &widths,
    );

    // ePlace-A: sweep the DP area weight μ and GP area scale η.
    for (mu, eta) in [(0.05, 0.1), (0.2, 0.2), (0.5, 0.35), (1.5, 0.5), (4.0, 0.8)] {
        let mut cfg = PlacerConfig::default();
        cfg.detailed.mu = mu;
        cfg.global.eta_scale = eta;
        let run = run_placer(&EPlaceA::new(cfg), &circuit);
        print_row(
            &[
                "ePlace-A".into(),
                format!("mu={mu}"),
                format!("{:.1}", run.area),
                format!("{:.1}", run.hpwl),
            ],
            &widths,
        );
    }

    // SA: sweep the HPWL weight.
    for w in [0.2, 0.5, 1.0, 2.0, 5.0] {
        let sa = SaPlacer::new(SaConfig {
            hpwl_weight: w,
            ..placer_bench::sa_config(&circuit)
        });
        let result = run_placer(&sa, &circuit);
        print_row(
            &[
                "SA".into(),
                format!("w={w}"),
                format!("{:.1}", result.area),
                format!("{:.1}", result.hpwl),
            ],
            &widths,
        );
    }

    // [11]: sweep the density/utilization knobs.
    for util in [0.25, 0.3, 0.35, 0.45, 0.55] {
        let xu19 = Xu19Placer::new(Xu19GlobalConfig {
            utilization: util,
            ..Xu19GlobalConfig::default()
        });
        let result = run_placer(&xu19, &circuit);
        print_row(
            &[
                "[11]".into(),
                format!("util={util}"),
                format!("{:.1}", result.area),
                format!("{:.1}", result.hpwl),
            ],
            &widths,
        );
    }
    println!("\n(plot area vs. HPWL; paper: ePlace-A closest to the lower-left corner)");
}
