//! Cross-crate integration tests: every placer produces legal placements
//! on the paper's testcases.

use analog_netlist::testcases;
use eplace::{EPlaceA, PlacerConfig};
use placer_bench::run_placer;
use placer_sa::{SaConfig, SaPlacer};
use placer_xu19::Xu19Placer;

fn quick_sa() -> SaPlacer {
    SaPlacer::new(SaConfig {
        temperatures: 40,
        moves_per_temperature: 80,
        ..SaConfig::default()
    })
}

#[test]
fn eplace_a_is_legal_on_every_testcase() {
    for circuit in testcases::all_testcases() {
        let result = run_placer(&EPlaceA::new(PlacerConfig::default()), &circuit);
        assert!(
            result
                .placement
                .overlapping_pairs(&circuit, 1e-6)
                .is_empty(),
            "{}: overlapping devices",
            circuit.name()
        );
        assert!(
            result.placement.symmetry_violation(&circuit) < 1e-6,
            "{}: symmetry violated",
            circuit.name()
        );
        assert!(
            result.placement.alignment_violation(&circuit) < 1e-6,
            "{}: alignment violated",
            circuit.name()
        );
        assert!(
            result.placement.ordering_violation(&circuit) < 1e-6,
            "{}: ordering violated",
            circuit.name()
        );
    }
}

#[test]
fn xu19_is_legal_on_every_testcase() {
    for circuit in testcases::all_testcases() {
        let result = run_placer(&Xu19Placer::default(), &circuit);
        assert!(
            result.placement.is_legal(&circuit, 1e-6),
            "{}: illegal placement",
            circuit.name()
        );
    }
}

#[test]
fn sa_is_legal_on_every_testcase() {
    for circuit in testcases::all_testcases() {
        let result = run_placer(&quick_sa(), &circuit);
        assert!(
            result.placement.is_legal(&circuit, 1e-6),
            "{}: illegal placement",
            circuit.name()
        );
    }
}

#[test]
fn results_are_reported_consistently() {
    let circuit = testcases::cc_ota();
    let result = run_placer(&EPlaceA::new(PlacerConfig::default()), &circuit);
    // Reported metrics must match recomputation from the placement.
    assert!((result.hpwl - result.placement.hpwl(&circuit)).abs() < 1e-6);
    assert!((result.area - result.placement.area(&circuit)).abs() < 1e-6);
    // Area can never be below the sum of device footprints.
    assert!(result.area >= circuit.total_device_area() - 1e-9);
}
