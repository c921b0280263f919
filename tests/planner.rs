//! Integration tests for the separation planner against real placer
//! outputs: the plan must always admit the legal placements the detailed
//! placers produce.

use analog_netlist::testcases;
use eplace::{EPlaceA, Placer, PlacerConfig, RunBudget, SeparationPlanner};

#[test]
fn final_placements_satisfy_their_own_plans() {
    // Re-deriving a plan from a legal placement and checking the placement
    // against the plan's edges must succeed: the geometry the edges were
    // read from trivially satisfies them. This guards the edge-direction
    // bookkeeping (left/right mix-ups would fail immediately).
    for circuit in [testcases::adder(), testcases::cc_ota(), testcases::comp1()] {
        let outcome = EPlaceA::new(PlacerConfig::default())
            .place(&circuit, &RunBudget::unlimited())
            .unwrap_or_else(|e| panic!("{}: {e}", circuit.name()));
        let result = outcome.solution().expect("complete");
        let mut planner = SeparationPlanner::new(&circuit);
        planner.extend_all_pairs(&circuit, &result.placement);
        for &(a, b) in planner.x_edges() {
            let xa = result.placement.position(a).0;
            let xb = result.placement.position(b).0;
            let gap = (circuit.device(a).width + circuit.device(b).width) / 2.0;
            assert!(
                xa + gap <= xb + 1e-6,
                "{}: x edge {} -> {} violated by its own source placement",
                circuit.name(),
                circuit.device(a).name,
                circuit.device(b).name
            );
        }
        for &(a, b) in planner.y_edges() {
            let ya = result.placement.position(a).1;
            let yb = result.placement.position(b).1;
            let gap = (circuit.device(a).height + circuit.device(b).height) / 2.0;
            assert!(
                ya + gap <= yb + 1e-6,
                "{}: y edge {} -> {} violated",
                circuit.name(),
                circuit.device(a).name,
                circuit.device(b).name
            );
        }
    }
}

#[test]
fn ordering_chains_always_planned_in_order() {
    for circuit in testcases::all_testcases() {
        let planner = SeparationPlanner::new(&circuit);
        for ordering in &circuit.constraints().orderings {
            for w in ordering.devices.windows(2) {
                let edges = match ordering.direction {
                    analog_netlist::OrderDirection::Horizontal => planner.x_edges(),
                    analog_netlist::OrderDirection::Vertical => planner.y_edges(),
                };
                assert!(
                    edges.contains(&(w[0], w[1])),
                    "{}: chain edge missing",
                    circuit.name()
                );
            }
        }
    }
}
