//! Property tests for the two `Placer::replace` contracts the ECO path
//! ships on:
//!
//! 1. the **fallback** (dirty fraction above threshold) is bit-identical
//!    to cold-placing the edited circuit — for every placer the job
//!    engine can build;
//! 2. the **fast path** (single-device resize) produces a legal placement
//!    whose HPWL stays within a bounded factor of a cold re-place, on the
//!    three smallest paper circuits.

use analog_netlist::{testcases, Circuit, DeviceKind, NetlistDelta};
use eplace::{eco, CircuitArtifacts, EcoConfig, EcoOutcome, Placer, RunBudget};
use placer_jobs::{make_placer, Profile};
use proptest::prelude::*;

const PLACERS: [&str; 4] = ["eplace-a", "eplace-ap", "sa", "xu19"];

fn build(placer: usize) -> Box<dyn Placer> {
    make_placer(PLACERS[placer], Profile::Small, None)
        .expect("small-profile config is valid")
        .0
}

/// A single-MOS resize deck: the canonical "tweak one transistor late in
/// the flow" ECO. `pick` selects the transistor, `step` the new gate
/// width (1.0–4.0 µm, the footprint range the testcases use).
fn resize_deck(circuit: &Circuit, pick: usize, step: usize) -> String {
    let mos: Vec<&str> = circuit
        .devices()
        .iter()
        .filter(|d| matches!(d.kind, DeviceKind::Nmos | DeviceKind::Pmos))
        .map(|d| d.name.as_str())
        .collect();
    let width = 1.0 + (step % 7) as f64 * 0.5;
    format!("resize {} {width}\n", mos[pick % mos.len()])
}

fn three_smallest() -> Vec<Circuit> {
    let mut all = testcases::all_testcases();
    all.sort_by_key(Circuit::num_devices);
    all.truncate(3);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Fallback contract: with the dirty threshold forced to zero, every
    /// non-empty delta takes the cold path, and that path is bit-identical
    /// to placing the edited circuit from scratch — hpwl, area and every
    /// device position. This is what makes the fallback the correctness
    /// reference for the fast path.
    #[test]
    fn fallback_replace_is_bit_identical_to_cold(
        placer in 0usize..4,
        pick in 0usize..16,
        step in 0usize..16,
    ) {
        let circuit = testcases::cc_ota();
        let p = build(placer);
        let deck = resize_deck(&circuit, pick, step);
        let delta = NetlistDelta::parse(&deck).expect("generated decks parse");
        let edited = delta.apply(&circuit).expect("resize applies").circuit;

        let cold = p
            .place(&edited, &RunBudget::unlimited())
            .expect("cold place succeeds");
        let cold_sol = cold.solution().expect("unlimited budget completes");

        let artifacts = CircuitArtifacts::build(circuit.clone());
        let base = p
            .run(&artifacts, None, &RunBudget::unlimited())
            .expect("base place succeeds");
        let warm = eco::warm_checkpoint(
            &circuit,
            &base.solution().expect("complete").placement,
        );
        let strict = EcoConfig {
            dirty_threshold: 0.0,
            ..EcoConfig::default()
        };
        let rep = p
            .replace(&artifacts, &delta, &warm, &RunBudget::unlimited(), &strict)
            .expect("fallback replace succeeds");
        prop_assert!(!rep.outcome.is_fast(), "threshold 0 must force the fallback");
        prop_assert!(rep.dirty_fraction > 0.0);
        let fb = rep.outcome.solution().expect("fallback completes");

        prop_assert_eq!(fb.hpwl.to_bits(), cold_sol.hpwl.to_bits(),
            "{}: fallback hpwl differs from cold", PLACERS[placer]);
        prop_assert_eq!(fb.area.to_bits(), cold_sol.area.to_bits(),
            "{}: fallback area differs from cold", PLACERS[placer]);
        for (i, (pa, pb)) in fb
            .placement
            .positions
            .iter()
            .zip(&cold_sol.placement.positions)
            .enumerate()
        {
            prop_assert_eq!(
                (pa.0.to_bits(), pa.1.to_bits()),
                (pb.0.to_bits(), pb.1.to_bits()),
                "{}: device {} position differs", PLACERS[placer], i
            );
        }
    }

    /// Fast-path contract: a single-transistor resize stays under the
    /// default dirty threshold, takes the incremental path, and yields a
    /// legal placement whose HPWL is within 2x of a cold re-place of the
    /// edited circuit — the quality band the region-bounded repair is
    /// allowed to trade for its ~100x latency win.
    #[test]
    fn fast_path_is_legal_and_near_cold_quality(
        placer in 0usize..4,
        pick in 0usize..16,
    ) {
        for circuit in three_smallest() {
            let p = build(placer);
            let deck = resize_deck(&circuit, pick, pick / 3);
            let delta = NetlistDelta::parse(&deck).expect("generated decks parse");
            let edited = delta.apply(&circuit).expect("resize applies").circuit;

            let artifacts = CircuitArtifacts::build(circuit.clone());
            let base = p
                .run(&artifacts, None, &RunBudget::unlimited())
                .expect("base place succeeds");
            let warm = eco::warm_checkpoint(
                &circuit,
                &base.solution().expect("complete").placement,
            );
            let rep = p
                .replace(
                    &artifacts,
                    &delta,
                    &warm,
                    &RunBudget::unlimited(),
                    &EcoConfig::default(),
                )
                .expect("eco replace succeeds");
            prop_assert!(
                rep.outcome.is_fast(),
                "{}: one resized device of {} must stay under the threshold",
                PLACERS[placer],
                circuit.name()
            );
            prop_assert!(matches!(rep.outcome, EcoOutcome::Fast(_)));
            let fast = rep.outcome.solution().expect("fast path yields a solution");
            prop_assert!(
                fast.placement.is_legal(rep.artifacts.circuit(), 1e-6),
                "{}: fast-path placement on {} is illegal",
                PLACERS[placer],
                circuit.name()
            );

            let cold = p
                .place(&edited, &RunBudget::unlimited())
                .expect("cold place succeeds");
            let cold_sol = cold.solution().expect("unlimited budget completes");
            prop_assert!(
                fast.hpwl <= 2.0 * cold_sol.hpwl,
                "{} on {}: fast hpwl {} vs cold {}",
                PLACERS[placer],
                circuit.name(),
                fast.hpwl,
                cold_sol.hpwl
            );
        }
    }
}
