//! Property tests for the two hard `Placer` contracts the job engine
//! leans on: cancel-at-any-point + resume is bit-identical to an
//! uninterrupted run, and an exhausted budget still yields a legal
//! placement. Both properties are exercised through [`make_placer`], i.e.
//! on the exact placer configurations the engine runs.

use analog_netlist::{testcases, Circuit};
use eplace::{CircuitArtifacts, PlaceOutcome, Placer, RunBudget};
use placer_jobs::{make_placer, Profile};
use proptest::prelude::*;

const PLACERS: [&str; 4] = ["eplace-a", "eplace-ap", "sa", "xu19"];

fn build(placer: usize) -> Box<dyn Placer> {
    make_placer(PLACERS[placer], Profile::Small, None)
        .expect("small-profile config is valid")
        .0
}

fn three_smallest() -> Vec<Circuit> {
    let mut all = testcases::all_testcases();
    all.sort_by_key(Circuit::num_devices);
    all.truncate(3);
    all
}

fn assert_bit_identical(a: &PlaceOutcome, b: &PlaceOutcome, what: &str) {
    let (a, b) = (a.solution().expect(what), b.solution().expect(what));
    assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits(), "{what}: hpwl differs");
    assert_eq!(a.area.to_bits(), b.area.to_bits(), "{what}: area differs");
    assert_eq!(a.placement.positions.len(), b.placement.positions.len());
    for (i, (pa, pb)) in a
        .placement
        .positions
        .iter()
        .zip(&b.placement.positions)
        .enumerate()
    {
        assert_eq!(
            (pa.0.to_bits(), pa.1.to_bits()),
            (pb.0.to_bits(), pb.1.to_bits()),
            "{what}: device {i} position differs"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Contract 3: cancelling at an arbitrary budget check and resuming
    /// from the checkpoint reproduces the uninterrupted run bit-for-bit,
    /// for every placer the engine can build.
    #[test]
    fn cancel_then_resume_is_bit_identical(placer in 0usize..4, cancel_at in 1u64..12) {
        let artifacts = CircuitArtifacts::build(testcases::adder());
        let p = build(placer);

        let reference = p
            .run(&artifacts, None, &RunBudget::unlimited())
            .expect("uninterrupted run succeeds");

        let budget = RunBudget::unlimited();
        budget.cancel_after_checks(cancel_at);
        let first = p.run(&artifacts, None, &budget).expect("cancelled run succeeds");
        match first {
            // The run finished before check `cancel_at`: nothing to resume,
            // but determinism must still hold.
            PlaceOutcome::Complete(_) => {
                assert_bit_identical(&first, &reference, PLACERS[placer]);
            }
            PlaceOutcome::Cancelled(ck) => {
                let resumed = p
                    .run(&artifacts, Some(&ck), &RunBudget::unlimited())
                    .expect("resume succeeds");
                prop_assert!(resumed.is_complete(), "resume under unlimited budget completes");
                assert_bit_identical(&resumed, &reference, PLACERS[placer]);
            }
            PlaceOutcome::Exhausted(_) => {
                prop_assert!(false, "unlimited budget cannot exhaust");
            }
        }
    }

    /// Contract 2: whatever the step budget, an `Exhausted` outcome is a
    /// legal placement on the three smallest paper circuits.
    #[test]
    fn exhausted_is_always_legal(placer in 0usize..4, steps in 1u64..6) {
        let p = build(placer);
        for circuit in three_smallest() {
            let budget = RunBudget::unlimited().with_steps(steps);
            let outcome = p.place(&circuit, &budget).expect("budgeted run succeeds");
            let sol = outcome.solution().expect("step budgets never cancel");
            prop_assert!(
                sol.placement.is_legal(&circuit, 1e-6),
                "{} returned an illegal {} placement with {steps} steps",
                PLACERS[placer],
                outcome.status(),
            );
            prop_assert!(sol.hpwl.is_finite() && sol.hpwl > 0.0);
        }
    }
}
