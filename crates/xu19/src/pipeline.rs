//! End-to-end baseline pipeline: \[11\]'s global placement plus two-stage LP
//! legalization, and its "Perf*" extension (Table V/VII).

use std::time::Instant;

use analog_netlist::{Circuit, Placement};
use eplace::{
    expect_placer, Checkpoint, CheckpointError, PlaceError, PlaceOutcome, PlaceSolution, Placer,
    RunBudget,
};
use placer_gnn::Network;

use crate::global::{
    run_global_budgeted, ExtraGradientFn, Xu19Checkpoint, Xu19GlobalConfig, Xu19Run,
};
use crate::legalize::legalize_two_stage;

/// The ISPD'19 analytical analog placer (our reimplementation of \[11\]).
///
/// # Examples
///
/// ```
/// use analog_netlist::testcases;
/// use eplace::{Placer, RunBudget};
/// use placer_xu19::Xu19Placer;
///
/// # fn main() -> Result<(), eplace::PlaceError> {
/// let circuit = testcases::adder();
/// let outcome = Xu19Placer::default().place(&circuit, &RunBudget::unlimited())?;
/// let result = outcome.solution().expect("an unlimited budget completes");
/// assert!(result.placement.overlapping_pairs(&circuit, 1e-6).is_empty());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Xu19Placer {
    /// Global placement configuration.
    pub global: Xu19GlobalConfig,
}

impl Xu19Placer {
    /// Creates a placer with the given global configuration.
    pub fn new(global: Xu19GlobalConfig) -> Self {
        Self { global }
    }

    /// Runs the "Perf*" performance-driven extension: the same GNN gradient
    /// term ePlace-AP uses, grafted onto this baseline's global placement.
    ///
    /// # Errors
    ///
    /// Propagates [`PlaceError`] from the LP stages.
    pub fn place_perf(
        &self,
        circuit: &Circuit,
        network: &Network,
        alpha: f64,
        scale: f64,
    ) -> Result<PlaceSolution, PlaceError> {
        // Same zero-allocation gradient hook state ePlace-AP uses.
        let mut state = eplace::PerfGradHook::new(circuit, network, alpha, scale);
        let mut hook = move |pts: &[(f64, f64)], grad: &mut [f64]| -> f64 { state.eval(pts, grad) };
        match self.run_engine(circuit, Some(&mut hook), None, &RunBudget::unlimited())? {
            PlaceOutcome::Complete(solution) => Ok(solution),
            _ => unreachable!("an unlimited budget completes"),
        }
    }

    /// Global placement (with the optional Perf* gradient term), then
    /// two-stage LP legalization.
    fn run_engine(
        &self,
        circuit: &Circuit,
        extra: Option<&mut ExtraGradientFn<'_>>,
        resume: Option<&Xu19Checkpoint>,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("xu19_place");
        let _span = SPAN.enter();
        let t0 = Instant::now();
        let run = run_global_budgeted(circuit, &self.global, extra, Some(budget), resume);
        let stage1_seconds = t0.elapsed().as_secs_f64();
        let (gp, stats, exhausted) = match run {
            Xu19Run::Complete(gp, stats) => (gp, stats, false),
            // The expired run's coordinates still legalize: the same LP
            // stages that finish a full run also repair a partial one.
            Xu19Run::Exhausted(gp, stats) => (gp, stats, true),
            Xu19Run::Cancelled(ck) => {
                return Ok(PlaceOutcome::Cancelled(encode_checkpoint(circuit, &ck)))
            }
        };
        let t1 = Instant::now();
        let (placement, lstats) = legalize_two_stage(circuit, &gp)?;
        let solution = PlaceSolution {
            placement,
            hpwl: lstats.hpwl,
            area: lstats.area,
            stage1_seconds,
            stage2_seconds: t1.elapsed().as_secs_f64(),
            iterations: stats.iterations,
        };
        Ok(if exhausted {
            PlaceOutcome::Exhausted(solution)
        } else {
            PlaceOutcome::Complete(solution)
        })
    }
}

impl Placer for Xu19Placer {
    fn name(&self) -> &'static str {
        "xu19"
    }

    /// Runs the conventional (performance-oblivious) flow. The global pass
    /// derives only cheap per-run state (bell grids, LSE scratch) from the
    /// circuit, so the artifacts contribute just the parsed circuit.
    fn run(
        &self,
        artifacts: &eplace::CircuitArtifacts,
        resume: Option<&Checkpoint>,
        budget: &RunBudget,
    ) -> Result<PlaceOutcome, PlaceError> {
        let circuit = artifacts.circuit();
        let ck = match resume {
            Some(ck) => {
                expect_placer(ck, self.name())?;
                Some(decode_checkpoint(ck, circuit, &self.global)?)
            }
            None => None,
        };
        self.run_engine(circuit, None, ck.as_ref(), budget)
    }

    fn eco_refine(
        &self,
        artifacts: &eplace::CircuitArtifacts,
        warm: &Placement,
        _dirty: &[bool],
        _eco: &eplace::EcoConfig,
    ) -> Result<Option<(Placement, usize)>, PlaceError> {
        // Warm CG: resume the outer loop at its final round with the warm
        // coordinates as the frozen iterate. One round of CG polishes the
        // edit's surroundings; the ECO engine's region repair afterwards
        // pins everything outside the edit region, which realizes the
        // frozen-coordinate contract exactly.
        let circuit = artifacts.circuit();
        let n = circuit.num_devices();
        let mut x = vec![0.0; 2 * n];
        for (i, &(px, py)) in warm.positions.iter().enumerate() {
            x[i] = px;
            x[n + i] = py;
        }
        let ck = Xu19Checkpoint {
            round: self.global.rounds.saturating_sub(1),
            x,
            beta: 1.0,
            iterations: 0,
            overflow: 1.0,
        };
        let run = run_global_budgeted(circuit, &self.global, None, None, Some(&ck));
        match run {
            Xu19Run::Complete(mut p, stats) | Xu19Run::Exhausted(mut p, stats) => {
                // The CG stage does not model flips; keep the warm states.
                p.flips = warm.flips.clone();
                Ok(Some((p, stats.iterations)))
            }
            Xu19Run::Cancelled(_) => unreachable!("no budget, cannot cancel"),
        }
    }

    fn probe(&self, circuit: &Circuit, checkpoint: &Checkpoint) -> Option<eplace::RaceProbe> {
        // Best-so-far quality from the frozen solver coordinates — a pure
        // function of the checkpoint text (racing determinism contract).
        if checkpoint.placer() != "xu19" {
            return None;
        }
        let n = circuit.num_devices();
        let x = checkpoint.get_f64s("x").ok()?;
        if x.len() != 2 * n {
            return None;
        }
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (x[i], x[n + i])).collect();
        Some(eplace::RaceProbe {
            hpwl: eplace::wirelength::exact_hpwl(circuit, &pts),
            area: eplace::exact_area(circuit, &pts),
        })
    }
}

fn bad_checkpoint(message: String) -> PlaceError {
    PlaceError::BadCheckpoint(CheckpointError { line: 0, message })
}

fn encode_checkpoint(circuit: &Circuit, ck: &Xu19Checkpoint) -> Checkpoint {
    let mut out = Checkpoint::new("xu19");
    out.put_u64("n", circuit.num_devices() as u64);
    out.put_u64("round", ck.round as u64);
    out.put_f64("beta", ck.beta);
    out.put_u64("iterations", ck.iterations as u64);
    out.put_f64("overflow", ck.overflow);
    out.put_f64s("x", &ck.x);
    out
}

fn decode_checkpoint(
    ck: &Checkpoint,
    circuit: &Circuit,
    cfg: &Xu19GlobalConfig,
) -> Result<Xu19Checkpoint, PlaceError> {
    let n = circuit.num_devices();
    let stored_n = ck.get_u64("n")? as usize;
    if stored_n != n {
        return Err(bad_checkpoint(format!(
            "checkpoint is for a {stored_n}-device circuit, got {n} devices"
        )));
    }
    let x = ck.get_f64s("x")?;
    if x.len() != 2 * n {
        return Err(bad_checkpoint(format!(
            "`x` holds {} coordinates, expected {}",
            x.len(),
            2 * n
        )));
    }
    let round = ck.get_u64("round")? as usize;
    if round >= cfg.rounds {
        return Err(bad_checkpoint(format!(
            "`round` {round} out of range for {} rounds",
            cfg.rounds
        )));
    }
    Ok(Xu19Checkpoint {
        round,
        x: x.to_vec(),
        beta: ck.get_f64("beta")?,
        iterations: ck.get_u64("iterations")? as usize,
        overflow: ck.get_f64("overflow")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;
    use eplace::CircuitArtifacts;
    use placer_gnn::Network;

    fn solve(placer: &Xu19Placer, circuit: &Circuit) -> PlaceSolution {
        let outcome = placer.place(circuit, &RunBudget::unlimited()).unwrap();
        assert!(outcome.is_complete(), "an unlimited budget completes");
        outcome.solution().cloned().unwrap()
    }

    #[test]
    fn baseline_pipeline_is_legal() {
        let c = testcases::cc_ota();
        let r = solve(&Xu19Placer::default(), &c);
        assert!(r.placement.overlapping_pairs(&c, 1e-6).is_empty());
        assert!(r.placement.symmetry_violation(&c) < 1e-6);
        assert!(r.hpwl > 0.0 && r.area > 0.0);
    }

    #[test]
    fn perf_variant_runs() {
        let c = testcases::adder();
        let network = Network::default_config(6);
        let r = Xu19Placer::default()
            .place_perf(&c, &network, 0.5, 20.0)
            .unwrap();
        assert!(r.placement.overlapping_pairs(&c, 1e-6).is_empty());
    }

    #[test]
    fn cancel_resume_roundtrips_through_the_text_codec() {
        let c = testcases::cc_ota();
        let artifacts = CircuitArtifacts::build(c.clone());
        let placer = Xu19Placer::default();
        let a = solve(&placer, &c);

        for cancel_at in [0u64, 2] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let outcome = placer.run(&artifacts, None, &budget).unwrap();
            let ck = outcome.checkpoint().expect("cancelled");
            let decoded = Checkpoint::decode(&ck.encode()).unwrap();
            let resumed = placer
                .run(&artifacts, Some(&decoded), &RunBudget::unlimited())
                .unwrap();
            let b = resumed.solution().expect("complete after resume");
            assert_eq!(a.placement, b.placement, "cancel_at={cancel_at}");
            assert_eq!(a.hpwl.to_bits(), b.hpwl.to_bits());
            assert_eq!(a.iterations, b.iterations);
        }
    }

    #[test]
    fn exhausted_runs_return_legal_placements() {
        let c = testcases::cc_ota();
        let placer = Xu19Placer::default();
        for steps in [1u64, 2] {
            let outcome = placer.place(&c, &RunBudget::steps(steps)).unwrap();
            assert!(outcome.is_exhausted(), "steps={steps}");
            let s = outcome.solution().unwrap();
            assert!(
                s.placement.is_legal(&c, 1e-6),
                "steps={steps}: exhausted placement must stay legal"
            );
        }
    }

    #[test]
    fn eco_replace_fast_path_is_legal() {
        let c = testcases::cc_ota();
        let placer = Xu19Placer::default();
        let cold = solve(&placer, &c);
        let artifacts = CircuitArtifacts::build(c.clone());
        let warm = eplace::eco::warm_checkpoint(&c, &cold.placement);
        let delta = analog_netlist::NetlistDelta::parse("resize RB 18k\n").unwrap();
        let rep = placer
            .replace(
                &artifacts,
                &delta,
                &warm,
                &RunBudget::unlimited(),
                &eplace::EcoConfig::default(),
            )
            .unwrap();
        assert!(rep.outcome.is_fast());
        let sol = rep.outcome.solution().unwrap();
        assert!(sol.placement.is_legal(rep.artifacts.circuit(), 1e-6));
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let c = testcases::adder();
        let artifacts = CircuitArtifacts::build(c.clone());
        let placer = Xu19Placer::default();
        let mut foreign = Checkpoint::new("sa");
        foreign.put_u64("n", c.num_devices() as u64);
        let err = placer
            .run(&artifacts, Some(&foreign), &RunBudget::unlimited())
            .unwrap_err();
        assert!(matches!(err, PlaceError::BadCheckpoint(_)));
    }
}
