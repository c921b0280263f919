//! Output checks. Every placement a workload gets back is tested with
//! `Placement::is_legal`, which shares no code with the legalizers, and its
//! HPWL and area are recomputed from the coordinates and compared with the
//! values the placer reported.

use analog_netlist::{Circuit, Placement};

/// Legality tolerance (µm) for placements handed over in memory; the same
/// tolerance the job engine stamps into its reports.
pub const TOL_MEMORY: f64 = 1e-6;
/// Legality tolerance (µm) for placements read back from `.place` files,
/// which round coordinates to 1e-6 µm.
pub const TOL_FILE: f64 = 1e-5;

/// Requests attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts one failure (an error, a refusal or a wrong output).
    pub fn fail(&mut self, what: &str, why: impl std::fmt::Display) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(format!("{what}: {why}"));
        }
    }

    /// Counts the outcome of one attempted request.
    pub fn outcome(&mut self, what: &str, result: Result<(), String>) -> bool {
        self.attempt();
        match result {
            Ok(()) => true,
            Err(why) => {
                self.fail(what, why);
                false
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

fn close(got: f64, want: f64, tol: f64) -> bool {
    (got - want).abs() <= tol * (1.0 + want.abs())
}

/// Checks a placement of `circuit` against the legality oracle and the
/// reported HPWL and area. `tol` is the legality tolerance in µm; the
/// metric comparison allows the same relative slack.
pub fn verify(
    circuit: &Circuit,
    p: &Placement,
    hpwl: f64,
    area: f64,
    tol: f64,
) -> Result<(), String> {
    if p.len() != circuit.num_devices() || p.flips.len() != p.len() {
        return Err(format!(
            "{} positions for {} devices",
            p.len(),
            circuit.num_devices()
        ));
    }
    if p.positions
        .iter()
        .any(|(x, y)| !x.is_finite() || !y.is_finite())
    {
        return Err("non-finite coordinate".into());
    }
    if !p.is_legal(circuit, tol) {
        return Err(format!(
            "illegal: {} overlapping pairs, symmetry {:.3e}, alignment {:.3e}, ordering {:.3e}",
            p.overlapping_pairs(circuit, tol).len(),
            p.symmetry_violation(circuit),
            p.alignment_violation(circuit),
            p.ordering_violation(circuit)
        ));
    }
    let (h, a) = (p.hpwl(circuit), p.area(circuit));
    if !close(h, hpwl, tol) {
        return Err(format!("reported hpwl {hpwl} but the placement has {h}"));
    }
    if !close(a, area, tol) {
        return Err(format!("reported area {area} but the placement has {a}"));
    }
    Ok(())
}
