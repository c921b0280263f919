//! Integrated legalization + detailed placement via ILP (Eq. 4a–4j).
//!
//! The paper's formulation minimizes HPWL plus a μ-weighted area surrogate
//! subject to net bounding boxes (4b), chip bounds (4c), pin positions with
//! binary device flipping (4d), pairwise separations for GP-overlapping
//! pairs (4e), hard symmetry (4f), alignment (4g/4h), ordering (4i), and
//! integrality on a placement grid (4j).
//!
//! Implementation notes (documented in DESIGN.md):
//!
//! - The model is **axis-separable**: the objective 4a splits into
//!   `Σ(x̄−x̲) + (μH̃/2)·W` plus the y mirror, and every constraint touches
//!   one axis only. We therefore solve two independent ILPs, which keeps
//!   branch-and-bound sizes small (the paper's tractability argument).
//! - Coordinates are integers on a configurable grid; device half-extents
//!   are rounded **up** to grid units so integral solutions are always
//!   physically legal.
//! - Separation directions are derived by [`SeparationPlanner`], which keeps
//!   them consistent with the symmetry/alignment equalities and ordering
//!   chains (a raw GP-inherited direction can contradict them transitively).
//! - Because only GP-overlapping pairs are separated, the ILP can introduce
//!   *new* overlaps; a cutting-plane loop re-solves with separations for any
//!   residual overlap until the layout is overlap-free.

use analog_netlist::{AlignKind, Axis, Circuit, Placement};
use placer_mathopt::{ConstraintOp, Model, SolveError, VarId};

use crate::sepplan::{SepEdge, SeparationPlanner};
use crate::{DetailedConfig, PlaceError};

/// Statistics of a detailed placement run.
#[derive(Debug, Clone)]
pub struct DetailedStats {
    /// Cutting-plane rounds used (1 = no residual overlap after first solve).
    pub rounds: usize,
    /// Exact HPWL of the result (µm).
    pub hpwl: f64,
    /// Bounding-box area of the result (µm²).
    pub area: f64,
}

/// Which axis an axis-ILP solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SolveAxis {
    X,
    Y,
}

/// The ePlace-A detailed placer.
#[derive(Debug, Clone)]
pub struct DetailedPlacer {
    config: DetailedConfig,
}

impl DetailedPlacer {
    /// Creates a detailed placer.
    pub fn new(config: DetailedConfig) -> Self {
        Self { config }
    }

    /// Legalizes and refines a global placement.
    ///
    /// After the first legal solution, the separation plan is re-derived
    /// from that (compact) geometry and the ILP re-solved — GP-inherited
    /// axis assignments are often improvable once a legal packing exists.
    /// The better of the two results (by area·HPWL) is returned.
    ///
    /// # Errors
    ///
    /// Returns [`PlaceError`] if the ILP is infeasible/stalls, or
    /// overlaps survive refinement.
    pub fn run(
        &self,
        circuit: &Circuit,
        global: &Placement,
    ) -> Result<(Placement, DetailedStats), PlaceError> {
        let mut best = self.run_once(circuit, global)?;
        // Reassignment passes: shrink the best legal result halfway toward
        // its centroid (reintroducing overlaps while keeping the compact
        // relative geometry), re-derive the separation plan from that, and
        // re-solve. Iterate while it keeps paying off.
        for _ in 0..3 {
            let mut shrunk = best.0.clone();
            if let Some((x0, y0, x1, y1)) = shrunk.bounding_box(circuit) {
                let (cx, cy) = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
                for p in &mut shrunk.positions {
                    p.0 = cx + 0.5 * (p.0 - cx);
                    p.1 = cy + 0.5 * (p.1 - cy);
                }
            }
            match self.run_once(circuit, &shrunk) {
                Ok(next) if next.1.area * next.1.hpwl < best.1.area * best.1.hpwl * 0.999 => {
                    best = next;
                }
                _ => break,
            }
        }
        Ok(best)
    }

    /// Legalizes without the reassignment passes, preserving the global
    /// placement's relative structure (used by ePlace-AP, where that
    /// structure carries the performance guidance).
    pub fn run_preserving(
        &self,
        circuit: &Circuit,
        global: &Placement,
    ) -> Result<(Placement, DetailedStats), PlaceError> {
        self.run_once(circuit, global)
    }

    fn run_once(
        &self,
        circuit: &Circuit,
        global: &Placement,
    ) -> Result<(Placement, DetailedStats), PlaceError> {
        static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("dp_run");
        let _span = SPAN.enter();
        let n = circuit.num_devices();
        assert_eq!(global.len(), n, "global placement size mismatch");

        // Separation planning: constraint-consistent directions derived from
        // GP overlaps (Fig. 4a rule, made sound by the planner's DAG).
        let mut planner = SeparationPlanner::new(circuit);
        planner.extend_from(circuit, global);

        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > self.config.max_refinement_rounds {
                return Err(PlaceError::RefinementExhausted);
            }
            placer_telemetry::vlog!(2, "dp round {rounds}:");
            if placer_telemetry::verbose(2) {
                for &(a, b) in planner.x_edges() {
                    placer_telemetry::vlog!(
                        2,
                        "  x {} -> {}",
                        circuit.device(a).name,
                        circuit.device(b).name
                    );
                }
                for &(a, b) in planner.y_edges() {
                    placer_telemetry::vlog!(
                        2,
                        "  y {} -> {}",
                        circuit.device(a).name,
                        circuit.device(b).name
                    );
                }
            }
            let solution = self.solve_both_axes(circuit, planner.x_edges(), planner.y_edges())?;
            let overlaps = solution.overlapping_pairs(circuit, 1e-6);
            placer_telemetry::record(
                "dp_round",
                &[
                    ("round", rounds as f64),
                    ("sep_edges_x", planner.x_edges().len() as f64),
                    ("sep_edges_y", planner.y_edges().len() as f64),
                    ("residual_overlaps", overlaps.len() as f64),
                ],
            );
            if overlaps.is_empty() {
                let hpwl = solution.hpwl(circuit);
                let area = solution.area(circuit);
                return Ok((solution, DetailedStats { rounds, hpwl, area }));
            }
            // Plan separations for residual overlaps and re-solve.
            if !planner.extend_from(circuit, &solution) {
                return Err(PlaceError::RefinementExhausted);
            }
        }
    }

    fn solve_both_axes(
        &self,
        circuit: &Circuit,
        seps_x: &[SepEdge],
        seps_y: &[SepEdge],
    ) -> Result<Placement, PlaceError> {
        // Try a tight chip bound first (fast LPs); relax when the tight
        // model is infeasible or its search could not prove otherwise.
        let solve = |axis: SolveAxis, seps: &[SepEdge]| -> Result<AxisSolution, PlaceError> {
            match self.solve_axis(circuit, axis, seps, false) {
                Err(PlaceError::Solve(SolveError::Infeasible | SolveError::IterationLimit)) => {
                    self.solve_axis(circuit, axis, seps, true)
                }
                other => other,
            }
        };
        let sx = solve(SolveAxis::X, seps_x).map_err(|e| {
            placer_telemetry::vlog!(1, "dp x axis failed: {e}");
            e
        })?;
        let sy = solve(SolveAxis::Y, seps_y).map_err(|e| {
            placer_telemetry::vlog!(1, "dp y axis failed: {e}");
            e
        })?;
        let mut placement = Placement::new(circuit.num_devices());
        for i in 0..circuit.num_devices() {
            placement.positions[i] = (sx.coords[i], sy.coords[i]);
            placement.flips[i] = (sx.flips[i], sy.flips[i]);
        }
        Ok(placement)
    }

    /// The first cutting-plane round's ILPs, x axis then y, exactly as
    /// [`run`](Self::run) builds them from `global` (tight chip bound).
    /// Exposed for benchmarks and offline inspection of the MILP.
    pub fn axis_models(&self, circuit: &Circuit, global: &Placement) -> [Model; 2] {
        let mut planner = SeparationPlanner::new(circuit);
        planner.extend_from(circuit, global);
        [
            self.axis_model(circuit, SolveAxis::X, planner.x_edges(), false)
                .model,
            self.axis_model(circuit, SolveAxis::Y, planner.y_edges(), false)
                .model,
        ]
    }

    /// Builds and solves the ILP for one axis.
    fn solve_axis(
        &self,
        circuit: &Circuit,
        axis: SolveAxis,
        seps: &[SepEdge],
        relaxed_ub: bool,
    ) -> Result<AxisSolution, PlaceError> {
        let AxisModel { model, xs, flips } = self.axis_model(circuit, axis, seps, relaxed_ub);
        let solution = match model.solve_milp(&self.config.milp) {
            Ok(s) => s,
            Err(e) => {
                if placer_telemetry::verbose(1) {
                    if let Ok((total, rows)) = model.diagnose_infeasibility() {
                        placer_telemetry::vlog!(
                            1,
                            "dp axis infeasibility {total:.4}; violated rows: {rows:?}"
                        );
                    }
                }
                // DP_DUMP names a file to receive the model for offline
                // inspection; it is a dump facility, not a print gate.
                if let Some(path) = std::env::var_os("DP_DUMP") {
                    let _ = std::fs::write(path, model.dump());
                }
                return Err(e.into());
            }
        };
        let step = self.config.grid_step;
        let coords: Vec<f64> = xs.iter().map(|&x| solution.value(x) * step).collect();
        let flip_vals: Vec<bool> = flips
            .iter()
            .map(|f| f.map(|v| solution.value(v) > 0.5).unwrap_or(false))
            .collect();
        Ok(AxisSolution {
            coords,
            flips: flip_vals,
        })
    }

    /// Builds the ILP for one axis.
    fn axis_model(
        &self,
        circuit: &Circuit,
        axis: SolveAxis,
        seps: &[SepEdge],
        relaxed_ub: bool,
    ) -> AxisModel {
        let cfg = &self.config;
        let n = circuit.num_devices();
        let step = cfg.grid_step;
        // Half-extent in grid units, rounded up (legality-preserving).
        let half: Vec<f64> = circuit
            .devices()
            .iter()
            .map(|d| {
                let extent = match axis {
                    SolveAxis::X => d.width,
                    SolveAxis::Y => d.height,
                };
                (extent / 2.0 / step).ceil()
            })
            .collect();
        let total_area: f64 = circuit.total_device_area();
        let w_tilde = (total_area / cfg.zeta).sqrt() / step; // W̃ = H̃ in grid units
                                                             // Symmetric-pair midpoint constraints can force spreads up to twice
                                                             // the plain width sum (a chain into the midpoint doubles when
                                                             // reflected to the far partner); the relaxed retry leaves that full
                                                             // headroom, the first attempt uses a tight bound for fast LPs.
        let ub_loose = (2.5 * w_tilde)
            .ceil()
            .max(half.iter().sum::<f64>() * 4.0 + 8.0);

        // Presolve: longest-path bounds over the separation DAG. For edge
        // a→b with gap g, x_b ≥ x_a + g, so a topological-style fixpoint
        // yields per-device head room (tight lower bounds) and tail room
        // (distance to the chip edge). This shrinks the integer domains by
        // an order of magnitude and is what keeps branch-and-bound fast.
        let gap = |a: analog_netlist::DeviceId, b: analog_netlist::DeviceId| {
            half[a.index()] + half[b.index()]
        };
        let mut head: Vec<f64> = half.clone();
        let mut tail: Vec<f64> = half.clone();
        for _ in 0..n {
            let mut changed = false;
            for &(a, b) in seps {
                let hb = head[a.index()] + gap(a, b);
                if hb > head[b.index()] {
                    head[b.index()] = hb;
                    changed = true;
                }
                let ta = tail[b.index()] + gap(a, b);
                if ta > tail[a.index()] {
                    tail[a.index()] = ta;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let chip_lb = (0..n)
            .map(|i| head[i] + tail[i])
            .fold(half.iter().cloned().fold(0.0, f64::max) * 2.0, f64::max);
        let ub = if relaxed_ub {
            ub_loose
        } else {
            (2.0 * chip_lb + 16.0).min(ub_loose)
        };

        let mut model = Model::new();
        // Device coordinates (integer grid), domains tightened by presolve.
        // Upper bounds are left open: the chip row `x + tail ≤ chip ≤ ub`
        // already implies them.
        let xs: Vec<VarId> = (0..n)
            .map(|i| model.add_int_var(format!("p{i}"), head[i], f64::INFINITY, 0.0))
            .collect();
        // Chip extent variable with the μ-weighted area surrogate cost
        // (μ·H̃/2 per unit of W, Eq. 4a split per axis).
        let chip = model.add_int_var("chip", chip_lb, ub, cfg.mu * w_tilde / 2.0);
        for (i, &x) in xs.iter().enumerate() {
            // x_i + tail_i ≤ chip (4c upper side, strengthened by presolve).
            model.add_constraint(vec![(x, 1.0), (chip, -1.0)], ConstraintOp::Le, -tail[i]);
        }

        // Flip binaries where useful (4d).
        let mut flips: Vec<Option<VarId>> = vec![None; n];
        if cfg.flipping {
            for (i, d) in circuit.devices().iter().enumerate() {
                let has_offset_pin = d.pins.iter().any(|p| {
                    let c = match axis {
                        SolveAxis::X => p.offset.0 - d.width / 2.0,
                        SolveAxis::Y => p.offset.1 - d.height / 2.0,
                    };
                    c.abs() > 1e-9 && circuit.net(p.net).pins.len() >= 2
                });
                if has_offset_pin {
                    flips[i] = Some(model.add_bin_var(format!("f{i}"), 0.0));
                }
            }
        }

        // Net bounds (4b) and objective Σ(hi − lo). Very-high-degree nets
        // (> 16 pins, i.e. supply rails on the largest circuits) are
        // excluded: their bounding boxes span the layout regardless of the
        // solution, so their rows only bloat the LP (reported HPWL still
        // counts them).
        for net in circuit.nets() {
            if net.pins.len() < 2 || net.pins.len() > 24 {
                continue;
            }
            // Objective contribution weight·(hi − lo): cost −w on lo, +w on hi.
            // lo is pushed up by its cost but capped by the pin rows; hi is
            // pushed down by its cost; the pin rows bound both.
            let lo = model.add_var(format!("lo_{}", net.name), 0.0, f64::INFINITY, -net.weight);
            let hi = model.add_var(format!("hi_{}", net.name), 0.0, f64::INFINITY, net.weight);
            for pin in &net.pins {
                let d = circuit.device(pin.device);
                let p = &d.pins[pin.pin.index()];
                let c = match axis {
                    SolveAxis::X => (p.offset.0 - d.width / 2.0) / step,
                    SolveAxis::Y => (p.offset.1 - d.height / 2.0) / step,
                };
                let x = xs[pin.device.index()];
                // pinpos = x + c − 2c·f.
                let mut terms_lo = vec![(lo, 1.0), (x, -1.0)];
                let mut terms_hi = vec![(x, 1.0), (hi, -1.0)];
                if let Some(f) = flips[pin.device.index()] {
                    terms_lo.push((f, 2.0 * c));
                    terms_hi.push((f, -2.0 * c));
                }
                // lo ≤ x + c − 2cf  →  lo − x + 2cf ≤ c.
                model.add_constraint(terms_lo, ConstraintOp::Le, c);
                // x + c − 2cf ≤ hi  →  x − hi − 2cf ≤ −c.
                model.add_constraint(terms_hi, ConstraintOp::Le, -c);
            }
        }

        // Separations (4e), directions fixed by the planner (which also
        // carries the ordering-chain edges of 4i).
        for &(a, b) in seps {
            let (i, j) = (a.index(), b.index());
            let gap = half[i] + half[j];
            model.add_constraint(vec![(xs[i], 1.0), (xs[j], -1.0)], ConstraintOp::Le, -gap);
        }

        // Symmetry (4f). Vertical-axis groups act on x; horizontal on y.
        for g in &circuit.constraints().symmetry_groups {
            let acts_on_this_axis = matches!(
                (g.axis, axis),
                (Axis::Vertical, SolveAxis::X) | (Axis::Horizontal, SolveAxis::Y)
            );
            if acts_on_this_axis {
                let m = model.add_var(format!("axis_{}", g.name), 0.0, f64::INFINITY, 0.0);
                for &(a, b) in &g.pairs {
                    model.add_constraint(
                        vec![(xs[a.index()], 1.0), (xs[b.index()], 1.0), (m, -2.0)],
                        ConstraintOp::Eq,
                        0.0,
                    );
                }
                for &s in &g.self_symmetric {
                    model.add_constraint(
                        vec![(xs[s.index()], 1.0), (m, -1.0)],
                        ConstraintOp::Eq,
                        0.0,
                    );
                }
            } else {
                // Off-axis: mirrored pairs share the other coordinate.
                for &(a, b) in &g.pairs {
                    model.add_constraint(
                        vec![(xs[a.index()], 1.0), (xs[b.index()], -1.0)],
                        ConstraintOp::Eq,
                        0.0,
                    );
                }
            }
        }

        // Alignment (4g bottom in y, 4h vertical-center in x).
        for al in &circuit.constraints().alignments {
            match (al.kind, axis) {
                (AlignKind::Bottom, SolveAxis::Y) => {
                    let (i, j) = (al.a.index(), al.b.index());
                    model.add_constraint(
                        vec![(xs[i], 1.0), (xs[j], -1.0)],
                        ConstraintOp::Eq,
                        half[i] - half[j],
                    );
                }
                (AlignKind::VerticalCenter, SolveAxis::X) => {
                    model.add_constraint(
                        vec![(xs[al.a.index()], 1.0), (xs[al.b.index()], -1.0)],
                        ConstraintOp::Eq,
                        0.0,
                    );
                }
                _ => {}
            }
        }

        AxisModel { model, xs, flips }
    }
}

/// One axis' ILP with its coordinate and flip variables.
struct AxisModel {
    model: Model,
    xs: Vec<VarId>,
    flips: Vec<Option<VarId>>,
}

/// One axis' solved coordinates (µm) and flips.
#[derive(Debug, Clone)]
struct AxisSolution {
    coords: Vec<f64>,
    flips: Vec<bool>,
}

/// Convenience wrapper tying GP output to DP input (used by the pipeline
/// and by Table IV's shared-GP comparison).
pub fn legalize(
    circuit: &Circuit,
    global: &Placement,
    config: &DetailedConfig,
) -> Result<(Placement, DetailedStats), PlaceError> {
    DetailedPlacer::new(config.clone()).run(circuit, global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GlobalConfig, GlobalPlacer};
    use analog_netlist::testcases;

    fn gp(circuit: &Circuit) -> Placement {
        GlobalPlacer::new(GlobalConfig::default()).run(circuit).0
    }

    #[test]
    fn detailed_placement_is_legal_on_cc_ota() {
        let c = testcases::cc_ota();
        let g = gp(&c);
        let (p, stats) = legalize(&c, &g, &DetailedConfig::default()).unwrap();
        assert!(p.overlapping_pairs(&c, 1e-6).is_empty(), "overlaps remain");
        assert!(p.symmetry_violation(&c) < 1e-6);
        assert!(p.alignment_violation(&c) < 1e-6);
        assert!(p.ordering_violation(&c) < 1e-6);
        assert!(stats.hpwl > 0.0);
        assert!(stats.area > c.total_device_area() * 0.9);
    }

    #[test]
    fn detailed_placement_is_legal_on_adder() {
        let c = testcases::adder();
        let g = gp(&c);
        let (p, _) = legalize(&c, &g, &DetailedConfig::default()).unwrap();
        assert!(p.is_legal(&c, 1e-6));
    }

    #[test]
    fn coordinates_are_on_grid() {
        let c = testcases::adder();
        let g = gp(&c);
        let cfg = DetailedConfig::default();
        let (p, _) = legalize(&c, &g, &cfg).unwrap();
        for &(x, y) in &p.positions {
            let fx = (x / cfg.grid_step).round() * cfg.grid_step;
            let fy = (y / cfg.grid_step).round() * cfg.grid_step;
            assert!((x - fx).abs() < 1e-6, "x {x} off grid");
            assert!((y - fy).abs() < 1e-6, "y {y} off grid");
        }
    }

    #[test]
    fn flipping_recovers_wirelength_on_a_constructed_case() {
        // Two devices side by side whose connected pins face away from each
        // other: flipping one must strictly shorten the net (Fig. 3).
        use analog_netlist::{CircuitBuilder, CircuitClass, Device, DeviceKind, Pin};
        let mut b = CircuitBuilder::new("fliptest", CircuitClass::Adder);
        let n1 = b.net("n1");
        let da =
            Device::new("A", DeviceKind::Nmos, 4.0, 2.0).with_pin(Pin::new("p", n1, (0.5, 1.0))); // pin near LEFT edge
        let db =
            Device::new("B", DeviceKind::Nmos, 4.0, 2.0).with_pin(Pin::new("p", n1, (0.5, 1.0))); // also near left edge
        let ida = b.device(da);
        let idb = b.device(db);
        // Force a horizontal arrangement so the pin orientation matters.
        b.order(analog_netlist::OrderDirection::Horizontal, vec![ida, idb]);
        let c = b.build().unwrap();
        let mut g = Placement::new(2);
        g.positions[0] = (2.0, 1.0);
        g.positions[1] = (6.5, 1.0);
        let with_flip = legalize(&c, &g, &DetailedConfig::default()).unwrap();
        let without_flip = legalize(
            &c,
            &g,
            &DetailedConfig {
                flipping: false,
                ..DetailedConfig::default()
            },
        )
        .unwrap();
        assert!(
            with_flip.1.hpwl < without_flip.1.hpwl - 1.0,
            "flipping should shorten the net: {} vs {}",
            with_flip.1.hpwl,
            without_flip.1.hpwl
        );
        // A flips its pin to the right edge (or B to the left): some flip is set.
        assert!(
            with_flip.0.flips.iter().any(|&(fx, _)| fx),
            "no flip was used"
        );
    }

    #[test]
    fn larger_mu_trades_wirelength_for_area() {
        let c = testcases::comp1();
        let g = gp(&c);
        let tight = legalize(
            &c,
            &g,
            &DetailedConfig {
                mu: 4.0,
                ..DetailedConfig::default()
            },
        )
        .unwrap();
        let loose = legalize(
            &c,
            &g,
            &DetailedConfig {
                mu: 0.05,
                ..DetailedConfig::default()
            },
        )
        .unwrap();
        assert!(tight.1.area <= loose.1.area * 1.4 + 1.0);
    }
}
