//! Incremental ECO re-placement: delta preparation, warm-start carriers
//! and region-bounded re-legalization.
//!
//! An engineering change order (ECO) edits a handful of devices late in
//! the flow — a resistor resize, a decap added, a pin re-hooked. Cold
//! re-placement answers it by throwing the whole layout away; this module
//! answers it incrementally:
//!
//! 1. [`prepare`] applies a [`NetlistDelta`] to the circuit behind a
//!    [`CircuitArtifacts`] bundle and **patches** the artifacts (CSR row
//!    splice, GNN feature rewrite, density-template reuse) instead of
//!    rebuilding them.
//! 2. [`warm_placement`] maps the previous solution onto the edited
//!    circuit by device name and seeds any new devices at the centroid of
//!    their placed net neighbors.
//! 3. Each placer's `eco_refine` hook (see
//!    [`Placer::replace`](crate::Placer::replace)) runs a short
//!    trust-region schedule from that warm state.
//! 4. [`finish_region`] re-legalizes **only the affected region**: devices
//!    inside a dilated bounding box of the edit move freely, everything
//!    else is pinned to its warm position by a heavy displacement cost.
//!
//! When the edit dirties too much of the circuit
//! ([`EcoConfig::dirty_threshold`]) the fast path is not worth running;
//! [`Placer::replace`](crate::Placer::replace) falls back to a cold
//! [`Placer::run`](crate::Placer::run) on the patched bundle, which is
//! bit-identical to a from-scratch run and serves as the correctness
//! reference.

use crate::artifacts::CircuitArtifacts;
use crate::checkpoint::Checkpoint;
use crate::error::PlaceError;
use crate::placer::{expect_placer, PlaceOutcome, PlaceSolution};
use crate::sepplan::SeparationPlanner;
use analog_netlist::{AlignKind, AppliedDelta, Axis, Circuit, DeviceId, NetlistDelta, Placement};
use placer_mathopt::{ConstraintOp, Model, VarId};
use std::sync::Arc;

/// Knobs of the incremental re-placement fast path.
#[derive(Debug, Clone)]
pub struct EcoConfig {
    /// Fall back to cold placement when the delta dirties more than this
    /// fraction of the devices. The fallback is the bit-exactness
    /// reference, so raising this only trades speed for quality — never
    /// correctness.
    pub dirty_threshold: f64,
    /// Iteration budget of the warm refinement schedule (Nesterov / CG
    /// iterations, or SA polish moves per dirty block).
    pub refine_iters: usize,
    /// Re-legalization region: the dirty devices' warm bounding box is
    /// dilated by this multiple of the largest dirty-device diagonal.
    pub margin: f64,
    /// Displacement cost of out-of-region devices in the repair LP
    /// (in-region devices cost 1). Large values pin the untouched layout.
    pub pin_cost: f64,
}

impl Default for EcoConfig {
    fn default() -> Self {
        Self {
            dirty_threshold: 0.25,
            refine_iters: 12,
            margin: 2.0,
            pin_cost: 1e4,
        }
    }
}

/// How [`Placer::replace`](crate::Placer::replace) produced its solution.
#[derive(Debug, Clone)]
pub enum EcoOutcome {
    /// The incremental fast path ran: warm refinement plus region-bounded
    /// re-legalization.
    Fast(PlaceSolution),
    /// The delta dirtied too much of the circuit; a cold budgeted run on
    /// the patched artifacts was performed instead (bit-identical to
    /// placing the edited circuit from scratch).
    FellBack(PlaceOutcome),
}

impl EcoOutcome {
    /// The solution, when one was produced (fast, or fallback
    /// complete/exhausted).
    pub fn solution(&self) -> Option<&PlaceSolution> {
        match self {
            EcoOutcome::Fast(s) => Some(s),
            EcoOutcome::FellBack(o) => o.solution(),
        }
    }

    /// True for the incremental fast path.
    pub fn is_fast(&self) -> bool {
        matches!(self, EcoOutcome::Fast(_))
    }

    /// Short status tag (`"fast"` / `"fallback"`) for job reports.
    pub fn status(&self) -> &'static str {
        match self {
            EcoOutcome::Fast(_) => "fast",
            EcoOutcome::FellBack(_) => "fallback",
        }
    }
}

/// Result of an incremental re-placement: the patched artifacts (ready to
/// serve as the cache entry for the edited circuit) plus the outcome.
#[derive(Debug)]
pub struct EcoReplace {
    /// Artifacts of the **edited** circuit, produced by patching rather
    /// than rebuilding; interchangeable with a cold
    /// [`CircuitArtifacts::build`].
    pub artifacts: Arc<CircuitArtifacts>,
    /// Fraction of devices the delta dirtied (drove the path choice).
    pub dirty_fraction: f64,
    /// The fast-path solution or the cold fallback outcome.
    pub outcome: EcoOutcome,
}

/// Applies `delta` to the circuit behind `artifacts` and patches the
/// artifact bundle in place of a rebuild.
///
/// # Errors
///
/// Returns [`PlaceError::Delta`] when the delta references unknown
/// devices/nets or the edited circuit fails validation.
pub fn prepare(
    artifacts: &CircuitArtifacts,
    delta: &NetlistDelta,
) -> Result<(Arc<CircuitArtifacts>, AppliedDelta), PlaceError> {
    let applied = delta.apply(artifacts.circuit())?;
    let patched = artifacts.patched(&applied);
    Ok((patched, applied))
}

/// Packs a placement into a warm-start [`Checkpoint`] (`"eco-warm"`).
///
/// The checkpoint carries the previous solution across the edit; device
/// identity is re-established by **name** in [`warm_placement`], so the
/// carrier stays valid even when the delta removes devices and shifts ids.
pub fn warm_checkpoint(circuit: &Circuit, placement: &Placement) -> Checkpoint {
    let mut ck = Checkpoint::new("eco-warm");
    ck.put_u64("n", circuit.num_devices() as u64);
    let xs: Vec<f64> = placement.positions.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = placement.positions.iter().map(|p| p.1).collect();
    let fx: Vec<bool> = placement.flips.iter().map(|f| f.0).collect();
    let fy: Vec<bool> = placement.flips.iter().map(|f| f.1).collect();
    ck.put_f64s("x", &xs);
    ck.put_f64s("y", &ys);
    ck.put_bools("fx", &fx);
    ck.put_bools("fy", &fy);
    ck
}

/// Maps an `"eco-warm"` checkpoint taken on `old` onto the edited circuit
/// `new`.
///
/// Surviving devices are matched by name and keep their position and flip
/// state. Devices new to the edited circuit are seeded at the centroid of
/// their already-placed routable-net neighbors (falling back to the mean
/// of all warm positions for devices with no placed neighbor).
///
/// # Errors
///
/// Returns [`PlaceError::BadCheckpoint`] when the checkpoint was not
/// written by the warm-start carrier or its vectors disagree with `old`.
pub fn warm_placement(
    old: &Circuit,
    new: &Circuit,
    warm: &Checkpoint,
) -> Result<Placement, PlaceError> {
    expect_placer(warm, "eco-warm")?;
    let n = warm.get_u64("n")? as usize;
    let xs = warm.get_f64s("x")?;
    let ys = warm.get_f64s("y")?;
    let fx = warm.get_bools("fx")?;
    let fy = warm.get_bools("fy")?;
    if n != old.num_devices() || xs.len() != n || ys.len() != n || fx.len() != n || fy.len() != n {
        return Err(PlaceError::BadCheckpoint(crate::CheckpointError {
            line: 0,
            message: format!(
                "warm checkpoint has {} devices, circuit `{}` has {}",
                xs.len().min(n),
                old.name(),
                old.num_devices()
            ),
        }));
    }
    let mut placement = Placement::new(new.num_devices());
    let mut mapped = vec![false; new.num_devices()];
    for (id, d) in new.device_ids() {
        if let Some(old_id) = old.find_device(&d.name) {
            let o = old_id.index();
            placement.positions[id.index()] = (xs[o], ys[o]);
            placement.flips[id.index()] = (fx[o], fy[o]);
            mapped[id.index()] = true;
        }
    }
    // Fallback seed: mean of all warm positions (the layout's mass center).
    let fallback = if n > 0 {
        (
            xs.iter().sum::<f64>() / n as f64,
            ys.iter().sum::<f64>() / n as f64,
        )
    } else {
        (0.0, 0.0)
    };
    for i in 0..new.num_devices() {
        if mapped[i] {
            continue;
        }
        let mut cx = 0.0;
        let mut cy = 0.0;
        let mut cnt = 0usize;
        for pin in &new.device(DeviceId::new(i)).pins {
            let net = &new.nets()[pin.net.index()];
            if !net.is_routable() {
                continue;
            }
            for p in &net.pins {
                let j = p.device.index();
                if j != i && mapped[j] {
                    let (x, y) = placement.positions[j];
                    cx += x;
                    cy += y;
                    cnt += 1;
                }
            }
        }
        placement.positions[i] = if cnt > 0 {
            (cx / cnt as f64, cy / cnt as f64)
        } else {
            fallback
        };
    }
    Ok(placement)
}

/// Computes the re-legalization region: dirty devices plus every device
/// whose warm center falls inside the dirty outlines' bounding box
/// dilated by `margin ×` the largest dirty-device diagonal.
///
/// Returns all-`false` when nothing is dirty (the repair then only has to
/// absorb rounding, with everything pinned).
pub fn region_mask(circuit: &Circuit, warm: &Placement, dirty: &[bool], margin: f64) -> Vec<bool> {
    let n = circuit.num_devices();
    let mut mask = vec![false; n];
    let mut x0 = f64::INFINITY;
    let mut y0 = f64::INFINITY;
    let mut x1 = f64::NEG_INFINITY;
    let mut y1 = f64::NEG_INFINITY;
    let mut max_diag = 0.0f64;
    let mut any = false;
    for (i, d) in circuit.devices().iter().enumerate() {
        if !dirty.get(i).copied().unwrap_or(false) {
            continue;
        }
        any = true;
        let (cx, cy) = warm.positions[i];
        x0 = x0.min(cx - d.width / 2.0);
        y0 = y0.min(cy - d.height / 2.0);
        x1 = x1.max(cx + d.width / 2.0);
        y1 = y1.max(cy + d.height / 2.0);
        max_diag = max_diag.max((d.width * d.width + d.height * d.height).sqrt());
    }
    if !any {
        return mask;
    }
    let dilate = margin * max_diag;
    x0 -= dilate;
    y0 -= dilate;
    x1 += dilate;
    y1 += dilate;
    for (i, m) in mask.iter_mut().enumerate().take(n) {
        let (cx, cy) = warm.positions[i];
        *m = dirty.get(i).copied().unwrap_or(false)
            || (cx >= x0 && cx <= x1 && cy >= y0 && cy <= y1);
    }
    mask
}

fn axis_extent(circuit: &Circuit, axis: usize, d: DeviceId) -> f64 {
    let dev = circuit.device(d);
    if axis == 0 {
        dev.width
    } else {
        dev.height
    }
}

fn region_repair_axis(
    circuit: &Circuit,
    axis: usize,
    targets: &[f64],
    edges: &[(DeviceId, DeviceId)],
    region: &[bool],
    pin_cost: f64,
) -> Result<Vec<f64>, PlaceError> {
    let n = circuit.num_devices();
    let mut model = Model::new();
    let xs: Vec<VarId> = (0..n)
        .map(|i| {
            let half = axis_extent(circuit, axis, DeviceId::new(i)) / 2.0;
            model.add_var(format!("c{i}"), half, f64::INFINITY, 0.0)
        })
        .collect();
    // Displacement |x − target| via two rows per device. Out-of-region
    // devices pay `pin_cost` per µm, which keeps them glued to the warm
    // layout unless a constraint forces them to yield.
    for (i, &x) in xs.iter().enumerate() {
        let cost = if region[i] { 1.0 } else { pin_cost };
        let d = model.add_var(format!("d{i}"), 0.0, f64::INFINITY, cost);
        model.add_constraint(vec![(d, 1.0), (x, -1.0)], ConstraintOp::Ge, -targets[i]);
        model.add_constraint(vec![(d, 1.0), (x, 1.0)], ConstraintOp::Ge, targets[i]);
    }
    for &(a, b) in edges {
        let gap = (axis_extent(circuit, axis, a) + axis_extent(circuit, axis, b)) / 2.0;
        model.add_constraint(
            vec![(xs[a.index()], 1.0), (xs[b.index()], -1.0)],
            ConstraintOp::Le,
            -gap,
        );
    }
    for g in &circuit.constraints().symmetry_groups {
        let on_axis = matches!((g.axis, axis), (Axis::Vertical, 0) | (Axis::Horizontal, 1));
        if on_axis {
            let m = model.add_var(format!("m_{}", g.name), 0.0, f64::INFINITY, 0.0);
            for &(a, b) in &g.pairs {
                model.add_constraint(
                    vec![(xs[a.index()], 1.0), (xs[b.index()], 1.0), (m, -2.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
            for &s in &g.self_symmetric {
                model.add_constraint(vec![(xs[s.index()], 1.0), (m, -1.0)], ConstraintOp::Eq, 0.0);
            }
        } else {
            for &(a, b) in &g.pairs {
                model.add_constraint(
                    vec![(xs[a.index()], 1.0), (xs[b.index()], -1.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
        }
    }
    for al in &circuit.constraints().alignments {
        match (al.kind, axis) {
            (AlignKind::Bottom, 1) => {
                let ha = axis_extent(circuit, 1, al.a) / 2.0;
                let hb = axis_extent(circuit, 1, al.b) / 2.0;
                model.add_constraint(
                    vec![(xs[al.a.index()], 1.0), (xs[al.b.index()], -1.0)],
                    ConstraintOp::Eq,
                    ha - hb,
                );
            }
            (AlignKind::VerticalCenter, 0) => {
                model.add_constraint(
                    vec![(xs[al.a.index()], 1.0), (xs[al.b.index()], -1.0)],
                    ConstraintOp::Eq,
                    0.0,
                );
            }
            _ => {}
        }
    }
    let sol = model.solve_lp()?;
    Ok(xs.iter().map(|&x| sol.value(x)).collect())
}

/// Region-bounded constraint repair: minimal **weighted** displacement
/// from `target` subject to the exact constraints and `target`'s relative
/// orders, where out-of-region devices pay [`EcoConfig::pin_cost`] per µm
/// of movement.
///
/// This is the ECO variant of the annealer's repair LP: same rows, but
/// the objective pins the untouched part of the layout instead of
/// treating every device equally.
///
/// # Errors
///
/// Returns [`PlaceError::Solve`] when the constraint system is
/// infeasible (inconsistent circuit constraints).
pub fn region_repair(
    circuit: &Circuit,
    target: &Placement,
    region: &[bool],
    pin_cost: f64,
) -> Result<Placement, PlaceError> {
    let mut planner = SeparationPlanner::new(circuit);
    planner.extend_all_pairs(circuit, target);
    let tx: Vec<f64> = target.positions.iter().map(|p| p.0).collect();
    let ty: Vec<f64> = target.positions.iter().map(|p| p.1).collect();
    let xs = region_repair_axis(circuit, 0, &tx, planner.x_edges(), region, pin_cost)?;
    let ys = region_repair_axis(circuit, 1, &ty, planner.y_edges(), region, pin_cost)?;
    let mut placement = target.clone();
    for i in 0..circuit.num_devices() {
        placement.positions[i] = (xs[i], ys[i]);
    }
    Ok(placement)
}

/// Blends the refined coordinates into the warm layout and re-legalizes
/// the affected region.
///
/// In-region devices take their positions (and flips) from `refined`;
/// everything else keeps its warm state, then [`region_repair`] snaps the
/// blend to exact legality with out-of-region devices pinned.
///
/// # Errors
///
/// Returns [`PlaceError::Solve`] when the repair LP is infeasible.
pub fn finish_region(
    circuit: &Circuit,
    refined: &Placement,
    warm: &Placement,
    region: &[bool],
    pin_cost: f64,
) -> Result<Placement, PlaceError> {
    let mut blended = warm.clone();
    for (i, &inside) in region.iter().enumerate().take(circuit.num_devices()) {
        if inside {
            blended.positions[i] = refined.positions[i];
            blended.flips[i] = refined.flips[i];
        }
    }
    region_repair(circuit, &blended, region, pin_cost)
}

/// Assembles the fast-path [`PlaceSolution`] from a legalized placement.
pub(crate) fn fast_solution(
    circuit: &Circuit,
    placement: Placement,
    stage1_seconds: f64,
    stage2_seconds: f64,
    iterations: usize,
) -> PlaceSolution {
    let hpwl = placement.hpwl(circuit);
    let area = placement.area(circuit);
    PlaceSolution {
        placement,
        hpwl,
        area,
        stage1_seconds,
        stage2_seconds,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    fn spread_row(circuit: &Circuit) -> Placement {
        let mut p = Placement::new(circuit.num_devices());
        let mut x = 0.0;
        for (i, d) in circuit.devices().iter().enumerate() {
            x += d.width / 2.0 + 1.0;
            p.positions[i] = (x, 0.0);
            x += d.width / 2.0 + 1.0;
        }
        p
    }

    #[test]
    fn warm_checkpoint_roundtrips_onto_same_circuit() {
        let c = testcases::cc_ota();
        let p = spread_row(&c);
        let ck = warm_checkpoint(&c, &p);
        let back = Checkpoint::decode(&ck.encode()).unwrap();
        let mapped = warm_placement(&c, &c, &back).unwrap();
        assert_eq!(mapped, p);
    }

    #[test]
    fn warm_placement_seeds_new_devices_near_neighbors() {
        let c = testcases::cc_ota();
        let p = spread_row(&c);
        let ck = warm_checkpoint(&c, &p);
        let delta = NetlistDelta::parse("add CX cap 10f outp vss\n").unwrap();
        let applied = delta.apply(&c).unwrap();
        let mapped = warm_placement(&c, &applied.circuit, &ck).unwrap();
        let cx = applied.circuit.find_device("CX").unwrap();
        // Surviving devices keep their coordinates.
        for (id, d) in c.device_ids() {
            let new_id = applied.circuit.find_device(&d.name).unwrap();
            assert_eq!(mapped.positions[new_id.index()], p.positions[id.index()]);
        }
        // The new cap lands at the centroid of its placed net neighbors,
        // inside the row's x span.
        let (x, y) = mapped.positions[cx.index()];
        let span: Vec<f64> = p.positions.iter().map(|q| q.0).collect();
        let lo = span.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = span.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(x >= lo && x <= hi && y.abs() < 1e-9);
    }

    #[test]
    fn warm_placement_rejects_foreign_checkpoints() {
        let c = testcases::cc_ota();
        let bad = Checkpoint::new("sa");
        assert!(matches!(
            warm_placement(&c, &c, &bad),
            Err(PlaceError::BadCheckpoint(_))
        ));
        let mut truncated = warm_checkpoint(&c, &spread_row(&c));
        truncated = {
            let mut ck = Checkpoint::new("eco-warm");
            ck.put_u64("n", 2);
            for name in ["x", "y"] {
                ck.put_f64s(name, truncated.get_f64s(name).unwrap());
            }
            ck.put_bools("fx", truncated.get_bools("fx").unwrap());
            ck.put_bools("fy", truncated.get_bools("fy").unwrap());
            ck
        };
        assert!(matches!(
            warm_placement(&c, &c, &truncated),
            Err(PlaceError::BadCheckpoint(_))
        ));
    }

    #[test]
    fn region_mask_covers_dirty_devices_and_their_surroundings() {
        let c = testcases::cc_ota();
        let p = spread_row(&c);
        let rb = c.find_device("RB").unwrap();
        let mut dirty = vec![false; c.num_devices()];
        dirty[rb.index()] = true;
        let mask = region_mask(&c, &p, &dirty, 2.0);
        assert!(mask[rb.index()]);
        assert!(mask.iter().filter(|&&m| m).count() < c.num_devices());
        // No dirty devices → nothing in the region.
        let empty = region_mask(&c, &p, &vec![false; c.num_devices()], 2.0);
        assert!(empty.iter().all(|&m| !m));
    }

    #[test]
    fn finish_region_produces_a_legal_placement() {
        let c = testcases::cc_ota();
        let warm = spread_row(&c);
        let rb = c.find_device("RB").unwrap();
        let mut dirty = vec![false; c.num_devices()];
        dirty[rb.index()] = true;
        let region = region_mask(&c, &warm, &dirty, 2.0);
        // Nudge the dirty device; finish_region must restore exact
        // legality without tearing up the rest of the row.
        let mut refined = warm.clone();
        refined.positions[rb.index()].0 += 0.75;
        let out = finish_region(&c, &refined, &warm, &region, 1e4).unwrap();
        assert!(out.is_legal(&c, 1e-6));
    }
}
