//! Bounded-variable simplex engine: one dense tableau, primal and dual.
//!
//! Every constraint row `a·x op b` gets a logical variable `s` with
//! `a·x + s = b`, bounded by the operator (`≤`: `s ≥ 0`, `≥`: `s ≤ 0`,
//! `=`: `s = 0`), so the all-logical basis is a valid starting basis.
//! Variable bounds are never rows: a nonbasic variable sits at its lower or
//! upper bound (or at 0 when free) and the ratio tests respect the bounds
//! of basic variables.
//!
//! The tableau is condensed, `m × n` for `m` rows and `n` structural
//! variables: row `i` expresses basic variable `head[i]` in the nonbasic
//! ones, `x_B = β − T·x_N`. Two algorithms share it:
//!
//! - **Primal simplex** with a composite phase 1 (minimize the sum of bound
//!   infeasibilities, recomputed every iteration) then phase 2. This is the
//!   cold start, and the fallback whenever a basis is not dual feasible.
//! - **Dual simplex**, for re-solves after bound changes. A bound change
//!   leaves the reduced costs untouched, so a previously optimal basis
//!   stays dual feasible and a few dual pivots restore primal feasibility.
//!   Branch and bound and its diving heuristic re-solve this way.
//!
//! Both use Dantzig pricing with a Bland's-rule fallback against cycling
//! and a two-pass Harris ratio test preferring large pivots. A solve that
//! stalls, or whose values fail the row residual check, is redone from the
//! all-logical basis.
//!
//! Tableaux are recycled: a finished engine's state, and every snapshot
//! branch and bound hands back, goes to a per-thread spare list that the
//! next engine or snapshot fills in place. Fresh buffers per node and per
//! solve would be handed back to the kernel by the allocator and faulted
//! in again, so run time would track the host's page-fault cost rather
//! than the pivots.

use std::cell::RefCell;

use crate::{ConstraintOp, Model, Solution, SolveError};

/// Simplex pivots across all solves (primal, dual and MILP re-solves).
static SIMPLEX_PIVOTS: placer_telemetry::Counter = placer_telemetry::Counter::new("simplex_pivots");

/// Smallest tableau entry accepted as a pivot.
const PIVOT_TOL: f64 = 1e-9;
/// Reduced-cost tolerance (dual feasibility, pricing).
const DUAL_TOL: f64 = 1e-9;
/// Bound-violation tolerance of basic variables.
const PRIMAL_TOL: f64 = 1e-9;
/// Updated tableau entries below this magnitude are flushed to zero.
const ZERO_TOL: f64 = 1e-12;
/// Relative row residual above which a solve is redone cold.
const RESIDUAL_TOL: f64 = 1e-7;
/// Buffer capacity the spare list keeps per thread. The paper circuits'
/// deepest searches hold up to about 20 MB of snapshots at once; a state
/// beyond the cap goes back to the allocator.
const SPARE_BYTES: usize = 32 << 20;

/// Where a nonbasic variable sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum At {
    Lower,
    Upper,
    /// Both bounds infinite; the variable rests at 0.
    Free,
}

/// The mutable simplex state: basis, tableau, values and bounds. A copy of
/// it is how branch and bound snapshots a node's optimal basis.
#[derive(Debug, Default)]
pub(crate) struct LpState {
    /// `m × n` row-major; row `i` is basic `head[i]`, column `k` nonbasic
    /// `nonbasic[k]`.
    tab: Vec<f64>,
    head: Vec<usize>,
    nonbasic: Vec<usize>,
    /// Bound status per nonbasic column.
    at: Vec<At>,
    /// Per variable (structural then logical): row if basic, `m + column`
    /// if nonbasic.
    pos: Vec<usize>,
    /// Value of every variable.
    x: Vec<f64>,
    /// Reduced cost per nonbasic column.
    d: Vec<f64>,
    lb: Vec<f64>,
    ub: Vec<f64>,
}

/// A simplex engine bound to one model. Bounds of structural variables
/// can be changed between solves; the basis carries over.
#[derive(Debug)]
pub(crate) struct LpEngine<'a> {
    model: &'a Model,
    m: usize,
    n: usize,
    s: LpState,
    /// Scratch: the normalized pivot row and its nonzero columns.
    prow: Vec<f64>,
    nz: Vec<usize>,
    /// Pivots made by this engine; unlike its state, not restored by
    /// [`restore`](Self::restore).
    pub(crate) pivots: usize,
}

/// Value of a nonbasic variable with status `at`.
fn rest_value(at: At, lb: f64, ub: f64) -> f64 {
    match at {
        At::Lower => lb,
        At::Upper => ub,
        At::Free => 0.0,
    }
}

/// The bound a nonbasic variable should rest at: the one its reduced cost
/// makes dual feasible (the current one on a tie), else whichever is finite.
fn rest_side(d: f64, lb: f64, ub: f64, current: At) -> At {
    let want_upper = if d < -DUAL_TOL {
        true
    } else if d > DUAL_TOL {
        false
    } else {
        current == At::Upper
    };
    match (want_upper, lb.is_finite(), ub.is_finite()) {
        (true, _, true) | (false, false, true) => At::Upper,
        (_, true, _) => At::Lower,
        _ => At::Free,
    }
}

/// Recycled states of this thread and their summed buffer capacity.
struct Spares {
    states: Vec<LpState>,
    bytes: usize,
}

thread_local! {
    static SPARES: RefCell<Spares> = const {
        RefCell::new(Spares {
            states: Vec::new(),
            bytes: 0,
        })
    };
}

impl LpState {
    /// A state holding recycled buffers when this thread has one, else an
    /// empty one. Its contents are meaningless until overwritten.
    fn spare() -> Self {
        SPARES
            .try_with(|sp| {
                let mut sp = sp.borrow_mut();
                let state = sp.states.pop()?;
                sp.bytes -= state.bytes();
                Some(state)
            })
            .ok()
            .flatten()
            .unwrap_or_default()
    }

    /// Hands the buffers to this thread's spare list, or to the allocator
    /// when the list is full.
    pub(crate) fn recycle(self) {
        let bytes = self.bytes();
        if bytes == 0 {
            return;
        }
        let _ = SPARES.try_with(|sp| {
            let mut sp = sp.borrow_mut();
            if sp.bytes + bytes <= SPARE_BYTES {
                sp.bytes += bytes;
                sp.states.push(self);
            }
        });
    }

    /// Capacity of the buffers in bytes.
    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.tab.capacity() + self.x.capacity() + self.d.capacity()) * size_of::<f64>()
            + (self.lb.capacity() + self.ub.capacity()) * size_of::<f64>()
            + (self.head.capacity() + self.nonbasic.capacity() + self.pos.capacity())
                * size_of::<usize>()
            + self.at.capacity() * size_of::<At>()
    }

    /// Overwrites `self` with `src`, reusing `self`'s buffers.
    fn copy_from(&mut self, src: &LpState) {
        self.tab.clone_from(&src.tab);
        self.head.clone_from(&src.head);
        self.nonbasic.clone_from(&src.nonbasic);
        self.at.clone_from(&src.at);
        self.pos.clone_from(&src.pos);
        self.x.clone_from(&src.x);
        self.d.clone_from(&src.d);
        self.lb.clone_from(&src.lb);
        self.ub.clone_from(&src.ub);
    }

    /// Resets `self` in place to the all-logical basis for `model` with the
    /// model's own bounds.
    fn reset_cold(&mut self, model: &Model) {
        let (m, n) = (model.num_constraints(), model.num_vars());
        let vars = model.variables();
        self.tab.clear();
        self.tab.resize(m * n, 0.0);
        self.lb.clear();
        self.lb.extend(vars.iter().map(|v| v.lower));
        self.ub.clear();
        self.ub.extend(vars.iter().map(|v| v.upper));
        for (i, c) in model.constraints().iter().enumerate() {
            for &(v, a) in &c.terms {
                self.tab[i * n + v.index()] += a;
            }
            let (l, u) = match c.op {
                ConstraintOp::Le => (0.0, f64::INFINITY),
                ConstraintOp::Ge => (f64::NEG_INFINITY, 0.0),
                ConstraintOp::Eq => (0.0, 0.0),
            };
            self.lb.push(l);
            self.ub.push(u);
        }
        let (lb, ub) = (&self.lb, &self.ub);
        self.at.clear();
        self.at
            .extend((0..n).map(|j| rest_side(vars[j].objective, lb[j], ub[j], At::Lower)));
        self.x.clear();
        let at = &self.at;
        self.x
            .extend((0..n).map(|j| rest_value(at[j], lb[j], ub[j])));
        for (i, c) in model.constraints().iter().enumerate() {
            let row = &self.tab[i * n..(i + 1) * n];
            let ax: f64 = row.iter().zip(&self.x[..n]).map(|(a, v)| a * v).sum();
            self.x.push(c.rhs - ax);
        }
        self.head.clear();
        self.head.extend(n..n + m);
        self.nonbasic.clear();
        self.nonbasic.extend(0..n);
        self.pos.clear();
        self.pos.extend((0..n).map(|j| m + j).chain(0..m));
        self.d.clear();
        self.d.extend(vars.iter().map(|v| v.objective));
    }
}

impl<'a> LpEngine<'a> {
    /// A cold engine on the all-logical basis with the model's bounds.
    pub(crate) fn new(model: &'a Model) -> Self {
        let (m, n) = (model.num_constraints(), model.num_vars());
        let mut s = LpState::spare();
        s.reset_cold(model);
        LpEngine {
            model,
            m,
            n,
            s,
            prow: vec![0.0; n],
            nz: Vec::with_capacity(n),
            pivots: 0,
        }
    }

    /// A copy of the current state, to [`restore`](Self::restore) later
    /// or to [`recycle`](LpState::recycle) when it is no longer needed.
    pub(crate) fn snapshot(&self) -> LpState {
        let mut state = LpState::spare();
        state.copy_from(&self.s);
        state
    }

    /// Returns to a state taken from this engine by
    /// [`snapshot`](Self::snapshot); the replaced state is recycled.
    pub(crate) fn restore(&mut self, state: LpState) {
        std::mem::replace(&mut self.s, state).recycle();
    }

    /// Sets the bounds of every structural variable. Nonbasic variables
    /// move to their new bound and the basic values follow; the basis and
    /// reduced costs are kept.
    pub(crate) fn set_bounds(&mut self, lower: &[f64], upper: &[f64]) {
        assert_eq!(lower.len(), self.n);
        assert_eq!(upper.len(), self.n);
        for j in 0..self.n {
            if self.s.lb[j] != lower[j] || self.s.ub[j] != upper[j] {
                self.set_var_bounds(j, lower[j], upper[j]);
            }
        }
    }

    /// Sets the bounds of structural variable `j`.
    pub(crate) fn set_var_bounds(&mut self, j: usize, lower: f64, upper: f64) {
        let (m, n) = (self.m, self.n);
        let s = &mut self.s;
        s.lb[j] = lower;
        s.ub[j] = upper;
        let p = s.pos[j];
        if p < m || lower > upper {
            return;
        }
        let k = p - m;
        s.at[k] = rest_side(s.d[k], lower, upper, s.at[k]);
        let delta = rest_value(s.at[k], lower, upper) - s.x[j];
        if delta != 0.0 {
            s.x[j] += delta;
            for i in 0..m {
                s.x[s.head[i]] -= s.tab[i * n + k] * delta;
            }
        }
    }

    /// Solves from the current basis: dual simplex when it is dual
    /// feasible, primal otherwise.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`] or
    /// [`SolveError::IterationLimit`].
    pub(crate) fn solve(&mut self) -> Result<(), SolveError> {
        if (0..self.n).any(|j| self.s.lb[j] > self.s.ub[j]) {
            return Err(SolveError::Infeasible);
        }
        match self.run() {
            Ok(()) if self.consistent() => return Ok(()),
            Ok(()) | Err(SolveError::IterationLimit) => {}
            Err(e) => return Err(e),
        }
        // Numerical drift, or a stall on the carried-over basis: start
        // over from the all-logical basis.
        placer_telemetry::vlog!(2, "simplex: drift or stall, re-solving cold");
        let (lower, upper) = (self.s.lb[..self.n].to_vec(), self.s.ub[..self.n].to_vec());
        self.s.reset_cold(self.model);
        self.set_bounds(&lower, &upper);
        self.run()
    }

    /// The structural values and objective of the current basis.
    pub(crate) fn solution(&self) -> Solution {
        let values = self.s.x[..self.n].to_vec();
        let objective = self.model.objective_value(&values);
        Solution { values, objective }
    }

    fn run(&mut self) -> Result<(), SolveError> {
        let max_iters = 100 * (self.m + self.n + 10);
        if self.dual_feasible() {
            self.dual(max_iters)
        } else {
            self.primal(max_iters)
        }
    }

    fn dual_feasible(&self) -> bool {
        let s = &self.s;
        (0..self.n).all(|k| {
            let j = s.nonbasic[k];
            s.lb[j] == s.ub[j]
                || match s.at[k] {
                    At::Lower => s.d[k] >= -DUAL_TOL,
                    At::Upper => s.d[k] <= DUAL_TOL,
                    At::Free => s.d[k].abs() <= DUAL_TOL,
                }
        })
    }

    /// Whether the values satisfy every row `a·x + s = b` to
    /// [`RESIDUAL_TOL`] (relative to the row's scale).
    fn consistent(&self) -> bool {
        let x = &self.s.x;
        self.model.constraints().iter().enumerate().all(|(i, c)| {
            let mut scale = 1.0 + c.rhs.abs();
            let mut r = x[self.n + i] - c.rhs;
            for &(v, a) in &c.terms {
                let t = a * x[v.index()];
                r += t;
                scale += t.abs();
            }
            r.abs() <= RESIDUAL_TOL * scale
        })
    }

    /// Bound violation of basic variable `b` (0 when within tolerance).
    fn infeasibility(&self, b: usize) -> f64 {
        let s = &self.s;
        if s.x[b] < s.lb[b] - PRIMAL_TOL {
            s.lb[b] - s.x[b]
        } else if s.x[b] > s.ub[b] + PRIMAL_TOL {
            s.x[b] - s.ub[b]
        } else {
            0.0
        }
    }

    /// Primal simplex: phase 1 while any basic variable violates a bound,
    /// phase 2 on the true reduced costs after.
    fn primal(&mut self, max_iters: usize) -> Result<(), SolveError> {
        let (m, n) = (self.m, self.n);
        let bland_after = max_iters / 2;
        let mut d1 = vec![0.0; n];
        for iter in 0..max_iters {
            // Phase-1 reduced costs: gradient of the summed infeasibility.
            d1.iter_mut().for_each(|v| *v = 0.0);
            let mut phase1 = false;
            for i in 0..m {
                let b = self.s.head[i];
                let sign = if self.s.x[b] < self.s.lb[b] - PRIMAL_TOL {
                    -1.0
                } else if self.s.x[b] > self.s.ub[b] + PRIMAL_TOL {
                    1.0
                } else {
                    continue;
                };
                phase1 = true;
                let row = &self.s.tab[i * n..(i + 1) * n];
                for (dk, &t) in d1.iter_mut().zip(row) {
                    *dk -= sign * t;
                }
            }
            let d = if phase1 { &d1 } else { &self.s.d };

            // Pricing: entering column and direction (+1 up, −1 down).
            let mut enter: Option<(usize, f64)> = None;
            let mut best = DUAL_TOL;
            for (k, &dk) in d.iter().enumerate() {
                let j = self.s.nonbasic[k];
                if self.s.lb[j] == self.s.ub[j] {
                    continue;
                }
                let dir = match self.s.at[k] {
                    At::Lower if dk < -DUAL_TOL => 1.0,
                    At::Upper if dk > DUAL_TOL => -1.0,
                    At::Free if dk.abs() > DUAL_TOL => -dk.signum(),
                    _ => continue,
                };
                if iter >= bland_after {
                    if enter.is_none_or(|(e, _)| j < self.s.nonbasic[e]) {
                        enter = Some((k, dir));
                    }
                } else if dk.abs() > best {
                    best = dk.abs();
                    enter = Some((k, dir));
                }
            }
            let Some((q, dir)) = enter else {
                return if phase1 {
                    placer_telemetry::vlog!(2, "simplex: phase-1 stall (m={m}, n={n})");
                    Err(SolveError::Infeasible)
                } else {
                    Ok(())
                };
            };

            // Ratio test. Basic i moves at rate −T[i][q]·dir per unit step;
            // infeasible basics block where they reach their violated bound.
            let block = |i: usize| -> Option<(f64, f64, At)> {
                let s = &self.s;
                let rate = -s.tab[i * n + q] * dir;
                if rate.abs() <= PIVOT_TOL {
                    return None;
                }
                let b = s.head[i];
                let (x, lb, ub) = (s.x[b], s.lb[b], s.ub[b]);
                let (below, above) = (x < lb - PRIMAL_TOL, x > ub + PRIMAL_TOL);
                if rate > 0.0 {
                    if below {
                        Some(((lb - x) / rate, rate, At::Lower))
                    } else if ub.is_finite() && !above {
                        Some(((ub - x) / rate, rate, At::Upper))
                    } else {
                        None
                    }
                } else if above {
                    Some(((x - ub) / -rate, rate, At::Upper))
                } else if lb.is_finite() && !below {
                    Some(((x - lb) / -rate, rate, At::Lower))
                } else {
                    None
                }
            };
            let mut t_max = f64::INFINITY;
            for i in 0..m {
                if let Some((t, rate, _)) = block(i) {
                    t_max = t_max.min(t + PRIMAL_TOL / rate.abs());
                }
            }
            let mut leave: Option<(usize, f64, At)> = None;
            let mut best_rate = 0.0;
            for i in 0..m {
                if let Some((t, rate, side)) = block(i) {
                    if t <= t_max && rate.abs() > best_rate {
                        best_rate = rate.abs();
                        leave = Some((i, t.max(0.0), side));
                    }
                }
            }
            let e = self.s.nonbasic[q];
            let flip = self.s.ub[e] - self.s.lb[e];
            let step = leave.map_or(f64::INFINITY, |(_, t, _)| t);
            if flip.is_finite() && flip <= step {
                // The entering variable reaches its other bound first.
                self.shift(q, dir * flip);
                self.s.at[q] = if dir > 0.0 { At::Upper } else { At::Lower };
                self.s.x[e] = rest_value(self.s.at[q], self.s.lb[e], self.s.ub[e]);
                continue;
            }
            let Some((r, t, side)) = leave else {
                return Err(if phase1 {
                    SolveError::IterationLimit
                } else {
                    SolveError::Unbounded
                });
            };
            self.shift(q, dir * t);
            let b = self.s.head[r];
            self.s.x[b] = rest_value(side, self.s.lb[b], self.s.ub[b]);
            self.pivot(r, q, side);
        }
        Err(SolveError::IterationLimit)
    }

    /// Dual simplex from a dual-feasible basis: the most violated basic
    /// variable leaves at its violated bound; the ratio test keeps the
    /// reduced costs dual feasible.
    fn dual(&mut self, max_iters: usize) -> Result<(), SolveError> {
        let (m, n) = (self.m, self.n);
        let bland_after = max_iters / 2;
        for iter in 0..max_iters {
            let mut leave: Option<usize> = None;
            let mut worst = 0.0;
            for i in 0..m {
                let b = self.s.head[i];
                let inf = self.infeasibility(b);
                if inf <= 0.0 {
                    continue;
                }
                if iter >= bland_after {
                    if leave.is_none_or(|l| b < self.s.head[l]) {
                        leave = Some(i);
                    }
                } else if inf > worst {
                    worst = inf;
                    leave = Some(i);
                }
            }
            let Some(r) = leave else {
                return Ok(());
            };
            let b = self.s.head[r];
            let increase = self.s.x[b] < self.s.lb[b];
            let sgn = if increase { 1.0 } else { -1.0 };

            // Ratio test: the leaving row's reduced cost grows by sgn·t·α_k
            // per column; each column's ratio is how far t can go.
            let row = r * n;
            let ratio = |k: usize| -> Option<(f64, f64)> {
                let s = &self.s;
                let j = s.nonbasic[k];
                let alpha = s.tab[row + k];
                if s.lb[j] == s.ub[j] || alpha.abs() <= PIVOT_TOL {
                    return None;
                }
                let dk = match s.at[k] {
                    At::Lower if sgn * alpha < 0.0 => s.d[k].max(0.0),
                    At::Upper if sgn * alpha > 0.0 => (-s.d[k]).max(0.0),
                    At::Free => 0.0,
                    _ => return None,
                };
                Some((dk, alpha.abs()))
            };
            let mut t_max = f64::INFINITY;
            for k in 0..n {
                if let Some((dk, a)) = ratio(k) {
                    t_max = t_max.min((dk + DUAL_TOL) / a);
                }
            }
            if t_max == f64::INFINITY {
                return Err(SolveError::Infeasible);
            }
            let mut enter: Option<usize> = None;
            let mut best = 0.0;
            for k in 0..n {
                if let Some((dk, a)) = ratio(k) {
                    if dk / a > t_max {
                        continue;
                    }
                    if iter >= bland_after {
                        if enter.is_none_or(|e| self.s.nonbasic[k] < self.s.nonbasic[e]) {
                            enter = Some(k);
                        }
                    } else if a > best {
                        best = a;
                        enter = Some(k);
                    }
                }
            }
            let q = enter.expect("t_max is finite, so some column is eligible");
            // A Harris tie may pick a column with a slightly wrong-signed
            // reduced cost; treat it as zero.
            let wrong_sign = match self.s.at[q] {
                At::Lower => self.s.d[q] < 0.0,
                At::Upper => self.s.d[q] > 0.0,
                At::Free => true,
            };
            if wrong_sign {
                self.s.d[q] = 0.0;
            }
            let target = if increase { self.s.lb[b] } else { self.s.ub[b] };
            let delta = (self.s.x[b] - target) / self.s.tab[row + q];
            self.shift(q, delta);
            self.s.x[b] = target;
            self.pivot(r, q, if increase { At::Lower } else { At::Upper });
        }
        Err(SolveError::IterationLimit)
    }

    /// Moves nonbasic column `q` by `delta`; basic values follow.
    fn shift(&mut self, q: usize, delta: f64) {
        let (m, n) = (self.m, self.n);
        let s = &mut self.s;
        s.x[s.nonbasic[q]] += delta;
        for i in 0..m {
            s.x[s.head[i]] -= s.tab[i * n + q] * delta;
        }
    }

    /// Exchanges basic row `r` with nonbasic column `q`; the leaving
    /// variable becomes nonbasic with status `leaving_at`.
    fn pivot(&mut self, r: usize, q: usize, leaving_at: At) {
        SIMPLEX_PIVOTS.add(1);
        self.pivots += 1;
        let (m, n) = (self.m, self.n);
        let s = &mut self.s;
        let inv = 1.0 / s.tab[r * n + q];
        self.nz.clear();
        for k in 0..n {
            let v = if k == q { inv } else { s.tab[r * n + k] * inv };
            s.tab[r * n + k] = v;
            self.prow[k] = v;
            if v != 0.0 {
                self.nz.push(k);
            }
        }
        let update = |row: &mut [f64], f: f64, prow: &[f64], nz: &[usize]| {
            for &k in nz {
                let v = row[k] - f * prow[k];
                row[k] = if v.abs() < ZERO_TOL { 0.0 } else { v };
            }
        };
        for i in (0..m).filter(|&i| i != r) {
            let row = &mut s.tab[i * n..(i + 1) * n];
            let f = row[q];
            if f == 0.0 {
                continue;
            }
            row[q] = 0.0;
            update(row, f, &self.prow, &self.nz);
        }
        let f = s.d[q];
        if f != 0.0 {
            s.d[q] = 0.0;
            update(&mut s.d, f, &self.prow, &self.nz);
        }
        let (entering, leaving) = (s.nonbasic[q], s.head[r]);
        s.head[r] = entering;
        s.nonbasic[q] = leaving;
        s.pos[entering] = r;
        s.pos[leaving] = m + q;
        s.at[q] = leaving_at;
    }
}

impl Drop for LpEngine<'_> {
    fn drop(&mut self) {
        std::mem::take(&mut self.s).recycle();
    }
}

impl Model {
    /// Solves the model as a pure LP (integrality relaxed): a cold start
    /// of the bounded simplex engine from the all-logical basis.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no point satisfies the constraints,
    /// [`SolveError::Unbounded`] when the objective diverges, and
    /// [`SolveError::IterationLimit`] if simplex stalls.
    pub fn solve_lp(&self) -> Result<Solution, SolveError> {
        let mut lp = LpEngine::new(self);
        lp.solve()?;
        Ok(lp.solution())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp::{Eq, Ge, Le};

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x+5y st x≤4, 2y≤12, 3x+2y≤18  (Dantzig) → x=2,y=6, obj=36.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -3.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -5.0);
        m.add_constraint(vec![(x, 1.0)], Le, 4.0);
        m.add_constraint(vec![(y, 2.0)], Le, 12.0);
        m.add_constraint(vec![(x, 3.0), (y, 2.0)], Le, 18.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 2.0);
        assert_near(s.value(y), 6.0);
        assert_near(s.objective, -36.0);
    }

    #[test]
    fn equality_and_ge_constraints() {
        // min x+y st x+y ≥ 2, x−y = 0 → x=y=1.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, 1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Eq, 0.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 1.0);
        assert_near(s.value(y), 1.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 1.0, 0.0);
        m.add_constraint(vec![(x, 1.0)], Ge, 2.0);
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        m.add_constraint(vec![(x, -1.0)], Le, 0.0);
        assert_eq!(m.solve_lp().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn free_variables_split() {
        // min |shape|: x free, minimize x st x ≥ −5 → −5.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0)], Ge, -5.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), -5.0);
    }

    #[test]
    fn upper_only_bound_mirrors() {
        // max x with x ≤ 7 (lower −inf) and x ≥ 3: min −x → 7.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, 7.0, -1.0);
        m.add_constraint(vec![(x, 1.0)], Ge, 3.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 7.0);
    }

    #[test]
    fn negative_rhs_rows_normalize() {
        // min x st −x ≤ −3 (i.e. x ≥ 3).
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, -1.0)], Le, -3.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 3.0);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several redundant constraints through the optimum.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY, -1.0);
        let y = m.add_var("y", 0.0, f64::INFINITY, -1.0);
        for k in 1..=6 {
            m.add_constraint(vec![(x, k as f64), (y, k as f64)], Le, 2.0 * k as f64);
        }
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x) + s.value(y), 2.0);
    }

    #[test]
    fn solution_is_feasible_and_matches_objective() {
        let mut m = Model::new();
        let x = m.add_var("x", -2.0, 8.0, 2.0);
        let y = m.add_var("y", 0.0, 5.0, -3.0);
        let z = m.add_var("z", 1.0, 4.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 2.0), (z, -1.0)], Le, 6.0);
        m.add_constraint(vec![(x, -1.0), (y, 1.0)], Ge, -3.0);
        m.add_constraint(vec![(y, 1.0), (z, 1.0)], Eq, 5.0);
        let s = m.solve_lp().unwrap();
        assert!(m.max_violation(&s.values) < 1e-6);
        assert_near(s.objective, m.objective_value(&s.values));
    }

    #[test]
    fn bounds_are_not_rows() {
        // Boxed variables only: the optimum sits on the bounds with no
        // constraint rows at all.
        let mut m = Model::new();
        let x = m.add_var("x", -1.0, 4.0, -1.0);
        let y = m.add_var("y", 2.0, 3.0, 1.0);
        let s = m.solve_lp().unwrap();
        assert_near(s.value(x), 4.0);
        assert_near(s.value(y), 2.0);
    }

    #[test]
    fn recycled_buffers_solve_like_fresh_ones() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, -1.0);
        let y = m.add_var("y", 0.0, 10.0, -2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Le, 7.5);
        m.add_constraint(vec![(x, -1.0), (y, 2.0)], Le, 4.0);
        // A fresh thread has no spare states.
        let fresh = std::thread::scope(|s| s.spawn(|| m.solve_lp().unwrap()).join().unwrap());
        // Leave larger, dirty buffers on this thread's spare list first.
        let mut big = Model::new();
        let vars: Vec<_> = (0..6)
            .map(|k| big.add_var(format!("v{k}"), -3.0, 3.0, k as f64 - 2.5))
            .collect();
        for k in 0..5 {
            big.add_constraint(vec![(vars[k], 1.0), (vars[k + 1], 1.0)], Le, 1.0);
        }
        big.solve_lp().unwrap();
        let recycled = m.solve_lp().unwrap();
        assert_eq!(fresh.values, recycled.values);
        assert_eq!(fresh.objective, recycled.objective);
    }

    #[test]
    fn warm_resolve_after_tightening_matches_cold() {
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, -1.0);
        let y = m.add_var("y", 0.0, 10.0, -2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Le, 7.5);
        m.add_constraint(vec![(x, -1.0), (y, 2.0)], Le, 4.0);
        let mut lp = LpEngine::new(&m);
        lp.solve().unwrap();
        let mut upper = vec![10.0, 10.0];
        upper[y.index()] = 3.0;
        lp.set_bounds(&[0.0, 0.0], &upper);
        lp.solve().unwrap();
        let warm = lp.solution();
        let mut tight = m.clone();
        tight.variables[y.index()].upper = 3.0;
        let cold = tight.solve_lp().unwrap();
        assert_near(warm.objective, cold.objective);
        assert!(tight.max_violation(&warm.values) < 1e-6);
    }
}
