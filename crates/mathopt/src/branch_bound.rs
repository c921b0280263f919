//! Branch-and-bound mixed-integer solver on top of the simplex engine.
//!
//! Every node re-solves warm: a branch changes one bound, so the parent's
//! optimal basis stays dual feasible and the dual simplex restores primal
//! feasibility in a few pivots. The child explored first (depth first)
//! continues on the live engine; its sibling carries a snapshot of the
//! parent's state. The search reads no clock: `max_nodes` is its only
//! work limit, so the result is a function of the model and the options.

use crate::simplex::{LpEngine, LpState};
use crate::{Model, Solution, SolveError};

/// Branch-and-bound nodes popped off the stack across all MILP solves.
static MILP_NODES: placer_telemetry::Counter = placer_telemetry::Counter::new("milp_nodes");
/// Nodes discarded by the incumbent bound without (or after) an LP solve.
static MILP_PRUNED: placer_telemetry::Counter = placer_telemetry::Counter::new("milp_pruned");

const INT_TOL: f64 = 1e-6;

/// Options controlling branch and bound.
#[derive(Debug, Clone)]
pub struct MilpOptions {
    /// Maximum number of explored nodes: the search's only work limit.
    pub max_nodes: usize,
    /// Stop early once the incumbent is within this absolute gap of the
    /// best bound.
    pub absolute_gap: f64,
    /// Prune nodes whose bound is within this *fraction* of the incumbent
    /// (accepting slightly suboptimal solutions for large speedups).
    pub relative_gap: f64,
}

impl Default for MilpOptions {
    fn default() -> Self {
        Self {
            max_nodes: 50_000,
            absolute_gap: 1e-6,
            relative_gap: 0.0,
        }
    }
}

/// Work done by one MILP solve. Counted in every build, unlike the
/// `milp_nodes`/`simplex_pivots` telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MilpWork {
    /// Branch-and-bound nodes popped, pruned ones included.
    pub nodes: usize,
    /// Simplex pivots, the root's cold solve and diving included.
    pub pivots: usize,
}

#[derive(Debug)]
struct Node {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// LP bound inherited from the parent (for pruning before solving).
    parent_bound: f64,
    /// The parent's optimal simplex state. `None` for the child pushed
    /// last, which is popped right after its parent and so finds the
    /// parent's state live in the engine.
    warm: Option<LpState>,
}

impl Node {
    /// Drops the node, recycling its snapshot.
    fn discard(self) {
        if let Some(state) = self.warm {
            state.recycle();
        }
    }
}

/// The fractional integer variable to fix or branch on, by `score`
/// (highest wins), with its LP value.
fn pick_fractional(
    model: &Model,
    relaxed: &Solution,
    score: impl Fn(f64, f64, bool) -> f64,
) -> Option<(usize, f64)> {
    let mut pick: Option<(usize, f64)> = None;
    let mut best = f64::NEG_INFINITY;
    for (j, v) in model.variables().iter().enumerate() {
        if v.integer {
            let x = relaxed.values[j];
            let frac = (x - x.round()).abs();
            if frac <= INT_TOL {
                continue;
            }
            let binary = v.upper - v.lower <= 1.0 + 1e-9;
            let s = score(x, frac, binary);
            if s > best {
                best = s;
                pick = Some((j, x));
            }
        }
    }
    pick
}

/// `relaxed` with its integer variables rounded to integers.
fn snap(model: &Model, relaxed: &Solution) -> Solution {
    let mut values = relaxed.values.clone();
    for (k, v) in model.variables().iter().enumerate() {
        if v.integer {
            values[k] = values[k].round();
        }
    }
    let objective = model.objective_value(&values);
    Solution { values, objective }
}

/// Diving heuristic: repeatedly fixes the most fractional integer variable
/// to a rounded value and re-solves the LP warm, backtracking once per
/// variable to the other rounding when the fix is infeasible. Reliably
/// produces an integer-feasible incumbent on models whose continuous
/// variables can absorb the rounding (e.g. net bounding boxes). Each step
/// fixes one more integer variable, so a dive ends after at most one step
/// per integer variable.
///
/// `lp` must hold the optimal state of the node `root` was solved at,
/// whose bounds are `lower0`/`upper0`; the dive leaves it in its last
/// state.
fn diving_heuristic(
    model: &Model,
    lp: &mut LpEngine<'_>,
    lower0: &[f64],
    upper0: &[f64],
    root: &Solution,
) -> Option<Solution> {
    let mut current = root.clone();
    loop {
        // Pick the next variable to fix: fractional binaries first (they
        // reshape the geometry), then the fractional integer with the
        // *smallest* LP value — monotone left-to-right diving dead-ends far
        // less often on difference-constraint systems than most-fractional.
        let pick = pick_fractional(
            model,
            &current,
            |x, frac, binary| {
                if binary {
                    1e18 + frac
                } else {
                    -x
                }
            },
        );
        let Some((j, x)) = pick else {
            // All integral: snap and return.
            let s = snap(model, &current);
            return (model.max_violation(&s.values) <= 1e-6).then_some(s);
        };
        let rounded = x.round().clamp(lower0[j], upper0[j]);
        lp.set_var_bounds(j, rounded, rounded);
        if lp.solve().is_err() {
            let alt = if rounded > x {
                rounded - 1.0
            } else {
                rounded + 1.0
            };
            if alt < lower0[j] || alt > upper0[j] {
                return None;
            }
            lp.set_var_bounds(j, alt, alt);
            lp.solve().ok()?;
        }
        current = lp.solution();
    }
}

/// Tries to repair an LP-relaxation solution into an integer-feasible one by
/// rounding. Returns the repaired solution if it satisfies all constraints.
fn rounding_heuristic(model: &Model, relaxed: &Solution) -> Option<Solution> {
    let mut values = relaxed.values.clone();
    for (j, var) in model.variables().iter().enumerate() {
        if var.integer {
            values[j] = values[j].round().clamp(var.lower, var.upper);
        }
    }
    if model.max_violation(&values) <= 1e-6 {
        let objective = model.objective_value(&values);
        Some(Solution { values, objective })
    } else {
        None
    }
}

impl Model {
    /// Solves the model as a mixed-integer program with branch and bound.
    ///
    /// The root relaxation is a cold simplex solve; every other node
    /// re-solves warm from its parent's basis with the dual simplex.
    /// Branching is on the most fractional integer variable; rounding and
    /// diving heuristics seed the incumbent. The search is depth-first
    /// (better child first) and bounded by [`MilpOptions::max_nodes`] only.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when no integer-feasible point exists,
    /// [`SolveError::Unbounded`] when the relaxation is unbounded,
    /// [`SolveError::NodeLimit`] when the node budget runs out before any
    /// integer solution was found, and [`SolveError::IterationLimit`] when
    /// no integer solution was found but nodes whose LP stalled (or came
    /// back unbounded below the root) were dropped unresolved, so
    /// infeasibility is unproven. If the budget runs out *after* an
    /// incumbent was found, the incumbent is returned (best effort).
    pub fn solve_milp(&self, opts: &MilpOptions) -> Result<Solution, SolveError> {
        self.solve_milp_counted(opts).0
    }

    /// [`solve_milp`](Self::solve_milp), also returning the work it took.
    pub fn solve_milp_counted(
        &self,
        opts: &MilpOptions,
    ) -> (Result<Solution, SolveError>, MilpWork) {
        let mut lp = LpEngine::new(self);
        let mut work = MilpWork::default();
        let result = self.branch_and_bound(opts, &mut lp, &mut work.nodes);
        work.pivots = lp.pivots;
        (result, work)
    }

    /// The search behind [`solve_milp`](Self::solve_milp) on engine `lp`,
    /// counting popped nodes into `nodes`.
    fn branch_and_bound(
        &self,
        opts: &MilpOptions,
        lp: &mut LpEngine<'_>,
        nodes: &mut usize,
    ) -> Result<Solution, SolveError> {
        let mut lower0: Vec<f64> = self.variables().iter().map(|v| v.lower).collect();
        let mut upper0: Vec<f64> = self.variables().iter().map(|v| v.upper).collect();

        // Integer bounds can be tightened to integral values immediately.
        for (j, v) in self.variables().iter().enumerate() {
            if v.integer {
                lower0[j] = lower0[j].ceil();
                upper0[j] = upper0[j].floor();
                if lower0[j] > upper0[j] {
                    return Err(SolveError::Infeasible);
                }
            }
        }

        let mut incumbent: Option<Solution> = None;
        let mut stack = vec![Node {
            lower: lower0,
            upper: upper0,
            parent_bound: f64::NEG_INFINITY,
            warm: None,
        }];
        let mut dives = 0usize;
        let mut unresolved = false;

        while let Some(node) = stack.pop() {
            *nodes += 1;
            MILP_NODES.add(1);
            if *nodes > opts.max_nodes {
                placer_telemetry::vlog!(
                    1,
                    "milp: budget exhausted at {} nodes, stack {}, incumbent {:?}",
                    *nodes,
                    stack.len(),
                    incumbent.as_ref().map(|s| s.objective)
                );
                if incumbent.is_none() {
                    // Last resort: one dive from this node so a small node
                    // budget still yields a feasible answer instead of a
                    // NodeLimit error.
                    if let Some(state) = node.warm {
                        lp.restore(state);
                    }
                    lp.set_bounds(&node.lower, &node.upper);
                    if lp.solve().is_ok() {
                        let relaxed = lp.solution();
                        incumbent = diving_heuristic(self, lp, &node.lower, &node.upper, &relaxed);
                    }
                } else {
                    node.discard();
                }
                stack.into_iter().for_each(Node::discard);
                return incumbent.ok_or(SolveError::NodeLimit);
            }
            let cutoff = incumbent.as_ref().map(|inc| {
                inc.objective - opts.absolute_gap - opts.relative_gap * inc.objective.abs()
            });
            if cutoff.is_some_and(|c| node.parent_bound >= c) {
                MILP_PRUNED.add(1);
                node.discard();
                continue;
            }
            if let Some(state) = node.warm {
                lp.restore(state);
            }
            lp.set_bounds(&node.lower, &node.upper);
            let solved = lp.solve();
            match solved {
                Ok(()) => {}
                Err(SolveError::Infeasible) => continue,
                Err(e @ (SolveError::Unbounded | SolveError::IterationLimit)) if *nodes == 1 => {
                    return Err(e);
                }
                Err(_) => {
                    // A stalled (or numerically unbounded) node is dropped;
                    // the search can no longer prove infeasibility.
                    unresolved = true;
                    continue;
                }
            }
            let relaxed = lp.solution();
            if cutoff.is_some_and(|c| relaxed.objective >= c) {
                MILP_PRUNED.add(1);
                continue;
            }

            // Most fractional integer variable; binaries (big-M selectors,
            // flips) get priority since fixing them simplifies the geometry.
            let branch_var =
                pick_fractional(
                    self,
                    &relaxed,
                    |_, frac, binary| {
                        if binary {
                            frac + 1.0
                        } else {
                            frac
                        }
                    },
                );

            match branch_var {
                None => {
                    // Integer feasible: snap and accept.
                    let s = snap(self, &relaxed);
                    if incumbent
                        .as_ref()
                        .is_none_or(|inc| s.objective < inc.objective - 1e-12)
                    {
                        incumbent = Some(s);
                    }
                }
                Some((j, x)) => {
                    if incumbent.is_none() {
                        incumbent = rounding_heuristic(self, &relaxed);
                    }
                    if incumbent.is_none() && dives < 5 && nodes.is_power_of_two() {
                        dives += 1;
                        let state = lp.snapshot();
                        incumbent = diving_heuristic(self, lp, &node.lower, &node.upper, &relaxed);
                        lp.restore(state);
                    }
                    let floor = x.floor();
                    let mut down = Node {
                        lower: node.lower.clone(),
                        upper: node.upper.clone(),
                        parent_bound: relaxed.objective,
                        warm: None,
                    };
                    down.upper[j] = floor.min(down.upper[j]);
                    let mut up = Node {
                        lower: node.lower,
                        upper: node.upper,
                        parent_bound: relaxed.objective,
                        warm: None,
                    };
                    up.lower[j] = (floor + 1.0).max(up.lower[j]);
                    // Explore the child nearest the LP value first (LIFO);
                    // the other one keeps a copy of this node's basis.
                    let (mut later, first) = if x - floor < 0.5 {
                        (up, down)
                    } else {
                        (down, up)
                    };
                    later.warm = Some(lp.snapshot());
                    stack.push(later);
                    stack.push(first);
                }
            }
        }

        placer_telemetry::vlog!(
            2,
            "milp: explored {} nodes, incumbent: {:?}",
            *nodes,
            incumbent.as_ref().map(|s| s.objective)
        );
        match incumbent {
            Some(s) => Ok(s),
            None if unresolved => Err(SolveError::IterationLimit),
            None => Err(SolveError::Infeasible),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::ConstraintOp::{Eq, Ge, Le};
    use crate::{MilpOptions, Model, SolveError};

    fn opts() -> MilpOptions {
        MilpOptions::default()
    }

    #[test]
    fn knapsack_small() {
        // max 10a+6b+4c st 1a+1b+1c ≤ 2 binaries → a+b = 16.
        let mut m = Model::new();
        let a = m.add_bin_var("a", -10.0);
        let b = m.add_bin_var("b", -6.0);
        let c = m.add_bin_var("c", -4.0);
        m.add_constraint(vec![(a, 1.0), (b, 1.0), (c, 1.0)], Le, 2.0);
        let s = m.solve_milp(&opts()).unwrap();
        assert!((s.objective - (-16.0)).abs() < 1e-6);
        assert!((s.value(a) - 1.0).abs() < 1e-9);
        assert!((s.value(b) - 1.0).abs() < 1e-9);
        assert!(s.value(c).abs() < 1e-9);
    }

    #[test]
    fn integer_rounding_is_not_enough() {
        // min y st y ≥ 0.3 x, y ≥ 0.3 (10 − x), x ∈ [0,10] integer, y integer.
        // LP optimum x=5, y=1.5 → ILP needs y=2.
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.0, 10.0, 0.0);
        let y = m.add_int_var("y", 0.0, 10.0, 1.0);
        m.add_constraint(vec![(y, 1.0), (x, -0.3)], Ge, 0.0);
        m.add_constraint(vec![(y, 1.0), (x, 0.3)], Ge, 3.0);
        let s = m.solve_milp(&opts()).unwrap();
        assert!((s.value(y) - 2.0).abs() < 1e-6, "{:?}", s.values);
    }

    #[test]
    fn mixed_continuous_and_integer() {
        // min x + 2y, x continuous ≥ 0.5, y binary, x + y ≥ 1.6 → y=0, x=1.6.
        let mut m = Model::new();
        let x = m.add_var("x", 0.5, 10.0, 1.0);
        let y = m.add_bin_var("y", 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Ge, 1.6);
        let s = m.solve_milp(&opts()).unwrap();
        assert!(s.value(y).abs() < 1e-9);
        assert!((s.value(x) - 1.6).abs() < 1e-6);
        assert!((s.objective - 1.6).abs() < 1e-6);
    }

    #[test]
    fn work_is_counted_without_telemetry() {
        let mut m = Model::new();
        let a = m.add_bin_var("a", -10.0);
        let b = m.add_bin_var("b", -6.0);
        let c = m.add_bin_var("c", -4.0);
        m.add_constraint(vec![(a, 2.0), (b, 2.0), (c, 2.0)], Le, 3.0);
        let (s, work) = m.solve_milp_counted(&opts());
        assert!((s.unwrap().objective - (-10.0)).abs() < 1e-6);
        assert!(work.nodes > 1, "the root LP is fractional: {work:?}");
        assert!(work.pivots > 0);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x = 1 with x integer.
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Eq, 1.0);
        assert_eq!(m.solve_milp(&opts()).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn empty_integer_domain_rejected() {
        let mut m = Model::new();
        let x = m.add_int_var("x", 0.2, 0.8, 1.0);
        m.add_constraint(vec![(x, 1.0)], Ge, 0.0);
        assert_eq!(m.solve_milp(&opts()).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn big_m_disjunction() {
        // Either x ≤ 2 or x ≥ 8 via binary b: x ≤ 2 + 10b, x ≥ 8b.
        // minimize |x−6|-ish: min t, t ≥ x−6, t ≥ 6−x → best is x=2 (t=4) vs x=8 (t=2).
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, 10.0, 0.0);
        let b = m.add_bin_var("b", 0.0);
        let t = m.add_var("t", 0.0, 100.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (b, -10.0)], Le, 2.0);
        m.add_constraint(vec![(x, 1.0), (b, -8.0)], Ge, 0.0);
        m.add_constraint(vec![(t, 1.0), (x, -1.0)], Ge, -6.0);
        m.add_constraint(vec![(t, 1.0), (x, 1.0)], Ge, 6.0);
        let s = m.solve_milp(&opts()).unwrap();
        assert!((s.value(x) - 8.0).abs() < 1e-6, "{:?}", s.values);
        assert!((s.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn matches_exhaustive_enumeration_on_random_binaries() {
        // 6 binaries, random costs, two random ≤ constraints; compare with
        // brute force over 64 assignments.
        let costs = [3.0, -5.0, 2.0, -1.0, 4.0, -2.5];
        let rows = [
            ([1.0, 2.0, 1.0, 0.0, 1.0, 1.0], 3.0),
            ([0.0, 1.0, 2.0, 1.0, 0.0, 1.0], 2.0),
        ];
        let mut m = Model::new();
        let vars: Vec<_> = costs
            .iter()
            .enumerate()
            .map(|(i, &c)| m.add_bin_var(format!("b{i}"), c))
            .collect();
        for (coefs, rhs) in &rows {
            let terms: Vec<_> = vars.iter().zip(coefs).map(|(&v, &c)| (v, c)).collect();
            m.add_constraint(terms, Le, *rhs);
        }
        let s = m.solve_milp(&opts()).unwrap();

        let mut best = f64::INFINITY;
        for mask in 0..64u32 {
            let x: Vec<f64> = (0..6).map(|i| ((mask >> i) & 1) as f64).collect();
            let ok = rows.iter().all(|(coefs, rhs)| {
                x.iter().zip(coefs).map(|(a, b)| a * b).sum::<f64>() <= *rhs + 1e-9
            });
            if ok {
                let obj: f64 = x.iter().zip(&costs).map(|(a, b)| a * b).sum();
                best = best.min(obj);
            }
        }
        assert!(
            (s.objective - best).abs() < 1e-6,
            "{} vs {}",
            s.objective,
            best
        );
    }
}
