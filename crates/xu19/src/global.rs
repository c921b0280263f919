//! Global placement of the ISPD'19 baseline \[11\]: LSE wirelength +
//! bell-shaped density + soft symmetry, **no area term**, solved with
//! nonlinear conjugate gradient (the NTUplace3 lineage).

use analog_netlist::{Circuit, Placement};
use placer_numeric::{minimize_cg, CgOptions};

use crate::bell::BellDensity;
use crate::lse::lse_wirelength;
use eplace::{symmetry_penalty, BudgetStatus, ConfigError, RunBudget};

/// Configuration of the baseline's global placement.
#[derive(Debug, Clone)]
pub struct Xu19GlobalConfig {
    /// Bin grid dimension per axis.
    pub bins: usize,
    /// Region utilization target.
    pub utilization: f64,
    /// Region aspect ratio W/H. W = side·√aspect, H = side/√aspect; 1.0 is
    /// the square region and is bit-identical to the pre-aspect behavior.
    pub aspect: f64,
    /// LSE smoothing γ as a multiple of the bin size.
    pub gamma_bins: f64,
    /// Density weight multiplier per outer round.
    pub beta_growth: f64,
    /// Outer rounds (density reweighting steps).
    pub rounds: usize,
    /// CG iterations per round.
    pub cg_iters: usize,
    /// Symmetry penalty scale.
    pub tau_scale: f64,
    /// Deterministic seed for the initial spread.
    pub seed: u64,
}

impl Default for Xu19GlobalConfig {
    fn default() -> Self {
        Self {
            bins: 24,
            utilization: 0.35,
            aspect: 1.0,
            gamma_bins: 2.0,
            beta_growth: 2.0,
            rounds: 8,
            cg_iters: 60,
            tau_scale: 0.6,
            seed: 1,
        }
    }
}

impl Xu19GlobalConfig {
    /// Starts a validating builder seeded with the defaults.
    pub fn builder() -> Xu19GlobalConfigBuilder {
        Xu19GlobalConfigBuilder {
            config: Xu19GlobalConfig::default(),
        }
    }

    /// Checks every field; [`Xu19GlobalConfigBuilder::build`] calls this.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.bins < 2 {
            return Err(ConfigError::new("xu19.bins", "must be >= 2"));
        }
        eplace::require_fraction("xu19.utilization", self.utilization, 0.0, 1.0)?;
        eplace::require_positive("xu19.aspect", self.aspect)?;
        eplace::require_positive("xu19.gamma_bins", self.gamma_bins)?;
        if !self.beta_growth.is_finite() || self.beta_growth < 1.0 {
            return Err(ConfigError::new(
                "xu19.beta_growth",
                format!("must be finite and >= 1, got {}", self.beta_growth),
            ));
        }
        if self.rounds == 0 {
            return Err(ConfigError::new("xu19.rounds", "must be > 0"));
        }
        if self.cg_iters == 0 {
            return Err(ConfigError::new("xu19.cg_iters", "must be > 0"));
        }
        eplace::require_nonnegative("xu19.tau_scale", self.tau_scale)?;
        Ok(())
    }
}

/// Validating builder for [`Xu19GlobalConfig`]; see
/// [`Xu19GlobalConfig::builder`].
#[derive(Debug, Clone)]
pub struct Xu19GlobalConfigBuilder {
    config: Xu19GlobalConfig,
}

impl Xu19GlobalConfigBuilder {
    /// Sets the bin grid dimension per axis.
    pub fn bins(mut self, bins: usize) -> Self {
        self.config.bins = bins;
        self
    }

    /// Sets the region utilization target (must end up in `(0, 1]`).
    pub fn utilization(mut self, utilization: f64) -> Self {
        self.config.utilization = utilization;
        self
    }

    /// Sets the region aspect ratio W/H (must end up finite and positive).
    pub fn aspect(mut self, aspect: f64) -> Self {
        self.config.aspect = aspect;
        self
    }

    /// Sets the LSE smoothing γ as a multiple of the bin size.
    pub fn gamma_bins(mut self, gamma_bins: f64) -> Self {
        self.config.gamma_bins = gamma_bins;
        self
    }

    /// Sets the density weight multiplier per outer round.
    pub fn beta_growth(mut self, beta_growth: f64) -> Self {
        self.config.beta_growth = beta_growth;
        self
    }

    /// Sets the number of outer rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.config.rounds = rounds;
        self
    }

    /// Sets the CG iterations per round.
    pub fn cg_iters(mut self, cg_iters: usize) -> Self {
        self.config.cg_iters = cg_iters;
        self
    }

    /// Sets the symmetry penalty scale.
    pub fn tau_scale(mut self, tau_scale: f64) -> Self {
        self.config.tau_scale = tau_scale;
        self
    }

    /// Sets the deterministic seed for the initial spread.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Validates and returns the finished config.
    pub fn build(self) -> Result<Xu19GlobalConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Statistics of a baseline global placement run.
#[derive(Debug, Clone)]
pub struct Xu19GlobalStats {
    /// Total CG iterations across rounds.
    pub iterations: usize,
    /// Final density overflow.
    pub overflow: f64,
    /// Region side (µm).
    pub region_side: f64,
}

/// Runs the baseline's global placement.
///
/// # Panics
///
/// Panics if the circuit has no devices.
pub fn run_global(circuit: &Circuit, cfg: &Xu19GlobalConfig) -> (Placement, Xu19GlobalStats) {
    match run_global_budgeted(circuit, cfg, None, None, None) {
        Xu19Run::Complete(p, s) | Xu19Run::Exhausted(p, s) => (p, s),
        Xu19Run::Cancelled(_) => unreachable!("no budget, cannot cancel"),
    }
}

/// Extra gradient hook type (used by the Perf* extension of Table V/VII).
pub type ExtraGradientFn<'a> = dyn FnMut(&[(f64, f64)], &mut [f64]) -> f64 + 'a;

/// A baseline global placement frozen at an outer-round boundary.
///
/// The normalization pass (spiral spread, gradient-derived `tau`) is a pure
/// function of circuit and config, so only the evolving quantities are
/// stored; [`run_global_budgeted`] recomputes the rest deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct Xu19Checkpoint {
    /// The next outer round to run.
    pub round: usize,
    /// Flat coordinates (`x[0..n]`, `y[n..2n]`) at the boundary.
    pub x: Vec<f64>,
    /// Density weight at the boundary.
    pub beta: f64,
    /// CG iterations spent so far.
    pub iterations: usize,
    /// Density overflow after the last finished round.
    pub overflow: f64,
}

/// What a budgeted baseline global placement produced.
#[derive(Debug, Clone)]
pub enum Xu19Run {
    /// Ran to convergence (overflow target or round limit).
    Complete(Placement, Xu19GlobalStats),
    /// Budget expired; coordinates as of the last finished round.
    Exhausted(Placement, Xu19GlobalStats),
    /// Cancelled at a round boundary; resume to finish bit-for-bit.
    Cancelled(Box<Xu19Checkpoint>),
}

/// [`run_global`] with an optional extra gradient (the Perf* variant)
/// under an optional [`RunBudget`], checked once per outer round (the
/// checkpoint granularity), optionally resuming a cancelled run.
pub fn run_global_budgeted(
    circuit: &Circuit,
    cfg: &Xu19GlobalConfig,
    mut extra: Option<&mut ExtraGradientFn<'_>>,
    budget: Option<&RunBudget>,
    resume: Option<&Xu19Checkpoint>,
) -> Xu19Run {
    static SPAN: placer_telemetry::SpanStat = placer_telemetry::SpanStat::new("xu19_global");
    let _span = SPAN.enter();
    let n = circuit.num_devices();
    assert!(n > 0, "cannot place an empty circuit");
    let side = (circuit.total_device_area() / cfg.utilization).sqrt();
    let (side_x, side_y) = (side * cfg.aspect.sqrt(), side / cfg.aspect.sqrt());
    let bell = BellDensity::new(
        (0.0, 0.0),
        (side_x, side_y),
        cfg.bins,
        cfg.bins,
        cfg.utilization,
    );
    let gamma = cfg.gamma_bins * side / cfg.bins as f64;

    // Deterministic initial spread (same spiral as ePlace-A for fairness).
    let golden = std::f64::consts::PI * (3.0 - 5.0_f64.sqrt());
    let mut x = vec![0.0; 2 * n];
    for i in 0..n {
        let rx = side_x * 0.18 * ((i as f64 + 0.5) / n as f64).sqrt();
        let ry = side_y * 0.18 * ((i as f64 + 0.5) / n as f64).sqrt();
        let theta = golden * (i as f64 + cfg.seed as f64);
        x[i] = side_x / 2.0 + rx * theta.cos();
        x[n + i] = side_y / 2.0 + ry * theta.sin();
    }

    // Normalize weights from initial gradients.
    let pts0: Vec<(f64, f64)> = (0..n).map(|i| (x[i], x[n + i])).collect();
    let mut g_wl = vec![0.0; 2 * n];
    lse_wirelength(circuit, &pts0, gamma, &mut g_wl);
    let mut g_bell = vec![0.0; 2 * n];
    bell.evaluate(circuit, &pts0, 1.0, &mut g_bell);
    let mut g_sym = vec![0.0; 2 * n];
    symmetry_penalty(circuit, &pts0, 1.0, &mut g_sym);
    let l1 = |g: &[f64]| g.iter().map(|v| v.abs()).sum::<f64>().max(1e-12);
    let wl_norm = l1(&g_wl);
    let mut beta = 0.2 * wl_norm / l1(&g_bell);
    let tau = cfg.tau_scale * wl_norm / l1(&g_sym);

    let mut iterations = 0;
    let mut overflow = 1.0;
    let start_round = match resume {
        Some(ck) => {
            assert_eq!(ck.x.len(), 2 * n, "checkpoint sized for another circuit");
            x.copy_from_slice(&ck.x);
            beta = ck.beta;
            iterations = ck.iterations;
            overflow = ck.overflow;
            ck.round
        }
        None => 0,
    };
    let mut exhausted = false;
    for round in start_round..cfg.rounds {
        // Budget granularity == checkpoint granularity: one check per
        // outer round, never inside the CG solve.
        if let Some(b) = budget {
            match b.check() {
                BudgetStatus::Continue => {}
                BudgetStatus::Exhausted => {
                    exhausted = true;
                    break;
                }
                BudgetStatus::Cancelled => {
                    return Xu19Run::Cancelled(Box::new(Xu19Checkpoint {
                        round,
                        x,
                        beta,
                        iterations,
                        overflow,
                    }));
                }
            }
        }
        let opts = CgOptions {
            max_iters: cfg.cg_iters,
            grad_tol: 1e-5,
            initial_step: side / cfg.bins as f64 * 0.5,
            ..CgOptions::default()
        };
        let result = minimize_cg(
            |v, grad| {
                let pts: Vec<(f64, f64)> = (0..n).map(|i| (v[i], v[n + i])).collect();
                grad.iter_mut().for_each(|g| *g = 0.0);
                let wl = lse_wirelength(circuit, &pts, gamma, grad);
                let mut g_b = vec![0.0; 2 * n];
                let (pen, _) = bell.evaluate(circuit, &pts, beta, &mut g_b);
                for (g, gb) in grad.iter_mut().zip(&g_b) {
                    *g += gb;
                }
                let sym = symmetry_penalty(circuit, &pts, tau, grad);
                let extra_val = match extra.as_deref_mut() {
                    Some(hook) => hook(&pts, grad),
                    None => 0.0,
                };
                wl + beta * pen + tau * sym + extra_val
            },
            x.clone(),
            &opts,
        );
        x = result.x;
        iterations += result.iterations;
        // Clamp into the region.
        for (i, d) in circuit.devices().iter().enumerate() {
            let hw = (d.width / 2.0).min(side_x / 2.0);
            let hh = (d.height / 2.0).min(side_y / 2.0);
            x[i] = x[i].clamp(hw, side_x - hw);
            x[n + i] = x[n + i].clamp(hh, side_y - hh);
        }
        let pts: Vec<(f64, f64)> = (0..n).map(|i| (x[i], x[n + i])).collect();
        let mut scratch = vec![0.0; 2 * n];
        let (_, of) = bell.evaluate(circuit, &pts, 1.0, &mut scratch);
        overflow = of;
        placer_telemetry::record(
            "xu_round",
            &[
                ("round", round as f64),
                ("rounds", cfg.rounds as f64),
                ("cg_iters", result.iterations as f64),
                ("total_iters", iterations as f64),
                ("overflow", overflow),
                ("beta", beta),
                ("value", result.value),
            ],
        );
        if overflow < 0.08 {
            break;
        }
        beta *= cfg.beta_growth;
    }
    placer_telemetry::flush();

    let pts: Vec<(f64, f64)> = (0..n).map(|i| (x[i], x[n + i])).collect();
    let placement = Placement::from_positions(pts);
    let stats = Xu19GlobalStats {
        iterations,
        overflow,
        region_side: side,
    };
    if exhausted {
        Xu19Run::Exhausted(placement, stats)
    } else {
        Xu19Run::Complete(placement, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;

    #[test]
    fn baseline_global_reduces_overlap() {
        let c = testcases::cc_ota();
        let (p, stats) = run_global(&c, &Xu19GlobalConfig::default());
        let stacked = Placement::new(c.num_devices());
        assert!(p.overlap_area(&c) < 0.7 * stacked.overlap_area(&c));
        assert!(stats.overflow < 0.6, "overflow {}", stats.overflow);
    }

    #[test]
    fn devices_stay_in_region() {
        let c = testcases::comp1();
        let (p, stats) = run_global(&c, &Xu19GlobalConfig::default());
        for (i, d) in c.devices().iter().enumerate() {
            let (x, y) = p.positions[i];
            assert!(x >= d.width / 2.0 - 1e-6 && x <= stats.region_side - d.width / 2.0 + 1e-6);
            assert!(y >= d.height / 2.0 - 1e-6 && y <= stats.region_side - d.height / 2.0 + 1e-6);
        }
    }

    #[test]
    fn deterministic_runs() {
        let c = testcases::adder();
        let a = run_global(&c, &Xu19GlobalConfig::default()).0;
        let b = run_global(&c, &Xu19GlobalConfig::default()).0;
        assert_eq!(a, b);
    }

    #[test]
    fn unlimited_budget_is_bit_identical_to_unbudgeted() {
        let c = testcases::cc_ota();
        let cfg = Xu19GlobalConfig::default();
        let (a, stats_a) = run_global(&c, &cfg);
        let Xu19Run::Complete(b, stats_b) =
            run_global_budgeted(&c, &cfg, None, Some(&RunBudget::unlimited()), None)
        else {
            panic!("unlimited budget must complete");
        };
        assert_eq!(a, b);
        assert_eq!(stats_a.iterations, stats_b.iterations);
        assert_eq!(stats_a.overflow.to_bits(), stats_b.overflow.to_bits());
    }

    #[test]
    fn cancel_then_resume_is_bit_identical() {
        let c = testcases::cc_ota();
        let cfg = Xu19GlobalConfig::default();
        let (reference, ref_stats) = run_global(&c, &cfg);

        for cancel_at in [0u64, 1, 3] {
            let budget = RunBudget::unlimited();
            budget.cancel_after_checks(cancel_at);
            let Xu19Run::Cancelled(ck) = run_global_budgeted(&c, &cfg, None, Some(&budget), None)
            else {
                panic!("expected cancellation at check {cancel_at}");
            };
            let Xu19Run::Complete(resumed, stats) =
                run_global_budgeted(&c, &cfg, None, Some(&RunBudget::unlimited()), Some(&ck))
            else {
                panic!("resume must complete");
            };
            assert_eq!(reference, resumed, "cancel_at={cancel_at}");
            assert_eq!(ref_stats.iterations, stats.iterations);
            assert_eq!(ref_stats.overflow.to_bits(), stats.overflow.to_bits());
        }
    }

    #[test]
    fn exhaustion_stops_at_the_round_budget() {
        let c = testcases::cc_ota();
        let cfg = Xu19GlobalConfig::default();
        let Xu19Run::Exhausted(p, stats) =
            run_global_budgeted(&c, &cfg, None, Some(&RunBudget::steps(2)), None)
        else {
            panic!("a 2-round budget cannot finish 8 rounds");
        };
        assert_eq!(p.positions.len(), c.num_devices());
        // Two finished rounds cap the iteration count at 2 CG solves.
        assert!(stats.iterations <= 2 * cfg.cg_iters);
    }

    #[test]
    fn builder_validates_and_builds() {
        let cfg = Xu19GlobalConfig::builder()
            .bins(16)
            .utilization(0.5)
            .rounds(4)
            .seed(9)
            .build()
            .unwrap();
        assert_eq!(cfg.bins, 16);
        assert_eq!(cfg.rounds, 4);

        assert!(Xu19GlobalConfig::builder().bins(1).build().is_err());
        assert!(Xu19GlobalConfig::builder()
            .utilization(0.0)
            .build()
            .is_err());
        assert!(Xu19GlobalConfig::builder()
            .utilization(f64::NAN)
            .build()
            .is_err());
        assert!(Xu19GlobalConfig::builder()
            .beta_growth(0.5)
            .build()
            .is_err());
        assert!(Xu19GlobalConfig::builder().rounds(0).build().is_err());
        assert!(Xu19GlobalConfig::builder().cg_iters(0).build().is_err());
        assert!(Xu19GlobalConfig::builder().tau_scale(-1.0).build().is_err());
    }
}
