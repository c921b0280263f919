//! The job engine: runs [`JobSpec`]s on the worker pool, one budgeted
//! placement per job, with retry-with-seed-rotation and checkpoint/resume.
//!
//! Independent jobs fan out over `placer_parallel::par_map`, so reports
//! come back in spec order regardless of thread count. Each job builds its
//! placer from the spec's `(placer, profile, seed)` triple through
//! [`make_placer`], runs it under a [`RunBudget`], and folds the
//! [`PlaceOutcome`] into a [`JobReport`]:
//!
//! - `Complete` / `Exhausted` → metrics plus a legality verdict (an
//!   exhausted run is still legalized, so `legal` should always be true);
//! - `Cancelled` → the checkpoint text is written to
//!   `<checkpoint_dir>/<id>.ckpt`; rerunning the same spec with
//!   [`JobEngine::resume`] enabled picks it up and finishes the run
//!   bit-for-bit equal to an uninterrupted one;
//! - `Err(PlaceError)` → retried up to `max_retries` times, each attempt
//!   with the seed rotated by one.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use analog_netlist::{
    parser::{parse_placement, write_placement},
    testcases, Circuit, NetlistDelta,
};
use eplace::{
    CancelFlag, Checkpoint, EPlaceA, EPlaceAP, EcoConfig, EcoOutcome, PerfConfig, PlaceOutcome,
    Placer, PlacerConfig, RunBudget,
};
use placer_gnn::Network;
use placer_sa::{SaConfig, SaPlacer};
use placer_telemetry::{Counter, Histogram};
use placer_xu19::{Xu19GlobalConfig, Xu19Placer};

use crate::spec::{JobReport, JobSpec, JobStatus, Profile};

static JOBS_COMPLETED: Counter = Counter::new("jobs_completed");
static JOBS_EXHAUSTED: Counter = Counter::new("jobs_exhausted");
static JOBS_CANCELLED: Counter = Counter::new("jobs_cancelled");
static JOBS_FAILED: Counter = Counter::new("jobs_failed");
static JOBS_RETRIED: Counter = Counter::new("jobs_retried");
static JOBS_ECO_FAST: Counter = Counter::new("jobs_eco_fast");
static JOBS_ECO_FALLBACK: Counter = Counter::new("jobs_eco_fallback");
static DEADLINE_SLACK_MS: Histogram = Histogram::new("job_deadline_slack_ms");

/// Seed used by the ePlace-AP feature network (its weights are part of the
/// objective, not of the run's random stream, so it does not rotate).
const AP_NETWORK_SEED: u64 = 2;

/// Builds the placer a spec names.
///
/// With `seed: None` every config keeps its `Default` values, so an
/// unbudgeted job is bit-identical to placing with the default placer;
/// `Some(seed)` overrides only the seed. Returns the placer and the seed it
/// will actually run with (used for retry rotation and the report).
///
/// # Errors
///
/// Returns a message for unknown placer names or config validation
/// failures.
pub fn make_placer(
    name: &str,
    profile: Profile,
    seed: Option<u64>,
) -> Result<(Box<dyn Placer>, u64), String> {
    make_placer_with(name, profile, seed, None)
}

/// [`make_placer`] with a utilization override — the sweep engine's
/// variant axis. `Some(u)` sets the density utilization target on the
/// placers that have one (ePlace-A/AP, Xu19); SA packs exactly and has no
/// utilization knob, so the override is a documented no-op there.
///
/// # Errors
///
/// Returns a message for unknown placer names or config validation
/// failures (utilization outside `(0, 1]` included).
pub fn make_placer_with(
    name: &str,
    profile: Profile,
    seed: Option<u64>,
    utilization: Option<f64>,
) -> Result<(Box<dyn Placer>, u64), String> {
    make_placer_variant(
        name,
        profile,
        seed,
        VariantOverrides {
            utilization,
            ..VariantOverrides::default()
        },
    )
}

/// Per-variant config overrides the sweep engine layers on top of a
/// profile. `None` means "keep the profile's value"; the zero-override
/// default is bit-identical to [`make_placer`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VariantOverrides {
    /// Density utilization target (analytical placers; SA ignores it).
    pub utilization: Option<f64>,
    /// Region aspect ratio W/H (analytical placers; SA packs freely and
    /// ignores it). Must be finite and positive.
    pub aspect: Option<f64>,
    /// Constraint relaxation in `[0, 1)`: scales the symmetry penalty
    /// (`tau_scale` for ePlace-A/AP and Xu19, `penalty_weight` for SA)
    /// by `1 - relax`. `0` keeps the constraints at full strength.
    pub relax: Option<f64>,
}

impl VariantOverrides {
    fn validate(&self) -> Result<(), String> {
        if let Some(a) = self.aspect {
            if !a.is_finite() || a <= 0.0 {
                return Err(format!("aspect must be finite and > 0, got {a}"));
            }
        }
        if let Some(r) = self.relax {
            if !r.is_finite() || !(0.0..1.0).contains(&r) {
                return Err(format!("relax must lie in [0, 1), got {r}"));
            }
        }
        Ok(())
    }

    fn relax_factor(&self) -> f64 {
        1.0 - self.relax.unwrap_or(0.0)
    }
}

/// [`make_placer_with`] extended with the full sweep-axis override set
/// (utilization, aspect ratio, constraint relaxation).
///
/// # Errors
///
/// Returns a message for unknown placer names, config validation
/// failures, or out-of-range overrides.
pub fn make_placer_variant(
    name: &str,
    profile: Profile,
    seed: Option<u64>,
    overrides: VariantOverrides,
) -> Result<(Box<dyn Placer>, u64), String> {
    overrides.validate()?;
    let small = profile == Profile::Small;
    match name {
        "eplace-a" | "eplace-ap" => {
            let mut b = PlacerConfig::builder();
            if small {
                b = b.restarts(2).max_iters(80);
            }
            if let Some(s) = seed {
                b = b.seed(s);
            }
            if let Some(u) = overrides.utilization {
                b = b.utilization(u);
            }
            if let Some(a) = overrides.aspect {
                b = b.aspect(a);
            }
            let mut cfg = b.build().map_err(|e| e.to_string())?;
            cfg.global.tau_scale *= overrides.relax_factor();
            let effective = cfg.global.seed;
            let placer: Box<dyn Placer> = if name == "eplace-a" {
                Box::new(EPlaceA::new(cfg))
            } else {
                Box::new(EPlaceAP::new(
                    cfg,
                    PerfConfig::new(0.5, 20.0),
                    Network::default_config(AP_NETWORK_SEED),
                ))
            };
            Ok((placer, effective))
        }
        "sa" => {
            let mut b = SaConfig::builder();
            if small {
                b = b.temperatures(20).moves_per_level(40);
            }
            if let Some(s) = seed {
                b = b.seed(s);
            }
            let mut cfg = b.build().map_err(|e| e.to_string())?;
            cfg.penalty_weight *= overrides.relax_factor();
            let effective = cfg.seed;
            Ok((Box::new(SaPlacer::new(cfg)), effective))
        }
        "xu19" => {
            let mut b = Xu19GlobalConfig::builder();
            if small {
                b = b.rounds(4);
            }
            if let Some(s) = seed {
                b = b.seed(s);
            }
            if let Some(u) = overrides.utilization {
                b = b.utilization(u);
            }
            if let Some(a) = overrides.aspect {
                b = b.aspect(a);
            }
            let mut cfg = b.build().map_err(|e| e.to_string())?;
            cfg.tau_scale *= overrides.relax_factor();
            let effective = cfg.seed;
            Ok((Box::new(Xu19Placer::new(cfg)), effective))
        }
        other => Err(format!(
            "unknown placer `{other}` (expected eplace-a, eplace-ap, sa, or xu19)"
        )),
    }
}

fn make_budget(spec: &JobSpec, preempt: Option<&CancelFlag>) -> RunBudget {
    let mut budget = RunBudget::unlimited();
    if let Some(ms) = spec.deadline_ms {
        budget = budget.with_deadline(Duration::from_secs_f64(ms / 1000.0));
    }
    if let Some(n) = spec.step_limit {
        budget = budget.with_steps(n);
    }
    if let Some(n) = spec.cancel_after_checks {
        budget.cancel_after_checks(n);
    }
    if let Some(flag) = preempt {
        budget = budget.with_cancel_flag(flag);
    }
    budget
}

/// A placer factory for one retry attempt: `None` means "use the placer's
/// default seed" (only ever the first attempt of a spec without a seed).
pub type PlacerFactory<'a> = dyn Fn(Option<u64>) -> Result<(Box<dyn Placer>, u64), String> + 'a;

/// Runs batches of [`JobSpec`]s and folds outcomes into [`JobReport`]s.
#[derive(Debug, Clone, Default)]
pub struct JobEngine {
    /// Where `<id>.ckpt` files are written on cancellation (and read back
    /// when [`resume`](Self::resume) is set). `None` disables persistence:
    /// cancelled jobs then report without a checkpoint path.
    pub checkpoint_dir: Option<PathBuf>,
    /// Where `<id>.place` placement files are written for solved jobs.
    pub placement_dir: Option<PathBuf>,
    /// When true, a job whose `<id>.ckpt` exists resumes from it instead
    /// of starting fresh.
    pub resume: bool,
    /// Compiled-artifact cache shared by every job in the batch: circuits
    /// are parsed and their derived plans built once per distinct netlist,
    /// then handed to placers through
    /// [`Placer::run`](eplace::Placer::run).
    /// Results (and reports) are bit-identical to cold builds — the
    /// artifacts are pure functions of the circuit. Cloning the engine
    /// shares the cache.
    pub cache: std::sync::Arc<eplace::ArtifactCache>,
    /// Incremental re-placement knobs for ECO jobs (specs with an `eco`
    /// deck). `eco.dirty_threshold = 0` forces every non-empty delta onto
    /// the cold fallback path — the CI determinism check.
    pub eco: EcoConfig,
    /// External preemption handle attached to every budget this engine
    /// builds. A scheduler clones the engine per worker slot with the
    /// slot's [`CancelFlag`]; tripping the flag cancels the running job at
    /// its next budget check, it checkpoints, and a later resume (with
    /// [`resume`](Self::resume) set) finishes bit-identically — the same
    /// contract as an in-band `cancel_after_checks`.
    pub preempt: Option<CancelFlag>,
}

impl JobEngine {
    /// Runs every spec (concurrently when the `parallel` feature is on)
    /// and returns one report per spec, in order.
    pub fn run(&self, specs: &[JobSpec]) -> Vec<JobReport> {
        placer_parallel::par_map(specs.len(), |i| self.run_job(&specs[i]))
    }

    /// Runs one job to a terminal report. Never panics: unknown circuits,
    /// bad configs, placer errors and I/O failures all become `failed`
    /// reports.
    pub fn run_job(&self, spec: &JobSpec) -> JobReport {
        self.run_job_with(spec, &|attempt_seed| {
            make_placer(&spec.placer, spec.profile, attempt_seed)
        })
    }

    /// [`run_job`](Self::run_job) with an injectable placer factory
    /// (`attempt_seed` is `None` only for a first attempt without a spec
    /// seed). Lets tests drive the retry path with deterministic failures.
    pub fn run_job_with(&self, spec: &JobSpec, factory: &PlacerFactory<'_>) -> JobReport {
        // Tag this worker thread for the live progress stream: solver loop
        // events recorded inside pick up the job id, deadline slack, and
        // ETA; the terminal status line is emitted from the final report.
        // Observation only — reports are unchanged.
        let _scope = placer_obs::progress::job_scope(&spec.id, spec.deadline_ms);
        let report = self.run_job_inner(spec, factory);
        placer_obs::progress::job_done(
            &report.id,
            report.status.as_str(),
            report.wall_ms,
            report.hpwl,
        );
        report
    }

    fn run_job_inner(&self, spec: &JobSpec, factory: &PlacerFactory<'_>) -> JobReport {
        let mut report = JobReport {
            id: spec.id.clone(),
            circuit: spec.circuit.clone(),
            placer: spec.placer.clone(),
            status: JobStatus::Failed,
            seed: 0,
            simd: placer_simd::selected().name(),
            retries: 0,
            wall_ms: 0.0,
            deadline_slack_ms: None,
            hpwl: None,
            area: None,
            legal: None,
            iterations: None,
            fom: None,
            checkpoint: None,
            eco: None,
            dirty_fraction: None,
            error: None,
        };
        let Some(artifacts) = self
            .cache
            .get_or_build_named(&spec.circuit, || testcases::testcase_by_name(&spec.circuit))
        else {
            report.error = Some(format!("unknown circuit `{}`", spec.circuit));
            JOBS_FAILED.add(1);
            return report;
        };
        if spec.eco.is_some() {
            self.run_eco_job(spec, &artifacts, factory, &mut report);
            return report;
        }
        let circuit = artifacts.circuit();
        let resume_ck = match self.load_checkpoint(spec) {
            Ok(ck) => ck,
            Err(message) => {
                report.error = Some(message);
                JOBS_FAILED.add(1);
                return report;
            }
        };

        let mut base_seed = None;
        for attempt in 0..=spec.max_retries {
            let seed_arg = match (spec.seed, base_seed) {
                (Some(s), _) => Some(s + u64::from(attempt)),
                (None, None) => None, // first attempt: placer defaults
                (None, Some(base)) => Some(base + u64::from(attempt)),
            };
            let (placer, effective_seed) = match factory(seed_arg) {
                Ok(built) => built,
                Err(message) => {
                    // Config/name errors are deterministic: retrying cannot help.
                    report.error = Some(message);
                    JOBS_FAILED.add(1);
                    return report;
                }
            };
            base_seed.get_or_insert(effective_seed);
            report.seed = effective_seed;
            report.retries = attempt;

            let budget = make_budget(spec, self.preempt.as_ref());
            let start = Instant::now();
            let result = placer.run(&artifacts, resume_ck.as_ref(), &budget);
            report.wall_ms = start.elapsed().as_secs_f64() * 1e3;
            match result {
                Ok(outcome) => {
                    self.finish(spec, circuit, outcome, &mut report);
                    return report;
                }
                Err(e) => {
                    report.error = Some(e.to_string());
                    // A checkpoint pins config and RNG state, so seed
                    // rotation cannot apply to a resumed run.
                    if resume_ck.is_some() || attempt == spec.max_retries {
                        break;
                    }
                    JOBS_RETRIED.add(1);
                }
            }
        }
        JOBS_FAILED.add(1);
        report
    }

    /// Runs an ECO job: parse the delta deck, map the warm `.place` file
    /// onto the base circuit, and hand both to
    /// [`Placer::replace`](eplace::Placer::replace). No retry seed
    /// rotation — an ECO run is deterministic given deck + warm start, so
    /// a failure is terminal. Legality is checked against the **patched**
    /// circuit, and the result `.place` (when a placement dir is set)
    /// reflects the edited netlist.
    fn run_eco_job(
        &self,
        spec: &JobSpec,
        artifacts: &eplace::CircuitArtifacts,
        factory: &PlacerFactory<'_>,
        report: &mut JobReport,
    ) {
        let loaded = (|| -> Result<(NetlistDelta, analog_netlist::Placement), String> {
            let deck_path = spec.eco.as_deref().expect("eco branch");
            let warm_path = spec
                .warm_start
                .as_deref()
                .ok_or_else(|| "`eco` requires `warm_start`".to_string())?;
            let deck = std::fs::read_to_string(deck_path)
                .map_err(|e| format!("reading {deck_path}: {e}"))?;
            let delta =
                NetlistDelta::parse(&deck).map_err(|e| format!("parsing {deck_path}: {e}"))?;
            let warm_text = std::fs::read_to_string(warm_path)
                .map_err(|e| format!("reading {warm_path}: {e}"))?;
            let warm = parse_placement(artifacts.circuit(), &warm_text)
                .map_err(|e| format!("parsing {warm_path}: {e}"))?;
            Ok((delta, warm))
        })();
        let (delta, warm) = match loaded {
            Ok(pair) => pair,
            Err(message) => {
                report.error = Some(message);
                JOBS_FAILED.add(1);
                return;
            }
        };
        let (placer, effective_seed) = match factory(spec.seed) {
            Ok(built) => built,
            Err(message) => {
                report.error = Some(message);
                JOBS_FAILED.add(1);
                return;
            }
        };
        report.seed = effective_seed;
        let warm_ck = eplace::eco::warm_checkpoint(artifacts.circuit(), &warm);
        let budget = make_budget(spec, self.preempt.as_ref());
        let start = Instant::now();
        let result = placer.replace(artifacts, &delta, &warm_ck, &budget, &self.eco);
        report.wall_ms = start.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(eco) => {
                report.eco = Some(eco.outcome.status());
                report.dirty_fraction = Some(eco.dirty_fraction);
                let patched = eco.artifacts;
                let outcome = match eco.outcome {
                    EcoOutcome::Fast(sol) => {
                        JOBS_ECO_FAST.add(1);
                        PlaceOutcome::Complete(sol)
                    }
                    EcoOutcome::FellBack(outcome) => {
                        JOBS_ECO_FALLBACK.add(1);
                        outcome
                    }
                };
                self.finish(spec, patched.circuit(), outcome, report);
            }
            Err(e) => {
                report.error = Some(e.to_string());
                JOBS_FAILED.add(1);
            }
        }
    }

    fn checkpoint_path(&self, spec: &JobSpec) -> Option<PathBuf> {
        self.checkpoint_dir
            .as_ref()
            .map(|d| d.join(format!("{}.ckpt", spec.id)))
    }

    fn load_checkpoint(&self, spec: &JobSpec) -> Result<Option<Checkpoint>, String> {
        if !self.resume {
            return Ok(None);
        }
        let Some(path) = self.checkpoint_path(spec) else {
            return Ok(None);
        };
        if !path.exists() {
            return Ok(None);
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        Checkpoint::decode(&text)
            .map(Some)
            .map_err(|e| format!("decoding {}: {e}", path.display()))
    }

    fn finish(
        &self,
        spec: &JobSpec,
        circuit: &Circuit,
        outcome: PlaceOutcome,
        report: &mut JobReport,
    ) {
        if let Some(deadline) = spec.deadline_ms {
            let slack = deadline - report.wall_ms;
            report.deadline_slack_ms = Some(slack);
            DEADLINE_SLACK_MS.record(slack);
        }
        let (status, payload) = match outcome {
            PlaceOutcome::Complete(sol) => (JobStatus::Complete, Ok(sol)),
            PlaceOutcome::Exhausted(sol) => (JobStatus::Exhausted, Ok(sol)),
            PlaceOutcome::Cancelled(ck) => (JobStatus::Cancelled, Err(ck)),
        };
        match payload {
            Ok(sol) => {
                report.status = status;
                if status == JobStatus::Complete {
                    JOBS_COMPLETED.add(1);
                } else {
                    JOBS_EXHAUSTED.add(1);
                }
                report.hpwl = Some(sol.hpwl);
                report.area = Some(sol.area);
                report.legal = Some(sol.placement.is_legal(circuit, 1e-6));
                report.iterations = Some(sol.iterations as u64);
                if let Some(dir) = &self.placement_dir {
                    let path = dir.join(format!("{}.place", spec.id));
                    let text = write_placement(circuit, &sol.placement);
                    if let Err(e) = std::fs::write(&path, text) {
                        report.error = Some(format!("writing {}: {e}", path.display()));
                    }
                }
                // A solved job invalidates any stale checkpoint.
                if let Some(path) = self.checkpoint_path(spec) {
                    let _ = std::fs::remove_file(path);
                }
            }
            Err(ck) => {
                JOBS_CANCELLED.add(1);
                report.status = JobStatus::Cancelled;
                if let Some(path) = self.checkpoint_path(spec) {
                    match std::fs::write(&path, ck.encode()) {
                        Ok(()) => report.checkpoint = Some(path.display().to_string()),
                        Err(e) => {
                            report.error = Some(format!("writing {}: {e}", path.display()));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("placer-jobs-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create tempdir");
        dir
    }

    fn small_sa_spec(id: &str) -> JobSpec {
        let mut spec = JobSpec::new(id, "adder", "sa");
        spec.profile = Profile::Small;
        spec
    }

    #[test]
    fn unbudgeted_job_matches_a_direct_place_bit_for_bit() {
        let spec = small_sa_spec("direct");
        let report = JobEngine::default().run_job(&spec);
        assert_eq!(report.status, JobStatus::Complete);
        assert_eq!(report.legal, Some(true));

        let cfg = SaConfig::builder()
            .temperatures(20)
            .moves_per_level(40)
            .build()
            .unwrap();
        let circuit = testcases::adder();
        let outcome = SaPlacer::new(cfg)
            .place(&circuit, &RunBudget::unlimited())
            .unwrap();
        let direct = outcome.solution().unwrap();
        assert_eq!(report.hpwl.unwrap().to_bits(), direct.hpwl.to_bits());
        assert_eq!(report.area.unwrap().to_bits(), direct.area.to_bits());
        assert_eq!(report.seed, 7, "default SA seed is reported");
    }

    #[test]
    fn step_budget_expiry_reports_exhausted_but_legal() {
        let mut spec = JobSpec::new("tight", "adder", "xu19");
        spec.step_limit = Some(1);
        let report = JobEngine::default().run_job(&spec);
        assert_eq!(report.status, JobStatus::Exhausted);
        assert_eq!(report.legal, Some(true));
        assert!(report.hpwl.unwrap() > 0.0);
    }

    #[test]
    fn cancel_then_resume_through_checkpoint_files_is_bit_identical() {
        let dir = tempdir("resume");
        let mut spec = small_sa_spec("ckpt");
        let reference = JobEngine::default().run_job(&spec);

        spec.cancel_after_checks = Some(3);
        let engine = JobEngine {
            checkpoint_dir: Some(dir.clone()),
            ..JobEngine::default()
        };
        let cancelled = engine.run_job(&spec);
        assert_eq!(cancelled.status, JobStatus::Cancelled);
        let ckpt = cancelled.checkpoint.expect("checkpoint path reported");
        assert!(Path::new(&ckpt).exists());

        spec.cancel_after_checks = None;
        let resumer = JobEngine {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            ..JobEngine::default()
        };
        let resumed = resumer.run_job(&spec);
        assert_eq!(resumed.status, JobStatus::Complete);
        assert_eq!(
            resumed.hpwl.unwrap().to_bits(),
            reference.hpwl.unwrap().to_bits()
        );
        assert!(
            !Path::new(&ckpt).exists(),
            "solved job removes its checkpoint"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn external_preemption_resumes_bit_identically() {
        let dir = tempdir("preempt");
        let spec = small_sa_spec("preempt");
        let reference = JobEngine::default().run_job(&spec);

        // Trip the slot's flag up front: the run cancels at its first
        // budget check — the deterministic stand-in for a scheduler
        // preempting mid-run.
        let flag = CancelFlag::new();
        flag.cancel();
        let engine = JobEngine {
            checkpoint_dir: Some(dir.clone()),
            preempt: Some(flag.clone()),
            ..JobEngine::default()
        };
        let preempted = engine.run_job(&spec);
        assert_eq!(preempted.status, JobStatus::Cancelled);
        assert!(preempted.checkpoint.is_some());

        flag.reset();
        let resumer = JobEngine {
            checkpoint_dir: Some(dir.clone()),
            resume: true,
            preempt: Some(flag),
            ..JobEngine::default()
        };
        let resumed = resumer.run_job(&spec);
        assert_eq!(resumed.status, JobStatus::Complete);
        assert_eq!(
            resumed.hpwl.unwrap().to_bits(),
            reference.hpwl.unwrap().to_bits()
        );
        assert_eq!(resumed.to_line(), {
            let mut r = reference.clone();
            r.wall_ms = resumed.wall_ms;
            r.to_line()
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn failed_attempts_retry_with_rotated_seeds() {
        struct FailingPlacer;
        impl Placer for FailingPlacer {
            fn name(&self) -> &'static str {
                "failing"
            }
            fn run(
                &self,
                _artifacts: &eplace::CircuitArtifacts,
                _resume: Option<&Checkpoint>,
                _budget: &RunBudget,
            ) -> Result<PlaceOutcome, eplace::PlaceError> {
                Err(eplace::PlaceError::RefinementExhausted)
            }
        }

        let seeds = std::sync::Mutex::new(Vec::new());
        let mut spec = small_sa_spec("retry");
        spec.max_retries = 2;
        let report = JobEngine::default().run_job_with(&spec, &|seed| {
            seeds.lock().unwrap().push(seed);
            let effective = seed.unwrap_or(7);
            if effective < 9 {
                Ok((Box::new(FailingPlacer), effective))
            } else {
                make_placer("sa", Profile::Small, seed)
            }
        });
        // First attempt uses defaults, later ones rotate from the
        // effective seed the first attempt reported.
        assert_eq!(*seeds.lock().unwrap(), vec![None, Some(8), Some(9)]);
        assert_eq!(report.retries, 2);
        assert_eq!(report.status, JobStatus::Complete);
        assert_eq!(report.seed, 9);
    }

    #[test]
    fn exhausted_retries_are_not_retried_and_failures_cap_out() {
        let mut spec = small_sa_spec("cap");
        spec.placer = "no-such-placer".into();
        let report = JobEngine::default().run_job(&spec);
        assert_eq!(report.status, JobStatus::Failed);
        assert!(report.error.unwrap().contains("unknown placer"));

        let mut spec = JobSpec::new("ghost", "no_such_circuit", "sa");
        spec.max_retries = 3;
        let report = JobEngine::default().run_job(&spec);
        assert_eq!(report.status, JobStatus::Failed);
        assert_eq!(report.retries, 0, "unknown circuit fails without retry");
    }

    #[test]
    fn artifact_cached_jobs_report_byte_identically_to_direct_runs() {
        for (circuit_name, placer_name) in [
            ("adder", "sa"),
            ("adder", "xu19"),
            ("cc_ota", "eplace-a"),
            ("cc_ota", "eplace-ap"),
        ] {
            let mut spec = JobSpec::new(
                format!("{placer_name}-{circuit_name}"),
                circuit_name,
                placer_name,
            );
            spec.profile = Profile::Small;
            let engine = JobEngine::default();
            let mut report = engine.run_job(&spec);
            // Second run of the same spec is served from the cache; the
            // report line must be byte-identical once the only
            // nondeterministic field (wall time) is normalized.
            let mut again = engine.run_job(&spec);
            assert!(engine.cache.hits() > 0, "{placer_name}: no cache hit");
            report.wall_ms = 0.0;
            again.wall_ms = 0.0;
            assert_eq!(report.to_line(), again.to_line(), "{placer_name}");
            // And both must match a cold `place` on fresh artifacts bit
            // for bit — the cache changes where bytes live, not results.
            let (placer, seed) = make_placer(placer_name, spec.profile, None).unwrap();
            let circuit = testcases::testcase_by_name(circuit_name).unwrap();
            let outcome = placer.place(&circuit, &RunBudget::unlimited()).unwrap();
            let sol = outcome.solution().unwrap();
            assert_eq!(report.hpwl.unwrap().to_bits(), sol.hpwl.to_bits());
            assert_eq!(report.area.unwrap().to_bits(), sol.area.to_bits());
            assert_eq!(report.iterations, Some(sol.iterations as u64));
            assert_eq!(report.seed, seed, "{placer_name}");
        }
    }

    #[test]
    fn eco_jobs_run_fast_and_fall_back_deterministically() {
        let dir = tempdir("eco");
        let engine = JobEngine {
            placement_dir: Some(dir.clone()),
            ..JobEngine::default()
        };
        // Cold job produces the warm-start .place file.
        let mut cold = JobSpec::new("cold", "cc_ota", "eplace-a");
        cold.profile = Profile::Small;
        let cold_report = engine.run_job(&cold);
        assert_eq!(cold_report.status, JobStatus::Complete);
        let warm_path = dir.join("cold.place");
        assert!(warm_path.exists());
        let deck_path = dir.join("edit.eco");
        std::fs::write(&deck_path, "resize RB 18k\n").unwrap();

        // Single-device resize stays under the dirty threshold: fast path.
        let mut eco = JobSpec::new("eco-fast", "cc_ota", "eplace-a");
        eco.profile = Profile::Small;
        eco.eco = Some(deck_path.display().to_string());
        eco.warm_start = Some(warm_path.display().to_string());
        let fast = engine.run_job(&eco);
        assert_eq!(fast.status, JobStatus::Complete, "{:?}", fast.error);
        assert_eq!(fast.eco, Some("fast"));
        assert_eq!(fast.legal, Some(true));
        let frac = fast.dirty_fraction.unwrap();
        assert!(frac > 0.0 && frac < 0.25, "dirty_fraction {frac}");
        assert!(dir.join("eco-fast.place").exists());

        // Threshold 0 forces the fallback, which must be bit-identical to
        // cold-placing the edited circuit.
        let strict = JobEngine {
            eco: EcoConfig {
                dirty_threshold: 0.0,
                ..EcoConfig::default()
            },
            ..engine.clone()
        };
        let mut fallback_spec = eco.clone();
        fallback_spec.id = "eco-fallback".into();
        let fb = strict.run_job(&fallback_spec);
        assert_eq!(fb.status, JobStatus::Complete, "{:?}", fb.error);
        assert_eq!(fb.eco, Some("fallback"));
        assert_eq!(fb.legal, Some(true));
        let circuit = testcases::cc_ota();
        let delta = NetlistDelta::parse("resize RB 18k\n").unwrap();
        let edited = delta.apply(&circuit).unwrap().circuit;
        let (placer, _) = make_placer("eplace-a", Profile::Small, None).unwrap();
        let reference = placer.place(&edited, &RunBudget::unlimited()).unwrap();
        let sol = reference.solution().unwrap();
        assert_eq!(fb.hpwl.unwrap().to_bits(), sol.hpwl.to_bits());
        assert_eq!(fb.area.unwrap().to_bits(), sol.area.to_bits());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn eco_jobs_with_missing_inputs_fail_cleanly() {
        let mut spec = JobSpec::new("ghost-eco", "adder", "sa");
        spec.profile = Profile::Small;
        spec.eco = Some("/nonexistent/edit.eco".into());
        spec.warm_start = Some("/nonexistent/warm.place".into());
        let report = JobEngine::default().run_job(&spec);
        assert_eq!(report.status, JobStatus::Failed);
        assert!(report.error.unwrap().contains("edit.eco"));
    }

    #[test]
    fn batches_report_in_spec_order() {
        let specs = vec![
            {
                let mut s = JobSpec::new("b1", "adder", "xu19");
                s.step_limit = Some(1);
                s
            },
            JobSpec::new("b2", "definitely_missing", "sa"),
        ];
        let reports = JobEngine::default().run(&specs);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].id, "b1");
        assert_eq!(reports[0].status, JobStatus::Exhausted);
        assert_eq!(reports[1].id, "b2");
        assert_eq!(reports[1].status, JobStatus::Failed);
    }
}
