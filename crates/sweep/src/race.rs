//! Deterministic portfolio racing: all placers start, dominated runs die.
//!
//! One race runs every placer of the portfolio on the same
//! [`CircuitArtifacts`] under cooperative step quotas. Time is sliced into
//! fixed *comparison rounds*: each round every surviving racer runs until
//! its budget has passed [`RaceConfig::round_checks`] checks
//! ([`RunBudget::cancel_after_checks`]), then the tournament compares the
//! best-so-far figure of merit — the solution's `hpwl × area` for finished
//! racers, the [`RaceProbe`] extracted from the frozen checkpoint for
//! cancelled ones — and kills every racer whose FOM exceeds
//! [`RaceConfig::kill_ratio`] × the round's best, keeping at least
//! [`RaceConfig::min_survivors`] alive. After the last round the survivors
//! resume to completion.
//!
//! # Determinism contract
//!
//! The race is bit-identical across thread counts:
//!
//! - quotas count budget *checks*, not wall time, so every segment ends at
//!   the same deterministic cut for any machine load;
//! - probes are pure functions of the checkpoint text
//!   ([`eplace::Placer::probe`]'s contract) — no live solver state leaks
//!   into the comparison;
//! - comparisons happen in racer-index order with strict inequalities, so
//!   ties break toward the lower index;
//! - racers within one race run sequentially; sweeps parallelize across
//!   *races*, which are independent.

use std::time::Instant;

use eplace::{Checkpoint, CircuitArtifacts, PlaceOutcome, PlaceSolution, Placer, RunBudget};
use placer_telemetry::Counter;

static RACES_RUN: Counter = Counter::new("sweep_races");
static RACERS_KILLED: Counter = Counter::new("sweep_racers_killed");
static RACERS_FINISHED: Counter = Counter::new("sweep_racers_finished");

/// Tournament policy for one portfolio race.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RaceConfig {
    /// Comparison rounds before the survivors run unbudgeted.
    pub rounds: usize,
    /// Budget checks each racer may pass per round. Budget checks happen
    /// at placer-specific boundaries (ePlace rounds, SA temperature
    /// levels, Xu19 outer rounds), so this is a coarse, deterministic
    /// progress quota.
    pub round_checks: u64,
    /// Kill a racer when its FOM exceeds this multiple of the round's
    /// best FOM (strictly greater; `1.0` kills everything but the best).
    pub kill_ratio: f64,
    /// Never kill below this many live (finished or running) racers.
    pub min_survivors: usize,
}

impl Default for RaceConfig {
    fn default() -> Self {
        Self {
            rounds: 3,
            round_checks: 8,
            kill_ratio: 1.5,
            min_survivors: 1,
        }
    }
}

impl RaceConfig {
    /// Validates the policy fields.
    ///
    /// # Errors
    ///
    /// Returns a message when `kill_ratio < 1` or `min_survivors == 0`.
    pub fn validate(&self) -> Result<(), String> {
        if self.kill_ratio < 1.0 {
            return Err(format!("kill_ratio {} must be >= 1", self.kill_ratio));
        }
        if self.min_survivors == 0 {
            return Err("min_survivors must be at least 1".into());
        }
        Ok(())
    }
}

/// One contender: a named placer plus the seed its config runs with.
pub struct Racer {
    /// Wire name (for the report row).
    pub name: String,
    /// The configured placer.
    pub placer: Box<dyn Placer>,
    /// Effective seed (for the report row).
    pub seed: u64,
}

/// How one racer ended.
#[derive(Debug)]
pub enum RacerEnd {
    /// Ran to natural convergence.
    Complete(PlaceSolution),
    /// A step/deadline budget expired mid-run (not a race kill).
    Exhausted(PlaceSolution),
    /// Killed by the tournament; carries the last probed FOM if the
    /// checkpoint yielded one.
    Killed {
        /// Best-so-far probe at the kill, if the placer reported one.
        probe: Option<eplace::RaceProbe>,
    },
    /// The placer returned an error.
    Failed(String),
}

/// One racer's outcome plus its timing.
#[derive(Debug)]
pub struct RacerResult {
    /// How the run ended.
    pub end: RacerEnd,
    /// Wall time across all of this racer's segments (ms).
    pub wall_ms: f64,
    /// Comparison rounds this racer survived before finishing or dying.
    pub rounds_run: usize,
}

impl RacerResult {
    /// The figure of merit used by the tournament (`hpwl × area`), when
    /// one is known.
    pub fn fom(&self) -> Option<f64> {
        match &self.end {
            RacerEnd::Complete(s) | RacerEnd::Exhausted(s) => Some(s.hpwl * s.area),
            RacerEnd::Killed { probe } => probe.as_ref().map(|p| p.fom()),
            RacerEnd::Failed(_) => None,
        }
    }
}

enum Lane {
    Running(Option<Checkpoint>),
    Done(RacerEnd),
}

/// Runs one portfolio race to completion. Returns one result per racer,
/// in racer order.
pub fn race(
    artifacts: &CircuitArtifacts,
    racers: &[Racer],
    config: &RaceConfig,
) -> Vec<RacerResult> {
    RACES_RUN.add(1);
    let n = racers.len();
    let mut lanes: Vec<Lane> = (0..n).map(|_| Lane::Running(None)).collect();
    let mut wall_ms = vec![0.0f64; n];
    let mut rounds_run = vec![0usize; n];
    // Last probe seen per lane, so a kill can report the FOM it died with.
    let mut probes: Vec<Option<eplace::RaceProbe>> = (0..n).map(|_| None).collect();

    let run_segment = |racer: &Racer,
                       resume: &Option<Checkpoint>,
                       quota: Option<u64>,
                       wall: &mut f64|
     -> Result<PlaceOutcome, String> {
        let budget = RunBudget::unlimited();
        if let Some(q) = quota {
            budget.cancel_after_checks(q);
        }
        let t0 = Instant::now();
        let outcome = racer.placer.run(artifacts, resume.as_ref(), &budget);
        *wall += t0.elapsed().as_secs_f64() * 1e3;
        outcome.map_err(|e| e.to_string())
    };

    for round in 0..config.rounds {
        // Advance every surviving lane by one quota slice.
        for (i, racer) in racers.iter().enumerate() {
            let Lane::Running(resume) = &lanes[i] else {
                continue;
            };
            rounds_run[i] = round + 1;
            match run_segment(racer, resume, Some(config.round_checks), &mut wall_ms[i]) {
                Ok(PlaceOutcome::Cancelled(ck)) => {
                    probes[i] = racer.placer.probe(artifacts.circuit(), &ck);
                    lanes[i] = Lane::Running(Some(ck));
                }
                Ok(outcome) => {
                    let complete = outcome.is_complete();
                    let sol = outcome.solution().expect("non-cancelled has solution");
                    RACERS_FINISHED.add(1);
                    lanes[i] = Lane::Done(if complete {
                        RacerEnd::Complete(sol.clone())
                    } else {
                        RacerEnd::Exhausted(sol.clone())
                    });
                }
                Err(message) => lanes[i] = Lane::Done(RacerEnd::Failed(message)),
            }
        }

        // Tournament: the round's best FOM over every lane that has one.
        let foms: Vec<Option<f64>> = (0..n)
            .map(|i| match &lanes[i] {
                Lane::Running(_) => probes[i].as_ref().map(|p| p.fom()),
                Lane::Done(RacerEnd::Complete(s)) | Lane::Done(RacerEnd::Exhausted(s)) => {
                    Some(s.hpwl * s.area)
                }
                Lane::Done(_) => None,
            })
            .collect();
        let Some(best) = foms.iter().flatten().fold(None, |acc: Option<f64>, &f| {
            Some(acc.map_or(f, |a| if f < a { f } else { a }))
        }) else {
            continue; // nothing comparable yet
        };
        let mut alive = (0..n)
            .filter(|&i| !matches!(lanes[i], Lane::Done(RacerEnd::Failed(_))))
            .count();
        // Kill the dominated runners, worst first (ties die at the higher
        // index), stopping at the survivor floor. Finished racers are
        // never killed — their solution is already paid for.
        let mut order: Vec<usize> = (0..n)
            .filter(|&i| matches!(lanes[i], Lane::Running(_)))
            .collect();
        order.sort_by(|&a, &b| {
            let fa = foms[a].unwrap_or(f64::NEG_INFINITY);
            let fb = foms[b].unwrap_or(f64::NEG_INFINITY);
            fb.partial_cmp(&fa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.cmp(&a))
        });
        for i in order {
            if alive <= config.min_survivors {
                break;
            }
            let Some(f) = foms[i] else {
                continue; // no probe yet: never kill blind
            };
            if f > config.kill_ratio * best {
                RACERS_KILLED.add(1);
                lanes[i] = Lane::Done(RacerEnd::Killed {
                    probe: probes[i].take(),
                });
                alive -= 1;
            }
        }
    }

    // Survivors run to completion, unbudgeted.
    for (i, racer) in racers.iter().enumerate() {
        let Lane::Running(resume) = &lanes[i] else {
            continue;
        };
        match run_segment(racer, resume, None, &mut wall_ms[i]) {
            Ok(PlaceOutcome::Cancelled(_)) => {
                // Unlimited budgets cannot cancel; treat defensively.
                lanes[i] = Lane::Done(RacerEnd::Failed(
                    "placer cancelled under an unlimited budget".into(),
                ));
            }
            Ok(outcome) => {
                let complete = outcome.is_complete();
                let sol = outcome.solution().expect("non-cancelled has solution");
                RACERS_FINISHED.add(1);
                lanes[i] = Lane::Done(if complete {
                    RacerEnd::Complete(sol.clone())
                } else {
                    RacerEnd::Exhausted(sol.clone())
                });
            }
            Err(message) => lanes[i] = Lane::Done(RacerEnd::Failed(message)),
        }
    }

    lanes
        .into_iter()
        .enumerate()
        .map(|(i, lane)| {
            let Lane::Done(end) = lane else {
                unreachable!("all lanes settled above");
            };
            RacerResult {
                end,
                wall_ms: wall_ms[i],
                rounds_run: rounds_run[i],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use analog_netlist::testcases;
    use placer_jobs::{make_placer, Profile};

    fn portfolio(names: &[&str]) -> Vec<Racer> {
        names
            .iter()
            .map(|name| {
                let (placer, seed) = make_placer(name, Profile::Small, Some(9)).unwrap();
                Racer {
                    name: (*name).into(),
                    placer,
                    seed,
                }
            })
            .collect()
    }

    #[test]
    fn race_settles_every_lane() {
        let artifacts = CircuitArtifacts::build(testcases::adder());
        let racers = portfolio(&["sa", "xu19"]);
        let results = race(&artifacts, &racers, &RaceConfig::default());
        assert_eq!(results.len(), 2);
        for r in &results {
            match &r.end {
                RacerEnd::Complete(s) | RacerEnd::Exhausted(s) => {
                    assert!(s.hpwl > 0.0 && s.area > 0.0)
                }
                RacerEnd::Killed { .. } => {}
                RacerEnd::Failed(e) => panic!("racer failed: {e}"),
            }
        }
        // At least one lane must carry a real solution.
        assert!(results
            .iter()
            .any(|r| matches!(r.end, RacerEnd::Complete(_))));
    }

    #[test]
    fn aggressive_policy_kills_dominated_racers() {
        let artifacts = CircuitArtifacts::build(testcases::cc_ota());
        let racers = portfolio(&["eplace-a", "sa", "xu19"]);
        let config = RaceConfig {
            rounds: 4,
            round_checks: 2,
            kill_ratio: 1.0,
            min_survivors: 1,
        };
        let results = race(&artifacts, &racers, &config);
        let killed = results
            .iter()
            .filter(|r| matches!(r.end, RacerEnd::Killed { .. }))
            .count();
        assert!(killed >= 1, "kill_ratio 1.0 must cut at least one racer");
        assert!(results
            .iter()
            .any(|r| matches!(r.end, RacerEnd::Complete(_) | RacerEnd::Exhausted(_))));
    }

    #[test]
    fn race_is_deterministic_across_repeats() {
        let artifacts = CircuitArtifacts::build(testcases::adder());
        let config = RaceConfig {
            rounds: 2,
            round_checks: 3,
            kill_ratio: 1.2,
            min_survivors: 1,
        };
        let runs: Vec<Vec<Option<u64>>> = (0..2)
            .map(|_| {
                let racers = portfolio(&["sa", "xu19"]);
                race(&artifacts, &racers, &config)
                    .iter()
                    .map(|r| r.fom().map(f64::to_bits))
                    .collect()
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }
}
