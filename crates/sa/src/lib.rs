//! # placer-sa
//!
//! The simulated-annealing analog placer baseline of the DATE'22 study:
//! a symmetry-island sequence-pair floorplanner ([`SequencePair`] over
//! [`BlockModel`] blocks) driven by geometric-cooling annealing
//! ([`anneal`]) with alignment/ordering penalties (symmetry is exact by
//! island construction), followed by one minimal-displacement LP pass that
//! snaps the remaining constraints exactly.
//!
//! The performance-driven variant ([`SaPlacer::place_perf`]) adds the GNN
//! probability Φ to the cost by **inference** — the key contrast with
//! ePlace-AP, which consumes Φ's *gradient* (§V-A of the paper).
//!
//! # Examples
//!
//! ```
//! use analog_netlist::testcases;
//! use eplace::{Placer, RunBudget};
//! use placer_sa::{SaConfig, SaPlacer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = testcases::adder();
//! let config = SaConfig::builder().temperatures(15).moves_per_level(25).build()?;
//! let outcome = SaPlacer::new(config).place(&circuit, &RunBudget::unlimited())?;
//! let result = outcome.solution().expect("an unlimited budget completes");
//! println!("area {:.1} µm² after {} moves", result.area, result.iterations);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod anneal;
pub mod eco;
mod evaluator;
pub mod island;
mod pipeline;
mod proptests;
mod repair;
mod seqpair;
mod shared;

pub use anneal::{
    anneal, anneal_budgeted_with, anneal_reference, anneal_reference_budgeted, evaluate,
    AnnealResult, AnnealRun, ChainCheckpoint, ChainEntry, PerfCost, SaCheckpoint, SaConfig,
    SaConfigBuilder, SaCost, SaState,
};
pub use evaluator::{EvalTables, EvaluatorStats, MoveEvaluator};
pub use island::{Block, BlockModel};
pub use pipeline::SaPlacer;
pub use repair::repair_placement;
pub use seqpair::{PackScratch, SequencePair};
pub use shared::SaShared;
