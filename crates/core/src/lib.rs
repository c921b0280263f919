//! # eplace
//!
//! **ePlace-A** and **ePlace-AP**: analytical analog IC placement, the core
//! contribution of *"Are Analytical Techniques Worthwhile for Analog IC
//! Placement?"* (DATE 2022).
//!
//! - [`GlobalPlacer`] minimizes `W(v) + λN(v) + τSym(v) + ηArea(v)` (Eq. 3)
//!   with WA wirelength smoothing, ePlace electrostatic density, a soft (or
//!   hard, Table I) symmetry penalty and a smoothed bounding-box area term,
//!   solved by Nesterov descent with Lipschitz step estimation.
//! - [`DetailedPlacer`] performs integrated legalization + detailed
//!   placement as an ILP (Eq. 4a–4j) with device flipping, hard symmetry,
//!   alignment and ordering constraints on an integer grid.
//! - [`EPlaceAP`] adds the GNN performance term `α·Φ(G)` (Eq. 5) through an
//!   analytic input-gradient hook.
//!
//! # Examples
//!
//! ```
//! use analog_netlist::testcases;
//! use eplace::{EPlaceA, Placer, PlacerConfig, RunBudget};
//!
//! # fn main() -> Result<(), eplace::PlaceError> {
//! let circuit = testcases::cc_ota();
//! let outcome = EPlaceA::new(PlacerConfig::default()).place(&circuit, &RunBudget::unlimited())?;
//! let result = outcome.solution().expect("an unlimited budget completes");
//! println!(
//!     "area {:.1} µm², HPWL {:.1} µm in {:.2}s",
//!     result.area,
//!     result.hpwl,
//!     result.stage1_seconds + result.stage2_seconds,
//! );
//! assert!(result.placement.is_legal(&circuit, 1e-6));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod area;
mod artifacts;
mod budget;
mod checkpoint;
mod config;
mod density;
mod detailed;
pub mod eco;
mod error;
mod global;
mod perf;
mod pipeline;
mod placer;
mod proptests;
pub mod sepplan;
mod symmetry;
pub mod wirelength;

pub use area::{area_term, exact_area};
pub use artifacts::{circuit_content_hash, ArtifactCache, CircuitArtifacts};
pub use budget::{BudgetStatus, CancelFlag, RunBudget};
pub use checkpoint::{Checkpoint, CheckpointError, Value as CheckpointValue};
pub use config::{
    require_fraction, require_nonnegative, require_positive, ConfigError, DetailedConfig,
    GlobalConfig, PerfConfig, PlacerConfig, PlacerConfigBuilder, Smoothing, SymmetryMode,
};
pub use density::{DensityEval, DensityGrid};
pub use detailed::{legalize, DetailedPlacer, DetailedStats};
pub use eco::{EcoConfig, EcoOutcome, EcoReplace};
pub use error::PlaceError;
pub use global::{GlobalPlacer, GlobalStats, GpCheckpoint, GpRun};
pub use perf::{run_perf_global, PerfGradHook};
pub use pipeline::{EPlaceA, EPlaceAP};
pub use placer::{expect_placer, PlaceOutcome, PlaceSolution, Placer, RaceProbe};
pub use sepplan::{SepEdge, SeparationPlanner};
pub use symmetry::{project_symmetry, symmetry_penalty};
