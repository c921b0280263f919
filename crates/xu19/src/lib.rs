//! # placer-xu19
//!
//! Reimplementation of the ISPD'19 *device layer-aware analytical analog
//! placer* of Xu et al. \[11\], the "previous analytical work" the DATE'22
//! paper compares against (the MAGICAL placement engine's lineage):
//!
//! - global placement with **LSE** wirelength smoothing, the NTUplace3
//!   **bell-shaped** density penalty, and soft symmetry, solved with
//!   nonlinear conjugate gradient — and **no area term**;
//! - **two-stage LP** legalization: area compaction, then wirelength
//!   minimization at a fixed outline — and **no device flipping**.
//!
//! Those three differences (area term, WA vs LSE, flipping) are exactly the
//! reasons the paper gives for ePlace-A's quality advantage (§IV-C).
//!
//! The `Perf*` extension of Tables V/VII (the same GNN gradient term as
//! ePlace-AP, grafted onto this placer) is [`Xu19Placer::place_perf`].
//!
//! # Examples
//!
//! ```
//! use analog_netlist::testcases;
//! use eplace::{Placer, RunBudget};
//! use placer_xu19::Xu19Placer;
//!
//! # fn main() -> Result<(), eplace::PlaceError> {
//! let circuit = testcases::cc_ota();
//! let outcome = Xu19Placer::default().place(&circuit, &RunBudget::unlimited())?;
//! let result = outcome.solution().expect("an unlimited budget completes");
//! println!("area {:.1} µm², HPWL {:.1} µm", result.area, result.hpwl);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bell;
mod global;
mod legalize;
mod lse;
mod pipeline;

pub use bell::{bell_kernel, BellDensity};
pub use global::{
    run_global, run_global_budgeted, Xu19Checkpoint, Xu19GlobalConfig, Xu19GlobalConfigBuilder,
    Xu19GlobalStats, Xu19Run,
};
pub use legalize::{legalize_two_stage, LegalizeStats};
pub use lse::{lse_spread_with_grad, lse_wirelength};
pub use pipeline::Xu19Placer;
