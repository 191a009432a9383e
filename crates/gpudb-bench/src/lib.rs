//! Benchmark harness reproducing every figure of the paper's evaluation
//! (§5, Figures 2–10) plus the §5.11 selectivity-analysis claim and three
//! ablations.
//!
//! Each experiment returns a [`report::FigureResult`]: the data series the
//! paper plots, the paper's claim, and the factor we reproduce. Timings on
//! the GPU side are the calibrated 2004 cost model of `gpudb-sim`
//! (wall-clock of a software simulator is not the paper's claim); CPU-side
//! timings come from the matching Xeon-2004 model in `gpudb-cpu`, with the
//! baselines also executed for real to verify every result value.

// Experiments surface the library's typed errors instead of panicking:
// unwrap is banned in library code (tests may unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod chaos;
pub mod experiments;
pub mod harness;
pub mod regress;
pub mod report;
pub mod smoke;
pub mod traceout;

pub use report::{FigureResult, Scale, Series};
pub use smoke::{SmokeExperiment, SmokeReport};
