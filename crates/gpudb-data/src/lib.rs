//! # gpudb-data — workload generators
//!
//! Synthetic stand-ins for the two databases the SIGMOD 2004 paper
//! benchmarks on (§5.1): a one-million-record TCP/IP monitoring trace and
//! a 360 K-record census extract. Neither original dataset is
//! redistributable, so the generators here reproduce the *stated*
//! statistical properties (attribute count, bit widths, variance, skew)
//! that the paper's algorithms are sensitive to — see `DESIGN.md` for the
//! substitution rationale.
//!
//! Also includes the percentile machinery used to pin predicate and range
//! selectivities at exactly the paper's 60 % / 80 % settings.

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Generators must not panic on a caller's input: unwrap is banned in
// library code (tests may unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod census;
pub mod dataset;
pub mod distributions;
pub mod selectivity;
pub mod tcpip;

pub use dataset::{Column, Dataset};
