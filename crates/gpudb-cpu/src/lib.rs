//! # gpudb-cpu — optimized CPU baselines
//!
//! The comparison side of the SIGMOD 2004 reproduction: the paper measures
//! its GPU algorithms against "an optimized CPU implementation" compiled
//! with the Intel compiler's vectorization, multithreading and IPO on dual
//! 2.8 GHz Xeons (§5.2). This crate provides the equivalent Rust baselines:
//!
//! * [`scan`] — branch-free, auto-vectorizable predicate scans;
//! * [`bitmap`] — packed selection vectors with word-parallel boolean ops;
//! * [`cnf`] — conjunctive-normal-form evaluation over columns;
//! * [`semilinear`] — f32 dot-product scans;
//! * [`quickselect`] — Hoare's FIND, the baseline for `KthLargest`;
//! * [`aggregate`] — SUM/COUNT/AVG/MIN/MAX, plain and masked;
//! * [`cost`] — a 2004 Xeon cost model calibrated to the paper's ratios.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aggregate;
pub mod bitmap;
pub mod cnf;
pub mod cost;
pub mod quickselect;
pub mod scan;
pub mod semilinear;

pub use bitmap::Bitmap;
pub use cnf::{Clause, Cnf, Predicate};
pub use cost::CpuCostModel;
pub use scan::CmpOp;
