//! # gpudb-core — database operations on a (simulated) GPU
//!
//! The primary contribution of Govindaraju, Lloyd, Wang, Lin & Manocha,
//! *Fast Computation of Database Operations using Graphics Processors*
//! (SIGMOD 2004), implemented on the `gpudb-sim` substrate:
//!
//! * [`table`] — relations as textures (attributes packed in channels);
//! * [`predicate`] — `Compare` / `CopyToDepth` (Routine 4.1);
//! * [`semilinear`] — `Semilinear` dot-product queries (Routine 4.2);
//! * [`boolean`] — `EvalCNF` with the 3-value stencil encoding
//!   (Routine 4.3);
//! * [`range`] — single-pass range queries via the depth-bounds test
//!   (Routine 4.4);
//! * [`aggregate`] — `KthLargest` (Routine 4.5), the bitwise
//!   `Accumulator` (Routine 4.6), and the rejected mipmap-SUM
//!   alternative;
//! * [`selection`] — the stencil buffer as a composable record mask that
//!   carries its COUNT, the occlusion count of the pass that set it;
//! * [`metrics`] — structured per-operator metrics records (work
//!   counters + the device's integer-nanosecond phase times, with the
//!   paper's "with copy" / "computation only" split) backing the
//!   perf-regression harness in `gpudb-bench`; [`metrics::observe`] is
//!   the one way to measure an operation;
//! * [`cpu_oracle`] — a device-free reference engine with exact GPU
//!   parity (results and errors alike), backing the fault-injection
//!   chaos suite and the CPU rung of the recovery ladder;
//! * [`resilience`] — retry with deterministic modeled backoff,
//!   capability/resource degradation, and CPU fallback for queries on a
//!   faulty device.
//!
//! ## Example
//!
//! ```
//! use gpudb_core::table::GpuTable;
//! use gpudb_core::predicate::compare_select;
//! use gpudb_core::aggregate;
//! use gpudb_sim::CompareFunc;
//!
//! let flows: Vec<u32> = (0..1000).map(|i| (i * 37) % 4096).collect();
//! let mut gpu = GpuTable::device_for(flows.len(), 100);
//! let table = GpuTable::upload(&mut gpu, "flows", &[("rate", &flows)]).unwrap();
//!
//! // SELECT COUNT(*) FROM flows WHERE rate >= 2048
//! let sel = compare_select(&mut gpu, &table, 0,
//!     CompareFunc::GreaterEqual, 2048).unwrap();
//! // The count comes from the selection's own pass (§5.11).
//! assert_eq!(sel.matched(), flows.iter().filter(|&&v| v >= 2048).count() as u64);
//!
//! // SELECT MAX(rate) FROM flows WHERE rate >= 2048
//! let max = aggregate::max(&mut gpu, &table, 0, Some(&sel)).unwrap();
//! assert_eq!(max, *flows.iter().filter(|&&v| v >= 2048).max().unwrap());
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
// Fallible device paths must surface typed errors, not panic: unwrap is
// banned in library code (tests may unwrap freely).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod aggregate;
pub mod boolean;
pub mod cpu_oracle;
pub mod error;
pub mod metrics;
pub mod ops;
pub mod parallel;
pub mod predicate;
pub mod query;
pub mod range;
pub mod resilience;
pub mod selection;
pub mod semilinear;
pub mod sort;
pub mod table;

pub use boolean::{GpuClause, GpuCnf, GpuDnf, GpuPredicate, GpuTerm};
pub use cpu_oracle::{HostTable, OracleOutput};
pub use error::{EngineError, EngineResult};
pub use metrics::{MetricsLog, MetricsRecord};
pub use parallel::{
    execute_sharded, execute_sharded_with_faults, ShardOptions, ShardReport, ShardedOutput,
};
pub use resilience::{ResiliencePath, ResilienceReport, ResilientOutput, RetryPolicy};
pub use selection::Selection;
pub use table::GpuTable;

// Re-export the device-facing types users need alongside this crate.
pub use gpudb_sim::{CompareFunc, Gpu};
