//! # gpudb — GPU database operations (SIGMOD 2004 reproduction)
//!
//! A from-scratch Rust reproduction of Govindaraju, Lloyd, Wang, Lin &
//! Manocha, *Fast Computation of Database Operations using Graphics
//! Processors* (SIGMOD 2004), on a simulated GeForce-FX-class fragment
//! pipeline.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! * [`sim`] — the GPU substrate (textures, depth/stencil/alpha tests,
//!   fragment-program ISA, occlusion queries, calibrated cost model);
//! * [`core`] — the paper's algorithms (predicates, CNF, range queries,
//!   semi-linear queries, k-th largest, bitwise accumulator) plus a
//!   declarative query layer;
//! * [`cpu`] — the optimized CPU baselines the paper compares against;
//! * [`data`] — synthetic TCP/IP-trace and census workload generators;
//! * [`obs`] — hierarchical span tracing on the modeled clock, with
//!   Chrome-trace / flamegraph / JSONL exporters and `EXPLAIN ANALYZE`.
//!
//! ## Quickstart
//!
//! ```
//! use gpudb::prelude::*;
//!
//! // A network-monitoring table (paper §5.1), 10k records.
//! let trace = gpudb::data::tcpip::generate(10_000, 42);
//! let cols: Vec<(&str, &[u32])> = trace
//!     .columns
//!     .iter()
//!     .map(|c| (c.name.as_str(), c.values.as_slice()))
//!     .collect();
//! let mut gpu = GpuTable::device_for(trace.record_count(), 200);
//! let table = GpuTable::upload(&mut gpu, "tcpip", &cols).unwrap();
//!
//! // SQL-ish entry point.
//! let stmt = gpudb::core::query::parse(
//!     "SELECT COUNT(*), MAX(data_count) FROM tcpip \
//!      WHERE data_count BETWEEN 1000 AND 100000",
//! ).unwrap();
//! let out = gpudb::core::query::execute(&mut gpu, &table, &stmt.query).unwrap();
//! assert_eq!(out.rows.len(), 2);
//! ```

pub use gpudb_core as core;
pub use gpudb_cpu as cpu;
pub use gpudb_data as data;
pub use gpudb_obs as obs;
pub use gpudb_sim as sim;

/// Commonly used types, one `use` away.
pub mod prelude {
    pub use gpudb_core::aggregate;
    pub use gpudb_core::boolean::{GpuClause, GpuCnf, GpuDnf, GpuPredicate, GpuTerm};
    pub use gpudb_core::cpu_oracle::{self, HostTable, OracleOutput};
    pub use gpudb_core::parallel::{
        execute_sharded, execute_sharded_with_faults, ShardOptions, ShardReport, ShardedOutput,
    };
    pub use gpudb_core::predicate::{compare_count, compare_many, compare_select};
    pub use gpudb_core::query::{
        execute, execute_with_options, explain_analyze, explain_analyze_with_options, parse,
        Aggregate, BoolExpr, ExecuteOptions, Query, TraceLevel,
    };
    pub use gpudb_core::range::range_select;
    pub use gpudb_core::resilience::{
        execute_resilient, ResiliencePath, ResilienceReport, RetryPolicy,
    };
    pub use gpudb_core::semilinear::{compare_attributes, semilinear_select};
    pub use gpudb_core::table::GpuTable;
    pub use gpudb_core::{EngineError, EngineResult, Selection};
    pub use gpudb_obs::{Span, SpanTree};
    pub use gpudb_sim::span::SpanKind;
    pub use gpudb_sim::{
        CompareFunc, FaultClass, FaultEvent, FaultInjector, FaultKind, FaultStats, Gpu,
    };
}
