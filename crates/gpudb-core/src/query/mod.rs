//! Declarative query layer: AST, SQL-ish parser, planner, executor.
//!
//! This is the downstream-user face of the library: build a [`Query`] (or
//! parse one), and [`execute`] it against a [`crate::table::GpuTable`].
//! The planner maps the WHERE clause onto the paper's primitives — CNF via
//! stencil tests, ranges via the depth-bounds test, column comparisons via
//! semi-linear kill passes — and the executor runs the aggregates over the
//! resulting stencil selection.

pub mod ast;
pub mod executor;
pub mod parser;
pub mod planner;

pub use ast::{Aggregate, BoolExpr, Query};
pub use executor::{
    execute, execute_with_options, explain_analyze, explain_analyze_with_options,
    explain_with_device, AggValue, ExecuteOptions, QueryOutput,
};
pub use gpudb_obs::TraceLevel;
pub use parser::{parse, Statement};
pub use planner::{plan_selection, SelectionPlan};
