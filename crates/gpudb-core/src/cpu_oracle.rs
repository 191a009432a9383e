//! CPU oracle: a reference implementation of the query engine that
//! never touches the (simulated) device.
//!
//! The oracle exists for two reasons:
//!
//! 1. **Fallback** — when the device is faulty beyond what retry and
//!    degradation can absorb, [`crate::resilience::execute_resilient`]
//!    answers the query here instead of failing the caller.
//! 2. **Ground truth** — the chaos suite compares every fault-injected
//!    GPU run against this oracle; any divergence is silent corruption.
//!
//! Both uses demand *exact* agreement with the GPU path, including
//! error-for-error parity. Three things make that subtle:
//!
//! - Semi-linear predicates are evaluated by the GPU in `f32` with a
//!   specific association order (one DP4 per four-channel texture group,
//!   groups summed left to right). `gpu_order_dot` replicates that
//!   order; anything else diverges on queries whose dot products lose
//!   precision.
//! - The GPU compares `dot − b` against zero; the oracle compares `dot`
//!   against `b`. These agree for every IEEE `f32` pair because the
//!   rounded difference of two finite floats is zero iff they are equal
//!   and otherwise carries the exact sign (gradual underflow).
//! - Validation errors must fire in the same order as the planner and
//!   the paper routines (column resolution before shape checks, `InvalidK`
//!   before any work, aggregates evaluated in SELECT order).
//!
//! Scans and order statistics route through `gpudb-cpu`'s optimized
//! baselines ([`gpudb_cpu::aggregate`], [`gpudb_cpu::quickselect`]) so a
//! fallback run costs what the paper's CPU competitor costs, not a naive
//! reimplementation.

use crate::error::{EngineError, EngineResult};
use crate::ops::ATTRIBUTE_BITS;
use crate::query::ast::{Aggregate, BoolExpr, Query};
use crate::query::executor::AggValue;
use crate::semilinear::MAX_SEMILINEAR_ATTRIBUTES;
use crate::table::GpuTable;
use gpudb_cpu::aggregate as cpu_agg;
use gpudb_cpu::quickselect;
use gpudb_cpu::Bitmap;
use gpudb_sim::{CompareFunc, Gpu};

/// A host-resident table: the same schema rules as [`GpuTable`], but the
/// column data lives in ordinary memory. The resilience layer keeps one
/// of these alongside every device table so queries can be re-uploaded
/// after a device reset, chunked for out-of-core execution, or answered
/// entirely on the CPU.
#[derive(Debug, Clone)]
pub struct HostTable {
    name: String,
    columns: Vec<(String, Vec<u32>)>,
    record_count: usize,
}

impl HostTable {
    /// Build a host table, enforcing the same invariants as
    /// [`GpuTable::upload`] (equal column lengths, attributes within the
    /// paper's 24-bit encoding) so that errors surface before any device
    /// work and with the same variants the GPU path would produce.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<(impl Into<String>, Vec<u32>)>,
    ) -> EngineResult<HostTable> {
        let columns: Vec<(String, Vec<u32>)> =
            columns.into_iter().map(|(n, v)| (n.into(), v)).collect();
        let record_count = columns.first().map_or(0, |(_, v)| v.len());
        for (_, values) in &columns {
            if values.len() != record_count {
                return Err(EngineError::MismatchedColumnLengths);
            }
        }
        for (col_name, values) in &columns {
            let max = values.iter().copied().max().unwrap_or(0);
            let bits = 32 - max.leading_zeros();
            if bits > ATTRIBUTE_BITS {
                return Err(EngineError::AttributeTooWide {
                    column: col_name.clone(),
                    bits,
                });
            }
        }
        Ok(HostTable {
            name: name.into(),
            columns,
            record_count,
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of records.
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column names in declaration order.
    pub fn column_names(&self) -> impl Iterator<Item = &str> {
        self.columns.iter().map(|(n, _)| n.as_str())
    }

    /// Resolve a column name to its index, with the same error the GPU
    /// table produces.
    pub fn column_index(&self, name: &str) -> EngineResult<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| EngineError::ColumnNotFound(name.to_string()))
    }

    /// Values of the column at `index`.
    pub fn column_values(&self, index: usize) -> EngineResult<&[u32]> {
        self.columns
            .get(index)
            .map(|(_, v)| v.as_slice())
            .ok_or(EngineError::ColumnIndexOutOfRange(index))
    }

    /// Borrowed `(name, values)` view, as [`GpuTable::upload`] expects.
    pub fn column_refs(&self) -> Vec<(&str, &[u32])> {
        self.columns
            .iter()
            .map(|(n, v)| (n.as_str(), v.as_slice()))
            .collect()
    }

    /// Upload the table to the device.
    pub fn upload(&self, gpu: &mut Gpu) -> EngineResult<GpuTable> {
        GpuTable::upload(gpu, &self.name, &self.column_refs())
    }

    /// A host table holding the record range `[start, end)` of this one —
    /// the unit of out-of-core chunked execution.
    pub fn slice(&self, start: usize, end: usize) -> HostTable {
        let end = end.min(self.record_count);
        let start = start.min(end);
        HostTable {
            name: format!("{}[{start}..{end}]", self.name),
            columns: self
                .columns
                .iter()
                .map(|(n, v)| (n.clone(), v[start..end].to_vec()))
                .collect(),
            record_count: end - start,
        }
    }
}

/// The oracle's answer: the device-independent parts of
/// [`crate::query::executor::QueryOutput`].
#[derive(Debug, Clone, PartialEq)]
pub struct OracleOutput {
    /// Records passing the filter.
    pub matched: u64,
    /// `matched / record_count` (0.0 for an empty table).
    pub selectivity: f64,
    /// One `(label, value)` row per aggregate, in SELECT order.
    pub rows: Vec<(String, AggValue)>,
}

impl OracleOutput {
    /// Exact agreement with a GPU run's device-independent outputs.
    pub fn agrees_with(&self, matched: u64, rows: &[(String, AggValue)]) -> bool {
        self.matched == matched && self.rows == rows
    }
}

/// Execute a query entirely on the CPU, with exact GPU parity (results
/// and errors alike).
pub fn execute(table: &HostTable, query: &Query) -> EngineResult<OracleOutput> {
    let mask = filter_mask(table, query.filter.as_ref())?;
    let matched = mask.count_ones() as u64;
    let selectivity = if table.record_count() == 0 {
        0.0
    } else {
        matched as f64 / table.record_count() as f64
    };
    let mut rows = Vec::with_capacity(query.aggregates.len());
    for agg in &query.aggregates {
        rows.push((agg.label(), compute_aggregate(table, agg, &mask, matched)?));
    }
    Ok(OracleOutput {
        matched,
        selectivity,
        rows,
    })
}

/// Evaluate the filter to a per-record bitmap, mirroring the planner's
/// structure: standalone semi-linear atoms (possibly under NOT) first,
/// then the general boolean tree with NOT pushed to the leaves.
pub fn filter_mask(table: &HostTable, filter: Option<&BoolExpr>) -> EngineResult<Bitmap> {
    let Some(filter) = filter else {
        return Ok(Bitmap::ones(table.record_count()));
    };
    if let Some(mask) = semilinear_atom_mask(table, filter, false)? {
        return Ok(mask);
    }
    boolean_mask(table, filter, false)
}

/// Mirror of `plan_semilinear_atom`: a whole-filter semi-linear or
/// column-comparison atom, with an odd number of enclosing NOTs folded
/// into the operator.
fn semilinear_atom_mask(
    table: &HostTable,
    expr: &BoolExpr,
    negated: bool,
) -> EngineResult<Option<Bitmap>> {
    match expr {
        BoolExpr::Not(inner) => semilinear_atom_mask(table, inner, !negated),
        BoolExpr::CompareColumns { left, op, right } => {
            let li = table.column_index(left)?;
            let ri = table.column_index(right)?;
            let op = if negated { op.negate() } else { *op };
            let width = li.max(ri) + 1;
            let mut coefficients = vec![0.0f32; width];
            coefficients[li] += 1.0;
            coefficients[ri] -= 1.0;
            semilinear_mask(table, &coefficients, op, 0.0).map(Some)
        }
        BoolExpr::SemiLinear {
            terms,
            op,
            constant,
        } => {
            let op = if negated { op.negate() } else { *op };
            let mut width = 0usize;
            let mut resolved = Vec::with_capacity(terms.len());
            for (name, coeff) in terms {
                let idx = table.column_index(name)?;
                width = width.max(idx + 1);
                resolved.push((idx, *coeff));
            }
            let mut coefficients = vec![0.0f32; width];
            for (idx, coeff) in resolved {
                coefficients[idx] += coeff;
            }
            semilinear_mask(table, &coefficients, op, *constant).map(Some)
        }
        _ => Ok(None),
    }
}

/// The dot product `s · a_row` in the GPU fragment program's `f32`
/// association order: one DP4 per texture group of four channels
/// (accumulated left to right within the group), group results summed.
/// Channels past `s.len()` carry coefficient zero on the GPU and adding
/// `+0.0` never changes a finite sum, so they are skipped here.
fn gpu_order_dot(table: &HostTable, s: &[f32], row: usize) -> f32 {
    let mut total = 0.0f32;
    for (group, chunk) in s.chunks(4).enumerate() {
        let mut group_sum = 0.0f32;
        for (lane, &coeff) in chunk.iter().enumerate() {
            let idx = group * 4 + lane;
            // Safe: semilinear_mask validated s.len() <= column_count.
            let value = self::column_value(table, idx, row);
            group_sum += coeff * value;
        }
        total += group_sum;
    }
    total
}

fn column_value(table: &HostTable, idx: usize, row: usize) -> f32 {
    table
        .column_values(idx)
        .map(|v| v[row] as f32)
        .unwrap_or(0.0)
}

/// Mirror of `semilinear::semilinear_select`: same validation, same
/// error order, then the per-record `f32` comparison. The GPU compares
/// `dot − b` against zero; comparing `dot` against `b` is equivalent for
/// every finite `f32` pair (the rounded difference is zero iff the
/// operands are equal, and otherwise has the exact sign).
fn semilinear_mask(table: &HostTable, s: &[f32], op: CompareFunc, b: f32) -> EngineResult<Bitmap> {
    if s.is_empty() || s.len() > MAX_SEMILINEAR_ATTRIBUTES {
        return Err(EngineError::TooManyAttributes(s.len()));
    }
    if s.len() > table.column_count() {
        return Err(EngineError::ColumnIndexOutOfRange(s.len() - 1));
    }
    Ok(Bitmap::from_fn(table.record_count(), |row| {
        op.eval(gpu_order_dot(table, s, row), b)
    }))
}

/// Evaluate a general predicate tree with NOT pushed to the leaves by
/// operator inversion and De Morgan — the same rewrite as the planner's
/// `to_nnf`, evaluated directly instead of materialized.
fn boolean_mask(table: &HostTable, expr: &BoolExpr, negated: bool) -> EngineResult<Bitmap> {
    match expr {
        BoolExpr::Pred {
            column,
            op,
            constant,
        } => {
            let values = table.column_values(table.column_index(column)?)?;
            let op = if negated { op.negate() } else { *op };
            Ok(Bitmap::from_fn(values.len(), |i| {
                op.eval(values[i], *constant)
            }))
        }
        BoolExpr::InList { column, values } => {
            // The planner rewrites an empty list to a Never predicate and
            // a non-empty one to an OR of equalities; either way the
            // column is resolved, so resolve it here too.
            let col = table.column_values(table.column_index(column)?)?;
            Ok(Bitmap::from_fn(col.len(), |i| {
                values.contains(&col[i]) != negated
            }))
        }
        BoolExpr::Between { column, low, high } => {
            let col = table.column_values(table.column_index(column)?)?;
            Ok(Bitmap::from_fn(col.len(), |i| {
                (*low..=*high).contains(&col[i]) != negated
            }))
        }
        BoolExpr::And(a, b) => {
            let mut lhs = boolean_mask(table, a, negated)?;
            let rhs = boolean_mask(table, b, negated)?;
            // De Morgan: ¬(a ∧ b) = ¬a ∨ ¬b.
            if negated {
                lhs.or_assign(&rhs);
            } else {
                lhs.and_assign(&rhs);
            }
            Ok(lhs)
        }
        BoolExpr::Or(a, b) => {
            let mut lhs = boolean_mask(table, a, negated)?;
            let rhs = boolean_mask(table, b, negated)?;
            if negated {
                lhs.and_assign(&rhs);
            } else {
                lhs.or_assign(&rhs);
            }
            Ok(lhs)
        }
        BoolExpr::Not(inner) => boolean_mask(table, inner, !negated),
        BoolExpr::CompareColumns { .. } | BoolExpr::SemiLinear { .. } => {
            Err(EngineError::InvalidQuery(
                "semi-linear atoms cannot be combined with other predicates".to_string(),
            ))
        }
    }
}

/// One aggregate over the filtered records, with the GPU routines' exact
/// edge-case semantics (`InvalidK` / `EmptyInput` parity included).
fn compute_aggregate(
    table: &HostTable,
    agg: &Aggregate,
    mask: &Bitmap,
    matched: u64,
) -> EngineResult<AggValue> {
    let selected = |col: &str| -> EngineResult<Vec<u32>> {
        let values = table.column_values(table.column_index(col)?)?;
        Ok(cpu_agg::extract_masked(values, mask))
    };
    Ok(match agg {
        Aggregate::Count => AggValue::Count(matched),
        Aggregate::Sum(col) => {
            let values = table.column_values(table.column_index(col)?)?;
            AggValue::Sum(cpu_agg::sum_masked(values, mask))
        }
        Aggregate::Avg(col) => {
            let values = table.column_values(table.column_index(col)?)?;
            AggValue::Avg(cpu_agg::avg_masked(values, mask).ok_or(EngineError::EmptyInput)?)
        }
        Aggregate::Min(col) => {
            AggValue::Value(order_statistic(&selected(col)?, Rank::Smallest(1))?)
        }
        Aggregate::Max(col) => AggValue::Value(order_statistic(&selected(col)?, Rank::Largest(1))?),
        Aggregate::Median(col) => {
            let data = selected(col)?;
            if data.is_empty() {
                return Err(EngineError::EmptyInput);
            }
            let k = data.len().div_ceil(2);
            AggValue::Value(order_statistic(&data, Rank::Smallest(k))?)
        }
        Aggregate::KthLargest(col, k) => {
            AggValue::Value(order_statistic(&selected(col)?, Rank::Largest(*k))?)
        }
        Aggregate::KthSmallest(col, k) => {
            AggValue::Value(order_statistic(&selected(col)?, Rank::Smallest(*k))?)
        }
        Aggregate::Percentile(col, p) => {
            let data = selected(col)?;
            if data.is_empty() {
                return Err(EngineError::EmptyInput);
            }
            let rank =
                ((p.clamp(0.0, 1.0) * data.len() as f64).ceil() as usize).clamp(1, data.len());
            AggValue::Value(order_statistic(&data, Rank::Smallest(rank))?)
        }
    })
}

enum Rank {
    Largest(usize),
    Smallest(usize),
}

/// Order statistic via `gpudb-cpu`'s QuickSelect, with the GPU bit
/// descent's `InvalidK` validation.
fn order_statistic(data: &[u32], rank: Rank) -> EngineResult<u32> {
    let available = data.len();
    let (k, value) = match rank {
        Rank::Largest(k) => (k, quickselect::kth_largest(data, k)),
        Rank::Smallest(k) => (k, quickselect::kth_smallest(data, k)),
    };
    value.ok_or(EngineError::InvalidK {
        k,
        available: available as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ast::BoolExpr;
    use crate::query::executor::{execute, ExecuteOptions};
    fn host() -> HostTable {
        HostTable::new(
            "t",
            vec![
                ("a", vec![5u32, 17, 9, 200, 42, 9, 0, 77]),
                ("b", vec![3u32, 17, 10, 100, 42, 8, 1, 80]),
            ],
        )
        .unwrap()
    }

    fn gpu_run(host: &HostTable, query: &Query) -> EngineResult<(u64, Vec<(String, AggValue)>)> {
        let mut gpu = GpuTable::device_for(host.record_count(), 4);
        let table = host.upload(&mut gpu)?;
        let out = execute(&mut gpu, &table, query)?;
        Ok((out.matched, out.rows))
    }

    fn assert_parity(host: &HostTable, query: &Query) {
        let oracle = super::execute(host, query);
        let gpu = gpu_run(host, query);
        match (oracle, gpu) {
            (Ok(o), Ok((matched, rows))) => {
                assert!(
                    o.agrees_with(matched, &rows),
                    "oracle {o:?} vs gpu {matched} {rows:?}"
                );
            }
            (Err(oe), Err(ge)) => {
                assert_eq!(oe.to_string(), ge.to_string(), "error parity");
            }
            (o, g) => panic!("oracle {o:?} but gpu {g:?}"),
        }
    }

    #[test]
    fn validates_like_gpu_upload() {
        assert!(matches!(
            HostTable::new("t", vec![("a", vec![1u32]), ("b", vec![1, 2])]).unwrap_err(),
            EngineError::MismatchedColumnLengths
        ));
        assert!(matches!(
            HostTable::new("t", vec![("wide", vec![1u32 << 24])]).unwrap_err(),
            EngineError::AttributeTooWide { bits: 25, .. }
        ));
    }

    #[test]
    fn predicate_range_cnf_parity() {
        let host = host();
        for query in [
            Query::aggregate_all(vec![Aggregate::Count, Aggregate::Sum("a".into())]),
            Query::filtered(
                vec![Aggregate::Count, Aggregate::Avg("b".into())],
                BoolExpr::pred("a", CompareFunc::Greater, 9),
            ),
            Query::filtered(
                vec![Aggregate::Count, Aggregate::Min("a".into())],
                BoolExpr::pred("a", CompareFunc::GreaterEqual, 5).and(BoolExpr::pred(
                    "a",
                    CompareFunc::LessEqual,
                    77,
                )),
            ),
            // Inverted range: const-empty short circuit on the GPU side.
            Query::filtered(
                vec![Aggregate::Count, Aggregate::Sum("a".into())],
                BoolExpr::pred("a", CompareFunc::GreaterEqual, 100).and(BoolExpr::pred(
                    "a",
                    CompareFunc::LessEqual,
                    5,
                )),
            ),
            Query::filtered(
                vec![Aggregate::Count, Aggregate::Max("b".into())],
                BoolExpr::pred("a", CompareFunc::Less, 10)
                    .or(BoolExpr::pred("b", CompareFunc::Greater, 50))
                    .not(),
            ),
            Query::filtered(
                vec![Aggregate::Median("a".into())],
                BoolExpr::InList {
                    column: "a".into(),
                    values: vec![9, 42, 200],
                },
            ),
        ] {
            assert_parity(&host, &query);
        }
    }

    #[test]
    fn semilinear_and_compare_columns_parity() {
        let host = host();
        for query in [
            Query::filtered(
                vec![Aggregate::Count],
                BoolExpr::CompareColumns {
                    left: "a".into(),
                    op: CompareFunc::Greater,
                    right: "b".into(),
                },
            ),
            Query::filtered(
                vec![Aggregate::Count, Aggregate::Sum("b".into())],
                BoolExpr::Not(Box::new(BoolExpr::SemiLinear {
                    terms: vec![("a".into(), 0.5), ("b".into(), -0.25)],
                    op: CompareFunc::LessEqual,
                    constant: 10.0,
                })),
            ),
        ] {
            assert_parity(&host, &query);
        }
    }

    #[test]
    fn error_parity_with_gpu() {
        let host = host();
        // Unknown column, nested semilinear, invalid k, empty-selection AVG.
        for query in [
            Query::filtered(
                vec![Aggregate::Count],
                BoolExpr::pred("missing", CompareFunc::Equal, 1),
            ),
            Query::filtered(
                vec![Aggregate::Count],
                BoolExpr::pred("a", CompareFunc::Greater, 1).and(BoolExpr::CompareColumns {
                    left: "a".into(),
                    op: CompareFunc::Less,
                    right: "b".into(),
                }),
            ),
            Query::aggregate_all(vec![Aggregate::KthLargest("a".into(), 0)]),
            Query::aggregate_all(vec![Aggregate::KthLargest("a".into(), 99)]),
            Query::filtered(
                vec![Aggregate::Avg("a".into())],
                BoolExpr::pred("a", CompareFunc::Greater, 1 << 23),
            ),
            Query::filtered(
                vec![Aggregate::Count],
                BoolExpr::InList {
                    column: "nope".into(),
                    values: vec![],
                },
            ),
        ] {
            assert_parity(&host, &query);
        }
    }

    #[test]
    fn slice_covers_whole_table() {
        let host = host();
        let mut total = 0u64;
        for start in (0..host.record_count()).step_by(3) {
            let chunk = host.slice(start, start + 3);
            let out =
                super::execute(&chunk, &Query::aggregate_all(vec![Aggregate::Count])).unwrap();
            total += out.matched;
        }
        assert_eq!(total, host.record_count() as u64);
    }

    #[test]
    fn options_do_not_change_results() {
        // Sanity: executor options used by resilience (validated plans)
        // agree with the defaults the parity tests use.
        let host = host();
        let query = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("a", CompareFunc::Greater, 9),
        );
        let mut gpu = GpuTable::device_for(host.record_count(), 4);
        let table = host.upload(&mut gpu).unwrap();
        let out = crate::query::executor::execute_with_options(
            &mut gpu,
            &table,
            &query,
            ExecuteOptions::default(),
        )
        .unwrap();
        let oracle = super::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(out.matched, &out.rows));
    }
}
