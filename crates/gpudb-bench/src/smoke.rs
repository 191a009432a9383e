//! Reduced-scale, fixed-seed smoke versions of the paper's figure
//! experiments, for the perf-regression gate.
//!
//! Each smoke experiment runs one operator family over the deterministic
//! TCP/IP workload and produces: the total **modeled** cost (the 2004
//! cost model, a pure function of the input), the per-operator
//! [`MetricsRecord`]s, and an FNV-1a checksum folding every exact result
//! value. Nothing here depends on wall-clock, so two runs of
//! [`run_all`] produce byte-identical [`SmokeReport`]s — CI diffs them
//! against a checked-in baseline (`gpudb-bench/results/baselines/`).

use crate::harness::Workload;
use gpudb_core::aggregate;
use gpudb_core::cpu_oracle::HostTable;
use gpudb_core::metrics::{observe, MetricsLog, MetricsRecord};
use gpudb_core::query::{execute, Aggregate, BoolExpr, Query};
use gpudb_core::{EngineResult, GpuCnf, GpuDnf, GpuPredicate, GpuTerm};
use gpudb_obs::{SpanTree, TraceLevel};
use gpudb_sim::span::SpanKind;
use gpudb_sim::trace::PassPlan;
use gpudb_sim::{CompareFunc, Gpu, RecordMode};
use serde::{Deserialize, Serialize};

/// Record count for smoke workloads — small enough that the whole suite
/// runs in seconds, large enough that costs are not dominated by
/// per-pass constants.
pub const SMOKE_RECORDS: usize = 4_000;

/// Bump when the report layout or experiment set changes incompatibly.
pub const SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64 accumulator for exact result values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checksum(u64);

impl Checksum {
    /// The FNV-1a offset basis.
    pub fn new() -> Checksum {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    /// Fold in one 64-bit value (little-endian bytes).
    pub fn push_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Fold in one 32-bit value.
    pub fn push_u32(&mut self, value: u32) {
        self.push_u64(u64::from(value));
    }

    /// Fold in an f64 by its exact bit pattern.
    pub fn push_f64(&mut self, value: f64) {
        self.push_u64(value.to_bits());
    }

    /// Render as a fixed-width hex string (diff-friendly in JSON).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

impl Default for Checksum {
    fn default() -> Checksum {
        Checksum::new()
    }
}

/// One smoke experiment's deterministic outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmokeExperiment {
    /// Experiment id, e.g. `fig3_predicate`.
    pub id: String,
    /// Records in the workload.
    pub input_records: u64,
    /// Total modeled cost across the experiment's operations, in ns.
    pub modeled_ns: u64,
    /// FNV-1a 64 over every exact result value, as fixed-width hex.
    pub checksum: String,
    /// Per-operation metrics records, in execution order.
    pub metrics: Vec<MetricsRecord>,
}

/// The full bench-smoke output (`BENCH_smoke.json`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SmokeReport {
    /// Report layout version.
    pub schema_version: u32,
    /// Workload seed.
    pub seed: u64,
    /// Workload record count.
    pub records: u64,
    /// All experiments, in fixed order.
    pub experiments: Vec<SmokeExperiment>,
}

/// Ids of all smoke experiments, in run order.
pub const SMOKE_EXPERIMENTS: [&str; 11] = [
    "fig2_copy",
    "fig3_predicate",
    "fig4_range",
    "fig5_multiattr_cnf",
    "fig6_semilinear",
    "fig7_kth",
    "fig8_median",
    "fig9_kth_selective",
    "fig10_accumulator",
    "query_executor",
    "cnf_fusion_ablation",
];

struct Outcome {
    checksum: Checksum,
    metrics: Vec<MetricsRecord>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            checksum: Checksum::new(),
            metrics: Vec::new(),
        }
    }

    /// Run `op` under [`observe`] over the workload's records and keep
    /// its metrics record.
    fn observe<T>(
        &mut self,
        gpu: &mut Gpu,
        operator: &str,
        op: impl FnOnce(&mut Gpu) -> EngineResult<T>,
    ) -> EngineResult<T> {
        let (result, record) = observe(gpu, operator, SMOKE_RECORDS as u64, op);
        let value = result?;
        self.metrics.push(record);
        Ok(value)
    }
}

/// Run every smoke experiment once and assemble the report, plus (when
/// `trace` is set) each experiment's pass-level span tree. Traced runs go
/// through [`run_one_logged`]; logging is bit-passive, so the report is
/// the same either way.
pub fn run_all(trace: bool) -> EngineResult<(SmokeReport, Vec<(String, SpanTree)>)> {
    let mut experiments = Vec::with_capacity(SMOKE_EXPERIMENTS.len());
    let mut trees = Vec::new();
    for id in SMOKE_EXPERIMENTS {
        if trace {
            let (experiment, _, tree) = run_one_logged(id)?;
            experiments.push(experiment);
            trees.push((id.to_string(), tree));
        } else {
            experiments.push(run_one(id)?);
        }
    }
    Ok((
        SmokeReport {
            schema_version: SCHEMA_VERSION,
            seed: crate::harness::SEED,
            records: SMOKE_RECORDS as u64,
            experiments,
        },
        trees,
    ))
}

/// Run a single smoke experiment by id.
pub fn run_one(id: &str) -> EngineResult<SmokeExperiment> {
    run_on(&mut Workload::tcpip(SMOKE_RECORDS)?, id)
}

/// Run a single smoke experiment with the device logged (bit-passive:
/// the outcome is identical to [`run_one`]'s) and return what the log
/// holds: the pass plans — the input to `gpudb-lint` — and the
/// pass-level span tree, one root span named after the experiment with
/// the operator spans of every metrics record nested beneath it.
pub fn run_one_logged(id: &str) -> EngineResult<(SmokeExperiment, Vec<PassPlan>, SpanTree)> {
    let mut w = Workload::tcpip(SMOKE_RECORDS)?;
    w.gpu.attach_log(RecordMode::RecordAndExecute);
    // Root the whole experiment so exporters get one stack per run.
    w.gpu.span_begin(SpanKind::Query, id);
    let experiment = run_on(&mut w, id)?;
    w.gpu.span_end();
    let log = w.gpu.take_log();
    let plans = log.as_ref().map(|log| log.plans_since(0));
    let tree = log.map(|log| SpanTree::from_log(log.entries(), TraceLevel::Passes));
    Ok((
        experiment,
        plans.unwrap_or_default(),
        tree.unwrap_or_default(),
    ))
}

/// Run experiment `id` on `w`'s device.
fn run_on(w: &mut Workload, id: &str) -> EngineResult<SmokeExperiment> {
    let mut out = Outcome::new();
    match id {
        "fig2_copy" => copy(w, &mut out)?,
        "fig3_predicate" => predicate(w, &mut out)?,
        "fig4_range" => range(w, &mut out)?,
        "fig5_multiattr_cnf" => multiattr(w, &mut out)?,
        "fig6_semilinear" => semilinear(w, &mut out)?,
        "fig7_kth" => kth(w, &mut out)?,
        "fig8_median" => median(w, &mut out)?,
        "fig9_kth_selective" => kth_selective(w, &mut out)?,
        "fig10_accumulator" => accumulator(w, &mut out)?,
        "query_executor" => query_executor(w, &mut out)?,
        "cnf_fusion_ablation" => cnf_fusion_ablation(w, &mut out)?,
        other => {
            return Err(gpudb_core::EngineError::InvalidQuery(format!(
                "unknown smoke experiment {other:?}; known: {SMOKE_EXPERIMENTS:?}"
            )))
        }
    }
    Ok(SmokeExperiment {
        id: id.to_string(),
        input_records: SMOKE_RECORDS as u64,
        modeled_ns: out
            .metrics
            .iter()
            .map(MetricsRecord::modeled_total_ns)
            .sum(),
        checksum: out.checksum.hex(),
        metrics: out.metrics,
    })
}

/// Figure 2: `CopyToDepth` of each attribute. The copy has no
/// host-visible result, so the checksum folds the column contents —
/// pinning the data generator as well as the copy cost.
fn copy(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    for column in 0..w.table.column_count() {
        for &v in w.dataset.columns[column].values.iter() {
            out.checksum.push_u32(v);
        }
        out.observe(&mut w.gpu, "predicate/copy_to_depth", |gpu| {
            gpudb_core::predicate::copy_to_depth(gpu, &w.table, column)
        })?;
    }
    Ok(())
}

/// Figure 3: single-predicate counts at a sweep of constants.
fn predicate(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    let max = (1u32 << 19) - 1;
    for op in [CompareFunc::Less, CompareFunc::GreaterEqual] {
        for tenth in [1u32, 3, 5, 7, 9] {
            let constant = max / 10 * tenth;
            let count = out.observe(&mut w.gpu, "predicate/compare_count", |gpu| {
                gpudb_core::predicate::compare_count(gpu, &w.table, 0, op, constant)
            })?;
            out.checksum.push_u64(count);
        }
    }
    Ok(())
}

/// Figure 4: depth-bounds range counts at several selectivities.
fn range(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    let max = (1u32 << 19) - 1;
    for (lo_tenth, hi_tenth) in [(1u32, 2u32), (2, 5), (1, 8), (4, 6)] {
        let low = max / 10 * lo_tenth;
        let high = max / 10 * hi_tenth;
        let count = out.observe(&mut w.gpu, "range/range_count", |gpu| {
            gpudb_core::range::range_select(gpu, &w.table, 0, low, high).map(|sel| sel.matched())
        })?;
        out.checksum.push_u64(count);
    }
    Ok(())
}

/// Figure 5: conjunctions over 1–4 attributes (CNF), plus a DNF.
fn multiattr(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    let preds = [
        GpuPredicate::new(0, CompareFunc::GreaterEqual, 20_000),
        GpuPredicate::new(1, CompareFunc::Less, 500),
        GpuPredicate::new(2, CompareFunc::Greater, 2_000),
        GpuPredicate::new(3, CompareFunc::LessEqual, 8),
    ];
    for k in 1..=preds.len() {
        let cnf = GpuCnf::all_of(preds[..k].to_vec());
        let count = out.observe(&mut w.gpu, "boolean/eval_cnf_count", |gpu| {
            gpudb_core::boolean::eval_cnf_select(gpu, &w.table, &cnf, true).map(|sel| sel.matched())
        })?;
        out.checksum.push_u64(count);
    }
    let dnf = GpuDnf::new(vec![
        GpuTerm::all(vec![preds[0], preds[1]]),
        GpuTerm::single(GpuPredicate::new(2, CompareFunc::Greater, 50_000)),
    ]);
    let count = out.observe(&mut w.gpu, "boolean/eval_dnf_count", |gpu| {
        gpudb_core::boolean::eval_dnf_select(gpu, &w.table, &dnf).map(|sel| sel.matched())
    })?;
    out.checksum.push_u64(count);
    Ok(())
}

/// Figure 6: semi-linear dot-product queries over all four attributes.
fn semilinear(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    let cases: [(&[f32], CompareFunc, f32); 3] = [
        (&[1.0, -1.0, 0.0, 0.0], CompareFunc::Greater, 10_000.0),
        (&[0.5, 0.0, 1.0, 0.0], CompareFunc::LessEqual, 30_000.0),
        (&[1.0, 1.0, 1.0, 1.0], CompareFunc::GreaterEqual, 60_000.0),
    ];
    for (coefficients, op, constant) in cases {
        let count = out.observe(&mut w.gpu, "semilinear/semilinear_count", |gpu| {
            gpudb_core::semilinear::semilinear_select(gpu, &w.table, coefficients, op, constant)
                .map(|sel| sel.matched())
        })?;
        out.checksum.push_u64(count);
    }
    Ok(())
}

/// Figure 7: k-th largest at a sweep of k.
fn kth(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    for k in [1usize, 10, 100, SMOKE_RECORDS / 2] {
        let value = out.observe(&mut w.gpu, "aggregate/kth_largest", |gpu| {
            aggregate::kth_largest(gpu, &w.table, 0, k, None)
        })?;
        out.checksum.push_u32(value);
    }
    Ok(())
}

/// Figure 8: median of every attribute.
fn median(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    for column in 0..w.table.column_count() {
        let value = out.observe(&mut w.gpu, "aggregate/median", |gpu| {
            aggregate::median(gpu, &w.table, column, None)
        })?;
        out.checksum.push_u32(value);
    }
    Ok(())
}

/// Figure 9: k-th largest within a range selection.
fn kth_selective(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    let max = (1u32 << 19) - 1;
    let selection = out.observe(&mut w.gpu, "range/range_select", |gpu| {
        gpudb_core::range::range_select(gpu, &w.table, 0, max / 10, max / 2)
    })?;
    let matched = selection.matched();
    out.checksum.push_u64(matched);
    for k in [1usize, 25] {
        let value = out.observe(&mut w.gpu, "aggregate/kth_largest", |gpu| {
            aggregate::kth_largest(gpu, &w.table, 0, k, Some(&selection))
        })?;
        out.checksum.push_u32(value);
    }
    Ok(())
}

/// Figure 10: bitwise-accumulator SUM and AVG.
fn accumulator(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    for column in [0usize, 2] {
        let sum = out.observe(&mut w.gpu, "aggregate/accumulator_sum", |gpu| {
            aggregate::sum(gpu, &w.table, column, None)
        })?;
        out.checksum.push_u64(sum);
    }
    Ok(())
}

/// End-to-end planner + executor over a filtered multi-aggregate query.
fn query_executor(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    let query = Query::filtered(
        vec![
            Aggregate::Count,
            Aggregate::Sum("data_count".into()),
            Aggregate::Max("flow_rate".into()),
            Aggregate::Median("data_count".into()),
        ],
        BoolExpr::Between {
            column: "data_count".into(),
            low: 10_000,
            high: 400_000,
        },
    );
    let result = execute(&mut w.gpu, &w.table, &query)?;
    checksum_result(&mut out.checksum, result.matched, &result.rows);
    out.metrics.extend(result.metrics);
    Ok(())
}

/// Fusion ablation: a four-clause conjunction whose first two clauses
/// share an attribute, evaluated with the paper's literal protocol and
/// with pass fusion. Both counts fold into the checksum (they must be
/// equal — fusion only removes passes), and the two metrics records put
/// the modeled saving on the baseline, so a regression in the optimizer
/// shows up in the gate like any other cost change.
fn cnf_fusion_ablation(w: &mut Workload, out: &mut Outcome) -> EngineResult<()> {
    let cnf = GpuCnf::all_of(vec![
        GpuPredicate::new(0, CompareFunc::GreaterEqual, 20_000),
        GpuPredicate::new(0, CompareFunc::Less, 400_000),
        GpuPredicate::new(1, CompareFunc::Less, 500),
        GpuPredicate::new(2, CompareFunc::Greater, 2_000),
    ]);
    let unfused = out.observe(&mut w.gpu, "boolean/eval_cnf_unfused", |gpu| {
        gpudb_core::boolean::eval_cnf_select(gpu, &w.table, &cnf, false).map(|sel| sel.matched())
    })?;
    out.checksum.push_u64(unfused);
    let fused = out.observe(&mut w.gpu, "boolean/eval_cnf_count", |gpu| {
        gpudb_core::boolean::eval_cnf_select(gpu, &w.table, &cnf, true).map(|sel| sel.matched())
    })?;
    out.checksum.push_u64(fused);
    Ok(())
}

/// Ids of the sharded smoke queries, in run order — one query per
/// operator family the sharded merge algebra has to get right.
pub const SHARD_QUERIES: [&str; 5] = [
    "shard_predicate",
    "shard_range",
    "shard_cnf",
    "shard_order_stats",
    "shard_accumulator",
];

/// The smoke workload as a host-resident table, the input shape the
/// sharded executor partitions.
pub fn smoke_host_table() -> EngineResult<HostTable> {
    let dataset = gpudb_data::tcpip::generate(SMOKE_RECORDS, crate::harness::SEED);
    let columns: Vec<(String, Vec<u32>)> = dataset
        .columns
        .into_iter()
        .map(|c| (c.name, c.values))
        .collect();
    HostTable::new(dataset.name, columns)
}

/// The query behind one sharded smoke id.
fn shard_query(id: &str) -> EngineResult<Query> {
    let max = (1u32 << 19) - 1;
    Ok(match id {
        "shard_predicate" => Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("data_count", CompareFunc::Greater, max / 2),
        ),
        "shard_range" => Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("data_count".into())],
            BoolExpr::Between {
                column: "data_count".into(),
                low: 10_000,
                high: 400_000,
            },
        ),
        "shard_cnf" => Query::filtered(
            vec![Aggregate::Count, Aggregate::Max("flow_rate".into())],
            BoolExpr::pred("data_loss", CompareFunc::Less, 500)
                .or(BoolExpr::pred(
                    "retransmissions",
                    CompareFunc::GreaterEqual,
                    8,
                ))
                .and(BoolExpr::pred("data_count", CompareFunc::NotEqual, 77)),
        ),
        "shard_order_stats" => Query::filtered(
            vec![
                Aggregate::Median("data_count".into()),
                Aggregate::KthLargest("flow_rate".into(), 25),
            ],
            BoolExpr::pred("data_loss", CompareFunc::Less, 400),
        ),
        "shard_accumulator" => Query::filtered(
            vec![
                Aggregate::Sum("data_count".into()),
                Aggregate::Avg("flow_rate".into()),
                Aggregate::Min("data_loss".into()),
            ],
            BoolExpr::pred("retransmissions", CompareFunc::GreaterEqual, 4),
        ),
        other => {
            return Err(gpudb_core::EngineError::InvalidQuery(format!(
                "unknown sharded smoke query {other:?}; known: {SHARD_QUERIES:?}"
            )))
        }
    })
}

/// Fold a query result (matched count + aggregate rows) into `checksum`
/// exactly as [`query_executor`] does, so sharded and single-device
/// checksums are comparable folds of the same values.
fn checksum_result(
    checksum: &mut Checksum,
    matched: u64,
    rows: &[(String, gpudb_core::query::AggValue)],
) {
    checksum.push_u64(matched);
    for (label, value) in rows {
        for b in label.bytes() {
            checksum.push_u64(u64::from(b));
        }
        match value {
            gpudb_core::query::AggValue::Count(v) | gpudb_core::query::AggValue::Sum(v) => {
                checksum.push_u64(*v)
            }
            gpudb_core::query::AggValue::Avg(v) => checksum.push_f64(*v),
            gpudb_core::query::AggValue::Value(v) => checksum.push_u32(*v),
        }
    }
}

/// Run every sharded smoke query at `shards` devices and return the
/// report plus (when `trace` is set) the merged per-query span trees —
/// each with one `shard-i` stage per device.
///
/// The checksum folds the matched count, every aggregate row, and the
/// full concatenated selection mask, so it is invariant across shard
/// counts exactly when the sharded executor merges exactly. The
/// `shard-matrix` CI job diffs these checksums byte-for-byte between
/// `--shards` counts.
pub fn run_sharded(
    shards: usize,
    trace: bool,
) -> EngineResult<(SmokeReport, Vec<(String, SpanTree)>)> {
    let host = smoke_host_table()?;
    let opts = gpudb_core::parallel::ShardOptions {
        shards,
        options: gpudb_core::query::ExecuteOptions {
            trace: trace.then_some(TraceLevel::Passes),
            ..gpudb_core::query::ExecuteOptions::default()
        },
        ..gpudb_core::parallel::ShardOptions::default()
    };
    let mut experiments = Vec::with_capacity(SHARD_QUERIES.len());
    let mut trees = Vec::new();
    for id in SHARD_QUERIES {
        let query = shard_query(id)?;
        let out = gpudb_core::parallel::execute_sharded(&host, &query, &opts)?;
        let mut checksum = Checksum::new();
        checksum_result(&mut checksum, out.output.matched, &out.output.rows);
        for &selected in &out.mask {
            checksum.push_u64(u64::from(selected));
        }
        if let Some(tree) = out.output.trace.clone() {
            trees.push((id.to_string(), tree));
        }
        experiments.push(SmokeExperiment {
            id: id.to_string(),
            input_records: SMOKE_RECORDS as u64,
            modeled_ns: out.report.merged_ns,
            checksum: checksum.hex(),
            metrics: out.output.metrics,
        });
    }
    Ok((
        SmokeReport {
            schema_version: SCHEMA_VERSION,
            seed: crate::harness::SEED,
            records: SMOKE_RECORDS as u64,
            experiments,
        },
        trees,
    ))
}

/// Render the one-line-per-experiment summary table, with the delta
/// against an optional baseline report.
pub fn summary_table(report: &SmokeReport, baseline: Option<&SmokeReport>) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<22} {:>12} {:>12} {:>10}  checksum",
        "experiment", "modeled ms", "Δ vs base", "ops"
    );
    for exp in &report.experiments {
        let ms = exp.modeled_ns as f64 / 1e6;
        let base = baseline.and_then(|b| b.experiments.iter().find(|e| e.id == exp.id));
        let delta = match base {
            Some(b) if b.modeled_ns > 0 => {
                let pct = (exp.modeled_ns as f64 / b.modeled_ns as f64 - 1.0) * 100.0;
                format!("{pct:+.2}%")
            }
            _ => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:<22} {:>12.3} {:>12} {:>10}  {}",
            exp.id,
            ms,
            delta,
            exp.metrics.len(),
            exp.checksum
        );
    }
    out.push('\n');
    out.push_str(&operator_rollup(report));
    out
}

/// Render the per-operator rollup across every experiment's metrics,
/// merged by [`MetricsLog::by_operator`] (stable first-appearance order).
pub fn operator_rollup(report: &SmokeReport) -> String {
    use std::fmt::Write;
    let mut log = MetricsLog::new();
    for exp in &report.experiments {
        for record in &exp.metrics {
            log.push(record.clone());
        }
    }
    let total_ns = log.modeled_total_ns().max(1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<28} {:>6} {:>14} {:>12} {:>8}",
        "operator", "calls", "input records", "modeled ms", "% total"
    );
    for summary in log.by_operator() {
        let _ = writeln!(
            out,
            "{:<28} {:>6} {:>14} {:>12.3} {:>7.1}%",
            summary.operator,
            summary.invocations,
            summary.input_records,
            summary.modeled_ns.total() as f64 / 1e6,
            summary.modeled_ns.total() as f64 / total_ns as f64 * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let mut a = Checksum::new();
        a.push_u64(1);
        a.push_u64(2);
        let mut b = Checksum::new();
        b.push_u64(2);
        b.push_u64(1);
        assert_ne!(a.hex(), b.hex());
        assert_eq!(a.hex().len(), 16);

        let mut c = Checksum::new();
        c.push_u64(1);
        c.push_u64(2);
        assert_eq!(a.hex(), c.hex());
    }

    #[test]
    fn single_experiment_is_deterministic() {
        let a = run_one("fig4_range").unwrap();
        let b = run_one("fig4_range").unwrap();
        assert_eq!(a, b);
        assert!(a.modeled_ns > 0);
        assert!(!a.metrics.is_empty());
        let json_a = serde_json::to_string_pretty(&a).unwrap();
        let json_b = serde_json::to_string_pretty(&b).unwrap();
        assert_eq!(json_a, json_b);
    }

    #[test]
    fn unknown_experiment_rejected() {
        assert!(run_one("nope").is_err());
    }

    #[test]
    fn logged_run_is_bit_identical_and_captures_plans_and_spans() {
        for id in SMOKE_EXPERIMENTS {
            let (logged, plans, tree) = run_one_logged(id).unwrap();
            let plain = run_one(id).unwrap();
            // Logging must not perturb results, metrics or modeled cost.
            assert_eq!(logged, plain, "{id}");
            assert!(plans.iter().any(|p| p.draw_count() > 0), "{id}");
            assert_eq!(tree.roots.len(), 1, "{id}");
            assert_eq!(tree.roots[0].name, id);
            // One operator span per metrics record, in order.
            let ops = tree.spans_of_kind(SpanKind::Operator);
            assert_eq!(ops.len(), plain.metrics.len(), "{id}");
            for (span, record) in ops.iter().zip(&plain.metrics) {
                assert_eq!(span.name, record.operator, "{id}");
            }
        }
        let (_, plans, tree) = run_one_logged("fig4_range").unwrap();
        // Plans carry the operator labels the metrics hook assigns.
        assert!(
            plans.iter().any(|p| p.label.starts_with("range/")),
            "{:?}",
            plans.iter().map(|p| &p.label).collect::<Vec<_>>()
        );
        // Two logged runs export byte-identical traces.
        let (_, _, tree2) = run_one_logged("fig4_range").unwrap();
        assert_eq!(
            gpudb_obs::chrome::trace_json(&tree),
            gpudb_obs::chrome::trace_json(&tree2)
        );
    }

    #[test]
    fn sharded_checksums_are_shard_count_invariant() {
        let (one, _) = run_sharded(1, false).unwrap();
        let (three, trees) = run_sharded(3, false).unwrap();
        assert!(trees.is_empty(), "untraced run must not collect spans");
        let ck = |r: &SmokeReport| {
            r.experiments
                .iter()
                .map(|e| (e.id.clone(), e.checksum.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ck(&one), ck(&three));
        assert_eq!(one.experiments.len(), SHARD_QUERIES.len());
        assert!(one.experiments.iter().all(|e| e.modeled_ns > 0));
    }

    #[test]
    fn sharded_trace_collects_one_tree_per_query() {
        let (_, trees) = run_sharded(2, true).unwrap();
        assert_eq!(trees.len(), SHARD_QUERIES.len());
        for (id, tree) in &trees {
            // Each merged tree holds one stage per shard device.
            let stages = tree.spans_of_kind(SpanKind::Stage);
            assert!(
                stages.iter().any(|s| s.name == "shard-0")
                    && stages.iter().any(|s| s.name == "shard-1"),
                "{id}: missing shard stages in {:?}",
                stages.iter().map(|s| &s.name).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn operator_rollup_merges_across_experiments() {
        let report = SmokeReport {
            schema_version: SCHEMA_VERSION,
            seed: 1,
            records: 10,
            experiments: vec![run_one("fig4_range").unwrap()],
        };
        let text = operator_rollup(&report);
        assert!(text.contains("operator"), "{text}");
        assert!(text.contains("range/"), "{text}");
        assert!(text.contains("% total"), "{text}");
    }

    #[test]
    fn summary_table_lists_every_experiment() {
        let report = SmokeReport {
            schema_version: SCHEMA_VERSION,
            seed: 1,
            records: 10,
            experiments: vec![SmokeExperiment {
                id: "fig3_predicate".into(),
                input_records: 10,
                modeled_ns: 2_000_000,
                checksum: "00ff".into(),
                metrics: vec![],
            }],
        };
        let mut base = report.clone();
        base.experiments[0].modeled_ns = 1_000_000;
        let text = summary_table(&report, Some(&base));
        assert!(text.contains("fig3_predicate"));
        assert!(text.contains("+100.00%"));
        assert!(text.contains("2.000"));
        let text = summary_table(&report, None);
        assert!(text.contains('-'));
    }
}
