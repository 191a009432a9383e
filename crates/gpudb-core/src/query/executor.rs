//! Query execution on one device. The executor plans the statement and
//! runs it on the partition coordinator ([`crate::parallel`]) as one
//! partition resident on the caller's device, so single-device and
//! sharded execution share one phase loop and one aggregate algebra. The
//! executor owns what wraps a statement: the device log when validating
//! or tracing, the `query` span, the statement's `timing` and its trace.
//! EXPLAIN and EXPLAIN ANALYZE render from here.

use crate::boolean::{eval_cnf_select, eval_dnf_select};
use crate::error::EngineResult;
use crate::metrics::{self, MetricsRecord};
use crate::parallel::{self, Records};
use crate::query::ast::{Aggregate, Query};
use crate::query::planner::{plan_selection, SelectionPlan};
use crate::range::range_select;
use crate::selection::Selection;
use crate::semilinear::semilinear_select;
use crate::table::GpuTable;
use gpudb_obs::{Span, SpanTree, TraceLevel};
use gpudb_sim::span::SpanKind;
use gpudb_sim::{Gpu, PhaseNanos, RecordMode};

/// One aggregate's result value.
#[derive(Debug, Clone, PartialEq)]
pub enum AggValue {
    /// Integral count.
    Count(u64),
    /// Exact sum.
    Sum(u64),
    /// Average.
    Avg(f64),
    /// An attribute value (MIN/MAX/MEDIAN/k-th).
    Value(u32),
}

/// The result of executing a [`Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutput {
    /// Number of records matching the filter.
    pub matched: u64,
    /// Selectivity of the filter in `[0, 1]`.
    pub selectivity: f64,
    /// `(label, value)` pairs in SELECT-list order.
    pub rows: Vec<(String, AggValue)>,
    /// Modeled device time for the whole query, by phase, on the
    /// device's integer-nanosecond clock.
    pub timing: PhaseNanos,
    /// One deterministic metrics record per executed plan stage (the
    /// selection, then each aggregate in SELECT-list order).
    pub metrics: Vec<MetricsRecord>,
    /// The span tree of this execution, when [`ExecuteOptions::trace`]
    /// was set.
    pub trace: Option<SpanTree>,
}

/// Execute the selection plan, returning the selection (None = all
/// records), which carries its match count. `fuse_passes` picks the fused
/// or literal-paper CNF protocol (identical results either way).
pub(crate) fn execute_selection(
    gpu: &mut Gpu,
    table: &GpuTable,
    plan: &SelectionPlan,
    fuse_passes: bool,
) -> EngineResult<Option<Selection>> {
    Ok(Some(match plan {
        SelectionPlan::All => return Ok(None),
        SelectionPlan::Range { column, low, high } => {
            range_select(gpu, table, *column, *low, *high)?
        }
        SelectionPlan::Cnf(cnf) => eval_cnf_select(gpu, table, cnf, fuse_passes)?,
        SelectionPlan::Dnf(dnf) => eval_dnf_select(gpu, table, dnf)?,
        SelectionPlan::SemiLinear {
            coefficients,
            op,
            constant,
        } => semilinear_select(gpu, table, coefficients, *op, *constant)?,
    }))
}

/// Short operator tag for a selection plan, used in metrics records.
pub(crate) fn plan_operator(plan: &SelectionPlan) -> &'static str {
    match plan {
        SelectionPlan::All => "filter/all",
        SelectionPlan::Range { .. } => "filter/range",
        SelectionPlan::Cnf(_) => "filter/cnf",
        SelectionPlan::Dnf(_) => "filter/dnf",
        SelectionPlan::SemiLinear { .. } => "filter/semilinear",
    }
}

/// Options controlling query execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecuteOptions {
    /// Record each operator's pass plan while executing and run the
    /// `gpudb-lint` validator over each stage's plans once the stage has
    /// run; an error-severity diagnostic fails the query with
    /// [`crate::EngineError::PlanValidation`]. Recording is bit-passive:
    /// results, modeled cost and work counters are identical with or
    /// without it.
    pub validate_plans: bool,
    /// Collect a hierarchical span trace (`query → stage → operator →
    /// pass`) on the modeled clock while executing, at the given detail
    /// level, and return it in [`QueryOutput::trace`]. Tracing is
    /// cost-transparent: results, counters and modeled times are
    /// identical with or without it.
    pub trace: Option<TraceLevel>,
    /// Run selections with the pass-fusion optimizer (default): adjacent
    /// CNF passes over the same column share one `Compare` depth copy,
    /// and the opening stencil clear is folded into the first predicate
    /// pass. Fusion only removes passes — results are bit-identical to
    /// the literal paper protocols; set to `false` for the unfused
    /// baseline (ablation benchmarks, differential tests).
    pub fuse_passes: bool,
}

impl Default for ExecuteOptions {
    /// Validate in debug builds, skip in release (opt back in by
    /// setting [`ExecuteOptions::validate_plans`] explicitly); no span
    /// tracing; pass fusion on.
    fn default() -> ExecuteOptions {
        ExecuteOptions {
            validate_plans: cfg!(debug_assertions),
            trace: None,
            fuse_passes: true,
        }
    }
}

/// Execute a query against a table with default [`ExecuteOptions`]
/// (plan validation on in debug builds, off in release).
pub fn execute(gpu: &mut Gpu, table: &GpuTable, query: &Query) -> EngineResult<QueryOutput> {
    execute_with_options(gpu, table, query, ExecuteOptions::default())
}

/// Execute a query with explicit [`ExecuteOptions`].
pub fn execute_with_options(
    gpu: &mut Gpu,
    table: &GpuTable,
    query: &Query,
    options: ExecuteOptions,
) -> EngineResult<QueryOutput> {
    let plan = plan_selection(table, query.filter.as_ref())?;
    execute_plan(gpu, table, &plan, query, options)
}

/// [`execute_with_options`] with the statement's selection plan made.
fn execute_plan(
    gpu: &mut Gpu,
    table: &GpuTable,
    plan: &SelectionPlan,
    query: &Query,
    options: ExecuteOptions,
) -> EngineResult<QueryOutput> {
    let records = Records::Resident(table, plan);
    run_statement(gpu, options, |gpu| {
        parallel::execute_on_caller(gpu, records, query, options)
    })
    .map(|(output, _)| output)
}

/// Wrap one statement on the caller's device, the same way at every
/// placement: log the device when validating or tracing, unless the
/// caller already does (a harness logging a whole workload keeps its
/// log), open the `query` span, and measure the statement's `timing` and
/// trace on this statement's window of the log. `run` returns the output,
/// whose `timing` and `trace` hold only what ran on other devices
/// (out-of-core chunks), and a placement's own ledger.
pub(crate) fn run_statement<T>(
    gpu: &mut Gpu,
    options: ExecuteOptions,
    run: impl FnOnce(&mut Gpu) -> EngineResult<(QueryOutput, T)>,
) -> EngineResult<(QueryOutput, T)> {
    let owns_log = (options.validate_plans || options.trace.is_some()) && gpu.log().is_none();
    if owns_log {
        gpu.attach_log(RecordMode::RecordAndExecute);
    }
    let mark = gpu.log().map_or(0, |log| log.entries().len());
    gpu.span_begin(SpanKind::Query, "query");
    let before = gpu.stats().modeled;
    let result = run(gpu);
    let timing = gpu.stats().modeled.since(&before);
    gpu.span_end();
    let owned = if owns_log { gpu.take_log() } else { None };
    let (mut output, ledger) = result?;
    output.timing = timing.plus(&output.timing);
    // The records tile every device's clock.
    debug_assert_eq!(metrics::phase_sum(&output.metrics), output.timing);
    if let (Some(level), Some(log)) = (options.trace, owned.as_ref().or(gpu.log())) {
        let window = log.entries().get(mark..).unwrap_or_default();
        let mut tree = SpanTree::from_log(window, level);
        tree.roots
            .extend(output.trace.take().into_iter().flat_map(|t| t.roots));
        output.trace = Some(tree);
    }
    Ok((output, ledger))
}

/// EXPLAIN: describe the physical plan the planner would choose, without
/// executing anything on the device.
pub fn explain(table: &GpuTable, query: &Query) -> EngineResult<String> {
    let plan = plan_selection(table, query.filter.as_ref())?;
    Ok(describe_plan(table, &plan, query))
}

/// [`explain`]'s text for a statement whose selection plan is made.
fn describe_plan(table: &GpuTable, plan: &SelectionPlan, query: &Query) -> String {
    let mut out = String::new();
    out.push_str("SELECTION: ");
    out.push_str(&plan.describe(table));
    out.push('\n');
    for agg in &query.aggregates {
        out.push_str("AGGREGATE: ");
        out.push_str(&describe_aggregate(agg));
        out.push('\n');
    }
    out
}

/// How an aggregate maps onto the paper's primitives, for EXPLAIN output.
fn describe_aggregate(agg: &Aggregate) -> String {
    match agg {
        Aggregate::Count => {
            "COUNT(*) via occlusion query (free with the selection pass)".to_string()
        }
        Aggregate::Sum(c) | Aggregate::Avg(c) => format!(
            "{} via bitwise Accumulator (one TestBit pass per bit of {c})",
            agg.label()
        ),
        Aggregate::Min(c)
        | Aggregate::Max(c)
        | Aggregate::Median(c)
        | Aggregate::KthLargest(c, _)
        | Aggregate::KthSmallest(c, _)
        | Aggregate::Percentile(c, _) => format!(
            "{} via KthLargest bit descent (one pass per bit of {c})",
            agg.label()
        ),
    }
}

/// EXPLAIN with per-pass device state: on top of [`explain`]'s plan
/// description, dry-run the selection in record-only mode — no fragment
/// is shaded, no cost is modeled and the framebuffer is untouched — and
/// append one line per recorded pass showing the depth/stencil/alpha
/// configuration it would run under.
///
/// If a log is already attached (a harness logging a workload owns it),
/// the dry run is skipped and the output matches [`explain`].
pub fn explain_with_device(gpu: &mut Gpu, table: &GpuTable, query: &Query) -> EngineResult<String> {
    let plan = plan_selection(table, query.filter.as_ref())?;
    let mut out = describe_plan(table, &plan, query);
    if matches!(plan, SelectionPlan::All) || gpu.log().is_some() {
        return Ok(out);
    }
    gpu.attach_log(RecordMode::RecordOnly);
    gpu.span_begin(SpanKind::Operator, plan_operator(&plan));
    let result = execute_selection(gpu, table, &plan, ExecuteOptions::default().fuse_passes);
    gpu.span_end();
    let plans = gpu
        .take_log()
        .map(|log| log.plans_since(0))
        .unwrap_or_default();
    result?;
    for recorded in &plans {
        for line in recorded.describe_passes() {
            out.push_str("  ");
            out.push_str(&line);
            out.push('\n');
        }
    }
    Ok(out)
}

impl QueryOutput {
    /// Look up a result by its label.
    pub fn value(&self, label: &str) -> Option<&AggValue> {
        self.rows.iter().find(|(l, _)| l == label).map(|(_, v)| v)
    }
}

/// Milliseconds with six fixed decimals — exact nanoseconds rendered in
/// integer arithmetic, so the text is byte-deterministic.
fn fmt_ms(ns: u64) -> String {
    format!("{}.{:06}", ns / 1_000_000, ns % 1_000_000)
}

/// Percentage of `total` with one decimal (`"100.0"` when `total` is 0
/// and `part` equals it, `"0.0"` for an empty total otherwise).
fn fmt_pct(part: u64, total: u64) -> String {
    if total == 0 {
        "0.0".to_string()
    } else {
        format!("{:.1}", part as f64 * 100.0 / total as f64)
    }
}

/// Non-zero phases of a record, e.g.
/// `phases[copy-to-depth 0.123456 ms · compute 0.045000 ms]`.
fn phases_line(ns: &PhaseNanos) -> String {
    let parts: Vec<String> = [
        ("upload", ns.upload),
        ("copy-to-depth", ns.copy_to_depth),
        ("compute", ns.compute),
        ("readback", ns.readback),
        ("other", ns.other),
    ]
    .iter()
    .filter(|(_, v)| *v != 0)
    .map(|(name, v)| format!("{name} {} ms", fmt_ms(*v)))
    .collect();
    if parts.is_empty() {
        "phases[-]".to_string()
    } else {
        format!("phases[{}]", parts.join(" · "))
    }
}

/// Group an operator span's leaf children by name:
/// `3× pass:TestBit 0.030000 ms · 1× readback:occlusion-sync ...`.
fn passes_line(operator_span: &Span) -> String {
    let mut groups: Vec<(&str, u64, u64)> = Vec::new();
    for child in &operator_span.children {
        match groups.iter_mut().find(|g| g.0 == child.name) {
            Some(group) => {
                group.1 += 1;
                group.2 += child.duration_ns();
            }
            None => groups.push((&child.name, 1, child.duration_ns())),
        }
    }
    groups
        .iter()
        .map(|(name, count, ns)| format!("{count}× {name} {} ms", fmt_ms(*ns)))
        .collect::<Vec<_>>()
        .join(" · ")
}

/// EXPLAIN ANALYZE: execute the query for real with span tracing enabled
/// and render the plan tree annotated with measured per-stage phase
/// times, work counters, selectivity, and each stage's share of the
/// total modeled time. Every number derives from the deterministic cost
/// model, so the report is byte-identical across runs.
pub fn explain_analyze(gpu: &mut Gpu, table: &GpuTable, query: &Query) -> EngineResult<String> {
    explain_analyze_with_options(gpu, table, query, ExecuteOptions::default())
}

/// [`explain_analyze`] with explicit [`ExecuteOptions`] — pass tracing
/// is forced on (the report needs the spans); everything else, notably
/// [`ExecuteOptions::fuse_passes`], is honored. This is how the golden
/// snapshot tests render the same query before and after fusion.
pub fn explain_analyze_with_options(
    gpu: &mut Gpu,
    table: &GpuTable,
    query: &Query,
    options: ExecuteOptions,
) -> EngineResult<String> {
    let options = ExecuteOptions {
        trace: Some(options.trace.unwrap_or(TraceLevel::Passes)),
        ..options
    };
    let plan = plan_selection(table, query.filter.as_ref())?;
    let output = execute_plan(gpu, table, &plan, query, options)?;
    Ok(render_analyze(table, &plan, query, &output))
}

/// Render the [`explain_analyze`] report from an executed query.
fn render_analyze(
    table: &GpuTable,
    plan: &SelectionPlan,
    query: &Query,
    output: &QueryOutput,
) -> String {
    let total_ns: u64 = output
        .metrics
        .iter()
        .map(MetricsRecord::modeled_total_ns)
        .sum();
    let mut out = format!(
        "EXPLAIN ANALYZE {}: {} records · matched {} (selectivity {:.2}%) · modeled {} ms\n",
        table.name(),
        table.record_count(),
        output.matched,
        output.selectivity * 100.0,
        fmt_ms(total_ns),
    );
    let operator_spans: Vec<&Span> = output
        .trace
        .as_ref()
        .map(|tree| tree.spans_of_kind(SpanKind::Operator))
        .unwrap_or_default();
    for (i, record) in output.metrics.iter().enumerate() {
        let last = i + 1 == output.metrics.len();
        let (branch, cont) = if last {
            ("└─ ", "     ")
        } else {
            ("├─ ", "│    ")
        };
        let headline = if i == 0 {
            format!("SELECTION: {}", plan.describe(table))
        } else {
            match query.aggregates.get(i - 1) {
                Some(agg) => format!("AGGREGATE: {}", describe_aggregate(agg)),
                None => record.operator.clone(),
            }
        };
        out.push_str(branch);
        out.push_str(&headline);
        out.push('\n');
        out.push_str(cont);
        out.push_str(&format!(
            "[{}] {} ms · {}% of query · in {} · {}\n",
            record.operator,
            fmt_ms(record.modeled_total_ns()),
            fmt_pct(record.modeled_total_ns(), total_ns),
            record.input_records,
            phases_line(&record.modeled_ns),
        ));
        let c = &record.counters;
        out.push_str(cont);
        out.push_str(&format!(
            "draws {} · fragments {} · shaded {} · instructions {} · sync readbacks {}\n",
            c.draw_calls,
            c.fragments_generated,
            c.fragments_shaded,
            c.program_instructions,
            c.occlusion_readbacks,
        ));
        if let Some(span) = operator_spans.get(i) {
            if !span.children.is_empty() {
                out.push_str(cont);
                out.push_str(&format!("passes: {}\n", passes_line(span)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EngineError;
    use crate::query::ast::BoolExpr;
    use gpudb_sim::CompareFunc::*;

    fn setup() -> (Gpu, GpuTable, Vec<u32>, Vec<u32>) {
        let a: Vec<u32> = (0..100u32).map(|i| (i * 37) % 200).collect();
        let b: Vec<u32> = (0..100u32).map(|i| (i * 11 + 3) % 150).collect();
        let mut gpu = GpuTable::device_for(100, 10);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("b", &b)]).unwrap();
        (gpu, t, a, b)
    }

    #[test]
    fn unfiltered_aggregates() {
        let (mut gpu, t, a, _) = setup();
        let q = Query::aggregate_all(vec![
            Aggregate::Count,
            Aggregate::Sum("a".into()),
            Aggregate::Min("a".into()),
            Aggregate::Max("a".into()),
        ]);
        let out = execute(&mut gpu, &t, &q).unwrap();
        assert_eq!(out.matched, 100);
        assert_eq!(out.selectivity, 1.0);
        let expect_sum: u64 = a.iter().map(|&v| v as u64).sum();
        assert_eq!(out.value("COUNT(*)"), Some(&AggValue::Count(100)));
        assert_eq!(out.value("SUM(a)"), Some(&AggValue::Sum(expect_sum)));
        assert_eq!(
            out.value("MIN(a)"),
            Some(&AggValue::Value(*a.iter().min().unwrap()))
        );
        assert_eq!(
            out.value("MAX(a)"),
            Some(&AggValue::Value(*a.iter().max().unwrap()))
        );
        assert!(out.timing.total() > 0);
    }

    #[test]
    fn filtered_aggregates_match_reference() {
        let (mut gpu, t, a, b) = setup();
        let q = Query::filtered(
            vec![
                Aggregate::Count,
                Aggregate::Sum("b".into()),
                Aggregate::Avg("b".into()),
                Aggregate::Median("a".into()),
            ],
            BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100)),
        );
        let out = execute(&mut gpu, &t, &q).unwrap();

        let selected: Vec<usize> = (0..100).filter(|&i| a[i] >= 50 && b[i] < 100).collect();
        assert_eq!(out.matched, selected.len() as u64);
        let sum_b: u64 = selected.iter().map(|&i| b[i] as u64).sum();
        assert_eq!(out.value("SUM(b)"), Some(&AggValue::Sum(sum_b)));
        let avg_b = sum_b as f64 / selected.len() as f64;
        match out.value("AVG(b)") {
            Some(AggValue::Avg(v)) => assert!((v - avg_b).abs() < 1e-9),
            other => panic!("unexpected {other:?}"),
        }
        let mut sel_a: Vec<u32> = selected.iter().map(|&i| a[i]).collect();
        sel_a.sort_unstable();
        let expect_median = sel_a[sel_a.len().div_ceil(2) - 1];
        assert_eq!(
            out.value("MEDIAN(a)"),
            Some(&AggValue::Value(expect_median))
        );
    }

    #[test]
    fn between_filter_uses_range_plan_and_is_correct() {
        let (mut gpu, t, a, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::Between {
                column: "a".into(),
                low: 40,
                high: 120,
            },
        );
        let out = execute(&mut gpu, &t, &q).unwrap();
        let expected = a.iter().filter(|&&v| (40..=120).contains(&v)).count() as u64;
        assert_eq!(out.matched, expected);
    }

    #[test]
    fn column_comparison_filter() {
        let (mut gpu, t, a, b) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::CompareColumns {
                left: "a".into(),
                op: Greater,
                right: "b".into(),
            },
        );
        let out = execute(&mut gpu, &t, &q).unwrap();
        let expected = (0..100).filter(|&i| a[i] > b[i]).count() as u64;
        assert_eq!(out.matched, expected);
    }

    #[test]
    fn kth_aggregates() {
        let (mut gpu, t, a, _) = setup();
        let q = Query::aggregate_all(vec![
            Aggregate::KthLargest("a".into(), 5),
            Aggregate::KthSmallest("a".into(), 5),
        ]);
        let out = execute(&mut gpu, &t, &q).unwrap();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(
            out.value("KTH_LARGEST(a, 5)"),
            Some(&AggValue::Value(sorted[sorted.len() - 5]))
        );
        assert_eq!(
            out.value("KTH_SMALLEST(a, 5)"),
            Some(&AggValue::Value(sorted[4]))
        );
    }

    #[test]
    fn aggregate_over_empty_selection_errors() {
        let (mut gpu, t, _, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Median("a".into())],
            BoolExpr::pred("a", Greater, 10_000),
        );
        assert!(matches!(
            execute(&mut gpu, &t, &q).unwrap_err(),
            EngineError::EmptyInput | EngineError::InvalidK { .. }
        ));
        // COUNT over an empty selection is fine.
        let q = Query::filtered(vec![Aggregate::Count], BoolExpr::pred("a", Greater, 10_000));
        assert_eq!(execute(&mut gpu, &t, &q).unwrap().matched, 0);
    }

    #[test]
    fn in_list_filter_executes() {
        let (mut gpu, t, a, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::InList {
                column: "a".into(),
                values: vec![0, 37, 74, 111],
            },
        );
        let out = execute(&mut gpu, &t, &q).unwrap();
        let expected = a.iter().filter(|&&v| [0, 37, 74, 111].contains(&v)).count() as u64;
        assert_eq!(out.matched, expected);

        // NOT IN is the complement.
        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::InList {
                column: "a".into(),
                values: vec![0, 37, 74, 111],
            }
            .not(),
        );
        assert_eq!(execute(&mut gpu, &t, &q).unwrap().matched, 100 - expected);

        // Empty IN list selects nothing; NOT of it selects everything.
        let empty = BoolExpr::InList {
            column: "a".into(),
            values: vec![],
        };
        let q = Query::filtered(vec![Aggregate::Count], empty.clone());
        assert_eq!(execute(&mut gpu, &t, &q).unwrap().matched, 0);
        let q = Query::filtered(vec![Aggregate::Count], empty.not());
        assert_eq!(execute(&mut gpu, &t, &q).unwrap().matched, 100);
    }

    #[test]
    fn percentile_aggregate_executes() {
        let (mut gpu, t, a, _) = setup();
        let q = Query::aggregate_all(vec![Aggregate::Percentile("a".into(), 0.9)]);
        let out = execute(&mut gpu, &t, &q).unwrap();
        let mut sorted = a.clone();
        sorted.sort_unstable();
        let rank = ((0.9 * 100.0f64).ceil() as usize).clamp(1, 100);
        assert_eq!(out.rows[0].1, AggValue::Value(sorted[rank - 1]));
    }

    #[test]
    fn explain_describes_plans() {
        let (_gpu, t, _, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("a".into())],
            BoolExpr::Between {
                column: "a".into(),
                low: 10,
                high: 50,
            },
        );
        let text = explain(&t, &q).unwrap();
        assert!(text.contains("RANGE depth-bounds"), "{text}");
        assert!(text.contains("Accumulator"), "{text}");

        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("a", GreaterEqual, 1).and(BoolExpr::pred("b", Less, 9)),
        );
        let text = explain(&t, &q).unwrap();
        assert!(text.contains("CONJUNCTION fast path"), "{text}");

        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::CompareColumns {
                left: "a".into(),
                op: Greater,
                right: "b".into(),
            },
        );
        let text = explain(&t, &q).unwrap();
        assert!(text.contains("SEMILINEAR"), "{text}");
    }

    #[test]
    fn execute_emits_per_stage_metrics() {
        let (mut gpu, t, _, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("a".into())],
            BoolExpr::Between {
                column: "a".into(),
                low: 40,
                high: 120,
            },
        );
        let out = execute(&mut gpu, &t, &q).unwrap();
        assert_eq!(out.metrics.len(), 3);
        assert_eq!(out.metrics[0].operator, "filter/range");
        assert_eq!(out.metrics[1].operator, "agg/COUNT(*)");
        assert_eq!(out.metrics[2].operator, "agg/SUM(a)");
        assert_eq!(out.metrics[0].input_records, 100);
        assert_eq!(out.metrics[1].input_records, out.matched);
        assert!(out.metrics[0].modeled_total_ns() > 0);
        // COUNT reuses the selection's occlusion count: no device work.
        assert_eq!(out.metrics[1].counters.draw_calls, 0);
        assert!(out.metrics[2].counters.draw_calls > 0);
        // Stage modeled times are a partition of the query's total.
        let stage_ns: u64 = out.metrics.iter().map(|r| r.modeled_total_ns()).sum();
        assert_eq!(stage_ns, out.timing.total());
    }

    #[test]
    fn inverted_range_still_emits_every_stage_record() {
        // The host-decided short circuit for `low > high` does no device
        // work, but EXPLAIN ANALYZE must not skip the stage: the filter
        // record is present with all-zero cost.
        let (mut gpu, t, _, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("a".into())],
            BoolExpr::Between {
                column: "a".into(),
                low: 120,
                high: 40,
            },
        );
        let out = execute(&mut gpu, &t, &q).unwrap();
        assert_eq!(out.matched, 0);
        assert_eq!(out.metrics.len(), 3);
        assert_eq!(out.metrics[0].operator, "filter/range");
        assert_eq!(out.metrics[0].modeled_total_ns(), 0);
        assert_eq!(out.metrics[0].counters.draw_calls, 0);
        assert_eq!(out.metrics[1].operator, "agg/COUNT(*)");
        assert_eq!(out.metrics[2].operator, "agg/SUM(a)");
        assert_eq!(out.rows[1].1, AggValue::Sum(0));
        let text = explain_analyze(&mut gpu, &t, &q).unwrap();
        assert!(text.contains("filter/range"), "{text}");
        assert!(text.contains("phases[-]"), "{text}");
    }

    #[test]
    fn explain_with_device_lists_pass_state_without_cost() {
        let (mut gpu, t, _, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::Between {
                column: "a".into(),
                low: 10,
                high: 50,
            },
        );
        let counters_before = gpu.stats().counters();
        let text = explain_with_device(&mut gpu, &t, &q).unwrap();
        // Headline unchanged, now followed by per-pass device state.
        assert!(text.contains("RANGE depth-bounds"), "{text}");
        assert!(text.contains("pass 1:"), "{text}");
        assert!(text.contains("bounds["), "{text}");
        assert!(text.contains("stencil("), "{text}");
        // The record-only dry run shades nothing and costs nothing.
        assert!(gpu.log().is_none());
        assert_eq!(gpu.stats().counters(), counters_before);

        // CNF plans list one pass per predicate plus the copies.
        let q = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100)),
        );
        let text = explain_with_device(&mut gpu, &t, &q).unwrap();
        assert!(text.contains("CONJUNCTION fast path"), "{text}");
        assert!(text.contains("depth("), "{text}");
    }

    #[test]
    fn validation_is_bit_passive_and_restores_device() {
        let q = Query::filtered(
            vec![
                Aggregate::Count,
                Aggregate::Sum("a".into()),
                Aggregate::Median("a".into()),
            ],
            BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100)),
        );
        let (mut gpu, t, _, _) = setup();
        let validated = execute_with_options(
            &mut gpu,
            &t,
            &q,
            ExecuteOptions {
                validate_plans: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(gpu.log().is_none(), "the executor's log must be detached");
        let (mut gpu, t, _, _) = setup();
        let plain = execute_with_options(
            &mut gpu,
            &t,
            &q,
            ExecuteOptions {
                validate_plans: false,
                ..Default::default()
            },
        )
        .unwrap();
        // Identical results, metrics and modeled timing either way.
        assert_eq!(validated, plain);
    }

    #[test]
    fn validation_piggybacks_on_caller_log() {
        let (mut gpu, t, _, _) = setup();
        gpu.attach_log(RecordMode::RecordAndExecute);
        let q = Query::filtered(vec![Aggregate::Count], BoolExpr::pred("a", Less, 100));
        execute_with_options(
            &mut gpu,
            &t,
            &q,
            ExecuteOptions {
                validate_plans: true,
                ..Default::default()
            },
        )
        .unwrap();
        // The caller's log stays attached and holds the plans.
        let plans = gpu
            .take_log()
            .expect("caller's log stays attached")
            .plans_since(0);
        assert!(
            plans.iter().any(|p| p.label.starts_with("filter/")),
            "{:?}",
            plans.iter().map(|p| &p.label).collect::<Vec<_>>()
        );
    }

    #[test]
    fn all_query_shapes_validate_cleanly() {
        // Every planner path, executed with validation forced on: the
        // real operators must produce lint-clean pass plans.
        let filters = [
            None,
            Some(BoolExpr::pred("a", Greater, 80)),
            Some(BoolExpr::Between {
                column: "a".into(),
                low: 40,
                high: 120,
            }),
            Some(BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100))),
            Some(BoolExpr::pred("a", Less, 30).or(BoolExpr::pred("b", Greater, 120))),
            Some(BoolExpr::CompareColumns {
                left: "a".into(),
                op: Greater,
                right: "b".into(),
            }),
        ];
        for filter in filters {
            let (mut gpu, t, _, _) = setup();
            let q = Query {
                aggregates: vec![Aggregate::Count, Aggregate::Sum("a".into())],
                filter: filter.clone(),
            };
            let out = execute_with_options(
                &mut gpu,
                &t,
                &q,
                ExecuteOptions {
                    validate_plans: true,
                    ..Default::default()
                },
            );
            assert!(out.is_ok(), "filter {filter:?}: {:?}", out.err());
        }
    }

    #[test]
    fn tracing_collects_nested_spans_per_stage() {
        let (mut gpu, t, _, _) = setup();
        let q = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("a".into())],
            BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100)),
        );
        let out = execute_with_options(
            &mut gpu,
            &t,
            &q,
            ExecuteOptions {
                validate_plans: false,
                trace: Some(TraceLevel::Passes),
                ..Default::default()
            },
        )
        .unwrap();
        assert!(gpu.log().is_none(), "the executor's log must be detached");
        let tree = out.trace.as_ref().expect("trace requested");
        assert_eq!(tree.roots.len(), 1);
        let query_span = &tree.roots[0];
        assert_eq!(query_span.kind, SpanKind::Query);
        // One stage per metrics record, one operator span per stage, in
        // record order.
        assert_eq!(query_span.children.len(), out.metrics.len());
        for (stage, record) in query_span.children.iter().zip(&out.metrics) {
            assert_eq!(stage.kind, SpanKind::Stage);
            assert_eq!(stage.children.len(), 1);
            let op = &stage.children[0];
            assert_eq!(op.kind, SpanKind::Operator);
            assert_eq!(op.name, record.operator);
            assert_eq!(op.counters, record.counters);
            // Span duration and record total are both deltas of the
            // integer modeled clock.
            assert_eq!(op.duration_ns(), record.modeled_total_ns());
        }
        // The selection's operator span contains device leaf spans.
        let sel_op = &query_span.children[0].children[0];
        assert!(
            sel_op.children.iter().any(|s| s.kind == SpanKind::Pass),
            "{:?}",
            sel_op.children.iter().map(|s| &s.name).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tracing_is_cost_transparent() {
        let q = Query::filtered(
            vec![Aggregate::Count, Aggregate::Median("a".into())],
            BoolExpr::pred("a", Less, 120),
        );
        let run = |trace: Option<TraceLevel>| {
            let (mut gpu, t, _, _) = setup();
            let mut out = execute_with_options(
                &mut gpu,
                &t,
                &q,
                ExecuteOptions {
                    validate_plans: false,
                    trace,
                    ..Default::default()
                },
            )
            .unwrap();
            out.trace = None;
            out
        };
        assert_eq!(run(None), run(Some(TraceLevel::Full)));
    }

    #[test]
    fn explain_analyze_renders_measured_plan_tree() {
        // The acceptance query: multi-predicate CNF filter + aggregates.
        let q = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("b".into())],
            BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100)),
        );
        let (mut gpu, t, _, _) = setup();
        let text = explain_analyze(&mut gpu, &t, &q).unwrap();
        assert!(text.contains("EXPLAIN ANALYZE t:"), "{text}");
        assert!(text.contains("SELECTION: CONJUNCTION"), "{text}");
        assert!(text.contains("[filter/cnf]"), "{text}");
        assert!(text.contains("[agg/SUM(b)]"), "{text}");
        assert!(text.contains("% of query"), "{text}");
        assert!(text.contains("passes:"), "{text}");
        assert!(text.contains("phases["), "{text}");

        // Per-node modeled times sum to the query's metrics-log total:
        // the header's total is exactly the sum of the per-stage totals.
        let (mut gpu, t, _, _) = setup();
        let out = execute_with_options(
            &mut gpu,
            &t,
            &q,
            ExecuteOptions {
                validate_plans: false,
                trace: Some(TraceLevel::Passes),
                ..Default::default()
            },
        )
        .unwrap();
        let mut log = crate::metrics::MetricsLog::new();
        for r in &out.metrics {
            log.push(r.clone());
        }
        let total = log.modeled_total_ns();
        assert!(total > 0);
        assert!(
            text.contains(&format!("modeled {} ms", fmt_ms(total))),
            "{text}"
        );
        for record in &out.metrics {
            assert!(
                text.contains(&format!(
                    "[{}] {} ms",
                    record.operator,
                    fmt_ms(record.modeled_total_ns())
                )),
                "{text}"
            );
        }

        // Determinism: a fresh device renders the identical report.
        let (mut gpu, t, _, _) = setup();
        assert_eq!(text, explain_analyze(&mut gpu, &t, &q).unwrap());
    }

    #[test]
    fn caller_owned_log_keeps_every_entry() {
        let (mut gpu, t, _, _) = setup();
        gpu.attach_log(RecordMode::RecordAndExecute);
        gpu.span_begin(SpanKind::Query, "workload");
        let q = Query::filtered(vec![Aggregate::Count], BoolExpr::pred("a", Less, 100));
        let options = ExecuteOptions {
            validate_plans: true,
            trace: Some(TraceLevel::Passes),
            ..Default::default()
        };
        let first = execute_with_options(&mut gpu, &t, &q, options).unwrap();
        let second = execute_with_options(&mut gpu, &t, &q, options).unwrap();
        gpu.span_end();
        // Each execution's trace is the tree of its own window of the log.
        let root = |out: &QueryOutput| {
            let tree = out.trace.as_ref().expect("trace requested");
            assert_eq!(tree.roots.len(), 1);
            assert_eq!(tree.roots[0].kind, SpanKind::Query);
            tree.roots[0].clone()
        };
        let windows = vec![root(&first), root(&second)];
        assert!(windows[1].start_ns > windows[0].start_ns);
        // The caller's log stays attached and holds every entry.
        let log = gpu.take_log().expect("caller's log stays attached");
        let whole = SpanTree::from_log(log.entries(), TraceLevel::Passes);
        assert_eq!(whole.roots.len(), 1);
        assert_eq!(whole.roots[0].name, "workload");
        assert_eq!(whole.roots[0].children, windows);
    }

    #[test]
    fn unknown_aggregate_column_rejected() {
        let (mut gpu, t, _, _) = setup();
        let q = Query::aggregate_all(vec![Aggregate::Sum("nope".into())]);
        assert!(matches!(
            execute(&mut gpu, &t, &q).unwrap_err(),
            EngineError::ColumnNotFound(_)
        ));
    }
}
