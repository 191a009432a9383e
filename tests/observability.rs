//! End-to-end observability coverage (gpudb-obs).
//!
//! Every plan-stage kind — predicate (single-clause CNF), range, CNF, DNF,
//! semi-linear, k-th/median, and accumulator aggregates — must emit exactly
//! one [`gpudb::core::metrics::MetricsRecord`] with a non-empty operator
//! tag, and the span tree built by [`gpudb::obs::SpanTree::from_log`] must
//! nest exactly one operator span per record under its stage.

mod common;

use gpudb::core::query::QueryOutput;
use gpudb::obs::chrome;
use gpudb::prelude::*;
use gpudb::sim::span::SpanKind;

fn setup() -> (Gpu, GpuTable) {
    let a: Vec<u32> = (0..128u32).map(|i| (i * 37) % 200).collect();
    let b: Vec<u32> = (0..128u32).map(|i| (i * 11 + 3) % 150).collect();
    let mut gpu = GpuTable::device_for(128, 10);
    let t = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("b", &b)]).unwrap();
    (gpu, t)
}

/// Execute `q` with pass-level tracing and check the record/span contract.
fn run_and_check(q: &Query, expected_operators: &[&str]) -> QueryOutput {
    let (mut gpu, t) = setup();
    let out = execute_with_options(
        &mut gpu,
        &t,
        q,
        ExecuteOptions {
            trace: Some(TraceLevel::Passes),
            ..ExecuteOptions::default()
        },
    )
    .unwrap();

    // Exactly one MetricsRecord per stage, tagged as expected.
    let operators: Vec<&str> = out.metrics.iter().map(|r| r.operator.as_str()).collect();
    assert_eq!(operators, expected_operators);
    for record in &out.metrics {
        assert!(!record.operator.is_empty());
    }

    // The span tree nests one operator span per record: a single query
    // root whose stages each wrap exactly one operator span.
    let tree = out.trace.as_ref().expect("tracing was requested");
    assert_eq!(tree.roots.len(), 1);
    let query_span = &tree.roots[0];
    assert_eq!(query_span.kind, SpanKind::Query);
    assert_eq!(query_span.children.len(), out.metrics.len());
    for (stage, record) in query_span.children.iter().zip(&out.metrics) {
        assert_eq!(stage.kind, SpanKind::Stage);
        let ops: Vec<&gpudb::obs::Span> = stage
            .children
            .iter()
            .filter(|s| s.kind == SpanKind::Operator)
            .collect();
        assert_eq!(ops.len(), 1, "one operator span per record");
        assert_eq!(ops[0].name, record.operator);
    }
    assert_eq!(
        tree.spans_of_kind(SpanKind::Operator).len(),
        out.metrics.len()
    );
    out
}

#[test]
fn predicate_stage_is_observed() {
    // A single non-range-convertible predicate stays a one-clause CNF:
    // the paper's plain stencil-predicate pass.
    use gpudb::sim::CompareFunc::NotEqual;
    let q = Query::filtered(vec![Aggregate::Count], BoolExpr::pred("a", NotEqual, 50));
    run_and_check(&q, &["filter/cnf", "agg/COUNT(*)"]);
}

#[test]
fn range_stage_is_observed() {
    let q = Query::filtered(
        vec![Aggregate::Count],
        BoolExpr::Between {
            column: "a".into(),
            low: 40,
            high: 120,
        },
    );
    run_and_check(&q, &["filter/range", "agg/COUNT(*)"]);
}

#[test]
fn cnf_stage_is_observed() {
    use gpudb::sim::CompareFunc::{GreaterEqual, Less};
    let q = Query::filtered(
        vec![Aggregate::Count],
        BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100)),
    );
    run_and_check(&q, &["filter/cnf", "agg/COUNT(*)"]);
}

#[test]
fn dnf_stage_is_observed() {
    use gpudb::sim::CompareFunc::Less;
    // (9 conjuncts) OR (9 conjuncts): CNF distribution would explode past
    // the planner's clause budget, so it falls back to a 2-term DNF.
    let conj = |base: u32| {
        let mut e = BoolExpr::pred("a", Less, base);
        for i in 1..9 {
            e = e.and(BoolExpr::pred("a", Less, base + i));
        }
        e
    };
    let q = Query::filtered(vec![Aggregate::Count], conj(50).or(conj(150)));
    run_and_check(&q, &["filter/dnf", "agg/COUNT(*)"]);
}

#[test]
fn semilinear_stage_is_observed() {
    use gpudb::sim::CompareFunc::Less;
    let q = Query::filtered(
        vec![Aggregate::Count],
        BoolExpr::CompareColumns {
            left: "a".into(),
            op: Less,
            right: "b".into(),
        },
    );
    run_and_check(&q, &["filter/semilinear", "agg/COUNT(*)"]);
}

#[test]
fn kth_and_median_stages_are_observed() {
    let q = Query::aggregate_all(vec![
        Aggregate::Median("a".into()),
        Aggregate::KthLargest("b".into(), 3),
    ]);
    run_and_check(
        &q,
        &["filter/all", "agg/MEDIAN(a)", "agg/KTH_LARGEST(b, 3)"],
    );
}

#[test]
fn accumulator_stage_is_observed() {
    let q = Query::aggregate_all(vec![Aggregate::Sum("a".into()), Aggregate::Avg("b".into())]);
    run_and_check(&q, &["filter/all", "agg/SUM(a)", "agg/AVG(b)"]);
}

#[test]
fn traces_are_byte_deterministic_across_runs() {
    use gpudb::sim::CompareFunc::{GreaterEqual, Less};
    let q = Query::filtered(
        vec![Aggregate::Count, Aggregate::Sum("b".into())],
        BoolExpr::pred("a", GreaterEqual, 50).and(BoolExpr::pred("b", Less, 100)),
    );
    let render = || {
        let out = run_and_check(&q, &["filter/cnf", "agg/COUNT(*)", "agg/SUM(b)"]);
        let tree = out.trace.unwrap();
        (
            chrome::trace_json(&tree),
            gpudb::obs::flame::folded(&tree),
            gpudb::obs::jsonl::spans(&tree),
        )
    };
    assert_eq!(render(), render());
}

/// The Chrome trace of the fused conjunction query at `Full` detail —
/// spans, counters and instant events — is pinned byte for byte.
#[test]
fn fused_conjunction_trace_matches_golden() {
    let (mut gpu, t) = common::golden_table();
    let out = execute_with_options(
        &mut gpu,
        &t,
        &common::conjunction_query(),
        ExecuteOptions {
            trace: Some(TraceLevel::Full),
            fuse_passes: true,
            ..ExecuteOptions::default()
        },
    )
    .unwrap();
    let tree = out.trace.expect("tracing was requested");
    common::assert_golden(
        "trace_cnf_conjunction_full.json",
        &chrome::trace_json(&tree),
    );
}
