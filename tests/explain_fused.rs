//! Golden EXPLAIN ANALYZE snapshots for the pass-fusion optimizer.
//!
//! Each fixture pins the rendered report for the same query executed
//! unfused (`fuse_passes: false` — the literal multi-pass protocols of
//! §4.3) and fused (the default dispatch, which collapses the
//! stencil-clear into the first clause pass and elides redundant
//! `Compare` depth copies for clauses sharing an attribute). Because
//! every number in the report derives from the deterministic cost
//! model, the snapshots are byte-stable — any drift in pass structure,
//! modeled cost, or report formatting shows up as a diff here.
//!
//! Regenerate with `BLESS=1 cargo test --test explain_fused`.

mod common;

use common::{assert_golden, conjunction_query, golden_table as setup};
use gpudb::core::query::{execute_with_options, explain_analyze_with_options, QueryOutput};
use gpudb::prelude::*;
use gpudb::sim::span::SpanKind;

/// General CNF with a disjunctive clause: fusion collapses the clear
/// into the first (single-predicate) clause but must keep the per-clause
/// stencil algebra of Routine 4.3 for the disjunction.
fn general_cnf_query() -> Query {
    Query::filtered(
        vec![Aggregate::Count],
        BoolExpr::pred("a", CompareFunc::NotEqual, 30).and(
            BoolExpr::pred("a", CompareFunc::Less, 50).or(BoolExpr::pred(
                "b",
                CompareFunc::Greater,
                100,
            )),
        ),
    )
}

fn options(fuse: bool) -> ExecuteOptions {
    ExecuteOptions {
        fuse_passes: fuse,
        trace: Some(TraceLevel::Passes),
        ..ExecuteOptions::default()
    }
}

/// Execute with pass tracing and return the output plus the number of
/// pass-level spans under the selection operator.
fn run(query: &Query, fuse: bool) -> (QueryOutput, usize) {
    let (mut gpu, t) = setup();
    let out = execute_with_options(&mut gpu, &t, query, options(fuse)).unwrap();
    let tree = out.trace.clone().expect("tracing requested");
    let selection_passes = tree
        .spans_of_kind(SpanKind::Operator)
        .first()
        .map(|s| s.children.len())
        .unwrap_or(0);
    (out, selection_passes)
}

fn snapshot(name_prefix: &str, query: &Query) {
    for (suffix, fuse) in [("unfused", false), ("fused", true)] {
        let (mut gpu, t) = setup();
        let rendered = explain_analyze_with_options(&mut gpu, &t, query, options(fuse)).unwrap();
        assert_golden(&format!("{name_prefix}_{suffix}.txt"), &rendered);
    }
}

#[test]
fn conjunction_snapshots_pin_fusion() {
    snapshot("explain_cnf_conjunction", &conjunction_query());
}

#[test]
fn general_cnf_snapshots_pin_fusion() {
    snapshot("explain_cnf_general", &general_cnf_query());
}

#[test]
fn fusion_strictly_reduces_passes_and_preserves_results() {
    for query in [conjunction_query(), general_cnf_query()] {
        let (unfused, unfused_passes) = run(&query, false);
        let (fused, fused_passes) = run(&query, true);
        // Byte-identical results...
        assert_eq!(fused.matched, unfused.matched);
        assert_eq!(fused.rows, unfused.rows);
        // ...from strictly fewer passes and strictly fewer draw calls.
        assert!(
            fused_passes < unfused_passes,
            "fused selection ran {fused_passes} passes, unfused {unfused_passes}"
        );
        let draws = |o: &QueryOutput| o.metrics[0].counters.draw_calls;
        assert!(draws(&fused) < draws(&unfused));
        // ...and strictly lower modeled selection cost.
        assert!(fused.metrics[0].modeled_total_ns() < unfused.metrics[0].modeled_total_ns());
    }
}

#[test]
fn per_node_totals_sum_to_metrics_log_total() {
    for fuse in [false, true] {
        let (out, _) = run(&conjunction_query(), fuse);
        let log = gpudb::core::MetricsLog {
            records: out.metrics.clone(),
        };
        let per_node: u64 = out.metrics.iter().map(|r| r.modeled_total_ns()).sum();
        assert_eq!(per_node, log.modeled_total_ns());
        // The device clock is integer nanoseconds, so the nodes partition
        // the query's total exactly, and each node's total is the exact
        // sum of its phase parts: the rendered per-stage milliseconds add
        // up to the header.
        assert_eq!(per_node, out.timing.total());
        for record in &out.metrics {
            let parts = record.modeled_ns.upload
                + record.modeled_ns.copy_to_depth
                + record.modeled_ns.compute
                + record.modeled_ns.readback
                + record.modeled_ns.other;
            assert_eq!(parts, record.modeled_total_ns());
        }
    }
}
