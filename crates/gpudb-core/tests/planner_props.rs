//! Property-based tests for the query planner and executor: any boolean
//! filter expression over simple predicates must select exactly the
//! records a direct row-by-row evaluation of the expression selects —
//! regardless of which physical plan (CNF, conjunction fast path, or
//! depth-bounds range) the planner chooses. And no text, however
//! malformed, makes the parser or the CPU oracle panic.

use gpudb_core::cpu_oracle::{self, HostTable};
use gpudb_core::query::{
    execute, parse, plan_selection, Aggregate, BoolExpr, Query, SelectionPlan,
};
use gpudb_core::table::GpuTable;
use gpudb_sim::CompareFunc;
use proptest::prelude::*;

const OPS: [CompareFunc; 6] = [
    CompareFunc::Less,
    CompareFunc::LessEqual,
    CompareFunc::Greater,
    CompareFunc::GreaterEqual,
    CompareFunc::Equal,
    CompareFunc::NotEqual,
];

const COLUMNS: [&str; 2] = ["a", "b"];

/// Host-side truth semantics of a filter expression.
fn eval_expr(expr: &BoolExpr, row: &[u32]) -> bool {
    match expr {
        BoolExpr::Pred {
            column,
            op,
            constant,
        } => {
            let idx = COLUMNS.iter().position(|c| c == column).unwrap();
            op.eval(row[idx], *constant)
        }
        BoolExpr::Between { column, low, high } => {
            let idx = COLUMNS.iter().position(|c| c == column).unwrap();
            row[idx] >= *low && row[idx] <= *high
        }
        BoolExpr::And(x, y) => eval_expr(x, row) && eval_expr(y, row),
        BoolExpr::Or(x, y) => eval_expr(x, row) || eval_expr(y, row),
        BoolExpr::Not(x) => !eval_expr(x, row),
        other => unreachable!("not generated: {other:?}"),
    }
}

/// Random boolean expression trees over predicates and BETWEENs.
fn expr_strategy() -> impl Strategy<Value = BoolExpr> {
    let leaf = prop_oneof![
        (0usize..2, 0usize..6, 0u32..64).prop_map(|(col, op, c)| BoolExpr::Pred {
            column: COLUMNS[col].to_string(),
            op: OPS[op],
            constant: c,
        }),
        (0usize..2, 0u32..64, 0u32..64).prop_map(|(col, x, y)| BoolExpr::Between {
            column: COLUMNS[col].to_string(),
            low: x.min(y),
            high: x.max(y),
        }),
    ];
    leaf.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| BoolExpr::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|a| BoolExpr::Not(Box::new(a))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_execution_matches_row_semantics(
        col_a in prop::collection::vec(0u32..64, 30..60),
        col_b in prop::collection::vec(0u32..64, 30..60),
        expr in expr_strategy(),
    ) {
        let n = col_a.len().min(col_b.len());
        let a = &col_a[..n];
        let b = &col_b[..n];
        let mut gpu = GpuTable::device_for(n, 8);
        let table = GpuTable::upload(&mut gpu, "t", &[("a", a), ("b", b)]).unwrap();

        let query = Query::filtered(vec![Aggregate::Count], expr.clone());
        let result = execute(&mut gpu, &table, &query);
        let out = match result {
            Ok(out) => out,
            // The only legitimate failure is the CNF clause-explosion guard.
            Err(gpudb_core::EngineError::InvalidQuery(msg)) => {
                prop_assert!(msg.contains("clauses"), "unexpected InvalidQuery: {}", msg);
                return Ok(());
            }
            Err(other) => return Err(TestCaseError::fail(format!("{other}"))),
        };

        let expected = (0..n)
            .filter(|&i| eval_expr(&expr, &[a[i], b[i]]))
            .count() as u64;
        prop_assert_eq!(out.matched, expected, "expr: {:?}", expr);
    }

    #[test]
    fn range_patterns_get_range_plans(
        col in 0usize..2,
        x in 0u32..1000,
        y in 0u32..1000,
    ) {
        let (low, high) = (x.min(y), x.max(y));
        let values: Vec<u32> = (0..20).collect();
        let mut gpu = GpuTable::device_for(20, 5);
        let table = GpuTable::upload(&mut gpu, "t", &[("a", &values), ("b", &values)]).unwrap();

        // Both spellings must produce a Range plan on the right column.
        let between = BoolExpr::Between {
            column: COLUMNS[col].to_string(),
            low,
            high,
        };
        let spelled = BoolExpr::pred(COLUMNS[col], CompareFunc::GreaterEqual, low)
            .and(BoolExpr::pred(COLUMNS[col], CompareFunc::LessEqual, high));
        for expr in [between, spelled] {
            match plan_selection(&table, Some(&expr)).unwrap() {
                SelectionPlan::Range { column, low: l, high: h } => {
                    prop_assert_eq!(column, col);
                    prop_assert_eq!(l, low);
                    prop_assert_eq!(h, high);
                }
                other => prop_assert!(false, "expected Range plan, got {:?}", other),
            }
        }
    }
}

/// The parser's own vocabulary: keywords, operators, punctuation, the
/// host table's columns and numbers at the encoding's edges (2^24 - 1,
/// 2^24, 2^32 - 1, 2^32), negatives and decimals.
const TOKENS: [&str; 46] = [
    "EXPLAIN",
    "ANALYZE",
    "SELECT",
    "FROM",
    "WHERE",
    "COUNT",
    "SUM",
    "AVG",
    "MIN",
    "MAX",
    "MEDIAN",
    "PERCENTILE",
    "KTH_LARGEST",
    "KTH_SMALLEST",
    "OR",
    "AND",
    "NOT",
    "IN",
    "BETWEEN",
    "=",
    "<>",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    "(",
    ")",
    ",",
    "*",
    "t",
    "a",
    "b",
    "c",
    "0",
    "16777215",
    "16777216",
    "4294967295",
    "4294967296",
    "-1",
    "-16777216",
    "0.5",
    "1.0",
    "2.5",
    "0.",
    "1.2.3",
];

/// Aggregates over the host table's columns, ranks and fractions at the
/// same edges.
const AGGREGATES: [&str; 10] = [
    "COUNT(*)",
    "SUM(a)",
    "AVG(b)",
    "MIN(c)",
    "MAX(a)",
    "MEDIAN(b)",
    "PERCENTILE(c, 0.5)",
    "PERCENTILE(a, 4294967296)",
    "KTH_LARGEST(a, 0)",
    "KTH_SMALLEST(b, 4294967296)",
];

/// Whole filter atoms, so that soup often parses.
const ATOMS: [&str; 7] = [
    "a < 16777216",
    "b >= 4294967295",
    "c = 0",
    "a <> b",
    "b BETWEEN 16777215 AND 0",
    "c IN (0, 16777215, 4294967295)",
    "a != c",
];

/// A small three-column host table with values at both ends of the
/// 24-bit encoding.
fn host_table() -> HostTable {
    let max = (1u32 << 24) - 1;
    HostTable::new(
        "t",
        vec![
            ("a", vec![0, 1, 2, 3, max, 7, 7, 100]),
            ("b", vec![max, 0, 5, 5, 9, 1, 2, 3]),
            ("c", vec![4, 4, 4, 0, 0, max, 8, 16]),
        ],
    )
    .unwrap()
}

/// Parse `text`; a statement that parses must run on the CPU oracle.
/// Either step may fail, but only with a typed error: a panic fails the
/// test.
fn parse_and_run(text: &str) {
    if let Ok(statement) = parse(text) {
        let _ = cpu_oracle::execute(&host_table(), &statement.query);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics(input in "\\PC{0,200}") {
        parse_and_run(&input);
    }

    #[test]
    fn parser_never_panics_on_token_soup(
        raw in prop::collection::vec(0usize..TOKENS.len(), 0..40),
        aggregates in prop::collection::vec(0usize..AGGREGATES.len(), 1..4),
        filter in prop::collection::vec((0usize..8, 0usize..ATOMS.len(), 0usize..TOKENS.len()), 1..8),
    ) {
        // Pure soup, then soup in a statement's skeleton: atoms joined by
        // AND or OR, some negated or opening or closing a parenthesis,
        // one in eight replaced by a raw token.
        let words: Vec<&str> = raw.iter().map(|&i| TOKENS[i]).collect();
        parse_and_run(&words.join(" "));
        let aggregates: Vec<&str> = aggregates.iter().map(|&i| AGGREGATES[i]).collect();
        let mut text = format!("SELECT {} FROM t WHERE", aggregates.join(", "));
        for (n, &(kind, atom, token)) in filter.iter().enumerate() {
            if n > 0 {
                text.push_str(if token % 2 == 0 { " AND" } else { " OR" });
            }
            let atom = ATOMS[atom];
            text.push_str(&match kind {
                0 => format!(" {}", TOKENS[token]),
                1 => format!(" NOT {atom}"),
                2 => format!(" ({atom}"),
                3 => format!(" {atom})"),
                _ => format!(" {atom}"),
            });
        }
        parse_and_run(&text);
    }
}
