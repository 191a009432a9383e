//! Shared deterministic workload and query generators for the
//! differential suites (`chaos`, `sharded_equivalence`). Every
//! generator is a pure function of its seed so failures replay
//! byte-for-byte; the chaos matrix is the `chaos` binary's own
//! ([`gpudb_bench::chaos`]).

#![allow(dead_code)] // each test binary uses its own subset

use gpudb::prelude::*;
#[allow(unused_imports)] // each test binary uses its own subset
pub use gpudb_bench::chaos::{injector_for, query_shapes, workload, RECORDS, SHAPES};

/// The 120-record, two-column table the golden snapshots run on.
pub fn golden_table() -> (Gpu, GpuTable) {
    let a: Vec<u32> = (0..120u32).map(|i| (i * 37) % 200).collect();
    let b: Vec<u32> = (0..120u32).map(|i| (i * 11 + 3) % 150).collect();
    let mut gpu = GpuTable::device_for(120, 10);
    let t = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("b", &b)]).unwrap();
    (gpu, t)
}

/// A three-clause conjunction over one attribute: too many clauses for
/// the range recognizer, so it plans as CNF — the shape where fusion
/// both collapses the clear and elides two of the three depth copies.
pub fn conjunction_query() -> Query {
    Query::filtered(
        vec![Aggregate::Count, Aggregate::Sum("b".into())],
        BoolExpr::pred("a", CompareFunc::Greater, 20)
            .and(BoolExpr::pred("a", CompareFunc::Less, 180))
            .and(BoolExpr::pred("a", CompareFunc::NotEqual, 77)),
    )
}

/// Compare `rendered` against `tests/golden/{name}`, or rewrite the file
/// under `BLESS=1`.
pub fn assert_golden(name: &str, rendered: &str) {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}); run with BLESS=1"));
    assert_eq!(
        rendered, expected,
        "output drifted from golden {name}; run with BLESS=1 if intended"
    );
}
