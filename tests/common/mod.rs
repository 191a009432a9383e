//! Shared deterministic workload and query generators for the
//! differential suites (`chaos`, `sharded_equivalence`). Every
//! generator is a pure function of its seed so failures replay
//! byte-for-byte.

#![allow(dead_code)] // each test binary uses its own subset

use gpudb::prelude::*;

/// SplitMix64, for deterministic workload/query generation independent
/// of the fault schedule's own PRNG stream.
pub struct Mix(pub u64);

impl Mix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

pub const RECORDS: usize = 256;

/// A small three-column workload, deterministic in the seed.
pub fn workload(seed: u64) -> HostTable {
    let mut rng = Mix(seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
    let a: Vec<u32> = (0..RECORDS).map(|_| rng.below(1 << 16) as u32).collect();
    let b: Vec<u32> = (0..RECORDS).map(|_| rng.below(1 << 12) as u32).collect();
    let c: Vec<u32> = (0..RECORDS).map(|_| rng.below(97) as u32).collect();
    HostTable::new("chaos", vec![("a", a), ("b", b), ("c", c)]).expect("valid workload")
}

/// The six query shapes of the acceptance criteria: simple predicate,
/// range (sometimes inverted and therefore empty), CNF, semi-linear,
/// k-th order statistics, and the accumulator aggregates.
pub fn query_shapes(seed: u64) -> Vec<Query> {
    let mut rng = Mix(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) | 1);
    let cut = rng.below(1 << 16) as u32;
    let lo = rng.below(1 << 16) as u32;
    let hi = rng.below(1 << 16) as u32;
    let k = 1 + rng.below(32) as usize;
    vec![
        // 1. Predicate (Routine 4.1).
        Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("a", CompareFunc::Greater, cut),
        ),
        // 2. Range (Routine 4.4) — inverted for roughly half the seeds.
        Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("b".into())],
            BoolExpr::pred("a", CompareFunc::GreaterEqual, lo).and(BoolExpr::pred(
                "a",
                CompareFunc::LessEqual,
                hi,
            )),
        ),
        // 3. CNF (Routine 4.3).
        Query::filtered(
            vec![Aggregate::Count, Aggregate::Max("a".into())],
            BoolExpr::pred("b", CompareFunc::Less, 2048)
                .or(BoolExpr::pred("c", CompareFunc::GreaterEqual, 48))
                .and(BoolExpr::pred("a", CompareFunc::NotEqual, cut)),
        ),
        // 4. Semi-linear (Routine 4.2).
        Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::SemiLinear {
                terms: vec![("a".into(), 1.0), ("b".into(), -2.0)],
                op: CompareFunc::Greater,
                constant: cut as f32 / 3.0,
            },
        ),
        // 5. Order statistics (Routine 4.5) — holistic, so the OOM rung
        // answers them through the distributed bit descent.
        Query::filtered(
            vec![
                Aggregate::Median("a".into()),
                Aggregate::KthLargest("b".into(), k),
            ],
            BoolExpr::pred("c", CompareFunc::Less, 80),
        ),
        // 6. Accumulator (Routine 4.6).
        Query::filtered(
            vec![
                Aggregate::Sum("a".into()),
                Aggregate::Avg("b".into()),
                Aggregate::Min("b".into()),
            ],
            BoolExpr::pred("c", CompareFunc::GreaterEqual, 20),
        ),
    ]
}

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
