//! The chaos matrix: the seed → workload → query-shape → fault-schedule
//! mapping that the `chaos` binary and the repository's differential
//! suites (`tests/chaos.rs`, `tests/sharded_equivalence.rs`,
//! `tests/lint_fixtures.rs`) share. Every generator is a pure function of
//! its seed, so a failure replays byte-for-byte.

use gpudb_core::cpu_oracle::HostTable;
use gpudb_core::metrics::phase_sum;
use gpudb_core::query::ast::{Aggregate, BoolExpr, Query};
use gpudb_core::query::QueryOutput;
use gpudb_sim::{CompareFunc, FaultInjector};

/// SplitMix64, for deterministic workload and query generation
/// independent of the fault schedule's own PRNG stream.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Records in every chaos workload.
pub const RECORDS: usize = 256;

/// Names of the [`query_shapes`], in order.
pub const SHAPES: [&str; 6] = [
    "predicate",
    "range",
    "cnf",
    "semilinear",
    "kth",
    "accumulator",
];

/// A small three-column workload, deterministic in the seed.
pub fn workload(seed: u64) -> HostTable {
    let mut rng = Mix(seed.wrapping_mul(0xA076_1D64_78BD_642F) | 1);
    let a: Vec<u32> = (0..RECORDS).map(|_| rng.below(1 << 16) as u32).collect();
    let b: Vec<u32> = (0..RECORDS).map(|_| rng.below(1 << 12) as u32).collect();
    let c: Vec<u32> = (0..RECORDS).map(|_| rng.below(97) as u32).collect();
    HostTable::new("chaos", vec![("a", a), ("b", b), ("c", c)]).expect("valid workload")
}

/// The six query shapes of the chaos contract: simple predicate, range
/// (sometimes inverted and therefore empty), CNF, semi-linear, k-th order
/// statistics, and the accumulator aggregates.
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
        // 5. Order statistics (Routine 4.5) — holistic, so the out-of-core
        // rung answers them through the distributed bit descent.
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

/// The seed's fault schedule: 1–6 events, so single-fault schedules let a
/// degradation rung finish cleanly and dense ones cascade to the CPU.
/// Even seeds strike immediately (every event at t=0); odd seeds spread
/// events over 2 ms of modeled time, so faults land mid-query.
pub fn injector_for(seed: u64) -> FaultInjector {
    let horizon = if seed.is_multiple_of(2) { 0 } else { 2_000_000 };
    let events = 1 + (seed % 6) as usize;
    FaultInjector::from_seed(seed, events, horizon)
}

/// The records of a host-slice partition's data movement: its upload to
/// the device and its selection mask's readback.
pub const DATA_MOVEMENT: [&str; 2] = ["partition/upload", "partition/readback"];

/// Check that a fault-free host-slice statement (resilient, or a one-shard
/// placement less its `parallel/merge` marker) is the resident statement
/// plus its data movement: its records without the [`DATA_MOVEMENT`]
/// records equal the resident records byte for byte, and those records
/// sum, per phase, to the difference in `timing`.
pub fn host_is_resident_plus_data_movement(
    host: &QueryOutput,
    resident: &QueryOutput,
) -> Result<(), String> {
    let (moved, kept): (Vec<_>, Vec<_>) = host
        .metrics
        .iter()
        .cloned()
        .partition(|r| DATA_MOVEMENT.contains(&r.operator.as_str()));
    if kept != resident.metrics {
        return Err(format!(
            "records less data movement {kept:?} differ from the resident records {:?}",
            resident.metrics
        ));
    }
    let timing = phase_sum(&moved).plus(&resident.timing);
    if timing != host.timing {
        return Err(format!(
            "data movement {moved:?} plus the resident timing {:?} is {timing:?}, not the \
             host-slice timing {:?}",
            resident.timing, host.timing
        ));
    }
    Ok(())
}
