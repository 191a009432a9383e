//! Differential proof of the sharded executor: at EVERY shard count the
//! merged result must be byte-identical to single-device execution and
//! to the CPU oracle — masks, matched counts, and every aggregate row —
//! and the modeled merged cost must decompose exactly into the slowest
//! shard (critical path) plus the deterministic merge cost.
//!
//! Zero tolerance: any divergence is a bug in the partition/merge
//! algebra (selection bitmaps concatenate; COUNT/SUM/AVG/MIN/MAX merge
//! algebraically; order statistics run the paper's Routine 4.5 bit
//! descent globally over per-shard occlusion counts).

mod common;

use common::{query_shapes, workload};
use gpudb::core::parallel::{merge_cost_ns, plan_shards};
use gpudb::core::query::QueryOutput;
use gpudb::prelude::*;
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 6] = [1, 2, 3, 4, 7, 16];

fn shard_opts(shards: usize) -> ShardOptions {
    ShardOptions {
        shards,
        ..ShardOptions::default()
    }
}

/// Single-device reference execution over the same host data.
fn single_device(host: &HostTable, query: &Query) -> Result<QueryOutput, EngineError> {
    let mut gpu = GpuTable::device_for(host.record_count(), 16);
    let table = host.upload(&mut gpu)?;
    execute(&mut gpu, &table, query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The headline contract: sharded == single-device == oracle, at
    // every shard count, for every query shape.
    #[test]
    fn sharded_output_is_byte_identical_to_single_device(
        seed in 0u64..10_000,
        shards in prop::sample::select(SHARD_COUNTS.to_vec()),
    ) {
        let host = workload(seed);
        for (shape, query) in query_shapes(seed).into_iter().enumerate() {
            let reference = single_device(&host, &query).expect("single-device");
            let oracle = gpudb::core::cpu_oracle::execute(&host, &query).expect("oracle");
            let sharded = execute_sharded(&host, &query, &shard_opts(shards))
                .expect("sharded execute");

            prop_assert_eq!(
                sharded.output.matched, reference.matched,
                "seed {} shape {} shards {}: matched diverged", seed, shape, shards
            );
            prop_assert_eq!(
                &sharded.output.rows, &reference.rows,
                "seed {} shape {} shards {}: rows diverged", seed, shape, shards
            );
            prop_assert!(
                oracle.agrees_with(sharded.output.matched, &sharded.output.rows),
                "seed {} shape {} shards {}: oracle disagrees", seed, shape, shards
            );

            // The concatenated mask equals the oracle's bitmap, record
            // for record.
            let bitmap = gpudb::core::cpu_oracle::filter_mask(&host, query.filter.as_ref())
                .expect("oracle mask");
            prop_assert_eq!(sharded.mask.len(), host.record_count());
            for (i, &m) in sharded.mask.iter().enumerate() {
                prop_assert_eq!(
                    m, bitmap.get(i),
                    "seed {} shape {} shards {}: mask bit {} diverged", seed, shape, shards, i
                );
            }
        }
    }

    // Modeled cost decomposition: merged = critical path + merge, with
    // the merge a pure function of shard and aggregate counts.
    #[test]
    fn merged_cost_is_critical_path_plus_merge(
        seed in 0u64..10_000,
        shards in prop::sample::select(SHARD_COUNTS.to_vec()),
    ) {
        let host = workload(seed);
        for query in query_shapes(seed) {
            let out = execute_sharded(&host, &query, &shard_opts(shards)).expect("sharded");
            let expected_shards = plan_shards(host.record_count(), shards).len();
            prop_assert_eq!(out.report.shards.len(), expected_shards);
            let critical = out.report.shards.iter().map(|s| s.modeled_ns).max().unwrap_or(0);
            prop_assert_eq!(
                out.report.merge_ns,
                merge_cost_ns(expected_shards, query.aggregates.len())
            );
            prop_assert_eq!(out.report.merged_ns, critical + out.report.merge_ns);
            // The output's modeled time is every shard's clock, exactly.
            let shard_ns: u64 = out.report.shards.iter().map(|s| s.modeled_ns).sum();
            prop_assert_eq!(out.output.timing.total(), shard_ns);
            // Clean runs stay on the GPU on every shard.
            for run in &out.report.shards {
                prop_assert_eq!(run.path, ResiliencePath::Gpu);
                prop_assert_eq!(run.attempts, 1);
            }
        }
    }

    // Error parity: invalid queries fail with exactly the error the
    // single-device executor reports, at every shard count.
    #[test]
    fn sharded_errors_match_single_device(
        seed in 0u64..10_000,
        shards in prop::sample::select(SHARD_COUNTS.to_vec()),
    ) {
        let host = workload(seed);
        let invalid = [
            // Unknown column in the filter.
            Query::filtered(
                vec![Aggregate::Count],
                BoolExpr::pred("missing", CompareFunc::Greater, 1),
            ),
            // Unknown column in an aggregate.
            Query::aggregate_all(vec![Aggregate::Sum("missing".into())]),
            // k out of range.
            Query::aggregate_all(vec![Aggregate::KthLargest("a".into(), 0)]),
            Query::aggregate_all(vec![Aggregate::KthSmallest("a".into(), common::RECORDS + 1)]),
            // Ordering: the earlier aggregate's error must win.
            Query::aggregate_all(vec![
                Aggregate::KthLargest("a".into(), 0),
                Aggregate::Sum("missing".into()),
            ]),
        ];
        for (i, query) in invalid.iter().enumerate() {
            let reference = single_device(&host, query).expect_err("single-device must fail");
            let sharded = execute_sharded(&host, query, &shard_opts(shards))
                .expect_err("sharded must fail");
            prop_assert_eq!(
                sharded.to_string(), reference.to_string(),
                "seed {} invalid-query {} shards {}: error diverged", seed, i, shards
            );
        }
    }
}

/// Deterministic replay: the same inputs produce byte-identical outputs,
/// reports, and metrics logs — OS thread scheduling must not leak in.
#[test]
fn sharded_replay_is_byte_deterministic() {
    let host = workload(23);
    let query = &query_shapes(23)[4];
    let run = || {
        let out = execute_sharded(&host, query, &shard_opts(7)).expect("sharded");
        let ops: Vec<String> = out
            .output
            .metrics
            .iter()
            .map(|m| m.operator.clone())
            .collect();
        (
            out.output.matched,
            out.output.rows.clone(),
            out.mask.clone(),
            out.report.merged_ns,
            out.report
                .shards
                .iter()
                .map(|s| (s.start, s.records, s.modeled_ns, s.attempts))
                .collect::<Vec<_>>(),
            ops,
        )
    };
    assert_eq!(run(), run());
}
