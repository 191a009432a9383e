//! Resilient query execution: retry, degradation, and CPU fallback.
//!
//! The paper's routines assume a device that answers every occlusion
//! query and returns every readback intact. Under the fault model of
//! `gpudb-sim` (see `docs/resilience.md`) that assumption breaks in
//! typed, classified ways — [`gpudb_sim::FaultClass`] — and the engine
//! turns each class into a rung of one recovery ladder instead of a
//! failed query. The ladder applies one rule per class to every device
//! step of a partition — the upload, the selection, the mask readback,
//! each aggregate op — whatever the phase:
//!
//! - **Transient** (lost occlusion query, corrupted readback): retry only
//!   the struck step, on the upload the partition already holds, up to
//!   [`RetryPolicy::max_attempts`] tries, separated by exponential
//!   backoff charged to the *modeled* clock ([`Gpu::charge_backoff`]) so
//!   recovery cost is deterministic and visible in metrics. A step whose
//!   tries run out wraps its last error in
//!   [`EngineError::RetriesExhausted`] and the partition answers on the
//!   CPU when the policy allows.
//! - **Resource** (video-memory allocation failure, which only the upload
//!   can meet): go out of core — [`RetryPolicy::oom_chunks`] chunk
//!   partitions, each on a fresh chunk-sized device of the same width,
//!   answer for the partition and merge exactly. The distributed
//!   Routine 4.5 descent covers the holistic aggregates (median, k-th,
//!   percentile) too. The rung's modeled cost adds the chunks' clocks;
//!   faults still pending on the struck device do not reach them.
//! - **Device** (reset, persistent faults): answer the rest of the
//!   statement on the CPU from the partition's read-back selection mask
//!   (or the filter evaluated on the host when the selection had not
//!   run), via [`crate::cpu_oracle`], whose operators agree with the GPU
//!   path result-for-result and error-for-error.
//! - **Logic** (bad query, invalid k, unknown column): never retried —
//!   the error is the answer, and it is identical on every rung.
//!
//! The ladder lives in one place, the partition coordinator of
//! [`crate::parallel`], and applies at every placement:
//! [`execute_resilient`] is one host-slice partition on the caller's
//! device, and every shard of [`crate::parallel::execute_sharded`] is
//! another; both report one [`ResilienceReport`] per partition. Every
//! recovery step emits a `resilience/*` [`MetricsRecord`] into the output
//! so EXPLAIN ANALYZE and the span timeline show what the engine actually
//! did. With no injected faults, `execute_resilient` produces the rows and
//! records of [`crate::query::execute_with_options`], byte for byte, plus
//! the `partition/upload` and `partition/readback` records of the data it
//! moves, which account exactly for the extra modeled time.

use crate::cpu_oracle::HostTable;
use crate::error::{EngineError, EngineResult};
use crate::metrics::MetricsRecord;
use crate::parallel::{self, Records, ShardedOutput};
use crate::query::ast::Query;
use crate::query::executor::ExecuteOptions;
use gpudb_sim::{Gpu, PhaseNanos, WorkCounters};
use std::borrow::Cow;

/// Knobs for the recovery ladder.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum GPU attempts for transient faults (including the first);
    /// clamped to at least 1.
    pub max_attempts: u32,
    /// Number of row partitions for the out-of-core degradation rung.
    pub oom_chunks: usize,
    /// Whether Device-class faults and exhausted retries may fall back
    /// to the CPU oracle. When `false` the typed error is returned
    /// instead — useful for tests and for callers that must not accept
    /// CPU latency silently.
    pub cpu_fallback: bool,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            oom_chunks: 4,
            cpu_fallback: true,
        }
    }
}

/// Which rung of the ladder produced the answer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ResiliencePath {
    /// The plain device path (possibly after retries).
    #[default]
    Gpu,
    /// Chunked out-of-core execution after an allocation failure.
    OutOfCore,
    /// The CPU oracle.
    Cpu,
}

/// One partition's ladder ledger: its row range, the rung it answered
/// on, what the ladder did, and what the partition cost. A shard's entry
/// in [`crate::parallel::ShardReport`] and a resilient statement's report
/// are this same ledger.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResilienceReport {
    /// First row of the partition's range (0 for a whole table).
    pub start: usize,
    /// Number of records in the partition.
    pub records: usize,
    /// Rung that produced the result.
    pub path: ResiliencePath,
    /// Tries of the selection step (1 when the first try succeeded, 0
    /// when the partition left the device before selecting). The mask
    /// readback is a step of its own: re-reading a corrupted mask is a
    /// retry, not another selection try.
    pub attempts: u32,
    /// Retries after transient faults, over every step.
    pub retries: u32,
    /// Total modeled backoff charged, in nanoseconds: always the sum of
    /// the `resilience/retry-backoff` records.
    pub backoff_ns: u64,
    /// Human-readable ladder steps, in order.
    pub degradations: Vec<String>,
    /// The partition's modeled time, nanoseconds: the sum of its metrics
    /// records plus, out of core, its chunks' records — what its device's
    /// clock advanced by plus its chunk devices' clocks.
    pub modeled_ns: u64,
}

/// Execute `query` against `host`'s data on `gpu`, riding the recovery
/// ladder as faults demand. The device table is uploaded from the host
/// copy once and freed when the statement ends; the host copy answers on
/// the CPU after a device reset. The output is a one-partition placement:
/// `report.shards` holds the one ledger, `mask` the selection mask the
/// ladder read back, and there is no merge. Its `timing` covers everything
/// charged to `gpu` (upload and mask readback included) plus any
/// out-of-core chunk devices, and its records sum to it, per phase.
pub fn execute_resilient(
    gpu: &mut Gpu,
    host: &HostTable,
    query: &Query,
    options: ExecuteOptions,
    policy: &RetryPolicy,
) -> EngineResult<ShardedOutput> {
    let records = Records::host(Cow::Borrowed(host), policy);
    parallel::execute_on_caller(gpu, records, query, options)
}

/// One transient-fault retry of the recovery ladder: the modeled pause and
/// its log line. The caller cuts the pause's record, under
/// [`RetryStep::OPERATOR`].
pub(crate) struct RetryStep {
    /// The nanoseconds the pause charged.
    pub(crate) pause_ns: u64,
    /// The ladder's log line for this retry.
    pub(crate) degradation: String,
}

impl RetryStep {
    /// The operator name of a retry's metrics record.
    pub(crate) const OPERATOR: &'static str = "resilience/retry-backoff";

    /// The pause before the first retry: 1 ms of modeled time.
    const BASE_NS: u64 = 1_000_000;

    /// Charge retry number `retry` (1-based) after `error` to `gpu`'s
    /// modeled clock. The pause is `1 ms · 2^(retry−1)`, saturating in
    /// `u64` and clamped where the clock saturates.
    pub(crate) fn charge(gpu: &mut Gpu, retry: u32, error: &EngineError) -> RetryStep {
        let growth = 1u64
            .checked_shl(retry.saturating_sub(1))
            .unwrap_or(u64::MAX);
        let pause_ns = gpu.charge_backoff(Self::BASE_NS.saturating_mul(growth));
        let pause_s = pause_ns as f64 * 1e-9;
        RetryStep {
            pause_ns,
            degradation: format!(
                "transient fault ({error}); retry {retry} after {pause_s:.6}s modeled backoff"
            ),
        }
    }
}

/// A metrics record for a step that did no device work: EXPLAIN ANALYZE
/// still shows the stage (satellite of the same guarantee that
/// const-empty selections emit a record) with all-zero cost.
pub(crate) fn marker_record(operator: &str, input_records: u64) -> MetricsRecord {
    MetricsRecord {
        operator: operator.to_string(),
        input_records,
        counters: WorkCounters::default(),
        modeled_ns: PhaseNanos::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu_oracle;
    use crate::parallel::{execute_sharded, ShardOptions};
    use crate::query::ast::{Aggregate, BoolExpr};
    use crate::query::executor;
    use crate::table::GpuTable;
    use gpudb_sim::CompareFunc;
    use gpudb_sim::{FaultEvent, FaultInjector, FaultKind, GpuError};

    fn host() -> HostTable {
        HostTable::new(
            "t",
            vec![
                ("a", (0u32..64).collect::<Vec<u32>>()),
                ("b", (0u32..64).map(|v| v * 3 % 97).collect::<Vec<u32>>()),
            ],
        )
        .unwrap()
    }

    fn count_sum_query() -> Query {
        Query::filtered(
            vec![
                Aggregate::Count,
                Aggregate::Sum("b".into()),
                Aggregate::Avg("b".into()),
                Aggregate::Min("b".into()),
                Aggregate::Max("b".into()),
            ],
            BoolExpr::pred("a", CompareFunc::GreaterEqual, 8).and(BoolExpr::pred(
                "a",
                CompareFunc::LessEqual,
                40,
            )),
        )
    }

    fn device(host: &HostTable) -> Gpu {
        GpuTable::device_for(host.record_count(), 8)
    }

    /// Run `query` on a fresh device struck by `faults`, each due at t=0;
    /// returns the run and the device.
    fn run_struck(
        host: &HostTable,
        query: &Query,
        faults: &[FaultKind],
        policy: &RetryPolicy,
    ) -> (EngineResult<ShardedOutput>, Gpu) {
        let mut gpu = device(host);
        let schedule = faults.iter().map(|&kind| FaultEvent { at_ns: 0, kind });
        gpu.attach_fault_injector(FaultInjector::with_schedule(schedule.collect()));
        let run = execute_resilient(&mut gpu, host, query, ExecuteOptions::default(), policy);
        (run, gpu)
    }

    /// [`run_struck`] under the default policy, expecting an answer.
    fn answer_struck(host: &HostTable, query: &Query, faults: &[FaultKind]) -> ShardedOutput {
        run_struck(host, query, faults, &RetryPolicy::default())
            .0
            .unwrap()
    }

    fn has_record(resilient: &ShardedOutput, operator: &str) -> bool {
        resilient
            .output
            .metrics
            .iter()
            .any(|m| m.operator == operator)
    }

    #[test]
    fn clean_run_takes_gpu_path_with_plain_metrics() {
        let host = host();
        let query = count_sum_query();
        let resilient = answer_struck(&host, &query, &[]);
        assert_eq!(resilient.report.shards[0].path, ResiliencePath::Gpu);
        assert_eq!(resilient.report.shards[0].attempts, 1);
        assert_eq!(resilient.report.shards[0].retries, 0);
        assert!(resilient.report.shards[0].degradations.is_empty());

        // The plain executor's records, byte for byte, plus the upload and
        // the mask readback, which account for the extra modeled time.
        let mut gpu2 = device(&host);
        let table = host.upload(&mut gpu2).unwrap();
        let plain =
            executor::execute_with_options(&mut gpu2, &table, &query, ExecuteOptions::default())
                .unwrap();
        assert_eq!(resilient.output.matched, plain.matched);
        assert_eq!(resilient.output.rows, plain.rows);
        let records = &resilient.output.metrics;
        let (upload, readback) = (&records[0], &records[2]);
        assert_eq!(upload.operator, "partition/upload");
        assert_eq!(readback.operator, "partition/readback");
        assert!(upload.modeled_ns.upload > 0 && readback.modeled_ns.readback > 0);
        let without: Vec<_> = [&records[1..2], &records[3..]].concat();
        assert_eq!(without, plain.metrics);
        let moved = upload.modeled_ns.plus(&readback.modeled_ns);
        assert_eq!(moved.plus(&plain.timing), resilient.output.timing);
    }

    #[test]
    fn transient_fault_retries_and_recovers() {
        let host = host();
        let query = count_sum_query();
        let resilient = answer_struck(&host, &query, &[FaultKind::OcclusionLoss]);
        assert_eq!(resilient.report.shards[0].path, ResiliencePath::Gpu);
        assert_eq!(resilient.report.shards[0].retries, 1);
        assert!(resilient.report.shards[0].backoff_ns > 0);
        assert!(has_record(&resilient, RetryStep::OPERATOR));

        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }

    #[test]
    fn overlong_backoff_saturates_the_clock_without_panicking() {
        let host = host();
        let mut gpu = device(&host);
        host.upload(&mut gpu).unwrap();
        let start = gpu.stats().modeled.total();
        assert!(start > 0);
        let error = EngineError::Gpu(GpuError::OcclusionQueryLost);
        let mut reported = 0u64;
        // 1 ms · 2^99 overflows u64 ns; the last two find the clock full.
        for retry in [100, u32::MAX, 1] {
            let before = gpu.stats().modeled.total();
            let pause_ns = RetryStep::charge(&mut gpu, retry, &error).pause_ns;
            assert_eq!(pause_ns, gpu.stats().modeled.total() - before);
            reported = reported.saturating_add(pause_ns);
        }
        assert_eq!(gpu.stats().modeled.total(), u64::MAX);
        assert_eq!(reported, u64::MAX - start);
    }

    #[test]
    fn exhausted_retries_surface_typed_error_without_fallback() {
        // More lost queries than the policy has attempts.
        let policy = RetryPolicy {
            cpu_fallback: false,
            ..RetryPolicy::default()
        };
        let lost = [FaultKind::OcclusionLoss; 64];
        let err = run_struck(&host(), &count_sum_query(), &lost, &policy)
            .0
            .unwrap_err();
        match err {
            EngineError::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, policy.max_attempts);
                assert!(matches!(
                    *last,
                    EngineError::Gpu(GpuError::OcclusionQueryLost)
                ));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn exhausted_retries_fall_back_to_cpu_with_parity() {
        let host = host();
        let query = count_sum_query();
        let resilient = answer_struck(&host, &query, &[FaultKind::OcclusionLoss; 64]);
        assert_eq!(resilient.report.shards[0].path, ResiliencePath::Cpu);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
        assert!(has_record(&resilient, "resilience/cpu-fallback"));
    }

    #[test]
    fn allocation_failure_degrades_to_out_of_core() {
        let host = host();
        let query = count_sum_query();
        let resilient = answer_struck(&host, &query, &[FaultKind::AllocationFail]);
        assert_eq!(resilient.report.shards[0].path, ResiliencePath::OutOfCore);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
        assert!(has_record(&resilient, "resilience/out-of-core"));
    }

    /// The out-of-core rung answers exactly as the CPU oracle does: the
    /// same rows, or the same typed error.
    fn assert_rung_matches_oracle(host: &HostTable, query: &Query, policy: &RetryPolicy) {
        match (
            run_struck(host, query, &[FaultKind::AllocationFail], policy).0,
            cpu_oracle::execute(host, query),
        ) {
            (Ok(r), Ok(o)) => {
                assert_eq!(
                    r.report.shards[0].path,
                    ResiliencePath::OutOfCore,
                    "{query:?}"
                );
                assert!(
                    o.agrees_with(r.output.matched, &r.output.rows),
                    "{query:?}: {:?} vs oracle {:?}",
                    r.output.rows,
                    o.rows
                );
            }
            (Err(e), Err(oe)) => assert_eq!(e.to_string(), oe.to_string(), "{query:?}"),
            (r, o) => panic!("{query:?}: rung {r:?} vs oracle {o:?}"),
        }
    }

    #[test]
    fn allocation_failure_with_holistic_aggregate_goes_out_of_core() {
        let host = host();
        for agg in [
            Aggregate::Median("b".into()),
            Aggregate::KthLargest("b".into(), 3),
            Aggregate::KthSmallest("b".into(), 5),
            Aggregate::Percentile("b".into(), 0.9),
        ] {
            for query in [
                Query::aggregate_all(vec![agg.clone()]),
                Query::filtered(
                    vec![Aggregate::Count, agg.clone()],
                    BoolExpr::pred("a", CompareFunc::Greater, 20),
                ),
            ] {
                let resilient = answer_struck(&host, &query, &[FaultKind::AllocationFail]);
                // The distributed descent answers on the device.
                assert_eq!(resilient.report.shards[0].path, ResiliencePath::OutOfCore);
                assert!(!has_record(&resilient, "resilience/cpu-fallback"));
                let oracle = cpu_oracle::execute(&host, &query).unwrap();
                assert!(
                    oracle.agrees_with(resilient.output.matched, &resilient.output.rows),
                    "{query:?}"
                );
            }
        }
    }

    fn every_aggregate() -> Vec<Aggregate> {
        vec![
            Aggregate::Count,
            Aggregate::Sum("b".into()),
            Aggregate::Avg("b".into()),
            Aggregate::Min("b".into()),
            Aggregate::Max("b".into()),
            Aggregate::Median("b".into()),
            Aggregate::KthLargest("a".into(), 2),
            Aggregate::KthSmallest("a".into(), 1),
            Aggregate::Percentile("a".into(), 0.25),
        ]
    }

    #[test]
    fn out_of_core_rung_on_empty_table_matches_oracle() {
        let host = HostTable::new("t", vec![("a", Vec::new()), ("b", Vec::new())]).unwrap();
        let policy = RetryPolicy::default();
        assert_rung_matches_oracle(
            &host,
            &Query::aggregate_all(vec![Aggregate::Count]),
            &policy,
        );
        // Each aggregate alone, so every typed error gets compared.
        for agg in every_aggregate() {
            assert_rung_matches_oracle(&host, &Query::aggregate_all(vec![agg]), &policy);
        }
    }

    #[test]
    fn out_of_core_rung_with_more_chunks_than_records_matches_oracle() {
        let host = HostTable::new("t", vec![("a", vec![9, 2, 7]), ("b", vec![4, 8, 1])]).unwrap();
        let policy = RetryPolicy {
            oom_chunks: 8,
            ..RetryPolicy::default()
        };
        let all = Query::aggregate_all(every_aggregate());
        assert_rung_matches_oracle(&host, &all, &policy);
        let filtered = Query::filtered(
            every_aggregate(),
            BoolExpr::pred("a", CompareFunc::Greater, 5),
        );
        assert_rung_matches_oracle(&host, &filtered, &policy);
        // A selection that empties some partitions but not others, and one
        // that empties all of them.
        for cut in [8, 100] {
            for agg in every_aggregate() {
                let query =
                    Query::filtered(vec![agg], BoolExpr::pred("a", CompareFunc::Greater, cut));
                assert_rung_matches_oracle(&host, &query, &policy);
            }
        }
    }

    #[test]
    fn out_of_core_cost_is_the_sum_of_partition_clocks() {
        let host = host();
        let query = Query::filtered(
            every_aggregate(),
            BoolExpr::pred("a", CompareFunc::Less, 50),
        );
        let policy = RetryPolicy::default();
        let (resilient, gpu) = run_struck(&host, &query, &[FaultKind::AllocationFail], &policy);
        let resilient = resilient.unwrap();
        assert_eq!(resilient.report.shards[0].path, ResiliencePath::OutOfCore);
        // The same partitions on the same chunk-sized devices, after what
        // the struck attempt charged to the caller's device.
        let partitions = execute_sharded(
            &host,
            &query,
            &ShardOptions {
                shards: policy.oom_chunks,
                device_width: gpu.width(),
                options: ExecuteOptions::default(),
                policy: policy.clone(),
            },
        )
        .unwrap();
        assert_eq!(partitions.report.shards.len(), policy.oom_chunks);
        let partition_ns: u64 = partitions.report.shards.iter().map(|s| s.modeled_ns).sum();
        assert!(partition_ns > 0);
        let caller_ns = gpu.stats().modeled.total();
        assert_eq!(resilient.output.timing.total(), caller_ns + partition_ns);
    }

    #[test]
    fn device_reset_falls_back_to_cpu() {
        let host = host();
        let query = count_sum_query();
        let resilient = answer_struck(&host, &query, &[FaultKind::DeviceReset]);
        assert_eq!(resilient.report.shards[0].path, ResiliencePath::Cpu);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }

    #[test]
    fn logic_errors_are_never_retried_or_masked() {
        let query = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("missing", CompareFunc::Equal, 1),
        );
        let err = run_struck(&host(), &query, &[], &RetryPolicy::default())
            .0
            .unwrap_err();
        assert!(matches!(err, EngineError::ColumnNotFound(_)));
    }

    #[test]
    fn out_of_core_matches_oracle_on_empty_selection() {
        let host = host();
        // Inverted range: zero matches; AVG must error identically.
        let query = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("b".into())],
            BoolExpr::pred("a", CompareFunc::GreaterEqual, 50).and(BoolExpr::pred(
                "a",
                CompareFunc::LessEqual,
                10,
            )),
        );
        let resilient = answer_struck(&host, &query, &[FaultKind::AllocationFail]);
        assert_eq!(resilient.output.matched, 0);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }
}
