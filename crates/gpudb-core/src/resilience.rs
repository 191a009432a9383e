//! Resilient query execution: retry, degradation, and CPU fallback.
//!
//! The paper's routines assume a device that answers every occlusion
//! query and returns every readback intact. Under the fault model of
//! `gpudb-sim` (see `docs/resilience.md`) that assumption breaks in
//! typed, classified ways — [`gpudb_sim::FaultClass`] — and this module
//! turns each class into a recovery ladder instead of a failed query:
//!
//! - **Transient** (lost occlusion query, corrupted readback): retry the
//!   whole query up to [`RetryPolicy::max_attempts`] times, separated by
//!   exponential backoff charged to the *modeled* clock
//!   ([`Gpu::charge_backoff`]) so recovery cost is deterministic and
//!   visible in metrics. Exhausted retries wrap the last error in
//!   [`EngineError::RetriesExhausted`].
//! - **Resource** (video-memory allocation failure): degrade to
//!   out-of-core execution — the partition coordinator of
//!   [`crate::parallel`] re-runs the query over
//!   [`RetryPolicy::oom_chunks`] row partitions, each on a fresh
//!   chunk-sized device of the caller's width, and merges them exactly.
//!   Its distributed Routine 4.5 descent covers the holistic aggregates
//!   (median, k-th, percentile) too. The rung's modeled cost is the sum
//!   of the partitions' clocks; faults still pending on the caller's
//!   device do not reach it.
//! - **Device** (reset, persistent faults): answer on the CPU via
//!   [`crate::cpu_oracle`], whose operators route through `gpudb-cpu`'s
//!   optimized baselines and agree with the GPU path result-for-result
//!   and error-for-error.
//! - **Logic** (bad query, invalid k, unknown column): never retried —
//!   the error is the answer, and it is identical on every rung.
//!
//! Every recovery step emits a `resilience/*` [`MetricsRecord`] into the
//! output so EXPLAIN ANALYZE and the span timeline show what the engine
//! actually did. With no injected faults, `execute_resilient` takes the
//! plain GPU path and produces byte-identical records to
//! [`executor::execute_with_options`] — the perf harness's determinism
//! gate stays intact.

use crate::cpu_oracle::{self, HostTable};
use crate::error::{EngineError, EngineResult};
use crate::metrics::{self, MetricsRecord};
use crate::parallel::{execute_sharded, ShardOptions};
use crate::query::ast::Query;
use crate::query::executor::{self, ExecuteOptions, QueryOutput};
use gpudb_sim::{FaultClass, Gpu, PhaseNanos, WorkCounters};

/// Knobs for the recovery ladder.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum GPU attempts for transient faults (including the first);
    /// clamped to at least 1.
    pub max_attempts: u32,
    /// Modeled backoff before the first retry, in nanoseconds.
    pub base_backoff_ns: u64,
    /// Backoff growth factor per retry.
    pub multiplier: f64,
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
            base_backoff_ns: 1_000_000,
            multiplier: 2.0,
            oom_chunks: 4,
            cpu_fallback: true,
        }
    }
}

/// Which rung of the ladder produced the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResiliencePath {
    /// The plain device path (possibly after retries).
    Gpu,
    /// Chunked out-of-core execution after an allocation failure.
    OutOfCore,
    /// The CPU oracle.
    Cpu,
}

/// What the ladder did to produce the answer.
#[derive(Debug, Clone)]
pub struct ResilienceReport {
    /// Rung that produced the result.
    pub path: ResiliencePath,
    /// GPU attempts made (1 when the first try succeeded).
    pub attempts: u32,
    /// Retries after transient faults.
    pub retries: u32,
    /// Total modeled backoff charged, in nanoseconds: always the sum of
    /// the `resilience/retry-backoff` records.
    pub backoff_ns: u64,
    /// Human-readable ladder steps, in order.
    pub degradations: Vec<String>,
}

/// A query answer plus the story of how it was obtained.
#[derive(Debug, Clone)]
pub struct ResilientOutput {
    /// The query result (GPU-parity regardless of rung).
    pub output: QueryOutput,
    /// Recovery ledger.
    pub report: ResilienceReport,
}

/// Execute `query` against `host`'s data, riding the recovery ladder as
/// faults demand. The device table is (re)uploaded from the host copy on
/// every attempt, so a device reset between attempts is survivable.
pub fn execute_resilient(
    gpu: &mut Gpu,
    host: &HostTable,
    query: &Query,
    options: ExecuteOptions,
    policy: &RetryPolicy,
) -> EngineResult<ResilientOutput> {
    let max_attempts = policy.max_attempts.max(1);
    let mut report = ResilienceReport {
        path: ResiliencePath::Gpu,
        attempts: 0,
        retries: 0,
        backoff_ns: 0,
        degradations: Vec::new(),
    };
    let mut resilience_metrics: Vec<MetricsRecord> = Vec::new();

    loop {
        report.attempts += 1;
        let error = match gpu_attempt(gpu, host, query, options) {
            Ok(mut output) => {
                output.metrics.extend(resilience_metrics);
                return Ok(ResilientOutput { output, report });
            }
            Err(e) => e,
        };

        match error.fault_class() {
            FaultClass::Logic => return Err(error),
            FaultClass::Transient if report.attempts < max_attempts => {
                report.retries += 1;
                let step = RetryStep::charge(
                    gpu,
                    policy,
                    report.retries,
                    host.record_count() as u64,
                    &error,
                );
                report.backoff_ns = report.backoff_ns.saturating_add(step.pause_ns);
                resilience_metrics.push(step.record);
                report.degradations.push(step.degradation);
            }
            FaultClass::Transient => {
                let exhausted = EngineError::RetriesExhausted {
                    attempts: report.attempts,
                    last: Box::new(error),
                };
                if !policy.cpu_fallback {
                    return Err(exhausted);
                }
                report
                    .degradations
                    .push(format!("{exhausted}; answering on the CPU"));
                return cpu_rung(host, query, report, resilience_metrics);
            }
            FaultClass::Resource => {
                report.degradations.push(format!(
                    "resource fault ({error}); degrading to out-of-core execution \
                     in {} chunks",
                    policy.oom_chunks.max(1)
                ));
                // The partition coordinator, one chunk-sized device per
                // partition: faults still pending on `gpu` never reach it.
                let opts = ShardOptions {
                    shards: policy.oom_chunks,
                    device_width: gpu.width(),
                    options,
                    policy: policy.clone(),
                };
                match execute_sharded(host, query, &opts) {
                    Ok(sharded) => {
                        let mut output = sharded.output;
                        for (i, shard) in sharded.report.shards.into_iter().enumerate() {
                            report.degradations.extend(
                                shard
                                    .degradations
                                    .into_iter()
                                    .map(|d| format!("partition {i}: {d}")),
                            );
                        }
                        output.metrics.push(marker_record(
                            "resilience/out-of-core",
                            host.record_count() as u64,
                        ));
                        output.metrics.extend(resilience_metrics);
                        report.path = ResiliencePath::OutOfCore;
                        return Ok(ResilientOutput { output, report });
                    }
                    Err(e) if e.fault_class() == FaultClass::Logic || !policy.cpu_fallback => {
                        return Err(e)
                    }
                    Err(e) => report.degradations.push(format!(
                        "out-of-core rung failed ({e}); answering on the CPU"
                    )),
                }
                return cpu_rung(host, query, report, resilience_metrics);
            }
            FaultClass::Device => {
                if !policy.cpu_fallback {
                    return Err(error);
                }
                report
                    .degradations
                    .push(format!("device fault ({error}); answering on the CPU"));
                return cpu_rung(host, query, report, resilience_metrics);
            }
        }
    }
}

/// One transient-fault retry of the recovery ladder, shared by
/// [`execute_resilient`] and each shard's ladder in
/// [`crate::parallel`]: the modeled pause, its metrics record and its
/// log line.
pub(crate) struct RetryStep {
    /// Modeled pause charged, nanoseconds: `base_backoff_ns ·
    /// multiplier^(retry−1)` rounded once, 0 when that is negative or
    /// NaN, and clamped where the clock saturates.
    pub(crate) pause_ns: u64,
    /// The `resilience/retry-backoff` record of the charged pause.
    pub(crate) record: MetricsRecord,
    /// The ladder's log line for this retry.
    pub(crate) degradation: String,
}

impl RetryStep {
    /// Charge retry number `retry` (1-based) after `error` to `gpu`'s
    /// modeled clock; `records` is the record's input size.
    pub(crate) fn charge(
        gpu: &mut Gpu,
        policy: &RetryPolicy,
        retry: u32,
        records: u64,
        error: &EngineError,
    ) -> RetryStep {
        let growth = policy
            .multiplier
            .powi(i32::try_from(retry.saturating_sub(1)).unwrap_or(i32::MAX));
        // The saturating cast charges nothing for a negative or NaN pause.
        let pause = (policy.base_backoff_ns as f64 * growth).round() as u64;
        let (pause_ns, record) =
            metrics::observe(gpu, "resilience/retry-backoff", records, |gpu| {
                gpu.charge_backoff(pause)
            });
        let pause_s = pause_ns as f64 * 1e-9;
        RetryStep {
            pause_ns,
            record,
            degradation: format!(
                "transient fault ({error}); retry {retry} after {pause_s:.6}s modeled backoff"
            ),
        }
    }
}

/// One full GPU attempt: upload from the host copy, execute, free.
fn gpu_attempt(
    gpu: &mut Gpu,
    host: &HostTable,
    query: &Query,
    options: ExecuteOptions,
) -> EngineResult<QueryOutput> {
    let table = host.upload(gpu)?;
    let result = executor::execute_with_options(gpu, &table, query, options);
    let freed = table.free(gpu);
    let output = result?;
    freed?;
    Ok(output)
}

/// Final rung: the CPU oracle. No device work, so the metrics record is
/// a zero-cost marker and timing is all zeros.
fn cpu_rung(
    host: &HostTable,
    query: &Query,
    mut report: ResilienceReport,
    mut resilience_metrics: Vec<MetricsRecord>,
) -> EngineResult<ResilientOutput> {
    let oracle = cpu_oracle::execute(host, query)?;
    resilience_metrics.push(marker_record(
        "resilience/cpu-fallback",
        host.record_count() as u64,
    ));
    report.path = ResiliencePath::Cpu;
    Ok(ResilientOutput {
        output: QueryOutput {
            matched: oracle.matched,
            selectivity: oracle.selectivity,
            rows: oracle.rows,
            timing: PhaseNanos::default(),
            metrics: resilience_metrics,
            trace: None,
        },
        report,
    })
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
    use crate::query::ast::{Aggregate, BoolExpr};
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

    #[test]
    fn clean_run_takes_gpu_path_with_plain_metrics() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Gpu);
        assert_eq!(resilient.report.attempts, 1);
        assert_eq!(resilient.report.retries, 0);
        assert!(resilient.report.degradations.is_empty());

        // Byte-equal to the plain executor path (modulo wall clock).
        let mut gpu2 = device(&host);
        let table = host.upload(&mut gpu2).unwrap();
        let plain =
            executor::execute_with_options(&mut gpu2, &table, &query, ExecuteOptions::default())
                .unwrap();
        assert_eq!(resilient.output.matched, plain.matched);
        assert_eq!(resilient.output.rows, plain.rows);
        assert_eq!(resilient.output.metrics, plain.metrics);
    }

    #[test]
    fn transient_fault_retries_and_recovers() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::OcclusionLoss,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Gpu);
        assert_eq!(resilient.report.retries, 1);
        assert!(resilient.report.backoff_ns > 0);
        assert!(resilient
            .output
            .metrics
            .iter()
            .any(|m| m.operator == "resilience/retry-backoff"));

        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }

    /// Two lost occlusion queries under `multiplier`: the query recovers
    /// on its third attempt, and the reported backoff is exactly what the
    /// `resilience/retry-backoff` records (clock deltas) charged.
    fn two_retries_with_multiplier(multiplier: f64) -> ResilienceReport {
        let host = host();
        let mut gpu = device(&host);
        let lost = FaultEvent {
            at_ns: 0,
            kind: FaultKind::OcclusionLoss,
        };
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![lost; 2]));
        let policy = RetryPolicy {
            multiplier,
            ..RetryPolicy::default()
        };
        let query = count_sum_query();
        let resilient =
            execute_resilient(&mut gpu, &host, &query, ExecuteOptions::default(), &policy).unwrap();
        assert_eq!(resilient.report.retries, 2);
        let charged: u64 = resilient
            .output
            .metrics
            .iter()
            .filter(|m| m.operator == "resilience/retry-backoff")
            .map(MetricsRecord::modeled_total_ns)
            .sum();
        assert_eq!(resilient.report.backoff_ns, charged);
        resilient.report
    }

    #[test]
    fn negative_backoff_is_charged_and_reported_as_zero() {
        // 1 ms, then 1 ms · (−1): the second pause charges nothing, and
        // the report agrees with the clock instead of netting to zero.
        let report = two_retries_with_multiplier(-1.0);
        assert_eq!(report.backoff_ns, 1_000_000);
        assert!(report.degradations[0].ends_with("retry 1 after 0.001000s modeled backoff"));
        assert!(report.degradations[1].ends_with("retry 2 after 0.000000s modeled backoff"));
    }

    #[test]
    fn nan_backoff_is_charged_and_reported_alike() {
        let report = two_retries_with_multiplier(f64::NAN);
        assert!(report.backoff_ns <= 1_000_000, "{}", report.backoff_ns);
    }

    #[test]
    fn overlong_backoff_saturates_the_clock_without_panicking() {
        let host = host();
        let mut gpu = device(&host);
        host.upload(&mut gpu).unwrap();
        let start = gpu.stats().modeled.total();
        assert!(start > 0);
        let error = EngineError::Gpu(GpuError::OcclusionQueryLost);
        let policy = RetryPolicy::default();
        let mut reported = 0u64;
        // 1 ms · 2^99 overflows u64 ns; the last two find the clock full.
        for retry in [100, u32::MAX, 1] {
            let before = gpu.stats().modeled.total();
            let step = RetryStep::charge(&mut gpu, &policy, retry, 64, &error);
            assert_eq!(step.pause_ns, gpu.stats().modeled.total() - before);
            assert_eq!(step.record.modeled_total_ns(), step.pause_ns);
            reported = reported.saturating_add(step.pause_ns);
        }
        assert_eq!(gpu.stats().modeled.total(), u64::MAX);
        assert_eq!(reported, u64::MAX - start);
    }

    #[test]
    fn exhausted_retries_surface_typed_error_without_fallback() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        // More lost queries than the policy has attempts.
        gpu.attach_fault_injector(FaultInjector::with_schedule(
            (0..64)
                .map(|_| FaultEvent {
                    at_ns: 0,
                    kind: FaultKind::OcclusionLoss,
                })
                .collect(),
        ));
        let policy = RetryPolicy {
            cpu_fallback: false,
            ..RetryPolicy::default()
        };
        let err = execute_resilient(&mut gpu, &host, &query, ExecuteOptions::default(), &policy)
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
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(
            (0..64)
                .map(|_| FaultEvent {
                    at_ns: 0,
                    kind: FaultKind::OcclusionLoss,
                })
                .collect(),
        ));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Cpu);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
        assert!(resilient
            .output
            .metrics
            .iter()
            .any(|m| m.operator == "resilience/cpu-fallback"));
    }

    #[test]
    fn allocation_failure_degrades_to_out_of_core() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::AllocationFail,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::OutOfCore);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
        assert!(resilient
            .output
            .metrics
            .iter()
            .any(|m| m.operator == "resilience/out-of-core"));
    }

    /// Run `query` with an allocation failure striking the caller's
    /// device at t=0, so the ladder takes the out-of-core rung.
    fn run_after_oom(
        host: &HostTable,
        query: &Query,
        policy: &RetryPolicy,
    ) -> EngineResult<ResilientOutput> {
        let mut gpu = device(host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::AllocationFail,
        }]));
        execute_resilient(&mut gpu, host, query, ExecuteOptions::default(), policy)
    }

    /// The out-of-core rung answers exactly as the CPU oracle does: the
    /// same rows, or the same typed error.
    fn assert_rung_matches_oracle(host: &HostTable, query: &Query, policy: &RetryPolicy) {
        match (
            run_after_oom(host, query, policy),
            cpu_oracle::execute(host, query),
        ) {
            (Ok(r), Ok(o)) => {
                assert_eq!(r.report.path, ResiliencePath::OutOfCore, "{query:?}");
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
                let resilient = run_after_oom(&host, &query, &RetryPolicy::default()).unwrap();
                // The distributed descent answers on the device.
                assert_eq!(resilient.report.path, ResiliencePath::OutOfCore);
                assert!(!resilient
                    .output
                    .metrics
                    .iter()
                    .any(|m| m.operator == "resilience/cpu-fallback"));
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
        let resilient = run_after_oom(&host, &query, &policy).unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::OutOfCore);
        // The same partitions on the same chunk-sized devices.
        let partitions = execute_sharded(
            &host,
            &query,
            &ShardOptions {
                shards: policy.oom_chunks,
                device_width: device(&host).width(),
                options: ExecuteOptions::default(),
                policy: policy.clone(),
            },
        )
        .unwrap();
        assert_eq!(partitions.report.shards.len(), policy.oom_chunks);
        let partition_ns: u64 = partitions.report.shards.iter().map(|s| s.modeled_ns).sum();
        assert!(partition_ns > 0);
        assert_eq!(resilient.output.timing.total(), partition_ns);
    }

    #[test]
    fn device_reset_falls_back_to_cpu() {
        let host = host();
        let query = count_sum_query();
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::DeviceReset,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.report.path, ResiliencePath::Cpu);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }

    #[test]
    fn logic_errors_are_never_retried_or_masked() {
        let host = host();
        let query = Query::filtered(
            vec![Aggregate::Count],
            BoolExpr::pred("missing", CompareFunc::Equal, 1),
        );
        let mut gpu = device(&host);
        let err = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
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
        let mut gpu = device(&host);
        gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::AllocationFail,
        }]));
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .unwrap();
        assert_eq!(resilient.output.matched, 0);
        let oracle = cpu_oracle::execute(&host, &query).unwrap();
        assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    }
}
