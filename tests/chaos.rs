//! Chaos suite: seeded fault schedules against the resilient executor,
//! cross-checked record-for-record against the CPU oracle.
//!
//! The contract under test (ISSUE 4 acceptance criteria): for **every**
//! fault schedule, every query either
//!
//! 1. returns a result byte-identical to `cpu_oracle::execute`, or
//! 2. returns a typed [`EngineError`] that the oracle agrees with
//!    (logic errors are identical on every rung),
//!
//! and never panics and never silently corrupts an answer.
//!
//! Schedules are generated with [`FaultInjector::from_seed`] — the same
//! seeds replay byte-for-byte, so any failure here is reproducible with
//! `cargo run -p gpudb-bench --bin chaos -- --seeds <seed>`.

mod common;

use common::{injector_for, query_shapes, workload};
use gpudb::prelude::*;

/// Run one (seed, query) pair under the seed's fault schedule and check
/// the contract. Returns which resilience path answered, for coverage
/// accounting.
fn run_one(seed: u64, query: &Query) -> Option<ResiliencePath> {
    let host = workload(seed);
    let mut gpu = GpuTable::device_for(host.record_count(), 16);
    gpu.attach_fault_injector(injector_for(seed));
    let resilient = execute_resilient(
        &mut gpu,
        &host,
        query,
        ExecuteOptions::default(),
        &RetryPolicy::default(),
    );
    let oracle = gpudb::core::cpu_oracle::execute(&host, query);
    match (resilient, oracle) {
        (Ok(r), Ok(o)) => {
            assert!(
                o.agrees_with(r.output.matched, &r.output.rows),
                "seed {seed}: silent divergence\n gpu path {:?}: matched {} rows {:?}\n oracle: {o:?}\n ladder: {:?}",
                r.report.path,
                r.output.matched,
                r.output.rows,
                r.report.degradations,
            );
            Some(r.report.path)
        }
        (Err(e), Err(oe)) => {
            assert_eq!(e.to_string(), oe.to_string(), "seed {seed}: error mismatch");
            None
        }
        (Ok(r), Err(oe)) => panic!(
            "seed {seed}: GPU path {:?} answered {:?} but oracle errors with {oe}",
            r.report.path, r.output.rows
        ),
        (Err(e), Ok(_)) => panic!(
            "seed {seed}: query failed with {e} (class {:?}) but the oracle answers",
            e.fault_class()
        ),
    }
}

#[test]
fn chaos_64_seeds_all_shapes_match_oracle_or_error_typed() {
    let mut paths_seen = std::collections::BTreeMap::new();
    let mut runs = 0u32;
    for seed in 0..64u64 {
        for query in query_shapes(seed) {
            if let Some(path) = run_one(seed, &query) {
                *paths_seen.entry(format!("{path:?}")).or_insert(0u32) += 1;
            }
            runs += 1;
        }
    }
    assert_eq!(runs, 64 * 6);
    // The ladder must actually have been exercised: every rung appears
    // somewhere in the matrix.
    assert!(
        paths_seen.contains_key("Gpu"),
        "no clean GPU path in {paths_seen:?}"
    );
    assert!(
        paths_seen.contains_key("Cpu"),
        "no CPU fallback exercised in {paths_seen:?}"
    );
    assert!(
        paths_seen.contains_key("OutOfCore"),
        "no out-of-core degradation exercised in {paths_seen:?}"
    );
}

#[test]
fn chaos_replay_is_byte_deterministic() {
    // Same seed, same query → identical output, metrics, and ladder.
    let seed = 17u64;
    let query = &query_shapes(seed)[1];
    let run = |_: ()| {
        let host = workload(seed);
        let mut gpu = GpuTable::device_for(host.record_count(), 16);
        gpu.attach_fault_injector(FaultInjector::from_seed(seed, 6, 2_000_000));
        let r = execute_resilient(
            &mut gpu,
            &host,
            query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .expect("resilient run");
        (
            r.output.matched,
            r.output.rows.clone(),
            r.output.metrics.clone(),
            r.report.retries,
            r.report.degradations.clone(),
        )
    };
    assert_eq!(run(()), run(()));
}

#[test]
fn chaos_without_faults_is_plain_execution() {
    // No injector attached: the resilient path must equal the plain
    // executor byte-for-byte (metrics included) — the smoke-gate
    // guarantee that resilience is free when the device is healthy.
    let host = workload(7);
    for query in query_shapes(7) {
        let mut gpu = GpuTable::device_for(host.record_count(), 16);
        let resilient = execute_resilient(
            &mut gpu,
            &host,
            &query,
            ExecuteOptions::default(),
            &RetryPolicy::default(),
        )
        .map(|r| (r.output.matched, r.output.rows, r.output.metrics));

        let mut gpu2 = GpuTable::device_for(host.record_count(), 16);
        let table = host.upload(&mut gpu2).expect("upload");
        let plain = execute_with_options(&mut gpu2, &table, &query, ExecuteOptions::default())
            .map(|o| (o.matched, o.rows, o.metrics));
        match (resilient, plain) {
            (Ok(a), Ok(b)) => assert_eq!(a, b),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
            (a, b) => panic!("resilient {a:?} vs plain {b:?}"),
        }
    }
}

#[test]
fn resilient_equals_one_shard_placement() {
    // One recovery ladder: the resilient executor is one host-slice
    // partition on the caller's device, so under every chaos schedule it
    // takes the same rungs as a one-shard placement of the same width,
    // and frees its upload on every exit path.
    let opts = ShardOptions {
        shards: 1,
        device_width: 16,
        ..ShardOptions::default()
    };
    for seed in 0..64u64 {
        let host = workload(seed);
        let injector = injector_for(seed);
        let resets = injector
            .pending()
            .iter()
            .any(|e| e.kind == FaultKind::DeviceReset);
        for (shape, query) in query_shapes(seed).iter().enumerate() {
            let case = format!("seed {seed} shape {shape}");
            let mut gpu = GpuTable::device_for(host.record_count(), 16);
            gpu.attach_fault_injector(injector.clone());
            let vram_before = gpu.vram_used();
            let resilient = execute_resilient(
                &mut gpu,
                &host,
                query,
                ExecuteOptions::default(),
                &RetryPolicy::default(),
            );
            let sharded =
                execute_sharded_with_faults(&host, query, &opts, vec![Some(injector.clone())]);
            match (resilient, sharded) {
                (Ok(r), Ok(s)) => {
                    assert_eq!(r.output.matched, s.output.matched, "{case}");
                    assert_eq!(r.output.rows, s.output.rows, "{case}");
                    let shard = &s.report.shards[0];
                    assert_eq!(
                        (r.report.path, r.report.attempts, r.report.retries),
                        (shard.path, shard.attempts, shard.retries),
                        "{case}"
                    );
                    assert_eq!(r.report.degradations, shard.degradations, "{case}");
                    let (merge, shard_metrics) =
                        s.output.metrics.split_last().expect("merge marker");
                    assert_eq!(merge.operator, "parallel/merge", "{case}");
                    assert_eq!(r.output.metrics.as_slice(), shard_metrics, "{case}");
                }
                (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{case}"),
                (a, b) => panic!(
                    "{case}: resilient {:?} vs one shard {:?}",
                    a.map(|r| r.report.path),
                    b.map(|s| s.report.shards[0].path)
                ),
            }
            if !resets {
                assert_eq!(gpu.vram_used(), vram_before, "{case}: upload not freed");
            }
        }
    }
}

/// Build a fault vector targeting exactly one shard of `shards`.
fn target_shard(
    shards: usize,
    target: usize,
    injector: FaultInjector,
) -> Vec<Option<FaultInjector>> {
    let mut faults: Vec<Option<FaultInjector>> = (0..shards).map(|_| None).collect();
    faults[target] = Some(injector);
    faults
}

#[test]
fn shard_chaos_seeded_schedules_match_oracle_or_error_typed() {
    // The chaos contract, sharded: a fault schedule striking ONE shard
    // must leave the merged answer byte-identical to the oracle, or
    // fail with a typed error — and must never disturb the other
    // shards' ledgers.
    for seed in 0..48u64 {
        let shards = 2 + (seed % 3) as usize; // 2..=4
        let target = (seed % shards as u64) as usize;
        let horizon = if seed.is_multiple_of(2) { 0 } else { 2_000_000 };
        let events = 1 + (seed % 6) as usize;
        let host = workload(seed);
        for query in query_shapes(seed) {
            let opts = ShardOptions {
                shards,
                ..ShardOptions::default()
            };
            let faults = target_shard(
                shards,
                target,
                FaultInjector::from_seed(seed, events, horizon),
            );
            let sharded = execute_sharded_with_faults(&host, &query, &opts, faults);
            let oracle = gpudb::core::cpu_oracle::execute(&host, &query);
            match (sharded, oracle) {
                (Ok(s), Ok(o)) => {
                    assert!(
                        o.agrees_with(s.output.matched, &s.output.rows),
                        "seed {seed}: sharded divergence under fault on shard {target}\n \
                         got matched {} rows {:?}\n oracle: {o:?}",
                        s.output.matched,
                        s.output.rows,
                    );
                    // The schedule targeted one shard; the others must
                    // have run clean.
                    for (i, run) in s.report.shards.iter().enumerate() {
                        if i != target {
                            assert!(
                                run.degradations.is_empty() && run.path == ResiliencePath::Gpu,
                                "seed {seed}: untargeted shard {i} degraded: {:?}",
                                run.degradations
                            );
                        }
                    }
                }
                (Err(e), Err(oe)) => {
                    assert_eq!(e.to_string(), oe.to_string(), "seed {seed}: error mismatch")
                }
                (Err(e), Ok(_)) => panic!(
                    "seed {seed}: sharded run failed with {e} (class {:?}) but the oracle answers",
                    e.fault_class()
                ),
                (Ok(s), Err(oe)) => panic!(
                    "seed {seed}: sharded run answered {:?} but oracle errors with {oe}",
                    s.output.rows
                ),
            }
        }
    }
}

#[test]
fn shard_chaos_device_reset_degrades_only_the_struck_shard() {
    // A DeviceReset at t=0 on shard 1 of 3: that shard answers from the
    // CPU, the other two stay on the GPU, and the merged answer equals
    // the fault-free run for every query shape.
    let host = workload(11);
    for query in query_shapes(11) {
        let opts = ShardOptions {
            shards: 3,
            ..ShardOptions::default()
        };
        let clean = execute_sharded(&host, &query, &opts).expect("clean run");
        let reset = FaultInjector::with_schedule(vec![FaultEvent {
            at_ns: 0,
            kind: FaultKind::DeviceReset,
        }]);
        let struck = execute_sharded_with_faults(&host, &query, &opts, target_shard(3, 1, reset))
            .expect("struck run");
        assert_eq!(struck.output.matched, clean.output.matched);
        assert_eq!(struck.output.rows, clean.output.rows);
        assert_eq!(struck.mask, clean.mask);
        assert_eq!(struck.report.shards[1].path, ResiliencePath::Cpu);
        assert!(!struck.report.shards[1].degradations.is_empty());
        for i in [0, 2] {
            assert_eq!(struck.report.shards[i].path, ResiliencePath::Gpu);
            assert!(struck.report.shards[i].degradations.is_empty());
        }
    }
}

#[test]
fn shard_chaos_hostile_policy_errors_stay_typed() {
    // No fallback, single attempt, immediate faults on one shard: every
    // outcome is Ok-with-oracle-parity or a typed EngineError — never a
    // panic. Logic errors must match the oracle's verdict exactly.
    for seed in 0..24u64 {
        let host = workload(seed);
        let query = &query_shapes(seed)[4]; // order statistics: the holistic shape
        let opts = ShardOptions {
            shards: 4,
            policy: RetryPolicy {
                max_attempts: 1,
                cpu_fallback: false,
                ..RetryPolicy::default()
            },
            ..ShardOptions::default()
        };
        let faults = target_shard(4, (seed % 4) as usize, FaultInjector::from_seed(seed, 4, 0));
        match execute_sharded_with_faults(&host, query, &opts, faults) {
            Ok(s) => {
                let oracle = gpudb::core::cpu_oracle::execute(&host, query).expect("oracle");
                assert!(oracle.agrees_with(s.output.matched, &s.output.rows));
            }
            Err(e) => {
                if e.fault_class() == FaultClass::Logic {
                    let oracle_err =
                        gpudb::core::cpu_oracle::execute(&host, query).expect_err("oracle err");
                    assert_eq!(e.to_string(), oracle_err.to_string());
                }
            }
        }
    }
}

#[test]
fn chaos_errors_are_never_panics() {
    // Sweep a hostile policy (no CPU fallback, single attempt) across
    // immediate-fault schedules: every outcome is Ok-with-parity or a
    // typed error — never a panic, never an unclassified failure.
    for seed in 0..32u64 {
        let host = workload(seed);
        let query = &query_shapes(seed)[5];
        let mut gpu = GpuTable::device_for(host.record_count(), 16);
        gpu.attach_fault_injector(FaultInjector::from_seed(seed, 4, 0));
        let policy = RetryPolicy {
            max_attempts: 1,
            cpu_fallback: false,
            ..RetryPolicy::default()
        };
        match execute_resilient(&mut gpu, &host, query, ExecuteOptions::default(), &policy) {
            Ok(r) => {
                let oracle = gpudb::core::cpu_oracle::execute(&host, query).expect("oracle");
                assert!(oracle.agrees_with(r.output.matched, &r.output.rows));
            }
            Err(e) => {
                // The class tells callers what to do next; Logic errors
                // must agree with the oracle's verdict.
                if e.fault_class() == FaultClass::Logic {
                    let oracle_err =
                        gpudb::core::cpu_oracle::execute(&host, query).expect_err("oracle err");
                    assert_eq!(e.to_string(), oracle_err.to_string());
                }
            }
        }
    }
}

/// Shard options that validate every plan and trace every pass.
fn validated_traced(shards: usize) -> ShardOptions {
    ShardOptions {
        shards,
        options: ExecuteOptions {
            validate_plans: true,
            trace: Some(TraceLevel::Passes),
            ..ExecuteOptions::default()
        },
        ..ShardOptions::default()
    }
}

/// The named stage spans directly under shard `i` of a merged trace.
fn shard_stages(trace: &SpanTree, i: usize) -> Vec<&Span> {
    trace.roots[0].children[i].children.iter().collect()
}

#[test]
fn shard_faults_lint_only_the_attempt_that_succeeded() {
    // Validation on, traced, 3 shards. Shard 1 loses an occlusion result
    // mid-selection and retries; shard 2's device resets mid-aggregate
    // and degrades to the CPU. The half-run plans of the failed attempt
    // and of the struck aggregate are never linted, so no PlanValidation
    // error surfaces and the answer equals the oracle.
    let host = workload(11);
    let query = &query_shapes(11)[2]; // CNF selection, COUNT + MAX(a)
    let opts = validated_traced(3);
    let clean = execute_sharded(&host, query, &opts).expect("clean run");
    let clean_trace = clean.output.trace.as_ref().expect("traced");
    let aggregate = shard_stages(clean_trace, 2)
        .into_iter()
        .find(|s| s.name == "aggregate:MAX(a)")
        .expect("shard 2 ran the MAX aggregate on its device");
    let mid_aggregate = (aggregate.start_ns + aggregate.end_ns) / 2;
    let loss = FaultInjector::with_schedule(vec![FaultEvent {
        at_ns: 0,
        kind: FaultKind::OcclusionLoss,
    }]);
    let reset = FaultInjector::with_schedule(vec![FaultEvent {
        at_ns: mid_aggregate,
        kind: FaultKind::DeviceReset,
    }]);
    let struck =
        execute_sharded_with_faults(&host, query, &opts, vec![None, Some(loss), Some(reset)])
            .unwrap_or_else(|e| panic!("struck run failed: {e}"));
    let oracle = gpudb::core::cpu_oracle::execute(&host, query).expect("oracle");
    assert!(oracle.agrees_with(struck.output.matched, &struck.output.rows));
    assert_eq!(struck.output.rows, clean.output.rows);

    let shards = &struck.report.shards;
    assert_eq!(
        (shards[1].path, shards[1].retries),
        (ResiliencePath::Gpu, 1)
    );
    assert_eq!(shards[2].path, ResiliencePath::Cpu);
    assert_eq!(shards[2].retries, 0);
    let trace = struck.output.trace.as_ref().expect("traced");
    let selections = shard_stages(trace, 1)
        .iter()
        .filter(|s| s.name == "selection")
        .count();
    assert_eq!(
        selections, 2,
        "shard 1's trace holds both selection attempts"
    );
}

#[test]
fn resilient_retry_lints_only_the_attempt_that_succeeded() {
    // The same check on one device: a transient occlusion loss in the
    // first attempt's selection, validation on, traced. The statement
    // keeps one log, so its trace holds both selection attempts, as a
    // shard's does.
    let host = workload(11);
    let query = &query_shapes(11)[2];
    let mut gpu = GpuTable::device_for(host.record_count(), 16);
    gpu.attach_fault_injector(FaultInjector::with_schedule(vec![FaultEvent {
        at_ns: 0,
        kind: FaultKind::OcclusionLoss,
    }]));
    let options = validated_traced(1).options;
    let resilient = execute_resilient(&mut gpu, &host, query, options, &RetryPolicy::default())
        .unwrap_or_else(|e| panic!("resilient run failed: {e}"));
    let oracle = gpudb::core::cpu_oracle::execute(&host, query).expect("oracle");
    assert!(oracle.agrees_with(resilient.output.matched, &resilient.output.rows));
    assert_eq!(resilient.report.path, ResiliencePath::Gpu);
    assert_eq!(resilient.report.degradations.len(), 1, "one retry");
    let trace = resilient.output.trace.as_ref().expect("traced");
    let stages: Vec<&str> = trace.roots[0]
        .children
        .iter()
        .filter(|s| s.kind == SpanKind::Stage)
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        stages,
        [
            "selection",
            "selection",
            "aggregate:COUNT(*)",
            "aggregate:MAX(a)"
        ]
    );
}
