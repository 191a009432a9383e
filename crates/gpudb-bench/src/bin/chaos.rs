//! `chaos` — seeded fault-injection sweep with CPU-oracle cross-check.
//!
//! Runs the chaos matrix ([`gpudb_bench::chaos`], the same seed →
//! workload → query-shape → schedule mapping as `tests/chaos.rs`) against
//! the resilient executor and verifies the
//! robustness contract: every run either matches the CPU oracle exactly
//! or returns a typed `EngineError` the oracle agrees with. Writes a
//! JSON report; on any contract violation the report carries the full
//! fault schedule of the failing run (the replay artifact CI uploads)
//! and the process exits non-zero.
//!
//! ```text
//! chaos [--seeds N] [--start S] [--out PATH] [--faults on|off]
//! ```
//!
//! `--faults off` runs the same matrix with no injector and instead
//! checks that `execute_resilient` answers as the plain executor does and
//! that its records are the plain executor's, byte for byte, plus the
//! upload and mask-readback records, which sum exactly to the extra
//! modeled time — the "resilience is free on a healthy device" half of
//! the contract.

use gpudb_bench::chaos::{
    host_is_resident_plus_data_movement, injector_for, query_shapes, workload, RECORDS, SHAPES,
};
use gpudb_core::cpu_oracle;
use gpudb_core::query::ast::Query;
use gpudb_core::query::executor::{self, ExecuteOptions};
use gpudb_core::resilience::{execute_resilient, RetryPolicy};
use gpudb_core::table::GpuTable;
use gpudb_sim::FaultInjector;
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

/// One scheduled fault event, rendered for the replay artifact.
#[derive(Serialize)]
struct ScheduleEvent {
    at_ns: u64,
    kind: String,
}

/// A contract violation, with everything needed to replay it.
#[derive(Serialize)]
struct Failure {
    seed: u64,
    shape: String,
    schedule: Vec<ScheduleEvent>,
    message: String,
    replay: String,
}

/// The machine-readable sweep report (`--out`).
#[derive(Serialize)]
struct Report {
    faults: String,
    seeds: u64,
    start: u64,
    records_per_workload: usize,
    shapes: Vec<String>,
    runs: u64,
    paths: Vec<(String, u64)>,
    failures: Vec<Failure>,
}

fn schedule_of(injector: &FaultInjector) -> Vec<ScheduleEvent> {
    injector
        .pending()
        .iter()
        .map(|e| ScheduleEvent {
            at_ns: e.at_ns,
            kind: format!("{:?}", e.kind),
        })
        .collect()
}

struct Args {
    seeds: u64,
    start: u64,
    out: PathBuf,
    faults: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 64,
        start: 0,
        out: PathBuf::from("BENCH_chaos.json"),
        faults: true,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--seeds" => {
                let raw = value("--seeds")?;
                args.seeds = raw
                    .parse::<u64>()
                    .map_err(|e| format!("bad --seeds {raw:?}: {e}"))?;
            }
            "--start" => {
                let raw = value("--start")?;
                args.start = raw
                    .parse::<u64>()
                    .map_err(|e| format!("bad --start {raw:?}: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--faults" => match value("--faults")?.as_str() {
                "on" => args.faults = true,
                "off" => args.faults = false,
                other => return Err(format!("--faults must be on|off, got {other:?}")),
            },
            "--help" | "-h" => {
                println!("chaos [--seeds N] [--start S] [--out PATH] [--faults on|off]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}; see --help")),
        }
    }
    Ok(args)
}

/// One faulted run; `Ok(path)` names the rung that answered, `Err` is a
/// contract-violation description.
fn run_faulted(seed: u64, shape: usize, query: &Query) -> Result<String, String> {
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
    let oracle = cpu_oracle::execute(&host, query);
    match (resilient, oracle) {
        (Ok(r), Ok(o)) => {
            let ledger = &r.report.shards[0];
            if o.agrees_with(r.output.matched, &r.output.rows) {
                Ok(format!("{:?}", ledger.path))
            } else {
                Err(format!(
                    "silent divergence on {} path {:?}: gpu matched {} rows {:?}, oracle {:?}; \
                     ladder {:?}",
                    SHAPES[shape],
                    ledger.path,
                    r.output.matched,
                    r.output.rows,
                    o.rows,
                    ledger.degradations
                ))
            }
        }
        (Err(e), Err(oe)) if e.to_string() == oe.to_string() => Ok("TypedError".to_string()),
        (Err(e), Err(oe)) => Err(format!(
            "error mismatch on {}: engine {e:?}, oracle {oe:?}",
            SHAPES[shape]
        )),
        (Ok(r), Err(oe)) => Err(format!(
            "engine answered {:?} on {} but oracle errors with {oe}",
            r.output.rows, SHAPES[shape]
        )),
        (Err(e), Ok(_)) => Err(format!(
            "engine failed on {} with {e} (class {:?}) but oracle answers",
            SHAPES[shape],
            e.fault_class()
        )),
    }
}

/// One clean run (`--faults off`): the resilient output must answer as
/// the plain executor does, and be its records plus the upload and mask
/// readback records, which account exactly for the extra modeled time.
fn run_clean(seed: u64, shape: usize, query: &Query) -> Result<String, String> {
    let host = workload(seed);
    let mut gpu = GpuTable::device_for(host.record_count(), 16);
    let resilient = execute_resilient(
        &mut gpu,
        &host,
        query,
        ExecuteOptions::default(),
        &RetryPolicy::default(),
    );

    let mut gpu2 = GpuTable::device_for(host.record_count(), 16);
    let plain = host.upload(&mut gpu2).and_then(|table| {
        executor::execute_with_options(&mut gpu2, &table, query, ExecuteOptions::default())
    });
    let failure =
        |message: String| format!("faults-off divergence on {}: {message}", SHAPES[shape]);
    match (resilient, plain) {
        (Ok(a), Ok(b)) if (a.output.matched, &a.output.rows) == (b.matched, &b.rows) => {
            host_is_resident_plus_data_movement(&a.output, &b)
                .map(|()| "Gpu".to_string())
                .map_err(failure)
        }
        (Err(a), Err(b)) if a.to_string() == b.to_string() => Ok("TypedError".to_string()),
        (a, b) => Err(failure(format!(
            "resilient {:?} vs plain {:?}",
            a.map(|r| (r.output.matched, r.output.rows)),
            b.map(|o| (o.matched, o.rows))
        ))),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("chaos: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut path_counts = std::collections::BTreeMap::<String, u64>::new();
    let mut failures = Vec::new();
    let mut runs = 0u64;
    for seed in args.start..args.start + args.seeds {
        for (shape, query) in query_shapes(seed).iter().enumerate() {
            runs += 1;
            let outcome = if args.faults {
                run_faulted(seed, shape, query)
            } else {
                run_clean(seed, shape, query)
            };
            match outcome {
                Ok(path) => *path_counts.entry(path).or_insert(0) += 1,
                Err(message) => {
                    eprintln!("chaos: FAIL seed {seed} shape {}: {message}", SHAPES[shape]);
                    failures.push(Failure {
                        seed,
                        shape: SHAPES[shape].to_string(),
                        schedule: schedule_of(&injector_for(seed)),
                        message,
                        replay: format!(
                            "cargo run -p gpudb-bench --bin chaos -- --seeds 1 --start {seed}"
                        ),
                    });
                }
            }
        }
    }

    let paths: Vec<(String, u64)> = path_counts.into_iter().collect();
    let failure_count = failures.len();
    let report = Report {
        faults: if args.faults { "on" } else { "off" }.to_string(),
        seeds: args.seeds,
        start: args.start,
        records_per_workload: RECORDS,
        shapes: SHAPES.iter().map(|s| s.to_string()).collect(),
        runs,
        paths,
        failures,
    };
    let rendered = match serde_json::to_string_pretty(&report) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("chaos: cannot serialize report: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&args.out, rendered + "\n") {
        eprintln!("chaos: cannot write {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }

    println!(
        "chaos: {} runs across {} seeds (faults {}): paths {:?}, {} failure(s); report {}",
        runs,
        args.seeds,
        if args.faults { "on" } else { "off" },
        report.paths,
        failure_count,
        args.out.display()
    );
    if failure_count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
