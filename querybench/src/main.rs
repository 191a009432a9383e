//! querybench — host-clock benchmark of the gpudb query path.
//!
//! ```text
//! cargo run --release --manifest-path querybench/Cargo.toml -- \
//!     --workload <scan|interactive|faulty> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds the workload's table from the seed (repeatedly, reporting the
//! median set-up time), draws a pool of SQL statements from the same
//! seed, and issues them one at a time for `S` seconds. Every answer is
//! checked against the CPU oracle. The last line of standard output is
//! one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones (latency,
//! throughput, set-up time); with `--trace 1` every layer is timed on its
//! own and the per-layer metrics are reported instead. Per-class medians
//! go to standard error.

mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use workload::{Kind, Report};

const USAGE: &str =
    "usage: querybench --workload <scan|interactive|faulty> --seed N --seconds S --trace <0|1>";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        traced: traced.unwrap_or(false),
    })
}

fn to_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("querybench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match workload::run(
        args.kind,
        args.seed,
        Duration::from_secs(args.seconds),
        args.traced,
    ) {
        Ok(report) => {
            println!("{}", to_json(&report));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("querybench: {e}");
            ExitCode::FAILURE
        }
    }
}
