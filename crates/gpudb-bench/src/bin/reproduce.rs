//! Regenerate every figure of the paper's evaluation section.
//!
//! ```sh
//! # quick pass over all experiments at reduced sizes
//! cargo run --release -p gpudb-bench --bin reproduce
//!
//! # the paper's record counts (1M records; minutes of simulation)
//! cargo run --release -p gpudb-bench --bin reproduce -- --scale paper
//!
//! # individual figures, JSON output
//! cargo run --release -p gpudb-bench --bin reproduce -- fig3 fig4 --json results/
//! ```

use gpudb_bench::experiments::{self, ALL_EXPERIMENTS};
use gpudb_bench::report::Scale;
use gpudb_bench::{smoke, traceout};
use std::process::ExitCode;

/// The smoke counterpart of a figure id, if one exists. Traces are
/// collected from the smoke-scale run of the same operator family (the
/// span tree's *shape* is scale-independent; only durations grow), so
/// `--trace-out` stays cheap even at `--scale paper`.
fn smoke_counterpart(id: &str) -> Option<&'static str> {
    match id {
        "fig2" => Some("fig2_copy"),
        "fig3" => Some("fig3_predicate"),
        "fig4" => Some("fig4_range"),
        "fig5" => Some("fig5_multiattr_cnf"),
        "fig6" => Some("fig6_semilinear"),
        "fig7" => Some("fig7_kth"),
        "fig8" => Some("fig8_median"),
        "fig9" => Some("fig9_kth_selective"),
        "fig10" => Some("fig10_accumulator"),
        _ => None,
    }
}

fn main() -> ExitCode {
    let mut scale = Scale::Small;
    let mut json_dir: Option<String> = None;
    let mut trace_dir: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => match args.next().as_deref() {
                Some("small") => scale = Scale::Small,
                Some("paper") => scale = Scale::Paper,
                other => {
                    eprintln!("--scale must be 'small' or 'paper', got {other:?}");
                    return ExitCode::FAILURE;
                }
            },
            "--json" => match args.next() {
                Some(dir) => json_dir = Some(dir),
                None => {
                    eprintln!("--json requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--trace-out" => match args.next() {
                Some(dir) => trace_dir = Some(dir),
                None => {
                    eprintln!("--trace-out requires a directory");
                    return ExitCode::FAILURE;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: reproduce [--scale small|paper] [--json DIR] [--trace-out DIR] \
                     [EXPERIMENT...]\n\
                     experiments: {ALL_EXPERIMENTS:?} (default: all)"
                );
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string())),
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids.extend(ALL_EXPERIMENTS.iter().map(|s| s.to_string()));
    }

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {dir}: {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "reproducing {} experiment(s) at {:?} scale\n\
         (GPU timings are the calibrated GeForce FX 5900 cost model; CPU \n\
         timings are the calibrated 2004 Xeon model plus this host's wall-clock)\n",
        ids.len(),
        scale
    );

    let mut failures = 0usize;
    for id in &ids {
        let started = std::time::Instant::now();
        match experiments::run(id, scale) {
            Ok(result) => {
                println!("{}", result.render_text());
                println!(
                    "   [simulated in {:.1} s]\n",
                    started.elapsed().as_secs_f64()
                );
                if !result.shape_holds {
                    failures += 1;
                }
                if let Some(dir) = &json_dir {
                    let path = format!("{dir}/{id}.json");
                    match serde_json::to_string_pretty(&result) {
                        Ok(json) => {
                            if let Err(e) = std::fs::write(&path, json) {
                                eprintln!("cannot write {path}: {e}");
                            }
                        }
                        Err(e) => eprintln!("cannot serialize {id}: {e}"),
                    }
                }
                if let Some(dir) = &trace_dir {
                    match smoke_counterpart(id) {
                        Some(smoke_id) => match smoke::run_one_logged(smoke_id) {
                            Ok((_, _, tree)) => match traceout::write_all(
                                std::path::Path::new(dir),
                                smoke_id,
                                &tree,
                            ) {
                                Ok(paths) => println!("   wrote {}", paths[0].display()),
                                Err(e) => eprintln!("cannot write traces for {id}: {e}"),
                            },
                            Err(e) => eprintln!("trace run for {id} failed: {e}"),
                        },
                        None => println!(
                            "   (no smoke counterpart for {id}; no trace artifacts written)"
                        ),
                    }
                }
            }
            Err(e) => {
                eprintln!("experiment {id} failed: {e}\n");
                failures += 1;
            }
        }
    }

    if failures > 0 {
        eprintln!("{failures} experiment(s) diverged or failed");
        ExitCode::FAILURE
    } else {
        println!("all {} experiment shapes hold ✓", ids.len());
        ExitCode::SUCCESS
    }
}
