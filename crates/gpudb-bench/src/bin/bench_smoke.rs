//! `bench-smoke` — deterministic perf-regression gate.
//!
//! Runs reduced-scale fixed-seed versions of the paper's figure
//! experiments, writes `BENCH_smoke.json` (modeled costs + exact result
//! checksums + per-operator metrics), prints a summary table, and — when
//! a baseline exists — fails with a readable diff on any modeled-cost
//! change or any checksum change.
//!
//! ```text
//! bench-smoke [--out PATH] [--baseline PATH] [--bless] [--no-gate]
//!             [--trace-out DIR] [--shards LIST]
//! ```
//!
//! `--trace-out DIR` runs every experiment with the device logged
//! (bit-passive: the gated report is the same as without it) and also
//! writes `<id>.trace.json` / `<id>.folded` / `<id>.spans.jsonl` per
//! experiment — see `docs/observability.md`.
//!
//! `--shards LIST` (e.g. `--shards 1,4,16`) switches to the shard
//! matrix: the sharded smoke queries run at every listed device count,
//! one `BENCH_shards_<n>.json` report plus one `SHARD_results_<n>.txt`
//! checksum digest per count is written next to `--out`, and the run
//! fails unless every count's result checksums are byte-identical —
//! the sharded-merge correctness gate. With `--trace-out DIR`, each
//! count also writes merged span trees (one `shard-i` stage per device)
//! under `DIR/shards-<n>/`.

use gpudb_bench::regress;
use gpudb_bench::smoke::{self, SmokeReport};
use gpudb_bench::traceout;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    out: PathBuf,
    baseline: PathBuf,
    bless: bool,
    gate: bool,
    trace_out: Option<PathBuf>,
    shards: Vec<usize>,
}

fn default_baseline() -> PathBuf {
    // Resolve relative to the crate so the gate works from any cwd.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results/baselines/smoke.json")
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        out: PathBuf::from("BENCH_smoke.json"),
        baseline: default_baseline(),
        bless: false,
        gate: true,
        trace_out: None,
        shards: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--baseline" => args.baseline = PathBuf::from(value("--baseline")?),
            "--bless" => args.bless = true,
            "--no-gate" => args.gate = false,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--shards" => {
                let raw = value("--shards")?;
                args.shards = raw
                    .split(',')
                    .map(|s| {
                        s.trim()
                            .parse::<usize>()
                            .ok()
                            .filter(|&n| n > 0)
                            .ok_or_else(|| {
                                format!("bad --shards {raw:?}: counts must be positive integers")
                            })
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                if args.shards.is_empty() {
                    return Err(format!("--shards {raw:?} names no counts"));
                }
            }
            "--help" | "-h" => {
                println!(
                    "bench-smoke [--out PATH] [--baseline PATH] [--bless] [--no-gate] \
                     [--trace-out DIR] [--shards LIST]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}; see --help")),
        }
    }
    Ok(args)
}

fn load_baseline(path: &PathBuf) -> Result<Option<SmokeReport>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => serde_json::from_str(&text)
            .map(Some)
            .map_err(|e| format!("unreadable baseline {}: {e:?}", path.display())),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read baseline {}: {e}", path.display())),
    }
}

/// One file next to `out`, named for the shard count.
fn sibling(out: &std::path::Path, name: String) -> PathBuf {
    match out.parent() {
        Some(dir) if dir.as_os_str().is_empty() => PathBuf::from(name),
        Some(dir) => dir.join(name),
        None => PathBuf::from(name),
    }
}

/// The shard matrix: run the sharded smoke queries at every requested
/// device count, write one report + one checksum digest per count, and
/// fail unless the digests are byte-identical across counts.
fn run_shard_matrix(args: &Args) -> Result<ExitCode, String> {
    let mut reference: Option<(usize, String)> = None;
    let mut mismatched = false;
    for &shards in &args.shards {
        let (report, trees) = smoke::run_sharded(shards, args.trace_out.is_some())
            .map_err(|e| format!("sharded run at {shards} shard(s) failed: {e}"))?;
        let json = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
        let report_path = sibling(&args.out, format!("BENCH_shards_{shards}.json"));
        std::fs::write(&report_path, &json)
            .map_err(|e| format!("write {}: {e}", report_path.display()))?;

        // The digest holds only shard-count-invariant fields (id +
        // result checksum), so `cmp` across counts is meaningful.
        let digest: String = report
            .experiments
            .iter()
            .map(|e| format!("{} {}\n", e.id, e.checksum))
            .collect();
        let digest_path = sibling(&args.out, format!("SHARD_results_{shards}.txt"));
        std::fs::write(&digest_path, &digest)
            .map_err(|e| format!("write {}: {e}", digest_path.display()))?;
        println!(
            "wrote {} and {}",
            report_path.display(),
            digest_path.display()
        );
        for exp in &report.experiments {
            println!(
                "  {:<20} shards {:>3}  modeled {:>10.3} ms  {}",
                exp.id,
                shards,
                exp.modeled_ns as f64 / 1e6,
                exp.checksum
            );
        }

        if let Some(dir) = &args.trace_out {
            let subdir = dir.join(format!("shards-{shards}"));
            for (id, tree) in &trees {
                let paths = traceout::write_all(&subdir, id, tree)
                    .map_err(|e| format!("write traces for {id}: {e}"))?;
                println!(
                    "  wrote {} ({} spans)",
                    paths[0].display(),
                    tree.span_count()
                );
            }
        }

        match &reference {
            None => reference = Some((shards, digest)),
            Some((ref_shards, ref_digest)) => {
                if digest != *ref_digest {
                    mismatched = true;
                    eprintln!(
                        "shard matrix FAILED: result checksums differ between {ref_shards} \
                         and {shards} shard(s) — the sharded merge is not exact"
                    );
                }
            }
        }
    }
    if mismatched {
        Ok(ExitCode::FAILURE)
    } else {
        println!(
            "shard matrix PASSED: result checksums byte-identical across {:?} shard(s)",
            args.shards
        );
        Ok(ExitCode::SUCCESS)
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if !args.shards.is_empty() {
        return run_shard_matrix(&args);
    }
    let (report, trees) =
        smoke::run_all(args.trace_out.is_some()).map_err(|e| format!("smoke run failed: {e}"))?;
    let json = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
    std::fs::write(&args.out, &json).map_err(|e| format!("write {}: {e}", args.out.display()))?;
    println!("wrote {}", args.out.display());

    if let Some(dir) = &args.trace_out {
        for (id, tree) in &trees {
            let paths = traceout::write_all(dir, id, tree)
                .map_err(|e| format!("write traces for {id}: {e}"))?;
            println!("wrote {} ({} spans)", paths[0].display(), tree.span_count());
        }
    }

    if args.bless {
        if let Some(dir) = args.baseline.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(&args.baseline, &json)
            .map_err(|e| format!("write {}: {e}", args.baseline.display()))?;
        println!("blessed baseline {}", args.baseline.display());
        print!("{}", smoke::summary_table(&report, None));
        return Ok(ExitCode::SUCCESS);
    }

    let baseline = load_baseline(&args.baseline)?;
    print!("{}", smoke::summary_table(&report, baseline.as_ref()));

    let Some(baseline) = baseline else {
        println!(
            "no baseline at {} — run with --bless to create one",
            args.baseline.display()
        );
        // A missing baseline fails the gate: CI must never silently skip
        // the comparison.
        return Ok(if args.gate {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    };

    let comparison = regress::compare(&baseline, &report);
    let rendered = comparison.render();
    if !rendered.is_empty() {
        println!("{rendered}");
    }
    if comparison.passed() {
        println!(
            "gate PASSED ({} experiments, modeled costs and checksums exact)",
            report.experiments.len()
        );
        Ok(ExitCode::SUCCESS)
    } else {
        println!(
            "gate FAILED: {} issue(s); if intentional, refresh with --bless",
            comparison.issues.len()
        );
        Ok(if args.gate {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        })
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("bench-smoke: {message}");
            ExitCode::FAILURE
        }
    }
}
