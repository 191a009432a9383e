//! `lint-plans` — static validation gate over the smoke experiments.
//!
//! Re-runs every smoke experiment with pass-plan recording enabled
//! (bit-passive: identical results and modeled cost), feeds each
//! recorded plan to `gpudb-lint`, prints a per-experiment summary and
//! writes a machine-readable JSON report. Exit status is the gate:
//! error-severity findings always fail; `--strict` fails on warnings
//! too.
//!
//! ```text
//! lint-plans [--strict] [--out PATH] [--experiment ID]... [--self-test-broken]
//!            [--trace-out DIR]
//! ```
//!
//! `--trace-out DIR` additionally writes span-trace artifacts
//! (`<id>.trace.json` / `<id>.folded` / `<id>.spans.jsonl`) for each
//! linted experiment, so a lint finding can be read next to the
//! timeline of the passes that produced it.
//!
//! `--self-test-broken` checks the validator itself: it lints a
//! deliberately broken plan (an occlusion query that is never ended)
//! and exits successfully only if the expected diagnostic fires — CI
//! runs it so a silently toothless linter cannot pass the gate.

use gpudb_bench::smoke::{self, SCHEMA_VERSION, SMOKE_EXPERIMENTS};
use gpudb_bench::traceout;
use gpudb_lint::{Linter, Report};
use gpudb_sim::state::{ColorMask, PipelineState};
use gpudb_sim::trace::{DeviceCaps, DrawPass, PassOp, PassPlan};
use serde::Serialize;
use std::path::PathBuf;
use std::process::ExitCode;

/// Lint results for one smoke experiment.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct ExperimentLint {
    /// Experiment id, e.g. `fig4_range`.
    id: String,
    /// Number of pass plans the experiment recorded.
    plans: usize,
    /// Total draw calls across those plans.
    draws: usize,
    /// The lint report over the recorded plans.
    report: Report,
}

/// The full machine-readable `lint-plans` output.
#[derive(Debug, Clone, PartialEq, Serialize)]
struct LintPlansReport {
    /// Mirrors the smoke report schema version.
    schema_version: u32,
    /// Whether warnings fail the gate.
    strict: bool,
    /// One entry per linted experiment, in run order.
    experiments: Vec<ExperimentLint>,
    /// Error-severity findings across all experiments.
    errors: usize,
    /// Warning-severity findings across all experiments.
    warnings: usize,
}

struct Args {
    strict: bool,
    out: Option<PathBuf>,
    experiments: Vec<String>,
    self_test_broken: bool,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        strict: false,
        out: None,
        experiments: Vec::new(),
        self_test_broken: false,
        trace_out: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--strict" => args.strict = true,
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            "--experiment" => args.experiments.push(value("--experiment")?),
            "--self-test-broken" => args.self_test_broken = true,
            "--trace-out" => args.trace_out = Some(PathBuf::from(value("--trace-out")?)),
            "--help" | "-h" => {
                println!(
                    "lint-plans [--strict] [--out PATH] [--experiment ID]... \
                     [--self-test-broken] [--trace-out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}; see --help")),
        }
    }
    Ok(args)
}

/// A deliberately broken plan: the occlusion query is begun but never
/// ended, so L001 must fire. Used by `--self-test-broken`.
fn broken_plan() -> PassPlan {
    let caps = DeviceCaps {
        has_depth_bounds: true,
        has_depth_compare_mask: false,
    };
    let mut state = PipelineState {
        color_mask: ColorMask::NONE,
        ..PipelineState::default()
    };
    state.depth.write_enabled = false;
    let mut plan = PassPlan::new("self-test/unpaired-occlusion", caps);
    plan.ops.push(PassOp::BeginOcclusionQuery);
    plan.ops.push(PassOp::Draw(DrawPass {
        state,
        program: None,
        env0: [0.0; 4],
        depth: 0.5,
        rects: 1,
        occlusion_active: true,
    }));
    plan
}

fn self_test() -> ExitCode {
    let plan = broken_plan();
    let diags = Linter::new().lint(&plan);
    let fired = diags.iter().any(|d| d.rule == "L001");
    for d in &diags {
        println!("{}: {d}", plan.label);
    }
    if fired {
        println!(
            "self-test ok: broken plan produced {} diagnostic(s) including L001",
            diags.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("self-test FAILED: unpaired occlusion query was not flagged");
        ExitCode::FAILURE
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    if args.self_test_broken {
        return Ok(self_test());
    }

    let ids: Vec<String> = if args.experiments.is_empty() {
        SMOKE_EXPERIMENTS.iter().map(|s| s.to_string()).collect()
    } else {
        args.experiments.clone()
    };

    let linter = Linter::new();
    let mut experiments = Vec::with_capacity(ids.len());
    for id in &ids {
        let (_, plans, tree) =
            smoke::run_one_logged(id).map_err(|e| format!("experiment {id}: {e}"))?;
        let report = linter.lint_all(&plans);
        let draws = plans.iter().map(PassPlan::draw_count).sum();
        println!(
            "{id:<22} {:>3} plan(s) {:>5} draw(s)  {} error(s), {} warning(s)",
            plans.len(),
            draws,
            report.error_count(),
            report.warning_count()
        );
        for plan_report in &report.plans {
            for d in &plan_report.diagnostics {
                println!("  {}: {d}", plan_report.label);
            }
        }
        if let Some(dir) = &args.trace_out {
            let paths = traceout::write_all(dir, id, &tree)
                .map_err(|e| format!("write traces for {id}: {e}"))?;
            println!(
                "  wrote {} ({} spans)",
                paths[0].display(),
                tree.span_count()
            );
        }
        experiments.push(ExperimentLint {
            id: id.clone(),
            plans: plans.len(),
            draws,
            report,
        });
    }

    let errors: usize = experiments.iter().map(|e| e.report.error_count()).sum();
    let warnings: usize = experiments.iter().map(|e| e.report.warning_count()).sum();
    let report = LintPlansReport {
        schema_version: SCHEMA_VERSION,
        strict: args.strict,
        experiments,
        errors,
        warnings,
    };
    if let Some(out) = &args.out {
        let json = serde_json::to_string_pretty(&report).map_err(|e| format!("serialize: {e}"))?;
        std::fs::write(out, json).map_err(|e| format!("write {}: {e}", out.display()))?;
        println!("wrote {}", out.display());
    }

    let failed = errors > 0 || (args.strict && warnings > 0);
    if failed {
        println!(
            "lint gate FAILED: {errors} error(s), {warnings} warning(s){}",
            if args.strict { " (strict)" } else { "" }
        );
        Ok(ExitCode::FAILURE)
    } else {
        println!(
            "lint gate PASSED: {} experiment(s), {warnings} warning(s)",
            report.experiments.len()
        );
        Ok(ExitCode::SUCCESS)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("lint-plans: {message}");
            ExitCode::FAILURE
        }
    }
}
