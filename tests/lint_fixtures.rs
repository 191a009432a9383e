//! Known-bad pass-plan fixtures, one per lint rule.
//!
//! Each JSON file under `tests/lint_fixtures/` holds a plan that
//! violates exactly one paper-routine invariant, plus the rule id it is
//! expected to trigger. The test asserts the linter fires that rule —
//! and nothing else — on every fixture, and that all ten rules are
//! covered. The fixtures double as a serialization-format regression
//! test for the `PassPlan` IR.
//!
//! To regenerate the files after an IR change:
//!
//! ```text
//! cargo test --test lint_fixtures -- --ignored regenerate_fixtures
//! ```

mod common;

use gpudb_lint::Linter;
use gpudb_sim::state::{ColorMask, CompareFunc, PipelineState, StencilOp};
use gpudb_sim::trace::{DeviceCaps, DrawPass, PassOp, PassPlan, ProgramInfo};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// One fixture file: the rule expected to fire, and the plan that
/// violates it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Fixture {
    expect_rule: String,
    plan: PassPlan,
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/lint_fixtures")
}

/// NV35-style caps: depth bounds present, compare mask absent.
fn nv35() -> DeviceCaps {
    DeviceCaps {
        has_depth_bounds: true,
        has_depth_compare_mask: false,
    }
}

/// A fixed-function draw with every write masked off — the neutral
/// starting point each fixture perturbs in exactly one way.
fn masked_draw() -> DrawPass {
    let mut state = PipelineState {
        color_mask: ColorMask::NONE,
        ..PipelineState::default()
    };
    state.depth.write_enabled = false;
    DrawPass {
        state,
        program: None,
        env0: [0.0; 4],
        depth: 0.5,
        rects: 1,
        occlusion_active: false,
    }
}

/// Build all ten known-bad plans. Each violates its own rule and stays
/// clean under the other nine, so a fixture pins down one diagnostic.
fn known_bad_plans() -> Vec<Fixture> {
    let mut fixtures = Vec::new();
    let mut add = |rule: &str, plan: PassPlan| {
        fixtures.push(Fixture {
            expect_rule: rule.to_string(),
            plan,
        });
    };

    // L001: an occlusion query begun and never ended. No draw at all,
    // so no per-draw rule can fire alongside it.
    let mut plan = PassPlan::new("fixture/unpaired-occlusion", nv35());
    plan.ops.push(PassOp::BeginOcclusionQuery);
    add("L001", plan);

    // L002: the count is read while the query is still active. The
    // query itself is properly paired (keeps L001 quiet) and the draw
    // feeds it (keeps L010 quiet).
    let mut plan = PassPlan::new("fixture/occlusion-read-hazard", nv35());
    plan.ops.push(PassOp::BeginOcclusionQuery);
    let mut pass = masked_draw();
    pass.occlusion_active = true;
    plan.ops.push(PassOp::Draw(pass));
    plan.ops.push(PassOp::ReadOcclusionResult);
    plan.ops.push(PassOp::EndOcclusionQuery { sync: true });
    add("L002", plan);

    // L003: a comparison pass (depth test Greater) with depth writes
    // left on — the draw overwrites the attributes it compares against.
    // The depth write keeps the pass observable (no L010); the color
    // mask is off (no L004).
    let mut plan = PassPlan::new("fixture/compare-depth-write", nv35());
    let mut pass = masked_draw();
    pass.state.depth.test_enabled = true;
    pass.state.depth.func = CompareFunc::Greater;
    pass.state.depth.write_enabled = true;
    plan.ops.push(PassOp::Draw(pass));
    add("L003", plan);

    // L004: a counting pass (depth test can fail) with the default
    // all-channels color mask still enabled. Depth writes stay off so
    // L003 cannot fire; the color write keeps the pass alive (no L010).
    let mut plan = PassPlan::new("fixture/color-mask-enabled", nv35());
    let mut pass = masked_draw();
    pass.state.color_mask = ColorMask::default();
    pass.state.depth.test_enabled = true;
    pass.state.depth.func = CompareFunc::Greater;
    plan.ops.push(PassOp::Draw(pass));
    add("L004", plan);

    // L005: the buffer is cleared to 2 (should be 1) and an Incr pass
    // pushes it to 3, escaping the {0, 1, 2} CNF encoding. The clear
    // keeps L006 quiet; the stencil write keeps L010 quiet; func Always
    // means the stencil test is not a counting test (no L004).
    let mut plan = PassPlan::new("fixture/stencil-encoding-overflow", nv35());
    plan.ops.push(PassOp::ClearStencil { value: 2 });
    let mut pass = masked_draw();
    pass.state.stencil.enabled = true;
    pass.state.stencil.func = CompareFunc::Always;
    pass.state.stencil.op_zpass = StencilOp::Incr;
    plan.ops.push(PassOp::Draw(pass));
    add("L005", plan);

    // L006: a stencil-writing pass with no ClearStencil anywhere in the
    // plan. The write must be value-*dependent* (`Incr`) — a full-mask
    // `Replace` under func Always would *establish* the buffer and is
    // legal under the fused protocol. L005 stays quiet because its value
    // tracking only starts at a clear or an establishing pass; the
    // stencil write keeps L010 quiet.
    let mut plan = PassPlan::new("fixture/stencil-write-without-clear", nv35());
    let mut pass = masked_draw();
    pass.state.stencil.enabled = true;
    pass.state.stencil.func = CompareFunc::Always;
    pass.state.stencil.op_zpass = StencilOp::Incr;
    plan.ops.push(PassOp::Draw(pass));
    add("L006", plan);

    // L007: a quad drawn at depth 1.5 — a constant that overflowed the
    // 24-bit encoding. The depth write keeps the pass alive, and with
    // the depth test disabled L003 cannot fire.
    let mut plan = PassPlan::new("fixture/depth-out-of-range", nv35());
    let mut pass = masked_draw();
    pass.depth = 1.5;
    pass.state.depth.write_enabled = true;
    plan.ops.push(PassOp::Draw(pass));
    add("L007", plan);

    // L008: a TestBit pass whose scale 0.5^26 selects bit 25, outside
    // the 24-bit attribute width. The occlusion query keeps the pass
    // alive; the color mask is off (no L004 despite the alpha test).
    let mut plan = PassPlan::new("fixture/testbit-out-of-range", nv35());
    let mut pass = masked_draw();
    pass.program = Some(ProgramInfo {
        name: "TestBit".to_string(),
        instructions: 5,
        writes_depth: false,
        has_kil: false,
    });
    pass.env0 = [0.5f32.powi(26), 0.0, 0.0, 0.0];
    pass.state.alpha.enabled = true;
    pass.state.alpha.func = CompareFunc::GreaterEqual;
    pass.state.alpha.reference = 0.5;
    pass.occlusion_active = true;
    plan.ops.push(PassOp::Draw(pass));
    add("L008", plan);

    // L009: the depth-bounds test on a device without
    // EXT_depth_bounds_test. The bounds themselves are a valid
    // subrange of [0, 1] (no L007) and the occlusion query keeps the
    // pass alive.
    let mut plan = PassPlan::new(
        "fixture/depth-bounds-unsupported",
        DeviceCaps {
            has_depth_bounds: false,
            has_depth_compare_mask: false,
        },
    );
    let mut pass = masked_draw();
    pass.state.depth_bounds.enabled = true;
    pass.state.depth_bounds.min = 0.1;
    pass.state.depth_bounds.max = 0.9;
    pass.occlusion_active = true;
    plan.ops.push(PassOp::Draw(pass));
    add("L009", plan);

    // L010: the canonical dead pass — no occlusion query and every
    // write masked off. Warning severity.
    let mut plan = PassPlan::new("fixture/dead-pass", nv35());
    plan.ops.push(PassOp::Draw(masked_draw()));
    add("L010", plan);

    fixtures
}

fn fixture_path(rule: &str) -> PathBuf {
    fixtures_dir().join(format!("{rule}.json"))
}

// ---------------------------------------------------------------------
// Fused-plan fixtures
// ---------------------------------------------------------------------
//
// The pass-fusion optimizer replaces the CNF selection prologue: instead
// of `ClearStencil` + per-clause passes, the first clause *establishes*
// the stencil buffer (func Always, full write mask, `Replace`/`Zero`
// ops) and later clauses reuse the depth buffer when they share the
// attribute. These fixtures are known-bad *fused* plans — each breaks
// the fused protocol in exactly one way — pinning down that the lint
// rules still police the fused shapes. L007/L008/L009 are not
// applicable: fusion never touches depth encoding, `TestBit` scales, or
// the depth-bounds test.

/// The rules the fused protocol can violate.
const FUSED_RULES: [&str; 7] = ["L001", "L002", "L003", "L004", "L005", "L006", "L010"];

/// The fused protocol's establishing first-clause pass: stencil test
/// Always with full write mask and value-independent ops (`Replace` on
/// pass, `Zero` on depth-fail), reference `SELECTED = 1`, the clause
/// predicate on the depth test, writes off.
fn fused_establishing_draw() -> DrawPass {
    let mut pass = masked_draw();
    pass.state.stencil.enabled = true;
    pass.state.stencil.func = CompareFunc::Always;
    pass.state.stencil.reference = 1;
    pass.state.stencil.write_mask = 0xFF;
    pass.state.stencil.op_fail = StencilOp::Keep;
    pass.state.stencil.op_zfail = StencilOp::Zero;
    pass.state.stencil.op_zpass = StencilOp::Replace;
    pass.state.depth.test_enabled = true;
    pass.state.depth.func = CompareFunc::Greater;
    pass
}

/// The fused protocol's final count pass: read-only stencil mask
/// (`== SELECTED`, all ops `Keep`) under an occlusion query.
fn fused_count_draw() -> DrawPass {
    let mut pass = masked_draw();
    pass.state.stencil.enabled = true;
    pass.state.stencil.func = CompareFunc::Equal;
    pass.state.stencil.reference = 1;
    pass.state.stencil.op_fail = StencilOp::Keep;
    pass.state.stencil.op_zfail = StencilOp::Keep;
    pass.state.stencil.op_zpass = StencilOp::Keep;
    pass.occlusion_active = true;
    pass
}

/// Known-bad fused plans, one per applicable rule. Each violates its own
/// rule and stays clean under the other nine.
fn fused_known_bad_plans() -> Vec<Fixture> {
    let mut fixtures = Vec::new();
    let mut add = |rule: &str, plan: PassPlan| {
        fixtures.push(Fixture {
            expect_rule: rule.to_string(),
            plan,
        });
    };

    // L001: the fused count's occlusion query begun, never ended.
    let mut plan = PassPlan::new("fused/unpaired-occlusion", nv35());
    plan.ops.push(PassOp::Draw(fused_establishing_draw()));
    plan.ops.push(PassOp::BeginOcclusionQuery);
    add("L001", plan);

    // L002: the fused count read while its query is still active.
    let mut plan = PassPlan::new("fused/occlusion-read-hazard", nv35());
    plan.ops.push(PassOp::Draw(fused_establishing_draw()));
    plan.ops.push(PassOp::BeginOcclusionQuery);
    plan.ops.push(PassOp::Draw(fused_count_draw()));
    plan.ops.push(PassOp::ReadOcclusionResult);
    plan.ops.push(PassOp::EndOcclusionQuery { sync: true });
    add("L002", plan);

    // L003: an establishing clause pass with depth writes left on — the
    // fused Compare would overwrite the attribute it compares.
    let mut plan = PassPlan::new("fused/compare-depth-write", nv35());
    let mut pass = fused_establishing_draw();
    pass.state.depth.write_enabled = true;
    plan.ops.push(PassOp::Draw(pass));
    add("L003", plan);

    // L004: an establishing clause pass that still shades color.
    let mut plan = PassPlan::new("fused/color-mask-enabled", nv35());
    let mut pass = fused_establishing_draw();
    pass.state.color_mask = ColorMask::default();
    plan.ops.push(PassOp::Draw(pass));
    add("L004", plan);

    // L005: an establishing pass writing reference 3 — the established
    // value escapes the {0, 1, 2} clause encoding.
    let mut plan = PassPlan::new("fused/stencil-encoding-overflow", nv35());
    let mut pass = fused_establishing_draw();
    pass.state.stencil.reference = 3;
    plan.ops.push(PassOp::Draw(pass));
    add("L005", plan);

    // L006: a first clause with a partial write mask — it no longer
    // *establishes* the buffer, so with the clear collapsed away the
    // write lands on undefined contents.
    let mut plan = PassPlan::new("fused/partial-establish", nv35());
    let mut pass = fused_establishing_draw();
    pass.state.stencil.write_mask = 0x0F;
    plan.ops.push(PassOp::Draw(pass));
    add("L006", plan);

    // L010: a fused mask consumer with its occlusion query dropped —
    // read-only stencil, no writes, nothing observes it.
    let mut plan = PassPlan::new("fused/dead-count", nv35());
    let mut pass = fused_count_draw();
    pass.occlusion_active = false;
    plan.ops.push(PassOp::Draw(pass));
    add("L010", plan);

    fixtures
}

fn fused_fixture_path(rule: &str) -> PathBuf {
    fixtures_dir().join(format!("fused-{rule}.json"))
}

/// Every fixture on disk produces at least one diagnostic of its
/// expected rule and no diagnostics of any other rule, and the ten
/// files cover all ten rules.
#[test]
fn fixtures_trigger_exactly_their_rule() {
    let linter = Linter::new();
    let mut covered = Vec::new();
    for expected in known_bad_plans() {
        let path = fixture_path(&expected.expect_rule);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (regenerate with `cargo test --test lint_fixtures -- \
                 --ignored regenerate_fixtures`)",
                path.display()
            )
        });
        let fixture: Fixture =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        let diags = linter.lint(&fixture.plan);
        assert!(
            !diags.is_empty(),
            "{}: expected {} to fire, plan was clean",
            path.display(),
            fixture.expect_rule
        );
        for d in &diags {
            assert_eq!(
                d.rule,
                fixture.expect_rule,
                "{}: unexpected extra diagnostic: {d}",
                path.display()
            );
        }
        covered.push(fixture.expect_rule);
    }
    covered.sort();
    covered.dedup();
    assert_eq!(covered.len(), 10, "fixtures must cover all ten rules");
}

/// The checked-in JSON matches what the in-repo constructors produce —
/// a drift guard between the fixtures and the `PassPlan` IR.
#[test]
fn fixtures_match_generated_plans() {
    for expected in known_bad_plans() {
        let path = fixture_path(&expected.expect_rule);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let on_disk: Fixture =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        assert_eq!(
            on_disk,
            expected,
            "{}: stale fixture; regenerate with `cargo test --test lint_fixtures -- \
             --ignored regenerate_fixtures`",
            path.display()
        );
    }
}

/// Rewrite `tests/lint_fixtures/*.json` from the constructors above.
#[test]
#[ignore = "writes tests/lint_fixtures/*.json; run explicitly after an IR change"]
fn regenerate_fixtures() {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for fixture in known_bad_plans() {
        let path = fixture_path(&fixture.expect_rule);
        let json = serde_json::to_string_pretty(&fixture).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        println!("wrote {}", path.display());
    }
}

/// Every fused fixture on disk fires exactly its expected rule, and the
/// set covers every rule the fused protocol can violate.
#[test]
fn fused_fixtures_trigger_exactly_their_rule() {
    let linter = Linter::new();
    let mut covered = Vec::new();
    for expected in fused_known_bad_plans() {
        let path = fused_fixture_path(&expected.expect_rule);
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e} (regenerate with `cargo test --test lint_fixtures -- \
                 --ignored regenerate_fused_fixtures`)",
                path.display()
            )
        });
        let fixture: Fixture =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        let diags = linter.lint(&fixture.plan);
        assert!(
            !diags.is_empty(),
            "{}: expected {} to fire, plan was clean",
            path.display(),
            fixture.expect_rule
        );
        for d in &diags {
            assert_eq!(
                d.rule,
                fixture.expect_rule,
                "{}: unexpected extra diagnostic: {d}",
                path.display()
            );
        }
        covered.push(fixture.expect_rule);
    }
    covered.sort();
    covered.dedup();
    assert_eq!(
        covered,
        FUSED_RULES.map(String::from).to_vec(),
        "fused fixtures must cover every rule the fused protocol can trip"
    );
}

/// The checked-in fused JSON matches the in-repo constructors.
#[test]
fn fused_fixtures_match_generated_plans() {
    for expected in fused_known_bad_plans() {
        let path = fused_fixture_path(&expected.expect_rule);
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let on_disk: Fixture =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e:?}", path.display()));
        assert_eq!(
            on_disk,
            expected,
            "{}: stale fixture; regenerate with `cargo test --test lint_fixtures -- \
             --ignored regenerate_fused_fixtures`",
            path.display()
        );
    }
}

/// Rewrite `tests/lint_fixtures/fused-*.json` from the constructors.
#[test]
#[ignore = "writes tests/lint_fixtures/fused-*.json; run explicitly after an IR change"]
fn regenerate_fused_fixtures() {
    let dir = fixtures_dir();
    std::fs::create_dir_all(&dir).unwrap();
    for fixture in fused_known_bad_plans() {
        let path = fused_fixture_path(&fixture.expect_rule);
        let json = serde_json::to_string_pretty(&fixture).unwrap();
        std::fs::write(&path, json + "\n").unwrap();
        println!("wrote {}", path.display());
    }
}

/// The closing of the loop: the *real* fusion optimizer can never emit
/// a plan that trips any rule, at any severity. Every query shape of the
/// differential suites is executed with fusion on and a log attached;
/// the logged plans must be spotless.
#[test]
fn fused_optimizer_never_emits_tripping_plans() {
    use gpudb::prelude::*;
    let linter = Linter::new();
    for seed in [0u64, 3, 11, 23, 42] {
        let host = common::workload(seed);
        for (shape, query) in common::query_shapes(seed).into_iter().enumerate() {
            let mut gpu = GpuTable::device_for(host.record_count(), 16);
            let table = host.upload(&mut gpu).expect("upload");
            gpu.attach_log(gpudb::sim::RecordMode::RecordAndExecute);
            let result = execute_with_options(
                &mut gpu,
                &table,
                &query,
                ExecuteOptions {
                    fuse_passes: true,
                    ..ExecuteOptions::default()
                },
            );
            let plans = gpu.take_log().expect("log attached").plans_since(0);
            result.unwrap_or_else(|e| panic!("seed {seed} shape {shape}: fused execute: {e}"));
            let report = linter.lint_all(&plans);
            if !report.is_clean() {
                let mut rendered = String::new();
                for plan_report in &report.plans {
                    for d in &plan_report.diagnostics {
                        rendered.push_str(&format!("  {}: {d}\n", plan_report.label));
                    }
                }
                panic!("seed {seed} shape {shape}: fused plans trip lint:\n{rendered}");
            }
        }
    }
}

/// The pass plans the fused conjunction query records with validation
/// on are pinned byte for byte, as their serde JSON.
#[test]
fn fused_conjunction_plans_match_golden() {
    use gpudb::prelude::*;
    let (mut gpu, table) = common::golden_table();
    gpu.attach_log(gpudb::sim::RecordMode::RecordAndExecute);
    let result = execute_with_options(
        &mut gpu,
        &table,
        &common::conjunction_query(),
        ExecuteOptions {
            validate_plans: true,
            fuse_passes: true,
            ..ExecuteOptions::default()
        },
    );
    let plans = gpu.take_log().expect("log attached").plans_since(0);
    result.expect("validated execute");
    let json = serde_json::to_string_pretty(&plans).expect("plans serialize");
    common::assert_golden("plans_cnf_conjunction.json", &json);
}
