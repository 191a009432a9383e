//! Pass-plan intermediate representation.
//!
//! Every paper routine (Compare §4.1, Semilinear §4.2, EvalCNF §4.3,
//! Range §4.4, KthLargest §4.5, Accumulator §4.6) is a hand-assembled
//! sequence of pipeline-state mutations, draws, occlusion queries and
//! readbacks. This module is that sequence as a serializable IR — a
//! [`PassPlan`] of [`PassOp`]s — so static validators (`gpudb-lint`)
//! can check routine invariants *before* (or without) any fragment being
//! shaded. The device logs these ops into its [`crate::log::DeviceLog`],
//! and [`crate::log::DeviceLog::plans_since`] groups them into plans.

use crate::program::isa::FragmentProgram;
use crate::state::{ColorMask, CompareFunc, PipelineState, ScissorState, StencilOp};
use serde::{Deserialize, Serialize};

/// Snapshot of a bound fragment program, as seen by the validator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramInfo {
    /// Program name, extracted from the leading `# Name: ...` comment of
    /// the assembly source (or `"anonymous"` when absent).
    pub name: String,
    /// Decoded instruction count.
    pub instructions: usize,
    /// Whether the program writes `result.depth`.
    pub writes_depth: bool,
    /// Whether the program contains `KIL`.
    pub has_kil: bool,
}

impl ProgramInfo {
    /// Build a snapshot from an assembled program.
    pub fn of(program: &FragmentProgram) -> ProgramInfo {
        ProgramInfo {
            name: program.name.clone(),
            instructions: program.instructions.len(),
            writes_depth: program.writes_depth,
            has_kil: program.has_kil,
        }
    }
}

/// Extract a program's name from its assembly source: the first `#`
/// comment line, stripped of the marker and truncated at the first `:`.
/// `"# TestBit: alpha = frac(v / 2^(i+1))."` names the program `TestBit`.
pub fn program_name(source: &str) -> String {
    for line in source.lines() {
        let line = line.trim();
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim();
            let name = comment.split(':').next().unwrap_or(comment).trim();
            if !name.is_empty() {
                return name.to_string();
            }
        }
    }
    "anonymous".to_string()
}

/// One draw call, with the full pipeline state it was issued under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrawPass {
    /// Complete fixed-function state at draw time.
    pub state: PipelineState,
    /// The bound fragment program, if any.
    pub program: Option<ProgramInfo>,
    /// Snapshot of `program.env[0]` (`ENV_SCALE` by convention) — the
    /// bit-selection scale for `TestBit` accumulator passes.
    pub env0: [f32; 4],
    /// The quad depth passed to the draw.
    pub depth: f32,
    /// Number of rectangles rendered.
    pub rects: usize,
    /// Whether an occlusion query was active during the draw.
    pub occlusion_active: bool,
}

/// One recorded device operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PassOp {
    /// `set_depth_test`.
    SetDepthTest {
        /// Whether the depth test is enabled.
        enabled: bool,
        /// Depth comparison function.
        func: CompareFunc,
    },
    /// `set_depth_write`.
    SetDepthWrite {
        /// Whether depth writes are enabled.
        enabled: bool,
    },
    /// `set_stencil_func`.
    SetStencilFunc {
        /// Whether the stencil test is enabled.
        enabled: bool,
        /// Stencil comparison function.
        func: CompareFunc,
        /// Stencil reference value.
        reference: u8,
        /// Mask applied to both reference and stored value.
        value_mask: u8,
    },
    /// `set_stencil_op`.
    SetStencilOp {
        /// Op on stencil-test failure.
        fail: StencilOp,
        /// Op on depth-test failure.
        zfail: StencilOp,
        /// Op on depth-test pass.
        zpass: StencilOp,
    },
    /// `set_stencil_write_mask`.
    SetStencilWriteMask {
        /// Writable stencil bits.
        mask: u8,
    },
    /// `set_alpha_test`.
    SetAlphaTest {
        /// Whether the alpha test is enabled.
        enabled: bool,
        /// Alpha comparison function.
        func: CompareFunc,
        /// Alpha reference value.
        reference: f32,
    },
    /// `set_depth_bounds` (`EXT_depth_bounds_test`).
    SetDepthBounds {
        /// Whether the depth-bounds test is enabled.
        enabled: bool,
        /// Inclusive lower bound on stored depth.
        min: f64,
        /// Inclusive upper bound on stored depth.
        max: f64,
    },
    /// `set_depth_compare_mask` (§6.1 wishlist extension).
    SetDepthCompareMask {
        /// Bits of the 24-bit depth value compared.
        mask: u32,
    },
    /// `set_scissor`.
    SetScissor(ScissorState),
    /// `set_color_mask`.
    SetColorMask(ColorMask),
    /// `set_draw_color`.
    SetDrawColor {
        /// Flat RGBA primary color.
        color: [f32; 4],
    },
    /// `bind_program` / `bind_program_source`.
    BindProgram {
        /// Snapshot of the program, or `None` for fixed function.
        program: Option<ProgramInfo>,
    },
    /// `set_program_env`.
    SetProgramEnv {
        /// Parameter index.
        index: usize,
        /// Parameter value.
        value: [f32; 4],
    },
    /// `reset_state` — back to GL defaults.
    ResetState,
    /// `clear_color`.
    ClearColor,
    /// `clear_depth`.
    ClearDepth {
        /// Normalized clear depth.
        depth: f64,
    },
    /// `clear_stencil`.
    ClearStencil {
        /// Stencil clear value.
        value: u8,
    },
    /// `draw_quad` / `draw_full_quad`, with full state snapshot.
    Draw(DrawPass),
    /// `begin_occlusion_query`.
    BeginOcclusionQuery,
    /// `end_occlusion_query` (sync) or `end_occlusion_query_async`.
    EndOcclusionQuery {
        /// Whether the fetch drained the pipeline (synchronous).
        sync: bool,
    },
    /// A host read of an occlusion result outside the device API — used
    /// by hand-written plans/fixtures to model read-after-write hazards.
    /// The simulated device never emits this op itself (its
    /// `end_occlusion_query` both ends and reads).
    ReadOcclusionResult,
    /// `read_depth_buffer` / `read_depth_buffer_raw`.
    ReadDepthBuffer,
    /// `read_stencil_buffer`.
    ReadStencilBuffer,
    /// `read_color_buffer`.
    ReadColorBuffer,
}

/// Device capabilities relevant to plan validation, captured from the
/// hardware profile when a log is attached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCaps {
    /// Whether `EXT_depth_bounds_test` is available.
    pub has_depth_bounds: bool,
    /// Whether the §6.1 depth-compare-mask extension is available.
    pub has_depth_compare_mask: bool,
}

/// A labeled, ordered sequence of recorded device operations — one
/// operator's worth of passes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PassPlan {
    /// Operator label, e.g. `"predicate/compare_count"`.
    pub label: String,
    /// Capabilities of the device the plan was recorded on.
    pub caps: DeviceCaps,
    /// Recorded operations, in issue order.
    pub ops: Vec<PassOp>,
}

impl PassPlan {
    /// Create an empty plan.
    pub fn new(label: impl Into<String>, caps: DeviceCaps) -> PassPlan {
        PassPlan {
            label: label.into(),
            caps,
            ops: Vec::new(),
        }
    }

    /// Number of draw calls in the plan.
    pub fn draw_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, PassOp::Draw(_)))
            .count()
    }

    /// One [`DrawPass::summary`] line per draw in the plan, in order —
    /// the per-pass detail EXPLAIN and lint reports print under the
    /// plan headline.
    pub fn describe_passes(&self) -> Vec<String> {
        self.ops
            .iter()
            .filter_map(|op| match op {
                PassOp::Draw(pass) => Some(pass.summary()),
                _ => None,
            })
            .enumerate()
            .map(|(i, line)| format!("pass {}: {line}", i + 1))
            .collect()
    }
}

impl DrawPass {
    /// One-line summary of the fragment-test configuration this draw
    /// ran under: program, depth test/write, depth bounds, stencil,
    /// alpha, occlusion query and color writes. Disabled units are
    /// omitted.
    pub fn summary(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(p) = &self.program {
            parts.push(format!("program {}", p.name));
        }
        let d = &self.state.depth;
        if d.test_enabled || d.write_enabled {
            let test = if d.test_enabled {
                format!("test {:?}", d.func)
            } else {
                "test off".to_string()
            };
            let write = if d.write_enabled { "on" } else { "off" };
            parts.push(format!("depth({test}, write {write})"));
        }
        let b = &self.state.depth_bounds;
        if b.enabled {
            parts.push(format!("bounds[{:.6}, {:.6}]", b.min, b.max));
        }
        let s = &self.state.stencil;
        if s.enabled {
            parts.push(format!(
                "stencil({:?} ref={} ops {:?}/{:?}/{:?})",
                s.func, s.reference, s.op_fail, s.op_zfail, s.op_zpass
            ));
        }
        let a = &self.state.alpha;
        if a.enabled {
            parts.push(format!("alpha({:?} {})", a.func, a.reference));
        }
        if self.occlusion_active {
            parts.push("occlusion query".to_string());
        }
        if self.state.color_mask.any() {
            parts.push("color write".to_string());
        }
        if parts.is_empty() {
            parts.push("no tests, no writes".to_string());
        }
        format!(
            "draw {} rect(s) at z={}: {}",
            self.rects,
            self.depth,
            parts.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn caps() -> DeviceCaps {
        DeviceCaps {
            has_depth_bounds: true,
            has_depth_compare_mask: false,
        }
    }

    #[test]
    fn program_name_extraction() {
        assert_eq!(
            program_name("# CopyToDepth: fetch attribute.\nTEX R0;"),
            "CopyToDepth"
        );
        assert_eq!(program_name("# TestBit\nMOV R0;"), "TestBit");
        assert_eq!(program_name("MOV R0, R1;"), "anonymous");
        assert_eq!(program_name("#\n# Late: x\n"), "Late");
        // Assembly names the program once; snapshots copy that name.
        let testbit = crate::program::builtin::test_bit();
        assert_eq!(testbit.name, program_name(&testbit.source));
        assert_eq!(ProgramInfo::of(&testbit).name, "TestBit");
    }

    #[test]
    fn plan_round_trips_through_json() {
        let mut plan = PassPlan::new("roundtrip", caps());
        plan.ops.push(PassOp::ClearStencil { value: 1 });
        plan.ops.push(PassOp::SetDepthBounds {
            enabled: true,
            min: 0.25,
            max: 0.75,
        });
        plan.ops.push(PassOp::Draw(DrawPass {
            state: PipelineState::default(),
            program: Some(ProgramInfo {
                name: "CopyToDepth".into(),
                instructions: 3,
                writes_depth: true,
                has_kil: false,
            }),
            env0: [0.5, 0.0, 0.0, 0.0],
            depth: 0.25,
            rects: 1,
            occlusion_active: false,
        }));
        let json = serde_json::to_string(&plan).unwrap();
        let back: PassPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
        assert_eq!(back.draw_count(), 1);
    }
}
