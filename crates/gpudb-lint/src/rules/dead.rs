//! Dead-pass detection (L010).

use super::{diag, draws, stencil_write_possible};
use crate::{Diagnostic, Rule, Severity};
use gpudb_sim::trace::PassPlan;

/// **L010** — every pass must have an observable effect.
///
/// Each draw in the paper's routines produces its result through one of
/// four channels: an active occlusion query (the counting routines), a
/// depth write (`CopyToDepth` §5.4), a stencil write (the selection
/// protocol of §4.3), or a color write (the mipmap feedback path). A
/// draw with the occlusion query inactive and every write
/// masked off renders fragments nothing can ever consume — it burns a
/// full pass of modeled fill rate for no observable effect, usually
/// because a query begin or a write-enable was dropped. Severity is
/// [`Severity::Warning`]: the pass is useless rather than wrong.
///
/// ```
/// use gpudb_lint::Linter;
/// use gpudb_sim::state::{ColorMask, PipelineState};
/// use gpudb_sim::trace::{DeviceCaps, DrawPass, PassOp, PassPlan};
///
/// let caps = DeviceCaps { has_depth_bounds: true, has_depth_compare_mask: false };
/// let mut state = PipelineState { color_mask: ColorMask::NONE, ..Default::default() };
/// state.depth.write_enabled = false; // no depth write, no stencil, no query
/// let mut plan = PassPlan::new("predicate/compare_count", caps);
/// plan.ops.push(PassOp::Draw(DrawPass {
///     state, program: None, env0: [0.0; 4], depth: 0.5, rects: 1,
///     occlusion_active: false, // forgot begin_occlusion_query!
/// }));
/// let diags = Linter::new().lint(&plan);
/// assert!(diags.iter().any(|d| d.rule == "L010"));
/// ```
pub struct L010DeadPass;

impl Rule for L010DeadPass {
    fn id(&self) -> &'static str {
        "L010"
    }

    fn description(&self) -> &'static str {
        "passes must write something or feed an occlusion query"
    }

    fn default_severity(&self) -> Severity {
        Severity::Warning
    }

    fn check(&self, plan: &PassPlan, out: &mut Vec<Diagnostic>) {
        for (i, pass) in draws(plan) {
            let observable = pass.occlusion_active
                || pass.state.color_mask.any()
                || pass.state.depth.write_enabled
                || stencil_write_possible(&pass.state.stencil);
            if !observable {
                out.push(diag(
                    self,
                    i,
                    "draw has no observable effect: no occlusion query, and color, depth and \
                     stencil writes are all masked off",
                    "begin an occlusion query or enable the write the pass exists to perform",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{masked_draw, plan};
    use super::*;
    use crate::Linter;
    use gpudb_sim::state::StencilOp;
    use gpudb_sim::trace::PassOp;

    #[test]
    fn fully_masked_draw_is_dead() {
        let mut p = plan();
        p.ops.push(PassOp::Draw(masked_draw()));
        let diags = Linter::new().lint(&p);
        assert!(diags.iter().any(|d| d.rule == "L010"));
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn each_observable_channel_keeps_a_pass_alive() {
        let mut query = masked_draw();
        query.occlusion_active = true;
        let mut depth = masked_draw();
        depth.state.depth.write_enabled = true;
        let mut stencil = masked_draw();
        stencil.state.stencil.enabled = true;
        stencil.state.stencil.op_zpass = StencilOp::Replace;
        for pass in [query, depth, stencil] {
            let mut p = plan();
            p.ops.push(PassOp::ClearStencil { value: 0 });
            p.ops.push(PassOp::Draw(pass));
            let diags = Linter::new().lint(&p);
            assert!(!diags.iter().any(|d| d.rule == "L010"), "{diags:?}");
        }
    }
}
