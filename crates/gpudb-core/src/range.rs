//! Range queries via `EXT_depth_bounds_test` — the paper's `Range`
//! (Routine 4.4).
//!
//! `low <= x <= high` is a two-predicate CNF, but the depth-bounds test
//! evaluates both comparisons against the *stored* depth in a single
//! fixed-function pass, which is why the paper finds "the computational
//! time for our algorithm in evaluating Range is comparable to the time
//! required in evaluating a single predicate" (§4.2).

use crate::error::EngineResult;
use crate::ops::encode_depth_f64;
use crate::predicate::{comparison_pass, copy_to_depth, OcclusionMode};
use crate::selection::{Selection, SELECTED};
use crate::table::GpuTable;
use gpudb_sim::state::ColorMask;
use gpudb_sim::{CompareFunc, Gpu, Phase, StencilOp};

/// Evaluate `low <= column <= high` (inclusive), materializing a
/// [`Selection`] that carries the match count from the same pass.
///
/// Routine 4.4: set up the stencil, copy the attribute into the depth
/// buffer, set the depth bounds from `[low, high]`, and render one quad
/// with the bounds test enabled. The stencil is 1 for attributes passing
/// the range and 0 otherwise.
pub fn range_select(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    low: u32,
    high: u32,
) -> EngineResult<Selection> {
    // An inverted range is empty by host arithmetic, and
    // EXT_depth_bounds_test rejects zmin > zmax (glDepthBoundsEXT raises
    // INVALID_VALUE). Decide *before* any device work: the answer is a
    // const-empty selection, so the stage is genuinely zero-cost yet
    // still emits its MetricsRecord from the executor.
    if low > high {
        return Ok(Selection::const_empty(table));
    }

    // Line 1: SetupStencil.
    gpu.set_phase(Phase::Compute);
    gpu.reset_state();
    gpu.clear_stencil(0);

    // Line 2: CopyToDepth.
    copy_to_depth(gpu, table, column)?;

    // Routine 4.4 needs EXT_depth_bounds_test; on hardware without it
    // ("In the absence of this test, we can use the depth test to compute
    // the range query using two passes") degrade to the two-pass form.
    if !gpu.profile().has_depth_bounds {
        return range_select_two_pass(gpu, table, low, high);
    }

    // Lines 3-6: depth bounds from [low, high]; quad at depth `low`; the
    // depth test itself stays disabled (the bounds test inspects the stored
    // attribute, the quad's own depth is irrelevant).
    gpu.set_phase(Phase::Compute);
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    gpu.set_depth_bounds(true, encode_depth_f64(low), encode_depth_f64(high))?;
    gpu.set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
    gpu.begin_occlusion_query()?;
    gpu.draw_quad(table.rects(), encode_depth_f64(low) as f32)?;
    let count = gpu.end_occlusion_query_async()?;
    gpu.reset_state();
    Ok(Selection::over_table(table, count))
}

/// The paper's degraded Range for hardware without depth-bounds: two
/// ordinary depth-test comparison passes over the stored attribute.
///
/// Pass 1 stamps stencil = [`SELECTED`] where `x >= low`; pass 2 keeps the
/// stamp only where `x <= high` (zfail zeroes it) while an occlusion query
/// counts the fragments passing both tests — the final match count. Same
/// result, one extra pass: exactly the cost Routine 4.4 exists to avoid.
///
/// Expects the stencil cleared and the attribute already in the depth
/// buffer.
fn range_select_two_pass(
    gpu: &mut Gpu,
    table: &GpuTable,
    low: u32,
    high: u32,
) -> EngineResult<Selection> {
    gpu.set_phase(Phase::Compute);
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_write(false);

    // Pass 1: x >= low → stencil := SELECTED.
    gpu.set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
    comparison_pass(
        gpu,
        table,
        CompareFunc::GreaterEqual,
        low,
        OcclusionMode::None,
    )?;

    // Pass 2: among stamped records, x > high → stencil := 0; the
    // occlusion query counts stencil-and-depth survivors.
    gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Zero, StencilOp::Keep);
    let count = comparison_pass(
        gpu,
        table,
        CompareFunc::LessEqual,
        high,
        OcclusionMode::Async,
    )?;
    gpu.reset_state();
    Ok(Selection::over_table(table, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boolean::{eval_cnf_select, GpuCnf, GpuPredicate};
    use gpudb_sim::CompareFunc::{GreaterEqual, LessEqual};

    fn setup(values: &[u32]) -> (Gpu, GpuTable) {
        let mut gpu = GpuTable::device_for(values.len(), 5);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", values)]).unwrap();
        (gpu, t)
    }

    #[test]
    fn range_matches_reference() {
        let values: Vec<u32> = (0..100).map(|i| (i * 37) % 90).collect();
        let (mut gpu, t) = setup(&values);
        let sel = range_select(&mut gpu, &t, 0, 20, 60).unwrap();
        let expected: Vec<bool> = values.iter().map(|&v| (20..=60).contains(&v)).collect();
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), expected);
        assert_eq!(
            sel.matched(),
            expected.iter().filter(|&&b| b).count() as u64
        );
    }

    #[test]
    fn bounds_are_inclusive() {
        let values = vec![9u32, 10, 11, 49, 50, 51];
        let (mut gpu, t) = setup(&values);
        let sel = range_select(&mut gpu, &t, 0, 10, 50).unwrap();
        assert_eq!(sel.matched(), 4);
        assert_eq!(
            sel.read_mask(&mut gpu).unwrap(),
            vec![false, true, true, true, true, false]
        );
    }

    #[test]
    fn range_agrees_with_cnf_formulation() {
        // §4.2: Range(x, low, high) ≡ (x >= low) AND (x <= high) via
        // EvalCNF — the depth-bounds path must produce the identical
        // selection.
        let values: Vec<u32> = (0..200).map(|i| (i * 7919) % 3000).collect();
        for (low, high) in [(0u32, 2999u32), (500, 1500), (100, 100), (2999, 2999)] {
            let (mut gpu, t) = setup(&values);
            let sel_range = range_select(&mut gpu, &t, 0, low, high).unwrap();
            let mask_range = sel_range.read_mask(&mut gpu).unwrap();

            let cnf = GpuCnf::all_of(vec![
                GpuPredicate::new(0, GreaterEqual, low),
                GpuPredicate::new(0, LessEqual, high),
            ]);
            let sel_cnf = eval_cnf_select(&mut gpu, &t, &cnf, true).unwrap();
            assert_eq!(
                mask_range,
                sel_cnf.read_mask(&mut gpu).unwrap(),
                "[{low}, {high}]"
            );
            assert_eq!(sel_range.matched(), sel_cnf.matched());
        }
    }

    #[test]
    fn range_uses_fewer_passes_than_cnf() {
        // The whole point of the depth-bounds path: one comparison pass
        // instead of two Compare invocations (two copies + two quads).
        let values: Vec<u32> = (0..100).collect();
        let (mut gpu, t) = setup(&values);
        gpu.reset_stats();
        range_select(&mut gpu, &t, 0, 10, 90).unwrap();
        let range_copies = gpu.stats().fragments_shaded;
        let range_modeled = gpu.stats().modeled_total();

        gpu.reset_stats();
        let cnf = GpuCnf::all_of(vec![
            GpuPredicate::new(0, GreaterEqual, 10),
            GpuPredicate::new(0, LessEqual, 90),
        ]);
        eval_cnf_select(&mut gpu, &t, &cnf, false).unwrap();
        let cnf_copies = gpu.stats().fragments_shaded;
        let cnf_modeled = gpu.stats().modeled_total();

        assert_eq!(range_copies * 2, cnf_copies, "CNF copies the column twice");
        assert!(range_modeled < cnf_modeled);

        // Pass fusion elides the duplicate copy (both predicates read the
        // same column), but the depth-bounds path still wins on modeled
        // cost: one quad versus two comparison quads plus the count pass.
        gpu.reset_stats();
        eval_cnf_select(&mut gpu, &t, &cnf, true).unwrap();
        assert_eq!(
            gpu.stats().fragments_shaded,
            range_copies,
            "fusion copies the column once"
        );
        assert!(range_modeled < gpu.stats().modeled_total());
        assert!(gpu.stats().modeled_total() < cnf_modeled);
    }

    #[test]
    fn two_pass_fallback_matches_depth_bounds_path() {
        use gpudb_sim::HardwareProfile;
        let values: Vec<u32> = (0..200).map(|i| (i * 7919) % 3000).collect();
        let rows = values.len().div_ceil(5);
        for (low, high) in [(0u32, 2999u32), (500, 1500), (100, 100), (2999, 2999)] {
            let (mut gpu, t) = setup(&values);
            let sel = range_select(&mut gpu, &t, 0, low, high).unwrap();
            let mask = sel.read_mask(&mut gpu).unwrap();

            let mut degraded =
                Gpu::new(HardwareProfile::geforce_fx_5900_no_depth_bounds(), 5, rows);
            let t2 = GpuTable::upload(&mut degraded, "t", &[("a", &values)]).unwrap();
            let sel2 = range_select(&mut degraded, &t2, 0, low, high).unwrap();
            assert_eq!(sel2.matched(), sel.matched(), "[{low}, {high}]");
            assert_eq!(sel2.read_mask(&mut degraded).unwrap(), mask);
        }
    }

    #[test]
    fn two_pass_fallback_costs_an_extra_pass() {
        use gpudb_sim::HardwareProfile;
        let values: Vec<u32> = (0..100).collect();
        let (mut gpu, t) = setup(&values);
        gpu.reset_stats();
        range_select(&mut gpu, &t, 0, 10, 90).unwrap();
        let bounds_fragments = gpu.stats().fragments_generated;
        let bounds_modeled = gpu.stats().modeled_total();

        let mut degraded = Gpu::new(HardwareProfile::geforce_fx_5900_no_depth_bounds(), 5, 20);
        let t2 = GpuTable::upload(&mut degraded, "t", &[("a", &values)]).unwrap();
        degraded.reset_stats();
        range_select(&mut degraded, &t2, 0, 10, 90).unwrap();
        assert!(degraded.stats().fragments_generated > bounds_fragments);
        assert!(degraded.stats().modeled_total() > bounds_modeled);
    }

    #[test]
    fn inverted_range_is_zero_cost_and_const_empty() {
        let values = vec![5u32, 6, 7];
        let (mut gpu, t) = setup(&values);
        // Pollute the stencil: the short-circuit must not depend on (or
        // touch) device state.
        gpu.clear_stencil(SELECTED);
        let counters = gpu.stats().counters();
        let modeled = gpu.stats().modeled_total();
        let sel = range_select(&mut gpu, &t, 0, 7, 5).unwrap();
        assert_eq!(sel.matched(), 0);
        assert!(sel.is_const_empty());
        assert_eq!(gpu.stats().counters(), counters, "no device work");
        assert_eq!(gpu.stats().modeled_total(), modeled, "no modeled cost");
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), vec![false; 3]);
    }

    #[test]
    fn degenerate_range() {
        let values = vec![5u32, 6, 7];
        let (mut gpu, t) = setup(&values);
        // low > high selects nothing.
        let count = range_select(&mut gpu, &t, 0, 7, 5).unwrap().matched();
        assert_eq!(count, 0);
        // Point range selects exact matches.
        let count = range_select(&mut gpu, &t, 0, 6, 6).unwrap().matched();
        assert_eq!(count, 1);
    }

    #[test]
    fn full_domain_range_selects_all() {
        let values: Vec<u32> = (0..50).collect();
        let (mut gpu, t) = setup(&values);
        let sel = range_select(&mut gpu, &t, 0, 0, (1 << 24) - 1).unwrap();
        assert_eq!(sel.matched(), 50);
    }

    #[test]
    fn boundary_at_24_bits() {
        let max = (1u32 << 24) - 1;
        let values = vec![max - 2, max - 1, max];
        let (mut gpu, t) = setup(&values);
        let sel = range_select(&mut gpu, &t, 0, max - 1, max).unwrap();
        assert_eq!(sel.matched(), 2);
    }
}
