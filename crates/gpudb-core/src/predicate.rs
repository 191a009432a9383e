//! Predicate evaluation via the depth test — the paper's `Compare`
//! (Routine 4.1) and `CopyToDepth`.
//!
//! A predicate `attribute op constant` is evaluated by copying the
//! attribute into the depth buffer with a fragment program and rendering a
//! screen-filling quad at the constant's depth with the depth comparison
//! configured; the result lands in the stencil buffer and/or an occlusion
//! query's pass count.

use crate::error::EngineResult;
use crate::ops::{depth_func_for_predicate, encode_depth, DEPTH_SCALE_INV_F32};
use crate::selection::{Selection, SELECTED};
use crate::table::GpuTable;
use gpudb_sim::program::builtin;
use gpudb_sim::state::ColorMask;
use gpudb_sim::{CompareFunc, Gpu, Phase, StencilOp};

/// Copy an attribute column into the depth buffer (the paper's
/// `CopyToDepth`, §5.4): bind the column's texture, run the 4-instruction
/// copy program over the record quad with depth writes enabled.
///
/// The stencil test is disabled for the copy pass so it cannot disturb a
/// selection being built (e.g. inside `EvalCNF`).
pub fn copy_to_depth(gpu: &mut Gpu, table: &GpuTable, column: usize) -> EngineResult<()> {
    let meta = table.column(column)?;
    let texture = table.texture_for(column)?;

    gpu.set_phase(Phase::CopyToDepth);
    gpu.reset_state();
    gpu.bind_texture(0, Some(texture))?;
    gpu.bind_program(Some(builtin::copy_to_depth()));
    gpu.set_program_env(builtin::ENV_SCALE, [DEPTH_SCALE_INV_F32, 0.0, 0.0, 0.0])?;
    gpu.set_program_env(
        builtin::ENV_CHANNEL,
        builtin::channel_selector(meta.channel),
    )?;
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(true);
    gpu.draw_quad(table.rects(), 0.0)?;
    gpu.bind_program(None);
    gpu.reset_state();
    Ok(())
}

/// How a comparison pass's occlusion count is retrieved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OcclusionMode {
    /// No occlusion query at all (e.g. inside `EvalCNF`, where the stencil
    /// carries the result).
    None,
    /// Asynchronous fetch: the count is a final result, its retrieval
    /// overlaps subsequent work (§5.3 — no added overhead).
    Async,
    /// Synchronous fetch: the next pass depends on the count, so the
    /// pipeline drains (the per-bit loop of `KthLargest`).
    Sync,
}

/// One depth-test comparison pass over attribute values already copied
/// into the depth buffer: renders the record quad at the constant's depth
/// with the predicate's depth function, leaving stencil state to the
/// caller, and returns the occlusion pass count (0 for
/// [`OcclusionMode::None`]).
///
/// This is the inner pass shared by the standalone predicate, `EvalCNF`
/// and `KthLargest` (which re-renders this pass once per bit without
/// re-copying).
pub fn comparison_pass(
    gpu: &mut Gpu,
    table: &GpuTable,
    op: CompareFunc,
    constant: u32,
    occlusion: OcclusionMode,
) -> EngineResult<u64> {
    gpu.set_phase(Phase::Compute);
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(true, depth_func_for_predicate(op));
    gpu.set_depth_write(false);
    if occlusion != OcclusionMode::None {
        gpu.begin_occlusion_query()?;
    }
    gpu.draw_quad(table.rects(), encode_depth(constant))?;
    match occlusion {
        OcclusionMode::None => Ok(0),
        OcclusionMode::Async => Ok(gpu.end_occlusion_query_async()?),
        OcclusionMode::Sync => Ok(gpu.end_occlusion_query()?),
    }
}

/// Evaluate `attribute op constant` and materialize the result as a
/// [`Selection`] (stencil = 1 on matching records) that carries the match
/// count from the same pass — the paper's observation in §5.11 that
/// selectivity comes for free with the selection.
pub fn compare_select(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    op: CompareFunc,
    constant: u32,
) -> EngineResult<Selection> {
    copy_to_depth(gpu, table, column)?;
    gpu.set_phase(Phase::Compute);
    gpu.clear_stencil(0);
    gpu.set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
    let count = comparison_pass(gpu, table, op, constant, OcclusionMode::Async)?;
    gpu.reset_state();
    Ok(Selection::over_table(table, count))
}

/// Evaluate `attribute op constant` and return only the match count —
/// copy, one comparison pass, one occlusion readback.
pub fn compare_count(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    op: CompareFunc,
    constant: u32,
) -> EngineResult<u64> {
    copy_to_depth(gpu, table, column)?;
    let count = comparison_pass(gpu, table, op, constant, OcclusionMode::Async)?;
    gpu.reset_state();
    Ok(count)
}

/// Evaluate many predicates over the *same* column with a single
/// `CopyToDepth`: the copy dominates a predicate's cost (Figure 3), so
/// batching amortizes it — `1 copy + n` fixed-function passes instead of
/// `n` copies + `n` passes. Returns the match count of each predicate.
pub fn compare_many(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    predicates: &[(CompareFunc, u32)],
) -> EngineResult<Vec<u64>> {
    copy_to_depth(gpu, table, column)?;
    let mut counts = Vec::with_capacity(predicates.len());
    for &(op, constant) in predicates {
        counts.push(comparison_pass(
            gpu,
            table,
            op,
            constant,
            OcclusionMode::Async,
        )?);
    }
    gpu.reset_state();
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpudb_sim::CompareFunc::*;

    fn setup(values: &[u32]) -> (Gpu, GpuTable) {
        let mut gpu = GpuTable::device_for(values.len(), 4);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", values)]).unwrap();
        (gpu, t)
    }

    #[test]
    fn all_operators_match_reference() {
        let values: Vec<u32> = vec![5, 17, 0, 42, 17, 9, 100, 3, 64, 17];
        for op in [Less, LessEqual, Greater, GreaterEqual, Equal, NotEqual] {
            for c in [0u32, 3, 17, 42, 1000] {
                let (mut gpu, t) = setup(&values);
                let sel = compare_select(&mut gpu, &t, 0, op, c).unwrap();
                let count = sel.matched();
                let expected: Vec<bool> = values.iter().map(|&v| op.eval(v, c)).collect();
                assert_eq!(
                    sel.read_mask(&mut gpu).unwrap(),
                    expected,
                    "op {op:?} c {c}"
                );
                assert_eq!(
                    count,
                    expected.iter().filter(|&&b| b).count() as u64,
                    "op {op:?} c {c}"
                );
                // The selection's own count agrees.
                assert_eq!(sel.count(&mut gpu).unwrap(), count);
            }
        }
    }

    #[test]
    fn boundary_values_at_24_bits() {
        let max = (1u32 << 24) - 1;
        let values = vec![0, 1, max - 1, max];
        let (mut gpu, t) = setup(&values);
        let sel = compare_select(&mut gpu, &t, 0, GreaterEqual, max).unwrap();
        assert_eq!(sel.matched(), 1);
        let sel = compare_select(&mut gpu, &t, 0, LessEqual, 0).unwrap();
        assert_eq!(sel.matched(), 1);
        let sel = compare_select(&mut gpu, &t, 0, Equal, max - 1).unwrap();
        assert_eq!(sel.matched(), 1);
        // Adjacent top-of-range values must not collapse.
        let sel = compare_select(&mut gpu, &t, 0, Greater, max - 1).unwrap();
        assert_eq!(sel.matched(), 1);
    }

    #[test]
    fn compare_count_equals_select_count() {
        let values: Vec<u32> = (0..100).map(|i| (i * 37) % 64).collect();
        let (mut gpu, t) = setup(&values);
        let c1 = compare_count(&mut gpu, &t, 0, Less, 32).unwrap();
        let c2 = compare_select(&mut gpu, &t, 0, Less, 32).unwrap().matched();
        assert_eq!(c1, c2);
        assert_eq!(c1, values.iter().filter(|&&v| v < 32).count() as u64);
    }

    #[test]
    fn second_column_comparison() {
        let a: Vec<u32> = vec![1; 8];
        let b: Vec<u32> = (0..8).collect();
        let mut gpu = GpuTable::device_for(8, 4);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("b", &b)]).unwrap();
        let sel = compare_select(&mut gpu, &t, 1, GreaterEqual, 5).unwrap();
        assert_eq!(sel.matched(), 3);
        assert_eq!(
            sel.read_indices(&mut gpu).unwrap(),
            vec![5, 6, 7],
            "channel selection must pick the right attribute"
        );
    }

    #[test]
    fn copy_to_depth_preserves_stencil() {
        let values: Vec<u32> = (0..10).collect();
        let (mut gpu, t) = setup(&values);
        gpu.clear_stencil(7);
        copy_to_depth(&mut gpu, &t, 0).unwrap();
        assert!(gpu.read_stencil_buffer().unwrap().iter().all(|&s| s == 7));
    }

    #[test]
    fn copy_places_attributes_in_depth_buffer() {
        let values: Vec<u32> = vec![3, 141, 59, 26, 535];
        let (mut gpu, t) = setup(&values);
        copy_to_depth(&mut gpu, &t, 0).unwrap();
        let raw = gpu.read_depth_buffer_raw().unwrap();
        assert_eq!(&raw[..5], &values[..]);
    }

    #[test]
    fn phases_attributed_copy_vs_compute() {
        let values: Vec<u32> = (0..100).collect();
        let (mut gpu, t) = setup(&values);
        gpu.reset_stats();
        compare_count(&mut gpu, &t, 0, Less, 50).unwrap();
        let stats = gpu.stats();
        assert!(stats.modeled.get(Phase::CopyToDepth) > 0);
        assert!(stats.modeled.get(Phase::Compute) > 0);
        assert!(
            stats.modeled.get(Phase::CopyToDepth) > stats.modeled.get(Phase::Compute),
            "the copy (5-cycle program) must dominate the fixed-function compare"
        );
    }

    #[test]
    fn compare_many_amortizes_the_copy() {
        let values: Vec<u32> = (0..200).map(|i| (i * 13) % 150).collect();
        let (mut gpu, t) = setup(&values);
        let predicates = [
            (Less, 50u32),
            (GreaterEqual, 100),
            (Equal, 13),
            (NotEqual, 13),
        ];
        gpu.reset_stats();
        let counts = compare_many(&mut gpu, &t, 0, &predicates).unwrap();
        // One copy + four comparison passes.
        assert_eq!(gpu.stats().draw_calls, 5);
        assert_eq!(gpu.stats().fragments_shaded, 200, "only the copy shades");
        for ((op, c), count) in predicates.iter().zip(&counts) {
            let expected = values.iter().filter(|&&v| op.eval(v, *c)).count() as u64;
            assert_eq!(*count, expected, "{op:?} {c}");
        }
        // Empty batch is a no-op beyond the copy.
        assert!(compare_many(&mut gpu, &t, 0, &[]).unwrap().is_empty());
    }

    #[test]
    fn empty_table_comparison() {
        let (mut gpu, t) = setup(&[]);
        let sel = compare_select(&mut gpu, &t, 0, Less, 10).unwrap();
        assert_eq!(sel.matched(), 0);
        assert!(sel.read_mask(&mut gpu).unwrap().is_empty());
    }
}
