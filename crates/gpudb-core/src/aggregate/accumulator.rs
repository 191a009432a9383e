//! SUM and AVG via the bitwise accumulator — the paper's `Accumulator`
//! (Routine 4.6).
//!
//! The sum `Σ x_j = Σ_i 2^i · |{j : bit i of x_j set}|` is computed with
//! one pass per bit plane: the `TestBit` fragment program writes
//! `frac(v / 2^(i+1))` into the fragment's alpha, the alpha test rejects
//! fragments with alpha < 0.5 (bit clear), and an occlusion query counts
//! the survivors. The result is exact to arbitrary precision — the
//! property the float-mipmap alternative lacks (§4.3.3).

use crate::error::{EngineError, EngineResult};
use crate::selection::{Selection, SELECTED};
use crate::table::GpuTable;
use gpudb_sim::program::builtin;
use gpudb_sim::state::ColorMask;
use gpudb_sim::{CompareFunc, Gpu, Phase, StencilOp};

/// Exact SUM of a column, optionally restricted to a selection
/// ("Accumulator can be used for summing only a subset of the records in
/// tex that have been selected using the stencil buffer").
pub fn sum(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    selection: Option<&Selection>,
) -> EngineResult<u64> {
    // A constant-empty selection has no stencil backing: testing the
    // stencil buffer would read pixels that were never established.
    if selection.is_some_and(Selection::is_const_empty) {
        return Ok(0);
    }
    let meta = table.column(column)?;
    let bits = meta.bits;
    let texture = table.texture_for(column)?;
    let channel = meta.channel;

    gpu.set_phase(Phase::Compute);
    gpu.reset_state();
    gpu.bind_texture(0, Some(texture))?;
    gpu.bind_program(Some(builtin::test_bit()));
    gpu.set_program_env(builtin::ENV_CHANNEL, builtin::channel_selector(channel))?;
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    // Line 1 of Routine 4.6: alpha test passes with alpha >= 0.5.
    gpu.set_alpha_test(true, CompareFunc::GreaterEqual, 0.5);
    if selection.is_some() {
        gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
    }

    let mut total = 0u64;
    for i in 0..bits {
        // env[0].x = 1 / 2^(i+1); exact in f32 for i < 126.
        let scale = 0.5f32.powi(i as i32 + 1);
        gpu.set_program_env(builtin::ENV_SCALE, [scale, 0.0, 0.0, 0.0])?;
        gpu.begin_occlusion_query()?;
        gpu.draw_quad(table.rects(), 0.0)?;
        // The bit-plane counts are independent: all queries can be issued
        // and harvested asynchronously (§5.3).
        let count = gpu.end_occlusion_query_async()?;
        total += count << i;
    }
    gpu.bind_program(None);
    gpu.reset_state();
    Ok(total)
}

/// Exact SUM via the §6.1 *depth compare mask* hardware extension: one
/// copy-to-depth, then one **fixed-function** pass per bit plane (depth
/// func `Equal` under a single-bit mask) instead of one fully-shaded
/// TestBit pass — the improvement the paper predicts from its hardware
/// wishlist ("A simplest mechanism is to copy the i-th bit of the texel
/// into the alpha value of a fragment. This can lead to significant
/// improvement in performance", §6.2.3).
///
/// Requires a device whose profile advertises
/// `has_depth_compare_mask`; errors with `UnsupportedFeature` otherwise.
pub fn sum_with_depth_mask(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    selection: Option<&Selection>,
) -> EngineResult<u64> {
    if selection.is_some_and(Selection::is_const_empty) {
        return Ok(0);
    }
    let bits = table.column(column)?.bits;
    crate::predicate::copy_to_depth(gpu, table, column)?;

    gpu.set_phase(Phase::Compute);
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_write(false);
    if selection.is_some() {
        gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
    }

    let mut total = 0u64;
    for i in 0..bits {
        gpu.set_depth_compare_mask(1 << i)?;
        gpu.set_depth_test(true, CompareFunc::Equal);
        gpu.begin_occlusion_query()?;
        // Incoming depth encodes 2^i: under the single-bit mask the test
        // passes exactly on records with bit i set.
        gpu.draw_quad(table.rects(), crate::ops::encode_depth(1 << i))?;
        let count = gpu.end_occlusion_query_async()?;
        total += count << i;
    }
    gpu.set_depth_compare_mask(gpudb_sim::state::DEPTH_COMPARE_MASK_ALL)?;
    gpu.reset_state();
    Ok(total)
}

/// AVG = SUM / COUNT (§4.3.3), over the selection's carried count (or the
/// table's records). Errors on an empty domain.
pub fn avg(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    selection: Option<&Selection>,
) -> EngineResult<f64> {
    let count = selection.map_or(table.record_count() as u64, Selection::matched);
    if count == 0 {
        return Err(EngineError::EmptyInput);
    }
    let total = sum(gpu, table, column, selection)?;
    Ok(total as f64 / count as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::compare_select;

    fn setup(values: &[u32]) -> (Gpu, GpuTable) {
        let mut gpu = GpuTable::device_for(values.len(), 8);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", values)]).unwrap();
        (gpu, t)
    }

    #[test]
    fn sum_matches_reference() {
        let values: Vec<u32> = (0..300u32)
            .map(|i| i.wrapping_mul(2654435761) % 100_000)
            .collect();
        let expected: u64 = values.iter().map(|&v| v as u64).sum();
        let (mut gpu, t) = setup(&values);
        assert_eq!(sum(&mut gpu, &t, 0, None).unwrap(), expected);
    }

    #[test]
    fn sum_exact_at_full_24_bit_width() {
        // Large values stress every bit plane; the result must be exact —
        // the paper's headline advantage over the mipmap approach.
        let max = (1u32 << 24) - 1;
        let values = vec![max, max - 1, 1, 0, max / 2];
        let expected: u64 = values.iter().map(|&v| v as u64).sum();
        let (mut gpu, t) = setup(&values);
        assert_eq!(sum(&mut gpu, &t, 0, None).unwrap(), expected);
    }

    #[test]
    fn sum_of_zeros_and_empty() {
        let (mut gpu, t) = setup(&[0, 0, 0]);
        assert_eq!(sum(&mut gpu, &t, 0, None).unwrap(), 0);
        let (mut gpu, t) = setup(&[]);
        assert_eq!(sum(&mut gpu, &t, 0, None).unwrap(), 0);
    }

    #[test]
    fn pass_count_equals_bit_width() {
        let values = vec![0b1010_1010u32; 10]; // 8 bits
        let (mut gpu, t) = setup(&values);
        gpu.reset_stats();
        sum(&mut gpu, &t, 0, None).unwrap();
        assert_eq!(gpu.stats().draw_calls, 8);
        assert_eq!(gpu.stats().occlusion_readbacks, 8);
    }

    #[test]
    fn every_fragment_is_shaded() {
        // §6.2.3: the accumulator cannot benefit from early-z — the alpha
        // test depends on the program's output. All fragments pay the
        // 5-instruction TestBit program, which is why the GPU loses
        // Figure 10.
        let values: Vec<u32> = (1..=50).collect(); // 6 bits
        let (mut gpu, t) = setup(&values);
        gpu.reset_stats();
        sum(&mut gpu, &t, 0, None).unwrap();
        let stats = gpu.stats();
        assert_eq!(stats.fragments_generated, 50 * 6);
        assert_eq!(stats.fragments_shaded, 50 * 6);
    }

    #[test]
    fn masked_sum_restricted_to_selection() {
        let values: Vec<u32> = (0..100).collect();
        let (mut gpu, t) = setup(&values);
        let sel = compare_select(&mut gpu, &t, 0, CompareFunc::GreaterEqual, 50).unwrap();
        let expected: u64 = (50..100).sum::<u64>();
        assert_eq!(sum(&mut gpu, &t, 0, Some(&sel)).unwrap(), expected);
    }

    #[test]
    fn avg_plain_and_masked() {
        let values = vec![10u32, 20, 30, 40];
        let (mut gpu, t) = setup(&values);
        assert_eq!(avg(&mut gpu, &t, 0, None).unwrap(), 25.0);
        let sel = compare_select(&mut gpu, &t, 0, CompareFunc::Greater, 20).unwrap();
        assert_eq!(avg(&mut gpu, &t, 0, Some(&sel)).unwrap(), 35.0);
    }

    #[test]
    fn avg_empty_errors() {
        let (mut gpu, t) = setup(&[]);
        assert!(matches!(
            avg(&mut gpu, &t, 0, None).unwrap_err(),
            EngineError::EmptyInput
        ));
        // Empty selection over a non-empty table.
        let values = vec![1u32, 2, 3];
        let (mut gpu, t) = setup(&values);
        let sel = compare_select(&mut gpu, &t, 0, CompareFunc::Greater, 100).unwrap();
        assert_eq!(sel.matched(), 0);
        assert!(matches!(
            avg(&mut gpu, &t, 0, Some(&sel)).unwrap_err(),
            EngineError::EmptyInput
        ));
    }

    #[test]
    fn const_empty_selection_sums_to_zero_without_device_work() {
        let values = vec![1u32, 2, 3];
        let (mut gpu, t) = setup(&values);
        // Pollute the stencil: the const-empty guard must not consult it.
        gpu.clear_stencil(SELECTED);
        let sel = Selection::const_empty(&t);
        let counters = gpu.stats().counters();
        assert_eq!(sum(&mut gpu, &t, 0, Some(&sel)).unwrap(), 0);
        assert_eq!(gpu.stats().counters(), counters);
        assert!(matches!(
            avg(&mut gpu, &t, 0, Some(&sel)).unwrap_err(),
            EngineError::EmptyInput
        ));
    }

    #[test]
    fn second_channel_summed_correctly() {
        let a = vec![1u32; 6];
        let b = vec![100u32, 200, 300, 400, 500, 600];
        let mut gpu = GpuTable::device_for(6, 3);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("b", &b)]).unwrap();
        assert_eq!(sum(&mut gpu, &t, 1, None).unwrap(), 2100);
        assert_eq!(sum(&mut gpu, &t, 0, None).unwrap(), 6);
    }

    #[test]
    fn depth_mask_sum_matches_standard_accumulator() {
        use gpudb_sim::HardwareProfile;
        let values: Vec<u32> = (0..500u32)
            .map(|i| i.wrapping_mul(2654435761) % (1 << 19))
            .collect();
        let expected: u64 = values.iter().map(|&v| v as u64).sum();
        let mut gpu =
            gpudb_sim::Gpu::new(HardwareProfile::geforce_fx_5900_with_depth_mask(), 25, 20);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
        assert_eq!(
            sum_with_depth_mask(&mut gpu, &t, 0, None).unwrap(),
            expected
        );
        assert_eq!(sum(&mut gpu, &t, 0, None).unwrap(), expected);
    }

    #[test]
    fn depth_mask_sum_is_fixed_function_and_cheaper() {
        use gpudb_sim::HardwareProfile;
        // Large enough that fill cost dominates the per-pass draw
        // overhead (at tiny sizes the masked variant's extra copy pass
        // costs more than the shading it saves).
        let values: Vec<u32> = (1..=20_000u32).map(|v| v % 256).collect(); // 8 bits
        let mut gpu =
            gpudb_sim::Gpu::new(HardwareProfile::geforce_fx_5900_with_depth_mask(), 200, 100);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();

        gpu.reset_stats();
        sum(&mut gpu, &t, 0, None).unwrap();
        let standard_shaded = gpu.stats().fragments_shaded;
        let standard_ms = gpu.stats().modeled_total();

        gpu.reset_stats();
        sum_with_depth_mask(&mut gpu, &t, 0, None).unwrap();
        let masked_shaded = gpu.stats().fragments_shaded;
        let masked_ms = gpu.stats().modeled_total();

        // Only the single copy pass is shaded; every bit pass is pure
        // fixed function.
        assert_eq!(masked_shaded, values.len() as u64);
        assert_eq!(standard_shaded, values.len() as u64 * 8);
        assert!(masked_ms < standard_ms);
    }

    #[test]
    fn depth_mask_sum_respects_selection() {
        use gpudb_sim::HardwareProfile;
        let values: Vec<u32> = (0..100).collect();
        let mut gpu =
            gpudb_sim::Gpu::new(HardwareProfile::geforce_fx_5900_with_depth_mask(), 10, 10);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
        let sel = compare_select(&mut gpu, &t, 0, CompareFunc::Less, 50).unwrap();
        assert_eq!(
            sum_with_depth_mask(&mut gpu, &t, 0, Some(&sel)).unwrap(),
            (0..50u64).sum::<u64>()
        );
    }

    #[test]
    fn depth_mask_sum_requires_capability() {
        let values = vec![1u32, 2, 3];
        let (mut gpu, t) = setup(&values);
        assert!(matches!(
            sum_with_depth_mask(&mut gpu, &t, 0, None).unwrap_err(),
            crate::EngineError::Gpu(gpudb_sim::GpuError::UnsupportedFeature(_))
        ));
    }

    #[test]
    fn million_scale_smoke() {
        // A smaller grid but full 19-bit values, checking no drift at scale.
        let values: Vec<u32> = (0..10_000u32)
            .map(|i| i.wrapping_mul(2654435761) % (1 << 19))
            .collect();
        let expected: u64 = values.iter().map(|&v| v as u64).sum();
        let mut gpu = GpuTable::device_for(values.len(), 100);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
        assert_eq!(sum(&mut gpu, &t, 0, None).unwrap(), expected);
    }
}
