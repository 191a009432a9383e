//! The float-mipmap SUM alternative (§4.3.3) — implemented for the
//! ablation that quantifies why the paper rejected it.
//!
//! Problems the paper lists, all reproduced here:
//! 1. "reading and writing floating-point textures can be slow" — modeled
//!    via the configurable write penalty;
//! 2. "if we are interested in the sum of only a subset of values [...]
//!    then introduce conditionals" — the mipmap path simply cannot honor a
//!    stencil selection, so this module exposes whole-column SUM only;
//! 3. "the floating point representation may not have enough precision to
//!    give an exact sum" — the reduction runs in genuine f32, so the error
//!    is observable (and asserted on in the tests).

use crate::error::EngineResult;
use crate::table::GpuTable;
use gpudb_sim::{Gpu, MipmapReduction};

/// The float-texture write penalty applied per mipmap level, reflecting
/// the slow floating-point render-to-texture path of the hardware
/// generation (§4.3.3).
pub const FLOAT_WRITE_PENALTY: f64 = 4.0;

/// Approximate SUM of a column via a float mipmap pyramid.
///
/// Padding texels beyond the record count are zero and thus do not perturb
/// the sum. Returns the full [`MipmapReduction`] so callers can inspect
/// the precision loss and modeled cost.
pub fn mipmap_sum(gpu: &mut Gpu, table: &GpuTable, column: usize) -> EngineResult<MipmapReduction> {
    let meta = table.column(column)?;
    let texture = table.texture_for(column)?;
    Ok(gpu.mipmap_sum(texture, meta.channel, FLOAT_WRITE_PENALTY)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::accumulator;

    fn setup(values: &[u32], width: usize) -> (Gpu, GpuTable) {
        let mut gpu = GpuTable::device_for(values.len(), width);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", values)]).unwrap();
        (gpu, t)
    }

    #[test]
    fn exact_for_small_values() {
        let values: Vec<u32> = (1..=64).collect();
        let (mut gpu, t) = setup(&values, 8);
        let r = mipmap_sum(&mut gpu, &t, 0).unwrap();
        assert_eq!(r.sum, (1..=64u64).sum::<u64>() as f64);
    }

    #[test]
    fn padding_does_not_perturb_sum() {
        // 10 records on an 8-wide grid: 6 zero padding texels.
        let values: Vec<u32> = (1..=10).collect();
        let (mut gpu, t) = setup(&values, 8);
        let r = mipmap_sum(&mut gpu, &t, 0).unwrap();
        assert_eq!(r.sum, 55.0);
    }

    #[test]
    fn loses_precision_where_accumulator_is_exact() {
        // The paper's problem 3: with large 24-bit values the f32
        // averaging drifts while the bitwise accumulator stays exact.
        let values: Vec<u32> = (0..4096u32).map(|i| (1 << 23) + (i % 117) + 1).collect();
        let exact: u64 = values.iter().map(|&v| v as u64).sum();
        let (mut gpu, t) = setup(&values, 64);
        let bitwise = accumulator::sum(&mut gpu, &t, 0, None).unwrap();
        assert_eq!(bitwise, exact, "the accumulator must be exact");
        let mip = mipmap_sum(&mut gpu, &t, 0).unwrap();
        assert!(
            (mip.sum - exact as f64).abs() > 0.0,
            "expected f32 drift, got exact {exact}"
        );
    }

    #[test]
    fn write_penalty_reflected_in_cost() {
        let values: Vec<u32> = (0..256).collect();
        let (mut gpu, t) = setup(&values, 16);
        let r = mipmap_sum(&mut gpu, &t, 0).unwrap();
        assert!(r.modeled_ns > 0);
        assert!(r.levels >= 4);
    }
}
