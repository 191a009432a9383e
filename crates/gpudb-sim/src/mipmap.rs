//! Floating-point mipmap reduction.
//!
//! §4.3.3 of the paper describes — and rejects — summing a texture by
//! building a float mipmap: "The highest level of the mipmap contains the
//! average of all the values in the lowest level, from which it is possible
//! to recover the sum by multiplying the average with the number of
//! values." The paper lists three problems: slow float texture writes,
//! conditionals when summing a masked subset, and **insufficient float
//! precision for an exact sum**. This module implements the approach so the
//! ablation benchmark can quantify those problems against the paper's
//! preferred bitwise `Accumulator`.

use crate::cost::ns;
use crate::device::Gpu;
use crate::error::GpuResult;
use crate::stats::Phase;
use crate::texture::TextureId;

/// Result of a mipmap reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MipmapReduction {
    /// The top-level average, computed in f32 exactly as the hardware
    /// would (so precision loss is faithfully reproduced).
    pub average: f32,
    /// `average * texel_count` — the recovered (approximate) sum.
    pub sum: f64,
    /// Number of mipmap levels built.
    pub levels: u32,
    /// Total texels written across all levels.
    pub texels_written: u64,
    /// Modeled nanoseconds for the full pyramid build + 1-texel readback.
    pub modeled_ns: u64,
}

/// Per-level shader: 4 texture fetches + 3 adds + 1 multiply.
const LEVEL_PROGRAM_CYCLES: u32 = 4 * 2 + 3 + 1;

impl Gpu {
    /// Build a float mipmap over one channel of `texture` and return the
    /// recovered sum.
    ///
    /// Each 2×2 block is averaged into one texel of the next level (odd
    /// dimensions round up, with edge clamping), repeated until a single
    /// texel remains. Arithmetic is performed in `f32` to reproduce the
    /// precision behavior of the real hardware; the modeled cost charges a
    /// render-to-texture pass per level plus the final readback. The paper
    /// notes float texture *writes* were slow on this hardware; the
    /// `write_penalty` multiplier (≥ 1) scales the per-level cost to model
    /// that.
    pub fn mipmap_sum(
        &mut self,
        texture: TextureId,
        channel: usize,
        write_penalty: f64,
    ) -> GpuResult<MipmapReduction> {
        let tex = self.texture(texture)?;
        let mut width = tex.width();
        let mut height = tex.height();
        let texel_count = (width * height) as f64;
        let mut level: Vec<f32> = (0..height)
            .flat_map(|y| (0..width).map(move |x| (x, y)))
            .map(|(x, y)| tex.fetch_channel(x, y, channel))
            .collect();

        let mut levels = 0u32;
        let mut texels_written = 0u64;
        let mut modeled = 0u64;
        let profile = self.profile().clone();

        while width > 1 || height > 1 {
            let next_w = width.div_ceil(2);
            let next_h = height.div_ceil(2);
            let mut next = vec![0.0f32; next_w * next_h];
            for ny in 0..next_h {
                for nx in 0..next_w {
                    // 2x2 box filter with clamp-to-edge, computed in f32.
                    let x0 = (nx * 2).min(width - 1);
                    let x1 = (nx * 2 + 1).min(width - 1);
                    let y0 = (ny * 2).min(height - 1);
                    let y1 = (ny * 2 + 1).min(height - 1);
                    let s = level[y0 * width + x0]
                        + level[y0 * width + x1]
                        + level[y1 * width + x0]
                        + level[y1 * width + x1];
                    next[ny * next_w + nx] = s * 0.25;
                }
            }
            let fragments = (next_w * next_h) as u64;
            texels_written += fragments;
            // Each level is one render-to-texture pass, rounded to whole
            // nanoseconds on its own.
            let fill_s = profile.fill_seconds(fragments, fragments, LEVEL_PROGRAM_CYCLES);
            modeled =
                modeled.saturating_add(ns(fill_s * write_penalty + profile.draw_call_overhead_s));
            level = next;
            width = next_w;
            height = next_h;
            levels += 1;
        }

        // Read back the single top-level texel.
        modeled = modeled.saturating_add(profile.readback_ns(4));
        let modeled = self.add_modeled(Phase::Compute, modeled);

        let average = level[0];
        Ok(MipmapReduction {
            average,
            sum: average as f64 * texel_count,
            levels,
            texels_written,
            modeled_ns: modeled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::texture::{Texture, TextureFormat};

    fn upload(gpu: &mut Gpu, w: usize, h: usize, values: Vec<f32>) -> TextureId {
        let tex = Texture::from_data(w, h, TextureFormat::R, values).unwrap();
        gpu.create_texture(tex).unwrap()
    }

    #[test]
    fn exact_for_power_of_two_small_values() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        let values: Vec<f32> = (1..=16).map(|v| v as f32).collect();
        let id = upload(&mut gpu, 4, 4, values);
        let r = gpu.mipmap_sum(id, 0, 1.0).unwrap();
        assert_eq!(r.sum, 136.0);
        assert_eq!(r.levels, 2);
        // level sizes: 2x2 = 4, 1x1 = 1
        assert_eq!(r.texels_written, 5);
    }

    #[test]
    fn handles_non_power_of_two() {
        let mut gpu = Gpu::geforce_fx_5900(4, 4);
        let values = vec![1.0f32; 15];
        let id = upload(&mut gpu, 5, 3, values);
        let r = gpu.mipmap_sum(id, 0, 1.0).unwrap();
        // All-ones: averaging with edge clamping still yields exactly 1.
        assert_eq!(r.average, 1.0);
        assert_eq!(r.sum, 15.0);
    }

    #[test]
    fn loses_precision_on_large_integers() {
        // The paper: "the floating point representation may not have enough
        // precision to give an exact sum." Large 24-bit values with small
        // perturbations demonstrate the drift.
        let mut gpu = Gpu::geforce_fx_5900(64, 64);
        let n = 64 * 64;
        let values: Vec<f32> = (0..n).map(|i| ((1 << 23) + (i % 7) + 1) as f32).collect();
        let exact: f64 = values.iter().map(|&v| v as f64).sum();
        let id = upload(&mut gpu, 64, 64, values);
        let r = gpu.mipmap_sum(id, 0, 1.0).unwrap();
        let error = (r.sum - exact).abs();
        assert!(
            error > 0.0,
            "expected f32 averaging drift, got exact sum {exact}"
        );
    }

    #[test]
    fn write_penalty_scales_cost() {
        let mut gpu = Gpu::geforce_fx_5900(8, 8);
        let id = upload(&mut gpu, 8, 8, vec![1.0; 64]);
        let fast = gpu.mipmap_sum(id, 0, 1.0).unwrap();
        let slow = gpu.mipmap_sum(id, 0, 4.0).unwrap();
        assert!(slow.modeled_ns > fast.modeled_ns);
        assert_eq!(fast.sum, slow.sum);
    }

    #[test]
    fn single_texel_texture_is_trivial() {
        let mut gpu = Gpu::geforce_fx_5900(2, 2);
        let id = upload(&mut gpu, 1, 1, vec![42.0]);
        let r = gpu.mipmap_sum(id, 0, 1.0).unwrap();
        assert_eq!(r.sum, 42.0);
        assert_eq!(r.levels, 0);
    }
}
