//! Frame-buffer storage: color, depth and stencil buffers.
//!
//! §3.1 of the paper divides the frame-buffer into exactly these three
//! buffers. The depth buffer is quantized to 24 bits ("Current GPUs have
//! depth buffers with a maximum of 24 bits" — §6.1), which is load-bearing
//! for the database algorithms: attribute values survive the round trip
//! through the depth buffer exactly *because* they are encoded as ≤24-bit
//! integers.

use serde::{Deserialize, Serialize};

/// Number of bits in the simulated depth buffer.
pub const DEPTH_BITS: u32 = 24;

/// Largest raw depth value (`2^24 - 1`).
pub const DEPTH_MAX: u32 = (1 << DEPTH_BITS) - 1;

/// Normalization denominator: a depth of `d` stores `floor(d * 2^24)`.
///
/// This is the load-bearing convention for the database encoding: an
/// integer attribute `v < 2^24` is normalized as `v * 2^-24`, which is an
/// **exact** f32 operation (power-of-two scale), and quantization recovers
/// `v` exactly. A `1/(2^24 - 1)` convention would not survive the fragment
/// program's f32 arithmetic for values near the top of the range.
pub const DEPTH_SCALE: f64 = (1u64 << DEPTH_BITS) as f64;

/// Quantize a normalized depth in `[0, 1]` to the 24-bit integer domain,
/// clamping out-of-range input as GL does.
#[inline(always)]
pub fn quantize_depth(d: f64) -> u32 {
    let d = d.clamp(0.0, 1.0);
    ((d * DEPTH_SCALE) as u32).min(DEPTH_MAX)
}

/// [`quantize_depth`] of `d as f64`, in f32 operations only, so that a
/// loop over a span of program-written depths vectorizes (Rust's
/// saturating float-to-int `as` compiles to one scalar conversion per lane
/// on baseline x86-64).
///
/// `d · 2^24` is exact in f32 as in f64 (a power-of-two scale), and
/// clamping it to `[0, DEPTH_MAX]` (NaN to 0) leaves what the f64 path
/// truncates. Below `2^23`, adding `2^23` rounds to an integer, stepped
/// down if it rounded up, and leaves that integer in the low mantissa
/// bits of a value in `[2^23, 2^24)`; from `2^23` up every f32 is already
/// an integer, whose low 23 bits are its mantissa.
#[inline(always)]
pub(crate) fn quantize_depth_f32(d: f32) -> u32 {
    const HALF: f32 = (1 << (DEPTH_BITS - 1)) as f32;
    let x = d * DEPTH_SCALE as f32;
    let x = if x >= 0.0 { x } else { 0.0 };
    let x = if x < DEPTH_MAX as f32 {
        x
    } else {
        DEPTH_MAX as f32
    };
    if x < HALF {
        let nearest = (x + HALF) - HALF;
        let floor = if nearest > x { nearest - 1.0 } else { nearest };
        (floor + HALF).to_bits() & 0x7F_FFFF
    } else {
        (x.to_bits() & 0x7F_FFFF) | 0x80_0000
    }
}

/// Map a raw 24-bit depth value back to normalized `[0, 1)`.
#[inline(always)]
pub fn dequantize_depth(raw: u32) -> f64 {
    raw as f64 / DEPTH_SCALE
}

/// The depth buffer: one 24-bit value per pixel, stored in the low bits of
/// a `u32`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DepthBuffer {
    width: usize,
    height: usize,
    data: Vec<u32>,
}

impl DepthBuffer {
    /// Create a depth buffer cleared to the far plane (1.0).
    pub fn new(width: usize, height: usize) -> DepthBuffer {
        DepthBuffer {
            width,
            height,
            data: vec![DEPTH_MAX; width * height],
        }
    }

    /// Clear every pixel to a normalized depth value.
    pub fn clear(&mut self, depth: f64) {
        let q = quantize_depth(depth);
        self.data.fill(q);
    }

    /// Raw (quantized) value at a pixel.
    #[inline(always)]
    pub fn get_raw(&self, idx: usize) -> u32 {
        self.data[idx]
    }

    /// Store a raw (already quantized) value at a pixel.
    #[inline(always)]
    pub fn set_raw(&mut self, idx: usize, raw: u32) {
        debug_assert!(raw <= DEPTH_MAX);
        self.data[idx] = raw;
    }

    /// Normalized value at a pixel.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> f64 {
        dequantize_depth(self.data[idx])
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw storage, for read-backs.
    pub fn raw_data(&self) -> &[u32] {
        &self.data
    }

    /// Mutable raw storage, for the rasterizer's row-band splitting.
    pub(crate) fn raw_data_mut(&mut self) -> &mut [u32] {
        &mut self.data
    }
}

/// The stencil buffer: one 8-bit value per pixel.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StencilBuffer {
    width: usize,
    height: usize,
    data: Vec<u8>,
}

impl StencilBuffer {
    /// Create a stencil buffer cleared to zero.
    pub fn new(width: usize, height: usize) -> StencilBuffer {
        StencilBuffer {
            width,
            height,
            data: vec![0; width * height],
        }
    }

    /// Clear every pixel to `value`.
    pub fn clear(&mut self, value: u8) {
        self.data.fill(value);
    }

    /// Value at a pixel.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> u8 {
        self.data[idx]
    }

    /// Store a value at a pixel.
    #[inline(always)]
    pub fn set(&mut self, idx: usize, value: u8) {
        self.data[idx] = value;
    }

    /// Raw storage, for read-backs.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable raw storage, for the rasterizer's row-band splitting.
    pub(crate) fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Count pixels whose stencil value is nonzero — a host-side helper for
    /// tests; the device itself learns pass counts via occlusion queries.
    pub fn count_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0).count()
    }
}

/// The color buffer: RGBA f32 per pixel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColorBuffer {
    width: usize,
    height: usize,
    data: Vec<[f32; 4]>,
}

impl ColorBuffer {
    /// Create a color buffer cleared to transparent black.
    pub fn new(width: usize, height: usize) -> ColorBuffer {
        ColorBuffer {
            width,
            height,
            data: vec![[0.0; 4]; width * height],
        }
    }

    /// Clear every pixel to an RGBA value.
    pub fn clear(&mut self, rgba: [f32; 4]) {
        self.data.fill(rgba);
    }

    /// Value at a pixel.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> [f32; 4] {
        self.data[idx]
    }

    /// Store a value at a pixel.
    #[inline(always)]
    pub fn set(&mut self, idx: usize, rgba: [f32; 4]) {
        self.data[idx] = rgba;
    }

    /// Raw storage, for read-backs.
    pub fn data(&self) -> &[[f32; 4]] {
        &self.data
    }

    /// Mutable raw storage, for the rasterizer's row-band splitting.
    pub(crate) fn data_mut(&mut self) -> &mut [[f32; 4]] {
        &mut self.data
    }
}

/// The complete framebuffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Framebuffer {
    /// Color buffer.
    pub color: ColorBuffer,
    /// 24-bit depth buffer.
    pub depth: DepthBuffer,
    /// 8-bit stencil buffer.
    pub stencil: StencilBuffer,
    width: usize,
    height: usize,
}

impl Framebuffer {
    /// Allocate a framebuffer of the given pixel dimensions.
    pub fn new(width: usize, height: usize) -> Framebuffer {
        Framebuffer {
            color: ColorBuffer::new(width, height),
            depth: DepthBuffer::new(width, height),
            stencil: StencilBuffer::new(width, height),
            width,
            height,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total pixel count.
    pub fn pixel_count(&self) -> usize {
        self.width * self.height
    }

    /// Byte footprint in video memory (RGBA f32 + 24/8 depth-stencil, which
    /// real hardware packs into 32 bits).
    pub fn byte_size(&self) -> usize {
        self.pixel_count() * (4 * 4 + 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantization_is_exact_for_24bit_encodings() {
        // Every attribute encoding k * 2^-24 must round-trip exactly —
        // including when the normalization is performed in f32, as the
        // CopyToDepth fragment program does.
        for k in [
            0u32,
            1,
            2,
            12345,
            1 << 20,
            (1 << 23) + 1,
            DEPTH_MAX - 1,
            DEPTH_MAX,
        ] {
            let d = k as f64 / DEPTH_SCALE;
            assert_eq!(quantize_depth(d), k, "k = {k} (f64 path)");
            let d32 = k as f32 * (1.0f32 / DEPTH_SCALE as f32);
            assert_eq!(quantize_depth(d32 as f64), k, "k = {k} (f32 path)");
        }
    }

    #[test]
    fn f32_quantization_matches_f64() {
        let check = |d: f32| {
            assert_eq!(
                quantize_depth_f32(d),
                quantize_depth(d as f64),
                "{d:e} ({:#x})",
                d.to_bits()
            );
        };
        let edges = [
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            f32::MIN_POSITIVE,
            -0.0,
            0.0,
            1e-45,
            -1e-45,
            0.5,
            1.0,
            1.5,
            2.0,
        ];
        edges.into_iter().for_each(check);
        // Every f32 around each power of two the form switches at or
        // truncates across: 2^-24 (one step), 2^-1 (x = 2^23) and 1.
        for centre in [2f32.powi(-24), 0.5, 1.0] {
            let bits = centre.to_bits();
            (bits - 4096..bits + 4096)
                .map(f32::from_bits)
                .for_each(check);
        }
        // Every f32 in [0.25, 1), on both sides of x = 2^23, and a stride
        // over every bit pattern.
        (0.25f32.to_bits()..1.0f32.to_bits())
            .map(f32::from_bits)
            .for_each(check);
        (0..=u32::MAX)
            .step_by(4099)
            .map(f32::from_bits)
            .for_each(check);
        // Every attribute encoding v · 2^-24 and the midpoints between.
        for v in (0..1u32 << 24).step_by(3) {
            check(v as f32 / DEPTH_SCALE as f32);
            check((v as f32 + 0.5) / DEPTH_SCALE as f32);
        }
    }

    #[test]
    fn quantization_clamps() {
        assert_eq!(quantize_depth(-0.5), 0);
        assert_eq!(quantize_depth(1.5), DEPTH_MAX);
        assert_eq!(quantize_depth(1.0), DEPTH_MAX);
    }

    #[test]
    fn quantization_is_monotone() {
        let mut prev = 0;
        for i in 0..=1000 {
            let q = quantize_depth(i as f64 / 1000.0);
            assert!(q >= prev);
            prev = q;
        }
        assert_eq!(prev, DEPTH_MAX);
    }

    #[test]
    fn quantization_collapses_sub_precision_differences() {
        // Two values closer than an LSB land on the same raw value — the
        // 24-bit precision limit §6.1 warns about.
        let eps = 0.1 / DEPTH_SCALE;
        assert_eq!(quantize_depth(0.5), quantize_depth(0.5 + eps));
    }

    #[test]
    fn depth_buffer_clear_and_access() {
        let mut db = DepthBuffer::new(4, 2);
        assert_eq!(db.get_raw(0), DEPTH_MAX);
        db.clear(0.0);
        assert_eq!(db.get_raw(7), 0);
        db.set_raw(3, 42);
        assert_eq!(db.get_raw(3), 42);
        assert!((db.get(3) - 42.0 / DEPTH_SCALE).abs() < 1e-12);
    }

    #[test]
    fn stencil_buffer_roundtrip() {
        let mut sb = StencilBuffer::new(3, 3);
        sb.clear(1);
        assert_eq!(sb.get(4), 1);
        sb.set(4, 2);
        assert_eq!(sb.get(4), 2);
        assert_eq!(sb.count_nonzero(), 9);
        sb.clear(0);
        assert_eq!(sb.count_nonzero(), 0);
    }

    #[test]
    fn color_buffer_roundtrip() {
        let mut cb = ColorBuffer::new(2, 2);
        cb.set(2, [0.1, 0.2, 0.3, 0.4]);
        assert_eq!(cb.get(2), [0.1, 0.2, 0.3, 0.4]);
        cb.clear([1.0; 4]);
        assert_eq!(cb.get(2), [1.0; 4]);
    }

    #[test]
    fn framebuffer_dimensions() {
        let fb = Framebuffer::new(10, 5);
        assert_eq!(fb.pixel_count(), 50);
        assert_eq!(fb.width(), 10);
        assert_eq!(fb.height(), 5);
        assert_eq!(fb.byte_size(), 50 * 20);
    }
}
