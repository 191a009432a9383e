//! Frame-buffer storage: color, depth and stencil buffers.
//!
//! §3.1 of the paper divides the frame-buffer into exactly these three
//! buffers. The depth buffer is quantized to 24 bits ("Current GPUs have
//! depth buffers with a maximum of 24 bits" — §6.1), which is load-bearing
//! for the database algorithms: attribute values survive the round trip
//! through the depth buffer exactly *because* they are encoded as ≤24-bit
//! integers.

use crate::pipeline::FbTile;
use crate::raster::TILE_FRAGMENTS;

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

/// One plane of the framebuffer, stored as row tiles: each tile holds
/// `tile_rows` whole rows (the last tile may hold fewer), so that a draw
/// can hand each tile to a host thread by value (see [`crate::raster`]).
#[derive(Debug, Clone)]
struct Tiles<T> {
    width: usize,
    height: usize,
    tile_rows: usize,
    tiles: Vec<Vec<T>>,
}

impl<T: Copy> Tiles<T> {
    fn new(width: usize, height: usize, tile_rows: usize, value: T) -> Tiles<T> {
        let tile_rows = tile_rows.max(1);
        let tiles = (0..height.div_ceil(tile_rows))
            .map(|t| vec![value; width * tile_rows.min(height - t * tile_rows)])
            .collect();
        Tiles {
            width,
            height,
            tile_rows,
            tiles,
        }
    }

    /// The tile holding pixel `idx`, and the pixel's offset in it.
    #[inline(always)]
    fn locate(&self, idx: usize) -> (usize, usize) {
        let tile_len = (self.tile_rows * self.width).max(1);
        (idx / tile_len, idx % tile_len)
    }

    #[inline(always)]
    fn get(&self, idx: usize) -> T {
        let (t, i) = self.locate(idx);
        self.tiles[t][i]
    }

    #[inline(always)]
    fn set(&mut self, idx: usize, value: T) {
        let (t, i) = self.locate(idx);
        self.tiles[t][i] = value;
    }

    fn fill(&mut self, value: T) {
        self.tiles.iter_mut().for_each(|tile| tile.fill(value));
    }

    /// Every pixel in row-major order.
    fn iter(&self) -> impl Iterator<Item = &T> {
        self.tiles.iter().flatten()
    }

    fn to_vec(&self) -> Vec<T> {
        self.tiles.concat()
    }
}

/// Equal when the contents are, however the planes are tiled.
impl<T: Copy + PartialEq> PartialEq for Tiles<T> {
    fn eq(&self, other: &Tiles<T>) -> bool {
        self.width == other.width && self.height == other.height && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Eq> Eq for Tiles<T> {}

/// The depth buffer: one 24-bit value per pixel, stored in the low bits of
/// a `u32`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DepthBuffer(Tiles<u32>);

impl DepthBuffer {
    /// Clear every pixel to a normalized depth value.
    pub fn clear(&mut self, depth: f64) {
        self.0.fill(quantize_depth(depth));
    }

    /// Raw (quantized) value at a pixel.
    #[inline(always)]
    pub fn get_raw(&self, idx: usize) -> u32 {
        self.0.get(idx)
    }

    /// Store a raw (already quantized) value at a pixel.
    #[inline(always)]
    pub fn set_raw(&mut self, idx: usize, raw: u32) {
        debug_assert!(raw <= DEPTH_MAX);
        self.0.set(idx, raw);
    }

    /// Normalized value at a pixel.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> f64 {
        dequantize_depth(self.0.get(idx))
    }

    /// Buffer width in pixels.
    pub fn width(&self) -> usize {
        self.0.width
    }

    /// Buffer height in pixels.
    pub fn height(&self) -> usize {
        self.0.height
    }

    /// Every raw value in row-major order, for read-backs.
    pub fn to_raw_vec(&self) -> Vec<u32> {
        self.0.to_vec()
    }

    /// Every normalized value in row-major order, for read-backs.
    pub fn to_vec(&self) -> Vec<f64> {
        self.0.iter().map(|&raw| dequantize_depth(raw)).collect()
    }
}

/// The stencil buffer: one 8-bit value per pixel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StencilBuffer(Tiles<u8>);

impl StencilBuffer {
    /// Clear every pixel to `value`.
    pub fn clear(&mut self, value: u8) {
        self.0.fill(value);
    }

    /// Value at a pixel.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> u8 {
        self.0.get(idx)
    }

    /// Store a value at a pixel.
    #[inline(always)]
    pub fn set(&mut self, idx: usize, value: u8) {
        self.0.set(idx, value);
    }

    /// Every value in row-major order, for read-backs.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }

    /// Count pixels whose stencil value is nonzero — a host-side helper for
    /// tests; the device itself learns pass counts via occlusion queries.
    pub fn count_nonzero(&self) -> usize {
        self.0.iter().filter(|&&v| v != 0).count()
    }
}

/// The color buffer: RGBA f32 per pixel.
#[derive(Debug, Clone, PartialEq)]
pub struct ColorBuffer(Tiles<[f32; 4]>);

impl ColorBuffer {
    /// Clear every pixel to an RGBA value.
    pub fn clear(&mut self, rgba: [f32; 4]) {
        self.0.fill(rgba);
    }

    /// Value at a pixel.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> [f32; 4] {
        self.0.get(idx)
    }

    /// Store a value at a pixel.
    #[inline(always)]
    pub fn set(&mut self, idx: usize, rgba: [f32; 4]) {
        self.0.set(idx, rgba);
    }

    /// Every value in row-major order, for read-backs.
    pub fn to_vec(&self) -> Vec<[f32; 4]> {
        self.0.to_vec()
    }
}

/// The complete framebuffer. Its three planes share one row tiling: tile
/// `t` holds rows `t * tile_rows ..` of each.
#[derive(Debug, Clone, PartialEq)]
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
    /// Allocate a framebuffer of the given pixel dimensions, with color
    /// cleared to transparent black, depth to the far plane (1.0) and
    /// stencil to zero. Its row tiles hold the rasterizer's
    /// `TILE_FRAGMENTS` (8192) pixels each, rounded down to whole rows (at
    /// least one).
    pub fn new(width: usize, height: usize) -> Framebuffer {
        Framebuffer::with_tile_rows(width, height, TILE_FRAGMENTS / width.max(1))
    }

    /// [`Framebuffer::new`] cut into tiles of `tile_rows` rows (at least
    /// one).
    pub(crate) fn with_tile_rows(width: usize, height: usize, tile_rows: usize) -> Framebuffer {
        Framebuffer {
            color: ColorBuffer(Tiles::new(width, height, tile_rows, [0.0; 4])),
            depth: DepthBuffer(Tiles::new(width, height, tile_rows, DEPTH_MAX)),
            stencil: StencilBuffer(Tiles::new(width, height, tile_rows, 0)),
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

    /// Rows per tile (the last tile may hold fewer).
    pub(crate) fn tile_rows(&self) -> usize {
        self.depth.0.tile_rows
    }

    /// Number of row tiles.
    pub(crate) fn tile_count(&self) -> usize {
        self.depth.0.tiles.len()
    }

    /// Move tile `t` out of the framebuffer, leaving it empty until
    /// [`Framebuffer::put_tile`] returns it.
    pub(crate) fn take_tile(&mut self, t: usize) -> FbTile {
        let first_row = t * self.tile_rows();
        FbTile {
            color: std::mem::take(&mut self.color.0.tiles[t]),
            depth: std::mem::take(&mut self.depth.0.tiles[t]),
            stencil: std::mem::take(&mut self.stencil.0.tiles[t]),
            rows: (first_row, (first_row + self.tile_rows()).min(self.height)),
            base: first_row * self.width,
        }
    }

    /// Return a tile taken by [`Framebuffer::take_tile`].
    pub(crate) fn put_tile(&mut self, t: usize, tile: FbTile) {
        debug_assert_eq!(tile.base, t * self.tile_rows() * self.width);
        self.color.0.tiles[t] = tile.color;
        self.depth.0.tiles[t] = tile.depth;
        self.stencil.0.tiles[t] = tile.stencil;
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
        let mut db = Framebuffer::new(4, 2).depth;
        assert_eq!(db.get_raw(0), DEPTH_MAX);
        db.clear(0.0);
        assert_eq!(db.get_raw(7), 0);
        db.set_raw(3, 42);
        assert_eq!(db.get_raw(3), 42);
        assert!((db.get(3) - 42.0 / DEPTH_SCALE).abs() < 1e-12);
    }

    #[test]
    fn stencil_buffer_roundtrip() {
        let mut sb = Framebuffer::new(3, 3).stencil;
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
        let mut cb = Framebuffer::new(2, 2).color;
        cb.set(2, [0.1, 0.2, 0.3, 0.4]);
        assert_eq!(cb.get(2), [0.1, 0.2, 0.3, 0.4]);
        cb.clear([1.0; 4]);
        assert_eq!(cb.get(2), [1.0; 4]);
    }

    #[test]
    fn tiled_planes_index_and_read_back_in_row_major_order() {
        // Tiles of 1, 2, 3 and 7 rows of a 5x7 framebuffer, and one tile.
        for tile_rows in [1, 2, 3, 7, 100] {
            let mut fb = Framebuffer::with_tile_rows(5, 7, tile_rows);
            for i in 0..35 {
                fb.depth.set_raw(i, i as u32 * 3);
                fb.stencil.set(i, i as u8);
                fb.color.set(i, [i as f32; 4]);
            }
            let expected: Vec<u32> = (0..35).map(|i| i * 3).collect();
            assert_eq!(fb.depth.to_raw_vec(), expected, "{tile_rows} rows");
            assert_eq!(fb.stencil.to_vec(), (0..35).collect::<Vec<u8>>());
            assert_eq!(fb.color.get(34), [34.0; 4]);
            assert_eq!(fb.stencil.count_nonzero(), 34);
            // Equality compares contents, not the tiling.
            let mut same = Framebuffer::new(5, 7);
            for i in 0..35 {
                same.depth.set_raw(i, i as u32 * 3);
                same.stencil.set(i, i as u8);
                same.color.set(i, [i as f32; 4]);
            }
            assert_eq!(fb, same, "{tile_rows} rows");
            // A tile moves out and back whole.
            let last = 7usize.div_ceil(tile_rows) - 1;
            let tile = fb.take_tile(last);
            assert_eq!(tile.base, 5 * tile_rows * last);
            assert_eq!(tile.depth.len(), 5 * (7 - tile_rows * last).min(tile_rows));
            fb.put_tile(last, tile);
            assert_eq!(fb, same);
        }
    }

    #[test]
    fn empty_framebuffers_have_no_pixels() {
        for (w, h) in [(0, 4), (4, 0), (0, 0), (100_000, 1)] {
            let mut fb = Framebuffer::new(w, h);
            fb.depth.clear(0.5);
            assert_eq!(fb.pixel_count(), w * h);
            assert_eq!(fb.depth.to_raw_vec().len(), w * h);
            assert_eq!(fb.stencil.count_nonzero(), 0);
        }
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
