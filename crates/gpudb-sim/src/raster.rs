//! Screen-aligned quad rasterization.
//!
//! The paper's algorithms drive the GPU exclusively by rendering
//! screen-filling quadrilaterals ("To perform computations on the values
//! stored in a texture, we render a single quadrilateral that covers the
//! window" — §3.3). The rasterizer clips a set of axis-aligned rectangles
//! against the scissor and hands each row of each rectangle, as one span,
//! to the draw's compiled span kernel.
//!
//! [`rasterize_reference`] keeps the per-fragment semantics the kernel
//! must reproduce byte for byte: every fragment goes through the
//! fixed-function tests and the fragment-program interpreter on its own.

use crate::buffers::Framebuffer;
use crate::cost::{ns, DrawCost, HardwareProfile};
use crate::error::{GpuError, GpuResult};
use crate::pipeline::{process_fragment, FbBand, FragmentFate, PipelineEnv, SpanKernel};
use crate::program::isa::FragmentProgram;
use crate::state::PipelineState;
use crate::texture::Texture;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// An axis-aligned pixel rectangle, the rasterizer's primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    /// Left edge (inclusive).
    pub x: usize,
    /// Top edge (inclusive).
    pub y: usize,
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Rect {
    /// Construct a rectangle.
    pub fn new(x: usize, y: usize, width: usize, height: usize) -> Rect {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// A rectangle covering an entire `width`×`height` framebuffer.
    pub fn full(width: usize, height: usize) -> Rect {
        Rect::new(0, 0, width, height)
    }

    /// Pixel count.
    pub fn area(&self) -> usize {
        self.width * self.height
    }

    /// Whether the rectangle fits within a `width`×`height` framebuffer.
    pub fn fits(&self, width: usize, height: usize) -> bool {
        self.x.checked_add(self.width).is_some_and(|r| r <= width)
            && self.y.checked_add(self.height).is_some_and(|b| b <= height)
    }

    /// Rectangles covering exactly the first `count` pixels of a row-major
    /// `width`-wide grid: full rows first, then a partial last row. This is
    /// how the database layer renders a quad over exactly `n` records when
    /// `n` is not a multiple of the texture width.
    pub fn covering_prefix(count: usize, width: usize) -> Vec<Rect> {
        assert!(width > 0, "grid width must be positive");
        let full_rows = count / width;
        let remainder = count % width;
        let mut rects = Vec::with_capacity(2);
        if full_rows > 0 {
            rects.push(Rect::new(0, 0, width, full_rows));
        }
        if remainder > 0 {
            rects.push(Rect::new(0, full_rows, remainder, 1));
        }
        rects
    }
}

/// Everything a draw call needs, borrowed from the device.
#[derive(Debug, Clone, Copy)]
pub struct DrawInputs<'a> {
    /// Fixed-function test state.
    pub state: &'a PipelineState,
    /// The bound fragment program, if any.
    pub program: Option<&'a FragmentProgram>,
    /// Textures bound to the image units, by unit.
    pub textures: &'a [Option<&'a Texture>],
    /// `program.env` parameter values.
    pub env: &'a [[f32; 4]],
    /// Depth at which the quad is rendered (the paper's `RenderQuad(d)`).
    pub quad_depth: f32,
    /// Flat primary color of the quad.
    pub draw_color: [f32; 4],
    /// Whether the early-z optimization is enabled on the device.
    pub early_z: bool,
}

/// The sequence every fragment of a draw follows through the span kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DrawPath {
    /// No program: flat depth and color.
    Fixed,
    /// Early-z: test with the quad depth, then shade the survivors.
    Early,
    /// Shade first (the program may discard or replace depth), then test.
    Late,
}

/// How the draw path compiles one draw, for tests and diagnostics: which
/// specialization of the test stage runs and which rewrites the program
/// lowering applied. It never changes what a draw computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KernelShape {
    /// The path the fragments take.
    pub path: DrawPath,
    /// Whether some fragment can change its stored stencil value.
    pub stencil_writes: bool,
    /// Whether passing fragments write depth.
    pub depth_write: bool,
    /// Whether the tests run with no pass mask (nothing is shaded or
    /// colored after them and every fragment is live).
    pub mask_free: bool,
    /// Whether no test can fail, so none is evaluated.
    pub unfailing: bool,
    /// `TEX; DP4` pairs fused into one texel-dot step.
    pub texel_dots: usize,
    /// Whether a trailing `MOV result.depth` was folded into the
    /// instruction that computed its value.
    pub depth_forwarded: bool,
}

/// The [`KernelShape`] [`rasterize`] compiles `inputs` into on a
/// `fb_size` framebuffer.
pub fn kernel_shape(inputs: &DrawInputs<'_>, fb_size: (usize, usize)) -> KernelShape {
    SpanKernel::new(inputs, fb_size).shape()
}

/// Minimum total fragment count before the rasterizer fans out across
/// host threads (below this, thread startup dominates), for draws with a
/// fragment program and for fixed-function draws.
///
/// Measured with the interval-form test stage and the fused copy program
/// on a shared 2-vCPU x86-64 VM: full-quad draws of 512-pixel rows over a
/// 0/1 stencil selection, in the database layer's states, 201 interleaved
/// one- and two-band draws per cell; the ratio of the two-band to the
/// one-band median, median of three runs:
///
/// | fragments | copy-to-depth | compare-and-count | stencil select | semi-linear | TestBit |
/// |-----------|---------------|-------------------|----------------|-------------|---------|
/// | 16k       | 1.22          | 3.18              | 1.63           | 0.97        | 0.99    |
/// | 32k       | 0.96          | 1.64              | 1.03           | 0.83        | 0.94    |
/// | 64k       | 0.79          | 1.11              | 0.81           | 0.73        | 0.74    |
/// | 128k      | 0.69          | 0.89              | 0.90           | 0.76        | 0.67    |
/// | 256k      | 0.64          | 0.85              | 0.67           | 0.62        | 0.60    |
///
/// One band took 10–11 µs for a compare-and-count pass at 16k (~0.7
/// ns/fragment), 0.7–0.9 ms for a stencil select at 256k (~3 ns) and
/// 47–66 µs for a copy at 16k (~3.5 ns); a second band adds 40–60 µs of
/// thread start-up. Program passes gain from 32k. Fixed-function passes
/// lose up to 3× below 64k, the compare-and-count pass (the most frequent,
/// one per bit of Routine 4.5) still loses at 64k and gains from 128k. So
/// a draw with a program splits from 32k fragments and one without from
/// 128k.
const PROGRAM_PARALLEL_THRESHOLD: usize = 1 << 15;
/// See [`PROGRAM_PARALLEL_THRESHOLD`].
const FIXED_PARALLEL_THRESHOLD: usize = 1 << 17;

/// Host threads available for row bands, looked up once per process (on
/// Linux each lookup reads cgroup files).
fn host_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8)
    })
}

fn check_rects(fb: &Framebuffer, rects: &[Rect]) -> GpuResult<()> {
    match rects.iter().find(|r| !r.fits(fb.width(), fb.height())) {
        Some(rect) => Err(GpuError::RectOutOfBounds {
            rect: *rect,
            width: fb.width(),
            height: fb.height(),
        }),
        None => Ok(()),
    }
}

/// Complete a pass's accounting from its fragment counts.
fn finish_cost(mut cost: DrawCost, inputs: &DrawInputs<'_>, profile: &HardwareProfile) -> DrawCost {
    let program_cycles = inputs.program.map_or(0, |p| p.cycle_cost);
    cost.instructions = cost.shaded * inputs.program.map_or(0, |p| p.len() as u64);
    cost.modeled_ns = ns(
        profile.fill_seconds(cost.fragments, cost.shaded, program_cycles)
            + profile.draw_call_overhead_s,
    );
    cost
}

/// Rasterize one row band: run every rect row in `[row_start, row_end)`,
/// clipped to the scissor, through the span kernel.
fn rasterize_band(
    kernel: &SpanKernel<'_>,
    band: &mut FbBand<'_>,
    rects: &[Rect],
    fb_width: usize,
    (row_start, row_end): (usize, usize),
) -> DrawCost {
    let mut lanes = kernel.lanes();
    let mut cost = DrawCost::default();
    let scissor = &kernel.scissor;
    for rect in rects {
        let (mut x0, mut x1) = (rect.x, rect.x + rect.width);
        let (mut y0, mut y1) = (rect.y.max(row_start), (rect.y + rect.height).min(row_end));
        if scissor.enabled {
            x0 = x0.max(scissor.x);
            x1 = x1.min(scissor.x.saturating_add(scissor.width));
            y0 = y0.max(scissor.y);
            y1 = y1.min(scissor.y.saturating_add(scissor.height));
        }
        if x0 >= x1 {
            continue;
        }
        for y in y0..y1 {
            kernel.run_span(band, &mut lanes, y, (x0, x1), fb_width, &mut cost);
        }
    }
    cost
}

/// Rasterize `rects` into `fb` through the draw's compiled span kernel,
/// returning the pass accounting. This is the device's draw path.
///
/// Large draws are split into disjoint row bands processed on parallel
/// host threads — the simulation analogue of the device's parallel pixel
/// pipes (results are identical: bands never share pixels).
pub fn rasterize(
    inputs: &DrawInputs<'_>,
    fb: &mut Framebuffer,
    rects: &[Rect],
    profile: &HardwareProfile,
) -> GpuResult<DrawCost> {
    check_rects(fb, rects)?;
    let area: usize = rects.iter().map(Rect::area).sum();
    let threshold = if inputs.program.is_some() {
        PROGRAM_PARALLEL_THRESHOLD
    } else {
        FIXED_PARALLEL_THRESHOLD
    };
    let bands = if area < threshold { 1 } else { host_threads() };
    Ok(rasterize_in_bands(inputs, fb, rects, profile, bands))
}

/// [`rasterize`] split into (at most) `bands` row bands.
fn rasterize_in_bands(
    inputs: &DrawInputs<'_>,
    fb: &mut Framebuffer,
    rects: &[Rect],
    profile: &HardwareProfile,
    bands: usize,
) -> DrawCost {
    let fb_width = fb.width();
    let fb_height = fb.height();
    let kernel = SpanKernel::new(inputs, (fb_width, fb_height));
    // Split the rows the rects cover, not the whole framebuffer, so a draw
    // over a prefix of the records still spreads over every band.
    let drawn = rects.iter().filter(|r| r.area() > 0);
    let top = drawn.clone().map(|r| r.y).min().unwrap_or(0);
    let bottom = drawn.map(|r| r.y + r.height).max().unwrap_or(0);
    let bands = bands.min(bottom.saturating_sub(top)).max(1);
    if bands == 1 {
        let cost = rasterize_band(
            &kernel,
            &mut FbBand::full(fb),
            rects,
            fb_width,
            (0, fb_height),
        );
        return finish_cost(cost, inputs, profile);
    }

    // Cut the covered rows into contiguous bands, one per worker.
    let rows_per_band = (bottom - top).div_ceil(bands);
    let skip = top * fb_width;
    let mut color_rest = &mut fb.color.data_mut()[skip..];
    let mut depth_rest = &mut fb.depth.raw_data_mut()[skip..];
    let mut stencil_rest = &mut fb.stencil.data_mut()[skip..];
    let mut partials = vec![DrawCost::default(); bands];
    let mut jobs = Vec::with_capacity(bands);
    let mut row = top;
    for partial in &mut partials {
        if row >= bottom {
            break;
        }
        let row_end = (row + rows_per_band).min(bottom);
        let band_px = (row_end - row) * fb_width;
        let (color, c_rest) = std::mem::take(&mut color_rest).split_at_mut(band_px);
        let (depth, d_rest) = std::mem::take(&mut depth_rest).split_at_mut(band_px);
        let (stencil, s_rest) = std::mem::take(&mut stencil_rest).split_at_mut(band_px);
        color_rest = c_rest;
        depth_rest = d_rest;
        stencil_rest = s_rest;
        let band = FbBand {
            color,
            depth,
            stencil,
            base: row * fb_width,
        };
        jobs.push((partial, band, (row, row_end)));
        row = row_end;
    }
    let kernel = &kernel;
    std::thread::scope(|scope| {
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        // A worker panic (a simulator bug) re-raises when the scope joins
        // its threads. The calling thread takes the first band itself.
        for (partial, mut band, rows) in jobs {
            scope.spawn(move || {
                *partial = rasterize_band(kernel, &mut band, rects, fb_width, rows);
            });
        }
        if let Some((partial, mut band, rows)) = first {
            *partial = rasterize_band(kernel, &mut band, rects, fb_width, rows);
        }
    });

    let mut total = DrawCost::default();
    for p in partials {
        total.fragments += p.fragments;
        total.shaded += p.shaded;
        total.early_rejected += p.early_rejected;
        total.passed += p.passed;
    }
    finish_cost(total, inputs, profile)
}

/// Rasterize `rects` into `fb` with the reference semantics: one fragment
/// at a time through the fixed-function tests and the fragment-program
/// interpreter, on the calling thread. [`rasterize`] must leave the same
/// buffers and return the same accounting.
pub fn rasterize_reference(
    inputs: &DrawInputs<'_>,
    fb: &mut Framebuffer,
    rects: &[Rect],
    profile: &HardwareProfile,
) -> GpuResult<DrawCost> {
    check_rects(fb, rects)?;
    let fb_width = fb.width();
    let env = PipelineEnv {
        state: inputs.state,
        program: inputs.program,
        textures: inputs.textures,
        env: inputs.env,
        quad_depth: inputs.quad_depth,
        draw_color: inputs.draw_color,
        early_z: inputs.early_z,
    };
    let mut band = FbBand::full(fb);
    let mut cost = DrawCost::default();
    for rect in rects {
        for y in rect.y..rect.y + rect.height {
            for x in rect.x..rect.x + rect.width {
                if !inputs.state.scissor.contains(x, y) {
                    continue;
                }
                cost.fragments += 1;
                match process_fragment(&env, &mut band, x, y, y * fb_width + x) {
                    FragmentFate::Passed { shaded } => {
                        cost.passed += 1;
                        cost.shaded += u64::from(shaded);
                    }
                    FragmentFate::Discarded { shaded: true } => cost.shaded += 1,
                    FragmentFate::Discarded { shaded: false } => {
                        if inputs.program.is_some() {
                            cost.early_rejected += 1;
                        }
                    }
                }
            }
        }
    }
    Ok(finish_cost(cost, inputs, profile))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rect_area_and_fit() {
        let r = Rect::new(1, 2, 3, 4);
        assert_eq!(r.area(), 12);
        assert!(r.fits(4, 6));
        assert!(!r.fits(3, 6));
        assert!(!r.fits(4, 5));
        assert!(Rect::full(10, 10).fits(10, 10));
    }

    #[test]
    fn covering_prefix_exact_rows() {
        let rects = Rect::covering_prefix(20, 5);
        assert_eq!(rects, vec![Rect::new(0, 0, 5, 4)]);
        assert_eq!(rects.iter().map(Rect::area).sum::<usize>(), 20);
    }

    #[test]
    fn covering_prefix_with_remainder() {
        let rects = Rect::covering_prefix(23, 5);
        assert_eq!(rects, vec![Rect::new(0, 0, 5, 4), Rect::new(0, 4, 3, 1)]);
        assert_eq!(rects.iter().map(Rect::area).sum::<usize>(), 23);
    }

    #[test]
    fn covering_prefix_small_count() {
        let rects = Rect::covering_prefix(3, 5);
        assert_eq!(rects, vec![Rect::new(0, 0, 3, 1)]);
    }

    #[test]
    fn covering_prefix_zero() {
        assert!(Rect::covering_prefix(0, 5).is_empty());
    }

    #[test]
    fn row_bands_match_reference() {
        // Bands split the framebuffer at row boundaries that fall inside
        // rects; every band count must leave the reference's bytes, for a
        // program pass and for the database layer's fixed-function passes.
        use crate::program::{assemble, builtin};
        use crate::state::{ColorMask, CompareFunc, StencilOp};
        let (w, h) = (37, 11);
        let data = (0..w * h).map(|i| ((i * 7919) % 1000) as f32).collect();
        let texture = Texture::from_data(w, h, crate::TextureFormat::R, data).unwrap();
        let textures = [Some(&texture)];
        let mut env = [[0.0f32; 4]; 32];
        env[builtin::ENV_SCALE] = [1.0 / 1000.0, 0.0, 0.0, 0.0];
        env[builtin::ENV_CHANNEL] = builtin::channel_selector(0);
        let copy = builtin::copy_to_depth();
        let shade = assemble(
            "!!ARBfp1.0
             TEX R0, fragment.texcoord[0], texture[0], 2D;
             MUL result.color, R0, program.env[0].x;
             END",
        )
        .unwrap();

        let mut copy_state = PipelineState::default();
        copy_state.depth.test_enabled = true;
        copy_state.depth.func = CompareFunc::Less;
        copy_state.stencil.enabled = true;
        copy_state.stencil.op_zpass = StencilOp::Incr;
        // The database layer's passes draw over a 0/1 selection in the
        // stencil buffer with color writes off.
        let mut selected = PipelineState {
            color_mask: ColorMask::NONE,
            ..Default::default()
        };
        selected.stencil.enabled = true;
        selected.stencil.func = CompareFunc::Equal;
        selected.stencil.reference = 1;
        selected.depth.write_enabled = false;
        // Routine 4.5's per-bit pass: stencil Equal/Keep, depth GEqual.
        let mut kth = selected.clone();
        kth.depth.test_enabled = true;
        kth.depth.func = CompareFunc::GreaterEqual;
        // A selection pass: mark the records passing the depth test.
        let mut select = kth.clone();
        select.stencil.func = CompareFunc::Always;
        select.stencil.op_zfail = StencilOp::Zero;
        select.stencil.op_zpass = StencilOp::Replace;
        // Routine 4.4's range pass.
        let mut bounds = select.clone();
        bounds.depth.test_enabled = false;
        bounds.depth_bounds.enabled = true;
        bounds.depth_bounds.min = 0.25;
        bounds.depth_bounds.max = 0.5;
        // Early-z shading of the selected records that pass a depth test.
        let mut early = kth.clone();
        early.color_mask = ColorMask::default();
        let draws: [(&PipelineState, Option<&FragmentProgram>, f32); 5] = [
            (&copy_state, Some(&copy), 0.0),
            (&kth, None, 0.375),
            (&select, None, 0.625),
            (&bounds, None, 0.5),
            (&early, Some(&shade), 0.5),
        ];

        let profile = HardwareProfile::geforce_fx_5900();
        let mut start = Framebuffer::new(w, h);
        for i in 0..w * h {
            start.depth.set_raw(i, ((i * 104_729) % (1 << 24)) as u32);
            start.stencil.set(i, ((i * 31) % 7 % 2) as u8);
        }
        let layouts = [
            Rect::covering_prefix(w * h - 5, w),
            // Only some middle rows are covered: bands split those.
            vec![Rect::new(3, 4, 20, 5), Rect::new(0, 6, 37, 1)],
            vec![Rect::new(2, 2, 0, 9)],
        ];
        for (d, &(state, program, quad_depth)) in draws.iter().enumerate() {
            let inputs = DrawInputs {
                state,
                program,
                textures: &textures,
                env: &env,
                quad_depth,
                draw_color: [1.0; 4],
                early_z: true,
            };
            for rects in &layouts {
                let mut reference = start.clone();
                let expected =
                    rasterize_reference(&inputs, &mut reference, rects, &profile).unwrap();
                // Some fragments pass and some fail, so the masks matter.
                if expected.fragments > 0 {
                    assert!(expected.passed > 0, "draw {d}, {rects:?}");
                    assert!(expected.passed < expected.fragments, "draw {d}, {rects:?}");
                }
                for bands in [1, 2, 3, 4, 11, 16] {
                    let mut fb = start.clone();
                    let cost = rasterize_in_bands(&inputs, &mut fb, rects, &profile, bands);
                    assert_eq!(cost, expected, "draw {d}, {bands} bands, {rects:?}");
                    assert_eq!(fb, reference, "draw {d}, {bands} bands, {rects:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_rect_is_a_typed_error() {
        let state = PipelineState::default();
        let inputs = DrawInputs {
            state: &state,
            program: None,
            textures: &[],
            env: &[],
            quad_depth: 0.5,
            draw_color: [1.0; 4],
            early_z: true,
        };
        let mut fb = Framebuffer::new(4, 4);
        let profile = HardwareProfile::geforce_fx_5900();
        let rects = [Rect::new(2, 0, 3, 1)];
        for result in [
            rasterize(&inputs, &mut fb, &rects, &profile),
            rasterize_reference(&inputs, &mut fb, &rects, &profile),
        ] {
            assert!(matches!(result, Err(GpuError::RectOutOfBounds { .. })));
        }
    }

    #[test]
    fn covering_prefix_covers_distinct_pixels() {
        // The rects must tile without overlap for any n.
        for n in [1usize, 4, 5, 6, 99, 100, 101] {
            let rects = Rect::covering_prefix(n, 10);
            let mut seen = std::collections::HashSet::new();
            for r in &rects {
                for y in r.y..r.y + r.height {
                    for x in r.x..r.x + r.width {
                        assert!(seen.insert((x, y)), "overlap at ({x},{y}) for n={n}");
                    }
                }
            }
            assert_eq!(seen.len(), n);
        }
    }
}
