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
use crate::pipeline::{process_fragment, FbTile, FragmentFate, PipelineEnv, SpanKernel};
use crate::pool::{self, Pool};
use crate::program::isa::FragmentProgram;
use crate::program::lower::Lanes;
use crate::state::PipelineState;
use crate::texture::Texture;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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
    pub textures: &'a [Option<Arc<Texture>>],
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
    /// Whether the tests run in two widths: a stencil-writing draw whose
    /// tests can fail tests depth in `u32` lanes and updates the stencil
    /// in byte lanes.
    pub two_width: bool,
    /// Whether the draw is the copy-to-depth pass run as one loop from the
    /// texels straight into the stored depth.
    pub depth_copy: bool,
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

/// Fragments per framebuffer row tile (rounded down to whole rows, at
/// least one): the unit of work a draw hands to a host thread.
///
/// Measured on a shared 2-vCPU x86-64 VM (the caller plus one pool
/// worker): full-quad draws in the database layer's states over a 1-in-3
/// stencil selection, 256 pixels wide at 16k and 64k fragments and 1000
/// wide at 1M, 401 interleaved draws per cell, median µs per draw. "One
/// tile" is a framebuffer cut into a single tile, which the calling thread
/// runs alone. The copy is the one-loop copy-to-depth; the stencil select
/// (stencil `Equal`, `op_zfail` `Zero`, depth `GEqual`) runs in two widths;
/// compare-and-count is the same pass with all ops `Keep`:
///
/// | fragments | draw | one tile | 2k tiles | 4k tiles | 8k tiles | 16k tiles |
/// |-----------|-------------------|------|------|------|------|------|
/// | 16k | copy-to-depth         | 21.5 | 13.3 | 12.5 | 12.1 | 21.5 |
/// | 16k | compare-and-count     | 8.2  | 9.2  | 6.2  | 5.5  | 8.4  |
/// | 16k | stencil select        | 12.7 | 12.3 | 8.7  | 7.8  | 13.0 |
/// | 64k | copy-to-depth         | 83   | 51   | 45   | 43   | 43   |
/// | 64k | compare-and-count     | 31   | 24   | 20   | 19   | 17   |
/// | 64k | stencil select        | 49   | 38   | 31   | 29   | 27   |
/// | 1M  | copy-to-depth         | 1246 | 765  | 663  | 646  | 634  |
/// | 1M  | compare-and-count     | 466  | 408  | 296  | 270  | 252  |
/// | 1M  | stencil select        | 707  | 583  | 434  | 401  | 380  |
///
/// Smaller tiles pay more hand-offs; 16k tiles gain 1–7% over 8k on the
/// larger draws but leave a 16k-fragment draw (a sharded partition) on
/// one thread, where 8k tiles save 33–44%.
pub(crate) const TILE_FRAGMENTS: usize = 1 << 13;

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

/// Rasterize one row tile: run every rect row the tile holds, clipped to
/// the scissor, through the span kernel.
fn rasterize_tile(
    kernel: &SpanKernel,
    lanes: &mut Lanes,
    tile: &mut FbTile,
    rects: &[Rect],
    fb_width: usize,
) -> DrawCost {
    let mut cost = DrawCost::default();
    let scissor = &kernel.scissor;
    let (row_start, row_end) = tile.rows;
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
            kernel.run_span(tile, lanes, y, (x0, x1), fb_width, &mut cost);
        }
    }
    cost
}

/// Rasterize `rects` into `fb` through the draw's compiled span kernel,
/// returning the pass accounting. This is the device's draw path.
///
/// The framebuffer's row tiles that the rects cover run on the calling
/// thread and the process-wide worker pool — the simulation analogue of
/// the device's parallel pixel pipes. Tiles never share pixels and their
/// counts are summed in tile order, so buffers and accounting are the
/// same whichever thread ran each tile.
pub fn rasterize(
    inputs: &DrawInputs<'_>,
    fb: &mut Framebuffer,
    rects: &[Rect],
    profile: &HardwareProfile,
) -> GpuResult<DrawCost> {
    check_rects(fb, rects)?;
    Ok(rasterize_on(Pool::global(), inputs, fb, rects, profile))
}

/// [`rasterize`] with `pool`'s workers, or on the calling thread alone.
fn rasterize_on(
    pool: Option<&Pool>,
    inputs: &DrawInputs<'_>,
    fb: &mut Framebuffer,
    rects: &[Rect],
    profile: &HardwareProfile,
) -> DrawCost {
    // The rows the rects cover, within the scissor.
    let drawn = rects.iter().filter(|r| r.area() > 0);
    let mut top = drawn.clone().map(|r| r.y).min().unwrap_or(0);
    let mut bottom = drawn.map(|r| r.y + r.height).max().unwrap_or(0);
    let scissor = &inputs.state.scissor;
    if scissor.enabled {
        top = top.max(scissor.y);
        bottom = bottom.min(scissor.y.saturating_add(scissor.height));
    }
    if top >= bottom {
        return finish_cost(DrawCost::default(), inputs, profile);
    }

    let (fb_width, tile_rows) = (fb.width(), fb.tile_rows());
    let first = top / tile_rows;
    let tiles = (first..bottom.div_ceil(tile_rows))
        .map(|t| fb.take_tile(t))
        .collect();
    let kernel = Arc::new(SpanKernel::new(inputs, (fb_width, fb.height())));
    let lanes_kernel = Arc::clone(&kernel);
    let rects = rects.to_vec();
    let done = pool::run_all(
        pool,
        tiles,
        move || lanes_kernel.lanes(),
        move |lanes, tile| rasterize_tile(&kernel, lanes, tile, &rects, fb_width),
    );

    let mut total = DrawCost::default();
    let mut panic = None;
    for (t, (tile, cost)) in (first..).zip(done) {
        fb.put_tile(t, tile);
        match cost {
            Ok(cost) => {
                total.fragments += cost.fragments;
                total.shaded += cost.shaded;
                total.early_rejected += cost.early_rejected;
                total.passed += cost.passed;
            }
            Err(payload) => panic = panic.or(Some(payload)),
        }
    }
    // A panic while running a tile (a simulator bug) re-raises here, with
    // every tile back in the framebuffer.
    if let Some(payload) = panic {
        std::panic::resume_unwind(payload);
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
    let (fb_width, tile_rows) = (fb.width(), fb.tile_rows());
    let textures: Vec<Option<&Texture>> = inputs.textures.iter().map(Option::as_deref).collect();
    let env = PipelineEnv {
        state: inputs.state,
        program: inputs.program,
        textures: &textures,
        env: inputs.env,
        quad_depth: inputs.quad_depth,
        draw_color: inputs.draw_color,
        early_z: inputs.early_z,
    };
    let mut tiles: Vec<FbTile> = (0..fb.tile_count()).map(|t| fb.take_tile(t)).collect();
    let mut cost = DrawCost::default();
    for rect in rects {
        for y in rect.y..rect.y + rect.height {
            for x in rect.x..rect.x + rect.width {
                if !inputs.state.scissor.contains(x, y) {
                    continue;
                }
                cost.fragments += 1;
                let tile = &mut tiles[y / tile_rows];
                match process_fragment(&env, tile, x, y, y * fb_width + x) {
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
    for (t, tile) in tiles.into_iter().enumerate() {
        fb.put_tile(t, tile);
    }
    Ok(finish_cost(cost, inputs, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GpuStats;

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
    fn row_tiles_match_reference() {
        // Tiles split the framebuffer at row boundaries that fall inside
        // rects; every tile height, run on the calling thread alone or with
        // pool workers, must leave the reference's bytes and counts, for
        // program passes and the database layer's fixed-function passes,
        // scissored or not.
        use crate::program::{assemble, builtin};
        use crate::state::{ColorMask, CompareFunc, StencilOp};
        let (w, h) = (37, 11);
        let data = (0..w * h).map(|i| ((i * 7919) % 1000) as f32).collect();
        let texture = Texture::from_data(w, h, crate::TextureFormat::R, data).unwrap();
        let textures = [Some(Arc::new(texture))];
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
        // The selection and copy passes again, under a scissor that cuts
        // rows and columns out of every layout.
        let mut scissored_select = select.clone();
        scissored_select.scissor = crate::state::ScissorState {
            enabled: true,
            x: 5,
            y: 3,
            width: 20,
            height: 6,
        };
        let mut scissored_copy = copy_state.clone();
        scissored_copy.scissor = crate::state::ScissorState {
            enabled: true,
            x: 0,
            y: 5,
            width: 30,
            height: 100,
        };
        let draws: [(&PipelineState, Option<&FragmentProgram>, f32); 7] = [
            (&copy_state, Some(&copy), 0.0),
            (&kth, None, 0.375),
            (&select, None, 0.625),
            (&bounds, None, 0.5),
            (&early, Some(&shade), 0.5),
            (&scissored_select, None, 0.625),
            (&scissored_copy, Some(&copy), 0.0),
        ];

        let profile = HardwareProfile::geforce_fx_5900();
        let start = |tile_rows| {
            let mut fb = Framebuffer::with_tile_rows(w, h, tile_rows);
            for i in 0..w * h {
                fb.depth.set_raw(i, ((i * 104_729) % (1 << 24)) as u32);
                fb.stencil.set(i, ((i * 31) % 7 % 2) as u8);
            }
            fb
        };
        let workers = Pool::new(2);
        let layouts = [
            Rect::covering_prefix(w * h - 5, w),
            // Only some middle rows are covered: tiles split those.
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
                let mut reference = start(h);
                let expected =
                    rasterize_reference(&inputs, &mut reference, rects, &profile).unwrap();
                // Some fragments pass and some fail, so the masks matter.
                if expected.fragments > 0 {
                    assert!(expected.passed > 0, "draw {d}, {rects:?}");
                    assert!(expected.passed < expected.fragments, "draw {d}, {rects:?}");
                }
                for tile_rows in [1, 2, 3, 7, h] {
                    for pool in [None, Some(&workers)] {
                        let context = format!(
                            "draw {d}, {tile_rows}-row tiles, workers {}, {rects:?}",
                            pool.is_some()
                        );
                        let mut fb = start(tile_rows);
                        let cost = rasterize_on(pool, &inputs, &mut fb, rects, &profile);
                        assert_eq!(cost, expected, "{context}");
                        assert_eq!(fb, reference, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn concurrent_devices_match_a_sequential_run() {
        // Several threads each run the database layer's passes on their own
        // device at once, sharing the process-wide pool: every device must
        // end byte-identical to the same session run alone.
        use crate::device::Gpu;
        use crate::program::builtin;
        use crate::state::{CompareFunc, StencilOp};
        use crate::TextureFormat;
        use std::sync::Barrier;

        fn session(seed: usize) -> (Vec<u32>, Vec<u8>, Vec<u64>, GpuStats) {
            // 256 x 128: four 8k-fragment tiles.
            let (w, h) = (256, 128);
            let mut gpu = Gpu::geforce_fx_5900(w, h);
            let data = (0..w * h)
                .map(|i| ((i * 7919 + seed * 104_729) % 1000) as f32)
                .collect();
            let texture = Texture::from_data(w, h, TextureFormat::R, data).unwrap();
            let id = gpu.create_texture(texture).unwrap();
            gpu.bind_texture(0, Some(id)).unwrap();
            gpu.bind_program(Some(builtin::copy_to_depth()));
            gpu.set_program_env(builtin::ENV_SCALE, [1.0 / 1000.0, 0.0, 0.0, 0.0])
                .unwrap();
            gpu.set_program_env(builtin::ENV_CHANNEL, builtin::channel_selector(0))
                .unwrap();
            gpu.set_depth_test(true, CompareFunc::Always);
            gpu.set_depth_write(true);
            gpu.draw_full_quad(0.0).unwrap();
            gpu.bind_program(None);
            gpu.set_depth_write(false);
            gpu.set_stencil_func(true, CompareFunc::Always, 1, 0xFF);
            gpu.set_stencil_op(StencilOp::Keep, StencilOp::Zero, StencilOp::Replace);
            let mut counts = Vec::new();
            for step in 0..8 {
                let threshold = ((seed + step) * 113 % 1000) as f32 / 1000.0;
                gpu.set_depth_test(true, CompareFunc::Less);
                gpu.begin_occlusion_query().unwrap();
                gpu.draw_quad(&Rect::covering_prefix(w * h - step * 37, w), threshold)
                    .unwrap();
                counts.push(gpu.end_occlusion_query().unwrap());
            }
            let depth = gpu.read_depth_buffer_raw().unwrap();
            let stencil = gpu.read_stencil_buffer().unwrap();
            let mut stats = gpu.stats().clone();
            stats.wall = Default::default();
            (depth, stencil, counts, stats)
        }

        const THREADS: usize = 4;
        let sequential: Vec<_> = (0..THREADS).map(session).collect();
        let barrier = Barrier::new(THREADS);
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|seed| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        session(seed)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(sequential
            .iter()
            .all(|(_, _, counts, _)| counts.iter().any(|&c| c > 0)));
        assert_eq!(concurrent, sequential);
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
