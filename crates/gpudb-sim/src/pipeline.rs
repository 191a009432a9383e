//! The fragment pipeline: fragment program, then the fixed-function test
//! sequence in authentic OpenGL order.
//!
//! Order of operations for each fragment (§3.1 of the paper, plus the
//! `EXT_depth_bounds_test` specification):
//!
//! 1. fragment program (may replace color/depth or `KIL` the fragment);
//! 2. alpha test — failing fragments are discarded with **no** stencil
//!    side effect;
//! 3. stencil test — failing fragments run the `op_fail` stencil update,
//!    then are discarded;
//! 4. depth bounds test — compares the depth value **already stored in the
//!    framebuffer** against the bounds; failing fragments are discarded
//!    with no stencil side effect;
//! 5. depth test — failing fragments run `op_zfail`; passing fragments run
//!    `op_zpass`, write depth (if enabled) and color (per mask), and count
//!    toward any active occlusion query.
//!
//! Two implementations of that sequence live here:
//!
//! * [`SpanKernel`], the draw path. It is built once per draw: the bound
//!   program is lowered ([`crate::program::lower`]) and everything fixed
//!   for the draw is hoisted out of the pixel loop — the path a fragment
//!   takes (fixed-function, early-z or late), the quantized quad depth, the
//!   alpha outcome of the flat color, and the test state. It then runs
//!   the program over row spans of up to [`LANES`] fragments and the tests
//!   over the same span as one data-parallel stage ([`TestStage`]):
//!   compare functions become (less, equal, greater) bits, stencil ops
//!   byte arithmetic, depth bounds an integer range of stored depths, and
//!   a disabled test one that always passes. Per fragment the stage
//!   computes stencil, bounds and depth pass masks with no data-dependent
//!   branch, blends the stencil and depth side effects from them and sums
//!   the pass mask. The loop is compiled four times, for whether the
//!   stencil can change and whether depth is written; the database
//!   layer's counting passes (all ops `Keep`, no depth write) run as a
//!   plain compare-and-count loop. The late path first clears the lanes
//!   that `KIL` or the alpha test discarded; the early path shades the
//!   survivors afterwards.
//! * [`process_fragment`], the reference semantics: one fragment at a
//!   time through [`crate::program::interp::execute`]. Only the public
//!   reference rasterizer and tests reach it; the kernel must match it
//!   byte for byte.
//!
//! The kernel's `shaded`, `early_rejected` and `passed` counts follow the
//! fate rules of [`process_fragment`], not which lanes it computed, so the
//! modeled clock is the same whichever implementation ran.
//!
//! Both operate on an [`FbBand`] — a mutable view over a contiguous row
//! range of the framebuffer — so that the rasterizer can process disjoint
//! row bands on parallel host threads, mirroring the device's parallel
//! pixel pipes.

use crate::buffers::{dequantize_depth, quantize_depth, Framebuffer, DEPTH_SCALE};
use crate::cost::DrawCost;
use crate::program::interp::{execute, FragmentContext, FragmentInput};
use crate::program::isa::FragmentProgram;
use crate::program::lower::{DrawConstants, Lanes, LoweredProgram, LANES};
use crate::raster::DrawInputs;
use crate::state::{AlphaState, CompareFunc, PipelineState, ScissorState, StencilOp};
use crate::texture::Texture;

/// What happened to a fragment, with enough detail for cost accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FragmentFate {
    /// Passed all tests (counts toward occlusion queries).
    Passed { shaded: bool },
    /// Discarded by some test or by `KIL`.
    Discarded { shaded: bool },
}

/// A mutable view over a contiguous pixel range of the framebuffer
/// (whole rows). `base` is the global linear index of the first pixel.
pub(crate) struct FbBand<'a> {
    pub color: &'a mut [[f32; 4]],
    pub depth: &'a mut [u32],
    pub stencil: &'a mut [u8],
    pub base: usize,
}

impl<'a> FbBand<'a> {
    /// A band covering the entire framebuffer.
    pub fn full(fb: &'a mut Framebuffer) -> FbBand<'a> {
        FbBand {
            color: fb.color.data_mut(),
            depth: fb.depth.raw_data_mut(),
            stencil: fb.stencil.data_mut(),
            base: 0,
        }
    }

    #[inline(always)]
    fn local(&self, global_idx: usize) -> usize {
        debug_assert!(global_idx >= self.base && global_idx - self.base < self.depth.len());
        global_idx - self.base
    }
}

/// Immutable per-draw context shared by all fragments.
pub(crate) struct PipelineEnv<'a> {
    pub state: &'a PipelineState,
    pub program: Option<&'a FragmentProgram>,
    pub textures: &'a [Option<&'a Texture>],
    pub env: &'a [[f32; 4]],
    pub quad_depth: f32,
    pub draw_color: [f32; 4],
    pub early_z: bool,
}

impl<'a> PipelineEnv<'a> {
    /// Whether the early-z fast path is usable: the fragment's depth and
    /// discard behavior must be fully known before shading. A program that
    /// writes `result.depth` or contains `KIL` forces late testing (the
    /// NV3x behavior the paper exploits in §6.2.1), and an enabled alpha
    /// test may depend on the program's output alpha.
    fn early_tests_eligible(&self) -> bool {
        self.early_z
            && match self.program {
                None => true,
                Some(p) => !p.writes_depth && !p.has_kil && !self.state.alpha.enabled,
            }
    }
}

/// Outcome of the fixed-function test sequence.
enum TestOutcome {
    /// Fragment passed alpha, stencil, bounds and depth.
    Pass,
    /// Fragment was discarded by some test.
    Fail,
}

/// Run the post-shading test sequence and all buffer side effects except
/// the color write (the caller supplies color only for passing fragments).
///
/// `frag_depth` is the fragment's incoming depth in normalized units;
/// `alpha` its output alpha.
#[inline(always)]
fn run_tests(
    state: &PipelineState,
    band: &mut FbBand<'_>,
    idx: usize,
    frag_depth: f32,
    alpha: f32,
) -> TestOutcome {
    let idx = band.local(idx);

    // 2. Alpha test: discarded fragments have no further effect.
    if !state.alpha.test(alpha) {
        return TestOutcome::Fail;
    }

    // 3. Stencil test.
    let stencil = &state.stencil;
    if stencil.enabled {
        let stored = band.stencil[idx];
        if !stencil.test(stored) {
            band.stencil[idx] = stencil.write(stored, stencil.op_fail);
            return TestOutcome::Fail;
        }
    }

    // 4. Depth bounds test: inspects the *stored* framebuffer depth and
    // discards without any stencil update (per the EXT spec).
    if state.depth_bounds.enabled && !state.depth_bounds.test(dequantize_depth(band.depth[idx])) {
        return TestOutcome::Fail;
    }

    // 5. Depth test, in the quantized 24-bit integer domain, under the
    // (normally all-ones) depth compare mask.
    let q_frag = quantize_depth(frag_depth as f64);
    let depth_pass = if state.depth.test_enabled {
        let mask = state.depth.compare_mask;
        state.depth.func.eval(q_frag & mask, band.depth[idx] & mask)
    } else {
        true
    };

    if !depth_pass {
        if stencil.enabled {
            let stored = band.stencil[idx];
            band.stencil[idx] = stencil.write(stored, stencil.op_zfail);
        }
        return TestOutcome::Fail;
    }

    if stencil.enabled {
        let stored = band.stencil[idx];
        band.stencil[idx] = stencil.write(stored, stencil.op_zpass);
    }
    if state.depth.write_enabled {
        band.depth[idx] = q_frag;
    }
    TestOutcome::Pass
}

/// Write a passing fragment's color, honoring the color mask.
#[inline(always)]
fn write_color(state: &PipelineState, band: &mut FbBand<'_>, idx: usize, color: [f32; 4]) {
    let mask = state.color_mask;
    if !mask.any() {
        return;
    }
    let idx = band.local(idx);
    let stored = &mut band.color[idx];
    if mask.red {
        stored[0] = color[0];
    }
    if mask.green {
        stored[1] = color[1];
    }
    if mask.blue {
        stored[2] = color[2];
    }
    if mask.alpha {
        stored[3] = color[3];
    }
}

/// Process one fragment at pixel `(x, y)` / global linear index `idx`.
#[inline]
pub(crate) fn process_fragment(
    env: &PipelineEnv<'_>,
    band: &mut FbBand<'_>,
    x: usize,
    y: usize,
    idx: usize,
) -> FragmentFate {
    match env.program {
        None => {
            // Pure fixed-function fragment: flat depth and color.
            match run_tests(env.state, band, idx, env.quad_depth, env.draw_color[3]) {
                TestOutcome::Pass => {
                    write_color(env.state, band, idx, env.draw_color);
                    FragmentFate::Passed { shaded: false }
                }
                TestOutcome::Fail => FragmentFate::Discarded { shaded: false },
            }
        }
        Some(program) => {
            if env.early_tests_eligible() {
                // Early path: the incoming depth is the quad depth and the
                // program cannot discard, so run all tests first and shade
                // only surviving fragments (this is what makes early
                // depth-culling "a significant performance increase",
                // §6.2.1).
                match run_tests(env.state, band, idx, env.quad_depth, env.draw_color[3]) {
                    TestOutcome::Pass => {
                        if env.state.color_mask.any() {
                            let input =
                                FragmentInput::for_pixel(x, y, env.quad_depth, env.draw_color);
                            let ctx = FragmentContext {
                                textures: env.textures,
                                env: env.env,
                            };
                            let out = execute(program, &input, &ctx);
                            write_color(env.state, band, idx, out.color);
                            FragmentFate::Passed { shaded: true }
                        } else {
                            // Nothing observable from the program: the
                            // hardware still passes the fragment but the
                            // shading itself is skipped by early-z.
                            FragmentFate::Passed { shaded: false }
                        }
                    }
                    TestOutcome::Fail => FragmentFate::Discarded { shaded: false },
                }
            } else {
                // Late path: shade first, then test.
                let input = FragmentInput::for_pixel(x, y, env.quad_depth, env.draw_color);
                let ctx = FragmentContext {
                    textures: env.textures,
                    env: env.env,
                };
                let out = execute(program, &input, &ctx);
                if out.killed {
                    return FragmentFate::Discarded { shaded: true };
                }
                let frag_depth = out.depth.unwrap_or(env.quad_depth);
                match run_tests(env.state, band, idx, frag_depth, out.color[3]) {
                    TestOutcome::Pass => {
                        write_color(env.state, band, idx, out.color);
                        FragmentFate::Passed { shaded: true }
                    }
                    TestOutcome::Fail => FragmentFate::Discarded { shaded: true },
                }
            }
        }
    }
}

/// The sequence every fragment of a draw follows, fixed per draw.
#[derive(Debug)]
enum Path<'a> {
    /// No program: flat depth and color.
    Fixed,
    /// Early-z: test with the quad depth, then shade the survivors.
    Early(LoweredProgram<'a>),
    /// Shade first (the program may discard or replace depth), then test.
    Late(LoweredProgram<'a>),
}

/// A compare function as the orderings it accepts: `incoming op stored`
/// holds iff the pair is less, equal or greater with that bit set. For
/// totally ordered integers this is [`CompareFunc::eval`] without a
/// `match` per fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompareBits {
    lt: bool,
    eq: bool,
    gt: bool,
}

impl CompareBits {
    fn new(func: CompareFunc) -> CompareBits {
        CompareBits {
            lt: func.eval(0, 1),
            eq: func.eval(0, 0),
            gt: func.eval(1, 0),
        }
    }

    #[inline(always)]
    fn eval<T: Ord>(self, incoming: T, stored: T) -> bool {
        (self.lt & (incoming < stored))
            | (self.eq & (incoming == stored))
            | (self.gt & (incoming > stored))
    }
}

/// A stencil op as byte arithmetic, built once per draw:
/// `(((s & and) ^ xor) + wrap) +| add -| sub`, where `+` wraps and `+|`,
/// `-|` saturate. Every [`StencilOp`] is one choice of the five constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpForm {
    and: u8,
    xor: u8,
    wrap: u8,
    add: u8,
    sub: u8,
}

impl OpForm {
    fn new(op: StencilOp, reference: u8) -> OpForm {
        let keep = OpForm {
            and: 0xFF,
            xor: 0,
            wrap: 0,
            add: 0,
            sub: 0,
        };
        match op {
            StencilOp::Keep => keep,
            StencilOp::Zero => OpForm { and: 0, ..keep },
            StencilOp::Replace => OpForm {
                and: 0,
                xor: reference,
                ..keep
            },
            StencilOp::Incr => OpForm { add: 1, ..keep },
            StencilOp::Decr => OpForm { sub: 1, ..keep },
            StencilOp::Invert => OpForm { xor: 0xFF, ..keep },
            StencilOp::IncrWrap => OpForm { wrap: 1, ..keep },
            StencilOp::DecrWrap => OpForm { wrap: 0xFF, ..keep },
        }
    }

    #[inline(always)]
    fn apply(self, s: u8) -> u8 {
        ((s & self.and) ^ self.xor)
            .wrapping_add(self.wrap)
            .saturating_add(self.add)
            .saturating_sub(self.sub)
    }
}

/// The inclusive depth bounds `[min, max]` as an inclusive range of raw
/// stored depths, so that `lo <= raw && raw <= hi` iff
/// `min <= raw / 2^24 && raw / 2^24 <= max` for every `u32` raw value.
///
/// Scaling by `2^24` is exact (an overflow to infinity keeps the
/// comparison's outcome) and an integer is `>= x` iff it is `>= ceil(x)`.
/// A NaN bound or an interval holding no `u32` becomes the empty `(1, 0)`.
fn raw_bounds(min: f64, max: f64) -> (u32, u32) {
    let lo = (min * DEPTH_SCALE).ceil();
    let hi = (max * DEPTH_SCALE).floor();
    if lo.is_nan() || hi.is_nan() || lo > hi || hi < 0.0 || lo > f64::from(u32::MAX) {
        return (1, 0);
    }
    // Both casts are in range: `lo <= u32::MAX` and `hi >= 0` hold here.
    (lo.max(0.0) as u32, hi.min(f64::from(u32::MAX)) as u32)
}

/// The stencil, depth-bounds and depth tests of one draw as a
/// data-parallel stage. A disabled test becomes one that always passes
/// (`Always`, bounds `[0, u32::MAX]`), so every fragment takes the same
/// instructions: the three outcomes are computed as masks, the stencil and
/// depth side effects blended from them, and the pass mask summed.
#[derive(Debug, Clone, Copy)]
struct TestStage {
    stencil_func: CompareBits,
    /// `reference & value_mask`.
    stencil_ref: u8,
    value_mask: u8,
    /// The stencil ops on stencil fail, depth fail and depth pass.
    ops: [OpForm; 3],
    write_mask: u8,
    /// Inclusive raw-domain depth bounds.
    bounds: (u32, u32),
    depth_func: CompareBits,
    depth_mask: u32,
    /// Whether any fragment can change its stored stencil value.
    stencil_writes: bool,
    depth_write: bool,
}

impl TestStage {
    fn new(state: &PipelineState) -> TestStage {
        let stencil = &state.stencil;
        let always = CompareBits::new(CompareFunc::Always);
        let ops = [stencil.op_fail, stencil.op_zfail, stencil.op_zpass];
        let bounds = &state.depth_bounds;
        TestStage {
            stencil_func: if stencil.enabled {
                CompareBits::new(stencil.func)
            } else {
                always
            },
            stencil_ref: stencil.reference & stencil.value_mask,
            value_mask: stencil.value_mask,
            ops: ops.map(|op| OpForm::new(op, stencil.reference)),
            write_mask: stencil.write_mask,
            bounds: if bounds.enabled {
                raw_bounds(bounds.min, bounds.max)
            } else {
                (0, u32::MAX)
            },
            depth_func: if state.depth.test_enabled {
                CompareBits::new(state.depth.func)
            } else {
                always
            },
            depth_mask: state.depth.compare_mask,
            stencil_writes: stencil.enabled
                && stencil.write_mask != 0
                && ops.iter().any(|&op| op != StencilOp::Keep),
            depth_write: state.depth.write_enabled,
        }
    }

    /// Test a span of fragments of quantized depths `q` against their
    /// stored `stencil` and `depth`, applying the side effects. On entry
    /// `pass` holds which fragments are live (a dead one has no effect);
    /// on return, which passed. Returns how many passed.
    #[inline(always)]
    fn run(&self, stencil: &mut [u8], depth: &mut [u32], q: &[u32], pass: &mut [bool]) -> u64 {
        match (self.stencil_writes, self.depth_write) {
            (false, false) => self.run_with::<false, false>(stencil, depth, q, pass),
            (false, true) => self.run_with::<false, true>(stencil, depth, q, pass),
            (true, false) => self.run_with::<true, false>(stencil, depth, q, pass),
            (true, true) => self.run_with::<true, true>(stencil, depth, q, pass),
        }
    }

    /// [`TestStage::run`] with the side effects that can happen fixed at
    /// compile time: with neither, the loop only compares and counts.
    #[inline(always)]
    fn run_with<const STENCIL_WRITES: bool, const DEPTH_WRITE: bool>(
        &self,
        stencil: &mut [u8],
        depth: &mut [u32],
        q: &[u32],
        pass: &mut [bool],
    ) -> u64 {
        // A `u32` count keeps four lanes per 128-bit vector; a span holds
        // far fewer than `u32::MAX` fragments.
        let mut passed = 0u32;
        let n = pass.len();
        let (stencil, depth, q) = (&mut stencil[..n], &mut depth[..n], &q[..n]);
        for l in 0..n {
            let (stored_s, stored_d, q) = (stencil[l], depth[l], q[l]);
            let stencil_pass = self
                .stencil_func
                .eval(self.stencil_ref, stored_s & self.value_mask);
            let bounds_pass = (stored_d >= self.bounds.0) & (stored_d <= self.bounds.1);
            let depth_pass = self
                .depth_func
                .eval(q & self.depth_mask, stored_d & self.depth_mask);
            let live = pass[l];
            let tested = live & stencil_pass & bounds_pass;
            let passes = tested & depth_pass;
            pass[l] = passes;
            passed += passes as u32;
            if STENCIL_WRITES {
                // A byte of ones where the outcome holds; a fragment in
                // none of them (dead, or out of bounds) keeps its value.
                let fail = 0xFF * (live & !stencil_pass) as u8;
                let zfail = 0xFF * (tested & !depth_pass) as u8;
                let zpass = 0xFF * passes as u8;
                let new = (self.ops[0].apply(stored_s) & fail)
                    | (self.ops[1].apply(stored_s) & zfail)
                    | (self.ops[2].apply(stored_s) & zpass)
                    | (stored_s & !(fail | zfail | zpass));
                stencil[l] = (new & self.write_mask) | (stored_s & !self.write_mask);
            }
            if DEPTH_WRITE {
                depth[l] = if passes { q } else { stored_d };
            }
        }
        u64::from(passed)
    }
}

/// One draw compiled into a span kernel: the lowered program plus the
/// fixed-function state hoisted out of the pixel loop.
#[derive(Debug)]
pub(crate) struct SpanKernel<'a> {
    path: Path<'a>,
    tests: TestStage,
    alpha: AlphaState,
    /// Whether the flat quad color passes the alpha test.
    flat_alpha_pass: bool,
    /// The quad depth, quantized, in every lane.
    q_quad: [u32; LANES],
    draw_color: [f32; 4],
    color_mask: [bool; 4],
    color_any: bool,
    /// The scissor, which the rasterizer clips each rect against.
    pub scissor: ScissorState,
}

impl<'a> SpanKernel<'a> {
    /// Compile a draw over a `fb_size` framebuffer.
    pub fn new(inputs: &DrawInputs<'a>, fb_size: (usize, usize)) -> SpanKernel<'a> {
        let state = inputs.state;
        let lower = |p: &FragmentProgram| {
            LoweredProgram::lower(
                p,
                &DrawConstants {
                    textures: inputs.textures,
                    env: inputs.env,
                    quad_depth: inputs.quad_depth,
                    draw_color: inputs.draw_color,
                    fb_size,
                },
            )
        };
        // The eligibility rule of `PipelineEnv::early_tests_eligible`.
        let path = match inputs.program {
            None => Path::Fixed,
            Some(p) if inputs.early_z && !p.writes_depth && !p.has_kil && !state.alpha.enabled => {
                Path::Early(lower(p))
            }
            Some(p) => Path::Late(lower(p)),
        };
        let mask = state.color_mask;
        SpanKernel {
            path,
            tests: TestStage::new(state),
            alpha: state.alpha,
            flat_alpha_pass: state.alpha.test(inputs.draw_color[3]),
            q_quad: [quantize_depth(inputs.quad_depth as f64); LANES],
            draw_color: inputs.draw_color,
            color_mask: [mask.red, mask.green, mask.blue, mask.alpha],
            color_any: mask.any(),
            scissor: state.scissor,
        }
    }

    /// Working storage for [`SpanKernel::run_span`], one per band thread.
    pub fn lanes(&self) -> Lanes {
        match &self.path {
            Path::Fixed => Lanes::empty(),
            Path::Early(program) | Path::Late(program) => program.lanes(),
        }
    }

    #[inline(always)]
    fn write_color(&self, stored: &mut [f32; 4], color: [f32; 4]) {
        for ((s, c), write) in stored.iter_mut().zip(color).zip(self.color_mask) {
            if write {
                *s = c;
            }
        }
    }

    /// Run the fragments `(x0..x1, y)` through the pipeline and add their
    /// accounting to `cost`. The span must lie inside `band` and the
    /// scissor.
    pub fn run_span(
        &self,
        band: &mut FbBand<'_>,
        lanes: &mut Lanes,
        y: usize,
        (x0, x1): (usize, usize),
        fb_width: usize,
        cost: &mut DrawCost,
    ) {
        let len = x1.saturating_sub(x0);
        let start = band.local(y * fb_width + x0);
        let stencil = &mut band.stencil[start..start + len];
        let depth = &mut band.depth[start..start + len];
        let color = &mut band.color[start..start + len];
        cost.fragments += len as u64;
        // A flat color failing the alpha test discards every fragment
        // before the stencil stage: nothing is written.
        if matches!(self.path, Path::Fixed) && !self.flat_alpha_pass {
            return;
        }
        let mut passed = 0u64;
        let mut pass = [true; LANES];
        let mut q = self.q_quad;
        for first in (0..len).step_by(LANES) {
            let n = (len - first).min(LANES);
            let span = first..first + n;
            let (stencil, depth) = (&mut stencil[span.clone()], &mut depth[span.clone()]);
            let (pass, color) = (&mut pass[..n], &mut color[span]);
            let survivors = match &self.path {
                Path::Fixed => {
                    pass.fill(true);
                    let survivors = self.tests.run(stencil, depth, &q[..n], pass);
                    if self.color_any {
                        for (c, &p) in color.iter_mut().zip(&*pass) {
                            if p {
                                self.write_color(c, self.draw_color);
                            }
                        }
                    }
                    survivors
                }
                Path::Early(program) => {
                    pass.fill(true);
                    let survivors = self.tests.run(stencil, depth, &q[..n], pass);
                    if self.color_any && survivors > 0 {
                        program.run(lanes, x0 + first, y, n);
                        self.write_program_color(program, lanes, color, pass);
                    }
                    survivors
                }
                Path::Late(program) => {
                    program.run(lanes, x0 + first, y, n);
                    if program.writes_depth() {
                        for (q, &d) in q[..n].iter_mut().zip(&lanes.depth[..n]) {
                            *q = quantize_depth(d as f64);
                        }
                    }
                    // Killed lanes and alpha failures are discarded before
                    // the stencil stage, with no side effects.
                    let alpha = &program.color(lanes)[3][..n];
                    for ((live, &killed), &alpha) in
                        pass.iter_mut().zip(&lanes.killed[..n]).zip(alpha)
                    {
                        *live = !killed && self.alpha.test(alpha);
                    }
                    let survivors = self.tests.run(stencil, depth, &q[..n], pass);
                    if self.color_any {
                        self.write_program_color(program, lanes, color, pass);
                    }
                    survivors
                }
            };
            passed += survivors;
        }
        match self.path {
            Path::Fixed => {}
            // Survivors are shaded only when the program has an observable
            // output; early-z skips the rest.
            Path::Early(_) => {
                if self.color_any {
                    cost.shaded += passed;
                }
                cost.early_rejected += len as u64 - passed;
            }
            Path::Late(_) => cost.shaded += len as u64,
        }
        cost.passed += passed;
    }

    /// Write the program's output color to the passing lanes of a span.
    #[inline(always)]
    fn write_program_color(
        &self,
        program: &LoweredProgram<'_>,
        lanes: &Lanes,
        color: &mut [[f32; 4]],
        pass: &[bool],
    ) {
        let out = program.color(lanes);
        for (l, (c, &p)) in color.iter_mut().zip(pass).enumerate() {
            if p {
                self.write_color(c, [out[0][l], out[1][l], out[2][l], out[3][l]]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffers::DEPTH_MAX;
    use crate::state::{DepthBoundsState, StencilState};

    const FUNCS: [CompareFunc; 8] = [
        CompareFunc::Never,
        CompareFunc::Less,
        CompareFunc::Equal,
        CompareFunc::LessEqual,
        CompareFunc::Greater,
        CompareFunc::NotEqual,
        CompareFunc::GreaterEqual,
        CompareFunc::Always,
    ];

    #[test]
    fn op_forms_match_stencil_write() {
        let ops = [
            StencilOp::Keep,
            StencilOp::Zero,
            StencilOp::Replace,
            StencilOp::Incr,
            StencilOp::Decr,
            StencilOp::Invert,
            StencilOp::IncrWrap,
            StencilOp::DecrWrap,
        ];
        for op in ops {
            for reference in [0, 1, 2, 0x7F, 0x80, 0xA5, 0xFF] {
                let form = OpForm::new(op, reference);
                for write_mask in [0xFF, 0x0F, 0x01, 0x00, 0x5A] {
                    let st = StencilState {
                        reference,
                        write_mask,
                        ..Default::default()
                    };
                    for stored in 0..=u8::MAX {
                        // The write-mask merge of `TestStage::run_with`.
                        let new = form.apply(stored);
                        let merged = (new & write_mask) | (stored & !write_mask);
                        assert_eq!(
                            merged,
                            st.write(stored, op),
                            "{op:?} ref {reference} mask {write_mask:#x} stored {stored}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compare_bits_match_compare_func() {
        let edges = [0, 1, DEPTH_MAX - 1, DEPTH_MAX, DEPTH_MAX + 1, u32::MAX];
        for func in FUNCS {
            let bits = CompareBits::new(func);
            for a in edges {
                for b in edges {
                    assert_eq!(bits.eval(a, b), func.eval(a, b), "{func:?} {a} {b}");
                }
            }
            for a in [0u8, 1, 2, 0xFF] {
                for b in [0u8, 1, 2, 0xFF] {
                    assert_eq!(bits.eval(a, b), func.eval(a, b), "{func:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn raw_bounds_match_float_test() {
        let step = 1.0 / DEPTH_SCALE;
        let k = 0x5A_5A5A_u32;
        let grid = f64::from(k) * step;
        let bounds = [
            f64::NAN,
            f64::NEG_INFINITY,
            f64::INFINITY,
            -1.0,
            -step / 2.0,
            -0.0,
            0.0,
            step / 2.0,
            step,
            0.25,
            0.5,
            grid,
            grid - step / 2.0,
            grid + step / 2.0,
            1.0 - step,
            1.0 - step / 2.0,
            1.0,
            1.5,
            f64::from(u32::MAX) * step,
            (f64::from(u32::MAX) + 0.5) * step,
            256.0,
            1e300,
        ];
        let raws = [
            0,
            1,
            k - 1,
            k,
            k + 1,
            1 << 22,
            1 << 23,
            DEPTH_MAX - 1,
            DEPTH_MAX,
            DEPTH_MAX + 1,
            u32::MAX - 1,
            u32::MAX,
        ];
        for min in bounds {
            for max in bounds {
                let test = DepthBoundsState {
                    enabled: true,
                    min,
                    max,
                };
                let (lo, hi) = raw_bounds(min, max);
                for raw in raws {
                    assert_eq!(
                        lo <= raw && raw <= hi,
                        test.test(dequantize_depth(raw)),
                        "[{min}, {max}] raw {raw}"
                    );
                }
            }
        }
    }

    fn env_fixed(state: &PipelineState) -> PipelineEnv<'_> {
        PipelineEnv {
            state,
            program: None,
            textures: &[],
            env: &[],
            quad_depth: 0.5,
            draw_color: [1.0, 0.0, 0.0, 1.0],
            early_z: true,
        }
    }

    fn run_one(
        env: &PipelineEnv<'_>,
        fb: &mut Framebuffer,
        x: usize,
        y: usize,
        idx: usize,
    ) -> FragmentFate {
        let mut band = FbBand::full(fb);
        process_fragment(env, &mut band, x, y, idx)
    }

    #[test]
    fn plain_fragment_writes_color_and_depth() {
        let state = PipelineState {
            depth: crate::state::DepthState {
                test_enabled: true,
                func: CompareFunc::Always,
                write_enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut fb = Framebuffer::new(2, 2);
        let fate = run_one(&env_fixed(&state), &mut fb, 1, 0, 1);
        assert_eq!(fate, FragmentFate::Passed { shaded: false });
        assert_eq!(fb.color.get(1), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(fb.depth.get_raw(1), quantize_depth(0.5));
        // untouched pixel
        assert_eq!(fb.color.get(0), [0.0; 4]);
    }

    #[test]
    fn depth_test_rejects_and_preserves_buffers() {
        let state = PipelineState {
            depth: crate::state::DepthState {
                test_enabled: true,
                func: CompareFunc::Less,
                write_enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut fb = Framebuffer::new(1, 1);
        fb.depth.clear(0.25); // stored 0.25 < incoming 0.5 → Less fails
        let fate = run_one(&env_fixed(&state), &mut fb, 0, 0, 0);
        assert_eq!(fate, FragmentFate::Discarded { shaded: false });
        assert_eq!(fb.depth.get_raw(0), quantize_depth(0.25));
        assert_eq!(fb.color.get(0), [0.0; 4]);
    }

    #[test]
    fn stencil_ops_fire_per_outcome() {
        // StencilOp(Op1=Zero on stencil fail, Op2=Incr on depth fail,
        // Op3=Replace on pass), mirroring the paper's §3.4 pseudo-code.
        let mut state = PipelineState::default();
        state.stencil.enabled = true;
        state.stencil.func = CompareFunc::Equal;
        state.stencil.reference = 1;
        state.stencil.op_fail = StencilOp::Zero;
        state.stencil.op_zfail = StencilOp::Incr;
        state.stencil.op_zpass = StencilOp::Replace;
        state.depth.test_enabled = true;
        state.depth.func = CompareFunc::Less;
        state.depth.write_enabled = false;

        let mut fb = Framebuffer::new(3, 1);
        // pixel 0: stencil 1 (passes), depth far (pass) → Replace → 1
        fb.stencil.set(0, 1);
        fb.depth.set_raw(0, quantize_depth(1.0));
        // pixel 1: stencil 1 (passes), depth near (fail) → Incr → 2
        fb.stencil.set(1, 1);
        fb.depth.set_raw(1, quantize_depth(0.0));
        // pixel 2: stencil 5 (fails) → Zero
        fb.stencil.set(2, 5);

        let env = env_fixed(&state);
        assert_eq!(
            run_one(&env, &mut fb, 0, 0, 0),
            FragmentFate::Passed { shaded: false }
        );
        assert_eq!(
            run_one(&env, &mut fb, 1, 0, 1),
            FragmentFate::Discarded { shaded: false }
        );
        assert_eq!(
            run_one(&env, &mut fb, 2, 0, 2),
            FragmentFate::Discarded { shaded: false }
        );
        assert_eq!(fb.stencil.get(0), 1);
        assert_eq!(fb.stencil.get(1), 2);
        assert_eq!(fb.stencil.get(2), 0);
    }

    #[test]
    fn alpha_fail_skips_stencil_update() {
        let mut state = PipelineState::default();
        state.alpha.enabled = true;
        state.alpha.func = CompareFunc::GreaterEqual;
        state.alpha.reference = 0.5;
        state.stencil.enabled = true;
        state.stencil.func = CompareFunc::Never;
        state.stencil.op_fail = StencilOp::Replace;
        state.stencil.reference = 9;

        let mut fb = Framebuffer::new(1, 1);
        let mut env = env_fixed(&state);
        env.draw_color = [0.0, 0.0, 0.0, 0.25]; // alpha 0.25 < 0.5 → discard
        let fate = run_one(&env, &mut fb, 0, 0, 0);
        assert_eq!(fate, FragmentFate::Discarded { shaded: false });
        // alpha-discarded fragments never reach the stencil stage
        assert_eq!(fb.stencil.get(0), 0);
    }

    #[test]
    fn depth_bounds_discards_without_stencil_update() {
        let mut state = PipelineState::default();
        state.stencil.enabled = true;
        state.stencil.func = CompareFunc::Always;
        state.stencil.op_zpass = StencilOp::Replace;
        state.stencil.reference = 1;
        state.depth_bounds.enabled = true;
        state.depth_bounds.min = 0.4;
        state.depth_bounds.max = 0.6;
        state.depth.test_enabled = false;
        state.depth.write_enabled = false;

        let mut fb = Framebuffer::new(2, 1);
        fb.depth.set_raw(0, quantize_depth(0.5)); // in bounds
        fb.depth.set_raw(1, quantize_depth(0.9)); // out of bounds

        let env = env_fixed(&state);
        assert_eq!(
            run_one(&env, &mut fb, 0, 0, 0),
            FragmentFate::Passed { shaded: false }
        );
        assert_eq!(
            run_one(&env, &mut fb, 1, 0, 1),
            FragmentFate::Discarded { shaded: false }
        );
        assert_eq!(fb.stencil.get(0), 1, "in-bounds pixel marked");
        assert_eq!(fb.stencil.get(1), 0, "out-of-bounds pixel untouched");
    }

    #[test]
    fn color_mask_none_blocks_writes() {
        let state = PipelineState {
            color_mask: crate::state::ColorMask::NONE,
            ..Default::default()
        };
        let mut fb = Framebuffer::new(1, 1);
        let env = env_fixed(&state);
        run_one(&env, &mut fb, 0, 0, 0);
        assert_eq!(fb.color.get(0), [0.0; 4]);
    }

    #[test]
    fn depth_write_disabled_preserves_depth() {
        let mut state = PipelineState::default();
        state.depth.test_enabled = false;
        state.depth.write_enabled = false;
        let mut fb = Framebuffer::new(1, 1);
        let before = fb.depth.get_raw(0);
        run_one(&env_fixed(&state), &mut fb, 0, 0, 0);
        assert_eq!(fb.depth.get_raw(0), before);
    }

    #[test]
    fn band_local_indexing() {
        // A band starting at row 1 of a 4x3 framebuffer must map global
        // indices onto its local slices correctly.
        let mut fb = Framebuffer::new(4, 3);
        let state = PipelineState {
            depth: crate::state::DepthState {
                test_enabled: true,
                func: CompareFunc::Always,
                write_enabled: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let env = env_fixed(&state);
        {
            let color = fb.color.data_mut();
            let (_, color_band) = color.split_at_mut(4);
            // Reborrow depth/stencil similarly.
            let mut fb2 = Framebuffer::new(4, 2);
            let mut band = FbBand {
                color: color_band,
                depth: fb2.depth.raw_data_mut(),
                stencil: fb2.stencil.data_mut(),
                base: 4,
            };
            let fate = process_fragment(&env, &mut band, 2, 1, 6);
            assert_eq!(fate, FragmentFate::Passed { shaded: false });
        }
        assert_eq!(fb.color.get(6), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(fb.color.get(2), [0.0; 4], "row 0 untouched");
    }
}
