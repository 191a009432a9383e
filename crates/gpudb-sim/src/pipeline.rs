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
//!   over the same span as one data-parallel stage ([`TestStage`]). With a
//!   fixed reference every compare is one wrapping interval test of the
//!   stored value ([`Interval`]): the stencil test always, the depth test
//!   whenever the incoming depth is the quad depth, the depth bounds as
//!   an integer range of stored depths, a disabled test as the full range.
//!   Only a program-written depth is compared per lane, as (less, equal,
//!   greater) bits. Stencil ops are byte arithmetic. Per fragment the
//!   stage computes stencil, bounds and depth pass masks with no
//!   data-dependent branch, blends the stencil and depth side effects from
//!   them and sums the pass mask. The loop is specialized on the test form
//!   (per-lane depth, quad depth, or a draw whose tests cannot fail, which
//!   compares nothing), whether the stencil can change, whether depth is
//!   written, and whether a pass mask is kept: a draw that shades and
//!   colors nothing after the tests runs over the whole row with no mask,
//!   so the database layer's counting passes (all ops `Keep`, no depth
//!   write) are a plain compare-and-count loop. The late path first clears
//!   the lanes that `KIL` or the alpha test discarded, when the draw has
//!   either; the early path shades the survivors afterwards.
//!
//!   Each loop runs at the width of the data it touches. A draw whose
//!   stencil can change and whose tests can fail runs every chunk of up
//!   to [`LANES`] fragments in two widths ([`TestStage::run_two_width`]):
//!   the bounds and depth tests in `u32` lanes into one test byte per
//!   fragment, then the stencil test and ops ([`ByteInterval`],
//!   [`OpForm`]) and the count in byte lanes, then the depth write in
//!   `u32` lanes. On baseline x86-64 one loop over both widths compiles
//!   to four-lane vectors full of byte shuffles. At 1M fragments, 1000
//!   wide, a stencil-writing selection pass took 0.94–0.99 ms that way
//!   and takes 0.42–0.43 ms in two widths (2-vCPU x86-64 VM, medians of
//!   61 interleaved draws). Counting passes and draws that cannot fail
//!   keep the one loop: a counting pass writes nothing and already reads
//!   its 5 MB at ~18 GB/s (0.28–0.29 ms), and the split measured
//!   0.31 ms, ~11% slower there.
//!
//!   The copy pass runs as one loop from the texels straight into the
//!   stored depth ([`DepthCopy`]): a late, mask-free draw that cannot
//!   fail, writes depth and no stencil, and whose program lowers to
//!   exactly `TEXDOT r, k; MUL depth, r, c` over an RGBA texture. It
//!   skips the span registers, the quantized-depth buffer and the test
//!   stage: 1.16–1.23 ms became 0.69–0.71 ms at 1M. Every other program
//!   keeps the general late path.
//! * [`process_fragment`], the reference semantics: one fragment at a
//!   time through [`crate::program::interp::execute`]. Only the public
//!   reference rasterizer and tests reach it; the kernel must match it
//!   byte for byte.
//!
//! The kernel's `shaded`, `early_rejected` and `passed` counts follow the
//! fate rules of [`process_fragment`], not which lanes it computed, so the
//! modeled clock is the same whichever implementation ran.
//!
//! Both operate on an [`FbTile`], a row tile of the framebuffer that the
//! thread running it owns, so that the rasterizer can run a draw's tiles
//! on parallel host threads, mirroring the device's parallel pixel pipes.

use crate::buffers::{dequantize_depth, quantize_depth, quantize_depth_f32, DEPTH_SCALE};
use crate::cost::DrawCost;
use crate::program::interp::{execute, FragmentContext, FragmentInput};
use crate::program::isa::FragmentProgram;
use crate::program::lower::{DepthCopy, DrawConstants, Lanes, LoweredProgram, LANES};
use crate::raster::{DrawInputs, DrawPath, KernelShape};
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

/// One row tile of the framebuffer, moved out of it while a draw runs:
/// the whole rows `rows.0..rows.1`, the first pixel of which has global
/// linear index `base`.
#[derive(Debug)]
pub(crate) struct FbTile {
    pub color: Vec<[f32; 4]>,
    pub depth: Vec<u32>,
    pub stencil: Vec<u8>,
    pub rows: (usize, usize),
    pub base: usize,
}

impl FbTile {
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
    tile: &mut FbTile,
    idx: usize,
    frag_depth: f32,
    alpha: f32,
) -> TestOutcome {
    let idx = tile.local(idx);

    // 2. Alpha test: discarded fragments have no further effect.
    if !state.alpha.test(alpha) {
        return TestOutcome::Fail;
    }

    // 3. Stencil test.
    let stencil = &state.stencil;
    if stencil.enabled {
        let stored = tile.stencil[idx];
        if !stencil.test(stored) {
            tile.stencil[idx] = stencil.write(stored, stencil.op_fail);
            return TestOutcome::Fail;
        }
    }

    // 4. Depth bounds test: inspects the *stored* framebuffer depth and
    // discards without any stencil update (per the EXT spec).
    if state.depth_bounds.enabled && !state.depth_bounds.test(dequantize_depth(tile.depth[idx])) {
        return TestOutcome::Fail;
    }

    // 5. Depth test, in the quantized 24-bit integer domain, under the
    // (normally all-ones) depth compare mask.
    let q_frag = quantize_depth(frag_depth as f64);
    let depth_pass = if state.depth.test_enabled {
        let mask = state.depth.compare_mask;
        state.depth.func.eval(q_frag & mask, tile.depth[idx] & mask)
    } else {
        true
    };

    if !depth_pass {
        if stencil.enabled {
            let stored = tile.stencil[idx];
            tile.stencil[idx] = stencil.write(stored, stencil.op_zfail);
        }
        return TestOutcome::Fail;
    }

    if stencil.enabled {
        let stored = tile.stencil[idx];
        tile.stencil[idx] = stencil.write(stored, stencil.op_zpass);
    }
    if state.depth.write_enabled {
        tile.depth[idx] = q_frag;
    }
    TestOutcome::Pass
}

/// Write a passing fragment's color, honoring the color mask.
#[inline(always)]
fn write_color(state: &PipelineState, tile: &mut FbTile, idx: usize, color: [f32; 4]) {
    let mask = state.color_mask;
    if !mask.any() {
        return;
    }
    let idx = tile.local(idx);
    let stored = &mut tile.color[idx];
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
    tile: &mut FbTile,
    x: usize,
    y: usize,
    idx: usize,
) -> FragmentFate {
    match env.program {
        None => {
            // Pure fixed-function fragment: flat depth and color.
            match run_tests(env.state, tile, idx, env.quad_depth, env.draw_color[3]) {
                TestOutcome::Pass => {
                    write_color(env.state, tile, idx, env.draw_color);
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
                match run_tests(env.state, tile, idx, env.quad_depth, env.draw_color[3]) {
                    TestOutcome::Pass => {
                        if env.state.color_mask.any() {
                            let input =
                                FragmentInput::for_pixel(x, y, env.quad_depth, env.draw_color);
                            let ctx = FragmentContext {
                                textures: env.textures,
                                env: env.env,
                            };
                            let out = execute(program, &input, &ctx);
                            write_color(env.state, tile, idx, out.color);
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
                match run_tests(env.state, tile, idx, frag_depth, out.color[3]) {
                    TestOutcome::Pass => {
                        write_color(env.state, tile, idx, out.color);
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
enum Path {
    /// No program: flat depth and color.
    Fixed,
    /// Early-z: test with the quad depth, then shade the survivors.
    Early(LoweredProgram),
    /// Shade first (the program may discard or replace depth), then test.
    Late(LoweredProgram),
}

/// A compare function as the orderings it accepts: `incoming op stored`
/// holds iff the pair is less, equal or greater with that bit set. For
/// totally ordered integers this is [`CompareFunc::eval`] without a
/// `match` per fragment. Only the depth test of a program-written depth
/// needs it; every other test has a fixed reference ([`Interval`]).
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
    fn eval(self, incoming: u32, stored: u32) -> bool {
        (self.lt & (incoming < stored))
            | (self.eq & (incoming == stored))
            | (self.gt & (incoming > stored))
    }
}

/// A compare against a fixed reference as an interval of stored values:
/// `x` passes iff `(x -wrap lo) <= span`, flipped by `invert`. With the
/// reference fixed, every [`CompareFunc`] is one such form over `x` in
/// `0..=u32::MAX`, so each test costs a subtract and one unsigned compare
/// whatever its function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: u32,
    span: u32,
    invert: bool,
}

impl Interval {
    const ALWAYS: Interval = Interval {
        lo: 0,
        span: u32::MAX,
        invert: false,
    };
    const NEVER: Interval = Interval {
        invert: true,
        ..Interval::ALWAYS
    };

    /// The inclusive range `[lo, hi]`, empty when `lo > hi`.
    fn between(lo: u32, hi: u32) -> Interval {
        if lo > hi {
            return Interval::NEVER;
        }
        Interval {
            lo,
            span: hi - lo,
            invert: false,
        }
    }

    /// The stored values `x` for which `func.eval(reference, x)` holds.
    fn of(func: CompareFunc, reference: u32) -> Interval {
        let r = reference;
        match func {
            CompareFunc::Never => Interval::NEVER,
            CompareFunc::Always => Interval::ALWAYS,
            CompareFunc::Less => r
                .checked_add(1)
                .map_or(Interval::NEVER, |lo| Interval::between(lo, u32::MAX)),
            CompareFunc::LessEqual => Interval::between(r, u32::MAX),
            CompareFunc::Greater => r
                .checked_sub(1)
                .map_or(Interval::NEVER, |hi| Interval::between(0, hi)),
            CompareFunc::GreaterEqual => Interval::between(0, r),
            CompareFunc::Equal => Interval::between(r, r),
            CompareFunc::NotEqual => Interval {
                invert: true,
                ..Interval::between(r, r)
            },
        }
    }

    #[inline(always)]
    fn contains(self, x: u32) -> bool {
        (x.wrapping_sub(self.lo) <= self.span) ^ self.invert
    }

    /// The interval restricted to the stored values `0..=255`. Every
    /// interval [`Interval::of`] builds is one that does not wrap, so its
    /// bytes are one range of bytes again.
    fn bytes(self) -> ByteInterval {
        let hi = self.lo.saturating_add(self.span);
        match u8::try_from(self.lo) {
            Ok(lo) => ByteInterval {
                lo,
                span: hi.min(255) as u8 - lo,
                invert: self.invert,
            },
            // No byte is inside: every byte tests as `invert`.
            Err(_) => ByteInterval {
                lo: 0,
                span: u8::MAX,
                invert: !self.invert,
            },
        }
    }
}

/// An [`Interval`] of stored bytes, so that the stencil test of a masked
/// byte runs in byte lanes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByteInterval {
    lo: u8,
    span: u8,
    invert: bool,
}

impl ByteInterval {
    #[inline(always)]
    fn contains(self, x: u8) -> bool {
        (x.wrapping_sub(self.lo) <= self.span) ^ self.invert
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

/// How [`TestStage::run_with`] evaluates the tests, fixed per draw.
///
/// Every fragment brings its own (program-written) depth, compared with
/// [`CompareBits`]; the stencil and bounds tests are intervals.
const LANE_DEPTH: u8 = 0;
/// Every fragment has the quad depth, so all three tests are intervals of
/// stored values.
const QUAD_DEPTH: u8 = 1;
/// No test can fail: nothing is compared and every live fragment passes.
/// A written depth is the lane's own ([`TestStage::new`] picks this form
/// for a quad-depth draw only when it does not write depth).
const UNFAILING: u8 = 2;

/// The stencil, depth-bounds and depth tests of one draw as a
/// data-parallel stage. A disabled test becomes one that always passes, so
/// every fragment takes the same instructions: the three outcomes are
/// computed as masks, the stencil and depth side effects blended from them,
/// and the pass mask summed.
#[derive(Debug, Clone, Copy)]
struct TestStage {
    /// The stencil test, on `stored & value_mask`, over `u32` and over
    /// bytes.
    stencil: Interval,
    stencil_bytes: ByteInterval,
    value_mask: u8,
    /// The stencil ops on stencil fail, depth fail and depth pass.
    ops: [OpForm; 3],
    write_mask: u8,
    /// The depth bounds test, on the raw stored depth.
    bounds: Interval,
    /// The depth test of the quad depth, on `stored & depth_mask`.
    depth: Interval,
    /// The depth test of a per-lane depth.
    depth_func: CompareBits,
    depth_mask: u32,
    /// The quantized quad depth.
    quad: u32,
    /// [`LANE_DEPTH`], [`QUAD_DEPTH`] or [`UNFAILING`].
    form: u8,
    /// Whether any fragment can change its stored stencil value.
    stencil_writes: bool,
    depth_write: bool,
}

impl TestStage {
    /// The tests of `state` for fragments at the quantized quad depth
    /// `quad`, or at their own depth when `lane_depth`.
    fn new(state: &PipelineState, quad: u32, lane_depth: bool) -> TestStage {
        let st = &state.stencil;
        let ops = [st.op_fail, st.op_zfail, st.op_zpass];
        let stencil = if st.enabled {
            Interval::of(st.func, u32::from(st.reference & st.value_mask))
        } else {
            Interval::ALWAYS
        };
        let bounds = if state.depth_bounds.enabled {
            let (lo, hi) = raw_bounds(state.depth_bounds.min, state.depth_bounds.max);
            Interval::between(lo, hi)
        } else {
            Interval::ALWAYS
        };
        let depth_func = if state.depth.test_enabled {
            state.depth.func
        } else {
            CompareFunc::Always
        };
        let depth_mask = state.depth.compare_mask;
        let depth = Interval::of(depth_func, quad & depth_mask);
        let depth_write = state.depth.write_enabled;
        // The unfailing form writes each lane's own depth, so a quad-depth
        // draw takes it only when it writes no depth.
        let depth_always = if lane_depth {
            depth_func == CompareFunc::Always
        } else {
            depth == Interval::ALWAYS && !depth_write
        };
        let form = if stencil == Interval::ALWAYS && bounds == Interval::ALWAYS && depth_always {
            UNFAILING
        } else if lane_depth {
            LANE_DEPTH
        } else {
            QUAD_DEPTH
        };
        TestStage {
            stencil,
            stencil_bytes: stencil.bytes(),
            value_mask: st.value_mask,
            ops: ops.map(|op| OpForm::new(op, st.reference)),
            write_mask: st.write_mask,
            bounds,
            depth,
            depth_func: CompareBits::new(depth_func),
            depth_mask,
            quad,
            form,
            stencil_writes: st.enabled
                && st.write_mask != 0
                && ops.iter().any(|&op| op != StencilOp::Keep),
            depth_write,
        }
    }

    /// Test a span of fragments against their stored `stencil` and
    /// `depth`, applying the side effects, and return how many passed.
    /// `q` holds the fragments' quantized depths when they are their own.
    ///
    /// `MASKED`: on entry `pass` holds which fragments are live (a dead one
    /// has no effect) and on return which passed. Otherwise every fragment
    /// of `stencil` is live and no mask is kept.
    #[inline(always)]
    fn run<const MASKED: bool>(
        &self,
        stencil: &mut [u8],
        depth: &mut [u32],
        q: &[u32],
        pass: &mut [bool],
    ) -> u64 {
        match self.form {
            LANE_DEPTH => self.run_form::<MASKED, LANE_DEPTH>(stencil, depth, q, pass),
            QUAD_DEPTH => self.run_form::<MASKED, QUAD_DEPTH>(stencil, depth, q, pass),
            _ => self.run_form::<MASKED, UNFAILING>(stencil, depth, q, pass),
        }
    }

    #[inline(always)]
    fn run_form<const MASKED: bool, const FORM: u8>(
        &self,
        stencil: &mut [u8],
        depth: &mut [u32],
        q: &[u32],
        pass: &mut [bool],
    ) -> u64 {
        let (s, d, q, p) = (stencil, depth, q, pass);
        match (self.stencil_writes, self.depth_write) {
            (false, false) => self.run_with::<MASKED, FORM, false, false>(s, d, q, p),
            (false, true) => self.run_with::<MASKED, FORM, false, true>(s, d, q, p),
            (true, false) => self.run_with::<MASKED, FORM, true, false>(s, d, q, p),
            (true, true) => self.run_with::<MASKED, FORM, true, true>(s, d, q, p),
        }
    }

    /// [`TestStage::run`] with the test form and the side effects that
    /// can happen fixed at compile time: a quad-depth pass with neither
    /// side effect only subtracts, compares and counts. A draw whose
    /// stencil can change and whose tests can fail runs in two widths
    /// ([`TestStage::run_two_width`]); every other draw runs one loop.
    fn run_with<
        const MASKED: bool,
        const FORM: u8,
        const STENCIL_WRITES: bool,
        const DEPTH_WRITE: bool,
    >(
        &self,
        stencil: &mut [u8],
        depth: &mut [u32],
        q: &[u32],
        pass: &mut [bool],
    ) -> u64 {
        if STENCIL_WRITES && FORM != UNFAILING {
            return self.run_two_width::<MASKED, FORM, DEPTH_WRITE>(stencil, depth, q, pass);
        }
        // A `u32` count keeps four lanes per 128-bit vector; a span holds
        // far fewer than `u32::MAX` fragments.
        let mut passed = 0u32;
        let n = if MASKED { pass.len() } else { stencil.len() };
        let own_depth = FORM == LANE_DEPTH || (FORM == UNFAILING && DEPTH_WRITE);
        let (stencil, depth) = (&mut stencil[..n], &mut depth[..n]);
        let q = &q[..if own_depth { n } else { 0 }];
        for l in 0..n {
            let (stored_s, stored_d) = (stencil[l], depth[l]);
            let incoming = if own_depth { q[l] } else { self.quad };
            let (stencil_pass, bounds_pass, depth_pass) = if FORM == UNFAILING {
                (true, true, true)
            } else {
                let depth_pass = if FORM == LANE_DEPTH {
                    self.depth_func
                        .eval(incoming & self.depth_mask, stored_d & self.depth_mask)
                } else {
                    self.depth.contains(stored_d & self.depth_mask)
                };
                (
                    self.stencil.contains(u32::from(stored_s & self.value_mask)),
                    self.bounds.contains(stored_d),
                    depth_pass,
                )
            };
            let live = !MASKED || pass[l];
            let tested = live & stencil_pass & bounds_pass;
            let passes = tested & depth_pass;
            if MASKED {
                pass[l] = passes;
            }
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
                depth[l] = if passes { incoming } else { stored_d };
            }
        }
        u64::from(passed)
    }

    /// [`TestStage::run_with`] for a draw whose stencil can change and
    /// whose tests can fail, over chunks of up to [`LANES`] fragments, each
    /// in three stages at the width of the data it touches:
    ///
    /// 1. `u32` lanes: one test byte per fragment from its stored depth,
    ///    bit 0 the depth bounds test and bit 1 the depth test;
    /// 2. byte lanes: the stencil test as a [`ByteInterval`], the three
    ///    stencil ops under the write mask, the pass mask and a `u8` count,
    ///    leaving a byte of ones in the test byte of each passing fragment;
    /// 3. `u32` lanes, when depth is written: the passing fragments' depth.
    ///
    /// One loop over both widths compiles to narrow vectors full of byte
    /// shuffles; the stages keep each loop at one width.
    #[inline(always)]
    fn run_two_width<const MASKED: bool, const FORM: u8, const DEPTH_WRITE: bool>(
        &self,
        stencil: &mut [u8],
        depth: &mut [u32],
        q: &[u32],
        pass: &mut [bool],
    ) -> u64 {
        let n = if MASKED { pass.len() } else { stencil.len() };
        let TestStage {
            stencil_bytes,
            value_mask,
            ops,
            write_mask,
            bounds,
            depth: depth_interval,
            depth_func,
            depth_mask,
            quad,
            ..
        } = *self;
        // The stencil update of a fragment with test byte `t` and a byte of
        // ones when `live`; `t` becomes a byte of ones when it passes.
        let update = |s: &mut u8, t: &mut u8, live: u8| -> u8 {
            let stored = *s;
            let stencil_pass =
                0u8.wrapping_sub(u8::from(stencil_bytes.contains(stored & value_mask)));
            let bounds_pass = 0u8.wrapping_sub(*t & 1);
            let depth_pass = 0u8.wrapping_sub(*t >> 1);
            // A fragment in none of the three (dead, or out of bounds)
            // keeps its value.
            let fail = live & !stencil_pass;
            let tested = live & stencil_pass & bounds_pass;
            let zfail = tested & !depth_pass;
            let zpass = tested & depth_pass;
            let new = (ops[0].apply(stored) & fail)
                | (ops[1].apply(stored) & zfail)
                | (ops[2].apply(stored) & zpass)
                | (stored & !(fail | zfail | zpass));
            *s = (new & write_mask) | (stored & !write_mask);
            *t = zpass;
            zpass & 1
        };
        let mut passed = 0u64;
        let mut tests = [0u8; LANES];
        for first in (0..n).step_by(LANES) {
            let span = first..n.min(first + LANES);
            let tests = &mut tests[..span.len()];
            let (stencil, depth) = (&mut stencil[span.clone()], &mut depth[span.clone()]);
            let q = if FORM == LANE_DEPTH {
                &q[span.clone()]
            } else {
                &[]
            };
            if FORM == LANE_DEPTH {
                for ((t, &d), &q) in tests.iter_mut().zip(&*depth).zip(q) {
                    let depth_pass = depth_func.eval(q & depth_mask, d & depth_mask);
                    *t = u8::from(bounds.contains(d)) | u8::from(depth_pass) << 1;
                }
            } else {
                for (t, &d) in tests.iter_mut().zip(&*depth) {
                    let depth_pass = depth_interval.contains(d & depth_mask);
                    *t = u8::from(bounds.contains(d)) | u8::from(depth_pass) << 1;
                }
            }
            let mut count = 0u8;
            if MASKED {
                let live = &mut pass[span];
                for ((s, t), p) in stencil.iter_mut().zip(tests.iter_mut()).zip(live) {
                    let passes = update(s, t, 0u8.wrapping_sub(u8::from(*p)));
                    *p = passes != 0;
                    count += passes;
                }
            } else {
                for (s, t) in stencil.iter_mut().zip(tests.iter_mut()) {
                    count += update(s, t, u8::MAX);
                }
            }
            passed += u64::from(count);
            if DEPTH_WRITE {
                if FORM == LANE_DEPTH {
                    for ((d, &t), &q) in depth.iter_mut().zip(&*tests).zip(q) {
                        *d = if t != 0 { q } else { *d };
                    }
                } else {
                    for (d, &t) in depth.iter_mut().zip(&*tests) {
                        *d = if t != 0 { quad } else { *d };
                    }
                }
            }
        }
        passed
    }
}

// A chunk's pass count is kept in a `u8`.
const _: () = assert!(LANES <= u8::MAX as usize);

/// One draw compiled into a span kernel: the lowered program plus the
/// fixed-function state hoisted out of the pixel loop.
#[derive(Debug)]
pub(crate) struct SpanKernel {
    path: Path,
    /// The copy-to-depth pass as one loop, when the draw is one.
    copy: Option<DepthCopy>,
    tests: TestStage,
    alpha: AlphaState,
    /// Whether some lanes may be dead before the tests: a late-path
    /// program with `KIL`, or the alpha test on a late-path draw.
    live_test: bool,
    /// Whether the flat quad color passes the alpha test.
    flat_alpha_pass: bool,
    draw_color: [f32; 4],
    color_mask: [bool; 4],
    color_any: bool,
    /// The scissor, which the rasterizer clips each rect against.
    pub scissor: ScissorState,
}

impl SpanKernel {
    /// Compile a draw over a `fb_size` framebuffer.
    pub fn new(inputs: &DrawInputs<'_>, fb_size: (usize, usize)) -> SpanKernel {
        let state = inputs.state;
        let mask = state.color_mask;
        let color_mask = [mask.red, mask.green, mask.blue, mask.alpha];
        // The result components the draw reads: those the color mask
        // writes, and alpha under the alpha test.
        let color_reads = (0..4)
            .filter(|&c| color_mask[c] || (c == 3 && state.alpha.enabled))
            .fold(0, |m, c| m | 1 << c);
        let lower = |p: &FragmentProgram| {
            LoweredProgram::lower(
                p,
                &DrawConstants {
                    textures: inputs.textures,
                    env: inputs.env,
                    quad_depth: inputs.quad_depth,
                    draw_color: inputs.draw_color,
                    fb_size,
                    color_reads,
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
        let lane_depth = matches!(&path, Path::Late(p) if p.writes_depth());
        let live_test = matches!(path, Path::Late(_))
            && (inputs.program.is_some_and(|p| p.has_kil) || state.alpha.enabled);
        let quad = quantize_depth(inputs.quad_depth as f64);
        let mut kernel = SpanKernel {
            path,
            copy: None,
            tests: TestStage::new(state, quad, lane_depth),
            alpha: state.alpha,
            live_test,
            flat_alpha_pass: state.alpha.test(inputs.draw_color[3]),
            draw_color: inputs.draw_color,
            color_mask,
            color_any: mask.any(),
            scissor: state.scissor,
        };
        // A late draw that only writes each fragment's own depth: every
        // fragment passes and nothing but the depth changes.
        let tests = &kernel.tests;
        let writes_only_depth = kernel.mask_free()
            && tests.form == UNFAILING
            && tests.depth_write
            && !tests.stencil_writes;
        if let (Path::Late(program), true) = (&kernel.path, writes_only_depth) {
            kernel.copy = program.depth_copy();
        }
        kernel
    }

    /// Whether the tests run with no pass mask: nothing is shaded or
    /// colored after them and every fragment is live.
    fn mask_free(&self) -> bool {
        !self.color_any && !self.live_test
    }

    /// How the draw was compiled.
    pub fn shape(&self) -> KernelShape {
        let (path, program) = match &self.path {
            Path::Fixed => (DrawPath::Fixed, None),
            Path::Early(p) => (DrawPath::Early, Some(p)),
            Path::Late(p) => (DrawPath::Late, Some(p)),
        };
        KernelShape {
            path,
            stencil_writes: self.tests.stencil_writes,
            depth_write: self.tests.depth_write,
            mask_free: self.mask_free(),
            unfailing: self.tests.form == UNFAILING,
            two_width: self.tests.stencil_writes && self.tests.form != UNFAILING,
            depth_copy: self.copy.is_some(),
            texel_dots: program.map_or(0, |p| p.texel_dots()),
            depth_forwarded: program.is_some_and(|p| p.depth_forwarded()),
        }
    }

    /// Working storage for [`SpanKernel::run_span`], one per thread.
    pub fn lanes(&self) -> Lanes {
        match &self.path {
            Path::Early(program) | Path::Late(program) if self.copy.is_none() => program.lanes(),
            _ => Lanes::empty(),
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
    /// accounting to `cost`. The span must lie inside `tile` and the
    /// scissor.
    pub fn run_span(
        &self,
        tile: &mut FbTile,
        lanes: &mut Lanes,
        y: usize,
        (x0, x1): (usize, usize),
        fb_width: usize,
        cost: &mut DrawCost,
    ) {
        let len = x1.saturating_sub(x0);
        let start = tile.local(y * fb_width + x0);
        let stencil = &mut tile.stencil[start..start + len];
        let depth = &mut tile.depth[start..start + len];
        let color = &mut tile.color[start..start + len];
        cost.fragments += len as u64;
        // A flat color failing the alpha test discards every fragment
        // before the stencil stage: nothing is written.
        if matches!(self.path, Path::Fixed) && !self.flat_alpha_pass {
            return;
        }
        if let Some(copy) = &self.copy {
            // Every fragment is shaded, passes and stores its depth.
            copy.run(depth, x0, y);
            cost.shaded += len as u64;
            cost.passed += len as u64;
            return;
        }
        let passed = match &self.path {
            // Only counts and stencil/depth writes: the whole row at once.
            Path::Fixed | Path::Early(_) if self.mask_free() => {
                self.tests.run::<false>(stencil, depth, &[], &mut [])
            }
            _ => self.run_chunks(lanes, y, x0, stencil, depth, color),
        };
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

    /// [`SpanKernel::run_span`] over chunks of up to [`LANES`] fragments,
    /// for draws that run a program or keep a pass mask.
    fn run_chunks(
        &self,
        lanes: &mut Lanes,
        y: usize,
        x0: usize,
        stencil: &mut [u8],
        depth: &mut [u32],
        color: &mut [[f32; 4]],
    ) -> u64 {
        let mut passed = 0u64;
        let mut pass = [true; LANES];
        let mut q = [0u32; LANES];
        for first in (0..stencil.len()).step_by(LANES) {
            let n = (stencil.len() - first).min(LANES);
            let span = first..first + n;
            let (stencil, depth) = (&mut stencil[span.clone()], &mut depth[span.clone()]);
            let (pass, color) = (&mut pass[..n], &mut color[span]);
            passed += match &self.path {
                Path::Fixed => {
                    pass.fill(true);
                    let survivors = self.tests.run::<true>(stencil, depth, &[], pass);
                    for (c, &p) in color.iter_mut().zip(&*pass) {
                        if p {
                            self.write_color(c, self.draw_color);
                        }
                    }
                    survivors
                }
                Path::Early(program) => {
                    pass.fill(true);
                    let survivors = self.tests.run::<true>(stencil, depth, &[], pass);
                    if survivors > 0 {
                        program.run(lanes, x0 + first, y, n);
                        self.write_program_color(program, lanes, color, pass);
                    }
                    survivors
                }
                Path::Late(program) => {
                    program.run(lanes, x0 + first, y, n);
                    let q = &mut q[..n];
                    if program.writes_depth() {
                        for (q, &d) in q.iter_mut().zip(&lanes.depth[..n]) {
                            *q = quantize_depth_f32(d);
                        }
                    }
                    if self.mask_free() {
                        self.tests.run::<false>(stencil, depth, q, &mut [])
                    } else {
                        if self.live_test {
                            // Killed lanes and alpha failures are discarded
                            // before the stencil stage, with no side effects.
                            let alpha = &program.color(lanes)[3][..n];
                            for ((live, &killed), &alpha) in
                                pass.iter_mut().zip(&lanes.killed[..n]).zip(alpha)
                            {
                                *live = !killed && self.alpha.test(alpha);
                            }
                        } else {
                            pass.fill(true);
                        }
                        let survivors = self.tests.run::<true>(stencil, depth, q, pass);
                        if self.color_any {
                            self.write_program_color(program, lanes, color, pass);
                        }
                        survivors
                    }
                }
            };
        }
        passed
    }

    /// Write the program's output color to the passing lanes of a span.
    #[inline(always)]
    fn write_program_color(
        &self,
        program: &LoweredProgram,
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
    use crate::buffers::{Framebuffer, DEPTH_MAX};
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

    const EDGES: [u32; 6] = [0, 1, DEPTH_MAX - 1, DEPTH_MAX, DEPTH_MAX + 1, u32::MAX];

    #[test]
    fn compare_bits_match_compare_func() {
        for func in FUNCS {
            let bits = CompareBits::new(func);
            for a in EDGES {
                for b in EDGES {
                    assert_eq!(bits.eval(a, b), func.eval(a, b), "{func:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn stencil_intervals_match_compare_func() {
        // Every function, reference and stored byte, as `TestStage` builds
        // and applies the stencil test, over `u32` and over bytes.
        for func in FUNCS {
            for value_mask in [0xFF, 0x0F, 0x01, 0x00] {
                for reference in 0..=u8::MAX {
                    let state = PipelineState {
                        stencil: StencilState {
                            enabled: true,
                            func,
                            reference,
                            value_mask,
                            ..Default::default()
                        },
                        ..Default::default()
                    };
                    let stage = TestStage::new(&state, 0, false);
                    for stored in 0..=u8::MAX {
                        let expected = state.stencil.test(stored);
                        let context = format!(
                            "{func:?} ref {reference} mask {value_mask:#x} stored {stored}"
                        );
                        let masked = stored & stage.value_mask;
                        assert_eq!(
                            stage.stencil.contains(u32::from(masked)),
                            expected,
                            "{context}"
                        );
                        assert_eq!(stage.stencil_bytes.contains(masked), expected, "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn bounds_failure_takes_no_stencil_op_in_two_widths() {
        // A stencil-writing draw whose depth test fails everywhere: the
        // in-bounds fragment takes `op_zfail`, the out-of-bounds one no op.
        let mut state = PipelineState::default();
        state.stencil.enabled = true;
        state.stencil.func = CompareFunc::Always;
        state.stencil.op_zfail = StencilOp::Incr;
        state.stencil.op_zpass = StencilOp::Replace;
        state.stencil.reference = 9;
        state.depth_bounds.enabled = true;
        state.depth_bounds.min = 0.25;
        state.depth_bounds.max = 0.5;
        state.depth.test_enabled = true;
        state.depth.func = CompareFunc::Never;
        let stored = [quantize_depth(0.375), quantize_depth(0.75)];
        for (lane_depth, form) in [(false, QUAD_DEPTH), (true, LANE_DEPTH)] {
            let stage = TestStage::new(&state, quantize_depth(0.5), lane_depth);
            assert_eq!(stage.form, form);
            assert!(stage.stencil_writes);
            let q = [quantize_depth(0.5); 2];
            for masked in [false, true] {
                let (mut stencil, mut depth, mut pass) = ([3u8, 3], stored, [true; 2]);
                let passed = if masked {
                    stage.run::<true>(&mut stencil, &mut depth, &q, &mut pass)
                } else {
                    stage.run::<false>(&mut stencil, &mut depth, &q, &mut [])
                };
                let context = format!("lane depth {lane_depth}, masked {masked}");
                assert_eq!(passed, 0, "{context}");
                assert_eq!(stencil, [4, 3], "{context}");
                assert_eq!(depth, stored, "{context}");
                assert_eq!(pass, [!masked; 2], "{context}");
            }
        }
    }

    #[test]
    fn depth_intervals_match_compare_func() {
        // The quad-depth form for every edge pair under full, 24-bit and
        // empty compare masks.
        for func in FUNCS {
            for compare_mask in [u32::MAX, DEPTH_MAX, 0] {
                for quad in EDGES {
                    let mut state = PipelineState::default();
                    state.depth.test_enabled = true;
                    state.depth.func = func;
                    state.depth.compare_mask = compare_mask;
                    let stage = TestStage::new(&state, quad, false);
                    for stored in EDGES {
                        assert_eq!(
                            stage.depth.contains(stored & stage.depth_mask),
                            func.eval(quad & compare_mask, stored & compare_mask),
                            "{func:?} mask {compare_mask:#x} quad {quad} stored {stored}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn empty_intervals_hold_nothing() {
        let empty = [
            // r < x with r at the top of the domain.
            Interval::of(CompareFunc::Less, u32::MAX),
            // r > x with r = 0.
            Interval::of(CompareFunc::Greater, 0),
            Interval::of(CompareFunc::Never, 7),
            Interval::between(1, 0),
            Interval::between(u32::MAX, 0),
        ];
        for interval in empty {
            assert_eq!(interval, Interval::NEVER);
            for x in EDGES {
                assert!(!interval.contains(x), "{interval:?} {x}");
            }
        }
        // Bounds holding no stored depth stay empty through `raw_bounds`.
        let step = 1.0 / DEPTH_SCALE;
        for (min, max) in [(0.5, 0.25), (0.25 + step / 4.0, 0.25 + step / 2.0)] {
            let (lo, hi) = raw_bounds(min, max);
            assert_eq!(Interval::between(lo, hi), Interval::NEVER, "[{min}, {max}]");
        }
        assert_eq!(Interval::of(CompareFunc::Always, 9), Interval::ALWAYS);
        assert!(EDGES.iter().all(|&x| Interval::ALWAYS.contains(x)));
    }

    #[test]
    fn unfailing_form_needs_every_test_to_pass() {
        // The copy pass: stencil and bounds off, depth test off, depth
        // written from the program.
        let mut copy = PipelineState::default();
        copy.depth.test_enabled = false;
        copy.depth.write_enabled = true;
        assert_eq!(TestStage::new(&copy, 0, true).form, UNFAILING);
        // At the quad depth, a written depth keeps the quad form.
        assert_eq!(TestStage::new(&copy, 0, false).form, QUAD_DEPTH);
        copy.depth.write_enabled = false;
        assert_eq!(TestStage::new(&copy, 0, false).form, UNFAILING);
        // A stencil `Always` that replaces still cannot fail.
        let mut semilinear = copy.clone();
        semilinear.stencil.enabled = true;
        semilinear.stencil.func = CompareFunc::Always;
        semilinear.stencil.op_zpass = StencilOp::Replace;
        assert_eq!(TestStage::new(&semilinear, 0, false).form, UNFAILING);
        // Any test that can fail keeps the compares.
        let mut kth = copy.clone();
        kth.depth.test_enabled = true;
        kth.depth.func = CompareFunc::GreaterEqual;
        assert_eq!(TestStage::new(&kth, 1, false).form, QUAD_DEPTH);
        assert_eq!(TestStage::new(&kth, 1, true).form, LANE_DEPTH);
        // `0 <= stored` holds for every stored depth: nothing can fail.
        let mut at_zero = kth.clone();
        at_zero.depth.func = CompareFunc::LessEqual;
        assert_eq!(TestStage::new(&at_zero, 0, false).form, UNFAILING);
        assert_eq!(TestStage::new(&at_zero, 0, true).form, LANE_DEPTH);
        let mut bounds = copy;
        bounds.depth_bounds.enabled = true;
        assert_eq!(TestStage::new(&bounds, 0, true).form, LANE_DEPTH);
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
        let t = y / fb.tile_rows();
        let mut tile = fb.take_tile(t);
        let fate = process_fragment(env, &mut tile, x, y, idx);
        fb.put_tile(t, tile);
        fate
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
    fn tile_local_indexing() {
        // The tile holding row 1 of a 4x3 framebuffer cut into one-row
        // tiles must map global indices onto its own storage.
        let mut fb = Framebuffer::with_tile_rows(4, 3, 1);
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
        let mut tile = fb.take_tile(1);
        assert_eq!((tile.base, tile.depth.len()), (4, 4));
        let fate = process_fragment(&env, &mut tile, 2, 1, 6);
        assert_eq!(fate, FragmentFate::Passed { shaded: false });
        fb.put_tile(1, tile);
        assert_eq!(fb.color.get(6), [1.0, 0.0, 0.0, 1.0]);
        assert_eq!(fb.color.get(2), [0.0; 4], "row 0 untouched");
        assert_eq!(fb.color.get(10), [0.0; 4], "row 2 untouched");
    }
}
