//! Differential test of the draw path: the compiled span kernel
//! ([`rasterize`]) must leave the same color, depth and stencil bytes and
//! return the same [`DrawCost`] (and so the same occlusion count) as the
//! per-fragment reference pipeline ([`rasterize_reference`]), which runs
//! every fragment through the fixed-function tests and the interpreter.
//!
//! Each case draws a random program assembled from text (every opcode,
//! swizzles, negation, partial write masks, temps read before written,
//! `KIL` ahead of a `result.depth` write, `TEX` at coordinates that need
//! clamping), a random pipeline state and a random framebuffer.

use gpudb_sim::buffers::{dequantize_depth, quantize_depth, Framebuffer, DEPTH_MAX};
use gpudb_sim::cost::{DrawCost, HardwareProfile};
use gpudb_sim::program::builtin;
use gpudb_sim::program::parser::assemble;
use gpudb_sim::program::FragmentProgram;
use gpudb_sim::raster::{rasterize, rasterize_reference, DrawInputs};
use gpudb_sim::state::{
    AlphaState, ColorMask, CompareFunc, DepthBoundsState, DepthState, PipelineState, ScissorState,
    StencilOp, StencilState,
};
use gpudb_sim::{Rect, Texture, TextureFormat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

const STENCIL_OPS: [StencilOp; 8] = [
    StencilOp::Keep,
    StencilOp::Zero,
    StencilOp::Replace,
    StencilOp::Incr,
    StencilOp::Decr,
    StencilOp::Invert,
    StencilOp::IncrWrap,
    StencilOp::DecrWrap,
];

const ALU: [(&str, usize); 20] = [
    ("MOV", 1),
    ("ADD", 2),
    ("SUB", 2),
    ("MUL", 2),
    ("MAD", 3),
    ("DP3", 2),
    ("DP4", 2),
    ("FRC", 1),
    ("FLR", 1),
    ("RCP", 1),
    ("RSQ", 1),
    ("MIN", 2),
    ("MAX", 2),
    ("CMP", 3),
    ("SLT", 2),
    ("SGE", 2),
    ("ABS", 1),
    ("EX2", 1),
    ("LG2", 1),
    ("POW", 2),
];

const TEXTURE_UNITS: usize = 4;

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A float that is usually a "nice" value in a small range, sometimes an
/// edge (zero, negative, large).
fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0..8) {
        0 => 0.0,
        1 => pick(rng, &[0.5, 1.0, -1.0, 2.0, -0.5]),
        2 => rng.gen_range(-300.0f32..300.0),
        _ => rng.gen_range(-1.5f32..1.5),
    }
}

fn literal(rng: &mut StdRng) -> String {
    match rng.gen_range(0..3) {
        0 => format!("{:?}", value(rng).abs()),
        1 => format!("{{{:?}}}", value(rng)),
        _ => format!(
            "{{{:?}, {:?}, {:?}, {:?}}}",
            value(rng),
            value(rng),
            value(rng),
            value(rng)
        ),
    }
}

fn swizzle(rng: &mut StdRng) -> &'static str {
    pick(
        rng,
        &[
            "", "", "", ".x", ".y", ".z", ".w", ".xyzw", ".wzyx", ".yx", ".zzxy", ".xyz",
        ],
    )
}

fn mask(rng: &mut StdRng) -> &'static str {
    pick(
        rng,
        &[
            "", "", "", ".x", ".y", ".w", ".xy", ".xz", ".yzw", ".xyw", ".zw",
        ],
    )
}

/// A source operand: temps (often not yet written), env, literals, named
/// constants, and the interpolated fragment inputs.
fn source(rng: &mut StdRng) -> String {
    let neg = if rng.gen_bool(0.25) { "-" } else { "" };
    let base = match rng.gen_range(0..10) {
        0..=3 => format!("R{}{}", rng.gen_range(0..5), swizzle(rng)),
        4 => format!("program.env[{}]{}", rng.gen_range(0..4), swizzle(rng)),
        5 => literal(rng),
        6 => format!("k{}", swizzle(rng)),
        7 => format!("fragment.texcoord[{}]{}", rng.gen_range(0..4), swizzle(rng)),
        8 => format!("fragment.position{}", swizzle(rng)),
        _ => format!("fragment.color{}", swizzle(rng)),
    };
    format!("{neg}{base}")
}

/// A destination operand, with the temp it writes (if any).
fn destination(rng: &mut StdRng) -> (String, Option<usize>) {
    match rng.gen_range(0..8) {
        0 => (format!("result.color{}", mask(rng)), None),
        1 => ("result.depth".to_string(), None),
        _ => {
            let temp = rng.gen_range(0..5);
            (format!("R{temp}{}", mask(rng)), Some(temp))
        }
    }
}

fn tex_coord(rng: &mut StdRng) -> String {
    match rng.gen_range(0..4) {
        0 => "fragment.texcoord[0]".to_string(),
        1 => format!("fragment.texcoord[{}]", rng.gen_range(0..4)),
        // Arbitrary coordinates: floor and clamp-to-edge.
        _ => source(rng),
    }
}

fn random_program(rng: &mut StdRng) -> String {
    let mut src = format!("!!ARBfp1.0\nPARAM k = {};\n", literal(rng));
    // Seed R0..R2 with texel data so later arithmetic sees varied values;
    // R3 and R4 start from the zeroed register file.
    for temp in 0..3 {
        if rng.gen_bool(0.7) {
            src.push_str(&format!(
                "TEX R{temp}, fragment.texcoord[0], texture[{}], 2D;\n",
                rng.gen_range(0..TEXTURE_UNITS)
            ));
        }
    }
    let mut last_temp = None;
    for _ in 0..rng.gen_range(1..12) {
        let line = match rng.gen_range(0..10) {
            0 | 1 => {
                let (dst, temp) = destination(rng);
                last_temp = temp.or(last_temp);
                format!(
                    "TEX {dst}, {}, texture[{}], 2D;",
                    tex_coord(rng),
                    rng.gen_range(0..TEXTURE_UNITS)
                )
            }
            2 => format!("KIL {};", source(rng)),
            _ => {
                let (op, arity) = pick(rng, &ALU);
                let srcs: Vec<String> = (0..arity).map(|_| source(rng)).collect();
                let (dst, temp) = destination(rng);
                last_temp = temp.or(last_temp);
                format!("{op} {dst}, {};", srcs.join(", "))
            }
        };
        src.push_str(&line);
        src.push('\n');
    }
    if rng.gen_bool(0.8) {
        // Route the last computed temp to the output so the color bytes
        // see the arithmetic.
        src.push_str(&format!(
            "MOV result.color{}, R{}{};\n",
            mask(rng),
            last_temp.unwrap_or(0),
            swizzle(rng)
        ));
    }
    if rng.gen_bool(0.3) {
        // A discard ahead of a depth write: the late path must drop the
        // killed lanes' depth.
        src.push_str(&format!("KIL {};\n", source(rng)));
        src.push_str(&format!("MOV result.depth, {};\n", source(rng)));
    }
    src.push_str("END");
    src
}

fn random_state(rng: &mut StdRng, width: usize, height: usize) -> PipelineState {
    // Bounds sometimes sit exactly on a stored depth (see
    // `random_framebuffer`), so the inclusive edges matter.
    let on_grid = |rng: &mut StdRng| {
        let any = dequantize_depth(quantize_depth(rng.gen_range(0.0f64..1.0)));
        pick(rng, &[0.25, 0.5, 0.75, any])
    };
    let (bound_lo, bound_hi) = if rng.gen_bool(0.5) {
        (on_grid(rng), on_grid(rng))
    } else {
        (rng.gen_range(-0.2f64..0.8), rng.gen_range(0.2f64..1.2))
    };
    let any_u8: u8 = rng.gen();
    let any_mask = rng.gen_range(0..=DEPTH_MAX);
    let scissor_w = rng.gen_range(0..=width + 2);
    let scissor_h = rng.gen_range(0..=height + 2);
    PipelineState {
        alpha: AlphaState {
            enabled: rng.gen_bool(0.3),
            func: pick(rng, &FUNCS),
            reference: rng.gen_range(-0.5f32..1.5),
        },
        stencil: StencilState {
            enabled: rng.gen_bool(0.5),
            func: pick(rng, &FUNCS),
            reference: rng.gen_range(0..4),
            value_mask: pick(rng, &[0xFF, 0x01, 0x03, any_u8]),
            write_mask: pick(rng, &[0xFF, 0x0F, any_u8]),
            op_fail: pick(rng, &STENCIL_OPS),
            op_zfail: pick(rng, &STENCIL_OPS),
            op_zpass: pick(rng, &STENCIL_OPS),
        },
        depth: DepthState {
            test_enabled: rng.gen_bool(0.7),
            func: pick(rng, &FUNCS),
            write_enabled: rng.gen_bool(0.5),
            compare_mask: pick(rng, &[DEPTH_MAX, DEPTH_MAX, 1 << 20, any_mask]),
        },
        depth_bounds: DepthBoundsState {
            enabled: rng.gen_bool(0.3),
            min: bound_lo,
            max: bound_hi,
        },
        scissor: ScissorState {
            enabled: rng.gen_bool(0.3),
            x: rng.gen_range(0..=width),
            y: rng.gen_range(0..=height),
            width: pick(rng, &[usize::MAX, scissor_w]),
            height: pick(rng, &[usize::MAX, scissor_h]),
        },
        color_mask: if rng.gen_bool(0.2) {
            // The database layer's usual mask: no color writes, so early-z
            // shades nothing.
            ColorMask::NONE
        } else {
            ColorMask {
                red: rng.gen_bool(0.7),
                green: rng.gen_bool(0.7),
                blue: rng.gen_bool(0.7),
                alpha: rng.gen_bool(0.7),
            }
        },
    }
}

fn random_framebuffer(rng: &mut StdRng, width: usize, height: usize) -> Framebuffer {
    let mut fb = Framebuffer::new(width, height);
    for i in 0..width * height {
        fb.color
            .set(i, [value(rng), value(rng), value(rng), value(rng)]);
        // A few distinct depths, so equality tests and bounds edges hit.
        let any = rng.gen_range(-0.1f64..1.1);
        let stored = pick(rng, &[0.25, 0.5, 0.75, any]);
        fb.depth.set_raw(i, quantize_depth(stored));
        let any: u8 = rng.gen();
        fb.stencil.set(i, pick(rng, &[0, 0, 1, 2, 3, any]));
    }
    fb
}

fn random_texture(rng: &mut StdRng, width: usize, height: usize) -> Texture {
    // Often smaller than the framebuffer, so the pixel path clamps too.
    let w = rng.gen_range(1..=width + 3);
    let any = rng.gen_range(1..=height + 3);
    let h = pick(rng, &[1, 2, any]);
    let format = pick(
        rng,
        &[
            TextureFormat::R,
            TextureFormat::Rg,
            TextureFormat::Rgb,
            TextureFormat::Rgba,
        ],
    );
    let data = (0..w * h * format.channels())
        .map(|_| {
            if rng.gen_bool(0.7) {
                rng.gen_range(0.0f32..1.0)
            } else {
                value(rng)
            }
        })
        .collect();
    Texture::from_data(w, h, format, data).unwrap()
}

fn random_rects(rng: &mut StdRng, width: usize, height: usize) -> Vec<Rect> {
    if rng.gen_bool(0.5) {
        // The database layer's record layout: full rows, then a partial
        // last row.
        return Rect::covering_prefix(rng.gen_range(0..=width * height), width);
    }
    (0..rng.gen_range(1..4))
        .map(|_| {
            let x = rng.gen_range(0..width);
            let y = rng.gen_range(0..height);
            Rect::new(
                x,
                y,
                rng.gen_range(0..=width - x),
                rng.gen_range(0..=height - y),
            )
        })
        .collect()
}

fn cost_bits(c: &DrawCost) -> [u64; 6] {
    [
        c.fragments,
        c.shaded,
        c.early_rejected,
        c.passed,
        c.instructions,
        c.modeled_seconds.to_bits(),
    ]
}

fn color_bits(fb: &Framebuffer) -> Vec<[u32; 4]> {
    fb.color
        .data()
        .iter()
        .map(|c| c.map(f32::to_bits))
        .collect()
}

/// Run one draw both ways from the same starting framebuffer and compare
/// every byte and counter.
fn assert_equivalent(
    inputs: &DrawInputs<'_>,
    fb: &Framebuffer,
    rects: &[Rect],
    context: &dyn Fn() -> String,
) {
    let profile = HardwareProfile::geforce_fx_5900();
    let mut kernel_fb = fb.clone();
    let mut reference_fb = fb.clone();
    let kernel = rasterize(inputs, &mut kernel_fb, rects, &profile).unwrap();
    let reference = rasterize_reference(inputs, &mut reference_fb, rects, &profile).unwrap();
    assert_eq!(
        cost_bits(&kernel),
        cost_bits(&reference),
        "DrawCost: {}",
        context()
    );
    assert_eq!(
        kernel_fb.depth.raw_data(),
        reference_fb.depth.raw_data(),
        "depth: {}",
        context()
    );
    assert_eq!(
        kernel_fb.stencil.data(),
        reference_fb.stencil.data(),
        "stencil: {}",
        context()
    );
    assert_eq!(
        color_bits(&kernel_fb),
        color_bits(&reference_fb),
        "color: {}",
        context()
    );
}

fn run_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = rng.gen_range(1..40);
    let height = rng.gen_range(1..10);
    let source = random_program(&mut rng);
    let program = match assemble(&source) {
        Ok(p) => p,
        Err(e) => panic!("generated program must assemble ({e}):\n{source}"),
    };
    let use_program = rng.gen_bool(0.85);
    let state = random_state(&mut rng, width, height);
    let fb = random_framebuffer(&mut rng, width, height);
    let textures: Vec<Texture> = (0..TEXTURE_UNITS - 1)
        .map(|_| random_texture(&mut rng, width, height))
        .collect();
    // The last unit stays unbound: sampling it reads opaque black.
    let mut bound: Vec<Option<&Texture>> = textures.iter().map(Some).collect();
    bound.push(None);
    let env: Vec<[f32; 4]> = (0..32)
        .map(|_| {
            [
                value(&mut rng),
                value(&mut rng),
                value(&mut rng),
                value(&mut rng),
            ]
        })
        .collect();
    let rects = random_rects(&mut rng, width, height);
    let inputs = DrawInputs {
        state: &state,
        program: use_program.then_some(&program),
        textures: &bound,
        env: &env,
        quad_depth: rng.gen_range(-0.2f32..1.2),
        draw_color: [
            value(&mut rng),
            value(&mut rng),
            value(&mut rng),
            rng.gen_range(0.0f32..1.0),
        ],
        early_z: rng.gen_bool(0.7),
    };
    assert_equivalent(&inputs, &fb, &rects, &|| {
        format!(
            "seed {seed}, {width}x{height}, rects {rects:?}\nstate {state:?}\nprogram:\n{source}"
        )
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn kernel_matches_reference_pipeline(seed in any::<u64>()) {
        run_case(seed);
    }
}

/// A dataflow chain: every instruction reads temps written before it (or
/// full-precision env values) and writes a temp the next one reads, ending
/// in the output color. Exact f32 results reach the color buffer, so any
/// change of operation order or rounding shows.
fn chain_program(rng: &mut StdRng) -> String {
    let mut src = String::from(
        "TEX R0, fragment.texcoord[0], texture[0], 2D;\n\
         TEX R1, fragment.texcoord[0], texture[1], 2D;\n",
    );
    let mut written = 2;
    for _ in 0..rng.gen_range(2..10) {
        let (op, arity) = pick(rng, &ALU);
        let srcs: Vec<String> = (0..arity)
            .map(|_| {
                let neg = if rng.gen_bool(0.2) { "-" } else { "" };
                if rng.gen_bool(0.75) {
                    let swz = pick(rng, &["", "", ".wzyx", ".y", ".zxyw"]);
                    format!("{neg}R{}{swz}", rng.gen_range(0..written))
                } else {
                    format!("{neg}program.env[{}]", rng.gen_range(0..4))
                }
            })
            .collect();
        let dst = (written + rng.gen_range(0..2)).min(11);
        written = written.max(dst + 1);
        src.push_str(&format!("{op} R{dst}, {};\n", srcs.join(", ")));
    }
    src.push_str(&format!("MOV result.color, R{};\n", written - 1));
    src
}

fn run_chain_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (width, height) = (rng.gen_range(1..80), rng.gen_range(1..4));
    let source = chain_program(&mut rng);
    let program = assemble(&source).unwrap();
    let textures: Vec<Texture> = (0..2)
        .map(|_| {
            let data = (0..width * height * 4)
                .map(|_| rng.gen_range(-2.0f32..2.0))
                .collect();
            Texture::from_data(width, height, TextureFormat::Rgba, data).unwrap()
        })
        .collect();
    let bound: Vec<Option<&Texture>> = textures.iter().map(Some).collect();
    let env: Vec<[f32; 4]> = (0..32)
        .map(|_| [0; 4].map(|_: i32| rng.gen_range(-2.0f32..2.0)))
        .collect();
    let state = PipelineState::default();
    let fb = Framebuffer::new(width, height);
    let inputs = DrawInputs {
        state: &state,
        program: Some(&program),
        textures: &bound,
        env: &env,
        quad_depth: 0.5,
        draw_color: [1.0; 4],
        early_z: rng.gen_bool(0.5),
    };
    let rects = [Rect::full(width, height)];
    assert_equivalent(&inputs, &fb, &rects, &|| {
        format!("seed {seed}, {width}x{height}, program:\n{source}")
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn kernel_arithmetic_matches_reference(seed in any::<u64>()) {
        run_chain_case(seed);
    }
}

/// The path a draw takes through the kernel, as the kernel picks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum DrawPath {
    Fixed,
    Early,
    Late,
}

/// A draw in the states the database layer uses: a 0/1 (sometimes 2)
/// selection in the stencil buffer, stencil ops from {Keep, Replace, Zero,
/// Incr} and often all `Keep`, color writes usually off, depth writes and
/// depth bounds on or off. Half of the stencil-enabled draws can never
/// change the stencil, so the compare-and-count loop runs as often as the
/// loops with side effects.
struct DatabaseDraw {
    width: usize,
    height: usize,
    state: PipelineState,
    program: Option<FragmentProgram>,
    early_z: bool,
    quad_depth: f32,
    fb: Framebuffer,
    rects: Vec<Rect>,
}

impl DatabaseDraw {
    fn new(seed: u64) -> DatabaseDraw {
        let mut rng = StdRng::seed_from_u64(seed);
        // Up to a few 64-fragment spans per row.
        let width = rng.gen_range(1..200);
        let height = rng.gen_range(1..6);
        let early_z = rng.gen_bool(0.5);
        let (program, early_z, alpha_test) = match rng.gen_range(0..6) {
            0 | 1 => (None, early_z, false),
            // No KIL, no depth write: shaded after the tests under early-z.
            2 | 3 => {
                let shade = "!!ARBfp1.0
                             TEX R0, fragment.texcoord[0], texture[0], 2D;
                             MOV result.color, R0;
                             END";
                (Some(assemble(shade).unwrap()), true, false)
            }
            // Shaded before the tests: a depth write, KIL, or TestBit's
            // Accumulator pass (alpha >= 0.5).
            4 => match rng.gen_range(0..2) {
                0 => (Some(builtin::copy_to_depth()), early_z, false),
                _ => (
                    Some(builtin::semilinear(CompareFunc::GreaterEqual)),
                    early_z,
                    false,
                ),
            },
            _ => (Some(builtin::test_bit()), early_z, true),
        };
        let ops = [
            StencilOp::Keep,
            StencilOp::Replace,
            StencilOp::Zero,
            StencilOp::Incr,
        ];
        let (op_fail, op_zfail, op_zpass) = if rng.gen_bool(0.5) {
            (StencilOp::Keep, StencilOp::Keep, StencilOp::Keep)
        } else {
            (
                pick(&mut rng, &ops),
                pick(&mut rng, &ops),
                pick(&mut rng, &ops),
            )
        };
        let grid = |rng: &mut StdRng| {
            let any = dequantize_depth(quantize_depth(rng.gen_range(0.0f64..1.0)));
            pick(rng, &[0.0, 0.25, 0.5, 0.75, 1.0, any])
        };
        // A TestBit-style single-bit depth compare mask.
        let bit = 1 << rng.gen_range(0..24);
        let state = PipelineState {
            alpha: AlphaState {
                enabled: alpha_test,
                func: CompareFunc::GreaterEqual,
                reference: 0.5,
            },
            stencil: StencilState {
                enabled: rng.gen_bool(0.8),
                func: pick(
                    &mut rng,
                    &[
                        CompareFunc::Equal,
                        CompareFunc::Always,
                        CompareFunc::NotEqual,
                    ],
                ),
                reference: rng.gen_range(0..3),
                value_mask: pick(&mut rng, &[0xFF, 0xFF, 0x01]),
                write_mask: pick(&mut rng, &[0xFF, 0xFF, 0x01]),
                op_fail,
                op_zfail,
                op_zpass,
            },
            depth: DepthState {
                test_enabled: rng.gen_bool(0.8),
                func: pick(&mut rng, &FUNCS),
                write_enabled: rng.gen_bool(0.5),
                compare_mask: pick(&mut rng, &[DEPTH_MAX, DEPTH_MAX, bit]),
            },
            depth_bounds: DepthBoundsState {
                enabled: rng.gen_bool(0.4),
                min: grid(&mut rng),
                max: grid(&mut rng),
            },
            scissor: ScissorState::default(),
            color_mask: if rng.gen_bool(0.6) {
                ColorMask::NONE
            } else {
                ColorMask::default()
            },
        };
        let mut fb = Framebuffer::new(width, height);
        for i in 0..width * height {
            fb.color.set(i, [value(&mut rng), 0.0, 0.0, 1.0]);
            let stored = grid(&mut rng);
            fb.depth.set_raw(i, quantize_depth(stored));
            fb.stencil.set(i, pick(&mut rng, &[0, 1, 0, 1, 2]));
        }
        let rects = Rect::covering_prefix(rng.gen_range(0..=width * height), width);
        DatabaseDraw {
            width,
            height,
            quad_depth: grid(&mut rng) as f32,
            state,
            program,
            early_z,
            fb,
            rects,
        }
    }

    /// Which path and which test-stage specialization (stencil can
    /// change, depth is written) the kernel runs this draw with.
    fn class(&self) -> (DrawPath, bool, bool) {
        let st = &self.state.stencil;
        let path = match &self.program {
            None => DrawPath::Fixed,
            Some(p)
                if self.early_z && !p.writes_depth && !p.has_kil && !self.state.alpha.enabled =>
            {
                DrawPath::Early
            }
            Some(_) => DrawPath::Late,
        };
        let stencil_writes = st.enabled
            && st.write_mask != 0
            && [st.op_fail, st.op_zfail, st.op_zpass]
                .iter()
                .any(|&op| op != StencilOp::Keep);
        (path, stencil_writes, self.state.depth.write_enabled)
    }
}

fn run_database_case(seed: u64) {
    let draw = DatabaseDraw::new(seed);
    let (width, height) = (draw.width, draw.height);
    let data = (0..width * height)
        .map(|i| ((i * 7919 + seed as usize) % 1000) as f32)
        .collect();
    let texture = Texture::from_data(width, height, TextureFormat::R, data).unwrap();
    let bound = [Some(&texture)];
    let mut env = [[0.0f32; 4]; 32];
    env[builtin::ENV_SCALE] = [1.0 / 1000.0, 0.0, 0.0, 0.0];
    env[builtin::ENV_CHANNEL] = builtin::channel_selector(0);
    env[builtin::ENV_COEFF] = [1.0, 0.0, 0.0, 0.0];
    env[builtin::ENV_CONST] = [500.0; 4];
    let inputs = DrawInputs {
        state: &draw.state,
        program: draw.program.as_ref(),
        textures: &bound,
        env: &env,
        quad_depth: draw.quad_depth,
        draw_color: [1.0, 0.5, 0.25, 1.0],
        early_z: draw.early_z,
    };
    assert_equivalent(&inputs, &draw.fb, &draw.rects, &|| {
        format!(
            "seed {seed}, {width}x{height}, {:?}, rects {:?}\nstate {:?}",
            draw.class(),
            draw.rects,
            draw.state
        )
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn kernel_matches_reference_on_database_states(seed in any::<u64>()) {
        run_database_case(seed);
    }
}

/// The database-state generator reaches every path at least 200 times and
/// every test-stage specialization at least 150 times in 1024 draws, and
/// each pairing of the two at least 30 times.
#[test]
fn database_states_cover_every_path_and_specialization() {
    let mut counts = std::collections::BTreeMap::new();
    for seed in 0..1024 {
        *counts.entry(DatabaseDraw::new(seed).class()).or_insert(0) += 1;
    }
    assert_eq!(counts.len(), 12, "{counts:?}");
    assert!(counts.values().all(|&n| n >= 30), "{counts:?}");
    let paths = [DrawPath::Fixed, DrawPath::Early, DrawPath::Late];
    for path in paths {
        let n: usize = counts
            .iter()
            .filter(|(c, _)| c.0 == path)
            .map(|(_, n)| n)
            .sum();
        assert!(n >= 200, "{path:?}: {n} of 1024");
    }
    for spec in [(false, false), (false, true), (true, false), (true, true)] {
        let n: usize = counts
            .iter()
            .filter(|(c, _)| (c.1, c.2) == spec)
            .map(|(_, n)| n)
            .sum();
        assert!(n >= 150, "{spec:?}: {n} of 1024");
    }
}

/// The paper's programs under the states the database layer draws them
/// with, on a framebuffer wide enough for several spans per row.
#[test]
fn builtin_programs_match_reference() {
    let (width, height) = (203, 7);
    let mut rng = StdRng::seed_from_u64(20040613);
    let texture = Texture::from_data(
        width,
        height,
        TextureFormat::Rgba,
        (0..width * height * 4)
            .map(|_| rng.gen_range(0..1u32 << 24) as f32)
            .collect(),
    )
    .unwrap();
    let bound = [Some(&texture)];
    let mut env = [[0.0f32; 4]; 32];
    env[builtin::ENV_SCALE] = [1.0 / (1u32 << 24) as f32, 0.0, 0.0, 0.0];
    env[builtin::ENV_CHANNEL] = builtin::channel_selector(2);
    env[builtin::ENV_COEFF] = [0.25, -0.5, 1.0, 0.125];
    env[builtin::ENV_CONST] = [4.0e6; 4];
    let programs: Vec<FragmentProgram> = vec![
        builtin::copy_to_depth(),
        builtin::test_bit(),
        builtin::semilinear(CompareFunc::GreaterEqual),
        builtin::semilinear(CompareFunc::NotEqual),
    ];
    for (i, program) in programs.iter().enumerate() {
        for early_z in [true, false] {
            let mut state = random_state(&mut rng, width, height);
            state.scissor.enabled = false;
            if i == 1 {
                // TestBit's Accumulator pass: alpha >= 0.5 under stencil.
                env[builtin::ENV_SCALE] = [0.5f32.powi(5), 0.0, 0.0, 0.0];
                state.alpha = AlphaState {
                    enabled: true,
                    func: CompareFunc::GreaterEqual,
                    reference: 0.5,
                };
            }
            let fb = random_framebuffer(&mut rng, width, height);
            let rects = Rect::covering_prefix(width * height - 17, width);
            let inputs = DrawInputs {
                state: &state,
                program: Some(program),
                textures: &bound,
                env: &env,
                quad_depth: 0.5,
                draw_color: [1.0; 4],
                early_z,
            };
            assert_equivalent(&inputs, &fb, &rects, &|| {
                format!("builtin {i}, early_z {early_z}, state {state:?}")
            });
        }
    }
}
