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
use gpudb_sim::raster::{
    kernel_shape, rasterize, rasterize_reference, DrawInputs, DrawPath, KernelShape,
};
use gpudb_sim::state::{
    AlphaState, ColorMask, CompareFunc, DepthBoundsState, DepthState, PipelineState, ScissorState,
    StencilOp, StencilState, DEPTH_COMPARE_MASK_ALL,
};
use gpudb_sim::{Rect, Texture, TextureFormat};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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

/// A `DP4` reading the texel just fetched into `R{temp}`: usually whole
/// and with constants, as the lowering fuses it when the temp then dies;
/// sometimes swizzled, negated or against a varying operand.
fn texel_dot(rng: &mut StdRng, temp: usize) -> String {
    let texel = match rng.gen_range(0..6) {
        0 => format!(
            "R{temp}{}",
            pick(rng, &[".xzyw", ".xyzx", ".xxyy", ".wzyx"])
        ),
        1 => format!("-R{temp}"),
        _ => format!("R{temp}"),
    };
    let other = match rng.gen_range(0..6) {
        0 => source(rng),
        1 => literal(rng),
        _ => format!("program.env[{}]{}", rng.gen_range(0..4), swizzle(rng)),
    };
    let (dst, _) = destination(rng);
    format!("DP4 {dst}, {texel}, {other};\n")
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
            if rng.gen_bool(0.4) {
                src.push_str(&texel_dot(rng, temp));
            }
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
        c.modeled_ns,
    ]
}

fn color_bits(fb: &Framebuffer) -> Vec<[u32; 4]> {
    fb.color
        .to_vec()
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
        kernel_fb.depth.to_raw_vec(),
        reference_fb.depth.to_raw_vec(),
        "depth: {}",
        context()
    );
    assert_eq!(
        kernel_fb.stencil.to_vec(),
        reference_fb.stencil.to_vec(),
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
    let mut bound: Vec<Option<Arc<Texture>>> =
        textures.into_iter().map(|t| Some(Arc::new(t))).collect();
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
    let bound: Vec<Option<Arc<Texture>>> =
        textures.into_iter().map(|t| Some(Arc::new(t))).collect();
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

/// Shading programs the early path runs after the tests: a plain texel
/// copy, and `DP4`s of the fetched texel that fuse (the texel dies at the
/// `DP4`) or do not (the texel is read again, swizzled or negated).
const EARLY_PROGRAMS: [&str; 5] = [
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     MOV result.color, R0;",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 result.color, R0, program.env[2];",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1.x, R0, program.env[2];
     MUL result.color, R1.x, R0;",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1.x, R0.xzyw, program.env[2];
     MOV result.color, R1.x;",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1.x, -R0, program.env[2];
     MOV result.color, R1.xxxx;",
];

/// Depth-writing programs beside the copy: the depth `MOV` follows its
/// producer (forwarded) or not (another instruction between, another
/// component written, a `MOV` after it), after a whole or a swizzled
/// texel dot.
const DEPTH_PROGRAMS: [&str; 5] = [
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1.x, R0.xzyw, program.env[1];
     MUL R1.x, R1.x, program.env[0].x;
     MOV result.depth, R1.x;",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1.x, R0, program.env[1];
     MUL R1.y, R1.x, program.env[0].x;
     MOV result.depth, R1.x;",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1.x, R0, program.env[1];
     MUL R2.x, R1.x, program.env[0].x;
     ADD R3.x, R1.x, R0.x;
     MOV result.depth, R2.x;",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1.y, R0, program.env[1];
     MUL R2.z, R1.y, program.env[0].x;
     MOV result.depth, R2.z;",
    "TEX R0, fragment.texcoord[0], texture[0], 2D;
     DP4 R1, R0, program.env[1];
     MUL R1.yz, R1, program.env[0].x;
     MOV result.depth, R1.y;
     MOV result.color, R1;",
];

fn assemble_body(body: &str) -> FragmentProgram {
    assemble(&format!("!!ARBfp1.0\n{body}\nEND")).unwrap()
}

/// A draw in the states the database layer uses: a 0/1 (sometimes 2)
/// selection in the stencil buffer, stencil ops from {Keep, Replace, Zero,
/// Incr} and often all `Keep`, color writes usually off, depth writes and
/// depth bounds on or off, references and quad depths at the ends of their
/// ranges, empty and inverted bounds. Half of the stencil-enabled draws can
/// never change the stencil, so the compare-and-count loop runs as often
/// as the loops with side effects. The copy and semi-linear programs are
/// often drawn in exactly the database layer's state for them, where no
/// test can fail.
struct DatabaseDraw {
    width: usize,
    height: usize,
    state: PipelineState,
    program: Option<FragmentProgram>,
    early_z: bool,
    quad_depth: f32,
    fb: Framebuffer,
    rects: Vec<Rect>,
    texture: Texture,
    env: [[f32; 4]; 32],
}

impl DatabaseDraw {
    fn new(seed: u64) -> DatabaseDraw {
        let mut rng = StdRng::seed_from_u64(seed);
        // Up to a few 64-fragment spans per row.
        let width = rng.gen_range(1..200);
        let height = rng.gen_range(1..6);
        let early_z = rng.gen_bool(0.5);
        let (program, early_z, alpha_test) = match rng.gen_range(0..8) {
            0 | 1 => (None, early_z, false),
            // No KIL, no depth write: shaded after the tests under early-z.
            2 | 3 => (
                Some(assemble_body(pick(&mut rng, &EARLY_PROGRAMS))),
                true,
                false,
            ),
            // Shaded before the tests: a depth write, KIL, or TestBit's
            // Accumulator pass (alpha >= 0.5).
            4 => (Some(builtin::copy_to_depth()), early_z, false),
            5 => (
                Some(builtin::semilinear(CompareFunc::GreaterEqual)),
                early_z,
                false,
            ),
            6 => (Some(builtin::test_bit()), early_z, true),
            _ => (
                Some(assemble_body(pick(&mut rng, &DEPTH_PROGRAMS))),
                early_z,
                false,
            ),
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
        let step = 1.0 / (1u64 << 24) as f64;
        let (bound_lo, bound_hi) = match rng.gen_range(0..6) {
            // Inverted.
            0 => (0.75, 0.25),
            // Between two adjacent stored depths: holds none of them.
            1 => {
                let at = grid(&mut rng).min(0.75);
                (at + step / 4.0, at + step / 2.0)
            }
            _ => (grid(&mut rng), grid(&mut rng)),
        };
        // A TestBit-style single-bit depth compare mask, or any mask as
        // `Gpu::set_depth_compare_mask` stores it.
        let bit = 1 << rng.gen_range(0..24);
        let any_mask = rng.gen::<u32>() & DEPTH_COMPARE_MASK_ALL;
        let any_u8: u8 = rng.gen();
        let mut state = PipelineState {
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
                        CompareFunc::Equal,
                        CompareFunc::Never,
                        CompareFunc::Less,
                    ],
                ),
                reference: pick(&mut rng, &[0, 1, 2, 255]),
                value_mask: pick(&mut rng, &[0xFF, 0xFF, 0x01, 0x00, 0xFE, any_u8]),
                write_mask: pick(&mut rng, &[0xFF, 0xFF, 0x01]),
                op_fail,
                op_zfail,
                op_zpass,
            },
            depth: DepthState {
                test_enabled: rng.gen_bool(0.8),
                func: pick(&mut rng, &FUNCS),
                write_enabled: rng.gen_bool(0.5),
                compare_mask: pick(&mut rng, &[DEPTH_MAX, DEPTH_MAX, bit, any_mask]),
            },
            depth_bounds: DepthBoundsState {
                enabled: rng.gen_bool(0.4),
                min: bound_lo,
                max: bound_hi,
            },
            scissor: ScissorState::default(),
            color_mask: if rng.gen_bool(0.6) {
                ColorMask::NONE
            } else {
                ColorMask::default()
            },
        };
        if matches!(&program, Some(p) if p.writes_depth || p.has_kil) && rng.gen_bool(0.75) {
            // The database layer's copy and semi-linear states: stencil
            // off and depth written (copy) or `Always`/`Replace`
            // (semi-linear), no bounds, no depth test, color off.
            let writes_depth = program.as_ref().unwrap().writes_depth;
            state.stencil.func = CompareFunc::Always;
            state.stencil.enabled = !writes_depth;
            state.depth.write_enabled |= writes_depth;
            state.depth_bounds.enabled = false;
            state.depth.test_enabled = false;
            state.color_mask = ColorMask::NONE;
        }
        let mut fb = Framebuffer::new(width, height);
        for i in 0..width * height {
            fb.color.set(i, [value(&mut rng), 0.0, 0.0, 1.0]);
            let stored = grid(&mut rng);
            fb.depth.set_raw(i, quantize_depth(stored));
            fb.stencil.set(i, pick(&mut rng, &[0, 1, 0, 1, 2, 255]));
        }
        let rects = Rect::covering_prefix(rng.gen_range(0..=width * height), width);
        let any = grid(&mut rng) as f32;
        let top = (DEPTH_MAX as f64 / (1u64 << 24) as f64) as f32;
        let quad_depth = pick(&mut rng, &[any, any, any, 0.0, top, -0.25, 1.25]);
        let data = (0..width * height * 4)
            .map(|i| ((i * 7919 + seed as usize) % 1000) as f32)
            .collect();
        let texture = Texture::from_data(width, height, TextureFormat::Rgba, data).unwrap();
        let mut env = [[0.0f32; 4]; 32];
        env[builtin::ENV_SCALE] = [1.0 / 1000.0, 0.0, 0.0, 0.0];
        env[builtin::ENV_CHANNEL] = builtin::channel_selector(rng.gen_range(0..4));
        env[builtin::ENV_COEFF] = [1.0, -0.5, 0.25, 0.0];
        env[builtin::ENV_CONST] = [500.0; 4];
        DatabaseDraw {
            width,
            height,
            quad_depth,
            state,
            program,
            early_z,
            fb,
            rects,
            texture,
            env,
        }
    }

    fn with_inputs<R>(&self, f: impl FnOnce(&DrawInputs<'_>) -> R) -> R {
        let bound = [Some(Arc::new(self.texture.clone()))];
        f(&DrawInputs {
            state: &self.state,
            program: self.program.as_ref(),
            textures: &bound,
            env: &self.env,
            quad_depth: self.quad_depth,
            draw_color: [1.0, 0.5, 0.25, 1.0],
            early_z: self.early_z,
        })
    }

    /// How the kernel compiles this draw.
    fn shape(&self) -> KernelShape {
        self.with_inputs(|inputs| kernel_shape(inputs, (self.width, self.height)))
    }
}

fn run_database_case(seed: u64) {
    let draw = DatabaseDraw::new(seed);
    draw.with_inputs(|inputs| {
        assert_equivalent(inputs, &draw.fb, &draw.rects, &|| {
            format!(
                "seed {seed}, {}x{}, {:?}, rects {:?}\nstate {:?}",
                draw.width,
                draw.height,
                draw.shape(),
                draw.rects,
                draw.state
            )
        })
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn kernel_matches_reference_on_database_states(seed in any::<u64>()) {
        run_database_case(seed);
    }
}

/// In 1024 draws the database-state generator reaches every path at least
/// 200 times, every test-stage specialization (stencil can change, depth
/// is written) at least 150 times and each pairing of the two at least 30
/// times. The mask-free, cannot-fail and two-width test forms, the
/// one-loop copy, the texel-dot fusion and the depth `MOV` forwarding each
/// compile at least 100 times, and at least 100 program draws keep every
/// `TEX` unfused.
#[test]
fn database_states_cover_every_path_and_specialization() {
    let shapes: Vec<KernelShape> = (0..1024)
        .map(|seed| DatabaseDraw::new(seed).shape())
        .collect();
    let count = |f: &dyn Fn(&KernelShape) -> bool| shapes.iter().filter(|s| f(s)).count();
    let mut pairs = std::collections::BTreeMap::new();
    for s in &shapes {
        *pairs
            .entry((s.path, s.stencil_writes, s.depth_write))
            .or_insert(0) += 1;
    }
    assert_eq!(pairs.len(), 12, "{pairs:?}");
    assert!(pairs.values().all(|&n| n >= 30), "{pairs:?}");
    for path in [DrawPath::Fixed, DrawPath::Early, DrawPath::Late] {
        let n = count(&|s| s.path == path);
        assert!(n >= 200, "{path:?}: {n} of 1024");
    }
    for spec in [(false, false), (false, true), (true, false), (true, true)] {
        let n = count(&|s| (s.stencil_writes, s.depth_write) == spec);
        assert!(n >= 150, "{spec:?}: {n} of 1024");
    }
    let rewrites = [
        ("mask-free", count(&|s| s.mask_free)),
        ("cannot fail", count(&|s| s.unfailing)),
        ("texel dot", count(&|s| s.texel_dots > 0)),
        ("depth forwarded", count(&|s| s.depth_forwarded)),
        ("two widths", count(&|s| s.two_width)),
        ("one-loop copy", count(&|s| s.depth_copy)),
        (
            "unfused program",
            count(&|s| s.path != DrawPath::Fixed && s.texel_dots == 0),
        ),
    ];
    for (name, n) in rewrites {
        assert!(n >= 100, "{name}: {n} of 1024");
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
    let bound = [Some(Arc::new(texture))];
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

    // The copy pass in the database layer's state, over textures narrower
    // than the framebuffer (the rects reach past the right edge, so lanes
    // read the edge texel) and over every channel count: only RGBA takes
    // the one-loop copy.
    let mut copy_state = PipelineState {
        color_mask: ColorMask::NONE,
        ..Default::default()
    };
    copy_state.depth.test_enabled = false;
    copy_state.depth.write_enabled = true;
    let copy = builtin::copy_to_depth();
    let formats = [
        TextureFormat::R,
        TextureFormat::Rg,
        TextureFormat::Rgb,
        TextureFormat::Rgba,
    ];
    for format in formats {
        for texture_width in [width, width - 70, 1] {
            let ch = format.channels();
            let data = (0..texture_width * height * ch)
                .map(|_| rng.gen_range(0..1u32 << 24) as f32)
                .collect();
            let texture = Texture::from_data(texture_width, height, format, data).unwrap();
            let bound = [Some(Arc::new(texture))];
            env[builtin::ENV_SCALE] = [1.0 / (1u32 << 24) as f32, 0.0, 0.0, 0.0];
            env[builtin::ENV_CHANNEL] = builtin::channel_selector(ch - 1);
            let fb = random_framebuffer(&mut rng, width, height);
            let rects = [Rect::new(0, 0, width, height - 1), Rect::new(3, 6, 190, 1)];
            let inputs = DrawInputs {
                state: &copy_state,
                program: Some(&copy),
                textures: &bound,
                env: &env,
                quad_depth: 0.0,
                draw_color: [1.0; 4],
                early_z: true,
            };
            let shape = kernel_shape(&inputs, (width, height));
            assert_eq!(shape.depth_copy, ch == 4, "{format:?}: {shape:?}");
            assert_equivalent(&inputs, &fb, &rects, &|| {
                format!("copy over {format:?} {texture_width} wide")
            });
        }
    }
}
