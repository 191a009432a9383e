//! Property-based tests for the simulator's core invariants.

use gpudb_sim::buffers::{dequantize_depth, quantize_depth, DEPTH_MAX, DEPTH_SCALE};
use gpudb_sim::program::interp::{execute, FragmentContext, FragmentInput};
use gpudb_sim::program::parser::assemble;
use gpudb_sim::state::{CompareFunc, StencilOp, StencilState};
use gpudb_sim::texture::{decode_u32, encode_u32};
use gpudb_sim::{Gpu, Rect, Texture, TextureFormat};
use proptest::prelude::*;

const ALL_OPS: [CompareFunc; 8] = [
    CompareFunc::Never,
    CompareFunc::Less,
    CompareFunc::Equal,
    CompareFunc::LessEqual,
    CompareFunc::Greater,
    CompareFunc::NotEqual,
    CompareFunc::GreaterEqual,
    CompareFunc::Always,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn depth_quantization_exact_and_monotone(a in 0u32..=DEPTH_MAX, b in 0u32..=DEPTH_MAX) {
        // Exactness through both f64 and f32 normalization paths.
        prop_assert_eq!(quantize_depth(a as f64 / DEPTH_SCALE), a);
        let f32_path = a as f32 * (1.0f32 / DEPTH_SCALE as f32);
        prop_assert_eq!(quantize_depth(f32_path as f64), a);
        // Monotonicity.
        if a <= b {
            prop_assert!(
                quantize_depth(a as f64 / DEPTH_SCALE) <= quantize_depth(b as f64 / DEPTH_SCALE)
            );
        }
        // Dequantize inverts.
        prop_assert_eq!(quantize_depth(dequantize_depth(a)), a);
    }

    #[test]
    fn texel_integer_roundtrip(v in 0u32..(1 << 24)) {
        prop_assert_eq!(decode_u32(encode_u32(v)), v);
    }

    #[test]
    fn compare_func_algebra(a in 0i64..100, b in 0i64..100, op_idx in 0usize..8) {
        let op = ALL_OPS[op_idx];
        // converse flips operands; negate complements; double application
        // is the identity.
        prop_assert_eq!(op.eval(a, b), op.converse().eval(b, a));
        prop_assert_eq!(op.eval(a, b), !op.negate().eval(a, b));
        prop_assert_eq!(op.converse().converse(), op);
        prop_assert_eq!(op.negate().negate(), op);
    }

    #[test]
    fn stencil_op_bounds(value in any::<u8>(), reference in any::<u8>(), op_idx in 0usize..8) {
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
        let op = ops[op_idx];
        let out = op.apply(value, reference);
        // Self-inverse / idempotence laws per op.
        match op {
            StencilOp::Keep => prop_assert_eq!(out, value),
            StencilOp::Zero => prop_assert_eq!(out, 0),
            StencilOp::Replace => prop_assert_eq!(out, reference),
            StencilOp::Invert => prop_assert_eq!(StencilOp::Invert.apply(out, reference), value),
            StencilOp::IncrWrap => {
                prop_assert_eq!(StencilOp::DecrWrap.apply(out, reference), value)
            }
            StencilOp::DecrWrap => {
                prop_assert_eq!(StencilOp::IncrWrap.apply(out, reference), value)
            }
            StencilOp::Incr => prop_assert!(out == value.saturating_add(1)),
            StencilOp::Decr => prop_assert!(out == value.saturating_sub(1)),
        }
    }

    #[test]
    fn compare_func_converse_negate_commute(a in 0i64..100, b in 0i64..100, op_idx in 0usize..8) {
        let op = ALL_OPS[op_idx];
        // The two involutions commute, and their composition is the
        // complement of the converse relation.
        prop_assert_eq!(op.converse().negate(), op.negate().converse());
        prop_assert_eq!(op.converse().negate().eval(a, b), !op.eval(b, a));
    }

    #[test]
    fn stencil_incr_decr_clamp(value in any::<u8>(), reference in any::<u8>()) {
        // §4.3's CNF protocol relies on Incr/Decr saturating at the ends
        // of the u8 range rather than wrapping.
        prop_assert_eq!(StencilOp::Incr.apply(255, reference), 255);
        prop_assert_eq!(StencilOp::Decr.apply(0, reference), 0);
        // Monotone by one step everywhere else.
        let up = StencilOp::Incr.apply(value, reference);
        prop_assert!(up >= value && up as u16 <= value as u16 + 1);
        let down = StencilOp::Decr.apply(value, reference);
        prop_assert!(down <= value && value as u16 <= down as u16 + 1);
    }

    #[test]
    fn record_only_draws_cost_nothing(
        w in 1usize..12,
        h in 1usize..12,
        depth in 0.0f32..1.0,
    ) {
        use gpudb_sim::{RecordMode, SpanKind};
        let mut gpu = Gpu::geforce_fx_5900(w, h);
        gpu.set_draw_color([0.25, 0.5, 0.75, 1.0]);
        gpu.draw_full_quad(0.0).unwrap();
        let pixels_before = gpu.read_color_buffer().unwrap();
        let counters_before = gpu.stats().counters();

        gpu.attach_log(RecordMode::RecordOnly);
        gpu.span_begin(SpanKind::Operator, "dry-run");
        gpu.set_depth_test(true, CompareFunc::Greater);
        gpu.set_draw_color([1.0, 0.0, 0.0, 1.0]);
        gpu.begin_occlusion_query().unwrap();
        gpu.draw_full_quad(depth).unwrap();
        let count = gpu.end_occlusion_query().unwrap();
        let plans = gpu.take_log().unwrap().plans_since(0);

        // The dry run recorded the plan but shaded nothing, counted
        // nothing and left framebuffer and counters untouched.
        prop_assert_eq!(count, 0);
        prop_assert_eq!(plans.len(), 1);
        prop_assert_eq!(plans[0].draw_count(), 1);
        prop_assert_eq!(gpu.stats().counters(), counters_before);
        prop_assert_eq!(gpu.read_color_buffer().unwrap(), pixels_before);
    }

    #[test]
    fn stencil_write_mask_partitions_bits(
        stored in any::<u8>(),
        reference in any::<u8>(),
        write_mask in any::<u8>(),
    ) {
        let st = StencilState {
            write_mask,
            reference,
            ..Default::default()
        };
        let out = st.write(stored, StencilOp::Replace);
        prop_assert_eq!(out & write_mask, reference & write_mask);
        prop_assert_eq!(out & !write_mask, stored & !write_mask);
    }

    #[test]
    fn straight_line_programs_match_host_eval(
        ops in prop::collection::vec((0usize..6, -8.0f32..8.0, -8.0f32..8.0), 1..12),
    ) {
        // Build a straight-line program accumulating into R0 and mirror it
        // on the host; the interpreter must agree exactly.
        let mut src = String::from("MOV R0, {0.0};\n");
        let mut host = [0.0f32; 4];
        type HostOp = fn(f32, f32, f32) -> f32;
        for (op_idx, x, y) in &ops {
            let (mnemonic, f): (&str, HostOp) = match op_idx {
                0 => ("ADD", |a, b, _| a + b),
                1 => ("SUB", |a, b, _| a - b),
                2 => ("MUL", |a, b, _| a * b),
                3 => ("MIN", |a, b, _| a.min(b)),
                4 => ("MAX", |a, b, _| a.max(b)),
                _ => ("MAD", |a, b, c| a * b + c),
            };
            if mnemonic == "MAD" {
                src.push_str(&format!("MAD R0, R0, {x:?}, {y:?};\n"));
                for h in &mut host {
                    *h = f(*h, *x, *y);
                }
            } else {
                src.push_str(&format!("{mnemonic} R1, R0, {x:?};\nMOV R0, R1;\n"));
                for h in &mut host {
                    *h = f(*h, *x, 0.0);
                }
                let _ = y;
            }
        }
        src.push_str("MOV result.color, R0;\n");
        let program = assemble(&src).unwrap();
        let input = FragmentInput::for_pixel(0, 0, 0.0, [0.0; 4]);
        let ctx = FragmentContext { textures: &[], env: &[[0.0; 4]; 32] };
        let out = execute(&program, &input, &ctx);
        prop_assert_eq!(out.color, host);
    }

    #[test]
    fn occlusion_counts_match_reference(
        values in prop::collection::vec(0u32..=DEPTH_MAX, 1..100),
        constant in 0u32..=DEPTH_MAX,
        op_idx in 0usize..8,
    ) {
        // Load values into the depth buffer via a depth-writing program,
        // then count depth-test passes against `constant op value`.
        let op = ALL_OPS[op_idx];
        let width = values.len().min(16);
        let height = values.len().div_ceil(width);
        let mut gpu = Gpu::geforce_fx_5900(width, height);
        let mut padded = values.clone();
        padded.resize(width * height, 0);
        let tex = Texture::from_data(width, height, TextureFormat::R,
            padded.iter().map(|&v| v as f32).collect()).unwrap();
        let id = gpu.create_texture(tex).unwrap();
        gpu.bind_texture(0, Some(id)).unwrap();
        gpu.bind_program_source(
            "TEX R0, fragment.texcoord[0], texture[0], 2D;
             MUL R1.x, R0.x, program.env[0].x;
             MOV result.depth, R1.x;",
        ).unwrap();
        gpu.set_program_env(0, [1.0 / DEPTH_SCALE as f32, 0.0, 0.0, 0.0]).unwrap();
        gpu.set_depth_test(true, CompareFunc::Always);
        gpu.set_depth_write(true);
        gpu.draw_full_quad(0.0).unwrap();

        gpu.bind_program(None);
        gpu.set_depth_write(false);
        gpu.set_depth_test(true, op);
        gpu.begin_occlusion_query().unwrap();
        let rects = Rect::covering_prefix(values.len(), width);
        gpu.draw_quad(&rects, constant as f32 / DEPTH_SCALE as f32).unwrap();
        let count = gpu.end_occlusion_query().unwrap();

        let expected = values.iter().filter(|&&v| op.eval(constant, v)).count() as u64;
        prop_assert_eq!(count, expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The assembler must never panic: arbitrary input is either a valid
    // program or a clean ProgramError.
    #[test]
    fn assembler_never_panics(input in "\\PC{0,200}") {
        let _ = assemble(&input);
    }

    // Structured near-miss inputs built from real fragments: still no
    // panics, and anything accepted must execute without panicking too.
    #[test]
    fn assembler_handles_shuffled_fragments(
        pieces in prop::collection::vec(0usize..12, 0..20),
    ) {
        const FRAGMENTS: [&str; 12] = [
            "MOV R0, R1;",
            "TEX R0, fragment.texcoord[0], texture[0], 2D;",
            "DP4 R1.x, R0, program.env[1];",
            "KIL -R1.x;",
            "MOV result.color, R0;",
            "MOV result.depth, R1.x;",
            "TEMP a, b;",
            "PARAM p = {1, 2, 3, 4};",
            "END",
            "MAD R2, R0, R1, R2;",
            "FRC R3.xy, R2;",
            "!!ARBfp1.0",
        ];
        let src: String = pieces.iter().map(|&i| FRAGMENTS[i]).collect::<Vec<_>>().join("\n");
        if let Ok(program) = assemble(&src) {
            let input = FragmentInput::for_pixel(0, 0, 0.5, [0.0; 4]);
            let tex = Texture::from_data(1, 1, TextureFormat::Rgba,
                vec![1.0, 2.0, 3.0, 4.0]).unwrap();
            let textures: [Option<&Texture>; 1] = [Some(&tex)];
            let ctx = FragmentContext { textures: &textures, env: &[[0.5; 4]; 32] };
            let _ = execute(&program, &input, &ctx);
        }
    }
}
