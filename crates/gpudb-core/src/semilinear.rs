//! Semi-linear queries — the paper's `Semilinear` (Routine 4.2).
//!
//! Evaluates `(s · a) op b` per record: a fragment program fetches the
//! attribute texel(s), computes the dot product with the coefficient
//! vector via `DP4` ("Semilinear maps very well to the parallel pixel
//! processing as well as vector processing capabilities available on the
//! GPUs"), and `KIL`s fragments that fail the comparison. Attribute
//! vectors longer than four channels span multiple textures, exactly as
//! §4.1.2 describes ("Longer vectors can be split into multiple textures,
//! each with four components").

use crate::error::{EngineError, EngineResult};
use crate::selection::{Selection, SELECTED};
use crate::table::GpuTable;
use gpudb_sim::program::{assemble, FragmentProgram};
use gpudb_sim::state::ColorMask;
use gpudb_sim::{CompareFunc, Gpu, Phase, StencilOp};

/// Maximum number of attributes in a semi-linear query (two RGBA
/// textures' worth; extendable, but the paper's experiments use four).
pub const MAX_SEMILINEAR_ATTRIBUTES: usize = 8;

/// First environment parameter holding per-texture coefficient vectors;
/// the comparison constant follows the last coefficient vector.
const ENV_COEFF_BASE: usize = 2;

/// Build the `SemilinearFP` fragment program for `groups` attribute
/// textures and comparison operator `op`.
///
/// Register plan: `R0`/`R1` hold fetched texels, `R2` accumulates the dot
/// product, `R3` the pass flag. `program.env[2 + g]` holds the coefficient
/// vector for texture group `g`; `program.env[2 + groups]` holds the
/// constant `b` (broadcast).
pub fn build_semilinear_program(groups: usize, op: CompareFunc) -> FragmentProgram {
    assert!((1..=2).contains(&groups), "1 or 2 texture groups supported");
    let mut src = String::from("!!ARBfp1.0\n# SemilinearFP (generated)\n");
    for g in 0..groups {
        src.push_str(&format!(
            "TEX R{g}, fragment.texcoord[0], texture[{g}], 2D;\n"
        ));
    }
    src.push_str(&format!("DP4 R2.x, R0, program.env[{ENV_COEFF_BASE}];\n"));
    if groups == 2 {
        src.push_str(&format!(
            "DP4 R3.x, R1, program.env[{}];\nADD R2.x, R2.x, R3.x;\n",
            ENV_COEFF_BASE + 1
        ));
    }
    let const_env = ENV_COEFF_BASE + groups;
    // R2.x = dot(s, a) - b
    src.push_str(&format!("SUB R2.x, R2.x, program.env[{const_env}].x;\n"));
    // R3.x = pass flag in {0, 1}
    let flag = match op {
        CompareFunc::Less => "SLT R3.x, R2.x, 0.0;\n".to_string(),
        CompareFunc::LessEqual => "SGE R3.x, -R2.x, 0.0;\n".to_string(),
        CompareFunc::Greater => "SLT R3.x, -R2.x, 0.0;\n".to_string(),
        CompareFunc::GreaterEqual => "SGE R3.x, R2.x, 0.0;\n".to_string(),
        CompareFunc::Equal => "ABS R3.x, R2.x;\nSGE R3.x, -R3.x, 0.0;\n".to_string(),
        CompareFunc::NotEqual => "ABS R3.x, R2.x;\nSLT R3.x, -R3.x, 0.0;\n".to_string(),
        CompareFunc::Always => "SGE R3.x, 0.0, 0.0;\n".to_string(),
        CompareFunc::Never => "SLT R3.x, 0.0, 0.0;\n".to_string(),
    };
    src.push_str(&flag);
    src.push_str("SUB R3.x, R3.x, 0.5;\nKIL R3.x;\nMOV result.color, R0;\nEND\n");
    assemble(&src).expect("generated semilinear program must assemble")
}

/// Evaluate `sum_j s[j] * column_j op b` over the table's first
/// `s.len()` columns, materializing a [`Selection`] that carries the
/// match count from the same pass.
///
/// The coefficients pair with columns in declaration order; columns beyond
/// `s.len()` within the same texture group contribute with coefficient 0.
pub fn semilinear_select(
    gpu: &mut Gpu,
    table: &GpuTable,
    s: &[f32],
    op: CompareFunc,
    b: f32,
) -> EngineResult<Selection> {
    if s.is_empty() || s.len() > MAX_SEMILINEAR_ATTRIBUTES {
        return Err(EngineError::TooManyAttributes(s.len()));
    }
    if s.len() > table.column_count() {
        return Err(EngineError::ColumnIndexOutOfRange(s.len() - 1));
    }
    let groups = s.len().div_ceil(4);

    gpu.set_phase(Phase::Compute);
    gpu.reset_state();
    gpu.clear_stencil(0);
    for g in 0..groups {
        gpu.bind_texture(g, Some(table.textures()[g]))?;
    }
    gpu.bind_program(Some(build_semilinear_program(groups, op)));
    for g in 0..groups {
        let mut coeffs = [0.0f32; 4];
        for (c, coeff) in coeffs.iter_mut().enumerate() {
            if let Some(&value) = s.get(g * 4 + c) {
                *coeff = value;
            }
        }
        gpu.set_program_env(ENV_COEFF_BASE + g, coeffs)?;
    }
    gpu.set_program_env(ENV_COEFF_BASE + groups, [b; 4])?;
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    gpu.set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
    gpu.begin_occlusion_query()?;
    gpu.draw_quad(table.rects(), 0.0)?;
    let count = gpu.end_occlusion_query_async()?;
    gpu.bind_program(None);
    gpu.reset_state();
    Ok(Selection::over_table(table, count))
}

/// Evaluate the degree-2 polynomial query
/// `Σ q_j·a_j² + Σ s_j·a_j  op  b` in a single kill pass — the extension
/// §4.1.2 anticipates: "This algorithm can also be extended for evaluating
/// polynomial queries."
///
/// The generated program squares the fetched texel component-wise (`MUL`)
/// and accumulates two `DP4`s; everything else matches the semi-linear
/// pass. Quadratic terms of 24-bit attributes can reach 2^48 — well within
/// f32 *range*, but precision follows f32 rules, exactly as it would have
/// on the hardware.
pub fn polynomial_select(
    gpu: &mut Gpu,
    table: &GpuTable,
    quadratic: &[f32],
    linear: &[f32],
    op: CompareFunc,
    b: f32,
) -> EngineResult<Selection> {
    let width = quadratic.len().max(linear.len());
    if width == 0 || width > 4 {
        // One texture group: the paper's 4-attribute experiments.
        return Err(EngineError::TooManyAttributes(width));
    }
    if width > table.column_count() {
        return Err(EngineError::ColumnIndexOutOfRange(width - 1));
    }

    gpu.set_phase(Phase::Compute);
    gpu.reset_state();
    gpu.clear_stencil(0);
    gpu.bind_texture(0, Some(table.textures()[0]))?;

    // R0 = a; R1 = a*a; R2.x = dot(q, a^2) + dot(s, a) - b; R3 = flag.
    let flag = match op {
        CompareFunc::Less => "SLT R3.x, R2.x, 0.0;\n",
        CompareFunc::LessEqual => "SGE R3.x, -R2.x, 0.0;\n",
        CompareFunc::Greater => "SLT R3.x, -R2.x, 0.0;\n",
        CompareFunc::GreaterEqual => "SGE R3.x, R2.x, 0.0;\n",
        CompareFunc::Equal => "ABS R3.x, R2.x;\nSGE R3.x, -R3.x, 0.0;\n",
        CompareFunc::NotEqual => "ABS R3.x, R2.x;\nSLT R3.x, -R3.x, 0.0;\n",
        CompareFunc::Always => "SGE R3.x, 0.0, 0.0;\n",
        CompareFunc::Never => "SLT R3.x, 0.0, 0.0;\n",
    };
    let source = format!(
        "!!ARBfp1.0
         # PolynomialFP (generated): quadratic + linear form.
         TEX R0, fragment.texcoord[0], texture[0], 2D;
         MUL R1, R0, R0;
         DP4 R2.x, R1, program.env[{q}];
         DP4 R3.x, R0, program.env[{s}];
         ADD R2.x, R2.x, R3.x;
         SUB R2.x, R2.x, program.env[{c}].x;
         {flag}SUB R3.x, R3.x, 0.5;
         KIL R3.x;
         MOV result.color, R0;
         END",
        q = ENV_COEFF_BASE,
        s = ENV_COEFF_BASE + 1,
        c = ENV_COEFF_BASE + 2,
    );
    gpu.bind_program(Some(
        assemble(&source).expect("generated polynomial program must assemble"),
    ));

    let mut qv = [0.0f32; 4];
    qv[..quadratic.len()].copy_from_slice(quadratic);
    let mut sv = [0.0f32; 4];
    sv[..linear.len()].copy_from_slice(linear);
    gpu.set_program_env(ENV_COEFF_BASE, qv)?;
    gpu.set_program_env(ENV_COEFF_BASE + 1, sv)?;
    gpu.set_program_env(ENV_COEFF_BASE + 2, [b; 4])?;

    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    gpu.set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
    gpu.begin_occlusion_query()?;
    gpu.draw_quad(table.rects(), 0.0)?;
    let count = gpu.end_occlusion_query_async()?;
    gpu.bind_program(None);
    gpu.reset_state();
    Ok(Selection::over_table(table, count))
}

/// Compare two attributes (`a_i op a_j`) by rewriting as the semi-linear
/// query `a_i - a_j op 0` (§4.1.2).
pub fn compare_attributes(
    gpu: &mut Gpu,
    table: &GpuTable,
    col_i: usize,
    col_j: usize,
    op: CompareFunc,
) -> EngineResult<Selection> {
    let n = table.column_count();
    if col_i >= n {
        return Err(EngineError::ColumnIndexOutOfRange(col_i));
    }
    if col_j >= n {
        return Err(EngineError::ColumnIndexOutOfRange(col_j));
    }
    let width = col_i.max(col_j) + 1;
    if width > MAX_SEMILINEAR_ATTRIBUTES {
        return Err(EngineError::TooManyAttributes(width));
    }
    let mut s = vec![0.0f32; width];
    s[col_i] += 1.0;
    s[col_j] -= 1.0;
    semilinear_select(gpu, table, &s, op, 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpudb_sim::CompareFunc::*;

    fn setup(columns: &[(&str, &[u32])]) -> (Gpu, GpuTable) {
        let n = columns.first().map_or(0, |(_, v)| v.len());
        let mut gpu = GpuTable::device_for(n, 8);
        let t = GpuTable::upload(&mut gpu, "t", columns).unwrap();
        (gpu, t)
    }

    /// f32 dot product in the exact order the GPU program computes it.
    fn gpu_order_dot(cols: &[&[u32]], s: &[f32], row: usize) -> f32 {
        let mut total = 0.0f32;
        for (g, chunk) in s.chunks(4).enumerate() {
            let mut group = 0.0f32;
            for (c, &coeff) in chunk.iter().enumerate() {
                let idx = g * 4 + c;
                let v = if idx < cols.len() {
                    cols[idx][row] as f32
                } else {
                    0.0
                };
                group += coeff * v;
            }
            total += group;
        }
        total
    }

    #[test]
    fn four_attribute_query_matches_reference() {
        let cols: Vec<Vec<u32>> = (0..4)
            .map(|c| (0..100u32).map(|i| (i * (c + 2) + c) % 77).collect())
            .collect();
        let named: Vec<(&str, &[u32])> = ["a", "b", "c", "d"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        let refs: Vec<&[u32]> = cols.iter().map(|v| v.as_slice()).collect();
        let s = [0.5f32, -1.25, 2.0, 0.3];
        for op in [Less, LessEqual, Greater, GreaterEqual, Equal, NotEqual] {
            let (mut gpu, t) = setup(&named);
            let sel = semilinear_select(&mut gpu, &t, &s, op, 40.0).unwrap();
            let expected: Vec<bool> = (0..100)
                .map(|row| op.eval(gpu_order_dot(&refs, &s, row), 40.0))
                .collect();
            assert_eq!(sel.read_mask(&mut gpu).unwrap(), expected, "op {op:?}");
            assert_eq!(
                sel.matched(),
                expected.iter().filter(|&&b| b).count() as u64
            );
        }
    }

    #[test]
    fn eight_attribute_query_spans_two_textures() {
        let cols: Vec<Vec<u32>> = (0..8)
            .map(|c| (0..50u32).map(|i| (i + c * 11) % 64).collect())
            .collect();
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let named: Vec<(&str, &[u32])> = names
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        let refs: Vec<&[u32]> = cols.iter().map(|v| v.as_slice()).collect();
        let s: Vec<f32> = (0..8).map(|i| (i as f32 - 3.5) * 0.25).collect();
        let (mut gpu, t) = setup(&named);
        let sel = semilinear_select(&mut gpu, &t, &s, GreaterEqual, 1.0).unwrap();
        let expected: Vec<bool> = (0..50)
            .map(|row| gpu_order_dot(&refs, &s, row) >= 1.0)
            .collect();
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), expected);
        assert_eq!(
            sel.matched(),
            expected.iter().filter(|&&b| b).count() as u64
        );
    }

    #[test]
    fn fewer_coefficients_than_table_columns() {
        // s shorter than the texture's channel count: trailing channels get
        // coefficient 0 and must not influence the result.
        let a: Vec<u32> = (0..20).collect();
        let b: Vec<u32> = (0..20).map(|i| i * 1000).collect();
        let (mut gpu, t) = setup(&[("a", &a), ("b", &b)]);
        let sel = semilinear_select(&mut gpu, &t, &[1.0], GreaterEqual, 10.0).unwrap();
        assert_eq!(sel.matched(), 10, "only column a participates");
    }

    #[test]
    fn attribute_comparison_rewrite() {
        let a: Vec<u32> = vec![5, 10, 15, 20, 25];
        let b: Vec<u32> = vec![7, 10, 12, 30, 25];
        let (mut gpu, t) = setup(&[("a", &a), ("b", &b)]);
        let sel = compare_attributes(&mut gpu, &t, 0, 1, Greater).unwrap();
        assert_eq!(sel.matched(), 1);
        assert_eq!(sel.read_indices(&mut gpu).unwrap(), vec![2]);
        let sel = compare_attributes(&mut gpu, &t, 0, 1, Equal).unwrap();
        assert_eq!(sel.matched(), 2);
        let sel = compare_attributes(&mut gpu, &t, 1, 0, Greater).unwrap();
        assert_eq!(sel.matched(), 2);
    }

    #[test]
    fn comparing_a_column_with_itself() {
        let a: Vec<u32> = (0..10).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        // a - a == 0 for every record.
        let sel = compare_attributes(&mut gpu, &t, 0, 0, Equal).unwrap();
        assert_eq!(sel.matched(), 10);
        let sel = compare_attributes(&mut gpu, &t, 0, 0, NotEqual).unwrap();
        assert_eq!(sel.matched(), 0);
    }

    #[test]
    fn invalid_coefficient_counts_rejected() {
        let a: Vec<u32> = (0..4).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        assert!(matches!(
            semilinear_select(&mut gpu, &t, &[], Less, 0.0).unwrap_err(),
            EngineError::TooManyAttributes(0)
        ));
        assert!(matches!(
            semilinear_select(&mut gpu, &t, &[0.0; 9], Less, 0.0).unwrap_err(),
            EngineError::TooManyAttributes(9)
        ));
        assert!(matches!(
            semilinear_select(&mut gpu, &t, &[1.0, 1.0], Less, 0.0).unwrap_err(),
            EngineError::ColumnIndexOutOfRange(1)
        ));
    }

    #[test]
    fn program_shape_matches_paper() {
        // One group: TEX + DP4 + SUB + flag + SUB + KIL + MOV — the "few
        // instructions" shape of Routine 4.2.
        let p = build_semilinear_program(1, GreaterEqual);
        assert!(p.has_kil);
        assert!(!p.writes_depth);
        assert_eq!(p.len(), 7);
        // Two groups add TEX + DP4 + ADD.
        let p2 = build_semilinear_program(2, GreaterEqual);
        assert_eq!(p2.len(), 10);
        assert_eq!(p2.texture_units, 0b11);
    }

    /// Mirror of the generated polynomial program's f32 evaluation order.
    fn gpu_order_poly(cols: &[&[u32]], q: &[f32], s: &[f32], row: usize) -> f32 {
        let fetch = |j: usize| -> f32 {
            if j < cols.len() {
                cols[j][row] as f32
            } else {
                0.0
            }
        };
        let mut qv = [0.0f32; 4];
        qv[..q.len()].copy_from_slice(q);
        let mut sv = [0.0f32; 4];
        sv[..s.len()].copy_from_slice(s);
        let a: [f32; 4] = [fetch(0), fetch(1), fetch(2), fetch(3)];
        let sq: [f32; 4] = [a[0] * a[0], a[1] * a[1], a[2] * a[2], a[3] * a[3]];
        let qdot = sq[0] * qv[0] + sq[1] * qv[1] + sq[2] * qv[2] + sq[3] * qv[3];
        let sdot = a[0] * sv[0] + a[1] * sv[1] + a[2] * sv[2] + a[3] * sv[3];
        qdot + sdot
    }

    #[test]
    fn polynomial_query_matches_reference() {
        let cols: Vec<Vec<u32>> = (0..2)
            .map(|c| (0..120u32).map(|i| (i * (c + 3)) % 200).collect())
            .collect();
        let named: Vec<(&str, &[u32])> = ["a", "b"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        let refs: Vec<&[u32]> = cols.iter().map(|v| v.as_slice()).collect();
        let q = [0.5f32, -0.25];
        let s = [3.0f32, 1.0];
        for op in [Less, GreaterEqual, NotEqual] {
            let (mut gpu, t) = setup(&named);
            let sel = polynomial_select(&mut gpu, &t, &q, &s, op, 5_000.0).unwrap();
            let expected: Vec<bool> = (0..120)
                .map(|row| op.eval(gpu_order_poly(&refs, &q, &s, row), 5_000.0))
                .collect();
            assert_eq!(sel.read_mask(&mut gpu).unwrap(), expected, "op {op:?}");
            assert_eq!(
                sel.matched(),
                expected.iter().filter(|&&b| b).count() as u64
            );
        }
    }

    #[test]
    fn polynomial_degenerates_to_semilinear() {
        // Zero quadratic coefficients: must agree with the linear pass
        // (same evaluation order for one texture group).
        let a: Vec<u32> = (0..50u32).map(|i| (i * 7) % 99).collect();
        let b: Vec<u32> = (0..50u32).map(|i| (i * 13) % 99).collect();
        let (mut gpu, t) = setup(&[("a", &a), ("b", &b)]);
        let s = [2.0f32, -1.0];
        let poly = polynomial_select(&mut gpu, &t, &[0.0, 0.0], &s, GreaterEqual, 10.0).unwrap();
        let lin = semilinear_select(&mut gpu, &t, &s, GreaterEqual, 10.0).unwrap();
        assert_eq!(poly.matched(), lin.matched());
    }

    #[test]
    fn polynomial_circle_query() {
        // Points inside a circle: x² + y² <= r² — the canonical GIS
        // polynomial predicate.
        let x: Vec<u32> = (0..200u32).map(|i| i % 100).collect();
        let y: Vec<u32> = (0..200u32).map(|i| (i * 37) % 100).collect();
        let (mut gpu, t) = setup(&[("x", &x), ("y", &y)]);
        let r2 = 50.0f32 * 50.0;
        let sel = polynomial_select(&mut gpu, &t, &[1.0, 1.0], &[], LessEqual, r2).unwrap();
        let expected = (0..200)
            .filter(|&i| {
                let (fx, fy) = (x[i] as f32, y[i] as f32);
                fx * fx + fy * fy <= r2
            })
            .count() as u64;
        assert_eq!(sel.matched(), expected);
    }

    #[test]
    fn polynomial_validation() {
        let a: Vec<u32> = (0..4).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        assert!(matches!(
            polynomial_select(&mut gpu, &t, &[], &[], Less, 0.0).unwrap_err(),
            EngineError::TooManyAttributes(0)
        ));
        assert!(matches!(
            polynomial_select(&mut gpu, &t, &[0.0; 5], &[], Less, 0.0).unwrap_err(),
            EngineError::TooManyAttributes(5)
        ));
        assert!(matches!(
            polynomial_select(&mut gpu, &t, &[1.0, 1.0], &[], Less, 0.0).unwrap_err(),
            EngineError::ColumnIndexOutOfRange(1)
        ));
    }
}
