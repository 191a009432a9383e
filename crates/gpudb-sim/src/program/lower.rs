//! Per-draw lowering of a fragment program into a span kernel.
//!
//! The interpreter ([`super::interp::execute`]) runs one fragment at a time
//! and re-decodes every operand, swizzle and write mask per fragment. A draw
//! renders up to a million fragments with the same program, environment and
//! textures, so the draw path lowers the bound program once per draw and
//! then runs each instruction as one tight loop over a struct-of-arrays span
//! of up to [`LANES`] fragments of one row.
//!
//! Lowering resolves every source component to a *column*:
//!
//! * `program.env`, literal and `fragment.color` operands fold, with their
//!   swizzle and negation, into per-draw constant columns;
//! * the x and y of `fragment.texcoord[n]` and `fragment.position` are the
//!   lane's pixel centre (all texcoord sets are equal on a screen-aligned
//!   quad); their z and w fold into constants;
//! * temporaries map to compact register slots, and only the temp
//!   components a program reads before writing them start at 0 (the
//!   interpreter zeroes its whole register file per fragment).
//!
//! Each instruction computes only the components it writes, reading all of
//! its sources before writing its destination, as the interpreter does.
//!
//! Exactness: the kernel must reproduce the interpreter bit for bit.
//!
//! * Arithmetic keeps the interpreter's f32 operation order: left-associated
//!   `DP3`/`DP4` sums, `MAD` as `a * b + c` with no fused multiply-add.
//!   Negation flips the sign bit, as `-x` does.
//! * A `TEX` whose coordinate is the unswizzled, unnegated pixel centre
//!   indexes texel `(x, y)` directly, since `floor(x as f32 + 0.5) == x`
//!   for every `x < 2^23`; any other coordinate keeps the floor and
//!   clamp-to-edge path.
//! * Lanes killed by `KIL` keep computing; the caller must ignore their
//!   depth and color.

use super::isa::{DstReg, FragmentProgram, Instruction, Opcode, SrcOperand, SrcReg};
use crate::texture::Texture;

/// Fragments per struct-of-arrays span.
pub(crate) const LANES: usize = 64;

/// One component of a span register: a value per lane.
pub(crate) type Column = [f32; LANES];

/// Largest framebuffer edge for which a pixel centre `x + 0.5` is exact in
/// f32, so that `floor` of it is `x` again.
const PIXEL_EXACT_DIM: usize = 1 << 23;

/// Register slot holding the pixel centre: component 0 is `x + 0.5`,
/// component 1 is `y + 0.5`.
const INPUT: usize = 0;

/// Constant column 0 always holds 0.0 (the value of absent operands).
const ZERO: usize = 0;

/// The f32 sign bit, XORed in to negate a column value.
const SIGN: u32 = 0x8000_0000;

/// Where one source component is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Col {
    /// Component `comp` of register slot `slot`.
    Reg { slot: usize, comp: usize },
    /// Constant column `idx`.
    Const(usize),
}

/// One resolved source component: a column and a sign mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Src {
    col: Col,
    sign: u32,
}

const ZERO_SRC: Src = Src {
    col: Col::Const(ZERO),
    sign: 0,
};

/// A lowered destination.
#[derive(Debug, Clone, Copy)]
enum Dst {
    /// Register slot (a temp or the result color) under a write mask.
    Reg { slot: usize, mask: u8 },
    /// `result.depth`: the z channel, whatever the mask.
    Depth,
}

/// Texture coordinate source of a lowered `TEX`.
#[derive(Debug, Clone, Copy)]
enum TexCoord {
    /// The pixel centre itself: texel `(x, y)`, clamped to the texture.
    Pixel,
    /// Arbitrary x and y columns: floor, then clamp to edge.
    Lanes([Src; 2]),
}

/// One lowered instruction.
#[derive(Debug)]
enum Step<'a> {
    Alu {
        op: Opcode,
        dst: Dst,
        /// Components computed: the write mask, or z for `result.depth`.
        comps: u8,
        /// Per source, per result component.
        srcs: Box<[[Src; 4]; 3]>,
    },
    Tex {
        dst: Dst,
        comps: u8,
        texture: Option<&'a Texture>,
        coord: TexCoord,
    },
    Kil {
        /// The distinct source components tested.
        src: Vec<Src>,
    },
}

/// Per-span working storage for one lowered program. Each band thread owns
/// one; it is reused for every span of the draw.
pub(crate) struct Lanes {
    regs: Vec<[Column; 4]>,
    consts: Vec<Column>,
    res: [Column; 4],
    /// `result.depth` per lane (meaningful when the program writes depth).
    pub depth: Column,
    /// Whether a `KIL` discarded the lane.
    pub killed: [bool; LANES],
}

/// A fragment program lowered against one draw's environment, textures,
/// quad depth and flat color.
#[derive(Debug)]
pub(crate) struct LoweredProgram<'a> {
    steps: Vec<Step<'a>>,
    consts: Vec<f32>,
    slots: usize,
    /// Temp components read before any write: zeroed per span.
    zero_init: Vec<(usize, usize)>,
    uses_px: bool,
    uses_py: bool,
    has_kil: bool,
    writes_depth: bool,
    /// Final output color per component (never negated).
    color: [Col; 4],
}

/// Per-draw values a lowered program folds into constants.
pub(crate) struct DrawConstants<'a> {
    /// Bound textures, by unit.
    pub textures: &'a [Option<&'a Texture>],
    /// `program.env` values.
    pub env: &'a [[f32; 4]],
    /// The quad depth (`fragment.position.z`).
    pub quad_depth: f32,
    /// The flat primary color (`fragment.color`).
    pub draw_color: [f32; 4],
    /// Framebuffer width and height.
    pub fb_size: (usize, usize),
}

/// Component indices set in a 4-bit mask.
#[inline(always)]
fn each(mask: u8) -> impl Iterator<Item = usize> {
    (0..4).filter(move |c| mask & (1 << c) != 0)
}

/// Whether the opcode's result is one scalar broadcast to every channel.
fn broadcasts(op: Opcode) -> bool {
    matches!(
        op,
        Opcode::Dp3
            | Opcode::Dp4
            | Opcode::Rcp
            | Opcode::Rsq
            | Opcode::Ex2
            | Opcode::Lg2
            | Opcode::Pow
    )
}

/// Source components an ALU opcode reads when it computes `comps`.
fn reads(op: Opcode, comps: u8) -> u8 {
    match op {
        Opcode::Dp3 => 0b0111,
        Opcode::Dp4 => 0b1111,
        op if broadcasts(op) => 0b0001,
        _ => comps,
    }
}

struct Lowerer<'a, 'p> {
    program: &'p FragmentProgram,
    draw: &'p DrawConstants<'a>,
    consts: Vec<f32>,
    /// (temp register index, slot) pairs.
    temp_slots: Vec<(usize, usize)>,
    /// Components written so far, per slot.
    written: Vec<u8>,
    color_slot: Option<usize>,
    zero_init: Vec<(usize, usize)>,
    uses_px: bool,
    uses_py: bool,
}

impl<'a> Lowerer<'a, '_> {
    fn new_slot(&mut self) -> usize {
        self.written.push(0);
        self.written.len() - 1
    }

    fn temp_slot(&mut self, index: usize) -> usize {
        if let Some(&(_, slot)) = self.temp_slots.iter().find(|(i, _)| *i == index) {
            return slot;
        }
        let slot = self.new_slot();
        self.temp_slots.push((index, slot));
        slot
    }

    fn constant(&mut self, value: f32) -> Src {
        let idx = match self
            .consts
            .iter()
            .position(|c| c.to_bits() == value.to_bits())
        {
            Some(i) => i,
            None => {
                self.consts.push(value);
                self.consts.len() - 1
            }
        };
        Src {
            col: Col::Const(idx),
            sign: 0,
        }
    }

    /// Resolve result component `comp` of a source operand.
    fn src(&mut self, operand: &SrcOperand, comp: usize) -> Src {
        let raw = operand.swizzle.0[comp] as usize & 3;
        let sign = if operand.negate { SIGN } else { 0 };
        let value = match operand.reg {
            SrcReg::Temp(i) => {
                let slot = self.temp_slot(i);
                if self.written[slot] & (1 << raw) == 0 && !self.zero_init.contains(&(slot, raw)) {
                    self.zero_init.push((slot, raw));
                }
                return Src {
                    col: Col::Reg { slot, comp: raw },
                    sign,
                };
            }
            SrcReg::TexCoord(_) | SrcReg::Position if raw < 2 => {
                if raw == 0 {
                    self.uses_px = true;
                } else {
                    self.uses_py = true;
                }
                return Src {
                    col: Col::Reg {
                        slot: INPUT,
                        comp: raw,
                    },
                    sign,
                };
            }
            SrcReg::TexCoord(_) => [0.0, 1.0][raw - 2],
            SrcReg::Position => [self.draw.quad_depth, 1.0][raw - 2],
            // Out-of-range indices (which the assembler rejects) read 0.
            SrcReg::Param(i) => self.draw.env.get(i).map_or(0.0, |v| v[raw]),
            SrcReg::Literal(i) => self.program.literals.get(i).map_or(0.0, |v| v[raw]),
            SrcReg::FragColor => self.draw.draw_color[raw],
        };
        self.constant(if operand.negate { -value } else { value })
    }

    fn src_comps(&mut self, operand: Option<&SrcOperand>, comps: u8) -> [Src; 4] {
        let mut out = [ZERO_SRC; 4];
        if let Some(operand) = operand {
            for c in each(comps) {
                out[c] = self.src(operand, c);
            }
        }
        out
    }

    /// Lower a destination; returns it with the components to compute.
    fn dst(&mut self, reg: DstReg, mask: u8) -> (Dst, u8) {
        let mask = mask & 0b1111;
        let slot = match reg {
            DstReg::ResultDepth => return (Dst::Depth, 0b0100),
            DstReg::Temp(i) => self.temp_slot(i),
            DstReg::ResultColor => match self.color_slot {
                Some(slot) => slot,
                None => {
                    let slot = self.new_slot();
                    self.color_slot = Some(slot);
                    slot
                }
            },
        };
        (Dst::Reg { slot, mask }, mask)
    }

    fn mark_written(&mut self, dst: Dst) {
        if let Dst::Reg { slot, mask } = dst {
            self.written[slot] |= mask;
        }
    }

    fn step(&mut self, inst: &Instruction) -> Step<'a> {
        match inst {
            Instruction::Alu { op, dst, srcs } => {
                let (lowered_dst, comps) = self.dst(dst.reg, dst.mask.0);
                let read = reads(*op, comps);
                let mut lowered = [[ZERO_SRC; 4]; 3];
                for (slot, src) in lowered.iter_mut().zip(srcs) {
                    *slot = self.src_comps(src.as_ref(), read);
                }
                self.mark_written(lowered_dst);
                Step::Alu {
                    op: *op,
                    dst: lowered_dst,
                    comps,
                    srcs: Box::new(lowered),
                }
            }
            Instruction::Tex { dst, coord, unit } => {
                let (lowered_dst, comps) = self.dst(dst.reg, dst.mask.0);
                let [x, y, _, _] = self.src_comps(Some(coord), 0b0011);
                let pixel_exact = self.draw.fb_size.0 <= PIXEL_EXACT_DIM
                    && self.draw.fb_size.1 <= PIXEL_EXACT_DIM;
                let px = Src {
                    col: Col::Reg {
                        slot: INPUT,
                        comp: 0,
                    },
                    sign: 0,
                };
                let py = Src {
                    col: Col::Reg {
                        slot: INPUT,
                        comp: 1,
                    },
                    sign: 0,
                };
                let coord = if pixel_exact && x == px && y == py {
                    TexCoord::Pixel
                } else {
                    TexCoord::Lanes([x, y])
                };
                self.mark_written(lowered_dst);
                Step::Tex {
                    dst: lowered_dst,
                    comps,
                    texture: self.draw.textures.get(*unit).copied().flatten(),
                    coord,
                }
            }
            Instruction::Kil { src } => {
                let mut distinct = Vec::with_capacity(4);
                for s in self.src_comps(Some(src), 0b1111) {
                    if !distinct.contains(&s) {
                        distinct.push(s);
                    }
                }
                Step::Kil { src: distinct }
            }
        }
    }
}

impl<'a> LoweredProgram<'a> {
    /// Lower `program` against one draw's constants.
    pub fn lower(program: &FragmentProgram, draw: &DrawConstants<'a>) -> LoweredProgram<'a> {
        let mut lowerer = Lowerer {
            program,
            draw,
            consts: vec![0.0],
            temp_slots: Vec::new(),
            written: vec![0b0011],
            color_slot: None,
            zero_init: Vec::new(),
            uses_px: false,
            uses_py: false,
        };
        let steps: Vec<Step<'a>> = program
            .instructions
            .iter()
            .map(|inst| lowerer.step(inst))
            .collect();
        // Color components no instruction writes keep the flat quad color.
        let mut color = [Col::Const(ZERO); 4];
        for (c, out) in color.iter_mut().enumerate() {
            *out = match lowerer.color_slot {
                Some(slot) if lowerer.written[slot] & (1 << c) != 0 => Col::Reg { slot, comp: c },
                _ => lowerer.constant(draw.draw_color[c]).col,
            };
        }
        LoweredProgram {
            has_kil: steps.iter().any(|s| matches!(s, Step::Kil { .. })),
            writes_depth: steps.iter().any(|s| {
                matches!(
                    s,
                    Step::Alu {
                        dst: Dst::Depth,
                        ..
                    } | Step::Tex {
                        dst: Dst::Depth,
                        ..
                    }
                )
            }),
            steps,
            consts: lowerer.consts,
            slots: lowerer.written.len(),
            zero_init: lowerer.zero_init,
            uses_px: lowerer.uses_px,
            uses_py: lowerer.uses_py,
            color,
        }
    }

    /// Working storage for running this program.
    pub fn lanes(&self) -> Lanes {
        Lanes {
            regs: vec![[[0.0; LANES]; 4]; self.slots],
            consts: self.consts.iter().map(|&v| [v; LANES]).collect(),
            ..Lanes::empty()
        }
    }

    /// Whether the program writes `result.depth`. Unless a lane was
    /// killed, [`Lanes::depth`] then holds its depth after a run.
    pub fn writes_depth(&self) -> bool {
        self.writes_depth
    }

    /// The output color columns after [`LoweredProgram::run`].
    pub fn color<'l>(&self, lanes: &'l Lanes) -> [&'l Column; 4] {
        self.color.map(|col| lanes.col(col))
    }

    /// Run the program over the `n` fragments `(x0..x0 + n, y)`.
    pub fn run(&self, lanes: &mut Lanes, x0: usize, y: usize, n: usize) {
        let n = n.min(LANES);
        if self.uses_px {
            for (l, v) in lanes.regs[INPUT][0][..n].iter_mut().enumerate() {
                *v = (x0 + l) as f32 + 0.5;
            }
        }
        if self.uses_py {
            lanes.regs[INPUT][1][..n].fill(y as f32 + 0.5);
        }
        for &(slot, comp) in &self.zero_init {
            lanes.regs[slot][comp][..n].fill(0.0);
        }
        if self.has_kil {
            lanes.killed[..n].fill(false);
        }
        for step in &self.steps {
            match step {
                Step::Alu {
                    op,
                    dst,
                    comps,
                    srcs,
                } => {
                    lanes.alu(*op, srcs, *comps, n);
                    lanes.store(*dst, broadcasts(*op), n);
                }
                Step::Tex {
                    dst,
                    comps,
                    texture,
                    coord,
                } => {
                    lanes.tex(*texture, *coord, *comps, x0, y, n);
                    lanes.store(*dst, false, n);
                }
                Step::Kil { src } => lanes.kil(src, n),
            }
        }
    }
}

/// Negate `x` when `sign` is [`SIGN`]: a sign-bit flip, exactly `-x`.
#[inline(always)]
fn neg(x: f32, sign: u32) -> f32 {
    f32::from_bits(x.to_bits() ^ sign)
}

/// `f32::floor`, bit for bit (the sign of a zero result, quieted NaNs),
/// without the libm call it compiles to on baseline x86-64, so span loops
/// vectorize.
#[inline(always)]
fn floor(x: f32) -> f32 {
    if x.abs() < 8_388_608.0 {
        // |x| < 2^23: truncation is exact; step down for negative
        // fractions. The result keeps the sign of `x` (`floor(-0.0)` is
        // -0.0, `floor(-0.5)` is -1).
        let t = x as i32 as f32;
        (if t > x { t - 1.0 } else { t }).copysign(x)
    } else {
        // Already integral, infinite or NaN: libm returns `x`, quieted.
        x + 0.0
    }
}

/// A column read together with its sign mask.
type Arg<'l> = (&'l Column, u32);

#[inline(always)]
fn map1(out: &mut Column, (a, sa): Arg<'_>, n: usize, f: impl Fn(f32) -> f32) {
    for (o, &x) in out[..n].iter_mut().zip(&a[..n]) {
        *o = f(neg(x, sa));
    }
}

#[inline(always)]
fn map2(
    out: &mut Column,
    (a, sa): Arg<'_>,
    (b, sb): Arg<'_>,
    n: usize,
    f: impl Fn(f32, f32) -> f32,
) {
    for ((o, &x), &y) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]) {
        *o = f(neg(x, sa), neg(y, sb));
    }
}

#[inline(always)]
fn map3(
    out: &mut Column,
    (a, sa): Arg<'_>,
    (b, sb): Arg<'_>,
    (c, sc): Arg<'_>,
    n: usize,
    f: impl Fn(f32, f32, f32) -> f32,
) {
    for (((o, &x), &y), &z) in out[..n].iter_mut().zip(&a[..n]).zip(&b[..n]).zip(&c[..n]) {
        *o = f(neg(x, sa), neg(y, sb), neg(z, sc));
    }
}

/// Read a column from the register file or the constant pool.
#[inline(always)]
fn column<'l>(regs: &'l [[Column; 4]], consts: &'l [Column], col: Col) -> &'l Column {
    match col {
        Col::Reg { slot, comp } => &regs[slot][comp],
        Col::Const(i) => &consts[i],
    }
}

impl Lanes {
    /// Storage for a draw without a program.
    pub fn empty() -> Lanes {
        Lanes {
            regs: Vec::new(),
            consts: Vec::new(),
            res: [[0.0; LANES]; 4],
            depth: [0.0; LANES],
            killed: [false; LANES],
        }
    }

    fn col(&self, col: Col) -> &Column {
        column(&self.regs, &self.consts, col)
    }

    /// Compute an ALU result into `res`: components `comps`, or the
    /// broadcast scalar into `res[0]`.
    fn alu(&mut self, op: Opcode, srcs: &[[Src; 4]; 3], comps: u8, n: usize) {
        let Lanes {
            regs, consts, res, ..
        } = self;
        let arg = |s: Src| -> Arg<'_> { (column(regs, consts, s.col), s.sign) };
        let [a, b, c] = srcs;
        match op {
            Opcode::Dp3 | Opcode::Dp4 => {
                // `((a0*b0 + a1*b1) + a2*b2) + a3*b3`, one product per pass:
                // the same left-associated sum as the interpreter's.
                let terms = if op == Opcode::Dp3 { 3 } else { 4 };
                let out = &mut res[0];
                map2(out, arg(a[0]), arg(b[0]), n, |x, y| x * y);
                for k in 1..terms {
                    let ((x, sx), (y, sy)) = (arg(a[k]), arg(b[k]));
                    for ((o, &p), &q) in out[..n].iter_mut().zip(&x[..n]).zip(&y[..n]) {
                        *o += neg(p, sx) * neg(q, sy);
                    }
                }
            }
            Opcode::Rcp => map1(&mut res[0], arg(a[0]), n, |x| 1.0 / x),
            Opcode::Rsq => map1(&mut res[0], arg(a[0]), n, |x| 1.0 / x.abs().sqrt()),
            Opcode::Ex2 => map1(&mut res[0], arg(a[0]), n, f32::exp2),
            Opcode::Lg2 => map1(&mut res[0], arg(a[0]), n, |x| x.abs().log2()),
            Opcode::Pow => map2(&mut res[0], arg(a[0]), arg(b[0]), n, f32::powf),
            _ => {
                for k in each(comps) {
                    let out = &mut res[k];
                    let (x, y, z) = (arg(a[k]), arg(b[k]), arg(c[k]));
                    match op {
                        Opcode::Mov => map1(out, x, n, |v| v),
                        Opcode::Add => map2(out, x, y, n, |p, q| p + q),
                        Opcode::Sub => map2(out, x, y, n, |p, q| p - q),
                        Opcode::Mul => map2(out, x, y, n, |p, q| p * q),
                        Opcode::Mad => map3(out, x, y, z, n, |p, q, r| p * q + r),
                        Opcode::Frc => map1(out, x, n, |v| v - floor(v)),
                        Opcode::Flr => map1(out, x, n, floor),
                        Opcode::Min => map2(out, x, y, n, f32::min),
                        Opcode::Max => map2(out, x, y, n, f32::max),
                        Opcode::Cmp => map3(out, x, y, z, n, |p, q, r| if p < 0.0 { q } else { r }),
                        Opcode::Slt => map2(out, x, y, n, |p, q| if p < q { 1.0 } else { 0.0 }),
                        Opcode::Sge => map2(out, x, y, n, |p, q| if p >= q { 1.0 } else { 0.0 }),
                        Opcode::Abs => map1(out, x, n, f32::abs),
                        // TEX and KIL are never ALU-encoded by the
                        // assembler; a hand-built one writes zeros.
                        _ => out[..n].fill(0.0),
                    }
                }
            }
        }
    }

    /// Sample `texture` into `res` (components `comps`) with
    /// nearest-neighbour filtering and clamp-to-edge addressing.
    fn tex(
        &mut self,
        texture: Option<&Texture>,
        coord: TexCoord,
        comps: u8,
        x0: usize,
        y: usize,
        n: usize,
    ) {
        let Lanes {
            regs, consts, res, ..
        } = self;
        let Some(t) = texture else {
            // Sampling an unbound unit returns opaque black, as GL.
            for c in each(comps) {
                res[c][..n].fill(if c == 3 { 1.0 } else { 0.0 });
            }
            return;
        };
        let (w, h, ch) = (t.width(), t.height(), t.format().channels());
        let data = t.data();
        for c in each(comps) {
            let out = &mut res[c][..n];
            if c >= ch {
                // Missing channels expand to 0, alpha to 1.
                out.fill(if c == 3 { 1.0 } else { 0.0 });
                continue;
            }
            match coord {
                TexCoord::Pixel => {
                    // Texels (x0.., y) are contiguous up to the texture's
                    // right edge; lanes past it clamp to the edge texel.
                    let row = y.min(h - 1) * w;
                    let inside = n.min(w.saturating_sub(x0));
                    if inside > 0 {
                        let texels = &data[(row + x0) * ch..(row + x0 + inside) * ch];
                        for (o, texel) in out[..inside].iter_mut().zip(texels.chunks_exact(ch)) {
                            *o = texel[c];
                        }
                    }
                    out[inside..].fill(data[(row + w - 1) * ch + c]);
                }
                TexCoord::Lanes([sx, sy]) => {
                    let (cx, cy) = (column(regs, consts, sx.col), column(regs, consts, sy.col));
                    for (l, o) in out.iter_mut().enumerate() {
                        let tx = (floor(neg(cx[l], sx.sign)).max(0.0) as usize).min(w - 1);
                        let ty = (floor(neg(cy[l], sy.sign)).max(0.0) as usize).min(h - 1);
                        *o = data[(ty * w + tx) * ch + c];
                    }
                }
            }
        }
    }

    fn kil(&mut self, src: &[Src], n: usize) {
        let Lanes {
            regs,
            consts,
            killed,
            ..
        } = self;
        for s in src {
            let col = column(regs, consts, s.col);
            for (k, &v) in killed[..n].iter_mut().zip(&col[..n]) {
                *k |= neg(v, s.sign) < 0.0;
            }
        }
    }

    /// Copy the computed result into the destination.
    fn store(&mut self, dst: Dst, broadcast: bool, n: usize) {
        let Lanes {
            regs, res, depth, ..
        } = self;
        match dst {
            Dst::Reg { slot, mask } => {
                for c in each(mask) {
                    let from = if broadcast { 0 } else { c };
                    regs[slot][c][..n].copy_from_slice(&res[from][..n]);
                }
            }
            Dst::Depth => {
                let from = if broadcast { 0 } else { 2 };
                depth[..n].copy_from_slice(&res[from][..n]);
            }
        }
    }
}
