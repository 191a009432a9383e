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
//! The lowered program is then rewritten for the draw:
//!
//! * liveness: walking back from what the draw reads — the color channels
//!   it writes, alpha under the alpha test, the last depth written, and
//!   every `KIL` operand — instructions whose results nothing reads are
//!   dropped and the rest narrowed to the components read (semi-linear's
//!   `MOV result.color, R0` goes under a `NONE` color mask);
//! * a trailing `MOV result.depth, Rn.c` folds into the instruction just
//!   before it when that computes `Rn.c`: it writes the depth directly;
//! * `TEX t, pixel; DP4 d, t, k` with `t` read whole, unswizzled and
//!   unnegated, `k` constant, and `t` dead after the `DP4`, becomes one
//!   texel-dot step reading the interleaved texels directly. The
//!   copy-to-depth program lowers to a texel dot and a `MUL` into the
//!   depth, which [`LoweredProgram::depth_copy`] hands to the span kernel
//!   as one loop from texels to stored depth ([`DepthCopy`]).
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
//! * The texel dot sums `((t0*k0 + t1*k1) + t2*k2) + t3*k3`, the `DP4`'s
//!   order, over the texel values `TEX` would return.
//! * Lanes killed by `KIL` keep computing; the caller must ignore their
//!   depth and color, and color channels the draw does not read.

use super::isa::{DstReg, FragmentProgram, Instruction, Opcode, SrcOperand, SrcReg};
use crate::buffers::quantize_depth_f32;
use crate::texture::Texture;
use std::sync::Arc;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dst {
    /// Register slot (a temp or the result color) under a write mask.
    Reg { slot: usize, mask: u8 },
    /// `result.depth`, taken from component `comp` of the result: z for a
    /// `result.depth` destination (whatever its mask), or the component a
    /// forwarded `MOV result.depth` read.
    Depth { comp: usize },
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
enum Step {
    Alu {
        op: Opcode,
        dst: Dst,
        /// Components computed: the write mask, or the depth component.
        comps: u8,
        /// Per source, per result component.
        srcs: Box<[[Src; 4]; 3]>,
    },
    Tex {
        dst: Dst,
        comps: u8,
        texture: Option<Arc<Texture>>,
        coord: TexCoord,
    },
    Kil {
        /// The distinct source components tested.
        src: Vec<Src>,
    },
    /// `TEX t, pixel; DP4 dst, t, k` with `t` dead after the `DP4`: the dot
    /// of each lane's texel with the constants `k`, broadcast to `dst`.
    TexDot {
        dst: Dst,
        texture: Option<Arc<Texture>>,
        k: [f32; 4],
    },
}

impl Step {
    /// The step's destination, if it writes one.
    fn dst(&self) -> Option<Dst> {
        match self {
            Step::Alu { dst, .. } | Step::Tex { dst, .. } | Step::TexDot { dst, .. } => Some(*dst),
            Step::Kil { .. } => None,
        }
    }

    /// Visit every source component the step reads.
    fn for_each_read(&self, mut f: impl FnMut(Src)) {
        match self {
            Step::Alu {
                op, comps, srcs, ..
            } => {
                for src in srcs.iter() {
                    each(reads(*op, *comps)).for_each(|c| f(src[c]));
                }
            }
            Step::Tex {
                coord: TexCoord::Lanes(xy),
                ..
            } => xy.iter().copied().for_each(f),
            Step::Kil { src } => src.iter().copied().for_each(f),
            Step::Tex { .. } | Step::TexDot { .. } => {}
        }
    }
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
/// quad depth, flat color and color reads.
#[derive(Debug)]
pub(crate) struct LoweredProgram {
    steps: Vec<Step>,
    consts: Vec<f32>,
    slots: usize,
    /// Temp components read before any write: zeroed per span.
    zero_init: Vec<(usize, usize)>,
    uses_px: bool,
    uses_py: bool,
    has_kil: bool,
    writes_depth: bool,
    depth_forwarded: bool,
    /// Final output color per component (never negated).
    color: [Col; 4],
}

/// Per-draw values a lowered program folds into constants.
pub(crate) struct DrawConstants<'a> {
    /// Bound textures, by unit.
    pub textures: &'a [Option<Arc<Texture>>],
    /// `program.env` values.
    pub env: &'a [[f32; 4]],
    /// The quad depth (`fragment.position.z`).
    pub quad_depth: f32,
    /// The flat primary color (`fragment.color`).
    pub draw_color: [f32; 4],
    /// Framebuffer width and height.
    pub fb_size: (usize, usize),
    /// The `result.color` components the draw reads (a 4-bit mask): those
    /// it writes to the framebuffer, and alpha under the alpha test.
    pub color_reads: u8,
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
    slots: usize,
    color_slot: Option<usize>,
}

impl<'a> Lowerer<'a, '_> {
    fn new_slot(&mut self) -> usize {
        self.slots += 1;
        self.slots - 1
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
                return Src {
                    col: Col::Reg {
                        slot: self.temp_slot(i),
                        comp: raw,
                    },
                    sign,
                };
            }
            SrcReg::TexCoord(_) | SrcReg::Position if raw < 2 => {
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
            DstReg::ResultDepth => return (Dst::Depth { comp: 2 }, 0b0100),
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

    fn step(&mut self, inst: &Instruction) -> Step {
        match inst {
            Instruction::Alu { op, dst, srcs } => {
                let (lowered_dst, comps) = self.dst(dst.reg, dst.mask.0);
                let read = reads(*op, comps);
                let mut lowered = [[ZERO_SRC; 4]; 3];
                for (slot, src) in lowered.iter_mut().zip(srcs) {
                    *slot = self.src_comps(src.as_ref(), read);
                }
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
                let pixel = |comp| Src {
                    col: Col::Reg { slot: INPUT, comp },
                    sign: 0,
                };
                let coord = if pixel_exact && x == pixel(0) && y == pixel(1) {
                    TexCoord::Pixel
                } else {
                    TexCoord::Lanes([x, y])
                };
                Step::Tex {
                    dst: lowered_dst,
                    comps,
                    texture: self.draw.textures.get(*unit).cloned().flatten(),
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

/// Fold a trailing `MOV result.depth, Rn.c` into the step before it when
/// that step computes `Rn.c`: it then writes component `c` of its result
/// to the depth instead. `Rn` is a temp (sources never read the result
/// color), so nothing reads it after the last instruction. Returns whether
/// it folded.
fn forward_depth(steps: &mut Vec<Step>) -> bool {
    let [.., prev, Step::Alu {
        op: Opcode::Mov,
        dst: Dst::Depth { .. },
        srcs,
        ..
    }] = steps.as_mut_slice()
    else {
        return false;
    };
    let Src {
        col: Col::Reg { slot, comp },
        sign: 0,
    } = srcs[0][2]
    else {
        return false;
    };
    let (Step::Alu { dst, comps, .. } | Step::Tex { dst, comps, .. }) = prev else {
        return false;
    };
    match *dst {
        Dst::Reg { slot: s, mask } if s == slot && mask & (1 << comp) != 0 => {
            *dst = Dst::Depth { comp };
            *comps = 1 << comp;
            steps.pop();
            true
        }
        _ => false,
    }
}

/// `TEX t, pixel; DP4 dst, t, k` as one [`Step::TexDot`], when the `DP4`
/// reads the whole texel unswizzled and unnegated, `k` is constant, and
/// nothing reads `t` after the `DP4` (`live`: per slot, the components
/// read later, less those the `DP4` rewrites).
fn fuse(tex: &Step, dp4: &Step, consts: &[f32], live: &[u8]) -> Option<Step> {
    let Step::Tex {
        dst: Dst::Reg {
            slot: t,
            mask: 0b1111,
        },
        coord: TexCoord::Pixel,
        texture,
        ..
    } = tex
    else {
        return None;
    };
    let t = *t;
    let Step::Alu {
        op: Opcode::Dp4,
        dst,
        srcs,
        ..
    } = dp4
    else {
        return None;
    };
    let texel = (0..4).all(|comp| {
        srcs[0][comp]
            == Src {
                col: Col::Reg { slot: t, comp },
                sign: 0,
            }
    });
    let mut k = [0.0; 4];
    for (k, src) in k.iter_mut().zip(&srcs[1]) {
        let Col::Const(i) = src.col else {
            return None;
        };
        // Constants carry their negation folded in.
        *k = consts[i];
    }
    (texel && live[t] == 0).then(|| Step::TexDot {
        dst: *dst,
        texture: texture.clone(),
        k,
    })
}

/// Narrow a destination to the components read after it (`live`, then
/// updated to before it) and return whether any is. Only the last depth
/// write is read.
fn narrow(dst: &mut Dst, live: &mut [u8], depth_live: &mut bool) -> bool {
    match dst {
        Dst::Depth { .. } => std::mem::replace(depth_live, false),
        Dst::Reg { slot, mask } => {
            let read = *mask & live[*slot];
            live[*slot] &= !*mask;
            *mask = read;
            read != 0
        }
    }
}

/// Liveness: walking back from the outputs the draw reads (`color_reads`
/// of the result color, the last depth written) and the `KIL`s, drop the
/// steps whose results nothing reads, narrow the rest to the components
/// read, and fuse `TEX; DP4` pairs ([`fuse`]).
fn prune(
    mut steps: Vec<Step>,
    slots: usize,
    color: Option<(usize, u8)>,
    consts: &[f32],
) -> Vec<Step> {
    // Per slot, the components some later step or output reads.
    let mut live = vec![0u8; slots];
    if let Some((slot, reads)) = color {
        live[slot] = reads;
    }
    let mut depth_live = true;
    let mut kept = Vec::with_capacity(steps.len());
    while let Some(mut step) = steps.pop() {
        let keep = match &mut step {
            Step::Kil { .. } => true,
            Step::Alu { dst, comps, .. } | Step::Tex { dst, comps, .. } => {
                let keep = narrow(dst, &mut live, &mut depth_live);
                if let Dst::Reg { mask, .. } = dst {
                    *comps = *mask;
                }
                keep
            }
            Step::TexDot { dst, .. } => narrow(dst, &mut live, &mut depth_live),
        };
        if !keep {
            continue;
        }
        if let Some(fused) = steps.last().and_then(|tex| fuse(tex, &step, consts, &live)) {
            // The `TEX` result dies here: `live` already holds none of it.
            steps.pop();
            step = fused;
        }
        step.for_each_read(|src| {
            if let Col::Reg { slot, comp } = src.col {
                live[slot] |= 1 << comp;
            }
        });
        kept.push(step);
    }
    kept.reverse();
    kept
}

impl LoweredProgram {
    /// Lower `program` against one draw's constants.
    pub fn lower(program: &FragmentProgram, draw: &DrawConstants<'_>) -> LoweredProgram {
        let mut lowerer = Lowerer {
            program,
            draw,
            consts: vec![0.0],
            temp_slots: Vec::new(),
            slots: INPUT + 1,
            color_slot: None,
        };
        let mut steps: Vec<Step> = program
            .instructions
            .iter()
            .map(|inst| lowerer.step(inst))
            .collect();
        let depth_forwarded = forward_depth(&mut steps);
        let color_slot = lowerer.color_slot;
        let steps = prune(
            steps,
            lowerer.slots,
            color_slot.map(|slot| (slot, draw.color_reads)),
            &lowerer.consts,
        );

        // Temp components read before any write start at 0, as in the
        // interpreter's zeroed register file; the pixel centre is filled
        // only where read.
        let mut written = vec![0u8; lowerer.slots];
        let mut zero_init = Vec::new();
        let mut uses = [false; 2];
        for step in &steps {
            step.for_each_read(|src| match src.col {
                Col::Reg { slot: INPUT, comp } => uses[comp] = true,
                Col::Reg { slot, comp } => {
                    if written[slot] & (1 << comp) == 0 && !zero_init.contains(&(slot, comp)) {
                        zero_init.push((slot, comp));
                    }
                }
                Col::Const(_) => {}
            });
            if let Some(Dst::Reg { slot, mask }) = step.dst() {
                written[slot] |= mask;
            }
        }
        // Color components no instruction writes keep the flat quad color.
        let mut color = [Col::Const(ZERO); 4];
        for (c, out) in color.iter_mut().enumerate() {
            *out = match color_slot {
                Some(slot) if written[slot] & (1 << c) != 0 => Col::Reg { slot, comp: c },
                _ => lowerer.constant(draw.draw_color[c]).col,
            };
        }
        LoweredProgram {
            has_kil: steps.iter().any(|s| matches!(s, Step::Kil { .. })),
            writes_depth: steps
                .iter()
                .any(|s| matches!(s.dst(), Some(Dst::Depth { .. }))),
            depth_forwarded,
            steps,
            consts: lowerer.consts,
            slots: lowerer.slots,
            zero_init,
            uses_px: uses[0],
            uses_py: uses[1],
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

    /// How many `TEX; DP4` pairs were fused into texel-dot steps.
    pub fn texel_dots(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::TexDot { .. }))
            .count()
    }

    /// Whether a trailing `MOV result.depth` was folded into its producer.
    pub fn depth_forwarded(&self) -> bool {
        self.depth_forwarded
    }

    /// The program as a [`DepthCopy`], when it lowered to exactly a texel
    /// dot of a bound four-channel texture and a `MUL` of that dot by a
    /// constant into the depth. Only RGBA, the layout of every full
    /// four-column group a table uploads, takes the one loop, so it is
    /// compiled once; narrower textures keep the general path.
    pub fn depth_copy(&self) -> Option<DepthCopy> {
        let [Step::TexDot {
            dst: Dst::Reg { slot, mask },
            texture: Some(texture),
            k,
        }, Step::Alu {
            op: Opcode::Mul,
            dst: Dst::Depth { comp },
            srcs,
            ..
        }] = self.steps.as_slice()
        else {
            return None;
        };
        let Src {
            col:
                Col::Reg {
                    slot: dot_slot,
                    comp: dot_comp,
                },
            sign: 0,
        } = srcs[0][*comp]
        else {
            return None;
        };
        let Src {
            col: Col::Const(scale),
            sign: 0,
        } = srcs[1][*comp]
        else {
            return None;
        };
        let reads_dot = dot_slot == *slot && mask & (1 << dot_comp) != 0;
        (reads_dot && texture.format().channels() == 4).then(|| DepthCopy {
            texture: Arc::clone(texture),
            k: *k,
            scale: self.consts[scale],
        })
    }

    /// The output color columns after [`LoweredProgram::run`]. Components
    /// the draw does not read may hold stale values.
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
                    lanes.tex(texture.as_deref(), *coord, *comps, x0, y, n);
                    lanes.store(*dst, false, n);
                }
                Step::Kil { src } => lanes.kil(src, n),
                Step::TexDot { dst, texture, k } => {
                    lanes.tex_dot(texture.as_deref(), *k, x0, y, n);
                    lanes.store(*dst, true, n);
                }
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

/// `DP4` of a texel with constants: `((t0*k0 + t1*k1) + t2*k2) + t3*k3`,
/// the interpreter's left-associated sum.
#[inline(always)]
fn dot(t: [f32; 4], k: [f32; 4]) -> f32 {
    t[0] * k[0] + t[1] * k[1] + t[2] * k[2] + t[3] * k[3]
}

/// `f` of each texel `(x0 + l, y)` of a texture of `CH` channels into
/// `out[l]`: lanes past the right edge read the edge texel, rows past the
/// bottom the last row, and missing channels expand to 0 (alpha to 1), as
/// [`Texture::fetch`].
#[inline(always)]
fn map_texels<const CH: usize, T: Copy>(
    out: &mut [T],
    t: &Texture,
    x0: usize,
    y: usize,
    f: impl Fn([f32; 4]) -> T,
) {
    let (w, h, data) = (t.width(), t.height(), t.data());
    let texel = |i: usize| {
        let mut v = [0.0, 0.0, 0.0, 1.0];
        v[..CH].copy_from_slice(&data[i * CH..(i + 1) * CH]);
        v
    };
    let row = y.min(h - 1) * w;
    let inside = out.len().min(w.saturating_sub(x0));
    if inside > 0 {
        let texels = &data[(row + x0) * CH..(row + x0 + inside) * CH];
        for (o, i) in out[..inside].iter_mut().zip(texels.chunks_exact(CH)) {
            let mut v = [0.0, 0.0, 0.0, 1.0];
            v[..CH].copy_from_slice(i);
            *o = f(v);
        }
    }
    out[inside..].fill(f(texel(row + w - 1)));
}

/// The copy-to-depth program as it lowers for a draw: one texel dot of a
/// bound RGBA texture, scaled into the depth (`TEXDOT r, k; MUL depth, r,
/// c`). [`DepthCopy::run`] computes each fragment's stored depth in one
/// loop, with no span registers.
#[derive(Debug)]
pub(crate) struct DepthCopy {
    texture: Arc<Texture>,
    k: [f32; 4],
    scale: f32,
}

impl DepthCopy {
    /// Write the quantized depth of each fragment `(x0 + l, y)` to
    /// `depth[l]`: the texel dot then the scale, in the program's order.
    pub fn run(&self, depth: &mut [u32], x0: usize, y: usize) {
        let (k, scale) = (self.k, self.scale);
        map_texels::<4, _>(depth, &self.texture, x0, y, |v| {
            quantize_depth_f32(dot(v, k) * scale)
        });
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

    /// The dot product of each lane's texel `(x0 + l, y)` with `k` into
    /// `res[0]`: a pixel-coordinate `TEX` and a `DP4` with constants, read
    /// straight from the interleaved texels, in the `DP4`'s order.
    fn tex_dot(&mut self, texture: Option<&Texture>, k: [f32; 4], x0: usize, y: usize, n: usize) {
        let out = &mut self.res[0][..n];
        let Some(t) = texture else {
            out.fill(dot([0.0, 0.0, 0.0, 1.0], k));
            return;
        };
        match t.format().channels() {
            1 => map_texels::<1, _>(out, t, x0, y, |v| dot(v, k)),
            2 => map_texels::<2, _>(out, t, x0, y, |v| dot(v, k)),
            3 => map_texels::<3, _>(out, t, x0, y, |v| dot(v, k)),
            _ => map_texels::<4, _>(out, t, x0, y, |v| dot(v, k)),
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
            Dst::Depth { comp } => {
                let from = if broadcast { 0 } else { comp };
                depth[..n].copy_from_slice(&res[from][..n]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{assemble, builtin};
    use crate::state::CompareFunc;
    use crate::texture::TextureFormat;

    fn lower_with(
        program: &FragmentProgram,
        textures: &[Option<Arc<Texture>>],
        env: &[[f32; 4]],
        color_reads: u8,
    ) -> LoweredProgram {
        LoweredProgram::lower(
            program,
            &DrawConstants {
                textures,
                env,
                quad_depth: 0.5,
                draw_color: [1.0; 4],
                fb_size: (8, 8),
                color_reads,
            },
        )
    }

    /// The lowered steps by kind: `TEX`, `TEXDOT`, `KIL` or the opcode.
    fn kinds(program: &LoweredProgram) -> Vec<String> {
        program
            .steps
            .iter()
            .map(|s| match s {
                Step::Alu { op, .. } => format!("{op:?}"),
                Step::Tex { .. } => "TEX".into(),
                Step::Kil { .. } => "KIL".into(),
                Step::TexDot { .. } => "TEXDOT".into(),
            })
            .collect()
    }

    fn with_texture(f: impl FnOnce(&[Option<Arc<Texture>>], &[[f32; 4]])) {
        let texture = Texture::from_data(8, 8, TextureFormat::Rgba, vec![0.5; 256]).unwrap();
        let env = [[0.25, -1.0, 2.0, 0.5]; 8];
        f(&[Some(Arc::new(texture))], &env);
    }

    #[test]
    fn liveness_drops_what_no_output_reads() {
        with_texture(|textures, env| {
            // Semilinear under a `NONE` color mask: `MOV result.color, R0`
            // is dead, so R0 dies at the `DP4` and the pair fuses.
            let semilinear = builtin::semilinear(CompareFunc::GreaterEqual);
            let colorless = lower_with(&semilinear, textures, env, 0);
            assert_eq!(kinds(&colorless), ["TEXDOT", "Sub", "Sge", "Sub", "KIL"]);
            // Written colors keep the `MOV`, and R0 stays live past the `DP4`.
            let colored = lower_with(&semilinear, textures, env, 0b0111);
            assert_eq!(
                kinds(&colored),
                ["TEX", "Dp4", "Sub", "Sge", "Sub", "KIL", "Mov"]
            );
            let Step::Alu { comps, .. } = colored.steps[6] else {
                panic!("{:?}", colored.steps[6]);
            };
            assert_eq!(comps, 0b0111, "narrowed to the written channels");

            // The alpha test reads alpha; `KIL` reads its operand.
            let program = assemble(
                "!!ARBfp1.0
                 TEX R0, fragment.texcoord[0], texture[0], 2D;
                 MUL R1, R0, program.env[0];
                 ADD R2.x, R0.y, 1.0;
                 KIL R2.x;
                 MOV result.color, R1;
                 END",
            )
            .unwrap();
            let alpha = lower_with(&program, textures, env, 0b1000);
            assert_eq!(kinds(&alpha), ["TEX", "Mul", "Add", "KIL", "Mov"]);
            let Step::Alu { comps, .. } = alpha.steps[1] else {
                panic!("{:?}", alpha.steps[1]);
            };
            assert_eq!(comps, 0b1000, "only alpha of R1 is read");
            let Step::Tex { comps, .. } = alpha.steps[0] else {
                panic!("{:?}", alpha.steps[0]);
            };
            assert_eq!(comps, 0b1010, "R0.w for the color, R0.y for KIL");
            let nothing = lower_with(&program, textures, env, 0);
            assert_eq!(kinds(&nothing), ["TEX", "Add", "KIL"]);
        });
    }

    #[test]
    fn copy_to_depth_fuses_and_forwards() {
        with_texture(|textures, env| {
            let copy = lower_with(&builtin::copy_to_depth(), textures, env, 0);
            assert_eq!(kinds(&copy), ["TEXDOT", "Mul"]);
            assert_eq!(copy.texel_dots(), 1);
            assert!(copy.depth_forwarded() && copy.writes_depth());
            let Step::Alu { dst, comps, .. } = copy.steps[1] else {
                panic!("{:?}", copy.steps[1]);
            };
            assert_eq!((dst, comps), (Dst::Depth { comp: 0 }, 0b0001));
            // Nothing reads the pixel centre or a temp before writing it.
            assert!(!copy.uses_px && !copy.uses_py && copy.zero_init.is_empty());
        });
    }

    #[test]
    fn depth_forwarding_needs_the_adjacent_producer() {
        with_texture(|textures, env| {
            let forwarded = |body: &str| {
                let source = format!("!!ARBfp1.0\n{body}\nEND");
                let program = assemble(&source).unwrap();
                lower_with(&program, textures, env, 0).depth_forwarded()
            };
            assert!(forwarded(
                "MUL R1, fragment.position, 2.0; MOV result.depth, R1.y;"
            ));
            // `R1.y` was written before the instruction ahead of the `MOV`.
            assert!(!forwarded(
                "MOV R1, fragment.position; MUL R1.x, R1.y, 2.0; MOV result.depth, R1.y;"
            ));
            // Negated, not last, or not adjacent.
            assert!(!forwarded(
                "MUL R1, fragment.position, 2.0; MOV result.depth, -R1.y;"
            ));
            assert!(!forwarded(
                "MUL R1, fragment.position, 2.0; MOV result.depth, R1.y; MOV result.color, R1;"
            ));
            assert!(!forwarded(
                "MUL R1, fragment.position, 2.0; ADD R2, R1, 1.0; MOV result.depth, R1.y;"
            ));
        });
    }

    #[test]
    fn fusion_needs_a_whole_dead_constant_texel_dot() {
        with_texture(|textures, env| {
            let fused = |body: &str| {
                let source = format!(
                    "!!ARBfp1.0
                     TEX R0, fragment.texcoord[0], texture[0], 2D;
                     {body}
                     MOV result.depth, R1.x;
                     END"
                );
                lower_with(&assemble(&source).unwrap(), textures, env, 0).texel_dots()
            };
            assert_eq!(fused("DP4 R1.x, R0, program.env[1];"), 1);
            assert_eq!(fused("DP4 R1.x, R0, -program.env[1].wzyx;"), 1);
            // The texel overwritten by the dot itself is dead too.
            assert_eq!(fused("DP4 R0.x, R0, program.env[1]; MOV R1.x, R0.x;"), 1);
            // Swizzled, negated, or read again afterwards: no fusion.
            assert_eq!(fused("DP4 R1.x, R0.wzyx, program.env[1];"), 0);
            assert_eq!(fused("DP4 R1.x, R0.xyzx, program.env[1];"), 0);
            assert_eq!(fused("DP4 R1.x, -R0, program.env[1];"), 0);
            assert_eq!(
                fused("DP4 R1.x, R0, program.env[1]; ADD R1.x, R1.x, R0.y;"),
                0
            );
            assert_eq!(
                fused("DP4 R0.x, R0, program.env[1]; ADD R1.x, R0.x, R0.y;"),
                0
            );
            // A non-constant second operand.
            assert_eq!(fused("DP4 R1.x, R0, fragment.texcoord[0];"), 0);
        });
    }
}
