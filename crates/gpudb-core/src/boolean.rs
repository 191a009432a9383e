//! Boolean combinations of predicates — the paper's `EvalCNF`
//! (Routine 4.3).
//!
//! A CNF `A1 ∧ A2 ∧ ... ∧ Ak` with clauses `Ai = B1 ∨ ... ∨ Bmi` is
//! evaluated with three stencil values {0, 1, 2}: 0 marks invalidated
//! records, and the "valid" marker alternates between 1 (before odd
//! clauses) and 2 (before even clauses). Within clause `i`, every true
//! disjunct promotes still-valid records to the other marker
//! (`INCR`/`DECR`); a cleanup pass then zeroes records left at the old
//! marker (they satisfied no disjunct).
//!
//! Each protocol has one body. Its `fuse` flag decides two things inside
//! it: whether the first predicate pass establishes the stencil (in place
//! of the opening clear), and whether a `Compare` depth copy is skipped
//! when the depth buffer already holds the column. With `fuse == false`
//! the routines issue the paper's literal passes.

use crate::error::{EngineError, EngineResult};
use crate::predicate::{comparison_pass, copy_to_depth, OcclusionMode};
use crate::selection::{Selection, SELECTED};
use crate::table::GpuTable;
use gpudb_sim::state::ColorMask;
use gpudb_sim::{CompareFunc, Gpu, Phase, StencilOp};

/// A simple predicate `column op constant` for GPU evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuPredicate {
    /// Column index within the table.
    pub column: usize,
    /// Comparison operator.
    pub op: CompareFunc,
    /// Constant operand (≤ 24 bits).
    pub constant: u32,
}

impl GpuPredicate {
    /// Construct a predicate.
    pub fn new(column: usize, op: CompareFunc, constant: u32) -> GpuPredicate {
        GpuPredicate {
            column,
            op,
            constant,
        }
    }

    /// Eliminate a logical NOT by inverting the operator (§4.2: "If a
    /// simple predicate in this expression has a NOT operator, we can
    /// invert the comparison operation and eliminate the NOT operator").
    pub fn negated(self) -> GpuPredicate {
        GpuPredicate {
            op: self.op.negate(),
            ..self
        }
    }
}

/// A disjunction of simple predicates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GpuClause {
    /// The OR-ed predicates.
    pub predicates: Vec<GpuPredicate>,
}

impl GpuClause {
    /// A single-predicate clause.
    pub fn single(p: GpuPredicate) -> GpuClause {
        GpuClause {
            predicates: vec![p],
        }
    }

    /// A clause OR-ing several predicates.
    pub fn any(predicates: Vec<GpuPredicate>) -> GpuClause {
        GpuClause { predicates }
    }
}

/// A conjunction of clauses.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GpuCnf {
    /// The AND-ed clauses.
    pub clauses: Vec<GpuClause>,
}

impl GpuCnf {
    /// The empty conjunction — TRUE, selecting every record (`C0` in the
    /// paper's recursion).
    pub fn always_true() -> GpuCnf {
        GpuCnf::default()
    }

    /// Build a CNF from clauses.
    pub fn new(clauses: Vec<GpuClause>) -> GpuCnf {
        GpuCnf { clauses }
    }

    /// A pure conjunction of simple predicates — the multi-attribute query
    /// of the paper's Figure 5.
    pub fn all_of(predicates: Vec<GpuPredicate>) -> GpuCnf {
        GpuCnf {
            clauses: predicates.into_iter().map(GpuClause::single).collect(),
        }
    }

    /// Number of simple predicates across all clauses.
    pub fn predicate_count(&self) -> usize {
        self.clauses.iter().map(|c| c.predicates.len()).sum()
    }

    /// Validate all column references against a table.
    fn validate(&self, table: &GpuTable) -> EngineResult<()> {
        for clause in &self.clauses {
            for p in &clause.predicates {
                if p.column >= table.column_count() {
                    return Err(EngineError::ColumnIndexOutOfRange(p.column));
                }
            }
        }
        Ok(())
    }
}

/// Evaluate a CNF over a table, materializing the result as a
/// [`Selection`] that carries the matching-record count.
///
/// Dispatches to the one-pass-per-predicate conjunction fast path when
/// every clause is a single predicate (the multi-attribute AND shape of
/// Figure 5); general CNFs run the full Routine 4.3 protocol. With `fuse`
/// set, both protocols run **pass-fused**: adjacent predicates over the
/// same column share one `Compare` depth copy, and the opening stencil
/// clear is folded into the first predicate pass where the protocol
/// allows it. Fusion only removes passes: the selection and count are
/// bit-identical to the literal protocols (`fuse == false`).
pub fn eval_cnf_select(
    gpu: &mut Gpu,
    table: &GpuTable,
    cnf: &GpuCnf,
    fuse: bool,
) -> EngineResult<Selection> {
    if !cnf.clauses.is_empty() && cnf.clauses.iter().all(|c| c.predicates.len() == 1) {
        let predicates: Vec<GpuPredicate> = cnf.clauses.iter().map(|c| c.predicates[0]).collect();
        return eval_conjunction_select(gpu, table, &predicates, fuse);
    }
    eval_cnf_general_select(gpu, table, cnf, fuse)
}

/// Copy `column` into the depth buffer for a `Compare` pass, unless
/// fusion is on and the depth buffer already holds it: comparison and
/// cleanup passes never write depth, so the last copied column (`held`)
/// survives until the next copy.
fn depth_holds(
    gpu: &mut Gpu,
    table: &GpuTable,
    held: &mut Option<usize>,
    fuse: bool,
    column: usize,
) -> EngineResult<()> {
    if !fuse || *held != Some(column) {
        copy_to_depth(gpu, table, column)?;
        *held = Some(column);
    }
    Ok(())
}

/// Fast path for pure conjunctions `B1 ∧ B2 ∧ ... ∧ Bk` of simple
/// predicates: one comparison pass per predicate, zeroing the stencil of
/// failing records via the `op_zfail` stencil operation. This is the
/// one-pass-per-attribute cost profile behind Figure 5's compute-only
/// factor.
///
/// The literal protocol clears the stencil to [`SELECTED`] first. With
/// `fuse` set, the first predicate instead runs as an *establishing
/// pass* (stencil test `Always` with reference [`SELECTED`], `REPLACE`
/// on depth-pass, `ZERO` on depth-fail), which gives every record a
/// definite value without the clear, and adjacent predicates over one
/// column share a depth copy.
pub fn eval_conjunction_select(
    gpu: &mut Gpu,
    table: &GpuTable,
    predicates: &[GpuPredicate],
    fuse: bool,
) -> EngineResult<Selection> {
    for p in predicates {
        if p.column >= table.column_count() {
            return Err(EngineError::ColumnIndexOutOfRange(p.column));
        }
    }
    // An empty conjunction has no pass to establish the stencil: it keeps
    // the clear (and selects everything).
    let establish = fuse && !predicates.is_empty();
    gpu.set_phase(Phase::Compute);
    gpu.reset_state();
    if !establish {
        gpu.clear_stencil(SELECTED);
    }
    let mut held = None;
    for (i, p) in predicates.iter().enumerate() {
        depth_holds(gpu, table, &mut held, fuse, p.column)?;
        gpu.set_phase(Phase::Compute);
        if establish && i == 0 {
            // Establishing pass: depth-pass → SELECTED, depth-fail → 0.
            gpu.set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
            gpu.set_stencil_op(StencilOp::Keep, StencilOp::Zero, StencilOp::Replace);
        } else {
            // Fragment fails the predicate's depth test → zero its stencil.
            gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
            gpu.set_stencil_op(StencilOp::Keep, StencilOp::Zero, StencilOp::Keep);
        }
        comparison_pass(gpu, table, p.op, p.constant, OcclusionMode::None)?;
    }
    // Count the survivors (asynchronously, §5.11).
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
    gpu.begin_occlusion_query()?;
    gpu.draw_quad(table.rects(), 0.0)?;
    let count = gpu.end_occlusion_query_async()?;
    gpu.reset_state();
    Ok(Selection::over_table(table, count))
}

/// The paper's full `EvalCNF` (Routine 4.3), without the conjunction fast
/// path — exposed separately so the ablation benchmarks can compare the
/// two protocols.
///
/// With `fuse` set, the opening `ClearStencil(1)` collapses into the
/// first clause's comparison pass **only when that clause is a single
/// predicate**: the establishing pass writes 2 on depth-pass and 0 on
/// depth-fail, exactly the post-cleanup state of clause 1, so the
/// clause-1 cleanup pass is dropped too. A multi-disjunct first clause
/// keeps the clear: no single stencil op can OR a disjunct into an
/// unwritten buffer. Adjacent disjuncts over one column share a depth
/// copy, across clause boundaries too.
pub fn eval_cnf_general_select(
    gpu: &mut Gpu,
    table: &GpuTable,
    cnf: &GpuCnf,
    fuse: bool,
) -> EngineResult<Selection> {
    cnf.validate(table)?;
    if cnf.clauses.is_empty() {
        return Selection::select_all(gpu, table);
    }

    let establish = fuse && cnf.clauses[0].predicates.len() == 1;
    gpu.set_phase(Phase::Compute);
    gpu.reset_state();
    if !establish {
        // Routine 4.3 line 1: Clear Stencil to 1.
        gpu.clear_stencil(1);
    }

    let mut held = None;
    for (index, clause) in cnf.clauses.iter().enumerate() {
        let i = index + 1; // the paper's 1-based clause counter
        let (valid, promote_op) = if i % 2 == 1 {
            (1u8, StencilOp::Incr) // lines 4-6: valid == 1, INCR on pass
        } else {
            (2u8, StencilOp::Decr) // lines 7-9: valid == 2, DECR on pass
        };
        let established = establish && index == 0;

        // Lines 11-14: evaluate each disjunct with Compare. The copy pass
        // runs with the stencil test disabled; the comparison quad promotes
        // still-valid records whose predicate holds.
        for p in &clause.predicates {
            depth_holds(gpu, table, &mut held, fuse, p.column)?;
            gpu.set_phase(Phase::Compute);
            if established {
                // Clause 1 fused with the clear: records passing the
                // predicate land directly on the even marker 2 (as Incr
                // would have taken them), everything else on 0 (as the
                // cleanup would have).
                gpu.set_stencil_func(true, CompareFunc::Always, 2, 0xFF);
                gpu.set_stencil_op(StencilOp::Keep, StencilOp::Zero, StencilOp::Replace);
            } else {
                gpu.set_stencil_func(true, CompareFunc::Equal, valid, 0xFF);
                gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, promote_op);
            }
            comparison_pass(gpu, table, p.op, p.constant, OcclusionMode::None)?;
        }
        if established {
            continue;
        }

        // Lines 15-19: records still at the old valid value satisfied no
        // disjunct of this clause — zero them. (ZERO as the pass operation
        // sidesteps REPLACE's shared reference register.)
        gpu.set_phase(Phase::Compute);
        gpu.set_color_mask(ColorMask::NONE);
        gpu.set_depth_test(false, CompareFunc::Always);
        gpu.set_depth_write(false);
        gpu.set_stencil_func(true, CompareFunc::Equal, valid, 0xFF);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Zero);
        gpu.draw_quad(table.rects(), 0.0)?;
    }

    // Normalize the surviving marker to SELECTED (1) and count survivors in
    // the same pass. After k clauses the valid value is 2 for odd k, 1 for
    // even k (the established clause 1 leaves the marker Incr would have).
    // The fused protocol sets the count pass's state again: after a lone
    // established clause no cleanup pass has set it.
    if fuse {
        gpu.set_color_mask(ColorMask::NONE);
        gpu.set_depth_test(false, CompareFunc::Always);
        gpu.set_depth_write(false);
    }
    let final_valid = if cnf.clauses.len() % 2 == 1 { 2u8 } else { 1u8 };
    gpu.set_stencil_func(true, CompareFunc::Equal, final_valid, 0xFF);
    let normalize_op = if final_valid == 2 {
        StencilOp::Decr // 2 -> 1
    } else {
        StencilOp::Keep // already 1
    };
    gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, normalize_op);
    gpu.begin_occlusion_query()?;
    gpu.draw_quad(table.rects(), 0.0)?;
    let count = gpu.end_occlusion_query_async()?;
    gpu.reset_state();
    debug_assert_eq!(SELECTED, 1);
    Ok(Selection::over_table(table, count))
}

/// A boolean expression in disjunctive normal form: `T1 ∨ T2 ∨ ... ∨ Tk`
/// where each term `Ti` is a conjunction of simple predicates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GpuDnf {
    /// The OR-ed conjunctive terms.
    pub terms: Vec<GpuTerm>,
}

/// A conjunction of simple predicates (one DNF term).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GpuTerm {
    /// The AND-ed predicates.
    pub predicates: Vec<GpuPredicate>,
}

impl GpuTerm {
    /// A term with a single predicate.
    pub fn single(p: GpuPredicate) -> GpuTerm {
        GpuTerm {
            predicates: vec![p],
        }
    }

    /// A term AND-ing several predicates.
    pub fn all(predicates: Vec<GpuPredicate>) -> GpuTerm {
        GpuTerm { predicates }
    }
}

impl GpuDnf {
    /// The empty disjunction — FALSE, selecting nothing.
    pub fn always_false() -> GpuDnf {
        GpuDnf::default()
    }

    /// Build a DNF from terms.
    pub fn new(terms: Vec<GpuTerm>) -> GpuDnf {
        GpuDnf { terms }
    }

    /// Number of simple predicates across all terms.
    pub fn predicate_count(&self) -> usize {
        self.terms.iter().map(|t| t.predicates.len()).sum()
    }

    fn validate(&self, table: &GpuTable) -> EngineResult<()> {
        for term in &self.terms {
            for p in &term.predicates {
                if p.column >= table.column_count() {
                    return Err(EngineError::ColumnIndexOutOfRange(p.column));
                }
            }
        }
        Ok(())
    }
}

/// Stencil bit marking the accumulated DNF result.
const DNF_RESULT_BIT: u8 = 0x01;
/// Stencil bit used as per-term scratch.
const DNF_SCRATCH_BIT: u8 = 0x02;

/// Evaluate a DNF over a table — the paper's §4.2 remark made concrete:
/// "We can easily modify our algorithm for handling a boolean expression
/// represented as a DNF."
///
/// Protocol (two stencil bits, exercising the stencil *write masks* the
/// CNF protocol never needs):
///
/// 1. clear stencil to 0;
/// 2. per term: set the scratch bit on every record; each predicate pass
///    clears the scratch bit of failing records (`op_zfail = ZERO` under a
///    scratch-only write mask); survivors of all predicates get the result
///    bit OR-ed in;
/// 3. a final pass clears the scratch bit and counts result-bit holders.
pub fn eval_dnf_select(gpu: &mut Gpu, table: &GpuTable, dnf: &GpuDnf) -> EngineResult<Selection> {
    dnf.validate(table)?;
    gpu.set_phase(Phase::Compute);
    gpu.reset_state();
    gpu.clear_stencil(0);

    for term in &dnf.terms {
        // (a) Set the scratch bit everywhere (result bit untouched).
        gpu.set_color_mask(ColorMask::NONE);
        gpu.set_depth_test(false, CompareFunc::Always);
        gpu.set_depth_write(false);
        gpu.set_stencil_func(true, CompareFunc::Always, DNF_SCRATCH_BIT, 0xFF);
        gpu.set_stencil_write_mask(DNF_SCRATCH_BIT);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
        gpu.draw_quad(table.rects(), 0.0)?;

        // (b) Each predicate knocks the scratch bit off failing records.
        for p in &term.predicates {
            copy_to_depth(gpu, table, p.column)?;
            gpu.set_phase(Phase::Compute);
            gpu.set_stencil_func(true, CompareFunc::Equal, DNF_SCRATCH_BIT, DNF_SCRATCH_BIT);
            gpu.set_stencil_write_mask(DNF_SCRATCH_BIT);
            gpu.set_stencil_op(StencilOp::Keep, StencilOp::Zero, StencilOp::Keep);
            comparison_pass(gpu, table, p.op, p.constant, OcclusionMode::None)?;
        }

        // (c) Scratch survivors satisfied the whole term: OR in the result
        // bit. The *test* masks to the scratch bit while REPLACE writes the
        // reference's result bit under the result-only write mask.
        gpu.set_color_mask(ColorMask::NONE);
        gpu.set_depth_test(false, CompareFunc::Always);
        gpu.set_depth_write(false);
        gpu.set_stencil_func(
            true,
            CompareFunc::Equal,
            DNF_SCRATCH_BIT | DNF_RESULT_BIT,
            DNF_SCRATCH_BIT,
        );
        gpu.set_stencil_write_mask(DNF_RESULT_BIT);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
        gpu.draw_quad(table.rects(), 0.0)?;
    }

    // Clear the scratch bit everywhere and count result-bit holders in the
    // same pass.
    gpu.set_color_mask(ColorMask::NONE);
    gpu.set_depth_test(false, CompareFunc::Always);
    gpu.set_depth_write(false);
    gpu.set_stencil_func(true, CompareFunc::Equal, DNF_RESULT_BIT, DNF_RESULT_BIT);
    gpu.set_stencil_write_mask(DNF_SCRATCH_BIT);
    // Passing fragments (result bit set) and failing ones alike must drop
    // the scratch bit: ZERO under the scratch-only write mask on both
    // stencil-fail and depth-pass outcomes.
    gpu.set_stencil_op(StencilOp::Zero, StencilOp::Zero, StencilOp::Zero);
    gpu.begin_occlusion_query()?;
    gpu.draw_quad(table.rects(), 0.0)?;
    let count = gpu.end_occlusion_query_async()?;
    gpu.reset_state();
    debug_assert_eq!(SELECTED, DNF_RESULT_BIT);
    Ok(Selection::over_table(table, count))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpudb_sim::CompareFunc::*;

    fn setup(columns: &[(&str, &[u32])]) -> (Gpu, GpuTable) {
        let n = columns.first().map_or(0, |(_, v)| v.len());
        let mut gpu = GpuTable::device_for(n, 7);
        let t = GpuTable::upload(&mut gpu, "t", columns).unwrap();
        (gpu, t)
    }

    fn reference(cnf: &GpuCnf, columns: &[&[u32]], row: usize) -> bool {
        cnf.clauses.iter().all(|clause| {
            clause
                .predicates
                .iter()
                .any(|p| p.op.eval(columns[p.column][row], p.constant))
        })
    }

    fn check(cnf: &GpuCnf, columns: &[(&str, &[u32])]) {
        let raw: Vec<&[u32]> = columns.iter().map(|(_, v)| *v).collect();
        let n = raw.first().map_or(0, |c| c.len());
        let expected: Vec<bool> = (0..n).map(|row| reference(cnf, &raw, row)).collect();
        for fuse in [false, true] {
            let (mut gpu, t) = setup(columns);
            let sel = eval_cnf_select(&mut gpu, &t, cnf, fuse).unwrap();
            assert_eq!(sel.read_mask(&mut gpu).unwrap(), expected, "fuse {fuse}");
            assert_eq!(
                sel.matched(),
                expected.iter().filter(|&&b| b).count() as u64
            );
            assert_eq!(sel.count(&mut gpu).unwrap(), sel.matched());
        }
    }

    #[test]
    fn empty_cnf_selects_all() {
        let a: Vec<u32> = (0..20).collect();
        check(&GpuCnf::always_true(), &[("a", &a)]);
    }

    #[test]
    fn single_clause_single_predicate() {
        let a: Vec<u32> = (0..50).map(|i| (i * 31) % 40).collect();
        check(
            &GpuCnf::all_of(vec![GpuPredicate::new(0, Greater, 20)]),
            &[("a", &a)],
        );
    }

    #[test]
    fn conjunction_of_four_attributes() {
        // The Figure 5 shape: k predicates AND-ed, one per attribute.
        let cols: Vec<Vec<u32>> = (0..4)
            .map(|c| (0..60u32).map(|i| (i * (7 + c) + c * c) % 50).collect())
            .collect();
        let named: Vec<(&str, &[u32])> = ["a", "b", "c", "d"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        for k in 1..=4 {
            let preds = (0..k)
                .map(|c| GpuPredicate::new(c, GreaterEqual, 20))
                .collect();
            check(&GpuCnf::all_of(preds), &named);
        }
    }

    #[test]
    fn disjunctions_inside_clauses() {
        let a: Vec<u32> = (0..80).map(|i| (i * 13) % 64).collect();
        let b: Vec<u32> = (0..80).map(|i| (i * 17 + 5) % 64).collect();
        let cnf = GpuCnf::new(vec![
            GpuClause::any(vec![
                GpuPredicate::new(0, Less, 16),
                GpuPredicate::new(1, GreaterEqual, 48),
            ]),
            GpuClause::any(vec![
                GpuPredicate::new(0, NotEqual, 13),
                GpuPredicate::new(1, Equal, 22),
            ]),
        ]);
        check(&cnf, &[("a", &a), ("b", &b)]);
    }

    #[test]
    fn three_clauses_exercise_marker_alternation() {
        // Odd clause count: the final valid marker is 2 and must be
        // normalized back to 1.
        let a: Vec<u32> = (0..64).collect();
        let cnf = GpuCnf::all_of(vec![
            GpuPredicate::new(0, GreaterEqual, 8),
            GpuPredicate::new(0, Less, 56),
            GpuPredicate::new(0, NotEqual, 30),
        ]);
        check(&cnf, &[("a", &a)]);
    }

    #[test]
    fn clause_with_duplicate_true_predicates_counts_once() {
        // Both disjuncts true for every record: the stencil promotion must
        // saturate at the new marker, not double-count.
        let a: Vec<u32> = (0..30).collect();
        let cnf = GpuCnf::new(vec![GpuClause::any(vec![
            GpuPredicate::new(0, GreaterEqual, 0),
            GpuPredicate::new(0, Less, 100),
        ])]);
        check(&cnf, &[("a", &a)]);
    }

    #[test]
    fn contradiction_selects_nothing() {
        let a: Vec<u32> = (0..30).collect();
        let cnf = GpuCnf::all_of(vec![
            GpuPredicate::new(0, Less, 10),
            GpuPredicate::new(0, GreaterEqual, 10),
        ]);
        check(&cnf, &[("a", &a)]);
    }

    #[test]
    fn empty_clause_is_false() {
        let a: Vec<u32> = (0..30).collect();
        let cnf = GpuCnf::new(vec![GpuClause::default()]);
        let (mut gpu, t) = setup(&[("a", &a)]);
        let count = eval_cnf_select(&mut gpu, &t, &cnf, true).unwrap().matched();
        assert_eq!(count, 0);
    }

    #[test]
    fn negated_predicate_equivalence() {
        let p = GpuPredicate::new(0, Less, 10);
        let a: Vec<u32> = (0..30).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        let negated =
            eval_cnf_select(&mut gpu, &t, &GpuCnf::all_of(vec![p.negated()]), true).unwrap();
        assert_eq!(negated.matched(), 20, "NOT(a < 10) == a >= 10");
    }

    #[test]
    fn invalid_column_rejected() {
        let a: Vec<u32> = (0..10).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        let cnf = GpuCnf::all_of(vec![GpuPredicate::new(3, Less, 1)]);
        assert!(matches!(
            eval_cnf_select(&mut gpu, &t, &cnf, true).unwrap_err(),
            EngineError::ColumnIndexOutOfRange(3)
        ));
    }

    #[test]
    fn predicate_count() {
        let cnf = GpuCnf::new(vec![
            GpuClause::any(vec![
                GpuPredicate::new(0, Less, 1),
                GpuPredicate::new(1, Less, 1),
            ]),
            GpuClause::single(GpuPredicate::new(0, Greater, 5)),
        ]);
        assert_eq!(cnf.predicate_count(), 3);
    }

    #[test]
    fn fast_path_and_general_protocol_agree() {
        // The conjunction fast path and the full Routine 4.3 must produce
        // identical selections and counts for every pure-AND CNF.
        let cols: Vec<Vec<u32>> = (0..3)
            .map(|c| (0..70u32).map(|i| (i * (11 + c) + c) % 60).collect())
            .collect();
        let named: Vec<(&str, &[u32])> = ["a", "b", "c"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        for k in 1..=3usize {
            let preds: Vec<GpuPredicate> = (0..k)
                .map(|c| GpuPredicate::new(c, GreaterEqual, 20 + c as u32))
                .collect();
            let cnf = GpuCnf::all_of(preds.clone());

            let (mut gpu, t) = setup(&named);
            let sel_fast = eval_conjunction_select(&mut gpu, &t, &preds, false).unwrap();
            let mask_fast = sel_fast.read_mask(&mut gpu);

            let sel_gen = eval_cnf_general_select(&mut gpu, &t, &cnf, false).unwrap();
            assert_eq!(mask_fast, sel_gen.read_mask(&mut gpu), "k = {k}");
            assert_eq!(sel_fast.matched(), sel_gen.matched());
        }
    }

    #[test]
    fn fast_path_uses_one_comparison_pass_per_predicate() {
        let a: Vec<u32> = (0..50).collect();
        let b: Vec<u32> = (0..50).rev().collect();
        let (mut gpu, t) = setup(&[("a", &a), ("b", &b)]);
        let preds = vec![
            GpuPredicate::new(0, GreaterEqual, 10),
            GpuPredicate::new(1, Less, 40),
        ];
        gpu.reset_stats();
        eval_conjunction_select(&mut gpu, &t, &preds, false).unwrap();
        // 2 copies + 2 comparisons + 1 count pass.
        assert_eq!(gpu.stats().draw_calls, 5);

        gpu.reset_stats();
        eval_cnf_general_select(&mut gpu, &t, &GpuCnf::all_of(preds), false).unwrap();
        // General protocol: per clause (copy + compare + cleanup) + count.
        assert_eq!(gpu.stats().draw_calls, 7);
    }

    /// Every CNF shape the suite exercises, for parity of the two modes.
    fn parity_cnfs() -> Vec<GpuCnf> {
        vec![
            GpuCnf::always_true(),
            GpuCnf::all_of(vec![GpuPredicate::new(0, Greater, 20)]),
            GpuCnf::all_of(vec![
                GpuPredicate::new(0, GreaterEqual, 10),
                GpuPredicate::new(1, Less, 40),
            ]),
            // Adjacent predicates on the same column: copy elision fires.
            GpuCnf::all_of(vec![
                GpuPredicate::new(0, GreaterEqual, 10),
                GpuPredicate::new(0, Less, 40),
                GpuPredicate::new(1, NotEqual, 13),
            ]),
            // Single-predicate first clause + a disjunction: the general
            // protocol's clear collapse fires.
            GpuCnf::new(vec![
                GpuClause::single(GpuPredicate::new(0, GreaterEqual, 5)),
                GpuClause::any(vec![
                    GpuPredicate::new(0, Less, 30),
                    GpuPredicate::new(1, GreaterEqual, 40),
                ]),
            ]),
            // Multi-disjunct first clause: the clear must survive.
            GpuCnf::new(vec![
                GpuClause::any(vec![
                    GpuPredicate::new(0, Less, 16),
                    GpuPredicate::new(1, GreaterEqual, 48),
                ]),
                GpuClause::single(GpuPredicate::new(1, NotEqual, 22)),
            ]),
            // Odd clause count through the fused first clause.
            GpuCnf::new(vec![
                GpuClause::single(GpuPredicate::new(0, GreaterEqual, 8)),
                GpuClause::any(vec![
                    GpuPredicate::new(0, Less, 56),
                    GpuPredicate::new(1, Less, 10),
                ]),
                GpuClause::single(GpuPredicate::new(1, NotEqual, 30)),
            ]),
            // Empty clause (FALSE) in first position.
            GpuCnf::new(vec![
                GpuClause::default(),
                GpuClause::single(GpuPredicate::new(0, Less, 30)),
            ]),
            // Contradiction on one column (elision + establishing pass).
            GpuCnf::all_of(vec![
                GpuPredicate::new(0, Less, 10),
                GpuPredicate::new(0, GreaterEqual, 10),
            ]),
        ]
    }

    #[test]
    fn both_modes_agree_byte_for_byte() {
        let a: Vec<u32> = (0..80).map(|i| (i * 13) % 64).collect();
        let b: Vec<u32> = (0..80).map(|i| (i * 17 + 5) % 64).collect();
        let cols: [(&str, &[u32]); 2] = [("a", &a), ("b", &b)];
        for cnf in parity_cnfs() {
            let (mut gpu, t) = setup(&cols);
            let sel_f = eval_cnf_select(&mut gpu, &t, &cnf, true).unwrap();
            let mask_f = sel_f.read_mask(&mut gpu).unwrap();

            let (mut gpu2, t2) = setup(&cols);
            let sel_u = eval_cnf_select(&mut gpu2, &t2, &cnf, false).unwrap();
            let mask_u = sel_u.read_mask(&mut gpu2).unwrap();

            assert_eq!(mask_f, mask_u, "cnf {cnf:?}");
            assert_eq!(sel_f.matched(), sel_u.matched(), "cnf {cnf:?}");
        }
    }

    #[test]
    fn fusion_elides_repeated_column_copies() {
        // Three predicates, first two on the same column: the fused path
        // copies the column once, the unfused path twice.
        let a: Vec<u32> = (0..50).collect();
        let b: Vec<u32> = (0..50).rev().collect();
        let (mut gpu, t) = setup(&[("a", &a), ("b", &b)]);
        let preds = vec![
            GpuPredicate::new(0, GreaterEqual, 10),
            GpuPredicate::new(0, Less, 40),
            GpuPredicate::new(1, Less, 45),
        ];
        gpu.reset_stats();
        eval_conjunction_select(&mut gpu, &t, &preds, true).unwrap();
        // 2 copies (a once, b once) + 3 comparisons + 1 count pass.
        assert_eq!(gpu.stats().draw_calls, 6);

        gpu.reset_stats();
        eval_conjunction_select(&mut gpu, &t, &preds, false).unwrap();
        // 3 copies + 3 comparisons + 1 count pass.
        assert_eq!(gpu.stats().draw_calls, 7);
    }

    #[test]
    fn fusion_eliminates_the_stencil_clear() {
        // Record the pass plans: the fused conjunction and the fused
        // single-predicate-first general CNF must emit no ClearStencil.
        use gpudb_sim::trace::PassOp;
        use gpudb_sim::RecordMode;
        let a: Vec<u32> = (0..40).collect();
        let b: Vec<u32> = (0..40).rev().collect();
        let clears = |ops: &[PassOp]| {
            ops.iter()
                .filter(|op| matches!(op, PassOp::ClearStencil { .. }))
                .count()
        };
        let run = |fuse: bool, cnf: &GpuCnf| {
            let (mut gpu, t) = setup(&[("a", &a), ("b", &b)]);
            gpu.attach_log(RecordMode::RecordAndExecute);
            eval_cnf_select(&mut gpu, &t, cnf, fuse).unwrap();
            let plans = gpu.take_log().unwrap().plans_since(0);
            plans.iter().map(|p| clears(&p.ops)).sum::<usize>()
        };
        let conjunction = GpuCnf::all_of(vec![
            GpuPredicate::new(0, GreaterEqual, 10),
            GpuPredicate::new(1, Less, 30),
        ]);
        assert_eq!(run(false, &conjunction), 1);
        assert_eq!(run(true, &conjunction), 0);

        let general = GpuCnf::new(vec![
            GpuClause::single(GpuPredicate::new(0, GreaterEqual, 5)),
            GpuClause::any(vec![
                GpuPredicate::new(0, Less, 30),
                GpuPredicate::new(1, GreaterEqual, 20),
            ]),
        ]);
        assert_eq!(run(false, &general), 1);
        assert_eq!(run(true, &general), 0);

        // Multi-disjunct first clause: no establishing pass is possible,
        // the clear must stay.
        let unfusable = GpuCnf::new(vec![GpuClause::any(vec![
            GpuPredicate::new(0, Less, 16),
            GpuPredicate::new(1, GreaterEqual, 30),
        ])]);
        assert_eq!(run(true, &unfusable), 1);
    }

    #[test]
    fn fusion_reduces_modeled_cost() {
        let a: Vec<u32> = (0..60).collect();
        let cnf = GpuCnf::all_of(vec![
            GpuPredicate::new(0, GreaterEqual, 10),
            GpuPredicate::new(0, Less, 50),
        ]);
        let modeled = |fuse: bool| {
            let (mut gpu, t) = setup(&[("a", &a)]);
            let (result, record) = crate::metrics::observe(&mut gpu, "cnf", 60, |gpu| {
                eval_cnf_select(gpu, &t, &cnf, fuse)
            });
            result.unwrap();
            record.modeled_total_ns()
        };
        let fused = modeled(true);
        let unfused = modeled(false);
        assert!(
            fused < unfused,
            "fused {fused} should cost less than unfused {unfused}"
        );
    }

    #[test]
    fn fused_general_cnf_empty_first_clause_keeps_clear_semantics() {
        // An empty first clause is FALSE: nothing selected, fused or not.
        let a: Vec<u32> = (0..30).collect();
        let cnf = GpuCnf::new(vec![GpuClause::default()]);
        let (mut gpu, t) = setup(&[("a", &a)]);
        let sel = eval_cnf_general_select(&mut gpu, &t, &cnf, true).unwrap();
        assert_eq!(sel.matched(), 0);
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), vec![false; 30]);
    }

    #[test]
    fn fused_empty_conjunction_selects_all() {
        let a: Vec<u32> = (0..25).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        let sel = eval_conjunction_select(&mut gpu, &t, &[], true).unwrap();
        assert_eq!(sel.matched(), 25);
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), vec![true; 25]);
    }

    #[test]
    fn fused_paths_validate_columns() {
        let a: Vec<u32> = (0..10).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        assert!(matches!(
            eval_conjunction_select(&mut gpu, &t, &[GpuPredicate::new(5, Less, 1)], true)
                .unwrap_err(),
            EngineError::ColumnIndexOutOfRange(5)
        ));
        let cnf = GpuCnf::new(vec![GpuClause::any(vec![
            GpuPredicate::new(0, Less, 1),
            GpuPredicate::new(6, Less, 1),
        ])]);
        assert!(matches!(
            eval_cnf_general_select(&mut gpu, &t, &cnf, true).unwrap_err(),
            EngineError::ColumnIndexOutOfRange(6)
        ));
    }

    fn dnf_reference(dnf: &GpuDnf, columns: &[&[u32]], row: usize) -> bool {
        dnf.terms.iter().any(|term| {
            term.predicates
                .iter()
                .all(|p| p.op.eval(columns[p.column][row], p.constant))
        })
    }

    fn check_dnf(dnf: &GpuDnf, columns: &[(&str, &[u32])]) {
        let (mut gpu, t) = setup(columns);
        let sel = eval_dnf_select(&mut gpu, &t, dnf).unwrap();
        let raw: Vec<&[u32]> = columns.iter().map(|(_, v)| *v).collect();
        let n = raw.first().map_or(0, |c| c.len());
        let expected: Vec<bool> = (0..n).map(|row| dnf_reference(dnf, &raw, row)).collect();
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), expected);
        assert_eq!(
            sel.matched(),
            expected.iter().filter(|&&b| b).count() as u64
        );
        assert_eq!(sel.count(&mut gpu).unwrap(), sel.matched());
    }

    #[test]
    fn dnf_empty_is_false() {
        let a: Vec<u32> = (0..20).collect();
        check_dnf(&GpuDnf::always_false(), &[("a", &a)]);
    }

    #[test]
    fn dnf_single_term_is_conjunction() {
        let a: Vec<u32> = (0..60).map(|i| (i * 13) % 50).collect();
        let b: Vec<u32> = (0..60).map(|i| (i * 29 + 3) % 50).collect();
        let dnf = GpuDnf::new(vec![GpuTerm::all(vec![
            GpuPredicate::new(0, GreaterEqual, 10),
            GpuPredicate::new(1, Less, 40),
        ])]);
        check_dnf(&dnf, &[("a", &a), ("b", &b)]);
    }

    #[test]
    fn dnf_disjunction_of_conjunctions() {
        let a: Vec<u32> = (0..80).map(|i| (i * 7) % 64).collect();
        let b: Vec<u32> = (0..80).map(|i| (i * 11 + 5) % 64).collect();
        let dnf = GpuDnf::new(vec![
            GpuTerm::all(vec![
                GpuPredicate::new(0, Less, 16),
                GpuPredicate::new(1, GreaterEqual, 32),
            ]),
            GpuTerm::all(vec![
                GpuPredicate::new(0, GreaterEqual, 48),
                GpuPredicate::new(1, Less, 16),
            ]),
            GpuTerm::single(GpuPredicate::new(1, Equal, 33)),
        ]);
        check_dnf(&dnf, &[("a", &a), ("b", &b)]);
    }

    #[test]
    fn dnf_empty_term_is_true() {
        let a: Vec<u32> = (0..30).collect();
        let dnf = GpuDnf::new(vec![GpuTerm::default()]);
        check_dnf(&dnf, &[("a", &a)]);
    }

    #[test]
    fn dnf_overlapping_terms_count_once() {
        // Both terms select overlapping sets — records in both must carry
        // the result bit exactly once.
        let a: Vec<u32> = (0..40).collect();
        let dnf = GpuDnf::new(vec![
            GpuTerm::single(GpuPredicate::new(0, Less, 25)),
            GpuTerm::single(GpuPredicate::new(0, GreaterEqual, 15)),
        ]);
        check_dnf(&dnf, &[("a", &a)]); // selects everything, once
    }

    #[test]
    fn dnf_agrees_with_cnf_on_common_expressions() {
        // (a < 20) ∨ (a >= 40) is both a 1-clause CNF and a 2-term DNF.
        let a: Vec<u32> = (0..64).map(|i| (i * 37) % 60).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        let cnf = GpuCnf::new(vec![GpuClause::any(vec![
            GpuPredicate::new(0, Less, 20),
            GpuPredicate::new(0, GreaterEqual, 40),
        ])]);
        let dnf = GpuDnf::new(vec![
            GpuTerm::single(GpuPredicate::new(0, Less, 20)),
            GpuTerm::single(GpuPredicate::new(0, GreaterEqual, 40)),
        ]);
        let sel_c = eval_cnf_select(&mut gpu, &t, &cnf, true).unwrap();
        let mask_c = sel_c.read_mask(&mut gpu);
        let sel_d = eval_dnf_select(&mut gpu, &t, &dnf).unwrap();
        assert_eq!(mask_c, sel_d.read_mask(&mut gpu));
        assert_eq!(sel_c.matched(), sel_d.matched());
    }

    #[test]
    fn dnf_validates_columns() {
        let a: Vec<u32> = (0..10).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        let dnf = GpuDnf::new(vec![GpuTerm::single(GpuPredicate::new(7, Less, 1))]);
        assert!(matches!(
            eval_dnf_select(&mut gpu, &t, &dnf).unwrap_err(),
            EngineError::ColumnIndexOutOfRange(7)
        ));
        assert_eq!(dnf.predicate_count(), 1);
    }

    #[test]
    fn dnf_composes_with_aggregates() {
        let a: Vec<u32> = (0..50).collect();
        let (mut gpu, t) = setup(&[("a", &a)]);
        let dnf = GpuDnf::new(vec![
            GpuTerm::single(GpuPredicate::new(0, Less, 10)),
            GpuTerm::single(GpuPredicate::new(0, GreaterEqual, 45)),
        ]);
        let sel = eval_dnf_select(&mut gpu, &t, &dnf).unwrap();
        assert_eq!(sel.matched(), 15);
        let sum = crate::aggregate::sum(&mut gpu, &t, 0, Some(&sel)).unwrap();
        let expected: u64 = (0..10u64).sum::<u64>() + (45..50u64).sum::<u64>();
        assert_eq!(sum, expected);
    }

    #[test]
    fn mixed_columns_across_textures() {
        // 5 columns span two textures; CNF touches both.
        let cols: Vec<Vec<u32>> = (0..5)
            .map(|c| (0..40u32).map(|i| (i + c) % 20).collect())
            .collect();
        let named: Vec<(&str, &[u32])> = ["a", "b", "c", "d", "e"]
            .iter()
            .zip(&cols)
            .map(|(n, v)| (*n, v.as_slice()))
            .collect();
        let cnf = GpuCnf::all_of(vec![
            GpuPredicate::new(0, GreaterEqual, 5),
            GpuPredicate::new(4, Less, 15),
        ]);
        check(&cnf, &named);
    }
}
