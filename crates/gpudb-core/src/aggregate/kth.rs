//! Order statistics: `KthLargest` (Routine 4.5) and its derivatives MIN,
//! MAX, median and percentile.
//!
//! The algorithm constructs the k-th largest value one bit at a time from
//! the MSB, using an occlusion-query count per bit ("Our algorithm
//! utilizes the binary data representation for computing the k-th largest
//! value in time that is linear in the number of bits"). It needs no data
//! rearrangement and its running time is independent of `k` — both
//! properties the paper verifies experimentally (Figure 7). A masked run
//! ranks among the selection's own count, so it issues exactly the passes
//! of an unmasked one (§5.9 Test 3).

use crate::error::{EngineError, EngineResult};
use crate::predicate::{comparison_pass, copy_to_depth, OcclusionMode};
use crate::selection::{Selection, SELECTED};
use crate::table::GpuTable;
use gpudb_sim::{CompareFunc, Gpu, Phase, StencilOp};

/// Restrict subsequent comparison passes to the selection, if any:
/// the stencil test passes only on selected pixels and never writes.
pub(crate) fn apply_selection_mask(gpu: &mut Gpu, selection: Option<&Selection>) {
    if selection.is_some() {
        gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
    } else {
        gpu.set_stencil_func(false, CompareFunc::Always, 0, 0xFF);
    }
}

/// The rank of an order statistic. Routine 4.5 answers a rank counted
/// from the largest, so every order statistic maps to one (§4.3.2: "The
/// query to find the minimum or maximum value of an attribute is a
/// special case of the kth largest number").
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rank {
    /// The k-th largest (1-based).
    Largest(usize),
    /// The k-th smallest (1-based).
    Smallest(usize),
    /// The p-th percentile (0.0–1.0) by nearest rank.
    Percentile(f64),
}

impl Rank {
    /// The rank counted from the largest among `available` records, by the
    /// identity `kth_smallest(k) = kth_largest(n + 1 - k)`; a k outside
    /// `1..=n` is [`EngineError::InvalidK`], and a percentile (the median
    /// included) of nothing is [`EngineError::EmptyInput`].
    pub(crate) fn counted_from_largest(self, available: u64) -> EngineResult<usize> {
        let n = available as usize;
        let smallest = match self {
            Rank::Percentile(_) if n == 0 => return Err(EngineError::EmptyInput),
            Rank::Largest(k) | Rank::Smallest(k) if k == 0 || k > n => {
                return Err(EngineError::InvalidK { k, available })
            }
            Rank::Largest(k) => return Ok(k),
            Rank::Smallest(k) => k,
            Rank::Percentile(p) => ((p.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n),
        };
        Ok(n + 1 - smallest)
    }
}

/// Routine 4.5's bit descent: fix the k-th largest value's bits MSB-first
/// over `bits` bits. `count_ge(m)` counts the records `>= m`, and bit `i`
/// is set when more than `k - 1` of them are `>= x + 2^i` (Lemma 1).
pub(crate) fn descend(
    bits: u32,
    k: usize,
    mut count_ge: impl FnMut(u32) -> EngineResult<u64>,
) -> EngineResult<u32> {
    (0..bits).rev().try_fold(0u32, |x, i| {
        let m = x + (1 << i);
        Ok(if count_ge(m)? > (k - 1) as u64 { m } else { x })
    })
}

/// Open Routine 4.5 on a device: copy the column to depth once, enter the
/// compute phase and arm the selection mask.
pub(crate) fn open_descent(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    selection: Option<&Selection>,
) -> EngineResult<()> {
    copy_to_depth(gpu, table, column)?;
    gpu.set_phase(Phase::Compute);
    apply_selection_mask(gpu, selection);
    Ok(())
}

/// One descent step: count the (selected) records `>= m` with one
/// comparison pass, fetched synchronously because the next bit's
/// threshold depends on it, then re-arm the selection mask.
pub(crate) fn count_ge(
    gpu: &mut Gpu,
    table: &GpuTable,
    selection: Option<&Selection>,
    m: u32,
) -> EngineResult<u64> {
    let count = comparison_pass(
        gpu,
        table,
        CompareFunc::GreaterEqual,
        m,
        OcclusionMode::Sync,
    )?;
    apply_selection_mask(gpu, selection);
    Ok(count)
}

/// Close a descent: restore the default pipeline state.
pub(crate) fn close_descent(gpu: &mut Gpu) {
    gpu.reset_state();
}

/// The order statistic at `rank` of a column, optionally restricted to a
/// selection: rank among the selection's carried count (or the table's
/// records), then one copy-to-depth and `b_max` comparison passes, each
/// fixing one bit of the result by the paper's Lemma 1.
pub(crate) fn order_statistic(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    rank: Rank,
    selection: Option<&Selection>,
) -> EngineResult<u32> {
    let available = selection.map_or(table.record_count() as u64, Selection::matched);
    let k = rank.counted_from_largest(available)?;
    let bits = table.column(column)?.bits;
    open_descent(gpu, table, column, selection)?;
    let x = descend(bits, k, |m| count_ge(gpu, table, selection, m))?;
    close_descent(gpu);
    Ok(x)
}

/// The k-th largest value (1-based; `k = 1` is the maximum) of a column,
/// optionally restricted to a selection (Routine 4.5).
pub fn kth_largest(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    k: usize,
    selection: Option<&Selection>,
) -> EngineResult<u32> {
    order_statistic(gpu, table, column, Rank::Largest(k), selection)
}

/// The k-th smallest value (1-based), via the rank identity
/// `kth_smallest(k) = kth_largest(n + 1 - k)` over the (selected) domain.
pub fn kth_smallest(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    k: usize,
    selection: Option<&Selection>,
) -> EngineResult<u32> {
    order_statistic(gpu, table, column, Rank::Smallest(k), selection)
}

/// MAX: the 1st largest (§4.3.2).
pub fn max(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    selection: Option<&Selection>,
) -> EngineResult<u32> {
    order_statistic(gpu, table, column, Rank::Largest(1), selection)
}

/// MIN: the 1st smallest.
pub fn min(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    selection: Option<&Selection>,
) -> EngineResult<u32> {
    order_statistic(gpu, table, column, Rank::Smallest(1), selection)
}

/// The (lower) median: the ⌈n/2⌉-th smallest value, which is the 50th
/// percentile by nearest rank.
pub fn median(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    selection: Option<&Selection>,
) -> EngineResult<u32> {
    order_statistic(gpu, table, column, Rank::Percentile(0.5), selection)
}

/// The p-th percentile (0.0–1.0) by nearest rank.
pub fn percentile(
    gpu: &mut Gpu,
    table: &GpuTable,
    column: usize,
    p: f64,
    selection: Option<&Selection>,
) -> EngineResult<u32> {
    order_statistic(gpu, table, column, Rank::Percentile(p), selection)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::compare_select;

    fn setup(values: &[u32]) -> (Gpu, GpuTable) {
        let mut gpu = GpuTable::device_for(values.len(), 8);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", values)]).unwrap();
        (gpu, t)
    }

    fn reference_kth_largest(values: &[u32], k: usize) -> u32 {
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        sorted[sorted.len() - k]
    }

    #[test]
    fn kth_largest_matches_sort_reference() {
        let values: Vec<u32> = (0..200u32)
            .map(|i| i.wrapping_mul(2654435761) % 5000)
            .collect();
        let (mut gpu, t) = setup(&values);
        for k in [1usize, 2, 7, 100, 199, 200] {
            assert_eq!(
                kth_largest(&mut gpu, &t, 0, k, None).unwrap(),
                reference_kth_largest(&values, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn duplicates_handled() {
        let values = vec![7u32, 7, 7, 3, 3, 9];
        let (mut gpu, t) = setup(&values);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 1, None).unwrap(), 9);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 2, None).unwrap(), 7);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 4, None).unwrap(), 7);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 5, None).unwrap(), 3);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 6, None).unwrap(), 3);
    }

    #[test]
    fn invalid_k_rejected() {
        let values = vec![1u32, 2, 3];
        let (mut gpu, t) = setup(&values);
        assert!(matches!(
            kth_largest(&mut gpu, &t, 0, 0, None).unwrap_err(),
            EngineError::InvalidK { k: 0, available: 3 }
        ));
        assert!(matches!(
            kth_largest(&mut gpu, &t, 0, 4, None).unwrap_err(),
            EngineError::InvalidK { k: 4, available: 3 }
        ));
    }

    #[test]
    fn min_max_median() {
        let values = vec![42u32, 17, 99, 3, 64, 17, 80, 5, 21];
        let (mut gpu, t) = setup(&values);
        assert_eq!(max(&mut gpu, &t, 0, None).unwrap(), 99);
        assert_eq!(min(&mut gpu, &t, 0, None).unwrap(), 3);
        // 9 values, lower median = 5th smallest = 21.
        assert_eq!(median(&mut gpu, &t, 0, None).unwrap(), 21);
    }

    #[test]
    fn kth_smallest_is_dual() {
        let values: Vec<u32> = (0..50u32).map(|i| (i * 31) % 97).collect();
        let (mut gpu, t) = setup(&values);
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for k in [1usize, 5, 25, 50] {
            assert_eq!(
                kth_smallest(&mut gpu, &t, 0, k, None).unwrap(),
                sorted[k - 1],
                "k = {k}"
            );
        }
    }

    #[test]
    fn percentile_nearest_rank() {
        let values: Vec<u32> = (1..=100).collect();
        let (mut gpu, t) = setup(&values);
        assert_eq!(percentile(&mut gpu, &t, 0, 0.0, None).unwrap(), 1);
        assert_eq!(percentile(&mut gpu, &t, 0, 0.5, None).unwrap(), 50);
        assert_eq!(percentile(&mut gpu, &t, 0, 1.0, None).unwrap(), 100);
    }

    #[test]
    fn masked_kth_largest_ignores_unselected() {
        // The paper's §5.9 Test 3: KthLargest over an 80%-selectivity
        // subset. Select values < 60, then take order statistics within.
        let values: Vec<u32> = (0..100).collect();
        let (mut gpu, t) = setup(&values);
        let sel = compare_select(&mut gpu, &t, 0, CompareFunc::Less, 60).unwrap();
        assert_eq!(sel.matched(), 60);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 1, Some(&sel)).unwrap(), 59);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 60, Some(&sel)).unwrap(), 0);
        assert_eq!(median(&mut gpu, &t, 0, Some(&sel)).unwrap(), 29);
        assert!(matches!(
            kth_largest(&mut gpu, &t, 0, 61, Some(&sel)).unwrap_err(),
            EngineError::InvalidK {
                k: 61,
                available: 60
            }
        ));
    }

    #[test]
    fn pass_count_is_independent_of_k() {
        // Figure 7's flat line: the bit-descent always runs b_max passes.
        let values: Vec<u32> = (0..128).collect(); // 7 bits
        let (mut gpu, t) = setup(&values);
        let mut draws = Vec::new();
        for k in [1usize, 30, 128] {
            gpu.reset_stats();
            kth_largest(&mut gpu, &t, 0, k, None).unwrap();
            draws.push(gpu.stats().draw_calls);
        }
        assert_eq!(draws[0], draws[1]);
        assert_eq!(draws[1], draws[2]);
    }

    #[test]
    fn masked_run_costs_same_as_unmasked() {
        // §5.9 Test 3: "KthLargest with 80% selectivity requires exactly
        // the same amount of time as performing KthLargest with 100%
        // selectivity" — the masked run ranks among the selection's own
        // count, so every order statistic and AVG issue the same passes,
        // fragments and modeled time with or without the mask.
        let values: Vec<u32> = (0..100).collect();
        let (mut gpu, t) = setup(&values);
        let sel = compare_select(&mut gpu, &t, 0, CompareFunc::Less, 80).unwrap();
        type Op = fn(&mut Gpu, &GpuTable, Option<&Selection>) -> EngineResult<f64>;
        let ops: [Op; 7] = [
            |g, t, s| kth_largest(g, t, 0, 10, s).map(f64::from),
            |g, t, s| kth_smallest(g, t, 0, 10, s).map(f64::from),
            |g, t, s| min(g, t, 0, s).map(f64::from),
            |g, t, s| max(g, t, 0, s).map(f64::from),
            |g, t, s| median(g, t, 0, s).map(f64::from),
            |g, t, s| percentile(g, t, 0, 0.9, s).map(f64::from),
            |g, t, s| crate::aggregate::avg(g, t, 0, s),
        ];
        for (i, op) in ops.iter().enumerate() {
            let mut cost = |selection: Option<&Selection>| {
                gpu.reset_stats();
                op(&mut gpu, &t, selection).unwrap();
                let stats = gpu.stats();
                let counters = (stats.draw_calls, stats.occlusion_readbacks);
                (counters, stats.fragments_generated, stats.modeled)
            };
            let unmasked = cost(None);
            assert_eq!(cost(Some(&sel)), unmasked, "op {i}");
        }
    }

    #[test]
    fn single_value_column() {
        let values = vec![13u32];
        let (mut gpu, t) = setup(&values);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 1, None).unwrap(), 13);
        assert_eq!(median(&mut gpu, &t, 0, None).unwrap(), 13);
    }

    #[test]
    fn zero_valued_column() {
        let values = vec![0u32; 5];
        let (mut gpu, t) = setup(&values);
        assert_eq!(kth_largest(&mut gpu, &t, 0, 3, None).unwrap(), 0);
        assert_eq!(max(&mut gpu, &t, 0, None).unwrap(), 0);
    }

    #[test]
    fn empty_median_errors() {
        let (mut gpu, t) = setup(&[]);
        assert!(matches!(
            median(&mut gpu, &t, 0, None).unwrap_err(),
            EngineError::EmptyInput
        ));
    }
}
