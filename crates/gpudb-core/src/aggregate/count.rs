//! COUNT and selectivity analysis (§4.3.1, §5.11).
//!
//! COUNT is an occlusion query over a boolean query's passes; when the
//! selection was just materialized, the count is available from the same
//! pass with "no additional overhead" (§5.11). This module adds the
//! standalone wrappers used by the query executor and the selectivity
//! estimation entry point.

use crate::error::EngineResult;
use crate::selection::Selection;
use crate::table::GpuTable;
use gpudb_sim::Gpu;

/// COUNT(*) over a selection — one stencil-tested occlusion pass.
pub fn count(gpu: &mut Gpu, selection: &Selection) -> EngineResult<u64> {
    selection.count(gpu)
}

/// COUNT(*) over a whole table — no device work needed, the record count
/// is table metadata.
pub fn count_all(table: &GpuTable) -> u64 {
    table.record_count() as u64
}

/// Selectivity of a selection in `[0, 1]` — the quantity join-ordering
/// optimizers consume ("Recently, several algorithms have been designed to
/// implement join operations efficiently using selectivity estimation",
/// §5.11).
pub fn selectivity(gpu: &mut Gpu, selection: &Selection) -> EngineResult<f64> {
    selection.selectivity(gpu)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::compare_select;
    use gpudb_sim::CompareFunc;

    #[test]
    fn count_and_selectivity_agree() {
        let values: Vec<u32> = (0..200).collect();
        let mut gpu = GpuTable::device_for(values.len(), 16);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
        assert_eq!(count_all(&t), 200);
        let (sel, c) = compare_select(&mut gpu, &t, 0, CompareFunc::Less, 50).unwrap();
        assert_eq!(count(&mut gpu, &sel).unwrap(), c);
        assert_eq!(c, 50);
        assert!((selectivity(&mut gpu, &sel).unwrap() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn selectivity_readback_within_paper_bound() {
        // §5.11: "we can obtain the number of selected values within
        // 0.25 ms" on a 1000×1000 frame-buffer. The counting pass costs one
        // quad fill + one synchronous occlusion fetch.
        let values: Vec<u32> = (0..100).collect();
        let mut gpu = GpuTable::device_for(values.len(), 10);
        let t = GpuTable::upload(&mut gpu, "t", &[("a", &values)]).unwrap();
        let (sel, _) = compare_select(&mut gpu, &t, 0, CompareFunc::Less, 50).unwrap();
        gpu.reset_stats();
        sel.count(&mut gpu).unwrap();
        let readback = gpu.stats().modeled.get(gpudb_sim::Phase::Readback);
        assert!(readback <= 250_000, "readback {readback} ns");
    }
}
