//! Selections: the stencil buffer as a record mask.
//!
//! §3.4 of the paper: "we can consider the stencil buffer as a mask on the
//! screen." Every selection operation in this crate leaves the invariant
//! *stencil == 1 on selected records' pixels* (pixels outside the record
//! rectangles are never consulted), so selections compose: aggregates take
//! an optional [`Selection`] and restrict their passes with a stencil test.

use crate::error::EngineResult;
use crate::table::GpuTable;
use gpudb_sim::raster::Rect;
use gpudb_sim::state::ColorMask;
use gpudb_sim::{CompareFunc, Gpu, Phase, StencilOp};

/// The stencil value marking selected records.
pub const SELECTED: u8 = 1;

/// A selection over a table's records, materialized in the device stencil
/// buffer (stencil == [`SELECTED`] on selected pixels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Selection {
    record_count: usize,
    width: usize,
    rects: Vec<Rect>,
    /// The exact number of selected records, from the pass that set the
    /// stencil (§5.11: the count comes "with no additional overhead").
    matched: u64,
    /// A constant-empty selection matches nothing *by construction* (e.g.
    /// an inverted range): no stencil was written for it, so every device
    /// consumer must — and does — short-circuit instead of testing
    /// stencil values that were never established.
    const_empty: bool,
}

impl Selection {
    /// Describe a selection over a table that the pass just run set in
    /// the stencil, matching `matched` records by that pass's occlusion
    /// count (does not touch the device).
    pub(crate) fn over_table(table: &GpuTable, matched: u64) -> Selection {
        Selection {
            record_count: table.record_count(),
            width: table.width(),
            rects: table.rects().to_vec(),
            matched,
            const_empty: false,
        }
    }

    /// A selection over `table` that matches no records, decided on the
    /// host (e.g. a degenerate range with `low > high`). Costs nothing on
    /// the device — no stencil clear, no pass — and every consumer
    /// ([`Selection::count`], [`Selection::read_mask`], aggregates)
    /// short-circuits on it.
    pub(crate) fn const_empty(table: &GpuTable) -> Selection {
        Selection {
            record_count: table.record_count(),
            width: table.width(),
            rects: Vec::new(),
            matched: 0,
            const_empty: true,
        }
    }

    /// Whether this selection is empty by construction (no device state
    /// backs it; consumers must not test the stencil buffer).
    pub fn is_const_empty(&self) -> bool {
        self.const_empty
    }

    /// Select *all* records of a table: writes stencil = 1 over the record
    /// rectangles in one fixed-function pass.
    pub fn select_all(gpu: &mut Gpu, table: &GpuTable) -> EngineResult<Selection> {
        gpu.set_phase(Phase::Compute);
        gpu.reset_state();
        gpu.clear_stencil(0);
        gpu.set_color_mask(ColorMask::NONE);
        gpu.set_depth_write(false);
        gpu.set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
        gpu.draw_quad(table.rects(), 0.0)?;
        gpu.reset_state();
        Ok(Selection::over_table(table, table.record_count() as u64))
    }

    /// Number of records the selection ranges over (not the number
    /// selected — see [`Selection::matched`]).
    pub fn record_count(&self) -> usize {
        self.record_count
    }

    /// The record rectangles.
    pub fn rects(&self) -> &[Rect] {
        &self.rects
    }

    /// Number of selected records, carried from the pass that set the
    /// stencil: no device work.
    pub fn matched(&self) -> u64 {
        self.matched
    }

    /// Count the selected records with a standalone occlusion-query pass
    /// (the paper's COUNT, §4.3.1): render the record quad with a stencil
    /// test for the selected value and read back the pixel pass count.
    /// Equals [`Selection::matched`]; it re-reads the stencil for a cost
    /// the selection already paid.
    pub fn count(&self, gpu: &mut Gpu) -> EngineResult<u64> {
        if self.const_empty {
            return Ok(0);
        }
        gpu.set_phase(Phase::Compute);
        gpu.reset_state();
        gpu.set_color_mask(ColorMask::NONE);
        gpu.set_depth_write(false);
        gpu.set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
        gpu.set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
        gpu.begin_occlusion_query()?;
        gpu.draw_quad(&self.rects, 0.0)?;
        let count = gpu.end_occlusion_query()?;
        gpu.reset_state();
        Ok(count)
    }

    /// Selectivity of the selection in `[0, 1]` — the quantity
    /// join-ordering optimizers consume (§5.11) — from the carried count,
    /// on the host.
    pub fn selectivity(&self) -> f64 {
        if self.record_count == 0 {
            return 0.0;
        }
        self.matched as f64 / self.record_count as f64
    }

    /// Read the selection back to the host as one bool per record — the
    /// expensive full-readback path GPU algorithms avoid; provided for
    /// verification and result delivery.
    pub fn read_mask(&self, gpu: &mut Gpu) -> EngineResult<Vec<bool>> {
        if self.const_empty {
            return Ok(vec![false; self.record_count]);
        }
        let stencil = gpu.read_stencil_buffer()?;
        Ok(stencil
            .into_iter()
            .take(self.record_count)
            .map(|s| s == SELECTED)
            .collect())
    }

    /// Indices of the selected records (host-side).
    pub fn read_indices(&self, gpu: &mut Gpu) -> EngineResult<Vec<usize>> {
        Ok(self
            .read_mask(gpu)?
            .into_iter()
            .enumerate()
            .filter_map(|(i, selected)| selected.then_some(i))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::GpuTable;

    fn table(gpu: &mut Gpu, n: usize) -> GpuTable {
        let a: Vec<u32> = (0..n as u32).collect();
        GpuTable::upload(gpu, "t", &[("a", &a)]).unwrap()
    }

    #[test]
    fn select_all_counts_every_record() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = table(&mut gpu, 10);
        let sel = Selection::select_all(&mut gpu, &t).unwrap();
        assert_eq!(sel.matched(), 10);
        assert_eq!(sel.count(&mut gpu).unwrap(), 10);
        assert_eq!(sel.selectivity(), 1.0);
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), vec![true; 10]);
    }

    #[test]
    fn padding_pixels_not_counted() {
        // 10 records on a 4-wide grid: 2 padding pixels in the last row.
        let mut gpu = GpuTable::device_for(10, 4);
        let t = table(&mut gpu, 10);
        // Pollute the whole stencil buffer, then select-all: only record
        // pixels should count.
        gpu.clear_stencil(SELECTED);
        let sel = Selection::select_all(&mut gpu, &t).unwrap();
        assert_eq!(sel.count(&mut gpu).unwrap(), 10);
    }

    #[test]
    fn empty_table_selection() {
        let mut gpu = GpuTable::device_for(0, 4);
        let t = table(&mut gpu, 0);
        let sel = Selection::select_all(&mut gpu, &t).unwrap();
        assert_eq!(sel.matched(), 0);
        assert_eq!(sel.count(&mut gpu).unwrap(), 0);
        assert_eq!(sel.selectivity(), 0.0);
        assert!(sel.read_mask(&mut gpu).unwrap().is_empty());
    }

    #[test]
    fn read_indices_match_mask() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = table(&mut gpu, 10);
        let sel = Selection::select_all(&mut gpu, &t).unwrap();
        assert_eq!(
            sel.read_indices(&mut gpu).unwrap(),
            (0..10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn const_empty_selection_touches_no_device_state() {
        let mut gpu = GpuTable::device_for(10, 4);
        let t = table(&mut gpu, 10);
        // Pollute the stencil buffer: a const-empty selection must not
        // consult it (it was never cleared on the empty path).
        gpu.clear_stencil(SELECTED);
        let counters = gpu.stats().counters();
        let sel = Selection::const_empty(&t);
        assert!(sel.is_const_empty());
        assert_eq!(sel.record_count(), 10);
        assert_eq!(sel.matched(), 0);
        assert_eq!(sel.count(&mut gpu).unwrap(), 0);
        assert_eq!(sel.selectivity(), 0.0);
        assert_eq!(sel.read_mask(&mut gpu).unwrap(), vec![false; 10]);
        assert!(sel.read_indices(&mut gpu).unwrap().is_empty());
        // count() issued no occlusion query, no draw — and read_mask no
        // stencil readback.
        assert_eq!(gpu.stats().counters(), counters);
    }

    #[test]
    fn count_pass_equals_carried_count_within_paper_bound() {
        // §5.11: "we can obtain the number of selected values within
        // 0.25 ms" on a 1000×1000 frame-buffer: one quad fill plus one
        // synchronous occlusion fetch, agreeing with the carried count.
        let mut gpu = GpuTable::device_for(200, 16);
        let t = table(&mut gpu, 200);
        let sel = crate::predicate::compare_select(&mut gpu, &t, 0, CompareFunc::Less, 50).unwrap();
        assert_eq!((sel.matched(), sel.selectivity()), (50, 0.25));
        gpu.reset_stats();
        assert_eq!(sel.count(&mut gpu).unwrap(), 50);
        assert_eq!(gpu.stats().occlusion_readbacks, 1);
        let readback = gpu.stats().modeled.get(Phase::Readback);
        assert!(readback <= 250_000, "readback {readback} ns");
    }
}
