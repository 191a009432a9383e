//! Ablation studies for the design choices the paper argues for.

use crate::harness::{ms, Workload, GRID_WIDTH, SEED};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::aggregate::{kth_largest, mipmap_sum, sum};
use gpudb_core::boolean::{eval_cnf_general_select, GpuCnf, GpuPredicate};
use gpudb_core::metrics::observe;
use gpudb_core::range::range_select;
use gpudb_core::table::GpuTable;
use gpudb_core::EngineResult;
use gpudb_data::selectivity::range_for_selectivity;
use gpudb_sim::{CompareFunc, HardwareProfile};

/// Ablation A — §4.3.3: the float-mipmap SUM vs the bitwise Accumulator.
/// The paper rejects the mipmap for precision (and float-write speed);
/// this ablation quantifies both.
pub fn mipmap(scale: Scale) -> EngineResult<FigureResult> {
    let mut acc_series = Series::new("bitwise Accumulator (modeled)");
    let mut mip_series = Series::new("float mipmap SUM (modeled)");
    let mut err_series = Series::new("mipmap absolute error (units, not ms)");

    let mut worst_error = 0.0f64;
    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let exact: u64 = w.dataset.columns[0].values.iter().map(|&v| v as u64).sum();

        let (bitwise, acc_timing) = w.time(|gpu, table| sum(gpu, table, 0, None));
        let bitwise = bitwise?;
        assert_eq!(bitwise, exact, "the Accumulator must be exact");

        let (reduction, _) = w.time(|gpu, table| mipmap_sum(gpu, table, 0));
        let reduction = reduction?;
        let error = (reduction.sum - exact as f64).abs();
        worst_error = worst_error.max(error);

        acc_series.push(records as f64, ms(acc_timing.total()));
        mip_series.push(records as f64, ms(reduction.modeled_ns));
        err_series.push(records as f64, error);
    }

    let holds = worst_error > 0.0;
    Ok(FigureResult {
        id: "abl_mipmap".into(),
        title: "SUM: bitwise Accumulator vs float-mipmap reduction".into(),
        x_label: "records".into(),
        y_label: "ms (error series: units)".into(),
        paper_claim: "the float mipmap 'may not have enough precision to give an exact \
                      sum'; the Accumulator is exact to arbitrary precision"
            .into(),
        observed: format!(
            "Accumulator exact at every size; mipmap drifts by up to {worst_error:.0} units"
        ),
        shape_holds: holds,
        series: vec![acc_series, mip_series, err_series],
    })
}

/// Ablation B — Routine 4.4 vs §4.2: the depth-bounds range query against
/// the same range expressed as a two-predicate CNF through the *general*
/// EvalCNF protocol.
pub fn range_vs_cnf(scale: Scale) -> EngineResult<FigureResult> {
    let mut bounds_series = Series::new("depth-bounds Range (modeled)");
    let mut cnf_series = Series::new("two-predicate EvalCNF (modeled)");

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let values = w.dataset.columns[0].values.clone();
        let (low, high, _) = range_for_selectivity(&values, 0.6).expect("non-empty");

        let (bounds, bounds_timing) = w.time(|gpu, table| range_select(gpu, table, 0, low, high));
        let count_a = bounds?.matched();

        let cnf = GpuCnf::all_of(vec![
            GpuPredicate::new(0, CompareFunc::GreaterEqual, low),
            GpuPredicate::new(0, CompareFunc::LessEqual, high),
        ]);
        let (general, cnf_timing) =
            w.time(|gpu, table| eval_cnf_general_select(gpu, table, &cnf, false));
        let count_b = general?.matched();
        assert_eq!(count_a, count_b, "the two protocols must agree");

        bounds_series.push(records as f64, ms(bounds_timing.total()));
        cnf_series.push(records as f64, ms(cnf_timing.total()));
    }

    let ratio = cnf_series.last_y() / bounds_series.last_y();
    let holds = ratio > 1.5;
    Ok(FigureResult {
        id: "abl_range".into(),
        title: "range query: depth-bounds test vs general EvalCNF".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "Range evaluates two predicates for the cost of one \
                      (one copy + one pass vs two copies + several passes)"
            .into(),
        observed: format!("EvalCNF costs {ratio:.1}x the depth-bounds path"),
        shape_holds: holds,
        series: vec![bounds_series, cnf_series],
    })
}

/// Ablation C — §6.2.2's pipeline-utilization analysis: `KthLargest` under
/// the real profile (draw overhead + synchronous occlusion fetches)
/// against an idealized device, reproducing the paper's "modeled 5.28 ms
/// vs observed 6.6 ms" gap (≈80% pipeline utilization).
pub fn sync_overhead(scale: Scale) -> EngineResult<FigureResult> {
    let records = scale.max_records();
    let dataset = gpudb_data::tcpip::generate(records, SEED);
    let values = dataset.columns[0].values.clone();

    let run_with = |profile: HardwareProfile| -> EngineResult<f64> {
        let width = GRID_WIDTH.min(records.max(1));
        let height = records.div_ceil(width).max(1);
        let mut gpu = gpudb_sim::Gpu::new(profile, width, height);
        let table = GpuTable::upload(&mut gpu, "t", &[("a", &values)])?;
        let (kth, record) = observe(&mut gpu, "kth_largest", records as u64, |gpu| {
            kth_largest(gpu, &table, 0, records / 2, None)
        });
        kth?;
        Ok(ms(record.modeled_ns.compute_only()))
    };

    let real = run_with(HardwareProfile::geforce_fx_5900())?;
    let ideal = run_with(HardwareProfile::ideal())?;
    let utilization = ideal / real;

    let mut real_series = Series::new("GeForce FX profile (sync fetches)");
    real_series.push(records as f64, real);
    let mut ideal_series = Series::new("ideal profile (no overheads)");
    ideal_series.push(records as f64, ideal);

    // The paper observed 5.28/6.6 = 80% utilization at 1M records.
    // Utilization shrinks with record count (the per-pass latency is
    // constant while the fill time scales), so accept a broad band below
    // paper scale.
    let floor = match scale {
        Scale::Small => 0.15,
        Scale::Paper => 0.5,
    };
    let holds = utilization < 0.95 && utilization > floor;
    Ok(FigureResult {
        id: "abl_sync".into(),
        title: "KthLargest: per-pass synchronization overhead (§6.2.2)".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "19 ideal passes = 5.28 ms vs 6.6 ms observed — ≈80% of the \
                      pipeline throughput, the rest lost to per-pass synchronization"
            .into(),
        observed: format!(
            "ideal {ideal:.2} ms vs realistic {real:.2} ms → {:.0}% utilization",
            utilization * 100.0
        ),
        shape_holds: holds,
        series: vec![real_series, ideal_series],
    })
}

/// Ablation D — §6.2.1 early depth-culling: a shaded pass over data with a
/// prior depth prepass, with early-z on vs off. Early-z skips shading of
/// rejected fragments, which the paper credits for "a significant
/// performance increase".
pub fn early_z(scale: Scale) -> EngineResult<FigureResult> {
    let records = scale.max_records();
    let mut w = Workload::tcpip(records)?;

    // Copy the attribute to depth, then render an expensive shaded quad
    // that only passes where the attribute is below the median — with
    // early-z the failing half never reaches the fragment processor.
    let median_value = {
        let mut sorted = w.dataset.columns[0].values.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    };

    let mut measure_with = |early_z: bool| -> EngineResult<(f64, u64)> {
        let table = &w.table;
        let gpu = &mut w.gpu;
        gpu.set_early_z(early_z);
        gpudb_core::predicate::copy_to_depth(gpu, table, 0)?;
        gpu.reset_stats();
        gpu.bind_program_source(
            "TEX R0, fragment.texcoord[0], texture[0], 2D;
             MUL R1, R0, R0;
             ADD R1, R1, R0;
             MOV result.color, R1;",
        )
        .map_err(gpudb_core::EngineError::from)?;
        gpu.bind_texture(0, Some(table.textures()[0]))
            .map_err(gpudb_core::EngineError::from)?;
        gpu.set_depth_test(true, CompareFunc::Greater);
        gpu.set_depth_write(false);
        gpu.draw_quad(table.rects(), gpudb_core::ops::encode_depth(median_value))
            .map_err(gpudb_core::EngineError::from)?;
        let shaded = gpu.stats().fragments_shaded;
        let modeled_ms = ms(gpu.stats().modeled.total());
        gpu.bind_program(None);
        gpu.reset_state();
        gpu.set_early_z(true);
        Ok((modeled_ms, shaded))
    };

    let (on_ms, on_shaded) = measure_with(true)?;
    let (off_ms, off_shaded) = measure_with(false)?;

    let mut on_series = Series::new("early-z ON (modeled)");
    on_series.push(records as f64, on_ms);
    let mut off_series = Series::new("early-z OFF (modeled)");
    off_series.push(records as f64, off_ms);

    let holds = on_shaded < off_shaded && on_ms < off_ms;
    Ok(FigureResult {
        id: "abl_earlyz".into(),
        title: "early depth-culling: shaded-fragment savings (§6.2.1)".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "early-z rejects failing fragments before the pixel processors, \
                      'a significant performance increase'"
            .into(),
        observed: format!(
            "early-z shades {on_shaded} of {off_shaded} fragments: {on_ms:.3} ms vs \
             {off_ms:.3} ms"
        ),
        shape_holds: holds,
        series: vec![on_series, off_series],
    })
}

/// Ablation E — the §6.1 hardware wishlist: "Depth Compare Masking [...]
/// would make it easier to test if a number has i-th bit set" and (§6.2.3)
/// "This can lead to significant improvement in performance" for the
/// Accumulator. We implement the hypothetical extension and measure how
/// much of Figure 10's deficit it recovers.
pub fn wishlist(scale: Scale) -> EngineResult<FigureResult> {
    let cpu = crate::harness::cpu_model();
    let mut standard_series = Series::new("Accumulator, TestBit program (modeled)");
    let mut masked_series = Series::new("Accumulator, depth compare mask (modeled)");
    let mut cpu_series = Series::new("CPU SIMD sum (modeled Xeon)");

    for records in scale.sweep() {
        let dataset = gpudb_data::tcpip::generate(records, SEED);
        let values = dataset.columns[0].values.clone();
        let expected: u64 = values.iter().map(|&v| v as u64).sum();

        let width = GRID_WIDTH.min(records.max(1));
        let height = records.div_ceil(width).max(1);
        let mut gpu = gpudb_sim::Gpu::new(
            HardwareProfile::geforce_fx_5900_with_depth_mask(),
            width,
            height,
        );
        let table = GpuTable::upload(&mut gpu, "t", &[("a", &values)])?;

        let n = records as u64;
        let (standard, standard_record) =
            observe(&mut gpu, "sum", n, |gpu| sum(gpu, &table, 0, None));
        let (masked, masked_record) = observe(&mut gpu, "sum_with_depth_mask", n, |gpu| {
            gpudb_core::aggregate::sum_with_depth_mask(gpu, &table, 0, None)
        });
        let (standard, masked) = (standard?, masked?);
        assert_eq!(standard, expected);
        assert_eq!(masked, expected);

        standard_series.push(records as f64, ms(standard_record.modeled_total_ns()));
        masked_series.push(records as f64, ms(masked_record.modeled_total_ns()));
        cpu_series.push(records as f64, cpu.sum_seconds(records) * 1e3);
    }

    let improvement = standard_series.last_y() / masked_series.last_y();
    let still_behind = masked_series.last_y() / cpu_series.last_y();
    // "Significant improvement": well over 2x — but the CPU should remain
    // competitive (integer SIMD sums are hard to beat with count queries).
    let holds = improvement > 2.0;

    Ok(FigureResult {
        id: "abl_wishlist".into(),
        title: "§6.1 wishlist: Accumulator with a depth compare mask".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "integer/bit-mask support 'would reduce the timings of our \
                      Accumulator algorithm significantly' (§6.1, §6.2.3)"
            .into(),
        observed: format!(
            "depth-compare-mask variant {improvement:.1}x faster than TestBit; still \
             {still_behind:.1}x behind the modeled CPU"
        ),
        shape_holds: holds,
        series: vec![standard_series, masked_series, cpu_series],
    })
}

/// Ablation F — data independence: the GPU bit-descent's cost depends only
/// on the record count and bit width ("no branch mispredictions",
/// §6.2.1; "time taken by KthLargest is constant", §5.9), while
/// QuickSelect's work varies with the input arrangement. Four inputs with
/// identical size and bit width but different orderings.
pub fn data_independence(scale: Scale) -> EngineResult<FigureResult> {
    let records = scale.kth_records();
    let cpu = crate::harness::cpu_model();
    let max_value = (1u32 << 19) - 1;

    let uniform: Vec<u32> = (0..records as u32)
        .map(|i| i.wrapping_mul(2654435761) % (max_value + 1))
        .collect();
    let mut sorted = uniform.clone();
    sorted.sort_unstable();
    let reversed: Vec<u32> = sorted.iter().rev().copied().collect();
    // Organ pipe: ascending then descending — a classic quicksort stressor.
    let organ: Vec<u32> = (0..records)
        .map(|i| {
            let half = records / 2;
            let pos = if i < half { i } else { records - 1 - i };
            (pos as u64 * max_value as u64 / half.max(1) as u64) as u32
        })
        .collect();

    let mut gpu_series = Series::new("GPU KthLargest (modeled)");
    let mut cpu_series = Series::new("CPU QuickSelect (modeled Xeon)");
    let mut gpu_times = Vec::new();
    let mut cpu_times = Vec::new();

    for (i, values) in [&uniform, &sorted, &reversed, &organ]
        .into_iter()
        .enumerate()
    {
        let width = GRID_WIDTH.min(records.max(1));
        let height = records.div_ceil(width).max(1);
        let mut gpu = gpudb_sim::Gpu::geforce_fx_5900(width, height);
        let table = GpuTable::upload(&mut gpu, "t", &[("a", values)])?;
        let (gpu_value, record) = observe(&mut gpu, "kth_largest", records as u64, |gpu| {
            kth_largest(gpu, &table, 0, records / 2, None)
        });
        let gpu_value = gpu_value?;

        let (cpu_value, stats) =
            gpudb_cpu::quickselect::kth_largest_instrumented(values, records / 2);
        assert_eq!(Some(gpu_value), cpu_value);

        let g = ms(record.modeled_total_ns());
        let c = cpu.select_seconds(&stats) * 1e3;
        gpu_series.push((i + 1) as f64, g);
        cpu_series.push((i + 1) as f64, c);
        gpu_times.push(g);
        cpu_times.push(c);
    }

    let spread = |xs: &[f64]| -> f64 {
        xs.iter().copied().fold(0.0f64, f64::max) / xs.iter().copied().fold(f64::INFINITY, f64::min)
    };
    let gpu_spread = spread(&gpu_times);
    let cpu_spread = spread(&cpu_times);
    let holds = gpu_spread < 1.01 && cpu_spread > 1.1;

    Ok(FigureResult {
        id: "abl_skew".into(),
        title: "data independence: KthLargest vs QuickSelect across input orderings".into(),
        x_label: "input (1=uniform 2=sorted 3=reversed 4=organ-pipe)".into(),
        y_label: "ms".into(),
        paper_claim: "the GPU algorithm has no data-dependent branches (§6.2.1) and its \
                      time depends only on record count and bit width; QuickSelect's \
                      conditionals make its work input-dependent (§4.3.2)"
            .into(),
        observed: format!(
            "GPU varies {:.2}% across orderings; QuickSelect varies {:.0}%",
            (gpu_spread - 1.0) * 100.0,
            (cpu_spread - 1.0) * 100.0
        ),
        shape_holds: holds,
        series: vec![gpu_series, cpu_series],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_is_data_independent() {
        let fig = data_independence(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }

    #[test]
    fn wishlist_mask_recovers_most_of_figure10() {
        let fig = wishlist(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }

    #[test]
    fn mipmap_ablation_shows_drift() {
        let fig = mipmap(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }

    #[test]
    fn range_beats_general_cnf() {
        let fig = range_vs_cnf(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }

    #[test]
    fn sync_overhead_below_unity() {
        let fig = sync_overhead(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }

    #[test]
    fn early_z_saves_shading() {
        let fig = early_z(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }
}
