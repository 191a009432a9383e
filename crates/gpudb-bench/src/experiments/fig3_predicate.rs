//! Figure 3: "Execution time of a predicate evaluation with 60%
//! selectivity by a CPU-based and a GPU-based algorithm. Timings for the
//! GPU-based algorithm include time to copy data values into the depth
//! buffer. Considering only computation time, the GPU is nearly 20 times
//! faster than a compiler-optimized SIMD implementation." The overall
//! (with-copy) timings are "nearly 3 times faster".

use crate::harness::{cpu_model, ms, speedup, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::predicate::compare_select;
use gpudb_core::EngineResult;
use gpudb_data::selectivity::threshold_for_ge;
use gpudb_sim::CompareFunc;

/// Run the Figure 3 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let cpu = cpu_model();
    let mut gpu_total = Series::new("GPU total (modeled)");
    let mut gpu_compute = Series::new("GPU compute-only (modeled)");
    let mut cpu_modeled = Series::new("CPU SIMD scan (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU scan wall-clock (this host)");

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let values = w.dataset.columns[0].values.clone();
        let (threshold, achieved) = threshold_for_ge(&values, 0.6).expect("non-empty");
        debug_assert!((achieved - 0.6).abs() < 0.05, "selectivity {achieved}");

        let (selected, timing) = w
            .time(|gpu, table| compare_select(gpu, table, 0, CompareFunc::GreaterEqual, threshold));
        let count = selected?.matched();
        // Cross-check against the real CPU baseline.
        let (bm, cpu_secs) = wall_seconds(3, || {
            gpudb_cpu::scan::scan_u32(&values, gpudb_cpu::CmpOp::Ge, threshold)
        });
        assert_eq!(bm.count_ones() as u64, count, "GPU/CPU result mismatch");

        gpu_total.push(records as f64, ms(timing.total()));
        gpu_compute.push(records as f64, ms(timing.compute_only()));
        cpu_modeled.push(records as f64, cpu.scan_seconds(records) * 1e3);
        cpu_wall.push(records as f64, cpu_secs * 1e3);
    }

    let total_factor = speedup(cpu_modeled.last_y(), gpu_total.last_y());
    let compute_factor = speedup(cpu_modeled.last_y(), gpu_compute.last_y());
    let holds = (2.0..5.0).contains(&total_factor) && (10.0..40.0).contains(&compute_factor);

    Ok(FigureResult {
        id: "fig3".into(),
        title: "single predicate at 60% selectivity, CPU vs GPU".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "GPU ~3x faster overall; ~20x faster compute-only".into(),
        observed: format!(
            "GPU {total_factor:.1}x faster overall; {compute_factor:.1}x compute-only"
        ),
        shape_holds: holds,
        series: vec![gpu_total, gpu_compute, cpu_modeled, cpu_wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_speedups_match_paper_shape() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        // GPU total must exceed compute-only (the copy is real work).
        let total = fig.series("GPU total (modeled)").unwrap().last_y();
        let compute = fig.series("GPU compute-only (modeled)").unwrap().last_y();
        assert!(total > compute);
    }
}
