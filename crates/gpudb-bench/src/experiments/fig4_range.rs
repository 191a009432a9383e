//! Figure 4: "Execution time of a range query with 60% selectivity using
//! a GPU-based and a CPU-based algorithm. [...] Considering only
//! computation time, the GPU is nearly 40 times faster"; overall "the GPU
//! is nearly 5.5 times faster".

use crate::harness::{cpu_model, ms, speedup, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::range::range_select;
use gpudb_core::EngineResult;
use gpudb_data::selectivity::range_for_selectivity;

/// Run the Figure 4 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let cpu = cpu_model();
    let mut gpu_total = Series::new("GPU total (modeled)");
    let mut gpu_compute = Series::new("GPU compute-only (modeled)");
    let mut cpu_modeled = Series::new("CPU SIMD range scan (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU range wall-clock (this host)");

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let values = w.dataset.columns[0].values.clone();
        // §5.6: "we set the valid range of values between the 20th
        // percentile and 80th percentile of the data values".
        let (low, high, _) = range_for_selectivity(&values, 0.6).expect("non-empty");

        let (selected, timing) = w.time(|gpu, table| range_select(gpu, table, 0, low, high));
        let count = selected?.matched();
        let (bm, cpu_secs) = wall_seconds(3, || gpudb_cpu::cnf::eval_range(&values, low, high));
        assert_eq!(bm.count_ones() as u64, count, "GPU/CPU result mismatch");

        gpu_total.push(records as f64, ms(timing.total()));
        gpu_compute.push(records as f64, ms(timing.compute_only()));
        cpu_modeled.push(records as f64, cpu.range_seconds(records) * 1e3);
        cpu_wall.push(records as f64, cpu_secs * 1e3);
    }

    let total_factor = speedup(cpu_modeled.last_y(), gpu_total.last_y());
    let compute_factor = speedup(cpu_modeled.last_y(), gpu_compute.last_y());
    let holds = (3.0..9.0).contains(&total_factor) && (15.0..60.0).contains(&compute_factor);

    Ok(FigureResult {
        id: "fig4".into(),
        title: "range query at 60% selectivity (depth-bounds test), CPU vs GPU".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "GPU ~5.5x faster overall; ~40x faster compute-only \
                      (range costs the same as one predicate)"
            .into(),
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
    use crate::experiments::fig3_predicate;

    #[test]
    fn range_speedups_match_paper_shape() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }

    #[test]
    fn range_compute_close_to_single_predicate() {
        // §4.2: "the computational time for our algorithm in evaluating
        // Range is comparable to the time required in evaluating a single
        // predicate."
        let range = run(Scale::Small).unwrap();
        let pred = fig3_predicate::run(Scale::Small).unwrap();
        let r = range.series("GPU compute-only (modeled)").unwrap().last_y();
        let p = pred.series("GPU compute-only (modeled)").unwrap().last_y();
        assert!(
            (r / p - 1.0).abs() < 0.25,
            "range compute {r} ms vs predicate compute {p} ms"
        );
    }
}
