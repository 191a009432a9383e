//! Figure 8: "Time taken to compute the median using KthLargest and
//! QuickSelect on varying number of records." §5.9 Test 2: "KthLargest on
//! the GPU is nearly twice as fast as QuickSelect on the CPU. Considering
//! only the computational times [...] nearly 2.5 times faster."

use crate::harness::{cpu_model, ms, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::aggregate::median;
use gpudb_core::EngineResult;
use gpudb_cpu::quickselect;

/// Run the Figure 8 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let cpu = cpu_model();
    let mut gpu_total = Series::new("GPU median total (modeled)");
    let mut gpu_compute = Series::new("GPU median compute-only (modeled)");
    let mut cpu_modeled = Series::new("CPU QuickSelect median (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU QuickSelect wall-clock (this host)");

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let values = w.dataset.columns[0].values.clone();

        let (gpu_value, timing) = w.time(|gpu, table| median(gpu, table, 0, None));
        let gpu_value = gpu_value?;
        let k_smallest = records.div_ceil(2);
        let ((cpu_value, stats), cpu_secs) = wall_seconds(3, || {
            quickselect::kth_largest_instrumented(&values, records + 1 - k_smallest)
        });
        assert_eq!(Some(gpu_value), cpu_value, "median mismatch at {records}");

        gpu_total.push(records as f64, ms(timing.total()));
        gpu_compute.push(records as f64, ms(timing.compute_only()));
        cpu_modeled.push(records as f64, cpu.select_seconds(&stats) * 1e3);
        cpu_wall.push(records as f64, cpu_secs * 1e3);
    }

    let factor = cpu_modeled.last_y() / gpu_total.last_y();
    let band = match scale {
        Scale::Small => 0.5..4.5,
        Scale::Paper => 1.2..4.5,
    };
    let holds = band.contains(&factor);

    Ok(FigureResult {
        id: "fig8".into(),
        title: "median via KthLargest vs QuickSelect, varying record count".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "GPU ~2x faster than QuickSelect (~2.5x compute-only)".into(),
        observed: format!("GPU {factor:.1}x faster at the largest size"),
        shape_holds: holds,
        series: vec![gpu_total, gpu_compute, cpu_modeled, cpu_wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_scaling_matches_paper_shape() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        // Both sides grow with record count.
        for label in [
            "GPU median total (modeled)",
            "CPU QuickSelect median (modeled Xeon)",
        ] {
            let s = fig.series(label).unwrap();
            assert!(
                s.points.last().unwrap().1 > s.points.first().unwrap().1,
                "{label} did not grow"
            );
        }
    }
}
