//! Figure 9: "Time taken to compute the K-th largest number by the two
//! implementations" with 80% selectivity (§5.9 Test 3): "KthLargest with
//! 80% selectivity requires exactly the same amount of time as performing
//! KthLargest with 100% selectivity" — the GPU's stencil mask is free and
//! the masked run ranks among the selection's own count, so its modeled
//! time equals the unmasked run's at every size — while the CPU baseline
//! must first copy "the valid data into an array" before running
//! QuickSelect.

use crate::harness::{cpu_model, ms, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::aggregate::median;
use gpudb_core::predicate::compare_select;
use gpudb_core::EngineResult;
use gpudb_cpu::quickselect;
use gpudb_data::selectivity::threshold_for_ge;
use gpudb_sim::CompareFunc;

/// Run the Figure 9 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let cpu = cpu_model();
    let mut gpu_masked = Series::new("GPU median @80% selectivity (modeled)");
    let mut gpu_full = Series::new("GPU median @100% selectivity (modeled)");
    let mut cpu_modeled = Series::new("CPU extract + QuickSelect (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU extract + QuickSelect wall-clock");
    let mut identical = true;

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let values = w.dataset.columns[0].values.clone();
        let (threshold, _) = threshold_for_ge(&values, 0.8).expect("non-empty");

        // Build the 80% selection outside the timed region (both the paper
        // and we measure only the order-statistic computation).
        let selection = compare_select(
            &mut w.gpu,
            &w.table,
            0,
            CompareFunc::GreaterEqual,
            threshold,
        )?;

        let (gpu_value, masked_timing) =
            w.time(|gpu, table| median(gpu, table, 0, Some(&selection)));
        let gpu_value = gpu_value?;
        let (full, full_timing) = w.time(|gpu, table| median(gpu, table, 0, None));
        full?;
        identical &= masked_timing == full_timing;

        // CPU: copy the selected values out, then QuickSelect (§5.9).
        let mask = gpudb_cpu::scan::scan_u32(&values, gpudb_cpu::CmpOp::Ge, threshold);
        let ((cpu_value, stats, extracted), cpu_secs) = wall_seconds(3, || {
            let extracted = gpudb_cpu::aggregate::extract_masked(&values, &mask);
            let k_smallest = extracted.len().div_ceil(2);
            let (v, stats) =
                quickselect::kth_largest_instrumented(&extracted, extracted.len() + 1 - k_smallest);
            (v, stats, extracted.len())
        });
        assert_eq!(extracted as u64, selection.matched());
        assert_eq!(Some(gpu_value), cpu_value, "masked median mismatch");

        gpu_masked.push(records as f64, ms(masked_timing.total()));
        gpu_full.push(records as f64, ms(full_timing.total()));
        cpu_modeled.push(
            records as f64,
            (cpu.extract_seconds(records) + cpu.select_seconds(&stats)) * 1e3,
        );
        cpu_wall.push(records as f64, cpu_secs * 1e3);
    }

    // The headline claim: masked and unmasked GPU runs cost exactly the
    // same, phase by phase, at every size.
    let ratio = gpu_masked.last_y() / gpu_full.last_y();

    Ok(FigureResult {
        id: "fig9".into(),
        title: "median at 80% selectivity: stencil mask vs extract-and-select".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "GPU time with 80% selectivity identical to 100%; CPU pays an \
                      extraction copy on top of QuickSelect"
            .into(),
        observed: format!(
            "masked/unmasked GPU ratio {ratio:.3}; CPU pays an extra {:.3} ms extraction \
             copy at the largest size",
            cpu.extract_seconds(scale.max_records()) * 1e3
        ),
        shape_holds: identical,
        series: vec![gpu_masked, gpu_full, cpu_modeled, cpu_wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masked_gpu_run_costs_like_unmasked() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        assert_eq!(fig.series[0].points, fig.series[1].points);
    }
}
