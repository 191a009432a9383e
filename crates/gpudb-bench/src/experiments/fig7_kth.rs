//! Figure 7: "Time to compute k-th largest number on the data_count
//! attribute. We used a portion of the TCP/IP database with nearly 250K
//! records." Key observations (§5.9 Test 1): "time taken by KthLargest is
//! constant irrespective of the value of k", "GPU timings for our
//! algorithm are nearly twice as fast in comparison to the CPU
//! implementation", and compute-only "3 times faster than QuickSelect".

use crate::harness::{cpu_model, ms, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::aggregate::kth_largest;
use gpudb_core::EngineResult;
use gpudb_cpu::quickselect;

/// Run the Figure 7 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let records = scale.kth_records();
    let cpu = cpu_model();
    let mut w = Workload::tcpip(records)?;
    let values = w.dataset.columns[0].values.clone();

    let ks: Vec<usize> = [1usize, 10, 100, 1_000, records / 10, records / 2, records]
        .into_iter()
        .filter(|&k| k >= 1 && k <= records)
        .collect();

    let mut gpu_total = Series::new("GPU KthLargest total (modeled)");
    let mut gpu_compute = Series::new("GPU KthLargest compute-only (modeled)");
    let mut cpu_modeled = Series::new("CPU QuickSelect (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU QuickSelect wall-clock (this host)");

    for &k in &ks {
        let (gpu_value, timing) = w.time(|gpu, table| kth_largest(gpu, table, 0, k, None));
        let gpu_value = gpu_value?;
        let ((cpu_value, stats), cpu_secs) =
            wall_seconds(3, || quickselect::kth_largest_instrumented(&values, k));
        assert_eq!(Some(gpu_value), cpu_value, "k = {k}: GPU/CPU disagree");

        gpu_total.push(k as f64, ms(timing.total()));
        gpu_compute.push(k as f64, ms(timing.compute_only()));
        cpu_modeled.push(k as f64, cpu.select_seconds(&stats) * 1e3);
        cpu_wall.push(k as f64, cpu_secs * 1e3);
    }

    // Flatness: GPU time must be independent of k.
    let gpu_ys: Vec<f64> = gpu_total.points.iter().map(|&(_, y)| y).collect();
    let gmin = gpu_ys.iter().copied().fold(f64::INFINITY, f64::min);
    let gmax = gpu_ys.iter().copied().fold(0.0f64, f64::max);
    let flat = gmax / gmin < 1.05;

    let cpu_avg =
        cpu_modeled.points.iter().map(|&(_, y)| y).sum::<f64>() / cpu_modeled.points.len() as f64;
    let gpu_avg = gpu_ys.iter().sum::<f64>() / gpu_ys.len() as f64;
    let factor = cpu_avg / gpu_avg;
    // The sync-readback overhead per pass dominates at sub-paper sizes, so
    // the acceptance band widens for Scale::Small.
    let band = match scale {
        // Sub-paper sizes are dominated by the per-pass sync latency; the
        // GPU may even lose narrowly. At paper scale the fill cost
        // amortizes it.
        Scale::Small => 0.3..4.0,
        Scale::Paper => 1.2..4.0,
    };
    let holds = flat && band.contains(&factor);

    Ok(FigureResult {
        id: "fig7".into(),
        title: format!("k-th largest vs k on data_count, {records} records"),
        x_label: "k".into(),
        y_label: "ms".into(),
        paper_claim: "GPU time constant in k; on average ~2x faster than QuickSelect \
                      (~3x compute-only)"
            .into(),
        observed: format!(
            "GPU flat within {:.1}%; avg {factor:.1}x faster than modeled QuickSelect",
            (gmax / gmin - 1.0) * 100.0
        ),
        shape_holds: holds,
        series: vec![gpu_total, gpu_compute, cpu_modeled, cpu_wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kth_is_flat_in_k() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        let gpu = fig.series("GPU KthLargest total (modeled)").unwrap();
        // QuickSelect's cost *does* vary with k (pivot luck), the GPU's
        // must not.
        let ys: Vec<f64> = gpu.points.iter().map(|&(_, y)| y).collect();
        let spread = ys.iter().copied().fold(0.0f64, f64::max)
            / ys.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.05, "spread {spread}");
    }
}
