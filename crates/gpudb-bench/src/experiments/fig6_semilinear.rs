//! Figure 6: "Execution time of a semi-linear query using four attributes
//! of the TCP/IP database. The GPU-based implementation is almost one
//! order of magnitude faster than the CPU-based implementation." (§5.8:
//! "the GPU timings are 9 times faster".)

use crate::harness::{cpu_model, ms, speedup, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::semilinear::semilinear_select;
use gpudb_core::EngineResult;
use gpudb_sim::CompareFunc;

/// The "four random floating-point values" of §5.8 (fixed for
/// reproducibility) and the "arbitrary value" compared against.
pub const COEFFS: [f32; 4] = [0.375, -1.25, 2.5, 0.8125];

/// Run the Figure 6 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let cpu = cpu_model();
    let mut gpu_series = Series::new("GPU semi-linear (modeled)");
    let mut cpu_modeled = Series::new("CPU dot-product scan (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU scan wall-clock (this host)");

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let host: Vec<Vec<u32>> = w.dataset.columns.iter().map(|c| c.values.clone()).collect();
        let refs: Vec<&[u32]> = host.iter().map(|v| v.as_slice()).collect();
        // Pick b near the median of the dot product so the query is
        // non-degenerate.
        let mut dots: Vec<f32> = (0..records)
            .map(|i| gpudb_cpu::semilinear::dot_f32(&refs, &COEFFS, i))
            .collect();
        dots.sort_by(f32::total_cmp);
        let b = dots[records / 2];

        let (selected, timing) = w.time(|gpu, table| {
            semilinear_select(gpu, table, &COEFFS, CompareFunc::GreaterEqual, b)
        });
        let count = selected?.matched();
        let (bm, cpu_secs) = wall_seconds(3, || {
            gpudb_cpu::semilinear::semilinear_scan(&refs, &COEFFS, gpudb_cpu::CmpOp::Ge, b)
        });
        assert_eq!(bm.count_ones() as u64, count, "GPU/CPU result mismatch");

        gpu_series.push(records as f64, ms(timing.total()));
        cpu_modeled.push(records as f64, cpu.semilinear_seconds(records, 4) * 1e3);
        cpu_wall.push(records as f64, cpu_secs * 1e3);
    }

    let factor = speedup(cpu_modeled.last_y(), gpu_series.last_y());
    let holds = (5.0..15.0).contains(&factor);

    Ok(FigureResult {
        id: "fig6".into(),
        title: "semi-linear query over four attributes, CPU vs GPU".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "GPU ~9x faster (no copy-to-depth needed at all)".into(),
        observed: format!("GPU {factor:.1}x faster"),
        shape_holds: holds,
        series: vec![gpu_series, cpu_modeled, cpu_wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn semilinear_speedup_matches_paper_shape() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        // No copy phase: semi-linear queries read the texture directly.
        let gpu = fig.series("GPU semi-linear (modeled)").unwrap();
        assert!(gpu.points.iter().all(|&(_, y)| y > 0.0));
    }
}
