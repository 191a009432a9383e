//! Figure 10: "Time required to sum the values of an attribute by the CPU
//! and by the GPU-based Accumulator algorithm." §5.10: "our GPU algorithm
//! is nearly 20 times slower than the CPU implementation" — the one
//! primitive where the paper's GPU loses, due to the missing integer
//! arithmetic (§6.2.3).

use crate::harness::{cpu_model, ms, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::aggregate::sum;
use gpudb_core::EngineResult;

/// Run the Figure 10 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let cpu = cpu_model();
    let mut gpu_series = Series::new("GPU Accumulator (modeled)");
    let mut cpu_modeled = Series::new("CPU SIMD sum (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU sum wall-clock (this host)");

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let values = w.dataset.columns[0].values.clone();

        let (gpu_sum, timing) = w.time(|gpu, table| sum(gpu, table, 0, None));
        let gpu_sum = gpu_sum?;
        let (cpu_sum, cpu_secs) = wall_seconds(3, || gpudb_cpu::aggregate::sum(&values));
        assert_eq!(gpu_sum, cpu_sum, "SUM mismatch at {records} records");

        gpu_series.push(records as f64, ms(timing.total()));
        cpu_modeled.push(records as f64, cpu.sum_seconds(records) * 1e3);
        cpu_wall.push(records as f64, cpu_secs * 1e3);
    }

    // GPU is SLOWER: the factor is CPU-favoring.
    let slowdown = gpu_series.last_y() / cpu_modeled.last_y();
    let holds = (8.0..40.0).contains(&slowdown);

    Ok(FigureResult {
        id: "fig10".into(),
        title: "SUM: bitwise GPU Accumulator vs CPU".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "GPU ~20x SLOWER than the CPU (one shaded pass per bit, \
                      no integer arithmetic in the fragment processor)"
            .into(),
        observed: format!("GPU {slowdown:.1}x slower than the modeled CPU"),
        shape_holds: holds,
        series: vec![gpu_series, cpu_modeled, cpu_wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_loses_as_in_the_paper() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        // The GPU line is above the CPU line at every size.
        let gpu = fig.series("GPU Accumulator (modeled)").unwrap();
        let cpu = fig.series("CPU SIMD sum (modeled Xeon)").unwrap();
        for (g, c) in gpu.points.iter().zip(&cpu.points) {
            assert!(g.1 > c.1, "GPU {g:?} should exceed CPU {c:?}");
        }
    }
}
