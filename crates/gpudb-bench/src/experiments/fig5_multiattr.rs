//! Figure 5: "Execution time of a multi-attribute query with 60%
//! selectivity for each attribute and a combination of AND operator.
//! Time_i is the time to perform a query with i attributes." The paper:
//! "the GPU implementation is nearly 2 times faster than the CPU
//! implementation. If we consider only the computational times [...] the
//! GPU is nearly 20 times faster."

use crate::harness::{cpu_model, ms, speedup, wall_seconds, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::boolean::{eval_cnf_select, GpuCnf, GpuPredicate};
use gpudb_core::EngineResult;
use gpudb_data::selectivity::threshold_for_ge;
use gpudb_sim::CompareFunc;

/// Run the Figure 5 reproduction: x-axis = number of AND-ed attributes.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let records = scale.max_records();
    let cpu = cpu_model();
    let mut w = Workload::tcpip(records)?;
    // Per-attribute thresholds at 60% selectivity.
    let thresholds: Vec<u32> = (0..4)
        .map(|c| {
            threshold_for_ge(&w.dataset.columns[c].values, 0.6)
                .expect("non-empty")
                .0
        })
        .collect();
    let host: Vec<Vec<u32>> = w.dataset.columns.iter().map(|c| c.values.clone()).collect();

    let mut gpu_total = Series::new("GPU total (modeled)");
    let mut gpu_compute = Series::new("GPU compute-only (modeled)");
    let mut cpu_modeled = Series::new("CPU SIMD CNF (modeled Xeon)");
    let mut cpu_wall = Series::new("CPU CNF wall-clock (this host)");

    for attrs in 1..=4usize {
        let preds: Vec<GpuPredicate> = (0..attrs)
            .map(|c| GpuPredicate::new(c, CompareFunc::GreaterEqual, thresholds[c]))
            .collect();
        let cnf = GpuCnf::all_of(preds);
        let (selected, timing) = w.time(|gpu, table| eval_cnf_select(gpu, table, &cnf, true));
        let count = selected?.matched();

        let cpu_cnf = gpudb_cpu::Cnf::all_of(
            (0..attrs)
                .map(|c| gpudb_cpu::Predicate::new(c, gpudb_cpu::CmpOp::Ge, thresholds[c]))
                .collect(),
        );
        let refs: Vec<&[u32]> = host.iter().map(|v| v.as_slice()).collect();
        let (bm, cpu_secs) = wall_seconds(3, || gpudb_cpu::cnf::eval_cnf(&refs, &cpu_cnf));
        assert_eq!(bm.count_ones() as u64, count, "GPU/CPU result mismatch");

        gpu_total.push(attrs as f64, ms(timing.total()));
        gpu_compute.push(attrs as f64, ms(timing.compute_only()));
        cpu_modeled.push(attrs as f64, cpu.cnf_seconds(records, attrs, attrs) * 1e3);
        cpu_wall.push(attrs as f64, cpu_secs * 1e3);
    }

    let total_factor = speedup(cpu_modeled.last_y(), gpu_total.last_y());
    let compute_factor = speedup(cpu_modeled.last_y(), gpu_compute.last_y());
    let holds = (1.5..5.0).contains(&total_factor) && (8.0..40.0).contains(&compute_factor);

    Ok(FigureResult {
        id: "fig5".into(),
        title: format!(
            "multi-attribute AND query, 60% selectivity per attribute, {records} records"
        ),
        x_label: "attributes".into(),
        y_label: "ms".into(),
        paper_claim: "GPU ~2x faster overall; ~20x faster compute-only; \
                      time scales linearly with attribute count"
            .into(),
        observed: format!(
            "at 4 attributes: GPU {total_factor:.1}x overall, {compute_factor:.1}x compute-only"
        ),
        shape_holds: holds,
        series: vec![gpu_total, gpu_compute, cpu_modeled, cpu_wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiattr_speedups_match_paper_shape() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        // Both sides scale roughly linearly in the attribute count.
        let gpu = fig.series("GPU total (modeled)").unwrap();
        let t1 = gpu.points[0].1;
        let t4 = gpu.points[3].1;
        assert!((3.0..5.5).contains(&(t4 / t1)), "GPU scaling {}", t4 / t1);
    }
}
