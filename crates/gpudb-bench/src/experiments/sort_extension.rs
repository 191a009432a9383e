//! Extension: bitonic sort on the GPU — the paper's §7 future work and
//! its §2.2 assessment that Purcell-style bitonic sorting "can be quite
//! slow for database operations on large databases".

use crate::harness::{ms, wall_seconds, SEED};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::metrics::observe;
use gpudb_core::sort::sort_values;
use gpudb_core::EngineResult;
use gpudb_data::tcpip;
use gpudb_sim::Gpu;

/// Power-of-two sweep sizes for the sort experiment.
fn sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Small => vec![1 << 12, 1 << 13, 1 << 14, 1 << 15],
        Scale::Paper => vec![1 << 16, 1 << 17, 1 << 18, 1 << 19, 1 << 20],
    }
}

/// Run the sort-extension experiment.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let max = *sizes(scale).last().expect("non-empty");
    let dataset = tcpip::generate(max, SEED);
    let all_values = &dataset.columns[0].values;

    let mut gpu_series = Series::new("GPU bitonic sort (modeled)");
    let mut pass_series = Series::new("compare-exchange passes (count, not ms)");
    let mut cpu_series = Series::new("CPU sort_unstable wall-clock");

    for n in sizes(scale) {
        let values = &all_values[..n];
        // Power-of-two grid sized for the run.
        let width = (n as f64).sqrt() as usize;
        let width = width.next_power_of_two().min(1024);
        let height = n.next_power_of_two().div_ceil(width).max(1);
        let mut gpu = Gpu::geforce_fx_5900(width, height);

        let (outcome, record) = observe(&mut gpu, "sort", n as u64, |gpu| sort_values(gpu, values));
        let outcome = outcome?;
        let (mut expected, cpu_secs) = wall_seconds(3, || values.to_vec());
        let (_, sort_secs) = wall_seconds(1, || expected.sort_unstable());
        assert_eq!(outcome.sorted, expected, "GPU sort mismatch at n = {n}");

        gpu_series.push(n as f64, ms(record.modeled_total_ns()));
        pass_series.push(n as f64, outcome.passes as f64);
        cpu_series.push(n as f64, (cpu_secs + sort_secs) * 1e3);
    }

    // O(n log^2 n): the pass count must grow as m(m+1)/2.
    let pass_ok = pass_series.points.iter().all(|&(x, passes)| {
        let m = (x as usize).next_power_of_two().trailing_zeros() as f64;
        (passes - m * (m + 1.0) / 2.0).abs() < 0.5
    });

    Ok(FigureResult {
        id: "ext_sort".into(),
        title: "bitonic merge sort on the GPU (future-work extension)".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "sorting needs m(m+1)/2 full-texture passes plus a copy per pass \
                      — 'quite slow for database operations on large databases'"
            .into(),
        observed: format!(
            "pass counts match m(m+1)/2 exactly; {:.1} ms modeled at n = {max}",
            gpu_series.last_y()
        ),
        shape_holds: pass_ok,
        series: vec![gpu_series, pass_series, cpu_series],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_extension_pass_counts() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }
}
