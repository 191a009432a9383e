//! Figure 2: "Plot indicating the time taken for copying data values in a
//! texture to the depth buffer." Expected shape: "an almost linear
//! increase in the time taken to perform the copy operation as a function
//! of the number of records."

use crate::harness::{ms, Workload};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::predicate::copy_to_depth;
use gpudb_core::EngineResult;

/// Run the Figure 2 reproduction.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    let mut modeled = Series::new("GPU copy-to-depth (modeled)");
    let mut wall = Series::new("simulator wall-clock");

    for records in scale.sweep() {
        let mut w = Workload::tcpip(records)?;
        let wall_before = w.gpu.stats().wall.total();
        let (copied, timing) = w.time(|gpu, table| copy_to_depth(gpu, table, 0));
        copied?;
        modeled.push(records as f64, ms(timing.copy_to_depth));
        wall.push(
            records as f64,
            (w.gpu.stats().wall.total() - wall_before) * 1e3,
        );
    }

    // Linearity check on the *marginal* cost between successive sizes:
    // differencing removes the constant per-pass driver overhead, which
    // the paper's plot (starting at large record counts) never resolves.
    let slopes: Vec<f64> = modeled
        .points
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) / (w[1].0 - w[0].0))
        .collect();
    let min = slopes.iter().copied().fold(f64::INFINITY, f64::min);
    let max = slopes.iter().copied().fold(0.0f64, f64::max);
    let linear = max / min < 1.1;

    Ok(FigureResult {
        id: "fig2".into(),
        title: "copy-to-depth time vs number of records".into(),
        x_label: "records".into(),
        y_label: "ms".into(),
        paper_claim: "almost linear increase with the number of records".into(),
        observed: format!(
            "marginal per-record cost varies only {:.1}% across the sweep \
             ({:.3} ms at {} records)",
            (max / min - 1.0) * 100.0,
            modeled.last_y(),
            scale.max_records()
        ),
        shape_holds: linear,
        series: vec![modeled, wall],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_time_is_linear() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
        let s = fig.series("GPU copy-to-depth (modeled)").unwrap();
        assert_eq!(s.points.len(), Scale::Small.sweep().len());
        // Strictly increasing.
        for pair in s.points.windows(2) {
            assert!(pair[1].1 > pair[0].1);
        }
    }
}
