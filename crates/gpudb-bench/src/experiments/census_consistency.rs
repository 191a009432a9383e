//! §5.1: "The census database consists of 360K records. [...] We have
//! benchmarked our algorithms using the TCP/IP database. Our performance
//! results on the census data are consistent with the results obtained on
//! the TCP/IP database."
//!
//! This experiment re-runs the predicate and range measurements on the
//! census workload and checks that the speedup factors agree with the
//! TCP/IP ones within a modest tolerance.

use crate::harness::{cpu_model, ms, speedup, Workload, SEED};
use crate::report::{FigureResult, Scale, Series};
use gpudb_core::predicate::compare_select;
use gpudb_core::range::range_select;
use gpudb_core::EngineResult;
use gpudb_data::selectivity::{range_for_selectivity, threshold_for_ge};
use gpudb_data::{census, tcpip};
use gpudb_sim::CompareFunc;

/// Speedup factors for one dataset at one size.
struct Factors {
    predicate_total: f64,
    range_total: f64,
}

fn factors_for(dataset: gpudb_data::Dataset, column: usize) -> EngineResult<Factors> {
    let cpu = cpu_model();
    let records = dataset.record_count();
    let values = dataset.columns[column].values.clone();
    let mut w = Workload::from_dataset(dataset)?;

    let (threshold, _) = threshold_for_ge(&values, 0.6).expect("non-empty");
    let (selected, pred_timing) = w.time(|gpu, table| {
        compare_select(gpu, table, column, CompareFunc::GreaterEqual, threshold)
    });
    selected?;
    let (low, high, _) = range_for_selectivity(&values, 0.6).expect("non-empty");
    let (selected, range_timing) = w.time(|gpu, table| range_select(gpu, table, column, low, high));
    selected?;

    Ok(Factors {
        predicate_total: speedup(cpu.scan_seconds(records) * 1e3, ms(pred_timing.total())),
        range_total: speedup(cpu.range_seconds(records) * 1e3, ms(range_timing.total())),
    })
}

/// Run the census-consistency check.
pub fn run(scale: Scale) -> EngineResult<FigureResult> {
    // The paper's census table is 360K records; scale Small shrinks it.
    let census_records = match scale {
        Scale::Small => 90_000,
        Scale::Paper => census::PAPER_RECORD_COUNT,
    };
    let tcpip_records = scale.max_records();

    let tcpip_factors = factors_for(tcpip::generate(tcpip_records, SEED), 0)?;
    let census_factors = factors_for(census::generate(census_records, SEED), 0)?;

    let mut pred = Series::new("predicate speedup (GPU vs modeled CPU)");
    pred.push(1.0, tcpip_factors.predicate_total);
    pred.push(2.0, census_factors.predicate_total);
    let mut range = Series::new("range speedup (GPU vs modeled CPU)");
    range.push(1.0, tcpip_factors.range_total);
    range.push(2.0, census_factors.range_total);

    let pred_ratio = census_factors.predicate_total / tcpip_factors.predicate_total;
    let range_ratio = census_factors.range_total / tcpip_factors.range_total;
    // "Consistent": the same speedups within ±40% despite the different
    // record count, distribution and bit widths.
    let holds = (0.6..1.67).contains(&pred_ratio) && (0.6..1.67).contains(&range_ratio);

    Ok(FigureResult {
        id: "census".into(),
        title: "census workload consistency check (§5.1)".into(),
        x_label: "dataset (1 = tcpip, 2 = census)".into(),
        y_label: "speedup factor (not ms)".into(),
        paper_claim: "performance results on the census data are consistent with the \
                      TCP/IP database"
            .into(),
        observed: format!(
            "predicate speedup {0:.1}x (tcpip) vs {1:.1}x (census); range {2:.1}x vs {3:.1}x",
            tcpip_factors.predicate_total,
            census_factors.predicate_total,
            tcpip_factors.range_total,
            census_factors.range_total
        ),
        shape_holds: holds,
        series: vec![pred, range],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_results_consistent_with_tcpip() {
        let fig = run(Scale::Small).unwrap();
        assert!(fig.shape_holds, "{}", fig.observed);
    }
}
