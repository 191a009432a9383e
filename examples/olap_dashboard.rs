//! OLAP roll-ups and out-of-core execution — the paper's §7 future work
//! ("OLAP and data mining tasks such as data cube roll up and
//! drill-down") and §6.1 memory management, on the census workload.
//!
//! ```sh
//! cargo run --release --example olap_dashboard
//! ```

use gpudb::core::metrics::observe;
use gpudb::core::olap::{self, GroupAggregate};
use gpudb::core::out_of_core::ChunkedTable;
use gpudb::core::query::AggValue;
use gpudb::prelude::*;

fn bar(count: u64, max: u64, width: usize) -> String {
    let filled = ((count as f64 / max.max(1) as f64) * width as f64).round() as usize;
    "#".repeat(filled.min(width))
}

fn main() -> EngineResult<()> {
    let records = 120_000;
    println!("generating census table: {records} records");
    let data = gpudb::data::census::generate(records, 1990);
    let cols: Vec<(&str, &[u32])> = data
        .columns
        .iter()
        .map(|c| (c.name.as_str(), c.values.as_slice()))
        .collect();
    let mut gpu = GpuTable::device_for(records, 600);
    let table = GpuTable::upload(&mut gpu, "census", &cols)?;
    let income = table.column_index("monthly_income")?;
    let household = table.column_index("household_size")?;

    // --- Income histogram: one copy + one depth-bounds pass per bucket ---
    let (buckets, timing) = observe(&mut gpu, "histogram", records as u64, |gpu| {
        olap::histogram(gpu, &table, income, &olap::equi_width_edges(0, 12_000, 12)).unwrap()
    });
    let max_count = buckets.iter().map(|b| b.count).max().unwrap_or(1);
    println!(
        "\nmonthly income histogram (modeled {:.3} ms for {} buckets):",
        timing.modeled_ms(),
        buckets.len()
    );
    for b in &buckets {
        println!(
            "  {:>5}-{:>5} {:>7} {}",
            b.low,
            b.high,
            b.count,
            bar(b.count, max_count, 40)
        );
    }

    // --- GROUP BY household_size: the data-cube roll-up ---
    let rollup =
        olap::group_by_aggregate(&mut gpu, &table, household, income, GroupAggregate::Avg)?;
    let counts = olap::group_by_count(&mut gpu, &table, household)?;
    println!("\nGROUP BY household_size -> COUNT(*), AVG(monthly_income):");
    println!(
        "  {:<16} {:>8} {:>12}",
        "household_size", "count", "avg income"
    );
    for ((size, avg), (_, count)) in rollup.iter().zip(&counts) {
        let avg = match avg {
            AggValue::Avg(v) => *v,
            other => panic!("unexpected {other:?}"),
        };
        println!("  {size:<16} {count:>8} {avg:>12.2}");
    }

    // --- Out-of-core: the same dataset, but streamed through a device
    //     whose framebuffer only holds 20k records at a time (§6.1) ---
    println!("\nout-of-core pass (20k-record chunks through a small device):");
    let chunked = ChunkedTable::new("census_stream", cols.clone(), 20_000)?;
    let mut small_gpu = chunked.device_for_chunks(200);
    let rich = chunked.count(&mut small_gpu, income, CompareFunc::GreaterEqual, 8_000)?;
    let total_income = chunked.sum(&mut small_gpu, income)?;
    let median_income = chunked.median(&mut small_gpu, income)?;
    println!(
        "  {} chunks | income >= 8000: {rich} | total income: {total_income} | \
         median: {median_income}",
        chunked.chunk_count()
    );
    println!(
        "  bytes swapped over AGP: {:.1} MB (modeled {:.3} ms of bus time)",
        small_gpu.stats().bytes_uploaded as f64 / (1 << 20) as f64,
        small_gpu.stats().modeled.upload as f64 / 1e6,
    );

    // Verify against the whole-table run.
    let (_, rich_whole) =
        compare_select(&mut gpu, &table, income, CompareFunc::GreaterEqual, 8_000)?;
    assert_eq!(rich, rich_whole);
    assert_eq!(
        total_income,
        aggregate::sum(&mut gpu, &table, income, None)?
    );
    assert_eq!(
        median_income,
        aggregate::median(&mut gpu, &table, income, None)?
    );
    println!("\nout-of-core results match the in-core run ✓");
    Ok(())
}
