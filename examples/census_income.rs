//! Census income analysis — the paper's second workload (§5.1: "a census
//! database consisting of monthly income information", 360K records).
//!
//! Demonstrates the SQL-ish query layer end-to-end on demographically
//! shaped data: filtered aggregates, medians and percentiles of income,
//! and the planner's range-query optimization.
//!
//! ```sh
//! cargo run --release --example census_income [record_count]
//! ```

use gpudb::core::query::{execute, parse, AggValue};
use gpudb::data::census;
use gpudb::prelude::*;

fn run(gpu: &mut Gpu, table: &GpuTable, sql: &str) -> EngineResult<()> {
    let stmt = parse(sql)?;
    let out = execute(gpu, table, &stmt.query)?;
    println!("\nsql> {sql}");
    for (label, value) in &out.rows {
        let rendered = match value {
            AggValue::Count(v) => format!("{v}"),
            AggValue::Sum(v) => format!("{v}"),
            AggValue::Avg(v) => format!("{v:.2}"),
            AggValue::Value(v) => format!("{v}"),
        };
        println!("  {label:<28} {rendered}");
    }
    println!(
        "  [{} rows matched, {:.1}% selectivity, modeled {:.3} ms \
         ({:.3} ms compute-only)]",
        out.matched,
        out.selectivity * 100.0,
        out.timing.total() as f64 / 1e6,
        out.timing.compute_only() as f64 / 1e6
    );
    Ok(())
}

fn main() -> EngineResult<()> {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(90_000);
    println!("generating synthetic census table: {records} records");
    let data = census::generate(records, 1990);
    let cols: Vec<(&str, &[u32])> = data
        .columns
        .iter()
        .map(|c| (c.name.as_str(), c.values.as_slice()))
        .collect();

    let mut gpu = GpuTable::device_for(records, 600);
    let table = GpuTable::upload(&mut gpu, "census", &cols)?;

    run(
        &mut gpu,
        &table,
        "SELECT COUNT(*), MEDIAN(monthly_income), AVG(monthly_income) FROM census",
    )?;

    // Working-age full-timers: multi-attribute CNF.
    run(
        &mut gpu,
        &table,
        "SELECT COUNT(*), MEDIAN(monthly_income), MAX(monthly_income) FROM census \
         WHERE age >= 25 AND age <= 54 AND weekly_hours >= 35",
    )?;

    // The planner turns BETWEEN into a single depth-bounds pass.
    run(
        &mut gpu,
        &table,
        "SELECT COUNT(*), AVG(weekly_hours) FROM census \
         WHERE monthly_income BETWEEN 2000 AND 6000",
    )?;

    // Top earners: order statistics over a filtered population.
    run(
        &mut gpu,
        &table,
        "SELECT KTH_LARGEST(monthly_income, 100), KTH_SMALLEST(monthly_income, 100) \
         FROM census WHERE household_size >= 3",
    )?;

    // Negation handled by operator inversion (no NOT in the CNF).
    run(
        &mut gpu,
        &table,
        "SELECT COUNT(*), SUM(monthly_income) FROM census \
         WHERE NOT (weekly_hours = 0) AND age < 30",
    )?;

    // Income inequality snapshot via percentiles (direct API).
    println!("\nincome distribution (direct aggregate API):");
    for p in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        let idx = table.column_index("monthly_income")?;
        let v = aggregate::percentile(&mut gpu, &table, idx, p, None)?;
        println!("  p{:<4} {v}", (p * 100.0) as u32);
    }
    Ok(())
}
