//! Quickstart: upload a table, run the paper's primitives, read results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gpudb::core::metrics::observe;
use gpudb::prelude::*;

fn main() -> EngineResult<()> {
    // 50k records, one attribute: response latency in microseconds.
    let latencies: Vec<u32> = (0..50_000u32)
        .map(|i| (i.wrapping_mul(2654435761) >> 8) % 20_000)
        .collect();

    // Size a simulated GeForce FX so its framebuffer covers the records.
    let mut gpu = GpuTable::device_for(latencies.len(), 500);
    let table = GpuTable::upload(&mut gpu, "requests", &[("latency_us", &latencies)])?;
    println!(
        "uploaded {} records onto a {}x{} device ({} bytes of VRAM)",
        table.record_count(),
        gpu.width(),
        gpu.height(),
        gpu.vram_used()
    );

    // Predicate via the depth test (Routine 4.1): latency >= 15ms.
    let n = latencies.len() as u64;
    let (sel, timing) = observe(&mut gpu, "predicate", n, |gpu| {
        compare_select(gpu, &table, 0, CompareFunc::GreaterEqual, 15_000).unwrap()
    });
    let count = sel.matched();
    println!(
        "\nSELECT COUNT(*) WHERE latency_us >= 15000\n  -> {count} rows \
         ({:.1}% selectivity), modeled GPU time {:.3} ms ({:.3} ms compute-only)",
        100.0 * count as f64 / latencies.len() as f64,
        timing.modeled_ms(),
        timing.modeled_ns.compute_only() as f64 / 1e6,
    );

    // Aggregates over the selection: the stencil buffer is the mask.
    let p99_slow = aggregate::percentile(&mut gpu, &table, 0, 0.99, Some(&sel))?;
    let avg_slow = aggregate::avg(&mut gpu, &table, 0, Some(&sel))?;
    println!("  p99 of the slow set: {p99_slow} us; mean {avg_slow:.1} us");

    // Range query in a single pass via the depth-bounds test (Routine 4.4).
    let (in_band, timing) = observe(&mut gpu, "range", n, |gpu| {
        range_select(gpu, &table, 0, 1_000, 5_000)
            .unwrap()
            .matched()
    });
    println!(
        "\nSELECT COUNT(*) WHERE latency_us BETWEEN 1000 AND 5000\n  -> {in_band} rows, \
         modeled {:.3} ms (one pass, not two)",
        timing.modeled_ms()
    );

    // Order statistics without sorting (Routine 4.5).
    let median = aggregate::median(&mut gpu, &table, 0, None)?;
    let k100 = aggregate::kth_largest(&mut gpu, &table, 0, 100, None)?;
    println!("\nmedian latency: {median} us; 100th-largest: {k100} us");

    // Exact SUM via the bitwise accumulator (Routine 4.6).
    let total = aggregate::sum(&mut gpu, &table, 0, None)?;
    let expected: u64 = latencies.iter().map(|&v| v as u64).sum();
    assert_eq!(total, expected);
    println!("total latency: {total} us (exact, verified against the CPU)");

    // Or drive everything through the SQL-ish layer.
    let stmt = gpudb::core::query::parse(
        "SELECT COUNT(*), MEDIAN(latency_us), MAX(latency_us) FROM requests \
         WHERE latency_us BETWEEN 100 AND 10000",
    )?;
    let out = gpudb::core::query::execute(&mut gpu, &table, &stmt.query)?;
    println!("\nSQL layer:");
    for (label, value) in &out.rows {
        println!("  {label} = {value:?}");
    }
    println!(
        "  ({} rows matched, modeled {:.3} ms)",
        out.matched,
        out.timing.total() as f64 / 1e6
    );
    Ok(())
}
