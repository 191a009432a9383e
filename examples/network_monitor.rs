//! Network traffic monitoring — the paper's primary workload (§5.1).
//!
//! Loads a synthetic TCP/IP trace with the paper's schema
//! `(data_count, data_loss, flow_rate, retransmissions)` and answers the
//! kinds of monitoring questions the paper benchmarks: multi-attribute
//! selections, selectivity analysis, and order statistics — verifying
//! every GPU answer against the optimized CPU baseline.
//!
//! ```sh
//! cargo run --release --example network_monitor [record_count]
//! ```

use gpudb::core::metrics::observe;
use gpudb::cpu;
use gpudb::data::{selectivity, tcpip};
use gpudb::prelude::*;

fn main() -> EngineResult<()> {
    let records: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    println!("generating synthetic TCP/IP trace: {records} records x 4 attributes");
    let trace = tcpip::generate(records, 2004);
    let cols: Vec<(&str, &[u32])> = trace
        .columns
        .iter()
        .map(|c| (c.name.as_str(), c.values.as_slice()))
        .collect();
    let raw: Vec<&[u32]> = trace.column_slices();

    let mut gpu = GpuTable::device_for(records, 1000);
    let table = GpuTable::upload(&mut gpu, "tcpip", &cols)?;
    println!(
        "device: {} | VRAM in use: {:.1} MB",
        gpu.profile().name,
        gpu.vram_used() as f64 / (1 << 20) as f64
    );

    // --- 1. Heavy-hitter flows: data_count above its 95th percentile ---
    let threshold = selectivity::percentile(raw[0], 0.95).unwrap();
    let n = records as u64;
    let (sel, t) = observe(&mut gpu, "heavy-hitters", n, |gpu| {
        compare_select(gpu, &table, 0, CompareFunc::GreaterEqual, threshold).unwrap()
    });
    let count = sel.matched();
    let cpu_count = cpu::scan::count_u32(raw[0], cpu::CmpOp::Ge, threshold) as u64;
    assert_eq!(count, cpu_count);
    println!(
        "\n[heavy hitters] data_count >= {threshold}: {count} flows \
         (modeled GPU {:.3} ms, {:.3} ms compute-only)",
        t.modeled_ms(),
        t.modeled_ns.compute_only() as f64 / 1e6
    );
    let worst = aggregate::max(&mut gpu, &table, 3, Some(&sel))?;
    println!("  max retransmissions among heavy hitters: {worst}");

    // --- 2. Multi-attribute health check (Figure 5 shape) ---
    let cnf = GpuCnf::all_of(vec![
        GpuPredicate::new(1, CompareFunc::Greater, 0), // lossy
        GpuPredicate::new(3, CompareFunc::GreaterEqual, 4), // retransmitting
        GpuPredicate::new(2, CompareFunc::GreaterEqual, 1000), // busy
    ]);
    let (unhealthy, t) = observe(&mut gpu, "health", n, |gpu| {
        gpudb::core::boolean::eval_cnf_select(gpu, &table, &cnf, true)
            .unwrap()
            .matched()
    });
    let cpu_cnf = cpu::Cnf::all_of(vec![
        cpu::Predicate::new(1, cpu::CmpOp::Gt, 0),
        cpu::Predicate::new(3, cpu::CmpOp::Ge, 4),
        cpu::Predicate::new(2, cpu::CmpOp::Ge, 1000),
    ]);
    let cpu_unhealthy = cpu::cnf::eval_cnf(&raw, &cpu_cnf).count_ones() as u64;
    assert_eq!(unhealthy, cpu_unhealthy);
    println!(
        "\n[health] lossy AND retransmitting AND busy: {unhealthy} flows \
         ({:.2}% selectivity, modeled {:.3} ms)",
        100.0 * unhealthy as f64 / records as f64,
        t.modeled_ms()
    );

    // --- 3. Range query on flow_rate at 60% selectivity (Figure 4 setup) ---
    let (low, high, achieved) = selectivity::range_for_selectivity(raw[2], 0.6).unwrap();
    let (in_range, t) = observe(&mut gpu, "range", n, |gpu| {
        range_select(gpu, &table, 2, low, high).unwrap().matched()
    });
    assert_eq!(
        in_range,
        cpu::cnf::eval_range(raw[2], low, high).count_ones() as u64
    );
    println!(
        "\n[range] flow_rate in [{low}, {high}] (target 60%, achieved {:.1}%): \
         {in_range} flows, modeled {:.3} ms in ONE depth-bounds pass",
        achieved * 100.0,
        t.modeled_ms()
    );

    // --- 4. Order statistics without sorting (Figures 7-8) ---
    let (median, t) = observe(&mut gpu, "median", n, |gpu| {
        aggregate::median(gpu, &table, 0, None).unwrap()
    });
    let cpu_median = cpu::quickselect::median(raw[0]).unwrap();
    assert_eq!(median, cpu_median);
    println!(
        "\n[order stats] median data_count = {median} \
         (GPU bit-descent {:.3} ms modeled; CPU QuickSelect agrees)",
        t.modeled_ms()
    );
    for k in [1usize, 10, 100] {
        let v = aggregate::kth_largest(&mut gpu, &table, 0, k, None)?;
        assert_eq!(v, cpu::quickselect::kth_largest(raw[0], k).unwrap());
        println!("  {k}-th largest data_count: {v}");
    }

    // --- 5. Exact aggregate totals (Figure 10's accumulator) ---
    let (total_loss, t) = observe(&mut gpu, "sum", n, |gpu| {
        aggregate::sum(gpu, &table, 1, None).unwrap()
    });
    assert_eq!(total_loss, cpu::aggregate::sum(raw[1]));
    println!(
        "\n[sum] total data_loss = {total_loss} (exact; {} occlusion passes, \
         modeled {:.3} ms — the one primitive where the paper's GPU loses)",
        table.column(1)?.bits,
        t.modeled_ms()
    );

    println!("\nall GPU results verified against the optimized CPU baseline ✓");
    Ok(())
}
