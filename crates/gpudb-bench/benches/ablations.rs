//! Criterion benchmarks for the ablation comparisons: mipmap vs bitwise
//! SUM, depth-bounds range vs general EvalCNF, the conjunction fast path
//! vs Routine 4.3, and the bitonic sort extension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpudb_bench::harness::Workload;
use gpudb_core::aggregate::{mipmap_sum, sum};
use gpudb_core::boolean::{eval_cnf_general_select, eval_conjunction_select, GpuCnf, GpuPredicate};
use gpudb_core::range::range_select;
use gpudb_core::sort::sort_values;
use gpudb_data::selectivity::{range_for_selectivity, threshold_for_ge};
use gpudb_sim::{CompareFunc, Gpu};
use std::time::Duration;

fn bench_sum_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_sum_strategy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 16_384;
    let mut w = Workload::tcpip(n).unwrap();
    group.bench_function("bitwise_accumulator", |b| {
        b.iter(|| {
            let table = &w.table;
            sum(&mut w.gpu, table, 0, None).unwrap()
        })
    });
    group.bench_function("float_mipmap", |b| {
        b.iter(|| {
            let table = &w.table;
            mipmap_sum(&mut w.gpu, table, 0).unwrap()
        })
    });
    group.finish();
}

fn bench_range_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_range_strategy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 16_384;
    let mut w = Workload::tcpip(n).unwrap();
    let values = w.dataset.columns[0].values.clone();
    let (low, high, _) = range_for_selectivity(&values, 0.6).unwrap();
    group.bench_function("depth_bounds", |b| {
        b.iter(|| {
            let table = &w.table;
            range_select(&mut w.gpu, table, 0, low, high).unwrap()
        })
    });
    let cnf = GpuCnf::all_of(vec![
        GpuPredicate::new(0, CompareFunc::GreaterEqual, low),
        GpuPredicate::new(0, CompareFunc::LessEqual, high),
    ]);
    group.bench_function("general_evalcnf", |b| {
        b.iter(|| {
            let table = &w.table;
            eval_cnf_general_select(&mut w.gpu, table, &cnf, false).unwrap()
        })
    });
    group.finish();
}

fn bench_conjunction_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("abl_conjunction_protocol");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 16_384;
    let mut w = Workload::tcpip(n).unwrap();
    let preds: Vec<GpuPredicate> = (0..4)
        .map(|col| {
            let (t, _) = threshold_for_ge(&w.dataset.columns[col].values, 0.6).unwrap();
            GpuPredicate::new(col, CompareFunc::GreaterEqual, t)
        })
        .collect();
    let cnf = GpuCnf::all_of(preds.clone());
    group.bench_function("fast_path", |b| {
        b.iter(|| {
            let table = &w.table;
            eval_conjunction_select(&mut w.gpu, table, &preds, false).unwrap()
        })
    });
    group.bench_function("routine_4_3", |b| {
        b.iter(|| {
            let table = &w.table;
            eval_cnf_general_select(&mut w.gpu, table, &cnf, false).unwrap()
        })
    });
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_bitonic_sort");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [1_024usize, 4_096] {
        let values: Vec<u32> = (0..n as u32)
            .map(|i| i.wrapping_mul(2654435761) % (1 << 20))
            .collect();
        group.bench_with_input(BenchmarkId::new("gpu_sim", n), &n, |b, _| {
            let width = (n as f64).sqrt() as usize;
            let width = width.next_power_of_two();
            let mut gpu = Gpu::geforce_fx_5900(width, n.next_power_of_two() / width);
            b.iter(|| sort_values(&mut gpu, &values).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("cpu_sort", n), &n, |b, _| {
            b.iter(|| {
                let mut v = values.clone();
                v.sort_unstable();
                v
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sum_strategies,
    bench_range_strategies,
    bench_conjunction_protocols,
    bench_sort
);
criterion_main!(benches);
