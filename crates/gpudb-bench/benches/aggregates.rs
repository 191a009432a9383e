//! Criterion microbenchmarks for the aggregation algorithms
//! (Figures 7-10 and §5.11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpudb_bench::harness::Workload;
use gpudb_core::aggregate::{kth_largest, median, sum};
use gpudb_core::predicate::compare_select;
use gpudb_data::selectivity::threshold_for_ge;
use gpudb_sim::CompareFunc;
use std::time::Duration;

fn bench_kth_largest(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_kth_largest");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 32_768;
    let mut w = Workload::tcpip(n).unwrap();
    let values = w.dataset.columns[0].values.clone();
    for k in [1usize, 100, n / 2, n] {
        group.bench_with_input(BenchmarkId::new("gpu_sim", k), &k, |b, &k| {
            b.iter(|| {
                let table = &w.table;
                kth_largest(&mut w.gpu, table, 0, k, None).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("cpu_quickselect", k), &k, |b, &k| {
            b.iter(|| gpudb_cpu::quickselect::kth_largest(&values, k).unwrap())
        });
    }
    group.finish();
}

fn bench_median(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_median");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [8_192usize, 32_768] {
        let mut w = Workload::tcpip(n).unwrap();
        let values = w.dataset.columns[0].values.clone();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("gpu_sim", n), &n, |b, _| {
            b.iter(|| {
                let table = &w.table;
                median(&mut w.gpu, table, 0, None).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("cpu_quickselect", n), &n, |b, _| {
            b.iter(|| gpudb_cpu::quickselect::median(&values).unwrap())
        });
    }
    group.finish();
}

fn bench_masked_median(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_masked_median");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 32_768;
    let mut w = Workload::tcpip(n).unwrap();
    let values = w.dataset.columns[0].values.clone();
    let (threshold, _) = threshold_for_ge(&values, 0.8).unwrap();
    let selection = {
        let table = &w.table;
        compare_select(&mut w.gpu, table, 0, CompareFunc::GreaterEqual, threshold).unwrap()
    };
    group.bench_function("gpu_sim_80pct", |b| {
        b.iter(|| {
            let table = &w.table;
            median(&mut w.gpu, table, 0, Some(&selection)).unwrap()
        })
    });
    let mask = gpudb_cpu::scan::scan_u32(&values, gpudb_cpu::CmpOp::Ge, threshold);
    group.bench_function("cpu_extract_then_select", |b| {
        b.iter(|| {
            let extracted = gpudb_cpu::aggregate::extract_masked(&values, &mask);
            gpudb_cpu::quickselect::median(&extracted).unwrap()
        })
    });
    group.finish();
}

fn bench_accumulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_accumulator");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for n in [8_192usize, 32_768] {
        let mut w = Workload::tcpip(n).unwrap();
        let values = w.dataset.columns[0].values.clone();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("gpu_sim", n), &n, |b, _| {
            b.iter(|| {
                let table = &w.table;
                sum(&mut w.gpu, table, 0, None).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("cpu_sum", n), &n, |b, _| {
            b.iter(|| gpudb_cpu::aggregate::sum(&values))
        });
    }
    group.finish();
}

fn bench_selectivity_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("sel_count_retrieval");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 32_768;
    let mut w = Workload::tcpip(n).unwrap();
    let values = w.dataset.columns[0].values.clone();
    let (threshold, _) = threshold_for_ge(&values, 0.6).unwrap();
    let selection = {
        let table = &w.table;
        compare_select(&mut w.gpu, table, 0, CompareFunc::GreaterEqual, threshold).unwrap()
    };
    group.bench_function("standalone_count", |b| {
        b.iter(|| selection.count(&mut w.gpu).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kth_largest,
    bench_median,
    bench_masked_median,
    bench_accumulator,
    bench_selectivity_count
);
criterion_main!(benches);
