//! Criterion benchmarks for the extensions beyond the paper's routines:
//! DNF evaluation, polynomial queries, and the §6.1 depth-compare-mask
//! accumulator.

use criterion::{criterion_group, criterion_main, Criterion};
use gpudb_bench::harness::Workload;
use gpudb_core::aggregate::{sum, sum_with_depth_mask};
use gpudb_core::boolean::{eval_dnf_select, GpuDnf, GpuPredicate, GpuTerm};
use gpudb_core::semilinear::polynomial_select;
use gpudb_core::table::GpuTable;
use gpudb_sim::{CompareFunc, HardwareProfile};
use std::time::Duration;

fn bench_dnf(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_dnf");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 16_384;
    let mut w = Workload::tcpip(n).unwrap();
    let dnf = GpuDnf::new(vec![
        GpuTerm::all(vec![
            GpuPredicate::new(0, CompareFunc::GreaterEqual, 100_000),
            GpuPredicate::new(1, CompareFunc::Greater, 0),
        ]),
        GpuTerm::all(vec![
            GpuPredicate::new(2, CompareFunc::Less, 2_000),
            GpuPredicate::new(3, CompareFunc::GreaterEqual, 4),
        ]),
    ]);
    group.bench_function("two_term_dnf", |b| {
        b.iter(|| {
            let table = &w.table;
            eval_dnf_select(&mut w.gpu, table, &dnf).unwrap()
        })
    });
    group.finish();
}

fn bench_polynomial(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_polynomial");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 16_384;
    let mut w = Workload::tcpip(n).unwrap();
    group.bench_function("quadratic_form", |b| {
        b.iter(|| {
            let table = &w.table;
            polynomial_select(
                &mut w.gpu,
                table,
                &[1e-6, -2e-6, 0.0, 0.0],
                &[0.5, 0.25, 0.0, 0.0],
                CompareFunc::GreaterEqual,
                1_000.0,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_wishlist_accumulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("ext_wishlist_accumulator");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let dataset = gpudb_data::tcpip::generate(16_384, 7);
    let values = &dataset.columns[0].values;
    let mut gpu = gpudb_sim::Gpu::new(HardwareProfile::geforce_fx_5900_with_depth_mask(), 128, 128);
    let table = GpuTable::upload(&mut gpu, "t", &[("a", values)]).unwrap();
    group.bench_function("testbit_program", |b| {
        b.iter(|| sum(&mut gpu, &table, 0, None).unwrap())
    });
    group.bench_function("depth_compare_mask", |b| {
        b.iter(|| sum_with_depth_mask(&mut gpu, &table, 0, None).unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_dnf,
    bench_polynomial,
    bench_wishlist_accumulator
);
criterion_main!(benches);
