//! Criterion microbenchmarks for the selection primitives (Figures 2-6),
//! measuring the simulator's wall-clock alongside the equivalent CPU
//! baselines. Modeled-2004 comparisons live in the `reproduce` binary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use gpudb_bench::harness::Workload;
use gpudb_core::boolean::{eval_cnf_select, GpuCnf, GpuPredicate};
use gpudb_core::ops::encode_depth_f64;
use gpudb_core::predicate::{compare_select, comparison_pass, copy_to_depth, OcclusionMode};
use gpudb_core::range::range_select;
use gpudb_core::selection::SELECTED;
use gpudb_core::semilinear::semilinear_select;
use gpudb_data::selectivity::{range_for_selectivity, threshold_for_ge};
use gpudb_sim::state::ColorMask;
use gpudb_sim::{CompareFunc, StencilOp};
use std::time::Duration;

const SIZES: [usize; 3] = [4_096, 16_384, 65_536];

fn bench_copy(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig2_copy_to_depth");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &SIZES {
        let mut w = Workload::tcpip(n).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| {
                let table = &w.table;
                copy_to_depth(&mut w.gpu, table, 0).unwrap();
            })
        });
    }
    group.finish();
}

fn bench_predicate(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_predicate");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &SIZES {
        let mut w = Workload::tcpip(n).unwrap();
        let values = w.dataset.columns[0].values.clone();
        let (threshold, _) = threshold_for_ge(&values, 0.6).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("gpu_sim", n), &n, |b, _| {
            b.iter(|| {
                let table = &w.table;
                compare_select(&mut w.gpu, table, 0, CompareFunc::GreaterEqual, threshold).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("cpu_scan", n), &n, |b, _| {
            b.iter(|| gpudb_cpu::scan::scan_u32(&values, gpudb_cpu::CmpOp::Ge, threshold))
        });
    }
    group.finish();
}

fn bench_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig4_range");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for &n in &SIZES {
        let mut w = Workload::tcpip(n).unwrap();
        let values = w.dataset.columns[0].values.clone();
        let (low, high, _) = range_for_selectivity(&values, 0.6).unwrap();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("gpu_sim", n), &n, |b, _| {
            b.iter(|| {
                let table = &w.table;
                range_select(&mut w.gpu, table, 0, low, high).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("cpu_range", n), &n, |b, _| {
            b.iter(|| gpudb_cpu::cnf::eval_range(&values, low, high))
        });
    }
    group.finish();
}

fn bench_multiattr(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_multiattr");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let n = 16_384;
    let mut w = Workload::tcpip(n).unwrap();
    let thresholds: Vec<u32> = (0..4)
        .map(|c| {
            threshold_for_ge(&w.dataset.columns[c].values, 0.6)
                .unwrap()
                .0
        })
        .collect();
    for attrs in 1..=4usize {
        let cnf = GpuCnf::all_of(
            (0..attrs)
                .map(|c| GpuPredicate::new(c, CompareFunc::GreaterEqual, thresholds[c]))
                .collect(),
        );
        group.bench_with_input(BenchmarkId::new("gpu_sim", attrs), &attrs, |b, _| {
            b.iter(|| {
                let table = &w.table;
                eval_cnf_select(&mut w.gpu, table, &cnf, true).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_semilinear(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_semilinear");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let coeffs = [0.375f32, -1.25, 2.5, 0.8125];
    for &n in &SIZES {
        let mut w = Workload::tcpip(n).unwrap();
        let host: Vec<Vec<u32>> = w.dataset.columns.iter().map(|c| c.values.clone()).collect();
        let refs: Vec<&[u32]> = host.iter().map(|v| v.as_slice()).collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("gpu_sim", n), &n, |b, _| {
            b.iter(|| {
                let table = &w.table;
                semilinear_select(&mut w.gpu, table, &coeffs, CompareFunc::GreaterEqual, 1e5)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("cpu_scan", n), &n, |b, _| {
            b.iter(|| {
                gpudb_cpu::semilinear::semilinear_scan(&refs, &coeffs, gpudb_cpu::CmpOp::Ge, 1e5)
            })
        });
    }
    group.finish();
}

/// One pass of each hot kind over the paper's 1M records (a 1000x1000
/// record grid), drawn at the device level in the state the database
/// layer draws it with, so the throughput reads as host fragments/s of
/// that pass alone:
///
/// * `copy_to_depth`: §5.4's copy program (texture fetch, channel `DP4`,
///   normalize, depth write);
/// * `kth_count`: Routine 4.5's per-bit compare-and-count pass over a
///   random 0/1 stencil selection (stencil `Equal`/`Keep`, depth `GEqual`,
///   occlusion count);
/// * `stencil_select`: a predicate's selection pass (stencil `Always`,
///   `Replace` on depth pass);
/// * `depth_bounds`: Routine 4.4's range pass;
/// * `semilinear`: Routine 4.2's program pass with `KIL`.
fn bench_passes_1m(c: &mut Criterion) {
    let mut group = c.benchmark_group("passes_1m");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let n = 1_000_000;
    let mut w = Workload::tcpip(n).unwrap();
    let values = w.dataset.columns[0].values.clone();
    let (median, _) = threshold_for_ge(&values, 0.5).unwrap();
    let (low, high, _) = range_for_selectivity(&values, 0.5).unwrap();
    // A selection of about half the records, by another column.
    let (other, _) = threshold_for_ge(&w.dataset.columns[1].values, 0.5).unwrap();
    let table = &w.table;
    compare_select(&mut w.gpu, table, 1, CompareFunc::GreaterEqual, other).unwrap();
    group.throughput(Throughput::Elements(n as u64));

    group.bench_function("copy_to_depth", |b| {
        b.iter(|| copy_to_depth(&mut w.gpu, table, 0).unwrap())
    });
    group.bench_function("kth_count", |b| {
        w.gpu.reset_state();
        w.gpu
            .set_stencil_func(true, CompareFunc::Equal, SELECTED, 0xFF);
        w.gpu
            .set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Keep);
        b.iter(|| {
            comparison_pass(
                &mut w.gpu,
                table,
                CompareFunc::GreaterEqual,
                median,
                OcclusionMode::Sync,
            )
            .unwrap()
        })
    });
    group.bench_function("stencil_select", |b| {
        w.gpu.reset_state();
        w.gpu
            .set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
        w.gpu
            .set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
        b.iter(|| {
            comparison_pass(
                &mut w.gpu,
                table,
                CompareFunc::GreaterEqual,
                median,
                OcclusionMode::Async,
            )
            .unwrap()
        })
    });
    group.bench_function("depth_bounds", |b| {
        w.gpu.reset_state();
        w.gpu.set_color_mask(ColorMask::NONE);
        w.gpu.set_depth_test(false, CompareFunc::Always);
        w.gpu.set_depth_write(false);
        w.gpu
            .set_depth_bounds(true, encode_depth_f64(low), encode_depth_f64(high))
            .unwrap();
        w.gpu
            .set_stencil_func(true, CompareFunc::Always, SELECTED, 0xFF);
        w.gpu
            .set_stencil_op(StencilOp::Keep, StencilOp::Keep, StencilOp::Replace);
        b.iter(|| {
            w.gpu.begin_occlusion_query().unwrap();
            w.gpu
                .draw_quad(table.rects(), encode_depth_f64(low) as f32)
                .unwrap();
            w.gpu.end_occlusion_query_async().unwrap()
        })
    });
    let coeffs = [0.375f32, -1.25, 2.5, 0.8125];
    group.bench_function("semilinear", |b| {
        b.iter(|| {
            semilinear_select(&mut w.gpu, table, &coeffs, CompareFunc::GreaterEqual, 1e5).unwrap()
        })
    });
    w.gpu.reset_state();
    group.finish();
}

criterion_group!(
    benches,
    bench_copy,
    bench_predicate,
    bench_range,
    bench_multiattr,
    bench_semilinear,
    bench_passes_1m
);
criterion_main!(benches);
