//! One criterion benchmark per paper figure: each target runs the same
//! experiment as the `reproduce` harness at a fixed reduced size, so
//! regressions in any reproduced pipeline show up in `cargo bench`.

use criterion::{criterion_group, criterion_main, Criterion};
use gpudb_bench::experiments;
use gpudb_bench::report::Scale;
use std::time::Duration;

fn bench_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    // Each iteration simulates a full figure sweep; keep samples minimal.
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for id in ["fig2", "fig3", "fig4", "fig5", "fig6", "sel"] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let result = experiments::run(id, Scale::Small).unwrap();
                assert!(result.shape_holds, "{id}: {}", result.observed);
                result
            })
        });
    }
    group.finish();
}

fn bench_heavy_figures(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures_heavy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    for id in ["fig7", "fig8", "fig9", "fig10", "abl_mipmap", "abl_range"] {
        group.bench_function(id, |b| {
            b.iter(|| {
                let result = experiments::run(id, Scale::Small).unwrap();
                assert!(result.shape_holds, "{id}: {}", result.observed);
                result
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_figures, bench_heavy_figures);
criterion_main!(benches);
