//! End-to-end integration tests spanning all workspace crates: generated
//! workloads uploaded to the simulated device, every paper primitive
//! executed, and every result verified against the optimized CPU
//! baselines.

use gpudb::core::metrics::observe;
use gpudb::cpu;
use gpudb::data::{census, selectivity, tcpip};
use gpudb::prelude::*;

fn upload(dataset: &gpudb::data::Dataset, width: usize) -> (Gpu, GpuTable) {
    let cols: Vec<(&str, &[u32])> = dataset
        .columns
        .iter()
        .map(|c| (c.name.as_str(), c.values.as_slice()))
        .collect();
    let mut gpu = GpuTable::device_for(dataset.record_count(), width);
    let table = GpuTable::upload(&mut gpu, dataset.name.clone(), &cols).unwrap();
    (gpu, table)
}

#[test]
fn tcpip_workload_full_pipeline() {
    let trace = tcpip::generate(20_000, 7);
    let (mut gpu, table) = upload(&trace, 200);
    let raw = trace.column_slices();

    // Predicate at the paper's 60% selectivity.
    let (threshold, _) = selectivity::threshold_for_ge(raw[0], 0.6).unwrap();
    let sel = compare_select(&mut gpu, &table, 0, CompareFunc::GreaterEqual, threshold).unwrap();
    let cpu_bm = cpu::scan::scan_u32(raw[0], cpu::CmpOp::Ge, threshold);
    assert_eq!(sel.matched(), cpu_bm.count_ones() as u64);
    let mask = sel.read_mask(&mut gpu).unwrap();
    for (i, &selected) in mask.iter().enumerate() {
        assert_eq!(selected, cpu_bm.get(i), "record {i}");
    }

    // Aggregates over the selection.
    assert_eq!(
        aggregate::sum(&mut gpu, &table, 1, Some(&sel)).unwrap(),
        cpu::aggregate::sum_masked(raw[1], &cpu_bm)
    );
    assert_eq!(
        aggregate::max(&mut gpu, &table, 2, Some(&sel)).unwrap(),
        cpu::aggregate::max_masked(raw[2], &cpu_bm).unwrap()
    );
    assert_eq!(
        aggregate::min(&mut gpu, &table, 2, Some(&sel)).unwrap(),
        cpu::aggregate::min_masked(raw[2], &cpu_bm).unwrap()
    );

    // Median over the selection vs extract-then-QuickSelect.
    let extracted = cpu::aggregate::extract_masked(raw[0], &cpu_bm);
    assert_eq!(
        aggregate::median(&mut gpu, &table, 0, Some(&sel)).unwrap(),
        cpu::quickselect::median(&extracted).unwrap()
    );
}

#[test]
fn range_and_cnf_agree_with_cpu() {
    let trace = tcpip::generate(10_000, 13);
    let (mut gpu, table) = upload(&trace, 128);
    let raw = trace.column_slices();

    let (low, high, _) = selectivity::range_for_selectivity(raw[2], 0.6).unwrap();
    let range_count = range_select(&mut gpu, &table, 2, low, high)
        .unwrap()
        .matched();
    assert_eq!(
        range_count,
        cpu::cnf::eval_range(raw[2], low, high).count_ones() as u64
    );

    let gpu_cnf = GpuCnf::new(vec![
        gpudb::core::boolean::GpuClause::any(vec![
            GpuPredicate::new(0, CompareFunc::Less, 1000),
            GpuPredicate::new(1, CompareFunc::Greater, 0),
        ]),
        gpudb::core::boolean::GpuClause::single(GpuPredicate::new(3, CompareFunc::LessEqual, 10)),
    ]);
    let gpu_sel = gpudb::core::boolean::eval_cnf_select(&mut gpu, &table, &gpu_cnf, true).unwrap();
    let cpu_cnf = cpu::Cnf::new(vec![
        cpu::Clause::any(vec![
            cpu::Predicate::new(0, cpu::CmpOp::Lt, 1000),
            cpu::Predicate::new(1, cpu::CmpOp::Gt, 0),
        ]),
        cpu::Clause::single(cpu::Predicate::new(3, cpu::CmpOp::Le, 10)),
    ]);
    let cpu_bm = cpu::cnf::eval_cnf(&raw, &cpu_cnf);
    assert_eq!(gpu_sel.matched(), cpu_bm.count_ones() as u64);
    let mask = gpu_sel.read_mask(&mut gpu).unwrap();
    for (i, &m) in mask.iter().enumerate() {
        assert_eq!(m, cpu_bm.get(i), "record {i}");
    }
}

#[test]
fn census_workload_through_sql_layer() {
    let data = census::generate(15_000, 3);
    let (mut gpu, table) = upload(&data, 150);
    let raw = data.column_slices();

    let stmt = gpudb::core::query::parse(
        "SELECT COUNT(*), SUM(monthly_income), MIN(age), MAX(age), MEDIAN(monthly_income) \
         FROM census WHERE age >= 25 AND age <= 54 AND weekly_hours >= 35",
    )
    .unwrap();
    let out = gpudb::core::query::execute(&mut gpu, &table, &stmt.query).unwrap();

    // Host reference.
    let selected: Vec<usize> = (0..data.record_count())
        .filter(|&i| (25..=54).contains(&raw[1][i]) && raw[2][i] >= 35)
        .collect();
    assert_eq!(out.matched, selected.len() as u64);
    let sum: u64 = selected.iter().map(|&i| raw[0][i] as u64).sum();
    let min_age = selected.iter().map(|&i| raw[1][i]).min().unwrap();
    let max_age = selected.iter().map(|&i| raw[1][i]).max().unwrap();
    let mut incomes: Vec<u32> = selected.iter().map(|&i| raw[0][i]).collect();
    incomes.sort_unstable();
    let median = incomes[incomes.len().div_ceil(2) - 1];

    use gpudb::core::query::AggValue;
    assert_eq!(out.value("COUNT(*)"), Some(&AggValue::Count(out.matched)));
    assert_eq!(out.value("SUM(monthly_income)"), Some(&AggValue::Sum(sum)));
    assert_eq!(out.value("MIN(age)"), Some(&AggValue::Value(min_age)));
    assert_eq!(out.value("MAX(age)"), Some(&AggValue::Value(max_age)));
    assert_eq!(
        out.value("MEDIAN(monthly_income)"),
        Some(&AggValue::Value(median))
    );
}

#[test]
fn semilinear_and_attribute_comparison() {
    let trace = tcpip::generate(8_000, 21);
    let (mut gpu, table) = upload(&trace, 100);
    let raw = trace.column_slices();

    let coeffs = [1.5f32, -0.5, 0.25, 2.0];
    let count = gpudb::core::semilinear::semilinear_select(
        &mut gpu,
        &table,
        &coeffs,
        CompareFunc::Less,
        50_000.0,
    )
    .unwrap()
    .matched();
    assert_eq!(
        count,
        cpu::semilinear::semilinear_count(&raw, &coeffs, cpu::CmpOp::Lt, 50_000.0) as u64
    );

    // data_loss <= retransmissions via the a_i op a_j rewrite.
    let count = compare_attributes(&mut gpu, &table, 1, 3, CompareFunc::LessEqual)
        .unwrap()
        .matched();
    let expected = (0..trace.record_count())
        .filter(|&i| raw[1][i] <= raw[3][i])
        .count() as u64;
    assert_eq!(count, expected);
}

#[test]
fn kth_largest_sweep_against_quickselect() {
    let trace = tcpip::generate(5_000, 5);
    let (mut gpu, table) = upload(&trace, 100);
    let values = &trace.columns[0].values;
    for k in [1usize, 2, 50, 2_500, 4_999, 5_000] {
        assert_eq!(
            aggregate::kth_largest(&mut gpu, &table, 0, k, None).unwrap(),
            cpu::quickselect::kth_largest(values, k).unwrap(),
            "k = {k}"
        );
    }
}

#[test]
fn gpu_sort_matches_cpu_sort() {
    let trace = tcpip::generate(4_096, 17);
    let mut gpu = Gpu::geforce_fx_5900(64, 64);
    let outcome = gpudb::core::sort::sort_values(&mut gpu, &trace.columns[0].values).unwrap();
    let mut expected = trace.columns[0].values.clone();
    expected.sort_unstable();
    assert_eq!(outcome.sorted, expected);
}

#[test]
fn selection_composition_chains() {
    // Build a selection, aggregate over it, rebuild another selection, and
    // confirm the device state machine never leaks between operations.
    let trace = tcpip::generate(6_000, 9);
    let (mut gpu, table) = upload(&trace, 100);
    let raw = trace.column_slices();

    let sel_a = compare_select(&mut gpu, &table, 0, CompareFunc::Greater, 10_000).unwrap();
    let sum_a = aggregate::sum(&mut gpu, &table, 0, Some(&sel_a)).unwrap();

    let sel_b = range_select(&mut gpu, &table, 2, 100, 5_000).unwrap();
    let sum_b = aggregate::sum(&mut gpu, &table, 2, Some(&sel_b)).unwrap();

    // Recompute the first selection: identical results after interleaving.
    let sel_a2 = compare_select(&mut gpu, &table, 0, CompareFunc::Greater, 10_000).unwrap();
    assert_eq!(sel_a.matched(), sel_a2.matched());
    assert_eq!(
        sum_a,
        aggregate::sum(&mut gpu, &table, 0, Some(&sel_a2)).unwrap()
    );

    // Host checks.
    let bm_a = cpu::scan::scan_u32(raw[0], cpu::CmpOp::Gt, 10_000);
    assert_eq!(sel_a.matched(), bm_a.count_ones() as u64);
    assert_eq!(sum_a, cpu::aggregate::sum_masked(raw[0], &bm_a));
    let bm_b = cpu::cnf::eval_range(raw[2], 100, 5_000);
    assert_eq!(sel_b.matched(), bm_b.count_ones() as u64);
    assert_eq!(sum_b, cpu::aggregate::sum_masked(raw[2], &bm_b));
}

#[test]
fn modeled_timings_are_monotone_in_record_count() {
    let mut previous_total = 0u64;
    for n in [1_000usize, 4_000, 16_000] {
        let trace = tcpip::generate(n, 1);
        let (mut gpu, table) = upload(&trace, 100);
        let (_, record) = observe(&mut gpu, "predicate", n as u64, |gpu| {
            compare_select(gpu, &table, 0, CompareFunc::Greater, 100).unwrap()
        });
        assert!(
            record.modeled_total_ns() > previous_total,
            "modeled time must grow with n"
        );
        previous_total = record.modeled_total_ns();
    }
}

#[test]
fn filters_at_the_depth_limit_parse_and_run() {
    use gpudb::core::query::parser::MAX_FILTER_DEPTH;
    let values: Vec<u32> = (0..64).map(|i| (i * 37) % 50).collect();
    let host = HostTable::new("t", vec![("a", values)]).unwrap();
    let levels = MAX_FILTER_DEPTH;
    let chain = |op: &str| {
        (0..=levels)
            .map(|i| format!("a <> {}", i % 50))
            .collect::<Vec<_>>()
            .join(op)
    };
    let filters = [
        format!("{}a < 20{}", "(".repeat(levels), ")".repeat(levels)),
        format!("{}a < 20", "NOT ".repeat(levels)),
        chain(" OR "),
        chain(" AND "),
    ];
    for filter in &filters {
        let sql = format!("SELECT COUNT(*), SUM(a) FROM t WHERE {filter}");
        let stmt = parse(&sql).unwrap();
        let mut gpu = GpuTable::device_for(host.record_count(), 8);
        let table = host.upload(&mut gpu).unwrap();
        let output = execute(&mut gpu, &table, &stmt.query).unwrap();
        let oracle = cpu_oracle::execute(&host, &stmt.query).unwrap();
        assert!(
            oracle.agrees_with(output.matched, &output.rows),
            "{}...",
            &filter[..40]
        );
    }
}
