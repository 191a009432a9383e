//! Property-based equivalence: for arbitrary data, every GPU algorithm
//! must agree exactly with its CPU reference. These are the core
//! correctness invariants of the reproduction — the GPU path goes through
//! texture encoding, the 24-bit depth buffer, stencil state machines and
//! fragment programs, and must still be bit-exact.

use gpudb::core::query::AggValue;
use gpudb::cpu;
use gpudb::prelude::*;
use proptest::prelude::*;

/// Attribute values must fit the 24-bit GPU encoding (§3.3).
const MAX_VALUE: u32 = (1 << 24) - 1;

fn values_strategy() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=MAX_VALUE, 1..200)
}

fn op_strategy() -> impl Strategy<Value = (CompareFunc, cpu::CmpOp)> {
    prop::sample::select(vec![
        (CompareFunc::Less, cpu::CmpOp::Lt),
        (CompareFunc::LessEqual, cpu::CmpOp::Le),
        (CompareFunc::Greater, cpu::CmpOp::Gt),
        (CompareFunc::GreaterEqual, cpu::CmpOp::Ge),
        (CompareFunc::Equal, cpu::CmpOp::Eq),
        (CompareFunc::NotEqual, cpu::CmpOp::Ne),
    ])
}

fn upload(values: &[u32]) -> (Gpu, GpuTable) {
    let width = (values.len() as f64).sqrt().ceil() as usize;
    let mut gpu = GpuTable::device_for(values.len(), width.max(1));
    let table = GpuTable::upload(&mut gpu, "t", &[("a", values)]).unwrap();
    (gpu, table)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn predicate_matches_cpu_scan(
        values in values_strategy(),
        (gpu_op, cpu_op) in op_strategy(),
        constant in 0u32..=MAX_VALUE,
    ) {
        let (mut gpu, table) = upload(&values);
        let sel = compare_select(&mut gpu, &table, 0, gpu_op, constant).unwrap();
        let reference = cpu::scan::scan_u32(&values, cpu_op, constant);
        // The carried count, the standalone COUNT pass and the CPU agree.
        prop_assert_eq!(sel.matched(), reference.count_ones() as u64);
        prop_assert_eq!(sel.count(&mut gpu).unwrap(), sel.matched());
        let mask = sel.read_mask(&mut gpu).unwrap();
        for (i, &m) in mask.iter().enumerate() {
            prop_assert_eq!(m, reference.get(i), "record {}", i);
        }
    }

    #[test]
    fn range_matches_cpu_range(
        values in values_strategy(),
        bounds in (0u32..=MAX_VALUE, 0u32..=MAX_VALUE),
        inverted in any::<bool>(),
    ) {
        // An inverted range (low > high) selects nothing, decided on the
        // host: a const-empty selection that carries 0.
        let (low, high) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let (low, high) = if inverted { (high, low) } else { (low, high) };
        let (mut gpu, table) = upload(&values);
        let sel = range_select(&mut gpu, &table, 0, low, high).unwrap();
        let reference = cpu::cnf::eval_range(&values, low, high);
        prop_assert_eq!(sel.matched(), reference.count_ones() as u64);
        prop_assert_eq!(sel.count(&mut gpu).unwrap(), sel.matched());
        let mask = sel.read_mask(&mut gpu).unwrap();
        for (i, &m) in mask.iter().enumerate() {
            prop_assert_eq!(m, reference.get(i), "record {}", i);
        }
    }

    #[test]
    fn kth_largest_matches_sorted_rank(
        values in values_strategy(),
        k_seed in 0usize..1000,
    ) {
        let k = 1 + k_seed % values.len();
        let (mut gpu, table) = upload(&values);
        let gpu_value = aggregate::kth_largest(&mut gpu, &table, 0, k, None).unwrap();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(gpu_value, sorted[sorted.len() - k]);
    }

    #[test]
    fn accumulator_sum_is_exact(values in values_strategy()) {
        let (mut gpu, table) = upload(&values);
        let gpu_sum = aggregate::sum(&mut gpu, &table, 0, None).unwrap();
        let expected: u64 = values.iter().map(|&v| v as u64).sum();
        prop_assert_eq!(gpu_sum, expected);
    }

    #[test]
    fn masked_sum_is_exact(
        values in values_strategy(),
        threshold in 0u32..=MAX_VALUE,
    ) {
        let (mut gpu, table) = upload(&values);
        let sel = compare_select(
            &mut gpu, &table, 0, CompareFunc::GreaterEqual, threshold).unwrap();
        let gpu_sum = aggregate::sum(&mut gpu, &table, 0, Some(&sel)).unwrap();
        let expected: u64 = values.iter()
            .filter(|&&v| v >= threshold)
            .map(|&v| v as u64)
            .sum();
        prop_assert_eq!(gpu_sum, expected);

        // The same query through the executor: its per-stage records
        // partition the query's modeled total exactly (integer clock).
        let query = Query::filtered(
            vec![Aggregate::Count, Aggregate::Sum("a".into())],
            BoolExpr::pred("a", CompareFunc::GreaterEqual, threshold),
        );
        let out = execute(&mut gpu, &table, &query).unwrap();
        prop_assert_eq!(out.value("SUM(a)"), Some(&AggValue::Sum(expected)));
        let stage_ns: u64 = out.metrics.iter().map(|r| r.modeled_total_ns()).sum();
        prop_assert_eq!(stage_ns, out.timing.total());
    }

    #[test]
    fn min_max_median_match_cpu(values in values_strategy()) {
        let (mut gpu, table) = upload(&values);
        prop_assert_eq!(
            aggregate::max(&mut gpu, &table, 0, None).unwrap(),
            *values.iter().max().unwrap()
        );
        prop_assert_eq!(
            aggregate::min(&mut gpu, &table, 0, None).unwrap(),
            *values.iter().min().unwrap()
        );
        prop_assert_eq!(
            aggregate::median(&mut gpu, &table, 0, None).unwrap(),
            cpu::quickselect::median(&values).unwrap()
        );
    }

    #[test]
    fn semilinear_matches_cpu_f32(
        values in prop::collection::vec((0u32..1 << 16, 0u32..1 << 16), 1..150),
        coeffs in (-4.0f32..4.0, -4.0f32..4.0),
        b in -1e5f32..1e5,
        (gpu_op, cpu_op) in op_strategy(),
    ) {
        let a: Vec<u32> = values.iter().map(|&(x, _)| x).collect();
        let c: Vec<u32> = values.iter().map(|&(_, y)| y).collect();
        let width = (a.len() as f64).sqrt().ceil() as usize;
        let mut gpu = GpuTable::device_for(a.len(), width.max(1));
        let table = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("c", &c)]).unwrap();
        let s = [coeffs.0, coeffs.1];
        let sel = gpudb::core::semilinear::semilinear_select(
            &mut gpu, &table, &s, gpu_op, b).unwrap();
        let refs: Vec<&[u32]> = vec![&a, &c];
        let expected = cpu::semilinear::semilinear_count(&refs, &s, cpu_op, b);
        prop_assert_eq!(sel.matched(), expected as u64);
        prop_assert_eq!(sel.count(&mut gpu).unwrap(), sel.matched());
    }
}

// Random CNFs: build equivalent GPU and CPU CNFs and compare selections,
// in both modes of the CNF protocols. Clauses may be empty (FALSE), and
// fusion may only remove draws.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cnf_matches_cpu_cnf(
        columns in prop::collection::vec(
            prop::collection::vec(0u32..500, 40..80), 1..4),
        clause_spec in prop::collection::vec(
            prop::collection::vec((0usize..4, 0usize..6, 0u32..500), 0..3),
            0..4),
    ) {
        let n = columns[0].len();
        let columns: Vec<Vec<u32>> = columns
            .into_iter()
            .map(|mut c| { c.resize(n, 0); c })
            .collect();
        let names = ["c0", "c1", "c2"];
        let named: Vec<(&str, &[u32])> = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (names[i], c.as_slice()))
            .collect();
        let ops = [
            (CompareFunc::Less, cpu::CmpOp::Lt),
            (CompareFunc::LessEqual, cpu::CmpOp::Le),
            (CompareFunc::Greater, cpu::CmpOp::Gt),
            (CompareFunc::GreaterEqual, cpu::CmpOp::Ge),
            (CompareFunc::Equal, cpu::CmpOp::Eq),
            (CompareFunc::NotEqual, cpu::CmpOp::Ne),
        ];

        let mut gpu_clauses = Vec::new();
        let mut cpu_clauses = Vec::new();
        for clause in &clause_spec {
            let mut g = Vec::new();
            let mut c = Vec::new();
            for &(col, op_idx, constant) in clause {
                let col = col % columns.len();
                let (gop, cop) = ops[op_idx];
                g.push(GpuPredicate::new(col, gop, constant));
                c.push(cpu::Predicate::new(col, cop, constant));
            }
            gpu_clauses.push(gpudb::core::boolean::GpuClause::any(g));
            cpu_clauses.push(cpu::Clause::any(c));
        }

        let refs: Vec<&[u32]> = columns.iter().map(|c| c.as_slice()).collect();
        let reference = cpu::cnf::eval_cnf(&refs, &cpu::Cnf::new(cpu_clauses));
        let gpu_cnf = GpuCnf::new(gpu_clauses);
        let mut draws = [0u64; 2];
        for (slot, fuse) in [false, true].into_iter().enumerate() {
            let mut gpu = GpuTable::device_for(n, 16);
            let table = GpuTable::upload(&mut gpu, "t", &named).unwrap();
            gpu.reset_stats();
            let sel = gpudb::core::boolean::eval_cnf_select(&mut gpu, &table, &gpu_cnf, fuse).unwrap();
            draws[slot] = gpu.stats().draw_calls;
            prop_assert_eq!(sel.matched(), reference.count_ones() as u64, "fuse {}", fuse);
            prop_assert_eq!(sel.count(&mut gpu).unwrap(), sel.matched(), "fuse {}", fuse);
            let mask = sel.read_mask(&mut gpu).unwrap();
            for (i, &m) in mask.iter().enumerate() {
                prop_assert_eq!(m, reference.get(i), "fuse {}, record {}", fuse, i);
            }
        }
        prop_assert!(draws[1] <= draws[0], "fused {} draws, literal {}", draws[1], draws[0]);
    }
}

// New-module properties: DNF evaluation, OLAP histograms/roll-ups, and
// out-of-core chunking must all agree with direct host computation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn dnf_matches_row_semantics(
        col_a in prop::collection::vec(0u32..200, 30..70),
        term_spec in prop::collection::vec(
            prop::collection::vec((0usize..6, 0u32..200), 1..3), 0..4),
    ) {
        use gpudb::core::boolean::{eval_dnf_select, GpuDnf, GpuTerm};
        let ops = [
            (CompareFunc::Less, cpu::CmpOp::Lt),
            (CompareFunc::LessEqual, cpu::CmpOp::Le),
            (CompareFunc::Greater, cpu::CmpOp::Gt),
            (CompareFunc::GreaterEqual, cpu::CmpOp::Ge),
            (CompareFunc::Equal, cpu::CmpOp::Eq),
            (CompareFunc::NotEqual, cpu::CmpOp::Ne),
        ];
        let (mut gpu, table) = upload(&col_a);
        let dnf = GpuDnf::new(
            term_spec
                .iter()
                .map(|term| GpuTerm::all(
                    term.iter()
                        .map(|&(op_idx, c)| GpuPredicate::new(0, ops[op_idx].0, c))
                        .collect(),
                ))
                .collect(),
        );
        let sel = eval_dnf_select(&mut gpu, &table, &dnf).unwrap();
        let reference = |v: u32| -> bool {
            term_spec.iter().any(|term| {
                term.iter().all(|&(op_idx, c)| ops[op_idx].1.eval(v, c))
            })
        };
        let expected: Vec<bool> = col_a.iter().map(|&v| reference(v)).collect();
        prop_assert_eq!(sel.read_mask(&mut gpu).unwrap(), expected.clone());
        prop_assert_eq!(sel.matched(), expected.iter().filter(|&&b| b).count() as u64);
        prop_assert_eq!(sel.count(&mut gpu).unwrap(), sel.matched());
    }

    #[test]
    fn polynomial_query_counts_match(
        values in prop::collection::vec((0u32..300, 0u32..300), 1..120),
        q in (-2.0f32..2.0, -2.0f32..2.0),
        s in (-10.0f32..10.0, -10.0f32..10.0),
        b in -1e5f32..1e5,
    ) {
        use gpudb::core::semilinear::polynomial_select;
        let a: Vec<u32> = values.iter().map(|&(x, _)| x).collect();
        let c: Vec<u32> = values.iter().map(|&(_, y)| y).collect();
        let width = (a.len() as f64).sqrt().ceil() as usize;
        let mut gpu = GpuTable::device_for(a.len(), width.max(1));
        let table = GpuTable::upload(&mut gpu, "t", &[("a", &a), ("c", &c)]).unwrap();
        let sel = polynomial_select(
            &mut gpu, &table, &[q.0, q.1], &[s.0, s.1], CompareFunc::Less, b).unwrap();
        // Mirror the program's f32 evaluation order exactly.
        let expected = (0..a.len())
            .filter(|&i| {
                let (x, y) = (a[i] as f32, c[i] as f32);
                let qdot = x * x * q.0 + y * y * q.1;
                let sdot = x * s.0 + y * s.1;
                (qdot + sdot) - b < 0.0
            })
            .count() as u64;
        prop_assert_eq!(sel.matched(), expected);
        prop_assert_eq!(sel.count(&mut gpu).unwrap(), expected);
    }
}
