//! Property-based tests for the CPU baselines.

use gpudb_cpu::bitmap::Bitmap;
use gpudb_cpu::cnf::{eval_cnf, eval_range, Clause, Cnf, Predicate};
use gpudb_cpu::quickselect::{kth_largest, kth_smallest, median};
use gpudb_cpu::scan::{count_u32, scan_u32, CmpOp};
use gpudb_cpu::{aggregate, semilinear};
use proptest::prelude::*;

fn op_strategy() -> impl Strategy<Value = CmpOp> {
    prop::sample::select(CmpOp::ALL.to_vec())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scan_matches_filter(
        values in prop::collection::vec(any::<u32>(), 0..300),
        op in op_strategy(),
        constant in any::<u32>(),
    ) {
        let bm = scan_u32(&values, op, constant);
        prop_assert_eq!(bm.len(), values.len());
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(bm.get(i), op.eval(v, constant));
        }
        prop_assert_eq!(bm.count_ones(), count_u32(&values, op, constant));
    }

    #[test]
    fn bitmap_boolean_algebra(
        bits_a in prop::collection::vec(any::<bool>(), 1..300),
        bits_b in prop::collection::vec(any::<bool>(), 1..300),
    ) {
        let n = bits_a.len().min(bits_b.len());
        let a = Bitmap::from_fn(n, |i| bits_a[i]);
        let b = Bitmap::from_fn(n, |i| bits_b[i]);

        // De Morgan: !(a & b) == !a | !b
        let mut lhs = a.clone();
        lhs.and_assign(&b);
        lhs.not_assign();
        let mut rhs_a = a.clone();
        rhs_a.not_assign();
        let mut rhs_b = b.clone();
        rhs_b.not_assign();
        rhs_a.or_assign(&rhs_b);
        prop_assert_eq!(&lhs, &rhs_a);

        // XOR == (a | b) & !(a & b)
        let mut x = a.clone();
        x.xor_assign(&b);
        let mut or = a.clone();
        or.or_assign(&b);
        let mut nand = a.clone();
        nand.and_assign(&b);
        nand.not_assign();
        or.and_assign(&nand);
        prop_assert_eq!(&x, &or);

        // Complement count.
        let mut not_a = a.clone();
        not_a.not_assign();
        prop_assert_eq!(a.count_ones() + not_a.count_ones(), n);

        // iter_ones agrees with get.
        let ones: Vec<usize> = a.iter_ones().collect();
        prop_assert!(ones.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(ones.len(), a.count_ones());
        for i in ones {
            prop_assert!(a.get(i));
        }
    }

    #[test]
    fn quickselect_matches_sort(
        values in prop::collection::vec(any::<u32>(), 1..500),
        k_seed in 0usize..10_000,
    ) {
        let k = 1 + k_seed % values.len();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        prop_assert_eq!(kth_largest(&values, k), Some(sorted[sorted.len() - k]));
        prop_assert_eq!(kth_smallest(&values, k), Some(sorted[k - 1]));
        prop_assert_eq!(median(&values), Some(sorted[values.len().div_ceil(2) - 1]));
    }

    #[test]
    fn masked_aggregates_match_filtered(
        pairs in prop::collection::vec((any::<u32>(), any::<bool>()), 0..300),
    ) {
        let values: Vec<u32> = pairs.iter().map(|&(v, _)| v).collect();
        let mask = Bitmap::from_fn(values.len(), |i| pairs[i].1);
        let selected: Vec<u32> = pairs.iter().filter(|&&(_, m)| m).map(|&(v, _)| v).collect();

        let expected_sum: u64 = selected.iter().map(|&v| v as u64).sum();
        prop_assert_eq!(aggregate::sum_masked(&values, &mask), expected_sum);
        prop_assert_eq!(aggregate::min_masked(&values, &mask), selected.iter().copied().min());
        prop_assert_eq!(aggregate::max_masked(&values, &mask), selected.iter().copied().max());
        prop_assert_eq!(aggregate::extract_masked(&values, &mask), selected);
    }

    #[test]
    fn sum_matches_u64_reference(values in prop::collection::vec(any::<u32>(), 0..1000)) {
        let expected: u64 = values.iter().map(|&v| v as u64).sum();
        prop_assert_eq!(aggregate::sum(&values), expected);
    }

    #[test]
    fn cnf_matches_row_eval(
        col_a in prop::collection::vec(0u32..100, 20..60),
        clause_spec in prop::collection::vec(
            prop::collection::vec((0usize..6, 0u32..100), 1..3), 0..4),
    ) {
        let cols: Vec<&[u32]> = vec![&col_a];
        let cnf = Cnf::new(
            clause_spec
                .iter()
                .map(|clause| Clause::any(
                    clause.iter().map(|&(op_idx, c)| Predicate::new(0, CmpOp::ALL[op_idx], c)).collect(),
                ))
                .collect(),
        );
        let bm = eval_cnf(&cols, &cnf);
        for i in 0..col_a.len() {
            prop_assert_eq!(bm.get(i), cnf.eval_row(&cols, i), "row {}", i);
        }
    }

    #[test]
    fn range_is_conjunction(
        values in prop::collection::vec(any::<u32>(), 0..300),
        bounds in (any::<u32>(), any::<u32>()),
    ) {
        let (low, high) = (bounds.0.min(bounds.1), bounds.0.max(bounds.1));
        let range = eval_range(&values, low, high);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(range.get(i), v >= low && v <= high);
        }
    }

    #[test]
    fn semilinear_count_matches_scan(
        cols in prop::collection::vec((0u32..1000, 0u32..1000), 1..200),
        s in (-4.0f32..4.0, -4.0f32..4.0),
        op in op_strategy(),
        b in -5000.0f32..5000.0,
    ) {
        let a: Vec<u32> = cols.iter().map(|&(x, _)| x).collect();
        let c: Vec<u32> = cols.iter().map(|&(_, y)| y).collect();
        let refs: Vec<&[u32]> = vec![&a, &c];
        let coeffs = [s.0, s.1];
        let bm = semilinear::semilinear_scan(&refs, &coeffs, op, b);
        prop_assert_eq!(
            bm.count_ones(),
            semilinear::semilinear_count(&refs, &coeffs, op, b)
        );
        for i in 0..a.len() {
            let dot = semilinear::dot_f32(&refs, &coeffs, i);
            prop_assert_eq!(bm.get(i), op.eval(dot, b));
        }
    }
}
