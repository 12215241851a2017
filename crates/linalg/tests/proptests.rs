//! Property-based tests for the linear-algebra substrate.

use fedrec_linalg::{vector, Matrix, PairDots, SeededRng, SparseGrad};
use proptest::prelude::*;

fn small_vec() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, 1..32)
}

/// One round of `n` uploads of dimension `k` whose item ids come from a
/// small range skewed towards 0, so most pairs share items. Some uploads
/// are empty, some repeat an earlier upload, and some entries are ±0.
fn skewed_round(n: usize, k: usize, seed: u64) -> Vec<SparseGrad> {
    let mut rng = SeededRng::new(seed);
    let mut round: Vec<SparseGrad> = Vec::with_capacity(n);
    for _ in 0..n {
        let g = match rng.below(6) {
            0 => SparseGrad::new(k),
            1 if !round.is_empty() => round[rng.below(round.len())].clone(),
            _ => {
                let mut g = SparseGrad::new(k);
                for _ in 0..1 + rng.below(12) {
                    let u = rng.uniform();
                    let item = (u * u * 20.0) as u32;
                    let row: Vec<f32> = (0..k)
                        .map(|_| match rng.below(10) {
                            0 => 0.0,
                            1 => -0.0,
                            _ => rng.normal(0.0, 2.0),
                        })
                        .collect();
                    g.accumulate(item, 1.0, &row);
                }
                g
            }
        };
        round.push(g);
    }
    round
}

proptest! {
    #[test]
    fn dot_is_commutative(a in small_vec()) {
        let b: Vec<f32> = a.iter().map(|x| x * 0.5 + 1.0).collect();
        let ab = vector::dot(&a, &b);
        let ba = vector::dot(&b, &a);
        prop_assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
    }

    #[test]
    fn clip_never_exceeds_bound(mut a in small_vec(), bound in 0.0f32..10.0) {
        vector::clip_l2(&mut a, bound);
        prop_assert!(vector::l2_norm(&a) <= bound * (1.0 + 1e-4) + 1e-6);
    }

    #[test]
    fn clip_preserves_direction(a in small_vec(), bound in 0.01f32..10.0) {
        let mut clipped = a.clone();
        vector::clip_l2(&mut clipped, bound);
        if vector::l2_norm(&a) > 1e-3 && vector::l2_norm(&clipped) > 1e-3 {
            prop_assert!(vector::cosine(&a, &clipped) > 0.999);
        }
    }

    #[test]
    fn sigmoid_in_unit_interval(x in -500.0f32..500.0) {
        let s = vector::sigmoid(x);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert!(vector::log_sigmoid(x) <= 0.0);
        prop_assert!(vector::log_sigmoid(x).is_finite());
    }

    #[test]
    fn axpy_linear_in_alpha(x in small_vec(), alpha in -5.0f32..5.0) {
        let mut y1 = vec![0.0; x.len()];
        vector::axpy(alpha, &x, &mut y1);
        let mut y2 = vec![0.0; x.len()];
        vector::axpy(alpha * 2.0, &x, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            prop_assert!((2.0 * a - b).abs() <= 1e-3 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn sparse_grad_dense_roundtrip(
        items in proptest::collection::btree_set(0u32..64, 1..16),
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut g = SparseGrad::new(4);
        for &item in &items {
            let row: Vec<f32> = (0..4).map(|_| rng.normal(1.0, 1.0)).collect();
            g.accumulate(item, 1.0, &row);
        }
        let dense = g.to_dense(64);
        let g2 = SparseGrad::from_dense(&dense, 4, 0.0);
        // Rows that happened to be exactly zero-norm are dropped by
        // from_dense; everything else must round-trip.
        for (item, row) in g.iter() {
            if vector::l2_norm(row) > 0.0 {
                prop_assert_eq!(g2.get(item).unwrap(), row);
            }
        }
    }

    #[test]
    fn sparse_add_then_sub_is_identity(
        seed in 0u64..1000,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut a = SparseGrad::new(3);
        let mut b = SparseGrad::new(3);
        for _ in 0..10 {
            let item = rng.below(20) as u32;
            let row: Vec<f32> = (0..3).map(|_| rng.normal(0.0, 1.0)).collect();
            a.accumulate(item, 1.0, &row);
            let item = rng.below(20) as u32;
            let row: Vec<f32> = (0..3).map(|_| rng.normal(0.0, 1.0)).collect();
            b.accumulate(item, 1.0, &row);
        }
        let orig = a.clone();
        a.add_assign(&b);
        a.sub_assign(&b);
        for (item, row) in orig.iter() {
            let got = a.get(item).unwrap();
            for (x, y) in row.iter().zip(got.iter()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }
    }

    /// Every row of the inverted-index Gram matrix, from every starting
    /// column, equals the `SparseGrad::dot` merge walk bit for bit, and is
    /// `0.0` below the starting column.
    #[test]
    fn pair_dots_rows_equal_the_merge_walk(
        n in 0usize..41,
        k_pick in 0usize..5,
        seed in 0u64..1_000_000,
    ) {
        let k = [1usize, 3, 8, 16, 17][k_pick];
        let round = skewed_round(n, k, seed);
        let index = PairDots::new(&round);
        let mut out = vec![f32::NAN; n];
        for i in 0..n {
            let want: Vec<u32> = round.iter().map(|b| round[i].dot(b).to_bits()).collect();
            for from in 0..=n {
                index.row_into(i, from, &mut out);
                for (j, got) in out.iter().enumerate() {
                    let want = if j < from { 0.0f32.to_bits() } else { want[j] };
                    prop_assert_eq!(
                        got.to_bits(),
                        want,
                        "k {} row {} from {} col {}",
                        k,
                        i,
                        from,
                        j
                    );
                }
            }
        }
    }

    #[test]
    fn weighted_sample_count_and_support(
        weights in proptest::collection::vec(0.0f64..10.0, 1..40),
        seed in 0u64..500,
    ) {
        let mut rng = SeededRng::new(seed);
        let count = weights.len() / 2;
        let s = rng.weighted_sample_without_replacement(&weights, count);
        let positive = weights.iter().filter(|&&w| w > 0.0).count();
        prop_assert_eq!(s.len(), count.min(positive));
        let set: std::collections::HashSet<_> = s.iter().copied().collect();
        prop_assert_eq!(set.len(), s.len());
        for &i in &s {
            prop_assert!(weights[i] > 0.0);
        }
    }

    #[test]
    fn matrix_two_rows_mut_disjoint(i in 0usize..8, j in 0usize..8) {
        prop_assume!(i != j);
        let mut m = Matrix::zeros(8, 3);
        let (a, b) = m.two_rows_mut(i, j);
        a[0] = 1.0;
        b[0] = 2.0;
        prop_assert_eq!(m.row(i)[0], 1.0);
        prop_assert_eq!(m.row(j)[0], 2.0);
    }

    #[test]
    fn stats_median_bounded_by_extremes(xs in proptest::collection::vec(-100.0f32..100.0, 1..50)) {
        use fedrec_linalg::stats;
        let med = stats::median(&xs);
        let lo = xs.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(med >= lo - 1e-6 && med <= hi + 1e-6);
    }
}
