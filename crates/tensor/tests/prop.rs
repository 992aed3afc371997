//! Property-based tests for the matrix kernels and softmax invariants.

use mmkgr_tensor::{softmax_slice, Matrix, Tape};
use proptest::prelude::*;

fn arb_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c)
            .prop_map(move |data| Matrix::from_vec(r, c, data))
    })
}

/// `a: m×n` and `b: n×p` with m, n, p in 0..=70: full 16-column panels,
/// 8- and 1-column tails, odd row counts and empty operands.
fn arb_product() -> impl Strategy<Value = (Matrix, Matrix)> {
    (0..=70usize, 0..=70usize, 0..=70usize).prop_flat_map(|(m, n, p)| {
        (
            proptest::collection::vec(-10.0f32..10.0, m * n),
            proptest::collection::vec(-10.0f32..10.0, n * p),
        )
            .prop_map(move |(a, b)| (Matrix::from_vec(m, n, a), Matrix::from_vec(n, p, b)))
    })
}

/// The summation-order contract spelled out: each output is summed over
/// k in order, from 0.0, with a separate multiply and add.
fn naive_product_bits(a: &Matrix, b: &Matrix) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.rows() * b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut s = 0.0f32;
            for k in 0..a.cols() {
                s += a.get(i, k) * b.get(k, j);
            }
            out.push(s.to_bits());
        }
    }
    out
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn products_are_bit_identical_to_the_naive_loop((a, b) in arb_product()) {
        let want = naive_product_bits(&a, &b);
        let plain = a.matmul(&b);
        prop_assert_eq!(plain.shape(), (a.rows(), b.cols()));
        prop_assert_eq!(bits(&plain), want.clone());
        // A warm scratch of another shape must be fully overwritten.
        let mut out = Matrix::full(3, 5, f32::NAN);
        a.matmul_into(&b, &mut out);
        prop_assert_eq!(out.shape(), (a.rows(), b.cols()));
        prop_assert_eq!(bits(&out), want.clone());
        let nt = a.matmul_nt(&b.transpose());
        prop_assert_eq!(nt.shape(), (a.rows(), b.cols()));
        prop_assert_eq!(bits(&nt), want);
    }
}

proptest! {
    #[test]
    fn softmax_is_a_distribution(mut xs in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
        softmax_slice(&mut xs);
        prop_assert!(xs.iter().all(|v| (0.0..=1.0).contains(v)));
        let sum: f32 = xs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    #[test]
    fn softmax_shift_invariant(xs in proptest::collection::vec(-5.0f32..5.0, 1..16), shift in -20.0f32..20.0) {
        let mut a = xs.clone();
        softmax_slice(&mut a);
        let mut b: Vec<f32> = xs.iter().map(|v| v + shift).collect();
        softmax_slice(&mut b);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn transpose_involution(m in arb_matrix(8)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_identity_left(m in arb_matrix(8)) {
        let id = Matrix::eye(m.rows());
        let out = id.matmul(&m);
        for (a, b) in out.as_slice().iter().zip(m.as_slice()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_tn_nt_consistent(a in arb_matrix(6), b in arb_matrix(6)) {
        // Align shapes: use a (r x c) and b (r x d) for tn.
        let r = a.rows().min(b.rows());
        let a2 = a.gather_rows(&(0..r).collect::<Vec<_>>());
        let b2 = b.gather_rows(&(0..r).collect::<Vec<_>>());
        let fast = a2.matmul_tn(&b2);
        let slow = a2.transpose().matmul(&b2);
        for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    #[test]
    fn concat_slice_roundtrip(a in arb_matrix(6), b in arb_matrix(6)) {
        let r = a.rows().min(b.rows());
        let idx: Vec<usize> = (0..r).collect();
        let a2 = a.gather_rows(&idx);
        let b2 = b.gather_rows(&idx);
        let cat = a2.concat_cols(&b2);
        prop_assert_eq!(cat.slice_cols(0, a2.cols()), a2.clone());
        prop_assert_eq!(cat.slice_cols(a2.cols(), a2.cols() + b2.cols()), b2);
    }

    #[test]
    fn sum_linear_in_scale(m in arb_matrix(6), k in -3.0f32..3.0) {
        let s1 = m.sum();
        let s2 = m.map(|v| v * k).sum();
        prop_assert!((s2 - k * s1).abs() < 1e-2 * (1.0 + s1.abs() * k.abs()));
    }

    #[test]
    fn tape_add_commutes(m in arb_matrix(5)) {
        let t = Tape::new();
        let a = t.input(m.clone());
        let b = t.input(m.map(|v| v * 0.5));
        let ab = t.add(a, b);
        let ba = t.add(b, a);
        prop_assert_eq!(t.value_cloned(ab), t.value_cloned(ba));
    }

    #[test]
    fn backward_of_sum_is_ones(m in arb_matrix(5)) {
        let t = Tape::new();
        let a = t.input(m.clone());
        let loss = t.sum(a);
        let g = t.backward(loss);
        let ga = g.get(a).unwrap();
        prop_assert!(ga.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn gather_rows_matches_manual(m in arb_matrix(6), picks in proptest::collection::vec(0usize..6, 1..8)) {
        let picks: Vec<usize> = picks.into_iter().map(|p| p % m.rows()).collect();
        let g = m.gather_rows(&picks);
        for (out_r, &src) in picks.iter().enumerate() {
            prop_assert_eq!(g.row(out_r), m.row(src));
        }
    }
}
