//! Property-based tests for the storage layer under the response-surface
//! solves: [`numkit::linalg::solve_least_squares`] and
//! [`numkit::linalg::gram_inverse`] run on stack storage when a system
//! fits the stack capacities and on the heap otherwise, and must be
//! indistinguishable from the public heap reference (`Qr`, `gram` + `Lu`)
//! either way — bit-identical results, identical structured errors.
//!
//! The guarantee is by construction (both storages execute the same
//! shared [`numkit::LinAlg`] kernels in the same order), so the
//! assertions here are exact `to_bits` equalities, not tolerances —
//! including on adversarially scaled inputs.

use numkit::linalg::{gram_inverse, solve_least_squares, SMAT_MAX_COLS, SMAT_MAX_ROWS};
use numkit::{Matrix, NumError};
use proptest::prelude::*;

/// Strategy: a full-column-rank `m × n` design matrix: random entries
/// with a dominant `10·I` block stamped on the top `n` rows.
fn design_matrix(m: usize, n: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0..3.0f64, m * n).prop_map(move |data| {
        let mut x = Matrix::from_vec(m, n, data).expect("sized correctly");
        for j in 0..n {
            x[(j, j)] += 10.0;
        }
        x
    })
}

/// The heap reference for least squares: the public `Qr` path.
fn heap_least_squares(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, NumError> {
    x.qr()?.solve_least_squares(y)
}

/// The heap reference for `(XᵀX)⁻¹`: the public Gram + LU inverse.
fn heap_gram_inverse(x: &Matrix) -> Result<Matrix, NumError> {
    x.gram().inverse()
}

/// Asserts two solutions are the same bits, coordinate by coordinate.
fn assert_same_bits(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
    }
}

/// Asserts both least-squares paths agree: same bits or the same error.
fn assert_least_squares_agree(x: &Matrix, y: &[f64]) {
    match (solve_least_squares(x, y), heap_least_squares(x, y)) {
        (Ok(a), Ok(b)) => assert_same_bits(&a, &b),
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("paths disagree: {a:?} vs {b:?}"),
    }
}

/// Asserts both `(XᵀX)⁻¹` paths agree: same bits or the same error.
fn assert_gram_inverse_agrees(x: &Matrix) {
    match (gram_inverse(x), heap_gram_inverse(x)) {
        (Ok(a), Ok(b)) => assert_same_bits(a.as_slice(), b.as_slice()),
        (Err(a), Err(b)) => assert_eq!(a, b),
        (a, b) => panic!("paths disagree: {a:?} vs {b:?}"),
    }
}

proptest! {
    /// Least squares agrees bit-for-bit with the heap reference on
    /// random well-posed systems (the surface-fit flow).
    #[test]
    fn least_squares_is_bit_identical(
        x in design_matrix(9, 5),
        y in prop::collection::vec(-5.0..5.0f64, 9),
    ) {
        prop_assert!(solve_least_squares(&x, &y).is_ok());
        assert_least_squares_agree(&x, &y);
    }

    /// (XᵀX)⁻¹ agrees bit-for-bit with the heap reference (the PRESS /
    /// standard-error flow).
    #[test]
    fn gram_inverse_is_bit_identical(x in design_matrix(8, 4)) {
        prop_assert!(gram_inverse(&x).is_ok());
        assert_gram_inverse_agrees(&x);
    }

    /// Adversarial scaling — entries spanning ~200 orders of magnitude —
    /// still agrees exactly: shared kernels leave no room for even one
    /// ulp of divergence.
    #[test]
    fn adversarial_scaling_is_bit_identical(
        x in design_matrix(7, 3),
        y in prop::collection::vec(-5.0..5.0f64, 7),
        exp in -100i32..100,
    ) {
        let scale = 10f64.powi(exp);
        let scaled = Matrix::from_fn(7, 3, |i, j| x[(i, j)] * scale);
        assert_least_squares_agree(&scaled, &y);
        assert_gram_inverse_agrees(&scaled);
    }

    /// Degenerate input returns the heap path's structured errors: a
    /// duplicated column (rank deficient, singular Gram matrix), fewer
    /// rows than columns, and a right-hand side of the wrong length.
    #[test]
    fn degenerate_systems_fail_identically(
        x in design_matrix(8, 4),
        y in prop::collection::vec(-5.0..5.0f64, 8),
    ) {
        let singular = Matrix::from_fn(8, 4, |i, j| if j == 3 { x[(i, 0)] } else { x[(i, j)] });
        let err = solve_least_squares(&singular, &y).unwrap_err();
        prop_assert!(matches!(err, NumError::RankDeficient { .. }), "{err:?}");
        assert_least_squares_agree(&singular, &y);
        assert_gram_inverse_agrees(&singular);

        let wide = Matrix::from_fn(3, 4, |i, j| x[(i, j)]);
        let err = solve_least_squares(&wide, &y[..3]).unwrap_err();
        prop_assert!(matches!(err, NumError::InvalidArgument(_)), "{err:?}");
        assert_least_squares_agree(&wide, &y[..3]);

        let err = solve_least_squares(&x, &y[..7]).unwrap_err();
        prop_assert!(matches!(err, NumError::ShapeMismatch { .. }), "{err:?}");
        assert_least_squares_agree(&x, &y[..7]);
    }

    /// Beyond the stack capacities — more than 32 rows, or more than 16
    /// columns — the heap path takes over, and the results stay
    /// bit-identical to the reference rather than erroring or diverging.
    #[test]
    fn oversized_systems_fall_back_identically(
        tall in design_matrix(SMAT_MAX_ROWS + 8, 5),
        wide in design_matrix(24, SMAT_MAX_COLS + 2),
        y in prop::collection::vec(-5.0..5.0f64, SMAT_MAX_ROWS + 8),
    ) {
        prop_assert!(solve_least_squares(&tall, &y).is_ok());
        assert_least_squares_agree(&tall, &y);
        assert_gram_inverse_agrees(&tall);
        prop_assert!(solve_least_squares(&wide, &y[..24]).is_ok());
        assert_least_squares_agree(&wide, &y[..24]);
        assert_gram_inverse_agrees(&wide);
        // Short right-hand sides fail the same way beyond the caps too.
        assert_least_squares_agree(&tall, &y[..24]);
    }
}
