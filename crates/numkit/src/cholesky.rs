// Dense triangular solves and Householder sweeps read naturally with
// explicit indices; iterator rewrites obscure the linear algebra.
#![allow(clippy::needless_range_loop)]

use crate::linalg::LinAlg;
use crate::{Matrix, NumError, Result};

/// Cholesky factorisation `A = L Lᵀ` of a symmetric positive definite matrix.
///
/// The information matrix `XᵀX` of a well-posed experimental design is SPD,
/// so Cholesky provides both a fast determinant for the D-optimality search
/// and a fast solver for the normal equations when QR is not required.
///
/// # Example
///
/// ```
/// use numkit::{Cholesky, Matrix};
///
/// # fn main() -> Result<(), numkit::NumError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let ch = Cholesky::decompose(&a)?;
/// assert!((ch.det() - 8.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor (entries above the diagonal are zero).
    l: Matrix,
}

impl Cholesky {
    /// Factorises a symmetric positive definite matrix.
    ///
    /// # Errors
    ///
    /// * [`NumError::NotSquare`] for rectangular input.
    /// * [`NumError::InvalidArgument`] when the input is visibly asymmetric.
    /// * [`NumError::NotPositiveDefinite`] when a pivot is non-positive.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(NumError::NotSquare { shape: a.shape() });
        }
        let mut l = Matrix::zeros(a.rows(), a.rows());
        l.la_cholesky_factor_from(a)?;
        Ok(Cholesky { l })
    }

    /// Dimension of the factorised matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Determinant of the original matrix (`∏ L[i][i]²`).
    pub fn det(&self) -> f64 {
        let n = self.dim();
        let mut d = 1.0;
        for i in 0..n {
            let v = self.l[(i, i)];
            d *= v * v;
        }
        d
    }

    /// `ln det(A)` — numerically safe for large determinants, used by the
    /// D-optimal exchange algorithm to compare candidate designs.
    pub fn ln_det(&self) -> f64 {
        self.l.la_cholesky_ln_det()
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(NumError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // In-place forward/backward sweeps: bit-identical to the
        // two-buffer form because each entry is read exactly once
        // before it is overwritten.
        let mut x = b.to_vec();
        self.l.la_cholesky_solve_in_place(&mut x);
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd() -> Matrix {
        Matrix::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]).unwrap()
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd();
        let ch = Cholesky::decompose(&a).unwrap();
        let recon = ch.l().matmul(&ch.l().transpose()).unwrap();
        assert!(recon.approx_eq(&a, 1e-12));
    }

    #[test]
    fn det_matches_lu() {
        let a = spd();
        let d_ch = Cholesky::decompose(&a).unwrap().det();
        let d_lu = a.det().unwrap();
        assert!((d_ch - d_lu).abs() < 1e-9);
    }

    #[test]
    fn ln_det_consistent() {
        let ch = Cholesky::decompose(&spd()).unwrap();
        assert!((ch.ln_det() - ch.det().ln()).abs() < 1e-12);
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd();
        let x_true = [1.0, 2.0, -1.5];
        let b = a.mul_vec(&x_true).unwrap();
        let x = Cholesky::decompose(&a).unwrap().solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            Cholesky::decompose(&a),
            Err(NumError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn asymmetric_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(Cholesky::decompose(&a).is_err());
    }

    #[test]
    fn rectangular_rejected() {
        assert!(Cholesky::decompose(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let ch = Cholesky::decompose(&spd()).unwrap();
        assert!(ch.solve_vec(&[1.0]).is_err());
    }
}
