//! Dense linear-algebra kernels over heap or stack storage.
//!
//! The paper's whole flow runs on tiny fixed-size systems (a 10×10
//! normal system is the largest object on the hot path), so the same
//! arithmetic can run either on the heap-allocated [`Matrix`] or on a
//! const-generic stack matrix ([`crate::SMat`]). This module provides:
//!
//! * [`LinAlg`] — a storage-agnostic trait whose *provided* methods are
//!   the factorisation and solve kernels (Householder QR, Cholesky, LU
//!   with partial pivoting, Gram products).
//!   Both `Matrix` and `SMat` implement the four accessor methods and
//!   inherit the kernels, so the two storages execute the *same*
//!   floating-point operations in the same order — results are
//!   bit-identical by construction, not by tolerance.
//! * [`solve_least_squares`] and [`gram_inverse`] — the response-surface
//!   fit's two solves. Each runs on stack storage when the system fits
//!   [`SMAT_MAX_ROWS`] × [`SMAT_MAX_COLS`] and on the heap
//!   ([`crate::Qr`], [`crate::Lu`]) otherwise. Storage is picked by size
//!   alone, so there is nothing to select.

// Dense triangular solves and Householder sweeps read naturally with
// explicit indices; iterator rewrites obscure the linear algebra.
#![allow(clippy::needless_range_loop)]

use crate::{Matrix, NumError, Result, SMat};

/// Row capacity of stack storage: least-squares systems with more
/// rows than this fall back to the heap path (bit-identical results).
pub const SMAT_MAX_ROWS: usize = 32;

/// Column capacity of stack storage: models with more terms than
/// this fall back to the heap path (bit-identical results).
pub const SMAT_MAX_COLS: usize = 16;

/// Storage-agnostic dense matrix: four accessors in, the shared
/// factorisation kernels out.
///
/// Implementors provide shape and element access; every numerical
/// kernel is a *provided* method written once against those accessors.
/// [`Matrix`] (heap) and [`SMat`] (stack) both implement this trait, so
/// choosing a storage changes where the numbers live, never what
/// operations run on them.
pub trait LinAlg {
    /// Number of rows.
    fn la_rows(&self) -> usize;

    /// Number of columns.
    fn la_cols(&self) -> usize;

    /// Element `(i, j)`.
    fn la_get(&self, i: usize, j: usize) -> f64;

    /// Overwrites element `(i, j)`.
    fn la_set(&mut self, i: usize, j: usize, v: f64);

    /// Maximum absolute entry, scanned in row-major order (the relative
    /// scale behind every singularity threshold in this module).
    fn la_max_abs(&self) -> f64 {
        let mut m = 0.0_f64;
        for i in 0..self.la_rows() {
            for j in 0..self.la_cols() {
                m = m.max(self.la_get(i, j).abs());
            }
        }
        m
    }

    /// Matrix product `out = self * rhs`. Shapes must agree
    /// (`self.cols == rhs.rows`, `out` sized `self.rows × rhs.cols`);
    /// `out` is fully overwritten.
    fn la_matmul_into(&self, rhs: &impl LinAlg, out: &mut impl LinAlg) {
        let (m, k2) = (self.la_rows(), self.la_cols());
        debug_assert_eq!(k2, rhs.la_rows(), "matmul: inner dimensions");
        let n = rhs.la_cols();
        for i in 0..m {
            for j in 0..n {
                out.la_set(i, j, 0.0);
            }
        }
        for i in 0..m {
            for k in 0..k2 {
                let a = self.la_get(i, k);
                if a == 0.0 {
                    continue;
                }
                for j in 0..n {
                    out.la_set(i, j, out.la_get(i, j) + a * rhs.la_get(k, j));
                }
            }
        }
    }

    /// Gram (transpose) product `out = selfᵀ * self` — the information
    /// matrix `XᵀX` of a design matrix. `out` must be
    /// `self.cols × self.cols` and is fully overwritten.
    fn la_gram_into(&self, out: &mut impl LinAlg) {
        let (m, n) = (self.la_rows(), self.la_cols());
        for i in 0..n {
            for j in i..n {
                let mut s = 0.0;
                for k in 0..m {
                    s += self.la_get(k, i) * self.la_get(k, j);
                }
                out.la_set(i, j, s);
                out.la_set(j, i, s);
            }
        }
    }

    /// In-place Householder QR sweep (requires `rows >= cols`): on
    /// return `self` holds the Householder vectors below the diagonal
    /// and R on/above it, with R's scaled diagonal in `r_diag`.
    fn la_qr_factor(&mut self, r_diag: &mut [f64]) {
        let (m, n) = (self.la_rows(), self.la_cols());
        debug_assert!(m >= n, "qr: rows >= cols");
        debug_assert_eq!(r_diag.len(), n);
        for k in 0..n {
            // Norm of column k below the diagonal.
            let mut norm = 0.0_f64;
            for i in k..m {
                norm = norm.hypot(self.la_get(i, k));
            }
            if norm != 0.0 {
                if self.la_get(k, k) < 0.0 {
                    norm = -norm;
                }
                for i in k..m {
                    self.la_set(i, k, self.la_get(i, k) / norm);
                }
                self.la_set(k, k, self.la_get(k, k) + 1.0);
                // Apply the transform to the remaining columns.
                for j in (k + 1)..n {
                    let mut s = 0.0;
                    for i in k..m {
                        s += self.la_get(i, k) * self.la_get(i, j);
                    }
                    s = -s / self.la_get(k, k);
                    for i in k..m {
                        self.la_set(i, j, self.la_get(i, j) + s * self.la_get(i, k));
                    }
                }
            }
            r_diag[k] = -norm;
        }
    }

    /// Rank estimate of a factored QR (`self` as left by
    /// [`la_qr_factor`](Self::la_qr_factor)): diagonal entries of R
    /// above a relative threshold.
    fn la_qr_rank(&self, r_diag: &[f64]) -> usize {
        let scale = self.la_max_abs().max(1.0);
        r_diag.iter().filter(|d| d.abs() > 1e-12 * scale).count()
    }

    /// Least-squares solve from a factored QR: `y` holds the right-hand
    /// side on entry (length `rows`) and is destroyed; the solution is
    /// written to `x` (length `cols`).
    ///
    /// # Errors
    ///
    /// Returns [`NumError::RankDeficient`] when R is numerically
    /// singular.
    fn la_qr_solve(&self, r_diag: &[f64], y: &mut [f64], x: &mut [f64]) -> Result<()> {
        let (m, n) = (self.la_rows(), self.la_cols());
        debug_assert_eq!(y.len(), m);
        debug_assert_eq!(x.len(), n);
        if self.la_qr_rank(r_diag) < n {
            return Err(NumError::RankDeficient {
                rank: self.la_qr_rank(r_diag),
                wanted: n,
            });
        }
        // Apply Householder reflections: y <- Qᵀ b.
        for k in 0..n {
            if self.la_get(k, k) != 0.0 {
                let mut s = 0.0;
                for i in k..m {
                    s += self.la_get(i, k) * y[i];
                }
                s = -s / self.la_get(k, k);
                for i in k..m {
                    y[i] += s * self.la_get(i, k);
                }
            }
        }
        // Back substitution with R.
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.la_get(i, j) * x[j];
            }
            x[i] = s / r_diag[i];
        }
        Ok(())
    }

    /// Cholesky factorisation `a = self * selfᵀ`: overwrites `self`
    /// (same square shape as `a`) with the lower-triangular factor.
    ///
    /// # Errors
    ///
    /// * [`NumError::NotSquare`] for rectangular input.
    /// * [`NumError::InvalidArgument`] when `a` is visibly asymmetric.
    /// * [`NumError::NotPositiveDefinite`] when a pivot is non-positive.
    fn la_cholesky_factor_from(&mut self, a: &impl LinAlg) -> Result<()> {
        let n = a.la_rows();
        if a.la_cols() != n {
            return Err(NumError::NotSquare {
                shape: (a.la_rows(), a.la_cols()),
            });
        }
        let tol = 1e-8 * a.la_max_abs().max(1.0);
        for i in 0..n {
            for j in 0..i {
                if (a.la_get(i, j) - a.la_get(j, i)).abs() > tol {
                    return Err(NumError::InvalidArgument("cholesky: matrix not symmetric"));
                }
            }
        }
        for i in 0..n {
            for j in 0..=i {
                let mut s = a.la_get(i, j);
                for k in 0..j {
                    s -= self.la_get(i, k) * self.la_get(j, k);
                }
                if i == j {
                    if s <= 0.0 {
                        return Err(NumError::NotPositiveDefinite);
                    }
                    self.la_set(i, i, s.sqrt());
                } else {
                    self.la_set(i, j, s / self.la_get(j, j));
                }
            }
            for j in (i + 1)..n {
                self.la_set(i, j, 0.0);
            }
        }
        Ok(())
    }

    /// `ln det(A)` from a Cholesky factor (`self` = L): `Σ 2·ln L[i][i]`.
    fn la_cholesky_ln_det(&self) -> f64 {
        let n = self.la_rows();
        let mut s = 0.0;
        for i in 0..n {
            s += 2.0 * self.la_get(i, i).ln();
        }
        s
    }

    /// Solves `A x = b` in place from a Cholesky factor (`self` = L):
    /// `b` holds the right-hand side on entry and the solution on exit.
    ///
    /// The forward/backward sweeps reuse one buffer; the arithmetic is
    /// bit-identical to the two-buffer textbook form because each entry
    /// is read exactly once before it is overwritten.
    fn la_cholesky_solve_in_place(&self, b: &mut [f64]) {
        let n = self.la_rows();
        debug_assert_eq!(b.len(), n);
        // Forward: L y = b
        for i in 0..n {
            let mut s = b[i];
            for j in 0..i {
                s -= self.la_get(i, j) * b[j];
            }
            b[i] = s / self.la_get(i, i);
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for j in (i + 1)..n {
                s -= self.la_get(j, i) * b[j];
            }
            b[i] = s / self.la_get(i, i);
        }
    }

    /// In-place LU factorisation with partial pivoting: on return
    /// `self` holds L (strict lower, unit diagonal implied) and U;
    /// `perm[i]` records the source row of factored row `i`. Returns
    /// the permutation sign.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] when a pivot falls below the
    /// relative threshold of the matrix magnitude.
    fn la_lu_factor(&mut self, perm: &mut [usize]) -> Result<f64> {
        let n = self.la_rows();
        debug_assert_eq!(self.la_cols(), n, "lu: square input");
        debug_assert_eq!(perm.len(), n);
        let scale = self.la_max_abs().max(1.0);
        for (i, p) in perm.iter_mut().enumerate() {
            *p = i;
        }
        let mut perm_sign = 1.0;
        for k in 0..n {
            // Partial pivoting: the largest entry in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_val = self.la_get(k, k).abs();
            for i in (k + 1)..n {
                let v = self.la_get(i, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = i;
                }
            }
            if pivot_val <= LU_SINGULARITY_TOL * scale {
                return Err(NumError::Singular);
            }
            if pivot_row != k {
                for j in 0..n {
                    let tmp = self.la_get(k, j);
                    self.la_set(k, j, self.la_get(pivot_row, j));
                    self.la_set(pivot_row, j, tmp);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let pivot = self.la_get(k, k);
            for i in (k + 1)..n {
                let factor = self.la_get(i, k) / pivot;
                self.la_set(i, k, factor);
                for j in (k + 1)..n {
                    self.la_set(i, j, self.la_get(i, j) - factor * self.la_get(k, j));
                }
            }
        }
        Ok(perm_sign)
    }

    /// Solves `A x = b` from a factored LU (`self` as left by
    /// [`la_lu_factor`](Self::la_lu_factor)): gathers `b` through the
    /// permutation into `x`, then forward/backward substitutes.
    fn la_lu_solve(&self, perm: &[usize], b: &[f64], x: &mut [f64]) {
        let n = self.la_rows();
        debug_assert_eq!(b.len(), n);
        debug_assert_eq!(x.len(), n);
        for i in 0..n {
            x[i] = b[perm[i]];
        }
        for i in 1..n {
            let mut s = x[i];
            for j in 0..i {
                s -= self.la_get(i, j) * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for j in (i + 1)..n {
                s -= self.la_get(i, j) * x[j];
            }
            x[i] = s / self.la_get(i, i);
        }
    }

    /// Inverse from a factored LU: solves against the identity column
    /// by column into `out` (same square shape). `rhs` and `col` are
    /// length-`n` scratch buffers.
    fn la_lu_inverse_into(
        &self,
        perm: &[usize],
        out: &mut impl LinAlg,
        rhs: &mut [f64],
        col: &mut [f64],
    ) {
        let n = self.la_rows();
        for j in 0..n {
            for (i, r) in rhs.iter_mut().enumerate() {
                *r = if i == j { 1.0 } else { 0.0 };
            }
            self.la_lu_solve(perm, rhs, col);
            for (i, v) in col.iter().enumerate() {
                out.la_set(i, j, *v);
            }
        }
    }
}

/// Relative pivot threshold below which a matrix is declared singular
/// (shared with [`crate::Lu`]).
pub(crate) const LU_SINGULARITY_TOL: f64 = 1e-13;

impl LinAlg for Matrix {
    fn la_rows(&self) -> usize {
        self.rows()
    }

    fn la_cols(&self) -> usize {
        self.cols()
    }

    fn la_get(&self, i: usize, j: usize) -> f64 {
        self[(i, j)]
    }

    fn la_set(&mut self, i: usize, j: usize, v: f64) {
        self[(i, j)] = v;
    }

    fn la_max_abs(&self) -> f64 {
        self.max_abs()
    }
}

/// Solves the least-squares problem `min ‖x β − y‖²` by Householder QR:
/// the fit behind every response surface.
///
/// A system within [`SMAT_MAX_ROWS`] × [`SMAT_MAX_COLS`] runs on stack
/// storage ([`SMat`]) with no allocation but the result; a larger one
/// runs on the heap through [`crate::Qr`]. Both run the same [`LinAlg`]
/// kernels, so the choice changes where the numbers live, never a bit
/// of the answer.
///
/// # Errors
///
/// * [`NumError::InvalidArgument`] when `x` has fewer rows than
///   columns.
/// * [`NumError::ShapeMismatch`] when `y.len()` differs from the
///   row count.
/// * [`NumError::RankDeficient`] when the system is numerically
///   singular.
pub fn solve_least_squares(x: &Matrix, y: &[f64]) -> Result<Vec<f64>> {
    let (m, n) = x.shape();
    if m > SMAT_MAX_ROWS || n > SMAT_MAX_COLS {
        return x.qr()?.solve_least_squares(y);
    }
    if m < n {
        return Err(NumError::InvalidArgument(
            "qr: matrix must have rows >= cols",
        ));
    }
    if y.len() != m {
        return Err(NumError::ShapeMismatch {
            op: "qr least squares",
            lhs: (m, n),
            rhs: (y.len(), 1),
        });
    }
    let mut qr = SMat::<SMAT_MAX_ROWS, SMAT_MAX_COLS>::from_linalg(x);
    let mut r_diag = [0.0; SMAT_MAX_COLS];
    qr.la_qr_factor(&mut r_diag[..n]);
    let mut rhs = [0.0; SMAT_MAX_ROWS];
    rhs[..m].copy_from_slice(y);
    let mut beta = vec![0.0; n];
    qr.la_qr_solve(&r_diag[..n], &mut rhs[..m], &mut beta)?;
    Ok(beta)
}

/// Inverse of the information matrix `(xᵀx)⁻¹` via Gram product and LU:
/// the covariance kernel of the response-surface fit.
///
/// Up to [`SMAT_MAX_COLS`] columns the Gram matrix and its factors live
/// on the stack; wider systems take `x.gram().inverse()` on the heap,
/// which runs the same kernels bit for bit.
///
/// # Errors
///
/// Returns [`NumError::Singular`] when `xᵀx` is numerically singular.
pub fn gram_inverse(x: &Matrix) -> Result<Matrix> {
    let p = x.cols();
    if p > SMAT_MAX_COLS {
        return x.gram().inverse();
    }
    let mut gram = SMat::<SMAT_MAX_COLS, SMAT_MAX_COLS>::zeros(p, p);
    x.la_gram_into(&mut gram);
    let mut perm = [0usize; SMAT_MAX_COLS];
    gram.la_lu_factor(&mut perm[..p])?;
    let mut out = Matrix::zeros(p, p);
    let mut rhs = [0.0; SMAT_MAX_COLS];
    let mut col = [0.0; SMAT_MAX_COLS];
    gram.la_lu_inverse_into(&perm[..p], &mut out, &mut rhs[..p], &mut col[..p]);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design_matrix(m: usize, n: usize) -> Matrix {
        // Vandermonde columns at distinct nodes: full column rank.
        Matrix::from_fn(m, n, |i, j| (0.3 + 0.2 * i as f64).powi(j as i32))
    }

    #[test]
    fn least_squares_backends_are_bit_identical() {
        // The stack path must equal the public heap Qr path.
        let x = design_matrix(10, 4);
        let y: Vec<f64> = (0..10).map(|i| (i as f64 * 0.37).cos()).collect();
        let qr_beta = x.qr().unwrap().solve_least_squares(&y).unwrap();
        assert_eq!(solve_least_squares(&x, &y).unwrap(), qr_beta);
    }

    #[test]
    fn gram_inverse_backends_are_bit_identical() {
        // The stack path must equal the public gram + LU inverse path.
        let x = design_matrix(12, 5);
        assert_eq!(gram_inverse(&x).unwrap(), x.gram().inverse().unwrap());
    }

    #[test]
    fn oversized_systems_fall_back_to_the_heap_path() {
        let x = design_matrix(SMAT_MAX_ROWS + 3, 4);
        let y = vec![1.0; SMAT_MAX_ROWS + 3];
        let qr_beta = x.qr().unwrap().solve_least_squares(&y).unwrap();
        assert_eq!(solve_least_squares(&x, &y).unwrap(), qr_beta);
    }

    #[test]
    fn degenerate_systems_fail_identically() {
        // Two equal columns: rank deficient on both storages.
        let x = Matrix::from_fn(6, 3, |i, j| if j == 1 { (i * i) as f64 } else { i as f64 });
        let y = vec![1.0; 6];
        let e = solve_least_squares(&x, &y).unwrap_err();
        assert_eq!(e, x.qr().unwrap().solve_least_squares(&y).unwrap_err());
        assert!(matches!(e, NumError::RankDeficient { .. }));
        assert_eq!(
            gram_inverse(&x).unwrap_err(),
            x.gram().inverse().unwrap_err()
        );
    }

    #[test]
    fn matmul_kernel_matches_matrix_matmul() {
        let a = design_matrix(4, 3);
        let b = design_matrix(3, 5);
        let mut out = Matrix::zeros(4, 5);
        a.la_matmul_into(&b, &mut out);
        assert_eq!(out, a.matmul(&b).unwrap());
    }
}
