//! Dense linear algebra and statistics kernel for the WSN-DSE workspace.
//!
//! This crate provides the numerical substrate that the design-of-experiments
//! (`doe`), response-surface (`rsm`) and simulation crates build on:
//!
//! * [`Matrix`] — a small, row-major dense matrix with the usual algebra.
//! * [`Lu`] — LU decomposition with partial pivoting (solve, determinant,
//!   inverse).
//! * [`Qr`] — Householder QR decomposition and least-squares solving.
//! * [`Cholesky`] — Cholesky factorisation for symmetric positive definite
//!   systems.
//! * [`linalg`] — the dense kernels: the [`LinAlg`] trait shared by the
//!   heap [`Matrix`] and the const-generic stack [`SMat`], and the
//!   least-squares and `(XᵀX)⁻¹` entries that use stack storage when a
//!   system fits and the heap otherwise.
//! * [`SymEigen`] — Jacobi eigen-decomposition of symmetric matrices
//!   (used by the canonical analysis of fitted response surfaces).
//! * [`stats`] — descriptive statistics used by the experiment harness.
//! * [`rng`] — in-tree seeded SplitMix64 PRNG (the workspace builds with
//!   no registry dependencies).
//! * [`pool`] — deterministic ordered parallel map over scoped threads.
//!
//! The matrices involved in the reproduced paper are tiny (a 10-row design
//! matrix is the largest object in the main flow), so the implementation
//! favours clarity and numerical robustness over blocked performance.
//!
//! # Example
//!
//! ```
//! use numkit::Matrix;
//!
//! # fn main() -> Result<(), numkit::NumError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = Matrix::col_vector(&[1.0, 2.0]);
//! let x = a.lu()?.solve(&b)?;
//! assert!((a.matmul(&x)? - b).frobenius_norm() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cholesky;
mod eigen;
mod error;
pub mod linalg;
mod lu;
mod matrix;
pub mod pool;
mod qr;
pub mod rng;
mod smat;
pub mod stats;

pub use cholesky::Cholesky;
pub use eigen::SymEigen;
pub use error::NumError;
pub use linalg::LinAlg;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use smat::SMat;

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NumError>;
