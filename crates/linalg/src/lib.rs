//! Dense linear-algebra kernels for the hybrid compressed-sensing ECG
//! front-end reproduction.
//!
//! This crate provides exactly the numerical building blocks the rest of the
//! workspace needs — no more, no less:
//!
//! * [`vector`] — BLAS-1 style slice kernels (dot products, norms, `axpy`).
//! * [`Matrix`] — a row-major dense matrix with mat-vec, transposed mat-vec,
//!   Gram products and small-matrix algebra.
//! * [`Cholesky`] — factorization/solve for symmetric positive-definite
//!   systems (the direct reference the conjugate-gradient property tests
//!   check [`conjugate_gradient`] against).
//! * [`QrFactorization`] — Householder QR with a least-squares solver, the
//!   numerically robust alternative to the normal equations (used by the
//!   greedy sparse solvers for their least-squares refits).
//! * [`conjugate_gradient`] — matrix-free CG for SPD operators.
//! * [`operator_norm_est`] — power iteration on `AᵀA` to bound `‖A‖₂`, used
//!   by the first-order solvers to pick safe step sizes.
//!
//! Everything is `f64`; compressed-sensing recovery is iterative and the
//! paper's quality floor (quantization noise) sits far above `f32` precision,
//! but solver *step-size safety* margins are not, so we keep full precision
//! throughout.
//!
//! # Example
//!
//! ```
//! use hybridcs_linalg::{Matrix, Cholesky};
//!
//! # fn main() -> Result<(), hybridcs_linalg::LinalgError> {
//! // Solve the SPD system (AᵀA) x = Aᵀb for a small least-squares problem.
//! let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]])?;
//! let b = [6.0, 9.0, 12.0];
//! let gram = a.gram();
//! let rhs = a.matvec_transpose(&b);
//! let chol = Cholesky::factor(&gram)?;
//! let x = chol.solve(&rhs);
//! assert!((x[0] - 3.0).abs() < 1e-9 && (x[1] - 3.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: `simd` enters its `target_feature` frames
// and panel-kernel entries after runtime detection, and wraps the vector
// intrinsics behind `simd::F64Vector`; everything else still refuses
// unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod cg;
mod cholesky;
mod error;
mod matrix;
mod power_iteration;
mod qr;
pub mod simd;
pub mod vector;

pub use cg::{cg_scratch_len, conjugate_gradient, conjugate_gradient_into, CgOptions, CgOutcome};
pub use cholesky::Cholesky;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use power_iteration::{operator_norm_est, PowerIterationOptions};
pub use qr::QrFactorization;
