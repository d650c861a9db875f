//! Wavelet transforms and digital filters for the hybrid compressed-sensing
//! ECG front-end reproduction.
//!
//! The recovery program of the paper (Eq. 1) is posed in a sparsifying basis
//! `Ψ`; following the authors' earlier ECG-CS work the basis is an
//! **orthonormal Daubechies wavelet frame**. This crate implements:
//!
//! * [`Wavelet`] — orthonormal filter families (Haar, db2, db4, db6, sym4)
//!   with their quadrature-mirror high-pass filters.
//! * [`Dwt`] — multi-level periodized discrete wavelet transform. Because
//!   the filter banks are orthonormal, [`Dwt::inverse`] is exactly the
//!   adjoint of [`Dwt::forward`], which lets the proximal solvers evaluate
//!   `prox(‖Ψᵀ·‖₁)` with two fast transforms instead of an `n × n` matrix.
//! * [`filters`] — small FIR/IIR building blocks used by the synthetic ECG
//!   noise models (baseline wander shaping, mains hum, EMG band-pass).
//!
//! # Example
//!
//! ```
//! use hybridcs_dsp::{Dwt, Wavelet};
//!
//! # fn main() -> Result<(), hybridcs_dsp::DspError> {
//! let dwt = Dwt::new(Wavelet::Db4, 3)?;
//! let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
//! let coeffs = dwt.forward(&x)?;
//! let back = dwt.inverse(&coeffs)?;
//! let err: f64 = x.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
//! assert!(err < 1e-10, "orthonormal DWT reconstructs perfectly");
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: `transform::panel_kernels` scopes a single
// `allow(unsafe_code)` around its width-generic filter-bank bodies, which
// read and write the panels through raw pointers; everything else still
// refuses unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod filters;
mod transform;
mod wavelet;

pub use error::DspError;
pub use transform::{CoeffLayout, Dwt};
pub use wavelet::Wavelet;
