//! Sparse-recovery solvers for the hybrid compressed-sensing decoder.
//!
//! The paper's Eq. (1) is the convex program
//!
//! ```text
//! min ‖α‖₁   s.t.   ‖ΦΨα − y‖₂ ≤ σ   and   ẋ ≤ Ψα ≤ ẋ + d
//! ```
//!
//! which the authors solve with the MATLAB conic toolbox SDPT3. No such
//! toolbox exists in the Rust ecosystem, so this crate implements the
//! program from scratch with two independent first-order methods plus a
//! family of classic CS baselines:
//!
//! * [`solve_pdhg`] — Chambolle–Pock primal–dual splitting with the stacked
//!   operator `K = [Φ; I]`; the workhorse decoder. [`solve_pdhg_batch`]
//!   runs it over K same-shape windows in lockstep, bit-identical per
//!   window; it is the only batched solver.
//! * [`solve_admm`] — ADMM with three splits (ℓ₂-ball, box, ℓ₁), solving
//!   its x-subproblem by conjugate gradient; cross-checks PDHG in tests and
//!   powers the solver ablation.
//! * [`solve_fista`] — accelerated proximal gradient on the unconstrained
//!   LASSO form (a digital-CS baseline).
//! * [`solve_omp`], [`solve_cosamp`], [`solve_iht`] — greedy baselines over
//!   an explicit `ΦΨ` matrix.
//!
//! Each solver has exactly one entry point. It takes an
//! [`IterationObserver`] (pass [`NoopObserver`] to watch nothing) and, for
//! every solver but OMP and CoSaMP, a [`SolverWorkspace`] that supplies its
//! buffers, including the returned signal.
//!
//! Working in the *signal* domain `x = Ψα` with an **orthonormal** wavelet
//! `Ψ` (from [`hybridcs_dsp`]) keeps every proximal step cheap:
//! `prox(τ‖Ψᵀ·‖₁)(v) = Ψ·soft(Ψᵀv, τ)` costs two fast transforms.
//!
//! # Example
//!
//! ```
//! use hybridcs_dsp::{Dwt, Wavelet};
//! use hybridcs_linalg::Matrix;
//! use hybridcs_solver::{
//!     solve_pdhg, BpdnProblem, DenseOperator, NoopObserver, PdhgOptions, SolverWorkspace,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Tiny smoke problem: recover a smooth signal from 3/4 of its samples.
//! let n = 64;
//! let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
//! let phi = Matrix::from_fn(48, n, |i, j| if j == i { 1.0 } else { 0.0 });
//! let y = phi.matvec(&x_true);
//! let problem = BpdnProblem {
//!     sensing: &DenseOperator::new(phi),
//!     dwt: &Dwt::new(Wavelet::Db4, 2)?,
//!     measurements: &y,
//!     sigma: 1e-3,
//!     box_bounds: None,
//!     coefficient_weights: None,
//! };
//! let mut ws = SolverWorkspace::new();
//! let result = solve_pdhg(&problem, &PdhgOptions::default(), &mut NoopObserver, &mut ws)?;
//! assert!(result.iterations > 0);
//! # Ok(())
//! # }
//! ```

// The SIMD tier of the batched update kernels is their safe scalar loop
// run through `hybridcs_linalg::simd::on_tier`, so this crate holds no
// unsafe code at all.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admm;
mod batch;
mod error;
mod fista;
mod greedy;
mod operator;
mod pdhg;
mod problem;
pub mod prox;
mod reweighted;
pub mod simd;
mod watchdog;
mod weights;
mod workspace;

pub use admm::{solve_admm, AdmmOptions};
pub use batch::{solve_pdhg_batch, BatchProblem};
pub use error::SolverError;
pub use fista::{solve_fista, FistaOptions};
pub use greedy::{solve_cosamp, solve_iht, solve_omp, GreedyOptions};
pub use operator::{DenseOperator, LinearOperator};
pub use pdhg::{solve_pdhg, PdhgOptions};
pub use problem::{BpdnProblem, RecoveryResult};
pub use reweighted::{solve_reweighted, ReweightedOptions};
pub use watchdog::{SolverWatchdog, WatchdogConfig, WatchdogTrip};
pub use weights::band_weights;
pub use workspace::SolverWorkspace;

/// Serializes the unit tests that flip the process-global SIMD dispatch
/// override, so no test reads a tier another test has just switched.
#[cfg(test)]
fn tier_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

// Observability vocabulary re-exported so downstream crates can pass an
// observer to any `solve_*` function without depending on `hybridcs-obs`.
pub use hybridcs_obs::{
    ConvergenceTrace, IterationEvent, IterationObserver, NoopObserver, RecordingObserver,
    StopReason,
};
