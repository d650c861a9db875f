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
//!   operator `K = [Φ; I]`; the workhorse decoder.
//!   [`solve_pdhg_batch_workspace`] runs it over K same-shape windows in
//!   lockstep, bit-identical per window; it is the only batched solver.
//! * [`solve_admm`] — ADMM with three splits (ℓ₂-ball, box, ℓ₁), solving
//!   its x-subproblem by conjugate gradient; cross-checks PDHG in tests and
//!   powers the solver ablation.
//! * [`solve_fista`] — accelerated proximal gradient on the unconstrained
//!   LASSO form (a digital-CS baseline).
//! * [`solve_omp`], [`solve_cosamp`], [`solve_iht`] — greedy baselines over
//!   an explicit `ΦΨ` matrix.
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
//! use hybridcs_solver::{solve_pdhg, BpdnProblem, DenseOperator, PdhgOptions};
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
//! let result = solve_pdhg(&problem, &PdhgOptions::default())?;
//! assert!(result.iterations > 0);
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: `simd` scopes a single `allow(unsafe_code)`
// around its runtime-dispatched AVX2 twins of the batched update kernels;
// everything else still refuses unsafe at compile time.
#![deny(unsafe_code)]
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

pub use admm::{solve_admm, solve_admm_observed, solve_admm_workspace, AdmmOptions};
pub use batch::{solve_pdhg_batch_workspace, BatchProblem};
pub use error::SolverError;
pub use fista::{solve_fista, solve_fista_observed, solve_fista_workspace, FistaOptions};
pub use greedy::{
    solve_cosamp, solve_cosamp_observed, solve_iht, solve_iht_observed, solve_iht_workspace,
    solve_omp, solve_omp_observed, GreedyOptions,
};
pub use operator::{ComposedOperator, DenseOperator, LinearOperator, SynthesisOperator};
pub use pdhg::{solve_pdhg, solve_pdhg_observed, solve_pdhg_workspace, PdhgOptions};
pub use problem::{BpdnProblem, RecoveryResult};
pub use reweighted::{
    solve_reweighted, solve_reweighted_observed, solve_reweighted_workspace, ReweightedOptions,
};
pub use watchdog::{SolverWatchdog, WatchdogConfig, WatchdogTrip};
pub use weights::band_weights;
pub use workspace::SolverWorkspace;

// Observability vocabulary re-exported so downstream crates can drive the
// `*_observed` entry points without depending on `hybridcs-obs` directly.
pub use hybridcs_obs::{
    ConvergenceTrace, IterationEvent, IterationObserver, NoopObserver, RecordingObserver,
    StopReason,
};
