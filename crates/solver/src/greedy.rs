//! Greedy sparse-recovery baselines: OMP, CoSaMP and IHT.
//!
//! These operate in the **coefficient domain** on an explicit sensing
//! matrix `A = ΦΨ` (built once per configuration via
//! [`SensingMatrix::to_matrix`-style composition]) because greedy support
//! selection needs direct access to columns. The returned
//! [`RecoveryResult::signal`] therefore holds the coefficient vector `α`;
//! callers synthesize `x = Ψα` with their transform.
//!
//! Only IHT draws its buffers from a [`SolverWorkspace`]: its iteration
//! touches fixed-size dense buffers, so pooling removes every per-iteration
//! allocation. OMP and CoSaMP refit by Householder QR over a
//! *support-dependent* column subset each round — the factorization size
//! changes as the support grows, so those solvers are inherently
//! allocation-per-refit and take no workspace (they are offline ablation
//! baselines, not decode-path solvers).

use crate::{RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_linalg::{vector, Matrix, QrFactorization};
use hybridcs_obs::{ConvergenceTrace, IterationEvent, IterationObserver, StopReason};
use std::time::Instant;

/// Options shared by the greedy solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GreedyOptions {
    /// Target sparsity `s` (support-size cap).
    pub max_sparsity: usize,
    /// Stop when the residual norm drops below this value.
    pub residual_tolerance: f64,
    /// Outer-iteration budget (CoSaMP/IHT; OMP is bounded by
    /// `max_sparsity`).
    pub max_iterations: usize,
    /// IHT step size μ; `None` uses `1/‖A‖²` from power iteration.
    pub step: Option<f64>,
}

impl Default for GreedyOptions {
    fn default() -> Self {
        GreedyOptions {
            max_sparsity: 16,
            residual_tolerance: 1e-6,
            max_iterations: 100,
            step: None,
        }
    }
}

fn validate(a: &Matrix, y: &[f64], options: &GreedyOptions) -> Result<(), SolverError> {
    if y.len() != a.nrows() {
        return Err(SolverError::DimensionMismatch {
            what: "measurements vs matrix rows",
            expected: a.nrows(),
            actual: y.len(),
        });
    }
    if let Some(index) = crate::problem::first_non_finite(y) {
        return Err(SolverError::NonFinite {
            what: "measurements",
            index,
        });
    }
    if options.max_sparsity == 0 || options.max_sparsity > a.ncols() {
        return Err(SolverError::BadParameter {
            name: "max_sparsity",
            value: options.max_sparsity as f64,
        });
    }
    if options.max_iterations == 0 {
        return Err(SolverError::BadParameter {
            name: "max_iterations",
            value: 0.0,
        });
    }
    if options.residual_tolerance.is_nan() || options.residual_tolerance < 0.0 {
        return Err(SolverError::BadParameter {
            name: "residual_tolerance",
            value: options.residual_tolerance,
        });
    }
    Ok(())
}

/// Least-squares refit of `y` on the columns `support` of `a`; returns the
/// dense coefficient vector (zeros off-support) and the residual.
fn refit(a: &Matrix, y: &[f64], support: &[usize]) -> Result<(Vec<f64>, Vec<f64>), SolverError> {
    let a_s = a.select_columns(support);
    let qr = QrFactorization::factor(&a_s)?;
    let coeff_s = qr.solve_least_squares(y)?;
    let mut alpha = vec![0.0; a.ncols()];
    for (&idx, &c) in support.iter().zip(&coeff_s) {
        alpha[idx] = c;
    }
    let fitted = a_s.matvec(&coeff_s);
    let residual = vector::sub(y, &fitted);
    Ok((alpha, residual))
}

/// Orthogonal Matching Pursuit.
///
/// Greedily grows the support by the column best correlated with the
/// residual, refitting by least squares (Householder QR) after every
/// addition. Stops at `max_sparsity` atoms or when the residual drops
/// below `residual_tolerance`.
///
/// Returns the coefficient vector in [`RecoveryResult::signal`].
///
/// When `observer` is [active](IterationObserver::active), every atom
/// selection emits an [`IterationEvent`] (objective = `‖α‖₁`, residual =
/// post-refit residual norm, no step size), and completion emits a
/// [`ConvergenceTrace`]. [`StopReason::SupportExhausted`] reports a residual
/// orthogonal to every remaining atom. The observer never changes the
/// arithmetic.
///
/// # Errors
///
/// Returns [`SolverError`] on dimension mismatches, bad options, or a
/// rank-deficient refit (duplicate/degenerate columns).
///
/// # Example
///
/// ```
/// use hybridcs_linalg::Matrix;
/// use hybridcs_solver::{solve_omp, GreedyOptions, NoopObserver};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // y = 3·a₂ for an identity dictionary: OMP finds it in one step.
/// let a = Matrix::identity(4);
/// let y = [0.0, 0.0, 3.0, 0.0];
/// let options = GreedyOptions { max_sparsity: 1, ..GreedyOptions::default() };
/// let result = solve_omp(&a, &y, &options, &mut NoopObserver)?;
/// assert!((result.signal[2] - 3.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn solve_omp(
    a: &Matrix,
    y: &[f64],
    options: &GreedyOptions,
    observer: &mut dyn IterationObserver,
) -> Result<RecoveryResult, SolverError> {
    let started = Instant::now();
    validate(a, y, options)?;
    let mut support: Vec<usize> = Vec::new();
    let mut residual = y.to_vec();
    let mut alpha = vec![0.0; a.ncols()];
    let mut iterations = 0;
    let mut exhausted = false;
    let mut aborted = false;

    while support.len() < options.max_sparsity
        && vector::norm2(&residual) > options.residual_tolerance
    {
        iterations += 1;
        let correlations = a.matvec_transpose(&residual);
        // Mask already-selected atoms.
        let pick = correlations
            .iter()
            .enumerate()
            .filter(|(i, _)| !support.contains(i))
            .max_by(|(_, x), (_, y)| {
                x.abs()
                    .partial_cmp(&y.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i);
        let Some(pick) = pick else {
            exhausted = true;
            break;
        };
        if correlations[pick] == 0.0 {
            exhausted = true;
            break; // residual orthogonal to every remaining atom
        }
        support.push(pick);
        let (alpha_new, residual_new) = refit(a, y, &support)?;
        alpha = alpha_new;
        residual = residual_new;
        if observer.active() {
            observer.on_iteration(&IterationEvent {
                iteration: iterations,
                objective: vector::norm1(&alpha),
                residual: vector::norm2(&residual),
                step_size: None,
            });
        }
        if observer.should_abort() {
            aborted = true;
            break;
        }
    }

    let res_norm = vector::norm2(&residual);
    let objective = vector::norm1(&alpha);
    let converged =
        !aborted && (res_norm <= options.residual_tolerance || iterations < options.max_sparsity);
    observer.on_complete(&ConvergenceTrace {
        solver: "omp",
        iterations,
        stop_reason: if aborted {
            StopReason::Aborted
        } else if res_norm <= options.residual_tolerance {
            StopReason::Converged
        } else if exhausted {
            StopReason::SupportExhausted
        } else {
            StopReason::MaxIterations
        },
        wall_time: started.elapsed(),
        converged,
        final_objective: objective,
        final_residual: res_norm,
    });
    Ok(RecoveryResult {
        objective,
        signal: alpha,
        iterations,
        converged,
        residual: res_norm,
    })
}

/// Compressive Sampling Matching Pursuit (CoSaMP, Needell & Tropp 2009).
///
/// Each iteration merges the `2s` best proxy atoms with the current
/// support, least-squares refits, and prunes back to the best `s`.
///
/// Returns the coefficient vector in [`RecoveryResult::signal`].
///
/// When `observer` is [active](IterationObserver::active), every
/// merge–refit–prune round emits an [`IterationEvent`] (objective = `‖α‖₁`,
/// residual = post-prune residual norm, no step size), and completion emits
/// a [`ConvergenceTrace`]. [`StopReason::Stagnated`] reports a fixed point;
/// [`StopReason::SupportExhausted`] reports a degenerate (rank-deficient)
/// merge set that forced keeping the previous iterate. The observer never
/// changes the arithmetic.
///
/// # Errors
///
/// Same conditions as [`solve_omp`].
pub fn solve_cosamp(
    a: &Matrix,
    y: &[f64],
    options: &GreedyOptions,
    observer: &mut dyn IterationObserver,
) -> Result<RecoveryResult, SolverError> {
    let started = Instant::now();
    validate(a, y, options)?;
    let s = options.max_sparsity;
    let mut alpha = vec![0.0; a.ncols()];
    let mut residual = y.to_vec();
    let mut iterations = 0;
    let mut converged = false;
    let mut prev_res = f64::INFINITY;
    let mut stop = StopReason::MaxIterations;

    for iter in 1..=options.max_iterations {
        iterations = iter;
        let proxy = a.matvec_transpose(&residual);
        let mut merged = vector::top_k_abs_indices(&proxy, 2 * s);
        for (i, &v) in alpha.iter().enumerate() {
            if v != 0.0 && !merged.contains(&i) {
                merged.push(i);
            }
        }
        merged.sort_unstable();
        let (dense_fit, _) = match refit(a, y, &merged) {
            Ok(fit) => fit,
            Err(SolverError::Linalg(_)) => {
                // degenerate merge set: keep best iterate
                stop = StopReason::SupportExhausted;
                break;
            }
            Err(e) => return Err(e),
        };
        // Prune to the s largest and refit on the pruned support.
        let pruned = vector::top_k_abs_indices(&dense_fit, s);
        let mut pruned_sorted = pruned;
        pruned_sorted.sort_unstable();
        let (alpha_new, residual_new) = match refit(a, y, &pruned_sorted) {
            Ok(fit) => fit,
            Err(SolverError::Linalg(_)) => {
                stop = StopReason::SupportExhausted;
                break;
            }
            Err(e) => return Err(e),
        };
        alpha = alpha_new;
        residual = residual_new;
        let res_norm = vector::norm2(&residual);
        if observer.active() {
            observer.on_iteration(&IterationEvent {
                iteration: iter,
                objective: vector::norm1(&alpha),
                residual: res_norm,
                step_size: None,
            });
        }
        if observer.should_abort() {
            stop = StopReason::Aborted;
            break;
        }
        if res_norm <= options.residual_tolerance {
            converged = true;
            stop = StopReason::Converged;
            break;
        }
        if prev_res.is_finite() && (prev_res - res_norm).abs() <= 1e-12 * prev_res.max(1.0) {
            converged = true; // stagnated at its fixed point
            stop = StopReason::Stagnated;
            break;
        }
        prev_res = res_norm;
    }

    let res_norm = vector::norm2(&residual);
    let objective = vector::norm1(&alpha);
    observer.on_complete(&ConvergenceTrace {
        solver: "cosamp",
        iterations,
        stop_reason: stop,
        wall_time: started.elapsed(),
        converged,
        final_objective: objective,
        final_residual: res_norm,
    });
    Ok(RecoveryResult {
        objective,
        signal: alpha,
        iterations,
        converged,
        residual: res_norm,
    })
}

/// Iterative Hard Thresholding: `α ← H_s(α + μ·Aᵀ(y − Aα))`.
///
/// Returns the coefficient vector in [`RecoveryResult::signal`].
///
/// When `observer` is [active](IterationObserver::active), every
/// hard-thresholding step emits an [`IterationEvent`] (objective = `‖α‖₁`,
/// residual recomputed at the new iterate — one extra matvec, skipped for
/// an inactive observer; step size = μ), and completion emits a
/// [`ConvergenceTrace`]. [`StopReason::Stagnated`] reports a vanishing
/// update. The observer never changes the arithmetic.
///
/// Every per-iteration buffer, including the support-index scratch for the
/// hard threshold, comes from `ws`: once the workspace has been warmed by
/// one solve of each size, the inner loop performs **zero heap
/// allocations**. The returned signal is a `ws` buffer; pass it back via
/// [`SolverWorkspace::release`] to keep the pool in steady state.
///
/// # Errors
///
/// Same conditions as [`solve_omp`], plus a non-positive explicit `step`.
pub fn solve_iht(
    a: &Matrix,
    y: &[f64],
    options: &GreedyOptions,
    observer: &mut dyn IterationObserver,
    ws: &mut SolverWorkspace,
) -> Result<RecoveryResult, SolverError> {
    let started = Instant::now();
    validate(a, y, options)?;
    let n = a.ncols();
    let m = a.nrows();
    let step = match options.step {
        Some(mu) => {
            if !(mu > 0.0 && mu.is_finite()) {
                return Err(SolverError::BadParameter {
                    name: "step",
                    value: mu,
                });
            }
            mu
        }
        None => {
            let (norm, _) = hybridcs_linalg::operator_norm_est(
                n,
                m,
                |x, out| a.matvec_into(x, out),
                |v, out| a.matvec_transpose_into(v, out),
                hybridcs_linalg::PowerIterationOptions::default(),
            );
            1.0 / (norm * norm).max(1e-12)
        }
    };

    let s = options.max_sparsity;
    let mut alpha = ws.acquire(n);
    let mut ax = ws.acquire(m);
    let mut residual = ws.acquire(m);
    let mut grad = ws.acquire(n);
    let mut next = ws.acquire(n);
    let mut thresholded = ws.acquire(n);
    let mut keep = ws.acquire_indices(n);
    let mut iterations = 0;
    let mut converged = false;
    let mut stop = StopReason::MaxIterations;

    for iter in 1..=options.max_iterations {
        iterations = iter;
        a.matvec_into(&alpha, &mut ax);
        for (r, (&yi, &axi)) in residual.iter_mut().zip(y.iter().zip(&ax)) {
            *r = yi - axi;
        }
        if vector::norm2(&residual) <= options.residual_tolerance {
            converged = true;
            stop = StopReason::Converged;
            break;
        }
        a.matvec_transpose_into(&residual, &mut grad);
        next.copy_from_slice(&alpha);
        vector::axpy(step, &grad, &mut next);
        // Hard threshold to the s largest entries.
        vector::top_k_abs_indices_into(&next, s, &mut keep);
        thresholded.fill(0.0);
        for &i in &keep {
            thresholded[i] = next[i];
        }
        let change = vector::dist2(&thresholded, &alpha);
        std::mem::swap(&mut alpha, &mut thresholded);
        if observer.active() {
            // One extra matvec for the residual at the new iterate; skipped
            // entirely on the no-op path.
            a.matvec_into(&alpha, &mut ax);
            for (r, (&yi, &axi)) in residual.iter_mut().zip(y.iter().zip(&ax)) {
                *r = yi - axi;
            }
            observer.on_iteration(&IterationEvent {
                iteration: iter,
                objective: vector::norm1(&alpha),
                residual: vector::norm2(&residual),
                step_size: Some(step),
            });
        }
        if observer.should_abort() {
            stop = StopReason::Aborted;
            break;
        }
        if change <= 1e-10 * vector::norm2(&alpha).max(1.0) {
            converged = true;
            stop = StopReason::Stagnated;
            break;
        }
    }

    a.matvec_into(&alpha, &mut ax);
    for (r, (&yi, &axi)) in residual.iter_mut().zip(y.iter().zip(&ax)) {
        *r = yi - axi;
    }
    let res_norm = vector::norm2(&residual);
    let objective = vector::norm1(&alpha);
    for buf in [ax, residual, grad, next, thresholded] {
        ws.release(buf);
    }
    ws.release_indices(keep);
    observer.on_complete(&ConvergenceTrace {
        solver: "iht",
        iterations,
        stop_reason: stop,
        wall_time: started.elapsed(),
        converged,
        final_objective: objective,
        final_residual: res_norm,
    });
    Ok(RecoveryResult {
        objective,
        residual: res_norm,
        signal: alpha,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoopObserver;

    /// Deterministic Gaussian-ish matrix with normalized columns
    /// (splitmix64 for well-mixed, incoherent columns).
    fn dictionary(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            ((z >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut mat = Matrix::from_fn(m, n, |_, _| next());
        for j in 0..n {
            let col = mat.col(j);
            let norm = vector::norm2(&col);
            for i in 0..m {
                mat.set(i, j, mat.get(i, j) / norm);
            }
        }
        mat
    }

    fn sparse_truth(n: usize, support: &[usize], values: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; n];
        for (&i, &v) in support.iter().zip(values) {
            x[i] = v;
        }
        x
    }

    #[test]
    fn omp_exact_recovery_of_sparse_vector() {
        let a = dictionary(40, 128, 1);
        let truth = sparse_truth(128, &[5, 60, 100], &[2.0, -1.5, 0.8]);
        let y = a.matvec(&truth);
        let result = solve_omp(
            &a,
            &y,
            &GreedyOptions {
                max_sparsity: 3,
                ..GreedyOptions::default()
            },
            &mut NoopObserver,
        )
        .unwrap();
        for (got, want) in result.signal.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
        assert!(result.converged);
        assert!(result.residual < 1e-8);
    }

    #[test]
    fn cosamp_exact_recovery_of_sparse_vector() {
        let a = dictionary(64, 128, 2);
        let truth = sparse_truth(128, &[3, 77, 111, 64], &[1.0, 2.0, -1.0, 0.5]);
        let y = a.matvec(&truth);
        let result = solve_cosamp(
            &a,
            &y,
            &GreedyOptions {
                max_sparsity: 4,
                ..GreedyOptions::default()
            },
            &mut NoopObserver,
        )
        .unwrap();
        for (got, want) in result.signal.iter().zip(&truth) {
            assert!((got - want).abs() < 1e-6, "{got} vs {want}");
        }
    }

    #[test]
    fn iht_recovers_well_conditioned_sparse_vector() {
        let a = dictionary(64, 128, 3);
        let truth = sparse_truth(128, &[10, 90], &[3.0, -2.0]);
        let y = a.matvec(&truth);
        let result = solve_iht(
            &a,
            &y,
            &GreedyOptions {
                max_sparsity: 2,
                max_iterations: 2000,
                ..GreedyOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let err = vector::dist2(&result.signal, &truth);
        assert!(err < 0.05 * vector::norm2(&truth), "err {err}");
    }

    #[test]
    fn omp_respects_sparsity_cap() {
        let a = dictionary(30, 100, 4);
        let truth = sparse_truth(100, &[1, 2, 3, 4, 5, 6], &[1.0; 6]);
        let y = a.matvec(&truth);
        let result = solve_omp(
            &a,
            &y,
            &GreedyOptions {
                max_sparsity: 2,
                ..GreedyOptions::default()
            },
            &mut NoopObserver,
        )
        .unwrap();
        let nonzeros = result.signal.iter().filter(|v| **v != 0.0).count();
        assert!(nonzeros <= 2);
    }

    #[test]
    fn noisy_measurements_leave_residual() {
        let a = dictionary(40, 128, 5);
        let truth = sparse_truth(128, &[7, 70], &[1.0, -1.0]);
        let mut y = a.matvec(&truth);
        for (i, v) in y.iter_mut().enumerate() {
            *v += 0.01 * ((i * 37 % 11) as f64 - 5.0) / 5.0;
        }
        let result = solve_omp(
            &a,
            &y,
            &GreedyOptions {
                max_sparsity: 2,
                residual_tolerance: 1e-9,
                ..GreedyOptions::default()
            },
            &mut NoopObserver,
        )
        .unwrap();
        assert!(result.residual > 1e-4);
        assert!(result.residual < 0.2);
    }

    #[test]
    fn zero_measurements_give_zero_solution() {
        let a = dictionary(20, 50, 6);
        let y = vec![0.0; 20];
        let opts = GreedyOptions::default();
        for result in [
            solve_omp(&a, &y, &opts, &mut NoopObserver),
            solve_cosamp(&a, &y, &opts, &mut NoopObserver),
            solve_iht(
                &a,
                &y,
                &opts,
                &mut NoopObserver,
                &mut SolverWorkspace::new(),
            ),
        ] {
            assert!(vector::norm2(&result.unwrap().signal) < 1e-9);
        }
    }

    #[test]
    fn validation_errors() {
        let a = dictionary(20, 50, 7);
        let y_bad = vec![0.0; 10];
        assert!(solve_omp(&a, &y_bad, &GreedyOptions::default(), &mut NoopObserver).is_err());
        let y = vec![0.0; 20];
        assert!(solve_omp(
            &a,
            &y,
            &GreedyOptions {
                max_sparsity: 0,
                ..GreedyOptions::default()
            },
            &mut NoopObserver
        )
        .is_err());
        assert!(solve_iht(
            &a,
            &y,
            &GreedyOptions {
                step: Some(-1.0),
                ..GreedyOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new()
        )
        .is_err());
        assert!(solve_cosamp(
            &a,
            &y,
            &GreedyOptions {
                max_iterations: 0,
                ..GreedyOptions::default()
            },
            &mut NoopObserver
        )
        .is_err());
    }

    #[test]
    fn omp_deterministic() {
        let a = dictionary(40, 128, 8);
        let truth = sparse_truth(128, &[5, 60, 100], &[2.0, -1.5, 0.8]);
        let y = a.matvec(&truth);
        let opts = GreedyOptions {
            max_sparsity: 3,
            ..GreedyOptions::default()
        };
        let r1 = solve_omp(&a, &y, &opts, &mut NoopObserver).unwrap();
        let r2 = solve_omp(&a, &y, &opts, &mut NoopObserver).unwrap();
        assert_eq!(r1.signal, r2.signal);
    }
}
