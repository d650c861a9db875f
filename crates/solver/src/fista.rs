use crate::prox;
use crate::{BpdnProblem, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_linalg::vector;
use hybridcs_obs::{ConvergenceTrace, IterationEvent, IterationObserver, StopReason};
use std::time::Instant;

/// Options for [`solve_fista`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FistaOptions {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Relative-change stopping tolerance on the coefficient iterate.
    pub tolerance: f64,
    /// ℓ₁ regularization weight λ. `None` uses the data-driven scale
    /// `λ = 0.1·‖Aᵀy‖∞` (floored at `1e-12`): `‖Aᵀy‖∞` is the smallest λ
    /// for which the LASSO solution is exactly zero, so a fixed fraction of
    /// it tracks the measurement energy across windows.
    pub lambda: Option<f64>,
}

impl Default for FistaOptions {
    fn default() -> Self {
        FistaOptions {
            max_iterations: 1000,
            tolerance: 1e-6,
            lambda: None,
        }
    }
}

/// Solves the **unconstrained LASSO relaxation** of the recovery program
/// with FISTA (accelerated proximal gradient):
///
/// ```text
/// min_α ½‖ΦΨα − y‖₂² + λ‖α‖₁
/// ```
///
/// This is the classic digital-CS baseline decoder; the box constraint is
/// *not* representable here, which is exactly why it appears in the solver
/// ablation as a reference point. The result is returned in the signal
/// domain (`x = Ψα`).
///
/// When `observer` is [active](IterationObserver::active), every iteration
/// emits an [`IterationEvent`] carrying the LASSO objective
/// `½‖Aα − y‖² + λ‖α‖₁` and the fidelity residual at the new iterate (one
/// extra `A`-application per iteration, skipped entirely for an inactive
/// observer), and completion emits a [`ConvergenceTrace`]. The observer
/// never changes the arithmetic.
///
/// Every per-iteration buffer comes from `ws`: once the workspace has been
/// warmed by one solve of each size, the inner loop performs **zero heap
/// allocations**. The returned signal is a `ws` buffer; pass it back via
/// [`SolverWorkspace::release`] to keep the pool in steady state.
///
/// # Errors
///
/// Returns [`SolverError`] on validation failure or non-positive `lambda` /
/// options out of range.
pub fn solve_fista(
    problem: &BpdnProblem<'_>,
    options: &FistaOptions,
    observer: &mut dyn IterationObserver,
    ws: &mut SolverWorkspace,
) -> Result<RecoveryResult, SolverError> {
    let started = Instant::now();
    problem.validate()?;
    if options.max_iterations == 0 {
        return Err(SolverError::BadParameter {
            name: "max_iterations",
            value: 0.0,
        });
    }
    if !(options.tolerance > 0.0 && options.tolerance.is_finite()) {
        return Err(SolverError::BadParameter {
            name: "tolerance",
            value: options.tolerance,
        });
    }

    let n = problem.signal_len();
    let m = problem.measurement_len();
    let a = problem.sensing;
    let dwt = problem.dwt;
    let y = problem.measurements;

    // Lipschitz constant of the gradient: L = ‖ΦΨ‖² = ‖Φ‖² (Ψ orthonormal).
    let norm_a = a.norm_est().max(1e-12);
    let l = norm_a * norm_a;
    let step = 1.0 / (1.01 * l);

    // Hot-path buffers; `sig_tmp` carries the signal-domain intermediate of
    // both composed applications A = Φ∘Ψ and Aᵀ = Ψᵀ∘Φᵀ (uses never overlap).
    let mut sig_tmp = ws.acquire(n);
    let mut dwt_scratch = ws.acquire(hybridcs_dsp::Dwt::scratch_len(n));
    let mut op_scratch = ws.acquire(a.scratch_len());
    let mut aty = ws.acquire(n);
    let mut grad = ws.acquire(n);
    let mut alpha = ws.acquire(n);
    let mut momentum = ws.acquire(n);
    let mut alpha_new = ws.acquire(n);
    let mut res = ws.acquire(m);

    a.apply_adjoint_into(y, &mut sig_tmp, &mut op_scratch);
    dwt.forward_into(&sig_tmp, &mut aty, &mut dwt_scratch)
        .expect("length validated");
    let lambda = match options.lambda {
        Some(l) => {
            if !(l > 0.0 && l.is_finite()) {
                for buf in [
                    sig_tmp,
                    dwt_scratch,
                    op_scratch,
                    aty,
                    grad,
                    alpha,
                    momentum,
                    alpha_new,
                    res,
                ] {
                    ws.release(buf);
                }
                return Err(SolverError::BadParameter {
                    name: "lambda",
                    value: l,
                });
            }
            l
        }
        None => 0.1 * vector::norm_inf(&aty).max(1e-12),
    };

    let mut t = 1.0_f64;
    let mut iterations = 0;
    let mut converged = false;
    let mut aborted = false;

    for iter in 1..=options.max_iterations {
        iterations = iter;
        // Gradient step at the momentum point: res = A·momentum − y.
        dwt.inverse_into(&momentum, &mut sig_tmp, &mut dwt_scratch)
            .expect("length validated");
        a.apply_into(&sig_tmp, &mut res, &mut op_scratch);
        for (r, &yi) in res.iter_mut().zip(y) {
            *r -= yi;
        }
        a.apply_adjoint_into(&res, &mut sig_tmp, &mut op_scratch);
        dwt.forward_into(&sig_tmp, &mut grad, &mut dwt_scratch)
            .expect("length validated");
        alpha_new.copy_from_slice(&momentum);
        vector::axpy(-step, &grad, &mut alpha_new);
        match problem.coefficient_weights {
            Some(weights) => prox::soft_threshold_weighted(&mut alpha_new, step * lambda, weights),
            None => prox::soft_threshold_slice(&mut alpha_new, step * lambda),
        }

        // Nesterov momentum.
        let t_new = 0.5 * (1.0 + (1.0 + 4.0 * t * t).sqrt());
        let beta = (t - 1.0) / t_new;
        for i in 0..n {
            momentum[i] = alpha_new[i] + beta * (alpha_new[i] - alpha[i]);
        }
        let change = vector::dist2(&alpha_new, &alpha);
        let scale = vector::norm2(&alpha_new).max(1e-12);
        std::mem::swap(&mut alpha, &mut alpha_new);
        t = t_new;
        if observer.active() {
            // One extra A-application to report the objective at the new
            // iterate; skipped entirely on the no-op path.
            dwt.inverse_into(&alpha, &mut sig_tmp, &mut dwt_scratch)
                .expect("length validated");
            a.apply_into(&sig_tmp, &mut res, &mut op_scratch);
            for (r, &yi) in res.iter_mut().zip(y) {
                *r -= yi;
            }
            let fid = vector::norm2(&res);
            let l1 = match problem.coefficient_weights {
                Some(weights) => alpha
                    .iter()
                    .zip(weights)
                    .map(|(a, w)| w * a.abs())
                    .sum::<f64>(),
                None => vector::norm1(&alpha),
            };
            observer.on_iteration(&IterationEvent {
                iteration: iter,
                objective: 0.5 * fid * fid + lambda * l1,
                residual: fid,
                step_size: Some(step),
            });
        }
        if observer.should_abort() {
            aborted = true;
            break;
        }
        if change <= options.tolerance * scale {
            converged = true;
            break;
        }
    }

    let mut signal = ws.acquire(n);
    dwt.inverse_into(&alpha, &mut signal, &mut dwt_scratch)
        .expect("length validated");
    a.apply_into(&signal, &mut res, &mut op_scratch);
    let residual = vector::dist2(&res, y);
    let objective = vector::norm1(&alpha);
    for buf in [
        sig_tmp,
        dwt_scratch,
        op_scratch,
        aty,
        grad,
        alpha,
        momentum,
        alpha_new,
        res,
    ] {
        ws.release(buf);
    }
    observer.on_complete(&ConvergenceTrace {
        solver: "fista",
        iterations,
        stop_reason: if aborted {
            StopReason::Aborted
        } else if converged {
            StopReason::Converged
        } else {
            StopReason::MaxIterations
        },
        wall_time: started.elapsed(),
        converged,
        final_objective: objective,
        final_residual: residual,
    });
    Ok(RecoveryResult {
        residual,
        objective,
        signal,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseOperator, NoopObserver};
    use hybridcs_dsp::{Dwt, Wavelet};
    use hybridcs_linalg::Matrix;

    fn bernoulli_like(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if (state >> 62) & 1 == 1 {
                1.0 / (n as f64).sqrt()
            } else {
                -1.0 / (n as f64).sqrt()
            }
        })
    }

    fn smooth_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * 2.0 * t).sin()
                    + 0.4 * (2.0 * std::f64::consts::PI * 5.0 * t).cos()
            })
            .collect()
    }

    fn snr_db(truth: &[f64], estimate: &[f64]) -> f64 {
        let err = vector::dist2(truth, estimate);
        20.0 * (vector::norm2(truth) / err.max(1e-30)).log10()
    }

    #[test]
    fn recovers_compressible_signal() {
        let n = 128;
        let m = 64;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 21);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: None,
            coefficient_weights: None,
        };
        let result = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(0.003),
                max_iterations: 2000,
                ..FistaOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let snr = snr_db(&x_true, &result.signal);
        assert!(snr > 12.0, "SNR {snr} dB");
    }

    #[test]
    fn smaller_lambda_fits_measurements_tighter() {
        let n = 64;
        let m = 48;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 23);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: None,
            coefficient_weights: None,
        };
        let loose = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(0.5),
                ..FistaOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let tight = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(0.001),
                ..FistaOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        assert!(tight.residual < loose.residual);
        assert!(tight.objective > loose.objective);
    }

    #[test]
    fn rejects_bad_lambda() {
        let n = 64;
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let y = vec![0.0; n];
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: None,
            coefficient_weights: None,
        };
        assert!(solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(-1.0),
                ..FistaOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new()
        )
        .is_err());
        assert!(solve_fista(
            &problem,
            &FistaOptions {
                max_iterations: 0,
                ..FistaOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new()
        )
        .is_err());
    }

    #[test]
    fn converges_on_identity() {
        let n = 64;
        let x_true = smooth_signal(n);
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &x_true,
            sigma: 1e-3,
            box_bounds: None,
            coefficient_weights: None,
        };
        let result = solve_fista(
            &problem,
            &FistaOptions {
                lambda: Some(1e-4),
                ..FistaOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        assert!(result.converged);
        assert!(snr_db(&x_true, &result.signal) > 25.0);
    }
}
