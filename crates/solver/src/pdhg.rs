use crate::prox;
use crate::{BpdnProblem, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_linalg::vector;
use hybridcs_obs::{ConvergenceTrace, IterationEvent, IterationObserver, StopReason};
use std::time::Instant;

/// Options for [`solve_pdhg`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PdhgOptions {
    /// Iteration budget.
    pub max_iterations: usize,
    /// Relative-change stopping tolerance, evaluated every
    /// `check_interval` iterations.
    pub tolerance: f64,
    /// How often (in iterations) convergence is checked.
    pub check_interval: usize,
    /// Primal/dual step balance: `τ` is multiplied and the dual step
    /// divided by this factor. 1.0 is the symmetric default.
    pub step_ratio: f64,
}

impl Default for PdhgOptions {
    fn default() -> Self {
        PdhgOptions {
            max_iterations: 3000,
            tolerance: 1e-5,
            check_interval: 10,
            step_ratio: 1.0,
        }
    }
}

/// Solves the (optionally box-constrained) BPDN program of Eq. (1) with the
/// Chambolle–Pock primal–dual algorithm.
///
/// The splitting stacks `K = [Φ; I]` (or just `Φ` without a box) and puts
/// the two indicator functions on the dual side:
///
/// * `G₁` — indicator of the ℓ₂ ball `‖· − y‖ ≤ σ` (prox = ball
///   projection),
/// * `G₂` — indicator of the box `[lo, hi]` (prox = clamp),
///
/// while the primal function `F(x) = ‖Ψᵀx‖₁` keeps its cheap orthonormal
/// prox `Ψ·soft(Ψᵀ·, τ)`. Step sizes obey `τς‖K‖² < 1` with `‖K‖` from
/// power iteration.
///
/// When a box is supplied, the returned signal is clamped into it as a
/// final step, so the hybrid decoder's bound guarantee holds *exactly* in
/// the output (the true signal lies in the box, so clamping can only help).
///
/// When `observer` is [active](IterationObserver::active), every iteration
/// emits an [`IterationEvent`] with the new iterate's ℓ₁ objective `‖Ψᵀx‖₁`
/// and the residual `‖Φx̄ − y‖₂` at the extrapolated point its dual step
/// used, both already in hand, so watching costs no extra `Φ`-application;
/// completion emits a [`ConvergenceTrace`] with the exact final `‖Φx − y‖₂`.
/// The observer never changes the arithmetic.
///
/// Every iteration buffer comes from `ws`, so a workspace reused across
/// windows keeps the inner loop free of heap allocations after warm-up.
/// The returned signal is itself a `ws` buffer: hand it back via
/// [`SolverWorkspace::release`] once consumed.
///
/// # Errors
///
/// Returns a [`SolverError`] if the problem fails validation or an option
/// is out of range. Exhausting the iteration budget is reported via
/// `converged = false` in the result, not as an error.
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn solve_pdhg(
    problem: &BpdnProblem<'_>,
    options: &PdhgOptions,
    observer: &mut dyn IterationObserver,
    ws: &mut SolverWorkspace,
) -> Result<RecoveryResult, SolverError> {
    let started = Instant::now();
    problem.validate()?;
    validate_options(options)?;

    let n = problem.signal_len();
    let m = problem.measurement_len();
    let a = problem.sensing;
    let dwt = problem.dwt;
    let y = problem.measurements;
    let has_box = problem.box_bounds.is_some();

    // Step sizes from the stacked operator norm ‖K‖² = ‖Φ‖² (+ 1 with box).
    let norm_a = a.norm_est();
    let norm_k = (norm_a * norm_a + if has_box { 1.0 } else { 0.0 })
        .sqrt()
        .max(1e-12);
    let gamma = 0.99 / norm_k;
    let tau = gamma * options.step_ratio;
    let dual_step = gamma / options.step_ratio;

    let mut x = ws.acquire(n);
    problem.initial_point_into(&mut x);
    let mut x_bar = ws.acquire(n);
    x_bar.copy_from_slice(&x);
    let mut z1 = ws.acquire(m);
    let mut z2 = ws.acquire(n); // unused without a box
    let mut ax = ws.acquire(m);
    let mut at_z1 = ws.acquire(n);
    let mut snapshot = ws.acquire(n);
    snapshot.copy_from_slice(&x);
    let mut ball_point = ws.acquire(m);
    let mut box_point = ws.acquire(n);
    let mut w = ws.acquire(n);
    let mut coeffs = ws.acquire(n);
    let mut x_new = ws.acquire(n);
    let mut dwt_scratch = ws.acquire(hybridcs_dsp::Dwt::scratch_len(n));
    let mut op_scratch = ws.acquire(a.scratch_len());

    let mut iterations = 0;
    let mut converged = false;
    let mut aborted = false;

    for iter in 1..=options.max_iterations {
        iterations = iter;

        // Dual ascent on the fidelity ball: z1 ← v − ς·Π_ball(v/ς).
        a.apply_into(&x_bar, &mut ax, &mut op_scratch);
        for (z, &axi) in z1.iter_mut().zip(&ax) {
            *z += dual_step * axi;
        }
        for (b, &z) in ball_point.iter_mut().zip(&z1) {
            *b = z / dual_step;
        }
        prox::project_l2_ball(&mut ball_point, y, problem.sigma);
        for (z, &p) in z1.iter_mut().zip(&ball_point) {
            *z -= dual_step * p;
        }

        // Dual ascent on the box: z2 ← v − ς·Π_box(v/ς).
        if let Some((lo, hi)) = problem.box_bounds {
            for (z, &xb) in z2.iter_mut().zip(&x_bar) {
                *z += dual_step * xb;
            }
            for (b, &z) in box_point.iter_mut().zip(&z2) {
                *b = z / dual_step;
            }
            prox::project_box(&mut box_point, lo, hi);
            for (z, &p) in z2.iter_mut().zip(&box_point) {
                *z -= dual_step * p;
            }
        }

        // Primal descent with the ℓ₁-in-Ψ prox.
        a.apply_adjoint_into(&z1, &mut at_z1, &mut op_scratch);
        w.copy_from_slice(&x);
        for i in 0..n {
            let grad = at_z1[i] + if has_box { z2[i] } else { 0.0 };
            w[i] -= tau * grad;
        }
        dwt.forward_into(&w, &mut coeffs, &mut dwt_scratch)
            .expect("length validated");
        match problem.coefficient_weights {
            Some(weights) => prox::soft_threshold_weighted(&mut coeffs, tau, weights),
            None => prox::soft_threshold_slice(&mut coeffs, tau),
        }
        dwt.inverse_into(&coeffs, &mut x_new, &mut dwt_scratch)
            .expect("length validated");

        // Over-relaxation (θ = 1) and shift.
        for i in 0..n {
            x_bar[i] = 2.0 * x_new[i] - x[i];
        }
        std::mem::swap(&mut x, &mut x_new);

        if observer.active() {
            // `ax` still holds this iteration's `Φx̄` (the ball projection
            // works on `ball_point`), so the residual costs no forward.
            observer.on_iteration(&IterationEvent {
                iteration: iter,
                objective: vector::norm1(&coeffs),
                residual: vector::dist2(&ax, y),
                step_size: Some(tau),
            });
        }

        if observer.should_abort() {
            aborted = true;
            break;
        }

        if iter % options.check_interval == 0 {
            let change = vector::dist2(&x, &snapshot);
            let scale = vector::norm2(&x).max(1e-12);
            snapshot.copy_from_slice(&x);
            if change <= options.tolerance * scale {
                converged = true;
                break;
            }
        }
    }

    // Enforce the bound exactly on the way out.
    if let Some((lo, hi)) = problem.box_bounds {
        prox::project_box(&mut x, lo, hi);
    }

    a.apply_into(&x, &mut ax, &mut op_scratch);
    let residual = vector::dist2(&ax, y);
    dwt.forward_into(&x, &mut coeffs, &mut dwt_scratch)
        .expect("length validated");
    let objective = vector::norm1(&coeffs);

    ws.release(x_bar);
    ws.release(z1);
    ws.release(z2);
    ws.release(ax);
    ws.release(at_z1);
    ws.release(snapshot);
    ws.release(ball_point);
    ws.release(box_point);
    ws.release(w);
    ws.release(coeffs);
    ws.release(x_new);
    ws.release(dwt_scratch);
    ws.release(op_scratch);

    observer.on_complete(&ConvergenceTrace {
        solver: "pdhg",
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
        signal: x,
        iterations,
        converged,
        residual,
        objective,
    })
}

pub(crate) fn validate_options(options: &PdhgOptions) -> Result<(), SolverError> {
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
    if options.check_interval == 0 {
        return Err(SolverError::BadParameter {
            name: "check_interval",
            value: 0.0,
        });
    }
    if !(options.step_ratio > 0.0 && options.step_ratio.is_finite()) {
        return Err(SolverError::BadParameter {
            name: "step_ratio",
            value: options.step_ratio,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DenseOperator, NoopObserver};
    use hybridcs_dsp::{Dwt, Wavelet};
    use hybridcs_linalg::Matrix;

    /// Deterministic ±1/√n pseudo-Bernoulli sensing matrix.
    fn bernoulli_like(m: usize, n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        Matrix::from_fn(m, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bit = (state >> 62) & 1;
            if bit == 1 {
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
        let sig = vector::norm2(truth);
        20.0 * (sig / err.max(1e-30)).log10()
    }

    #[test]
    fn identity_sensing_recovers_signal() {
        let n = 64;
        let x_true = smooth_signal(n);
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &x_true,
            sigma: 0.05,
            box_bounds: None,
            coefficient_weights: None,
        };
        let result = solve_pdhg(
            &problem,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        assert!(snr_db(&x_true, &result.signal) > 30.0);
        // First-order feasibility: allow a generous slack over sigma.
        assert!(
            result.is_feasible(0.05, 1.0),
            "residual {}",
            result.residual
        );
    }

    #[test]
    fn undersampled_recovery_of_compressible_signal() {
        let n = 128;
        let m = 64;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 1);
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
        let result = solve_pdhg(
            &problem,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let snr = snr_db(&x_true, &result.signal);
        assert!(snr > 15.0, "SNR {snr} dB");
    }

    #[test]
    fn box_constraint_rescues_severe_undersampling() {
        let n = 128;
        let m = 8; // hopeless for plain CS
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 2);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();

        // 4-bit-equivalent box around the truth.
        let d = 0.25;
        let lo: Vec<f64> = x_true.iter().map(|v| (v / d).floor() * d).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + d).collect();

        let plain = solve_pdhg(
            &BpdnProblem {
                sensing: &op,
                dwt: &dwt,
                measurements: &y,
                sigma: 1e-3,
                box_bounds: None,
                coefficient_weights: None,
            },
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let hybrid = solve_pdhg(
            &BpdnProblem {
                sensing: &op,
                dwt: &dwt,
                measurements: &y,
                sigma: 1e-3,
                box_bounds: Some((&lo, &hi)),
                coefficient_weights: None,
            },
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();

        let snr_plain = snr_db(&x_true, &plain.signal);
        let snr_hybrid = snr_db(&x_true, &hybrid.signal);
        assert!(
            snr_hybrid > snr_plain + 6.0,
            "hybrid {snr_hybrid} dB vs plain {snr_plain} dB"
        );
        // The output must satisfy the bound exactly.
        for ((v, l), h) in hybrid.signal.iter().zip(&lo).zip(&hi) {
            assert!(*l <= *v && *v <= *h);
        }
    }

    #[test]
    fn result_reports_objective_and_residual() {
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
        let result = solve_pdhg(
            &problem,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        assert!(result.objective > 0.0);
        assert!(result.residual >= 0.0);
        assert!(result.iterations > 0);
    }

    #[test]
    fn tiny_budget_reports_not_converged() {
        let n = 64;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(32, n, 3);
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
        let result = solve_pdhg(
            &problem,
            &PdhgOptions {
                max_iterations: 3,
                tolerance: 1e-12,
                ..PdhgOptions::default()
            },
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        assert!(!result.converged);
        assert_eq!(result.iterations, 3);
    }

    #[test]
    fn rejects_bad_options() {
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
        for bad in [
            PdhgOptions {
                max_iterations: 0,
                ..PdhgOptions::default()
            },
            PdhgOptions {
                tolerance: -1.0,
                ..PdhgOptions::default()
            },
            PdhgOptions {
                check_interval: 0,
                ..PdhgOptions::default()
            },
            PdhgOptions {
                step_ratio: 0.0,
                ..PdhgOptions::default()
            },
        ] {
            assert!(solve_pdhg(
                &problem,
                &bad,
                &mut NoopObserver,
                &mut SolverWorkspace::new()
            )
            .is_err());
        }
    }

    #[test]
    fn solution_is_sparser_than_backprojection() {
        // The ℓ₁ objective should beat the adjoint initial point.
        let n = 128;
        let m = 48;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 5);
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
        let x0 = problem.initial_point();
        let obj0 = vector::norm1(&dwt.forward(&x0).unwrap());
        let result = solve_pdhg(
            &problem,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        assert!(result.objective < obj0, "{} vs {}", result.objective, obj0);
    }
}
