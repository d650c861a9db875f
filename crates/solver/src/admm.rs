use crate::prox;
use crate::{BpdnProblem, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_linalg::{cg_scratch_len, conjugate_gradient_into, vector, CgOptions};
use hybridcs_obs::{ConvergenceTrace, IterationEvent, IterationObserver, StopReason};
use std::time::Instant;

/// Options for [`solve_admm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmmOptions {
    /// Outer iteration budget.
    pub max_iterations: usize,
    /// Stopping tolerance on the primal and dual residual norms (relative
    /// to the problem scale).
    pub tolerance: f64,
    /// Penalty parameter ρ.
    pub rho: f64,
    /// Iteration budget of the inner conjugate-gradient solve.
    pub cg_iterations: usize,
    /// Relative tolerance of the inner conjugate-gradient solve.
    pub cg_tolerance: f64,
}

impl Default for AdmmOptions {
    fn default() -> Self {
        AdmmOptions {
            max_iterations: 600,
            tolerance: 1e-5,
            rho: 1.0,
            cg_iterations: 40,
            cg_tolerance: 1e-8,
        }
    }
}

/// Solves the same (optionally box-constrained) BPDN program as
/// [`solve_pdhg`](crate::solve_pdhg) with a three-way ADMM splitting:
///
/// ```text
/// min ‖z₃‖₁ + 𝟙ball(z₁) + 𝟙box(z₂)
/// s.t. z₁ = Φx,  z₂ = x,  z₃ = Ψᵀx
/// ```
///
/// The x-subproblem is the SPD system `(ΦᵀΦ + cI)x = rhs`, where `c`
/// counts one unit for the ℓ₁ split (since `ΨΨᵀ = I`) plus one more when
/// the box is present. It is solved matrix-free by conjugate gradient
/// with a warm start from the previous iterate.
///
/// ADMM exists alongside PDHG for two reasons: (a) two independent
/// implementations of the paper's Eq. (1) cross-validate each other in the
/// integration tests, and (b) the solver ablation
/// (`ablation_solvers`) compares their iteration/runtime profiles.
///
/// When `observer` is [active](IterationObserver::active), every outer
/// iteration emits an [`IterationEvent`] with the ℓ₁ objective `‖Ψᵀx‖₁` and
/// the fidelity residual `‖Φx − y‖₂` — both free, since `Ψᵀx` and `Φx` are
/// already computed by the z-updates — and completion emits a
/// [`ConvergenceTrace`]. `step_size` reports the penalty parameter ρ. The
/// observer never changes the arithmetic.
///
/// Every per-iteration buffer, including the inner conjugate-gradient
/// scratch, comes from `ws`: once the workspace has been warmed by one solve
/// of each size, the inner loop performs **zero heap allocations**. The
/// returned signal is a `ws` buffer; pass it back via
/// [`SolverWorkspace::release`] to keep the pool in steady state.
///
/// # Errors
///
/// Returns [`SolverError`] on validation failure or out-of-range options.
/// Budget exhaustion is reported via `converged = false`.
pub fn solve_admm(
    problem: &BpdnProblem<'_>,
    options: &AdmmOptions,
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
    let rho = options.rho;

    let mut dwt_scratch = ws.acquire(hybridcs_dsp::Dwt::scratch_len(n));
    let mut op_scratch = ws.acquire(a.scratch_len());

    // Splits and duals.
    let mut x = ws.acquire(n);
    problem.initial_point_into(&mut x);
    let mut ax = ws.acquire(m);
    a.apply_into(&x, &mut ax, &mut op_scratch);
    let mut z1 = ws.acquire(m);
    z1.copy_from_slice(&ax);
    let mut u1 = ws.acquire(m);
    let mut z2 = ws.acquire(n);
    z2.copy_from_slice(&x);
    let mut u2 = ws.acquire(n);
    let mut z3 = ws.acquire(n);
    dwt.forward_into(&x, &mut z3, &mut dwt_scratch)
        .expect("length validated");
    let mut u3 = ws.acquire(n);

    // Per-iteration buffers, hoisted out of the loop.
    let mut rhs = ws.acquire(n);
    let mut t1 = ws.acquire(m);
    let mut t3 = ws.acquire(n);
    let mut psi_t3 = ws.acquire(n);
    let mut z1_old = ws.acquire(m);
    let mut z2_old = ws.acquire(n);
    let mut z3_old = ws.acquire(n);
    let mut wx = ws.acquire(n);
    let mut x_cg = ws.acquire(n);
    let mut cg_scratch = ws.acquire(cg_scratch_len(n));
    let mut cg_av = ws.acquire(m);

    // Multiplicity of identity-like splits in the x-subproblem operator:
    // Ψ split always contributes ΨΨᵀ = I; the box split adds another I.
    let identity_weight = if has_box { 2.0 } else { 1.0 };

    let mut iterations = 0;
    let mut converged = false;
    let mut aborted = false;
    let scale = vector::norm2(y).max(1.0);

    for iter in 1..=options.max_iterations {
        iterations = iter;

        // --- x-update: (ΦᵀΦ + cI) x = Φᵀ(z1−u1) + (z2−u2) + Ψ(z3−u3) ---
        for (t, (z, u)) in t1.iter_mut().zip(z1.iter().zip(&u1)) {
            *t = z - u;
        }
        a.apply_adjoint_into(&t1, &mut rhs, &mut op_scratch);
        if has_box {
            for (r, (z, u)) in rhs.iter_mut().zip(z2.iter().zip(&u2)) {
                *r += z - u;
            }
        }
        for (t, (z, u)) in t3.iter_mut().zip(z3.iter().zip(&u3)) {
            *t = z - u;
        }
        dwt.inverse_into(&t3, &mut psi_t3, &mut dwt_scratch)
            .expect("length validated");
        for (r, p) in rhs.iter_mut().zip(&psi_t3) {
            *r += p;
        }

        x_cg.copy_from_slice(&x);
        let cg_result = conjugate_gradient_into(
            |v: &[f64], out: &mut [f64]| {
                a.apply_into(v, &mut cg_av, &mut op_scratch);
                a.apply_adjoint_into(&cg_av, out, &mut op_scratch);
                for (o, vi) in out.iter_mut().zip(v) {
                    *o += identity_weight * vi;
                }
            },
            &rhs,
            &mut x_cg,
            &mut cg_scratch,
            CgOptions {
                max_iterations: options.cg_iterations,
                tolerance: options.cg_tolerance,
            },
        );
        // An inexact inner solve is acceptable; keep the best iterate. On CG
        // breakdown, `x_cg` is discarded and the previous `x` stands — the
        // same policy as the allocating path.
        if cg_result.is_ok() {
            std::mem::swap(&mut x, &mut x_cg);
        }

        // --- z-updates (projections / shrinkage) ---
        a.apply_into(&x, &mut ax, &mut op_scratch);
        let mut primal_sq = 0.0;
        let mut dual_sq = 0.0;

        z1_old.copy_from_slice(&z1);
        for i in 0..m {
            z1[i] = ax[i] + u1[i];
        }
        prox::project_l2_ball(&mut z1, y, problem.sigma);
        for i in 0..m {
            let r = ax[i] - z1[i];
            u1[i] += r;
            primal_sq += r * r;
            let d = z1[i] - z1_old[i];
            dual_sq += rho * rho * d * d;
        }

        if let Some((lo, hi)) = problem.box_bounds {
            z2_old.copy_from_slice(&z2);
            for i in 0..n {
                z2[i] = x[i] + u2[i];
            }
            prox::project_box(&mut z2, lo, hi);
            for i in 0..n {
                let r = x[i] - z2[i];
                u2[i] += r;
                primal_sq += r * r;
                let d = z2[i] - z2_old[i];
                dual_sq += rho * rho * d * d;
            }
        }

        dwt.forward_into(&x, &mut wx, &mut dwt_scratch)
            .expect("length validated");
        z3_old.copy_from_slice(&z3);
        for i in 0..n {
            z3[i] = wx[i] + u3[i];
        }
        match problem.coefficient_weights {
            Some(weights) => prox::soft_threshold_weighted(&mut z3, 1.0 / rho, weights),
            None => prox::soft_threshold_slice(&mut z3, 1.0 / rho),
        }
        for i in 0..n {
            let r = wx[i] - z3[i];
            u3[i] += r;
            primal_sq += r * r;
            let d = z3[i] - z3_old[i];
            dual_sq += rho * rho * d * d;
        }

        if observer.active() {
            // `wx = Ψᵀx` and `ax = Φx` are both live from the z-updates.
            observer.on_iteration(&IterationEvent {
                iteration: iter,
                objective: vector::norm1(&wx),
                residual: vector::dist2(&ax, y),
                step_size: Some(rho),
            });
        }

        if observer.should_abort() {
            aborted = true;
            break;
        }

        if primal_sq.sqrt() <= options.tolerance * scale
            && dual_sq.sqrt() <= options.tolerance * scale
        {
            converged = true;
            break;
        }
    }

    if let Some((lo, hi)) = problem.box_bounds {
        prox::project_box(&mut x, lo, hi);
    }
    a.apply_into(&x, &mut ax, &mut op_scratch);
    let residual = vector::dist2(&ax, y);
    dwt.forward_into(&x, &mut wx, &mut dwt_scratch)
        .expect("length validated");
    let objective = vector::norm1(&wx);

    for buf in [
        dwt_scratch,
        op_scratch,
        ax,
        z1,
        u1,
        z2,
        u2,
        z3,
        u3,
        rhs,
        t1,
        t3,
        psi_t3,
        z1_old,
        z2_old,
        z3_old,
        wx,
        x_cg,
        cg_scratch,
        cg_av,
    ] {
        ws.release(buf);
    }

    observer.on_complete(&ConvergenceTrace {
        solver: "admm",
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

fn validate_options(options: &AdmmOptions) -> Result<(), SolverError> {
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
    if !(options.rho > 0.0 && options.rho.is_finite()) {
        return Err(SolverError::BadParameter {
            name: "rho",
            value: options.rho,
        });
    }
    if options.cg_iterations == 0 {
        return Err(SolverError::BadParameter {
            name: "cg_iterations",
            value: 0.0,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{solve_pdhg, DenseOperator, NoopObserver, PdhgOptions};
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
        let phi = bernoulli_like(m, n, 7);
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
        let result = solve_admm(
            &problem,
            &AdmmOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let snr = snr_db(&x_true, &result.signal);
        assert!(snr > 15.0, "SNR {snr} dB");
    }

    #[test]
    fn agrees_with_pdhg() {
        // Two independent algorithms on the same convex program must land on
        // reconstructions of comparable quality.
        let n = 128;
        let m = 48;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 9);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
        let d = 0.25;
        let lo: Vec<f64> = x_true.iter().map(|v| (v / d).floor() * d).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + d).collect();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        let admm = solve_admm(
            &problem,
            &AdmmOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let pdhg = solve_pdhg(
            &problem,
            &PdhgOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        let snr_a = snr_db(&x_true, &admm.signal);
        let snr_p = snr_db(&x_true, &pdhg.signal);
        assert!(snr_a > 15.0, "ADMM SNR {snr_a}");
        assert!((snr_a - snr_p).abs() < 6.0, "ADMM {snr_a} vs PDHG {snr_p}");
    }

    #[test]
    fn box_is_satisfied_exactly() {
        let n = 64;
        let m = 8;
        let x_true = smooth_signal(n);
        let phi = bernoulli_like(m, n, 11);
        let y = phi.matvec(&x_true);
        let op = DenseOperator::new(phi);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let d = 0.5;
        let lo: Vec<f64> = x_true.iter().map(|v| (v / d).floor() * d).collect();
        let hi: Vec<f64> = lo.iter().map(|v| v + d).collect();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 1e-3,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        let result = solve_admm(
            &problem,
            &AdmmOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        for ((v, l), h) in result.signal.iter().zip(&lo).zip(&hi) {
            assert!(*l <= *v && *v <= *h);
        }
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
            AdmmOptions {
                max_iterations: 0,
                ..AdmmOptions::default()
            },
            AdmmOptions {
                rho: -1.0,
                ..AdmmOptions::default()
            },
            AdmmOptions {
                tolerance: f64::NAN,
                ..AdmmOptions::default()
            },
            AdmmOptions {
                cg_iterations: 0,
                ..AdmmOptions::default()
            },
        ] {
            assert!(solve_admm(
                &problem,
                &bad,
                &mut NoopObserver,
                &mut SolverWorkspace::new()
            )
            .is_err());
        }
    }

    #[test]
    fn identity_sensing_near_perfect() {
        let n = 64;
        let x_true = smooth_signal(n);
        let op = DenseOperator::new(Matrix::identity(n));
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let problem = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &x_true,
            sigma: 1e-4,
            box_bounds: None,
            coefficient_weights: None,
        };
        let result = solve_admm(
            &problem,
            &AdmmOptions::default(),
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
        .unwrap();
        assert!(snr_db(&x_true, &result.signal) > 30.0);
    }
}
