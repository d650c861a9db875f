use crate::batch::{self, BatchProblem};
use crate::{BpdnProblem, RecoveryResult, SolverError, SolverWorkspace};
use hybridcs_obs::IterationObserver;

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
/// emits an [`IterationEvent`](crate::IterationEvent) with the new
/// iterate's ℓ₁ objective `‖Ψᵀx‖₁` and the residual `‖Φx̄ − y‖₂` at the
/// extrapolated point its dual step used, both already in hand, so
/// watching costs no extra `Φ`-application; completion emits a
/// [`ConvergenceTrace`](crate::ConvergenceTrace) with the exact final
/// `‖Φx − y‖₂`. The observer never changes the arithmetic.
///
/// This is the one-window case of
/// [`solve_pdhg_batch`](crate::solve_pdhg_batch): the lockstep body runs on
/// one-lane panels, which are the window's own vectors, so a window solved
/// here and the same window in any K-wide batch agree bit for bit.
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
    let batch = BatchProblem::new(std::slice::from_ref(problem))?;
    validate_options(options)?;
    let mut out = [None];
    batch::solve_lockstep(&batch, options, &mut [observer], ws, &mut out);
    let [result] = out;
    Ok(result.expect("the lockstep body fills every window's slot"))
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
    use hybridcs_linalg::vector;
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
