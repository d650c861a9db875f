use crate::{LinearOperator, SolverError};
use hybridcs_dsp::Dwt;

/// A box-constrained basis-pursuit-denoising instance — the paper's Eq. (1)
/// posed in the signal domain `x = Ψα`:
///
/// ```text
/// min ‖Ψᵀx‖₁   s.t.  ‖Φx − y‖₂ ≤ σ,   lo ≤ x ≤ hi (optional)
/// ```
///
/// With `box_bounds = None` this is plain BPDN — the "normal CS"
/// reconstruction the paper compares against.
pub struct BpdnProblem<'a> {
    /// The sensing operator `Φ: R^n → R^m`.
    pub sensing: &'a dyn LinearOperator,
    /// The sparsifying transform (orthonormal DWT).
    pub dwt: &'a Dwt,
    /// Measurements `y` (length `m`).
    pub measurements: &'a [f64],
    /// Fidelity radius `σ ≥ 0` (measurement-noise budget).
    pub sigma: f64,
    /// Optional per-sample box `lo ≤ x ≤ hi` from the low-resolution
    /// channel.
    pub box_bounds: Option<(&'a [f64], &'a [f64])>,
    /// Optional non-negative per-coefficient ℓ₁ weights `w` turning the
    /// objective into `‖w ⊙ Ψᵀx‖₁` — the weighted/model-based recovery
    /// the paper's introduction points to (Baraniuk et al.; the authors'
    /// own BioCAS 2011 structured-sparsity study). `None` means flat
    /// weights (plain BPDN). See [`band_weights`](crate::band_weights)
    /// for the standard scale-dependent weighting.
    pub coefficient_weights: Option<&'a [f64]>,
}

impl BpdnProblem<'_> {
    /// Signal length `n`.
    #[must_use]
    pub fn signal_len(&self) -> usize {
        self.sensing.cols()
    }

    /// Measurement count `m`.
    #[must_use]
    pub fn measurement_len(&self) -> usize {
        self.sensing.rows()
    }

    /// Validates all cross-component dimensions and parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns [`SolverError::DimensionMismatch`] or
    /// [`SolverError::BadParameter`] describing the first inconsistency, or
    /// [`SolverError::Transform`] when the DWT cannot handle the signal
    /// length.
    pub fn validate(&self) -> Result<(), SolverError> {
        let n = self.signal_len();
        let m = self.measurement_len();
        if self.measurements.len() != m {
            return Err(SolverError::DimensionMismatch {
                what: "measurements vs sensing rows",
                expected: m,
                actual: self.measurements.len(),
            });
        }
        if let Some(index) = first_non_finite(self.measurements) {
            return Err(SolverError::NonFinite {
                what: "measurements",
                index,
            });
        }
        if !(self.sigma >= 0.0 && self.sigma.is_finite()) {
            return Err(SolverError::BadParameter {
                name: "sigma",
                value: self.sigma,
            });
        }
        self.dwt.validate_len(n)?;
        if let Some((lo, hi)) = self.box_bounds {
            if lo.len() != n {
                return Err(SolverError::DimensionMismatch {
                    what: "box lower bound vs signal",
                    expected: n,
                    actual: lo.len(),
                });
            }
            if hi.len() != n {
                return Err(SolverError::DimensionMismatch {
                    what: "box upper bound vs signal",
                    expected: n,
                    actual: hi.len(),
                });
            }
            if let Some(index) = first_non_finite(lo) {
                return Err(SolverError::NonFinite {
                    what: "box lower bound",
                    index,
                });
            }
            if let Some(index) = first_non_finite(hi) {
                return Err(SolverError::NonFinite {
                    what: "box upper bound",
                    index,
                });
            }
            if let Some(i) = lo.iter().zip(hi).position(|(l, h)| l > h) {
                return Err(SolverError::BadParameter {
                    name: "box (empty interval)",
                    value: i as f64,
                });
            }
        }
        if let Some(w) = self.coefficient_weights {
            if w.len() != n {
                return Err(SolverError::DimensionMismatch {
                    what: "coefficient weights vs signal",
                    expected: n,
                    actual: w.len(),
                });
            }
            if let Some(i) = w.iter().position(|v| !v.is_finite() || *v < 0.0) {
                return Err(SolverError::BadParameter {
                    name: "coefficient weight (must be finite, >= 0)",
                    value: i as f64,
                });
            }
        }
        Ok(())
    }

    /// A feasible-ish starting point: the box midpoint when bounds are
    /// available (it satisfies the box exactly and is close in fidelity),
    /// otherwise the adjoint back-projection `Φᵀy`.
    #[must_use]
    pub fn initial_point(&self) -> Vec<f64> {
        let mut x0 = vec![0.0; self.signal_len()];
        let mut op_scratch = vec![0.0; self.sensing.scratch_len()];
        self.initial_point_into(&mut x0, &mut op_scratch);
        x0
    }

    /// Allocation-free [`BpdnProblem::initial_point`]: writes the starting
    /// point into `out` (length `n`), drawing the adjoint's operator
    /// scratch from `op_scratch`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.signal_len()`, or without box bounds
    /// if `op_scratch` is shorter than the operator's `scratch_len()`.
    pub fn initial_point_into(&self, out: &mut [f64], op_scratch: &mut [f64]) {
        assert_eq!(out.len(), self.signal_len(), "initial point length");
        match self.box_bounds {
            Some((lo, hi)) => {
                for ((o, l), h) in out.iter_mut().zip(lo).zip(hi) {
                    *o = 0.5 * (l + h);
                }
            }
            None => self
                .sensing
                .apply_adjoint_into(self.measurements, out, op_scratch),
        }
    }
}

/// Index of the first NaN/infinite element, if any.
pub(crate) fn first_non_finite(values: &[f64]) -> Option<usize> {
    values.iter().position(|v| !v.is_finite())
}

/// Output of a recovery solver.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryResult {
    /// Reconstructed signal `x̃` (length `n`).
    pub signal: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the stopping tolerance was met within the budget.
    pub converged: bool,
    /// Final fidelity residual `‖Φx̃ − y‖₂`.
    pub residual: f64,
    /// Final objective `‖Ψᵀx̃‖₁`.
    pub objective: f64,
}

impl RecoveryResult {
    /// Convenience: `residual ≤ sigma · (1 + slack)`.
    #[must_use]
    pub fn is_feasible(&self, sigma: f64, slack: f64) -> bool {
        self.residual <= sigma * (1.0 + slack) + f64::EPSILON
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DenseOperator;
    use hybridcs_dsp::Wavelet;
    use hybridcs_linalg::Matrix;

    fn dense_id(n: usize) -> DenseOperator {
        DenseOperator::new(Matrix::identity(n))
    }

    #[test]
    fn validate_accepts_consistent_problem() {
        let op = dense_id(64);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let y = vec![0.0; 64];
        let lo = vec![-1.0; 64];
        let hi = vec![1.0; 64];
        let p = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.signal_len(), 64);
        assert_eq!(p.measurement_len(), 64);
    }

    #[test]
    fn validate_rejects_bad_measurement_len() {
        let op = dense_id(64);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let y = vec![0.0; 10];
        let p = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: None,
            coefficient_weights: None,
        };
        assert!(matches!(
            p.validate(),
            Err(SolverError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validate_rejects_negative_sigma_and_nan() {
        let op = dense_id(64);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let y = vec![0.0; 64];
        for sigma in [-1.0, f64::NAN] {
            let p = BpdnProblem {
                sensing: &op,
                dwt: &dwt,
                measurements: &y,
                sigma,
                box_bounds: None,
                coefficient_weights: None,
            };
            assert!(matches!(
                p.validate(),
                Err(SolverError::BadParameter { .. })
            ));
        }
    }

    #[test]
    fn validate_rejects_non_finite_measurements_and_bounds() {
        let op = dense_id(64);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut y = vec![0.0; 64];
            y[13] = bad;
            let p = BpdnProblem {
                sensing: &op,
                dwt: &dwt,
                measurements: &y,
                sigma: 0.1,
                box_bounds: None,
                coefficient_weights: None,
            };
            assert!(matches!(
                p.validate(),
                Err(SolverError::NonFinite {
                    what: "measurements",
                    index: 13
                })
            ));
        }
        let y = vec![0.0; 64];
        let mut lo = vec![-1.0; 64];
        lo[5] = f64::NAN;
        let hi = vec![1.0; 64];
        let p = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        assert!(matches!(
            p.validate(),
            Err(SolverError::NonFinite {
                what: "box lower bound",
                index: 5
            })
        ));
    }

    #[test]
    fn validate_rejects_empty_box_interval() {
        let op = dense_id(64);
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let y = vec![0.0; 64];
        let lo = vec![1.0; 64];
        let hi = vec![-1.0; 64];
        let p = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        assert!(matches!(
            p.validate(),
            Err(SolverError::BadParameter { .. })
        ));
    }

    #[test]
    fn validate_rejects_bad_dwt_length() {
        let op = dense_id(100);
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
        let y = vec![0.0; 100];
        let p = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: None,
            coefficient_weights: None,
        };
        assert!(matches!(p.validate(), Err(SolverError::Transform(_))));
    }

    #[test]
    fn initial_point_prefers_box_midpoint() {
        let op = dense_id(4);
        let dwt = Dwt::new(Wavelet::Haar, 1).unwrap();
        let y = vec![9.0; 4];
        let lo = vec![0.0; 4];
        let hi = vec![2.0; 4];
        let p = BpdnProblem {
            sensing: &op,
            dwt: &dwt,
            measurements: &y,
            sigma: 0.1,
            box_bounds: Some((&lo, &hi)),
            coefficient_weights: None,
        };
        assert_eq!(p.initial_point(), vec![1.0; 4]);
        let p2 = BpdnProblem {
            box_bounds: None,
            coefficient_weights: None,
            ..p
        };
        assert_eq!(p2.initial_point(), vec![9.0; 4]);
    }

    #[test]
    fn feasibility_helper() {
        let r = RecoveryResult {
            signal: vec![],
            iterations: 1,
            converged: true,
            residual: 1.04,
            objective: 0.0,
        };
        assert!(r.is_feasible(1.0, 0.05));
        assert!(!r.is_feasible(1.0, 0.01));
    }
}
