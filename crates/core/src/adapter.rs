use hybridcs_frontend::SensingMatrix;
use hybridcs_solver::LinearOperator;

/// Adapter exposing a [`SensingMatrix`] to the solver crate's
/// [`LinearOperator`] interface (the two crates are deliberately unaware of
/// each other; this codec layer is where they meet).
///
/// # Example
///
/// ```
/// use hybridcs_core::SensingOperator;
/// use hybridcs_frontend::SensingMatrix;
/// use hybridcs_solver::LinearOperator;
///
/// # fn main() -> Result<(), hybridcs_frontend::FrontEndError> {
/// let phi = SensingMatrix::bernoulli(8, 32, 1)?;
/// let op = SensingOperator::new(&phi);
/// assert_eq!(op.rows(), 8);
/// assert_eq!(op.cols(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SensingOperator<'a> {
    matrix: &'a SensingMatrix,
    cached_norm: Option<f64>,
}

impl<'a> SensingOperator<'a> {
    /// Wraps a sensing matrix.
    #[must_use]
    pub fn new(matrix: &'a SensingMatrix) -> Self {
        SensingOperator {
            matrix,
            cached_norm: None,
        }
    }

    /// Wraps a sensing matrix with a precomputed spectral-norm estimate, so
    /// [`LinearOperator::norm_est`] returns it without re-running the power
    /// iteration. `Φ` is fixed per [`SystemConfig`](crate::SystemConfig), so
    /// the decoder computes the norm once at construction and reuses it for
    /// every window — the power iteration (hundreds of matvec pairs) would
    /// otherwise dominate short decodes.
    #[must_use]
    pub fn with_norm(matrix: &'a SensingMatrix, norm: f64) -> Self {
        SensingOperator {
            matrix,
            cached_norm: Some(norm),
        }
    }
}

impl LinearOperator for SensingOperator<'_> {
    fn rows(&self) -> usize {
        self.matrix.measurements()
    }

    fn cols(&self) -> usize {
        self.matrix.window()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        let mut table = vec![0.0; self.scratch_len()];
        self.matrix.apply_into_scratch(x, out, &mut table);
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        self.matrix.apply_adjoint_into(y, out);
    }

    fn scratch_len(&self) -> usize {
        self.matrix.forward_scratch_len()
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        // The scratch holds the shared per-4-column sign-sum table.
        self.matrix.apply_into_scratch(x, out, scratch);
    }

    fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let _ = scratch;
        self.matrix.apply_adjoint_into(y, out);
    }

    fn batch_scratch_len(&self, k: usize) -> usize {
        self.matrix.batch_scratch_len(k)
    }

    fn apply_batch_into(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        // The batched packed-sign kernel shares each per-4-column sign table
        // across all K lanes; per lane it is bit-identical to `apply_into`.
        self.matrix
            .apply_batch_into_scratch(x_panel, k, out_panel, scratch);
    }

    fn apply_adjoint_batch_into(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.matrix
            .apply_adjoint_batch_into_scratch(y_panel, k, out_panel, scratch);
    }

    fn norm_est(&self) -> f64 {
        match self.cached_norm {
            Some(norm) => norm,
            None => {
                // One sign table serves every forward application.
                let mut table = vec![0.0; self.scratch_len()];
                let (norm, _) = hybridcs_linalg::operator_norm_est(
                    self.cols(),
                    self.rows(),
                    |x, out| self.apply_into(x, out, &mut table),
                    |y, out| self.apply_adjoint(y, out),
                    hybridcs_linalg::PowerIterationOptions::default(),
                );
                norm
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_linalg::vector;

    #[test]
    fn adapter_preserves_action_and_adjoint() {
        let phi = SensingMatrix::bernoulli(6, 32, 9).unwrap();
        let op = SensingOperator::new(&phi);
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).cos()).collect();
        let y: Vec<f64> = (0..6).map(|i| i as f64 - 3.0).collect();
        let mut ax = vec![0.0; 6];
        op.apply(&x, &mut ax);
        assert_eq!(ax, phi.apply(&x));
        let mut aty = vec![0.0; 32];
        op.apply_adjoint(&y, &mut aty);
        assert_eq!(aty, phi.apply_adjoint(&y));
        // Adjoint identity through the trait.
        assert!((vector::dot(&ax, &y) - vector::dot(&x, &aty)).abs() < 1e-9);
    }

    #[test]
    fn norm_estimate_is_sane() {
        let phi = SensingMatrix::bernoulli(16, 64, 2).unwrap();
        let op = SensingOperator::new(&phi);
        let norm = op.norm_est();
        assert!(norm > 0.5 && norm < 3.0, "norm {norm}");
    }

    #[test]
    fn cached_norm_matches_power_iteration_bit_for_bit() {
        let phi = SensingMatrix::bernoulli(16, 64, 2).unwrap();
        let fresh = SensingOperator::new(&phi).norm_est();
        let cached = SensingOperator::with_norm(&phi, fresh);
        assert_eq!(cached.norm_est().to_bits(), fresh.to_bits());
    }
}
