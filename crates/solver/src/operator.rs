use hybridcs_linalg::{operator_norm_est, Matrix, PowerIterationOptions};

/// A linear operator `A: R^cols → R^rows` given by its forward and adjoint
/// actions.
///
/// The decoder never materializes `ΦΨ`; it composes fast operators instead.
/// Implementations must satisfy the adjoint identity
/// `⟨A x, y⟩ = ⟨x, Aᵀ y⟩` — the property tests in this crate check it for
/// every provided implementation.
pub trait LinearOperator {
    /// Output dimension `m`.
    fn rows(&self) -> usize;
    /// Input dimension `n`.
    fn cols(&self) -> usize;
    /// Forward action `out = A x`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `x.len() != cols()` or
    /// `out.len() != rows()`.
    fn apply(&self, x: &[f64], out: &mut [f64]);
    /// Adjoint action `out = Aᵀ y`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `y.len() != rows()` or
    /// `out.len() != cols()`.
    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]);

    /// Scratch length required by [`LinearOperator::apply_into`] and
    /// [`LinearOperator::apply_adjoint_into`] (0 unless overridden).
    fn scratch_len(&self) -> usize {
        0
    }

    /// Forward action using caller-provided scratch instead of internal
    /// allocation. The default delegates to [`LinearOperator::apply`];
    /// implementations with internal temporaries override this to become
    /// allocation-free on the decode hot path.
    ///
    /// # Panics
    ///
    /// Implementations may panic on shape mismatches or if
    /// `scratch.len() < self.scratch_len()`.
    fn apply_into(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let _ = scratch;
        self.apply(x, out);
    }

    /// Adjoint action using caller-provided scratch — see
    /// [`LinearOperator::apply_into`].
    ///
    /// # Panics
    ///
    /// Implementations may panic on shape mismatches or if
    /// `scratch.len() < self.scratch_len()`.
    fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let _ = scratch;
        self.apply_adjoint(y, out);
    }

    /// Scratch length required by the batched applications at width `k`.
    ///
    /// The default covers the gather/apply/scatter fallback; operators
    /// with real panel kernels override it.
    fn batch_scratch_len(&self, k: usize) -> usize {
        let _ = k;
        self.cols() + self.rows() + self.scratch_len()
    }

    /// Batched forward action over a column-major panel: lane `l` of
    /// `x_panel` (elements `x_panel[i*k + l]`) maps to lane `l` of
    /// `out_panel`. The contract every implementation must keep: each
    /// lane's output is **bit-identical** to [`LinearOperator::apply_into`]
    /// on the gathered lane — the batched solvers rely on this for their
    /// batch-equals-serial guarantee. The default loops over lanes through
    /// the serial path, which satisfies the contract trivially.
    ///
    /// # Panics
    ///
    /// Implementations may panic on panel shape mismatches or if
    /// `scratch.len() < self.batch_scratch_len(k)`.
    fn apply_batch_into(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        assert_eq!(x_panel.len(), self.cols() * k, "batch apply: panel shape");
        assert_eq!(
            out_panel.len(),
            self.rows() * k,
            "batch apply: output shape"
        );
        hybridcs_linalg::simd::serial_lanes(x_panel, k, 0, out_panel, scratch, |x, y, s| {
            self.apply_into(x, y, s);
        });
    }

    /// Batched adjoint action over a column-major panel — same per-lane
    /// bit-identity contract as [`LinearOperator::apply_batch_into`].
    ///
    /// # Panics
    ///
    /// Implementations may panic on panel shape mismatches or if
    /// `scratch.len() < self.batch_scratch_len(k)`.
    fn apply_adjoint_batch_into(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        assert_eq!(y_panel.len(), self.rows() * k, "batch adjoint: panel shape");
        assert_eq!(
            out_panel.len(),
            self.cols() * k,
            "batch adjoint: output shape"
        );
        hybridcs_linalg::simd::serial_lanes(y_panel, k, 0, out_panel, scratch, |y, x, s| {
            self.apply_adjoint_into(y, x, s);
        });
    }

    /// Estimate of the spectral norm `‖A‖₂` (power iteration by default).
    fn norm_est(&self) -> f64 {
        let (norm, _) = operator_norm_est(
            self.cols(),
            self.rows(),
            |x, out| self.apply(x, out),
            |y, out| self.apply_adjoint(y, out),
            PowerIterationOptions::default(),
        );
        norm
    }
}

/// A dense matrix as a [`LinearOperator`].
///
/// # Example
///
/// ```
/// use hybridcs_linalg::Matrix;
/// use hybridcs_solver::{DenseOperator, LinearOperator};
///
/// # fn main() -> Result<(), hybridcs_linalg::LinalgError> {
/// let op = DenseOperator::new(Matrix::from_rows(&[&[1.0, 2.0]])?);
/// let mut y = [0.0];
/// op.apply(&[3.0, 4.0], &mut y);
/// assert_eq!(y, [11.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DenseOperator {
    matrix: Matrix,
}

impl DenseOperator {
    /// Wraps a matrix.
    #[must_use]
    pub fn new(matrix: Matrix) -> Self {
        DenseOperator { matrix }
    }

    /// Borrows the wrapped matrix.
    #[must_use]
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }
}

impl LinearOperator for DenseOperator {
    fn rows(&self) -> usize {
        self.matrix.nrows()
    }

    fn cols(&self) -> usize {
        self.matrix.ncols()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        self.matrix.matvec_into(x, out);
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        self.matrix.matvec_transpose_into(y, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_linalg::vector;

    fn dense(rows: usize, cols: usize) -> DenseOperator {
        DenseOperator::new(Matrix::from_fn(rows, cols, |i, j| {
            ((i * 7 + j * 3) % 5) as f64 - 2.0
        }))
    }

    #[test]
    fn dense_adjoint_identity() {
        let op = dense(5, 8);
        let x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let y: Vec<f64> = (0..5).map(|i| (i as f64).cos()).collect();
        let mut ax = vec![0.0; 5];
        op.apply(&x, &mut ax);
        let mut aty = vec![0.0; 8];
        op.apply_adjoint(&y, &mut aty);
        let lhs = vector::dot(&ax, &y);
        let rhs = vector::dot(&x, &aty);
        assert!((lhs - rhs).abs() < 1e-9);
    }

    #[test]
    fn norm_est_reasonable_for_dense() {
        let op = dense(6, 6);
        let norm = op.norm_est();
        assert!(norm > 0.0);
        assert!(norm <= op.matrix().frobenius_norm() + 1e-9);
    }
}
