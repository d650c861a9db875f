use hybridcs_dsp::Dwt;
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

    /// Whether the operator is exactly orthonormal (`AᵀA = AAᵀ = I`), in
    /// which case `‖A‖₂ = 1` and compositions can skip the power iteration.
    fn is_orthonormal(&self) -> bool {
        false
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

/// The wavelet synthesis operator `Ψ: coefficients → signal` (with adjoint
/// `Ψᵀ` = analysis), backed by the fast orthonormal DWT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthesisOperator {
    dwt: Dwt,
    len: usize,
}

impl SynthesisOperator {
    /// Creates the operator for signals/coefficient vectors of length `len`.
    ///
    /// # Errors
    ///
    /// Returns the transform's [`hybridcs_dsp::DspError`] when `len` is
    /// unsupported for the transform depth.
    pub fn new(dwt: Dwt, len: usize) -> Result<Self, hybridcs_dsp::DspError> {
        // Validate the length once up front.
        dwt.layout(len)?;
        Ok(SynthesisOperator { dwt, len })
    }

    /// The wrapped transform.
    #[must_use]
    pub fn dwt(&self) -> &Dwt {
        &self.dwt
    }
}

impl LinearOperator for SynthesisOperator {
    fn rows(&self) -> usize {
        self.len
    }

    fn cols(&self) -> usize {
        self.len
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        let signal = self
            .dwt
            .inverse(x)
            .expect("length validated at construction");
        out.copy_from_slice(&signal);
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        let coeffs = self
            .dwt
            .forward(y)
            .expect("length validated at construction");
        out.copy_from_slice(&coeffs);
    }

    fn scratch_len(&self) -> usize {
        Dwt::scratch_len(self.len)
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        self.dwt
            .inverse_into(x, out, scratch)
            .expect("length validated at construction");
    }

    fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        self.dwt
            .forward_into(y, out, scratch)
            .expect("length validated at construction");
    }

    fn batch_scratch_len(&self, k: usize) -> usize {
        Dwt::panel_scratch_len(self.len, k)
    }

    fn apply_batch_into(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.dwt
            .inverse_panel_into(x_panel, k, out_panel, scratch)
            .expect("length validated at construction");
    }

    fn apply_adjoint_batch_into(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        self.dwt
            .forward_panel_into(y_panel, k, out_panel, scratch)
            .expect("length validated at construction");
    }

    fn is_orthonormal(&self) -> bool {
        true
    }

    fn norm_est(&self) -> f64 {
        1.0 // orthonormal by construction
    }
}

/// Composition `A ∘ B` of two operators (`(A∘B)x = A(Bx)`).
///
/// Used for `ΦΨ` when a solver works in the coefficient domain.
#[derive(Debug, Clone)]
pub struct ComposedOperator<'a, A: ?Sized, B: ?Sized> {
    outer: &'a A,
    inner: &'a B,
}

impl<'a, A, B> ComposedOperator<'a, A, B>
where
    A: LinearOperator + ?Sized,
    B: LinearOperator + ?Sized,
{
    /// Composes `outer ∘ inner`.
    ///
    /// # Panics
    ///
    /// Panics if `outer.cols() != inner.rows()`.
    #[must_use]
    pub fn new(outer: &'a A, inner: &'a B) -> Self {
        assert_eq!(outer.cols(), inner.rows(), "composition dimension mismatch");
        ComposedOperator { outer, inner }
    }
}

impl<A, B> LinearOperator for ComposedOperator<'_, A, B>
where
    A: LinearOperator + ?Sized,
    B: LinearOperator + ?Sized,
{
    fn rows(&self) -> usize {
        self.outer.rows()
    }

    fn cols(&self) -> usize {
        self.inner.cols()
    }

    fn apply(&self, x: &[f64], out: &mut [f64]) {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.apply_into(x, out, &mut scratch);
    }

    fn apply_adjoint(&self, y: &[f64], out: &mut [f64]) {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.apply_adjoint_into(y, out, &mut scratch);
    }

    fn scratch_len(&self) -> usize {
        // The intermediate `mid` vector plus whatever the children need.
        self.inner.rows() + self.inner.scratch_len().max(self.outer.scratch_len())
    }

    fn apply_into(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let (mid, rest) = scratch.split_at_mut(self.inner.rows());
        self.inner.apply_into(x, mid, rest);
        self.outer.apply_into(mid, out, rest);
    }

    fn apply_adjoint_into(&self, y: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let (mid, rest) = scratch.split_at_mut(self.outer.cols());
        self.outer.apply_adjoint_into(y, mid, rest);
        self.inner.apply_adjoint_into(mid, out, rest);
    }

    fn batch_scratch_len(&self, k: usize) -> usize {
        self.inner.rows() * k
            + self
                .inner
                .batch_scratch_len(k)
                .max(self.outer.batch_scratch_len(k))
    }

    fn apply_batch_into(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        let (mid, rest) = scratch.split_at_mut(self.inner.rows() * k);
        self.inner.apply_batch_into(x_panel, k, mid, rest);
        self.outer.apply_batch_into(mid, k, out_panel, rest);
    }

    fn apply_adjoint_batch_into(
        &self,
        y_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) {
        let (mid, rest) = scratch.split_at_mut(self.outer.cols() * k);
        self.outer.apply_adjoint_batch_into(y_panel, k, mid, rest);
        self.inner.apply_adjoint_batch_into(mid, k, out_panel, rest);
    }

    fn is_orthonormal(&self) -> bool {
        self.outer.is_orthonormal() && self.inner.is_orthonormal()
    }

    fn norm_est(&self) -> f64 {
        if self.inner.is_orthonormal() {
            // ‖A·Ψ‖₂ = ‖A‖₂ when Ψ is orthonormal: Ψ maps the unit sphere
            // onto itself, so the composition's extremal gain is `outer`'s.
            return self.outer.norm_est();
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_dsp::Wavelet;
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
    fn synthesis_is_orthonormal() {
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
        let op = SynthesisOperator::new(dwt, 64).unwrap();
        assert_eq!(op.norm_est(), 1.0);
        let c: Vec<f64> = (0..64).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x = vec![0.0; 64];
        op.apply(&c, &mut x);
        let mut back = vec![0.0; 64];
        op.apply_adjoint(&x, &mut back);
        for (a, b) in c.iter().zip(&back) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn synthesis_rejects_bad_length() {
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
        assert!(SynthesisOperator::new(dwt, 100).is_err());
    }

    #[test]
    fn composed_matches_manual_composition() {
        let dwt = Dwt::new(Wavelet::Haar, 2).unwrap();
        let psi = SynthesisOperator::new(dwt.clone(), 16).unwrap();
        let phi = dense(6, 16);
        let a = ComposedOperator::new(&phi, &psi);
        assert_eq!(a.rows(), 6);
        assert_eq!(a.cols(), 16);
        let alpha: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut direct = vec![0.0; 6];
        a.apply(&alpha, &mut direct);
        let manual_signal = dwt.inverse(&alpha).unwrap();
        let mut manual = vec![0.0; 6];
        phi.apply(&manual_signal, &mut manual);
        for (d, m) in direct.iter().zip(&manual) {
            assert!((d - m).abs() < 1e-10);
        }
    }

    #[test]
    fn composed_adjoint_identity() {
        let dwt = Dwt::new(Wavelet::Db2, 2).unwrap();
        let psi = SynthesisOperator::new(dwt, 32).unwrap();
        let phi = dense(10, 32);
        let a = ComposedOperator::new(&phi, &psi);
        let x: Vec<f64> = (0..32).map(|i| (i as f64).sin()).collect();
        let y: Vec<f64> = (0..10).map(|i| (i as f64 + 0.5).cos()).collect();
        let mut ax = vec![0.0; 10];
        a.apply(&x, &mut ax);
        let mut aty = vec![0.0; 32];
        a.apply_adjoint(&y, &mut aty);
        assert!((vector::dot(&ax, &y) - vector::dot(&x, &aty)).abs() < 1e-9);
    }

    #[test]
    fn composed_norm_est_delegates_through_orthonormal_inner() {
        let dwt = Dwt::new(Wavelet::Db2, 2).unwrap();
        let psi = SynthesisOperator::new(dwt, 32).unwrap();
        let phi = dense(10, 32);
        let a = ComposedOperator::new(&phi, &psi);
        assert!(psi.is_orthonormal());
        assert!(!phi.is_orthonormal());
        // Delegation is exact: the composed estimate IS the outer estimate.
        assert_eq!(a.norm_est().to_bits(), phi.norm_est().to_bits());
        // And it agrees with what a power iteration over the composition
        // would have found, because Ψ preserves the unit sphere.
        let (direct, _) = operator_norm_est(
            a.cols(),
            a.rows(),
            |x, out| a.apply(x, out),
            |y, out| a.apply_adjoint(y, out),
            PowerIterationOptions::default(),
        );
        assert!(
            (a.norm_est() - direct).abs() < 1e-4 * direct,
            "{} vs {direct}",
            a.norm_est()
        );
    }

    #[test]
    fn composed_into_variants_match_allocating_paths() {
        let dwt = Dwt::new(Wavelet::Db2, 2).unwrap();
        let psi = SynthesisOperator::new(dwt, 32).unwrap();
        let phi = dense(10, 32);
        let a = ComposedOperator::new(&phi, &psi);
        let mut scratch = vec![f64::NAN; a.scratch_len()];
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.21).sin()).collect();
        let mut direct = vec![0.0; 10];
        a.apply(&x, &mut direct);
        let mut via_into = vec![f64::NAN; 10];
        a.apply_into(&x, &mut via_into, &mut scratch);
        for (d, v) in direct.iter().zip(&via_into) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
        let y: Vec<f64> = (0..10).map(|i| (i as f64 + 0.5).cos()).collect();
        let mut direct_t = vec![0.0; 32];
        a.apply_adjoint(&y, &mut direct_t);
        let mut via_into_t = vec![f64::NAN; 32];
        a.apply_adjoint_into(&y, &mut via_into_t, &mut scratch);
        for (d, v) in direct_t.iter().zip(&via_into_t) {
            assert_eq!(d.to_bits(), v.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "composition dimension mismatch")]
    fn composed_rejects_mismatch() {
        let a = dense(4, 8);
        let b = dense(4, 8);
        let _ = ComposedOperator::new(&a, &b);
    }

    #[test]
    fn norm_est_reasonable_for_dense() {
        let op = dense(6, 6);
        let norm = op.norm_est();
        assert!(norm > 0.0);
        assert!(norm <= op.matrix().frobenius_norm() + 1e-9);
    }
}
