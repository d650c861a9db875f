//! Proximal operators and projections used by the first-order solvers.

/// Scalar soft-thresholding `sign(v)·max(|v| − t, 0)` — the proximal
/// operator of `t·|·|`.
///
/// # Example
///
/// ```
/// use hybridcs_solver::prox::soft_threshold;
///
/// assert_eq!(soft_threshold(3.0, 1.0), 2.0);
/// assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
/// assert_eq!(soft_threshold(0.5, 1.0), 0.0);
/// ```
#[must_use]
#[inline]
pub fn soft_threshold(v: f64, t: f64) -> f64 {
    if v > t {
        v - t
    } else if v < -t {
        v + t
    } else {
        0.0
    }
}

/// In-place vector soft-thresholding.
pub fn soft_threshold_slice(v: &mut [f64], t: f64) {
    for x in v.iter_mut() {
        *x = soft_threshold(*x, t);
    }
}

/// In-place *weighted* soft-thresholding: element `i` is shrunk by
/// `t·w[i]` — the proximal operator of `t·‖w ⊙ ·‖₁`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn soft_threshold_weighted(v: &mut [f64], t: f64, w: &[f64]) {
    assert_eq!(v.len(), w.len(), "weighted soft-threshold: length mismatch");
    for (x, &wi) in v.iter_mut().zip(w) {
        *x = soft_threshold(*x, t * wi);
    }
}

/// In-place projection of `v` onto the ℓ₂ ball of radius `radius` centred
/// at `center`: if `‖v − c‖ > r`, move `v` to the nearest ball-surface
/// point, otherwise leave it.
///
/// # Panics
///
/// Panics if the slices differ in length or `radius < 0`.
pub fn project_l2_ball(v: &mut [f64], center: &[f64], radius: f64) {
    assert_eq!(v.len(), center.len(), "project_l2_ball: length mismatch");
    assert!(radius >= 0.0, "radius must be non-negative");
    let dist = hybridcs_linalg::vector::dist2(v, center);
    if dist <= radius || dist == 0.0 {
        return;
    }
    let scale = radius / dist;
    for (vi, &ci) in v.iter_mut().zip(center) {
        *vi = ci + scale * (*vi - ci);
    }
}

/// In-place projection onto the box `[lo, hi]` (element-wise clamp).
///
/// # Panics
///
/// Panics if lengths differ or any interval is empty.
pub fn project_box(v: &mut [f64], lo: &[f64], hi: &[f64]) {
    hybridcs_linalg::vector::clamp_box(v, lo, hi);
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_linalg::vector;

    #[test]
    fn soft_threshold_shrinks_toward_zero() {
        assert_eq!(soft_threshold(5.0, 2.0), 3.0);
        assert_eq!(soft_threshold(-5.0, 2.0), -3.0);
        assert_eq!(soft_threshold(1.9, 2.0), 0.0);
        assert_eq!(soft_threshold(0.0, 0.0), 0.0);
    }

    #[test]
    fn soft_threshold_slice_matches_scalar() {
        let mut v = vec![3.0, -0.5, -4.0];
        soft_threshold_slice(&mut v, 1.0);
        assert_eq!(v, vec![2.0, 0.0, -3.0]);
    }

    #[test]
    fn ball_projection_inside_is_identity() {
        let mut v = vec![1.0, 0.0];
        let c = vec![0.5, 0.0];
        project_l2_ball(&mut v, &c, 1.0);
        assert_eq!(v, vec![1.0, 0.0]);
    }

    #[test]
    fn ball_projection_lands_on_surface() {
        let mut v = vec![10.0, 0.0];
        let c = vec![0.0, 0.0];
        project_l2_ball(&mut v, &c, 2.0);
        assert!((vector::norm2(&v) - 2.0).abs() < 1e-12);
        assert!((v[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ball_projection_is_idempotent() {
        let c = vec![1.0, -2.0, 0.5];
        let mut v = vec![9.0, 4.0, -3.0];
        project_l2_ball(&mut v, &c, 1.5);
        let once = v.clone();
        project_l2_ball(&mut v, &c, 1.5);
        for (a, b) in once.iter().zip(&v) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn ball_projection_zero_radius_returns_center() {
        let c = vec![1.0, 2.0];
        let mut v = vec![5.0, 5.0];
        project_l2_ball(&mut v, &c, 0.0);
        assert_eq!(v, c);
    }

    #[test]
    fn box_projection_clamps() {
        let mut v = vec![-2.0, 0.5, 3.0];
        project_box(&mut v, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
    }
}
