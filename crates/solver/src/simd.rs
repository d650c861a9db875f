//! Runtime-dispatched SIMD kernels for the batched solver inner loops.
//!
//! These are the solver-side companions to [`hybridcs_linalg::simd`]: the
//! element-wise update steps that dominate the batched PDHG iteration
//! (soft-threshold prox, gradient step, over-relaxation) with an AVX2 tier
//! selected at runtime and a scalar twin that is the reference semantics.
//!
//! # 0-ULP contract
//!
//! Every kernel here is **element-wise**: output element `i` depends only on
//! input elements at the same position plus broadcast scalars. The AVX2
//! bodies use only `_mm256_{add,sub,mul,blendv,cmp,xor}_pd` — never FMA, so
//! no contraction — which makes each vector lane compute the *identical*
//! IEEE-754 operation sequence as the scalar twin. The per-element results
//! are therefore bit-identical across tiers, which is what lets the batched
//! solvers promise bit-identical results to their serial counterparts
//! regardless of the dispatch decision.
//!
//! Per-lane thresholds follow the batch panel layout of
//! [`hybridcs_linalg::simd`]: a panel stores element `i` of lane `l` at
//! `i * k + l`, and a threshold slice `t` holds one value per lane.

use hybridcs_linalg::simd::simd_enabled;

/// Panel soft-threshold with a per-lane threshold: for every row `i` and
/// lane `l`, applies [`crate::prox::soft_threshold`] with threshold `t[l]`
/// to `panel[i*k + l]` in place.
///
/// Matches the scalar [`crate::prox::soft_threshold_slice`] applied per
/// lane, bit for bit.
///
/// # Panics
///
/// Panics if `t.len() != k`, `k == 0`, or `panel.len()` is not a multiple
/// of `k`.
pub fn soft_threshold_lanes(panel: &mut [f64], t: &[f64], k: usize) {
    assert!(k > 0, "soft_threshold_lanes: k must be positive");
    assert_eq!(t.len(), k, "soft_threshold_lanes: t length mismatch");
    assert_eq!(
        panel.len() % k,
        0,
        "soft_threshold_lanes: panel not a multiple of k"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: AVX2 availability is guaranteed by `simd_enabled()`.
        #[allow(unsafe_code)]
        unsafe {
            avx::soft_threshold_lanes_avx(panel, t, k)
        };
        return;
    }
    scalar::soft_threshold_lanes(panel, t, k);
}

/// Weighted panel soft-threshold: element `(i, l)` is thresholded at
/// `t[l] * w_panel[i*k + l]`, matching the scalar
/// [`crate::prox::soft_threshold_weighted`] applied per lane, bit for bit.
///
/// # Panics
///
/// Panics if `t.len() != k`, `k == 0`, `panel.len()` is not a multiple of
/// `k`, or `w_panel.len() != panel.len()`.
pub fn soft_threshold_weighted_lanes(panel: &mut [f64], t: &[f64], w_panel: &[f64], k: usize) {
    assert!(k > 0, "soft_threshold_weighted_lanes: k must be positive");
    assert_eq!(
        t.len(),
        k,
        "soft_threshold_weighted_lanes: t length mismatch"
    );
    assert_eq!(
        panel.len() % k,
        0,
        "soft_threshold_weighted_lanes: panel not a multiple of k"
    );
    assert_eq!(
        w_panel.len(),
        panel.len(),
        "soft_threshold_weighted_lanes: weight panel length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: AVX2 availability is guaranteed by `simd_enabled()`.
        #[allow(unsafe_code)]
        unsafe {
            avx::soft_threshold_weighted_lanes_avx(panel, t, w_panel, k)
        };
        return;
    }
    scalar::soft_threshold_weighted_lanes(panel, t, w_panel, k);
}

/// Proximal gradient step `out[i] = x[i] − τ·(at_z1[i] + z2[i])`.
///
/// This is the PDHG primal update written as one element-wise pass; the
/// `z2` slice must be zero-filled when the problem has no box constraint so
/// the arithmetic (`at + 0.0`) replicates the serial path exactly,
/// including its signed-zero behaviour.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn grad_step_lanes(x: &[f64], at_z1: &[f64], z2: &[f64], tau: f64, out: &mut [f64]) {
    assert_eq!(
        x.len(),
        at_z1.len(),
        "grad_step_lanes: at_z1 length mismatch"
    );
    assert_eq!(x.len(), z2.len(), "grad_step_lanes: z2 length mismatch");
    assert_eq!(x.len(), out.len(), "grad_step_lanes: out length mismatch");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: AVX2 availability is guaranteed by `simd_enabled()`.
        #[allow(unsafe_code)]
        unsafe {
            avx::grad_step_lanes_avx(x, at_z1, z2, tau, out)
        };
        return;
    }
    scalar::grad_step_lanes(x, at_z1, z2, tau, out);
}

/// Over-relaxation `out[i] = 2·x_new[i] − x[i]` (the PDHG extrapolation).
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn over_relax_lanes(x_new: &[f64], x: &[f64], out: &mut [f64]) {
    assert_eq!(x_new.len(), x.len(), "over_relax_lanes: x length mismatch");
    assert_eq!(
        x_new.len(),
        out.len(),
        "over_relax_lanes: out length mismatch"
    );
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: AVX2 availability is guaranteed by `simd_enabled()`.
        #[allow(unsafe_code)]
        unsafe {
            avx::over_relax_lanes_avx(x_new, x, out)
        };
        return;
    }
    scalar::over_relax_lanes(x_new, x, out);
}

/// Scalar twins: the reference semantics for every kernel above. Each body
/// is the exact operation sequence of the serial solver loop it replaces.
pub(crate) mod scalar {
    use crate::prox::soft_threshold;

    pub fn soft_threshold_lanes(panel: &mut [f64], t: &[f64], k: usize) {
        for (row, v) in panel.iter_mut().enumerate() {
            *v = soft_threshold(*v, t[row % k]);
        }
    }

    pub fn soft_threshold_weighted_lanes(panel: &mut [f64], t: &[f64], w_panel: &[f64], k: usize) {
        for (row, (v, &w)) in panel.iter_mut().zip(w_panel).enumerate() {
            *v = soft_threshold(*v, t[row % k] * w);
        }
    }

    pub fn grad_step_lanes(x: &[f64], at_z1: &[f64], z2: &[f64], tau: f64, out: &mut [f64]) {
        for (((o, &xi), &ai), &zi) in out.iter_mut().zip(x).zip(at_z1).zip(z2) {
            *o = xi - tau * (ai + zi);
        }
    }

    pub fn over_relax_lanes(x_new: &[f64], x: &[f64], out: &mut [f64]) {
        for ((o, &xn), &xi) in out.iter_mut().zip(x_new).zip(x) {
            *o = 2.0 * xn - xi;
        }
    }
}

/// AVX2 twins. Marked `target_feature(enable = "avx2")`; callers must have
/// verified hardware support. Only non-contracting mul/add/sub/blend
/// intrinsics are used so each element matches its scalar twin bit for bit.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx {
    use std::arch::x86_64::*;

    /// Soft-threshold four lanes at once, honouring the scalar branch order
    /// (`v > t` wins over `v < −t`; everything else — including NaN — maps
    /// to `+0.0`).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn soft4(v: __m256d, t: __m256d) -> __m256d {
        let sign = _mm256_set1_pd(-0.0);
        let neg_t = _mm256_xor_pd(t, sign);
        let gt = _mm256_cmp_pd::<_CMP_GT_OQ>(v, t);
        let lt = _mm256_cmp_pd::<_CMP_LT_OQ>(v, neg_t);
        let shrunk_down = _mm256_sub_pd(v, t);
        let shrunk_up = _mm256_add_pd(v, t);
        let r = _mm256_blendv_pd(_mm256_setzero_pd(), shrunk_up, lt);
        _mm256_blendv_pd(r, shrunk_down, gt)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn soft_threshold_lanes_avx(panel: &mut [f64], t: &[f64], k: usize) {
        let rows = panel.len() / k;
        for i in 0..rows {
            let base = i * k;
            let mut l = 0;
            while l + 4 <= k {
                let v = _mm256_loadu_pd(panel.as_ptr().add(base + l));
                let tv = _mm256_loadu_pd(t.as_ptr().add(l));
                _mm256_storeu_pd(panel.as_mut_ptr().add(base + l), soft4(v, tv));
                l += 4;
            }
            while l < k {
                panel[base + l] = crate::prox::soft_threshold(panel[base + l], t[l]);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn soft_threshold_weighted_lanes_avx(
        panel: &mut [f64],
        t: &[f64],
        w_panel: &[f64],
        k: usize,
    ) {
        let rows = panel.len() / k;
        for i in 0..rows {
            let base = i * k;
            let mut l = 0;
            while l + 4 <= k {
                let v = _mm256_loadu_pd(panel.as_ptr().add(base + l));
                let tv = _mm256_loadu_pd(t.as_ptr().add(l));
                let wv = _mm256_loadu_pd(w_panel.as_ptr().add(base + l));
                let tw = _mm256_mul_pd(tv, wv);
                _mm256_storeu_pd(panel.as_mut_ptr().add(base + l), soft4(v, tw));
                l += 4;
            }
            while l < k {
                panel[base + l] =
                    crate::prox::soft_threshold(panel[base + l], t[l] * w_panel[base + l]);
                l += 1;
            }
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn grad_step_lanes_avx(
        x: &[f64],
        at_z1: &[f64],
        z2: &[f64],
        tau: f64,
        out: &mut [f64],
    ) {
        let n = out.len();
        let tv = _mm256_set1_pd(tau);
        let mut i = 0;
        while i + 4 <= n {
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let av = _mm256_loadu_pd(at_z1.as_ptr().add(i));
            let zv = _mm256_loadu_pd(z2.as_ptr().add(i));
            let g = _mm256_mul_pd(tv, _mm256_add_pd(av, zv));
            _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_sub_pd(xv, g));
            i += 4;
        }
        while i < n {
            out[i] = x[i] - tau * (at_z1[i] + z2[i]);
            i += 1;
        }
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn over_relax_lanes_avx(x_new: &[f64], x: &[f64], out: &mut [f64]) {
        let n = out.len();
        let two = _mm256_set1_pd(2.0);
        let mut i = 0;
        while i + 4 <= n {
            let xn = _mm256_loadu_pd(x_new.as_ptr().add(i));
            let xv = _mm256_loadu_pd(x.as_ptr().add(i));
            let r = _mm256_sub_pd(_mm256_mul_pd(two, xn), xv);
            _mm256_storeu_pd(out.as_mut_ptr().add(i), r);
            i += 4;
        }
        while i < n {
            out[i] = 2.0 * x_new[i] - x[i];
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_rand::{RngExt, SeedableRng};

    /// Mixed-magnitude noise with signed zeros and huge/tiny values so the
    /// pins exercise rounding, not just well-scaled data.
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = hybridcs_rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| {
                let v = rng.random::<f64>() * 2.0 - 1.0;
                match i % 7 {
                    0 => v * 1e12,
                    1 => v * 1e-12,
                    2 => -0.0,
                    _ => v,
                }
            })
            .collect()
    }

    /// Runs a closure under both dispatch tiers (via the process-global
    /// linalg override, serialized on its test mutex being absent here by
    /// simply comparing scalar and AVX twins directly instead).
    #[test]
    fn soft_threshold_lanes_pins_scalar_vs_avx() {
        #[cfg(target_arch = "x86_64")]
        if hybridcs_linalg::simd::simd_available() {
            for &(rows, k) in &[(1usize, 1usize), (5, 3), (8, 4), (13, 7), (16, 8), (3, 9)] {
                let mut a = noise(rows * k, 11 + (rows * k) as u64);
                let mut b = a.clone();
                let t: Vec<f64> = (0..k).map(|l| 0.1 * (l as f64 + 0.5)).collect();
                scalar::soft_threshold_lanes(&mut a, &t, k);
                // SAFETY: guarded by simd_available().
                #[allow(unsafe_code)]
                unsafe {
                    avx::soft_threshold_lanes_avx(&mut b, &t, k)
                };
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn soft_threshold_weighted_lanes_pins_scalar_vs_avx() {
        #[cfg(target_arch = "x86_64")]
        if hybridcs_linalg::simd::simd_available() {
            for &(rows, k) in &[(1usize, 1usize), (5, 3), (8, 4), (13, 7), (16, 8)] {
                let mut a = noise(rows * k, 23 + rows as u64);
                let mut b = a.clone();
                let w: Vec<f64> = noise(rows * k, 29 + k as u64)
                    .iter()
                    .map(|v| v.abs())
                    .collect();
                let t: Vec<f64> = (0..k).map(|l| 0.05 * (l as f64 + 1.0)).collect();
                scalar::soft_threshold_weighted_lanes(&mut a, &t, &w, k);
                // SAFETY: guarded by simd_available().
                #[allow(unsafe_code)]
                unsafe {
                    avx::soft_threshold_weighted_lanes_avx(&mut b, &t, &w, k)
                };
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn elementwise_kernels_pin_scalar_vs_avx() {
        #[cfg(target_arch = "x86_64")]
        if hybridcs_linalg::simd::simd_available() {
            for &len in &[1usize, 3, 4, 7, 8, 31, 64, 97] {
                let x = noise(len, 31);
                let at = noise(len, 37);
                let z2 = noise(len, 41);
                let mut a = vec![0.0; len];
                let mut b = vec![0.0; len];
                scalar::grad_step_lanes(&x, &at, &z2, 0.37, &mut a);
                // SAFETY: guarded by simd_available().
                #[allow(unsafe_code)]
                unsafe {
                    avx::grad_step_lanes_avx(&x, &at, &z2, 0.37, &mut b)
                };
                for (p, q) in a.iter().zip(&b) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }

                scalar::over_relax_lanes(&x, &at, &mut a);
                // SAFETY: guarded by simd_available().
                #[allow(unsafe_code)]
                unsafe {
                    avx::over_relax_lanes_avx(&x, &at, &mut b)
                };
                for (p, q) in a.iter().zip(&b) {
                    assert_eq!(p.to_bits(), q.to_bits());
                }
            }
        }
    }

    #[test]
    fn soft_threshold_lanes_matches_serial_prox_per_lane() {
        // The dispatcher (whatever tier it picks) must equal running the
        // serial prox on each gathered lane.
        for &(rows, k) in &[(7usize, 1usize), (9, 3), (8, 4), (5, 7), (4, 8)] {
            let panel0 = noise(rows * k, 47);
            let t: Vec<f64> = (0..k).map(|l| 0.2 + 0.01 * l as f64).collect();
            let mut panel = panel0.clone();
            soft_threshold_lanes(&mut panel, &t, k);
            for l in 0..k {
                let mut lane = vec![0.0; rows];
                hybridcs_linalg::simd::gather_lane(&panel0, k, l, &mut lane);
                crate::prox::soft_threshold_slice(&mut lane, t[l]);
                for (i, want) in lane.iter().enumerate() {
                    assert_eq!(panel[i * k + l].to_bits(), want.to_bits());
                }
            }
        }
    }

    #[test]
    fn grad_step_zero_z2_matches_serial_signed_zero() {
        // Serial PDHG computes `at + 0.0` even without a box; -0.0 inputs
        // must round to +0.0 identically through the panel kernel.
        let at = [-0.0, 0.0, -1.5, 2.5];
        let x = [0.0; 4];
        let z2 = [0.0; 4];
        let mut out = [0.0; 4];
        scalar::grad_step_lanes(&x, &at, &z2, 1.0, &mut out);
        for (o, &a) in out.iter().zip(&at) {
            let want = 0.0 - 1.0 * (a + 0.0);
            assert_eq!(o.to_bits(), want.to_bits());
        }
    }
}
