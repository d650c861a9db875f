//! Runtime-dispatched SIMD kernels for the batched solver inner loops.
//!
//! These are the solver-side companions to [`hybridcs_linalg::simd`]: the
//! element-wise update steps that dominate the batched PDHG iteration
//! (soft-threshold prox, gradient step, over-relaxation). Each is written
//! once, as its safe scalar loop, and runs through [`on_tier`]: directly
//! on the scalar tier, or compiled with AVX2 enabled on the SIMD tier.
//!
//! # 0-ULP contract
//!
//! Every kernel here is **element-wise**: output element `i` depends only on
//! input elements at the same position plus broadcast scalars. Both tiers
//! compile the same loop, and rustc neither contracts `a*b + c` into an FMA
//! nor reassociates float arithmetic, so each vector lane computes the
//! identical IEEE-754 operation sequence as the scalar loop. The
//! per-element results are therefore bit-identical across tiers, which is
//! what lets the batched solver promise bit-identical results to its
//! serial counterpart regardless of the dispatch decision.
//!
//! Per-lane thresholds follow the batch panel layout of
//! [`hybridcs_linalg::simd`]: a panel stores element `i` of lane `l` at
//! `i * k + l`, and a threshold slice `t` holds one value per lane.

use crate::prox::soft_threshold;
use hybridcs_linalg::simd::{on_tier, simd_enabled};

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
    on_tier(simd_enabled(), || {
        for row in panel.chunks_exact_mut(k) {
            for (v, &tl) in row.iter_mut().zip(t) {
                *v = soft_threshold(*v, tl);
            }
        }
    });
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
    on_tier(simd_enabled(), || {
        for (row, w_row) in panel.chunks_exact_mut(k).zip(w_panel.chunks_exact(k)) {
            for ((v, &tl), &w) in row.iter_mut().zip(t).zip(w_row) {
                *v = soft_threshold(*v, tl * w);
            }
        }
    });
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
    on_tier(simd_enabled(), || {
        for (((o, &xi), &ai), &zi) in out.iter_mut().zip(x).zip(at_z1).zip(z2) {
            *o = xi - tau * (ai + zi);
        }
    });
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
    on_tier(simd_enabled(), || {
        for ((o, &xn), &xi) in out.iter_mut().zip(x_new).zip(x) {
            *o = 2.0 * xn - xi;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_linalg::simd::{gather_lane, set_override, simd_available};
    use hybridcs_rand::{RngExt, SeedableRng};

    /// Element-wise lengths the tier pins sweep: empty, every length
    /// below one 4-wide vector, and each side of 16, 32 and 64, so the
    /// AVX2 tier's unrolled vector body, its remainder and its scalar tail
    /// all run.
    const PIN_LENS: [usize; 16] = [0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257];

    /// Panel widths the lane pins sweep: every width up to two 4-wide
    /// vectors plus one, the gateway's panel width 16, and one past it.
    const PIN_WIDTHS: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17];

    /// Mixed-magnitude noise with signed zeros and huge/tiny values, plus
    /// NaN, ±∞ and subnormals at positions that shift with `seed`, so the
    /// pins exercise rounding and special values in vector slots and in
    /// the tail. Thresholds and step sizes in the pins stay finite: where
    /// two different NaNs meet in one commutative operation, IEEE-754 lets
    /// either propagate.
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = hybridcs_rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| {
                let v = rng.random::<f64>() * 2.0 - 1.0;
                match ((i + seed as usize) % 13, i % 7) {
                    (0, _) => f64::NAN,
                    (1, _) => f64::INFINITY,
                    (2, _) => f64::NEG_INFINITY,
                    (3, _) => v * f64::MIN_POSITIVE,
                    (_, 0) => v * 1e12,
                    (_, 1) => v * 1e-12,
                    (_, 2) => -0.0,
                    (_, 3) => 0.0,
                    _ => v,
                }
            })
            .collect()
    }

    /// Runs `f` under both dispatch tiers (when SIMD hardware exists) and
    /// asserts the results are bit-identical. Restores the default tier.
    fn pin_both_tiers(label: &str, mut f: impl FnMut() -> Vec<f64>) {
        let _guard = crate::tier_lock();
        set_override(Some(false));
        let scalar_bits: Vec<u64> = f().iter().map(|v| v.to_bits()).collect();
        if simd_available() {
            set_override(Some(true));
            let simd_bits: Vec<u64> = f().iter().map(|v| v.to_bits()).collect();
            assert_eq!(scalar_bits, simd_bits, "{label}: SIMD tier diverged");
        }
        set_override(None);
    }

    /// Per-lane thresholds: positive, growing with the lane, one zero.
    fn thresholds(k: usize) -> Vec<f64> {
        (0..k).map(|l| 0.1 * l as f64).collect()
    }

    #[test]
    fn soft_threshold_lanes_pins_both_tiers() {
        for k in PIN_WIDTHS {
            for rows in [1, 5] {
                let panel0 = noise(rows * k, 11 + (rows * k) as u64);
                let t = thresholds(k);
                pin_both_tiers(&format!("rows{rows} k{k}"), || {
                    let mut panel = panel0.clone();
                    soft_threshold_lanes(&mut panel, &t, k);
                    assert!(panel.iter().all(|v| !v.is_nan()), "NaN must map to +0.0");
                    panel
                });
            }
        }
    }

    #[test]
    fn soft_threshold_weighted_lanes_pins_both_tiers() {
        for k in PIN_WIDTHS {
            for rows in [1, 5] {
                let panel0 = noise(rows * k, 23 + rows as u64);
                let w: Vec<f64> = noise(rows * k, 29 + k as u64)
                    .iter()
                    .map(|v| v.abs())
                    .collect();
                let t = thresholds(k);
                pin_both_tiers(&format!("rows{rows} k{k}"), || {
                    let mut panel = panel0.clone();
                    soft_threshold_weighted_lanes(&mut panel, &t, &w, k);
                    panel
                });
            }
        }
    }

    #[test]
    fn elementwise_kernels_pin_both_tiers() {
        for len in PIN_LENS {
            let x = noise(len, 31);
            let at = noise(len, 37);
            let z2 = noise(len, 41);
            pin_both_tiers(&format!("grad_step len{len}"), || {
                let mut out = vec![0.0; len];
                grad_step_lanes(&x, &at, &z2, 0.37, &mut out);
                out
            });
            pin_both_tiers(&format!("over_relax len{len}"), || {
                let mut out = vec![0.0; len];
                over_relax_lanes(&x, &at, &mut out);
                out
            });
        }
    }

    #[test]
    fn soft_threshold_lanes_matches_serial_prox_per_lane() {
        // The dispatcher (whatever tier it picks) must equal running the
        // serial prox on each gathered lane.
        for k in PIN_WIDTHS {
            let rows = 7;
            let panel0 = noise(rows * k, 47);
            let t: Vec<f64> = (0..k).map(|l| 0.2 + 0.01 * l as f64).collect();
            let mut panel = panel0.clone();
            soft_threshold_lanes(&mut panel, &t, k);
            for l in 0..k {
                let mut lane = vec![0.0; rows];
                gather_lane(&panel0, k, l, &mut lane);
                crate::prox::soft_threshold_slice(&mut lane, t[l]);
                for (i, want) in lane.iter().enumerate() {
                    assert_eq!(panel[i * k + l].to_bits(), want.to_bits(), "k{k} lane{l}");
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
        pin_both_tiers("signed zero", || {
            let mut out = vec![0.0; 4];
            grad_step_lanes(&x, &at, &z2, 1.0, &mut out);
            for (o, &a) in out.iter().zip(&at) {
                let want = 0.0 - 1.0 * (a + 0.0);
                assert_eq!(o.to_bits(), want.to_bits());
            }
            out
        });
    }
}
