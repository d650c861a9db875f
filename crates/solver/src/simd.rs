//! Runtime-dispatched SIMD kernels for the batched solver inner loops.
//!
//! These are the solver-side companions to [`hybridcs_linalg::simd`]: the
//! element-wise steps of the lockstep PDHG iteration between its operator
//! kernels (the box and ℓ₂-ball dual steps, the soft-threshold prox, the
//! gradient step, the over-relaxation). Each is written once, as its safe
//! scalar loop, and runs through [`on_tier`]: directly on the scalar tier,
//! or compiled with AVX2 enabled on the SIMD tier.
//!
//! # 0-ULP contract
//!
//! Every kernel here is **element-wise**: output element `i` depends only on
//! input elements at the same position plus broadcast scalars. Both tiers
//! compile the same loop, and rustc neither contracts `a*b + c` into an FMA
//! nor reassociates float arithmetic, so each vector lane computes the
//! identical IEEE-754 operation sequence as the scalar loop. The
//! per-element results are therefore bit-identical across tiers, which is
//! what lets the batched solver promise bit-identical results regardless
//! of the dispatch decision. The first ℓ₂-ball pass also folds one sum per
//! lane, across lanes only, in row order (the lane reductions of
//! [`hybridcs_linalg::simd`]).
//!
//! Per-lane thresholds follow the batch panel layout of
//! [`hybridcs_linalg::simd`]: a panel stores element `i` of lane `l` at
//! `i * k + l`, and a threshold slice `t` holds one value per lane. A
//! one-lane panel runs the contiguous loop, in an `on_tier` call of its
//! own: a `k == 1` branch inside the row loop's closure kept LLVM from
//! vectorizing that loop, and a row loop one lane wide folds its sums
//! through memory, at about twice the contiguous loop's time.

use crate::prox::{soft_threshold, soft_threshold_slice, soft_threshold_weighted};
use hybridcs_linalg::simd::{on_tier, simd_enabled};

/// Panel soft-threshold with a per-lane threshold: for every row `i` and
/// lane `l`, applies [`crate::prox::soft_threshold`] with threshold `t[l]`
/// to `panel[i*k + l]` in place.
///
/// Matches the scalar [`crate::prox::soft_threshold_slice`] applied per
/// lane, bit for bit, and runs it at `k == 1`, where the panel is the vector.
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
    if k == 1 {
        return on_tier(simd_enabled(), || soft_threshold_slice(panel, t[0]));
    }
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
/// [`crate::prox::soft_threshold_weighted`] applied per lane, bit for bit
/// (and runs it at `k == 1`).
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
    if k == 1 {
        return on_tier(simd_enabled(), || {
            soft_threshold_weighted(panel, t[0], w_panel)
        });
    }
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
/// `z2` slice must be zero-filled when the problem has no box constraint,
/// so the arithmetic is `at + 0.0` either way, signed zeros included.
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

/// Checks the shapes of a pass over panels `k` lanes wide: the panel it
/// writes holds `len` elements, a multiple of `k > 0`, and so do the
/// panels of lengths `lens`.
fn check_panels(what: &str, k: usize, len: usize, lens: &[usize]) {
    assert!(
        k > 0 && len.is_multiple_of(k),
        "{what}: {len} elements in {k} lanes"
    );
    assert!(
        lens.iter().all(|&l| l == len),
        "{what}: panel length mismatch"
    );
}

/// Dual ascent on the box constraint in one element-wise pass: per
/// element, `t = z2 + ς·x̄`, `b = clamp(t/ς, lo, hi)`, `z2 = t − ς·b` with
/// `ς = step`. Per lane this is [`hybridcs_linalg::vector::axpy`], a
/// division, [`crate::prox::project_box`] and a scaled subtraction, bit
/// for bit on either tier.
///
/// The clamp is written as two compare-and-selects, which equal
/// `f64::clamp` for ordered bounds (what [`crate::BpdnProblem::validate`]
/// guarantees) and, unlike its per-element assert, let the loop vectorize.
///
/// # Panics
///
/// Panics if the slice lengths differ.
pub fn box_dual_lanes(x_bar: &[f64], lo: &[f64], hi: &[f64], step: f64, z2: &mut [f64]) {
    check_panels(
        "box_dual_lanes",
        1,
        z2.len(),
        &[x_bar.len(), lo.len(), hi.len()],
    );
    on_tier(simd_enabled(), || {
        for (((z, &xb), &l), &h) in z2.iter_mut().zip(x_bar).zip(lo).zip(hi) {
            let t = *z + step * xb;
            let mut b = t / step;
            if b < l {
                b = l;
            }
            if b > h {
                b = h;
            }
            *z = t - step * b;
        }
    });
}

/// First pass of the dual ascent on the ℓ₂ ball around each lane's
/// measurements `y` (a panel, `dist_sq.len()` lanes wide): per element,
/// `z1 += ς·ax` and `ball = z1/ς`; per lane, `dist_sq[l]` accumulates
/// ‖ball_l − y_l‖² and `residual_sq[l]` accumulates ‖ax_l − y_l‖², each in
/// the row order of [`hybridcs_linalg::vector::dist2`]. The residual is
/// the observers' ‖Φx̄ − y‖²: `ax` is in hand, and its fold runs beside
/// the distance's. [`ball_project_lanes`] finishes the step.
///
/// # Panics
///
/// Panics if `dist_sq` is empty, `residual_sq.len() != dist_sq.len()`, or
/// the panels differ in length or are not a multiple of the lane count.
pub fn ball_ascent_lanes(
    ax: &[f64],
    y: &[f64],
    step: f64,
    z1: &mut [f64],
    ball: &mut [f64],
    dist_sq: &mut [f64],
    residual_sq: &mut [f64],
) {
    let k = dist_sq.len();
    assert_eq!(residual_sq.len(), k, "ball_ascent_lanes: residual lanes");
    check_panels(
        "ball_ascent_lanes",
        k,
        z1.len(),
        &[ax.len(), y.len(), ball.len()],
    );
    if k == 1 {
        // One lane is the contiguous fold, its sums held in registers.
        let (mut d2, mut r2) = (0.0, 0.0);
        for (((z, b), &a), &c) in z1.iter_mut().zip(ball.iter_mut()).zip(ax).zip(y) {
            ascend(z, b, a, c, step, &mut d2, &mut r2);
        }
        (dist_sq[0], residual_sq[0]) = (d2, r2);
        return;
    }
    dist_sq.fill(0.0);
    residual_sq.fill(0.0);
    on_tier(simd_enabled(), || {
        let rows = z1
            .chunks_exact_mut(k)
            .zip(ball.chunks_exact_mut(k))
            .zip(ax.chunks_exact(k).zip(y.chunks_exact(k)));
        for ((z_row, b_row), (a_row, y_row)) in rows {
            let lanes = z_row
                .iter_mut()
                .zip(b_row.iter_mut())
                .zip(a_row.iter().zip(y_row))
                .zip(dist_sq.iter_mut().zip(residual_sq.iter_mut()));
            for (((z, b), (&a, &c)), (d2, r2)) in lanes {
                ascend(z, b, a, c, step, d2, r2);
            }
        }
    });
}

/// One element of [`ball_ascent_lanes`]: `z += ς·a`, `b = z/ς`, and the
/// lane's sums gain `(b − c)²` and `(a − c)²`.
#[inline(always)]
fn ascend(z: &mut f64, b: &mut f64, a: f64, c: f64, step: f64, d2: &mut f64, r2: &mut f64) {
    let t = *z + step * a;
    let v = t / step;
    *z = t;
    *b = v;
    let d = v - c;
    *d2 += d * d;
    let r = a - c;
    *r2 += r * r;
}

/// Marks a lane inside its ball in [`ball_project_lanes`]'s per-lane
/// scales: a lane outside scales by `radius/dist`, which is `≥ 0` or NaN.
const INSIDE: f64 = -1.0;

/// Second pass of the ℓ₂-ball dual ascent: projects the lanes of `ball`
/// that lie outside their radius, `ball = y + (r/dist)·(ball − y)`, leaves
/// the others, and finishes `z1 −= ς·ball`. Per lane this is
/// [`crate::prox::project_l2_ball`] on `ball` and a scaled subtraction,
/// bit for bit on either tier. `dist_sq` holds [`ball_ascent_lanes`]'s
/// squared distances and is overwritten with each lane's scale.
///
/// # Panics
///
/// Panics if `dist_sq` is empty, `radius.len() != dist_sq.len()`, or the
/// panels differ in length or are not a multiple of the lane count.
pub fn ball_project_lanes(
    ball: &[f64],
    y: &[f64],
    radius: &[f64],
    dist_sq: &mut [f64],
    step: f64,
    z1: &mut [f64],
) {
    let k = dist_sq.len();
    assert_eq!(radius.len(), k, "ball_project_lanes: radius lanes");
    check_panels("ball_project_lanes", k, z1.len(), &[ball.len(), y.len()]);
    for (s, &r) in dist_sq.iter_mut().zip(radius) {
        let dist = s.sqrt();
        *s = if dist <= r || dist == 0.0 {
            INSIDE
        } else {
            r / dist
        };
    }
    let scale = &*dist_sq;
    if k == 1 {
        let s = scale[0];
        return on_tier(simd_enabled(), || {
            for ((z, &b), &c) in z1.iter_mut().zip(ball).zip(y) {
                *z -= step * project(b, c, s);
            }
        });
    }
    on_tier(simd_enabled(), || {
        let rows = z1
            .chunks_exact_mut(k)
            .zip(ball.chunks_exact(k).zip(y.chunks_exact(k)));
        for (z_row, (b_row, y_row)) in rows {
            for (((z, &b), &c), &s) in z_row.iter_mut().zip(b_row).zip(y_row).zip(scale) {
                *z -= step * project(b, c, s);
            }
        }
    });
}

/// One element of [`crate::prox::project_l2_ball`] at scale `s`, or `b`
/// itself when `s` marks the lane [`INSIDE`] its ball.
#[inline(always)]
fn project(b: f64, c: f64, s: f64) -> f64 {
    if s == INSIDE {
        b
    } else {
        c + s * (b - c)
    }
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
    /// vectors plus one, the gateway's panel width 16, and one past 16
    /// and 32.
    const PIN_WIDTHS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33];

    /// Panel heights the pass pins sweep: one row, a few, and the
    /// measurement count and window length of the paper's operating point.
    const PIN_ROWS: [usize; 4] = [1, 5, 96, 512];

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

    /// A `rows × k` panel of [`noise`]'s finite values (±0, subnormals,
    /// huge and tiny magnitudes). Lane `l` also carries `special(l)`, if
    /// any, at one row that shifts with the lane.
    fn lane_panel(
        rows: usize,
        k: usize,
        seed: u64,
        special: impl Fn(usize) -> Option<f64>,
    ) -> Vec<f64> {
        let mut panel: Vec<f64> = noise(rows * k, seed)
            .into_iter()
            .map(|v| if v.is_finite() { v } else { 0.75 })
            .collect();
        for l in 0..k {
            if let Some(v) = special(l) {
                panel[((3 * l + seed as usize) % rows) * k + l] = v;
            }
        }
        panel
    }

    /// Lane `lane` of a column-major `k`-wide panel, as a vector.
    fn lane_of(panel: &[f64], k: usize, lane: usize) -> Vec<f64> {
        let mut v = vec![0.0; panel.len() / k];
        gather_lane(panel, k, lane, &mut v);
        v
    }

    /// Runs `body(tier)` under forced scalar dispatch and, when the host
    /// has AVX2, forced SIMD dispatch. Restores the default tier.
    fn on_each_tier(mut body: impl FnMut(&str)) {
        let _guard = crate::tier_lock();
        set_override(Some(false));
        body("scalar");
        if simd_available() {
            set_override(Some(true));
            body("avx2");
        }
        set_override(None);
    }

    /// Asserts that lane `lane` of `panel` equals `want`, bit for bit.
    fn assert_lane_bits(panel: &[f64], k: usize, lane: usize, want: &[f64], at: &str) {
        for (i, (got, want)) in lane_of(panel, k, lane).iter().zip(want).enumerate() {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{at} row{i}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn box_dual_lanes_match_the_four_step_reference_per_lane() {
        // Iterates carry NaN and ±∞ (a lane of `x̄` and `z2` never holds
        // two different NaNs); the bounds are finite and ordered, some
        // equal, as `BpdnProblem::validate` guarantees.
        let special = |l: usize| [None, Some(f64::NAN), Some(f64::INFINITY)][l % 3];
        on_each_tier(|tier| {
            for k in PIN_WIDTHS {
                for rows in PIN_ROWS {
                    let seed = (rows * 64 + k) as u64;
                    let x_bar = lane_panel(rows, k, seed, special);
                    let z2_0 = lane_panel(rows, k, seed + 1, |l| special(l + 1).map(|v| -v));
                    let lo = lane_panel(rows, k, seed + 2, |_| None);
                    let width = lane_panel(rows, k, seed + 3, |_| None);
                    let hi: Vec<f64> = lo
                        .iter()
                        .zip(&width)
                        .enumerate()
                        .map(|(i, (&l, &w))| if i % 7 == 0 { l } else { l + w.abs() })
                        .collect();
                    for step in [0.37, 3.5] {
                        let mut z2 = z2_0.clone();
                        box_dual_lanes(&x_bar, &lo, &hi, step, &mut z2);
                        for lane in 0..k {
                            let mut want = lane_of(&z2_0, k, lane);
                            hybridcs_linalg::vector::axpy(
                                step,
                                &lane_of(&x_bar, k, lane),
                                &mut want,
                            );
                            let mut b: Vec<f64> = want.iter().map(|t| t / step).collect();
                            crate::prox::project_box(
                                &mut b,
                                &lane_of(&lo, k, lane),
                                &lane_of(&hi, k, lane),
                            );
                            for (z, &bi) in want.iter_mut().zip(&b) {
                                *z -= step * bi;
                            }
                            let at = format!("{tier} k{k} rows{rows} step{step} lane{lane}");
                            assert_lane_bits(&z2, k, lane, &want, &at);
                        }
                    }
                }
            }
        });
    }

    #[test]
    fn ball_lanes_match_the_prox_reference_inside_and_outside() {
        // Lanes 1–2 (mod 5) carry NaN/+∞ in `ax`, 3–4 carry −∞/NaN in
        // `z1`; measurements and radii are finite, as validated problems
        // have them. Each `shift` moves lane `l` through the radius cases:
        // twice its distance, half of it, exactly it, and zero.
        let in_ax = |l: usize| [None, Some(f64::NAN), Some(f64::INFINITY), None, None][l % 5];
        let in_z1 = |l: usize| [None, None, None, Some(f64::NEG_INFINITY), Some(f64::NAN)][l % 5];
        on_each_tier(|tier| {
            for k in PIN_WIDTHS {
                for rows in PIN_ROWS {
                    let seed = (rows * 64 + k) as u64;
                    let ax = lane_panel(rows, k, seed, in_ax);
                    let z1_0 = lane_panel(rows, k, seed + 1, in_z1);
                    let y = lane_panel(rows, k, seed + 2, |_| None);
                    let step = 0.61;
                    for shift in 0..4 {
                        let (mut z1, mut ball) = (z1_0.clone(), vec![0.0; rows * k]);
                        let (mut dist_sq, mut residual_sq) = (vec![0.0; k], vec![0.0; k]);
                        ball_ascent_lanes(
                            &ax,
                            &y,
                            step,
                            &mut z1,
                            &mut ball,
                            &mut dist_sq,
                            &mut residual_sq,
                        );
                        let mut radius = vec![0.0; k];
                        let mut want = Vec::new();
                        for lane in 0..k {
                            let y_l = lane_of(&y, k, lane);
                            let ax_l = lane_of(&ax, k, lane);
                            let mut z = lane_of(&z1_0, k, lane);
                            hybridcs_linalg::vector::axpy(step, &ax_l, &mut z);
                            let b: Vec<f64> = z.iter().map(|t| t / step).collect();
                            let dist = hybridcs_linalg::vector::dist2(&b, &y_l);
                            let residual = hybridcs_linalg::vector::dist2(&ax_l, &y_l);
                            let at = format!("{tier} k{k} rows{rows} lane{lane}");
                            assert_lane_bits(&ball, k, lane, &b, &format!("ball {at}"));
                            assert_eq!(dist_sq[lane].sqrt().to_bits(), dist.to_bits(), "dist {at}");
                            assert_eq!(
                                residual_sq[lane].sqrt().to_bits(),
                                residual.to_bits(),
                                "residual {at}"
                            );
                            radius[lane] = match (lane + shift) % 4 {
                                _ if !dist.is_finite() => 1.0,
                                0 => 2.0 * dist,
                                1 => 0.5 * dist,
                                2 => dist,
                                _ => 0.0,
                            };
                            let mut p = b;
                            crate::prox::project_l2_ball(&mut p, &y_l, radius[lane]);
                            for (zi, &pi) in z.iter_mut().zip(&p) {
                                *zi -= step * pi;
                            }
                            want.push(z);
                        }
                        ball_project_lanes(&ball, &y, &radius, &mut dist_sq, step, &mut z1);
                        for (lane, want) in want.iter().enumerate() {
                            let at = format!("z1 {tier} k{k} rows{rows} shift{shift} lane{lane}");
                            assert_lane_bits(&z1, k, lane, want, &at);
                        }
                    }
                }
            }
        });
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
        // Without a box PDHG still computes `at + 0.0` (`z2` stays zero);
        // -0.0 inputs must round to +0.0 through the panel kernel.
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
