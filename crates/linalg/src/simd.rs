//! Runtime-dispatched SIMD tier for the batched decode path.
//!
//! Each element-wise kernel here is written once, as its safe scalar loop,
//! and [`on_tier`] runs that one body on the tier [`simd_enabled`] picks:
//! directly (the scalar tier, compiled for the crate's baseline target),
//! or inlined into a frame compiled with
//! `#[target_feature(enable = "avx2")]`, where LLVM vectorizes the same
//! loop 256 bits wide (the AVX2 tier). The contract is **0 ULP**: for any
//! input, both tiers produce bit-identical output. That holds because
//! every dispatched kernel is **element-wise** (one multiply/add/divide
//! per output element, no reduction): IEEE-754 arithmetic is
//! deterministic per element, and rustc never contracts `a*b + c` into an
//! FMA nor reassociates float arithmetic, so vectorizing across elements
//! cannot change any bit.
//!
//! # Dispatch policy
//!
//! [`simd_enabled`] requires `avx2` **and** `fma` at runtime (the paper's
//! deployment tier; FMA presence implies the modern AVX2 implementations
//! the kernels are tuned for, even though the frame only enables AVX2).
//! Setting `HYBRIDCS_FORCE_SCALAR=1` pins the scalar tier process-wide —
//! the CI knob that keeps the fallback exercised on AVX2 hosts.
//! [`set_override`] flips the tier in-process (benchmarks use it for the
//! SIMD-on/off dimension); forcing SIMD on hardware without AVX2 is
//! ignored rather than honored.
//!
//! # Lane reductions stay scalar
//!
//! The per-lane norm helpers ([`norm1_lane`], [`norm2_lane`],
//! [`dist2_lane`], [`dist2_lane_vs`]) replicate the exact fold order of
//! [`vector`](crate::vector) on a strided lane. A strict-order float fold
//! is one dependency chain that no compiler vectorizes without
//! reassociating it, so they do not go through [`on_tier`]. They run once
//! per convergence check, not per iteration element, so they are not hot.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable pinning the scalar tier process-wide.
pub const FORCE_SCALAR_ENV: &str = "HYBRIDCS_FORCE_SCALAR";

/// `0` = follow env/hardware, `1` = force scalar, `2` = force SIMD
/// (subject to hardware support).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Hardware support for the AVX2+FMA tier (independent of env/override).
#[must_use]
pub fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE
            .get_or_init(|| is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether kernels dispatch to the AVX2 tier right now: hardware support,
/// minus the `HYBRIDCS_FORCE_SCALAR=1` environment pin, overridden by any
/// in-process [`set_override`]. Both tiers are bit-identical; this only
/// selects which instructions produce those bits.
#[must_use]
pub fn simd_enabled() -> bool {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => false,
        2 => simd_available(),
        _ => {
            static ENV_DEFAULT: OnceLock<bool> = OnceLock::new();
            *ENV_DEFAULT.get_or_init(|| {
                let forced_scalar =
                    std::env::var(FORCE_SCALAR_ENV).is_ok_and(|v| v == "1" || v == "true");
                !forced_scalar && simd_available()
            })
        }
    }
}

/// In-process tier override: `Some(false)` forces scalar, `Some(true)`
/// requests SIMD (ignored without hardware support), `None` restores the
/// environment/hardware default. Benchmarks use this for the SIMD-on/off
/// sweep; tests pin tiers explicitly instead (process-global state).
pub fn set_override(tier: Option<bool>) {
    let code = match tier {
        None => 0,
        Some(false) => 1,
        Some(true) => 2,
    };
    OVERRIDE.store(code, Ordering::Relaxed);
}

/// Runs `kernel` on the AVX2 tier when `simd` holds and the host has
/// AVX2, and directly otherwise. Both tiers execute the same source: the
/// AVX2 tier inlines `kernel` into a frame compiled with
/// `#[target_feature(enable = "avx2")]`, so an element-wise loop in it
/// vectorizes 256 bits wide and rounds exactly like the scalar tier.
/// Kernels pass [`simd_enabled`] as `simd`.
#[allow(unsafe_code)]
#[inline]
pub fn on_tier<R>(simd: bool, kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    if simd && simd_available() {
        // SAFETY: `simd_available` detected AVX2 on this host at runtime,
        // the one precondition of calling the `target_feature` frame.
        return unsafe { avx2_frame(kernel) };
    }
    let _ = simd;
    kernel()
}

/// The AVX2 frame of [`on_tier`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_frame<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// `y += alpha * x`, element-wise — bit-identical to
/// [`vector::axpy`](crate::vector::axpy) for any `alpha` on either tier.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    on_tier(simd_enabled(), || {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    });
}

/// `y -= alpha * x`, element-wise (`y - alpha*x` per element, matching the
/// solver's explicit dual-update loops bit-for-bit).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub_scaled(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub_scaled: length mismatch");
    on_tier(simd_enabled(), || {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi -= alpha * xi;
        }
    });
}

/// `out = x / divisor`, element-wise (IEEE division is exact per element;
/// this must stay a division — multiplying by a reciprocal would change
/// bits).
///
/// # Panics
///
/// Panics if `x.len() != out.len()`.
pub fn div_by(x: &[f64], divisor: f64, out: &mut [f64]) {
    assert_eq!(x.len(), out.len(), "div_by: length mismatch");
    on_tier(simd_enabled(), || {
        for (o, &xi) in out.iter_mut().zip(x) {
            *o = xi / divisor;
        }
    });
}

// -- scalar-only per-lane reductions -----------------------------------------
//
// These replicate the exact algorithms of `crate::vector` on one strided
// lane of a column-major panel (see "Lane reductions stay scalar" above).

/// [`vector::norm1`](crate::vector::norm1) of lane `lane` over the first
/// `len` panel rows.
#[must_use]
pub fn norm1_lane(panel: &[f64], k: usize, lane: usize, len: usize) -> f64 {
    (0..len).map(|i| panel[i * k + lane].abs()).sum()
}

/// [`vector::norm2`](crate::vector::norm2) of lane `lane` over the first
/// `len` panel rows — the same overflow-safe scaled form, fold for fold.
#[must_use]
pub fn norm2_lane(panel: &[f64], k: usize, lane: usize, len: usize) -> f64 {
    let max = (0..len).fold(0.0_f64, |m, i| m.max(panel[i * k + lane].abs()));
    if max == 0.0 || !max.is_finite() {
        let has_nan = (0..len).any(|i| panel[i * k + lane].is_nan());
        return if has_nan { f64::NAN } else { max };
    }
    let sum: f64 = (0..len)
        .map(|i| {
            let r = panel[i * k + lane] / max;
            r * r
        })
        .sum();
    max * sum.sqrt()
}

/// [`vector::dist2`](crate::vector::dist2) between lane `lane` of two
/// same-shape panels.
#[must_use]
pub fn dist2_lane(a: &[f64], b: &[f64], k: usize, lane: usize, len: usize) -> f64 {
    let sum: f64 = (0..len)
        .map(|i| {
            let d = a[i * k + lane] - b[i * k + lane];
            d * d
        })
        .sum();
    sum.sqrt()
}

/// [`vector::dist2`](crate::vector::dist2) between lane `lane` of a panel
/// and a contiguous vector `b` (the per-window measurement slice).
#[must_use]
pub fn dist2_lane_vs(a: &[f64], b: &[f64], k: usize, lane: usize) -> f64 {
    let sum: f64 = b
        .iter()
        .enumerate()
        .map(|(i, &bi)| {
            let d = a[i * k + lane] - bi;
            d * d
        })
        .sum();
    sum.sqrt()
}

/// Copies lane `lane` of a column-major panel into a contiguous vector.
///
/// # Panics
///
/// Panics if `out.len() * k != panel.len()`.
pub fn gather_lane(panel: &[f64], k: usize, lane: usize, out: &mut [f64]) {
    assert_eq!(out.len() * k, panel.len(), "gather_lane: shape");
    for (i, o) in out.iter_mut().enumerate() {
        *o = panel[i * k + lane];
    }
}

/// Writes a contiguous vector into lane `lane` of a column-major panel.
///
/// # Panics
///
/// Panics if `x.len() * k != panel.len()`.
pub fn scatter_lane(x: &[f64], k: usize, lane: usize, panel: &mut [f64]) {
    assert_eq!(x.len() * k, panel.len(), "scatter_lane: shape");
    for (i, &v) in x.iter().enumerate() {
        panel[i * k + lane] = v;
    }
}

/// Lanes of a `k`-wide panel that the 4-wide lane-parallel kernels cover:
/// the first `4⌊k/4⌋`. The rest — every lane when `k < 4` — run through
/// the contiguous single-vector kernel via [`serial_lanes`]: a lane outside
/// a full vector gains nothing from the panel layout, while the serial
/// kernel reads it contiguously.
#[must_use]
pub const fn vector_lanes(k: usize) -> usize {
    k - k % 4
}

/// Runs lanes `first..k` of the column-major panel `input` (stride `k`)
/// through a contiguous single-vector kernel
/// `kernel(lane_in, lane_out, kernel_scratch)`, writing the same lanes of
/// `out`. At `k == 1` the panel *is* the contiguous vector, so the kernel
/// runs on it in place with all of `scratch`. Otherwise each lane gathers
/// into the front of `scratch` (`input.len() / k` elements), the kernel
/// writes the next `out.len() / k`, that lane scatters back, and the
/// kernel gets whatever `scratch` remains. Each lane's bits are exactly
/// the kernel's.
///
/// # Panics
///
/// Panics if `k > 1` and `scratch` cannot hold both lane buffers, or on
/// panel shapes that are not `k` lanes wide.
pub fn serial_lanes(
    input: &[f64],
    k: usize,
    first: usize,
    out: &mut [f64],
    scratch: &mut [f64],
    mut kernel: impl FnMut(&[f64], &mut [f64], &mut [f64]),
) {
    if first >= k {
        return;
    }
    if k == 1 {
        kernel(input, out, scratch);
        return;
    }
    let (lane_in, rest) = scratch.split_at_mut(input.len() / k);
    let (lane_out, kernel_scratch) = rest.split_at_mut(out.len() / k);
    for lane in first..k {
        gather_lane(input, k, lane, lane_in);
        kernel(lane_in, lane_out, kernel_scratch);
        scatter_lane(lane_out, k, lane, out);
    }
}

/// Drops lane `lane` from a column-major panel in place: the surviving
/// lanes repack from stride `k` to stride `k − 1` preserving row and lane
/// order (the stopping-mask retirement step). Only the first
/// `rows * (k − 1)` elements are meaningful afterwards.
///
/// The forward pass is safe in place: every write index is ≤ its read
/// index.
///
/// # Panics
///
/// Panics if `lane >= k` or `panel.len() < rows * k`.
pub fn drop_lane(panel: &mut [f64], k: usize, lane: usize, rows: usize) {
    assert!(lane < k, "drop_lane: lane out of range");
    assert!(panel.len() >= rows * k, "drop_lane: panel too short");
    if k == 1 {
        return;
    }
    let mut write = 0;
    for i in 0..rows {
        for l in 0..k {
            if l == lane {
                continue;
            }
            panel[write] = panel[i * k + l];
            write += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use hybridcs_rand::{RngExt, SeedableRng};

    /// Element-wise lengths the tier pins sweep: empty, every length
    /// below one 4-wide vector, and each side of 16, 32 and 64, so the
    /// AVX2 tier's unrolled vector body, its remainder and its scalar tail
    /// all run.
    const PIN_LENS: [usize; 16] = [0, 1, 2, 3, 4, 5, 15, 16, 17, 31, 32, 33, 63, 64, 65, 257];

    /// Deterministic mixed-magnitude data, including negative zeros,
    /// across awkward (non-multiple-of-4) lengths.
    fn noise(len: usize, seed: u64) -> Vec<f64> {
        let mut rng = hybridcs_rand::rngs::StdRng::seed_from_u64(seed);
        (0..len)
            .map(|i| {
                let base = rng.random::<f64>() * 2.0 - 1.0;
                match i % 7 {
                    0 => base * 1e12,
                    1 => base * 1e-12,
                    2 => -0.0,
                    _ => base,
                }
            })
            .collect()
    }

    /// [`noise`] with NaN, ±∞, +0 and subnormals mixed in, at positions
    /// that shift with `seed` so each kind reaches vector slots and the
    /// tail. Broadcast scalars in the pins stay finite: where two
    /// different NaNs meet in one commutative operation, IEEE-754 lets
    /// either propagate.
    fn specials(len: usize, seed: u64) -> Vec<f64> {
        let mut v = noise(len, seed);
        for (i, x) in v.iter_mut().enumerate() {
            match (i + seed as usize) % 13 {
                0 => *x = f64::NAN,
                1 => *x = f64::INFINITY,
                2 => *x = f64::NEG_INFINITY,
                3 => *x = 0.0,
                4 => *x *= f64::MIN_POSITIVE,
                _ => {}
            }
        }
        v
    }

    /// Serializes tests that flip the process-global dispatch override.
    fn tier_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `f` under both dispatch tiers (when SIMD hardware exists) and
    /// asserts the results are bit-identical. Restores the default tier.
    fn pin_both_tiers(mut f: impl FnMut() -> Vec<f64>) {
        let _guard = tier_lock();
        set_override(Some(false));
        let scalar_bits: Vec<u64> = f().iter().map(|v| v.to_bits()).collect();
        if simd_available() {
            set_override(Some(true));
            let simd_bits: Vec<u64> = f().iter().map(|v| v.to_bits()).collect();
            assert_eq!(scalar_bits, simd_bits, "SIMD tier diverged from scalar");
        }
        set_override(None);
    }

    #[test]
    fn axpy_pins_zero_ulp_across_shapes() {
        for len in PIN_LENS {
            for seed in 0..4 {
                let x = specials(len, 100 + seed);
                let y0 = specials(len, 200 + seed);
                let alpha = noise(1, 300 + seed)[0];
                pin_both_tiers(|| {
                    let mut y = y0.clone();
                    axpy(alpha, &x, &mut y);
                    y
                });
            }
        }
    }

    #[test]
    fn sub_scaled_pins_zero_ulp_across_shapes() {
        for len in PIN_LENS {
            let x = specials(len, 41);
            let y0 = specials(len, 42);
            pin_both_tiers(|| {
                let mut y = y0.clone();
                sub_scaled(0.73, &x, &mut y);
                y
            });
        }
    }

    #[test]
    fn div_by_pins_zero_ulp_across_shapes() {
        for len in PIN_LENS {
            let x = specials(len, 51);
            for divisor in [0.3127, -0.0, 5e-324] {
                pin_both_tiers(|| {
                    let mut out = vec![0.0; len];
                    div_by(&x, divisor, &mut out);
                    out
                });
            }
        }
    }

    #[test]
    fn lane_reductions_match_vector_reference() {
        let rows = 37;
        let k = 5;
        let a = noise(rows * k, 81);
        let b = noise(rows * k, 82);
        for lane in 0..k {
            let la: Vec<f64> = (0..rows).map(|i| a[i * k + lane]).collect();
            let lb: Vec<f64> = (0..rows).map(|i| b[i * k + lane]).collect();
            assert_eq!(
                norm1_lane(&a, k, lane, rows).to_bits(),
                crate::vector::norm1(&la).to_bits()
            );
            assert_eq!(
                norm2_lane(&a, k, lane, rows).to_bits(),
                crate::vector::norm2(&la).to_bits()
            );
            assert_eq!(
                dist2_lane(&a, &b, k, lane, rows).to_bits(),
                crate::vector::dist2(&la, &lb).to_bits()
            );
            assert_eq!(
                dist2_lane_vs(&a, &lb, k, lane).to_bits(),
                crate::vector::dist2(&la, &lb).to_bits()
            );
        }
    }

    #[test]
    fn norm_lanes_handle_nan_and_zero_like_vector() {
        let k = 2;
        for pattern in [vec![0.0, 0.0, -0.0, 0.0], vec![f64::NAN, 1.0, 2.0, 3.0]] {
            let lane: Vec<f64> = pattern.iter().step_by(k).copied().collect();
            let n_panel = norm2_lane(&pattern, k, 0, lane.len());
            let n_ref = crate::vector::norm2(&lane);
            assert_eq!(n_panel.to_bits(), n_ref.to_bits());
        }
    }

    #[test]
    fn gather_scatter_roundtrip_and_drop_lane() {
        let rows = 6;
        let k = 4;
        let panel0 = noise(rows * k, 91);
        let mut panel = panel0.clone();
        let mut lane_vec = vec![0.0; rows];
        gather_lane(&panel, k, 2, &mut lane_vec);
        scatter_lane(&lane_vec, k, 2, &mut panel);
        assert_eq!(panel, panel0);

        drop_lane(&mut panel, k, 1, rows);
        for i in 0..rows {
            let mut survivors = Vec::new();
            for l in 0..k {
                if l != 1 {
                    survivors.push(panel0[i * k + l]);
                }
            }
            for (l, want) in survivors.iter().enumerate() {
                assert_eq!(panel[i * (k - 1) + l].to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn serial_lanes_cover_exactly_the_lanes_past_the_vectors() {
        // A kernel mapping 3 inputs to 2 outputs: (a + b, c − a).
        let kernel = |x: &[f64], y: &mut [f64], _: &mut [f64]| {
            y[0] = x[0] + x[1];
            y[1] = x[2] - x[0];
        };
        for k in 1..=9 {
            let first = vector_lanes(k);
            assert_eq!(first % 4, 0);
            assert!(k - first < 4);
            let input = noise(3 * k, 17 + k as u64);
            let mut out = vec![f64::NAN; 2 * k];
            let mut scratch = vec![0.0; if k == 1 { 0 } else { 5 }];
            serial_lanes(&input, k, first, &mut out, &mut scratch, kernel);
            for lane in 0..k {
                let (a, b, c) = (input[lane], input[k + lane], input[2 * k + lane]);
                let (y0, y1) = (out[lane], out[k + lane]);
                if lane < first {
                    assert!(y0.is_nan() && y1.is_nan(), "k{k} lane{lane} touched");
                } else {
                    assert_eq!(y0.to_bits(), (a + b).to_bits(), "k{k} lane{lane}");
                    assert_eq!(y1.to_bits(), (c - a).to_bits(), "k{k} lane{lane}");
                }
            }
        }
    }

    #[test]
    fn force_scalar_override_disables_simd() {
        let _guard = tier_lock();
        set_override(Some(false));
        assert!(!simd_enabled());
        set_override(None);
    }
}
