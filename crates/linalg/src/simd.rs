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
//! per output element) or a **lane reduction** whose vectors span lanes,
//! never the rows of one lane's fold: IEEE-754 arithmetic is
//! deterministic per element, and rustc never contracts `a*b + c` into an
//! FMA nor reassociates float arithmetic, so vectorizing across elements
//! or lanes cannot change any bit.
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
//! # Lane reductions
//!
//! [`norm1_lanes`], [`norm2_lanes`] and [`dist2_lanes`] fold every lane of
//! a column-major panel in one pass: row by row, lane `l` adds its term to
//! its own accumulator `out[l]`, with the operations and order of the
//! [`vector`](crate::vector) fold. One strict-order float fold is a single
//! dependency chain that no compiler vectorizes without reassociating it;
//! the K folds of a panel are independent chains, so the row loop
//! vectorizes across lanes and each vector slot carries one lane's chain.
//! They are hot: the lockstep PDHG body takes every lane's ℓ₁ norm each
//! iteration for its observers (the gateway's solver watchdog is always
//! active), and the distance and norm at every convergence check. A
//! one-lane panel is a contiguous vector, so it runs the `vector` fold
//! itself: the panel loop, one lane wide, would carry its sum through
//! memory from row to row.

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

// -- lane reductions ---------------------------------------------------------
//
// Each folds every lane of a column-major panel at once: row by row, lane
// `l` accumulates into `out[l]` with the operations of its `crate::vector`
// fold, in row order (see "Lane reductions" above).

/// Lane count of a panel reduction writing `out`, checking the shape.
fn lanes_of(panel_len: usize, out: &[f64], what: &str) -> usize {
    let k = out.len();
    assert!(k > 0, "{what}: no lanes");
    assert_eq!(panel_len % k, 0, "{what}: panel not a multiple of k");
    k
}

/// [`vector::norm1`](crate::vector::norm1) of every lane: `out[l]` is the
/// ℓ₁ norm of lane `l` of the `out.len()`-wide panel `panel`, bit for bit
/// on either tier.
///
/// # Panics
///
/// Panics if `out` is empty or `panel.len()` is not a multiple of
/// `out.len()`.
pub fn norm1_lanes(panel: &[f64], out: &mut [f64]) {
    let k = lanes_of(panel.len(), out, "norm1_lanes");
    if k == 1 {
        out[0] = crate::vector::norm1(panel);
        return;
    }
    // `-0.0` is the identity `Sum` folds from, as `vector::norm1` does.
    out.fill(-0.0);
    on_tier(simd_enabled(), || {
        for row in panel.chunks_exact(k) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v.abs();
            }
        }
    });
}

/// [`vector::norm2`](crate::vector::norm2) of every lane, with its
/// overflow-safe scaling: `out[l]` is lane `l`'s norm, and `max` (one
/// slot per lane) is scratch for the lanes' largest magnitudes. A lane
/// whose maximum is zero or not finite takes the reference's early
/// return; every other lane folds its scaled squares, so each lane's bits
/// are the reference's on either tier.
///
/// # Panics
///
/// Panics if `out` is empty, `max.len() != out.len()`, or `panel.len()`
/// is not a multiple of `out.len()`.
pub fn norm2_lanes(panel: &[f64], max: &mut [f64], out: &mut [f64]) {
    let k = lanes_of(panel.len(), out, "norm2_lanes");
    assert_eq!(max.len(), k, "norm2_lanes: max length mismatch");
    if k == 1 {
        out[0] = crate::vector::norm2(panel);
        return;
    }
    max.fill(0.0);
    out.fill(-0.0);
    on_tier(simd_enabled(), || {
        for row in panel.chunks_exact(k) {
            for (m, &v) in max.iter_mut().zip(row) {
                *m = m.max(v.abs());
            }
        }
        for row in panel.chunks_exact(k) {
            for ((o, &m), &v) in out.iter_mut().zip(&*max).zip(row) {
                *o += (v / m) * (v / m);
            }
        }
    });
    for (o, &m) in out.iter_mut().zip(&*max) {
        *o = if m == 0.0 || !m.is_finite() {
            if m.is_nan() {
                f64::NAN
            } else {
                m
            }
        } else {
            m * o.sqrt()
        };
    }
}

/// [`vector::dist2`](crate::vector::dist2) between the same lanes of two
/// panels: `out[l] = ‖a_l − b_l‖₂`, bit for bit on either tier.
///
/// # Panics
///
/// Panics if `out` is empty, `a.len() != b.len()`, or `a.len()` is not a
/// multiple of `out.len()`.
pub fn dist2_lanes(a: &[f64], b: &[f64], out: &mut [f64]) {
    let k = lanes_of(a.len(), out, "dist2_lanes");
    assert_eq!(a.len(), b.len(), "dist2_lanes: length mismatch");
    if k == 1 {
        out[0] = crate::vector::dist2(a, b);
        return;
    }
    out.fill(0.0);
    on_tier(simd_enabled(), || {
        for (ra, rb) in a.chunks_exact(k).zip(b.chunks_exact(k)) {
            for ((o, &va), &vb) in out.iter_mut().zip(ra).zip(rb) {
                let d = va - vb;
                *o += d * d;
            }
        }
    });
    for o in out.iter_mut() {
        *o = o.sqrt();
    }
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

/// A lane-panel kernel that folds one block at a time: `R` outputs
/// (panel rows) × `V` four-lane vectors, every output lane held in its
/// own accumulator from the first term of its fold to its one store.
/// The `R·V` vector chains of a block are independent, so the adds of
/// one overlap the latency of the others; [`lane_blocks`] picks the
/// blocks.
pub trait LaneBlock {
    /// Folds outputs `first..first + R` over lanes `lane..lane + 4·V`.
    fn block<const R: usize, const V: usize>(&mut self, first: usize, lane: usize);
}

/// Covers `outputs` × the first `lanes` lanes (a multiple of four) with
/// `kernel`'s blocks: `R` outputs per pass (any left over run one at a
/// time), lanes sixteen at a time (four vectors), then one block of the
/// 4, 8 or 12 lanes left over. Blocks partition the panel, so each
/// output lane is folded exactly once.
///
/// # Panics
///
/// Panics if `R == 0`.
pub fn lane_blocks<const R: usize>(kernel: &mut impl LaneBlock, outputs: usize, lanes: usize) {
    fn row_blocks<const R: usize>(kernel: &mut impl LaneBlock, first: usize, lanes: usize) {
        let mut lane = 0;
        while lane + 16 <= lanes {
            kernel.block::<R, 4>(first, lane);
            lane += 16;
        }
        match (lanes - lane) / 4 {
            0 => {}
            1 => kernel.block::<R, 1>(first, lane),
            2 => kernel.block::<R, 2>(first, lane),
            _ => kernel.block::<R, 3>(first, lane),
        }
    }
    assert!(R > 0, "lane_blocks: zero outputs per pass");
    let mut first = 0;
    while first + R <= outputs {
        row_blocks::<R>(kernel, first, lanes);
        first += R;
    }
    while first < outputs {
        row_blocks::<1>(kernel, first, lanes);
        first += 1;
    }
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

    /// Panel widths the lane pins sweep: every width up to two 4-wide
    /// vectors plus one, the gateway's width 16, and one past 16 and 32.
    const PIN_WIDTHS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 33];

    /// Panel heights the lane pins sweep: one row, a few, the measurement
    /// count and the window length of the paper's operating point.
    const PIN_ROWS: [usize; 4] = [1, 5, 96, 512];

    /// A `rows × k` panel whose every lane mixes ±0, subnormals, huge,
    /// tiny and ordinary values. Lane `l` is also shaped by `(l + seed) %
    /// 6`: 0 and 1 stay finite, 2 carries one NaN, 3 one +∞ and one −∞
    /// (when it has two rows), 4 is all ±0, and 5 is ±0 with one NaN. A
    /// lane never holds two different NaNs, which IEEE-754 lets either
    /// propagate through a commutative add.
    fn lane_panel(rows: usize, k: usize, seed: u64) -> Vec<f64> {
        let mut panel = noise(rows * k, seed);
        for (i, row) in panel.chunks_exact_mut(k).enumerate() {
            for (l, v) in row.iter_mut().enumerate() {
                match ((l + seed as usize) % 6, (i + l) % 5) {
                    (4 | 5, _) => *v = if (i + l) % 2 == 0 { 0.0 } else { -0.0 },
                    (_, 3) => *v *= f64::MIN_POSITIVE,
                    _ => {}
                }
            }
        }
        for l in 0..k {
            let at = |r: usize| (r % rows) * k + l;
            match (l + seed as usize) % 6 {
                2 | 5 => panel[at(3 * l + 1)] = f64::NAN,
                3 => {
                    panel[at(l)] = f64::INFINITY;
                    if rows > 1 {
                        panel[at(l + 1)] = f64::NEG_INFINITY;
                    }
                }
                _ => {}
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
        let _guard = tier_lock();
        set_override(Some(false));
        body("scalar");
        if simd_available() {
            set_override(Some(true));
            body("avx2");
        }
        set_override(None);
    }

    #[test]
    fn lane_reductions_match_vector_reference_on_both_tiers() {
        on_each_tier(|tier| {
            for k in PIN_WIDTHS {
                for rows in PIN_ROWS {
                    let seed = (rows * 64 + k) as u64;
                    let a = lane_panel(rows, k, seed);
                    // `b` is finite: a lane of `a − b` then meets at most
                    // one kind of NaN, as in `lane_panel`.
                    let b = noise(rows * k, seed + 1);
                    let mut norm1 = vec![f64::NAN; k];
                    let (mut max, mut norm2) = (vec![f64::NAN; k], vec![f64::NAN; k]);
                    let mut dist = vec![f64::NAN; k];
                    norm1_lanes(&a, &mut norm1);
                    norm2_lanes(&a, &mut max, &mut norm2);
                    dist2_lanes(&a, &b, &mut dist);
                    for lane in 0..k {
                        let (la, lb) = (lane_of(&a, k, lane), lane_of(&b, k, lane));
                        let at = format!("{tier} k{k} rows{rows} lane{lane}");
                        let norm1_ref = crate::vector::norm1(&la);
                        let norm2_ref = crate::vector::norm2(&la);
                        let dist_ref = crate::vector::dist2(&la, &lb);
                        assert_eq!(norm1[lane].to_bits(), norm1_ref.to_bits(), "norm1 {at}");
                        assert_eq!(norm2[lane].to_bits(), norm2_ref.to_bits(), "norm2 {at}");
                        assert_eq!(dist[lane].to_bits(), dist_ref.to_bits(), "dist2 {at}");
                    }
                }
            }
        });
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
