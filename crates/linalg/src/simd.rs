//! Runtime-dispatched SIMD tiers for the batched decode path.
//!
//! Each element-wise kernel here is written once, as its safe scalar loop,
//! and [`on_tier`] runs that one body on the tier [`active_tier`] picks:
//! directly (the scalar tier, compiled for the crate's baseline target),
//! or inlined into a frame compiled with
//! `#[target_feature(enable = "avx2")]` or `"avx512f"`, where LLVM
//! vectorizes the same loop 256 or 512 bits wide. The contract is
//! **0 ULP**: for any input, every tier produces bit-identical output.
//! That holds because every dispatched kernel is **element-wise** (one
//! multiply/add/divide per output element) or a **lane reduction** whose
//! vectors span lanes, never the rows of one lane's fold: IEEE-754
//! arithmetic is deterministic per element, and rustc never contracts
//! `a*b + c` into an FMA nor reassociates float arithmetic, so
//! vectorizing across elements or lanes cannot change any bit.
//!
//! The sensing and wavelet panel kernels are folds with their own block
//! structure, so they are written once against [`F64Vector`] instead: one
//! `#[inline(always)]` body per kernel, generic over the vector type,
//! which [`lane_blocks`] instantiates for `[f64; 4]` (scalar), `__m256d`
//! (AVX2) and `__m512d` (AVX-512), each in an entry compiled for its tier.
//!
//! # Dispatch policy
//!
//! Three [`Tier`]s: scalar; AVX2, which requires `avx2` **and** `fma`
//! at runtime (FMA presence implies the modern AVX2 implementations the
//! kernels are tuned for, even though the frame only enables AVX2); and
//! AVX-512, which requires `avx512f` on top (every such host has AVX2 and
//! FMA). Kernels run the widest tier the host has, [`widest_tier`].
//! Setting `HYBRIDCS_FORCE_SCALAR=1` pins the scalar tier process-wide —
//! the CI knob that keeps the fallback exercised on vector hosts.
//! [`set_override`] pins a tier in-process (benchmarks and tests sweep
//! tiers with it, and can pin AVX2 on an AVX-512 host); a pin wider than
//! the host runs the widest tier the host has instead.
//!
//! # Lane reductions
//!
//! [`norm1_lanes`], [`norm2_lanes`] and [`dist2_lanes`] fold every lane of
//! a column-major panel: row by row, lane `l` adds its term to its own
//! accumulator, with the operations and order of the
//! [`vector`](crate::vector) fold. One strict-order float fold is a single
//! dependency chain that no compiler vectorizes without reassociating it;
//! the K folds of a panel are independent chains, so the row loop
//! vectorizes across lanes and each vector slot carries one lane's chain.
//! [`for_lane_blocks!`](crate::for_lane_blocks) walks the lanes sixteen at
//! a time with each block's sums in a local array, so they stay in
//! registers from the first row to the last rather than going through
//! memory at every row. Their closures are `#[inline(always)]`: the
//! macro's five block widths make a body LLVM would otherwise leave
//! outside the frame, compiled for the baseline target. They are hot: the lockstep PDHG body takes every
//! lane's ℓ₁ norm each iteration for its observers (the gateway's solver
//! watchdog is always active), and the distance and norm at every
//! convergence check. A one-lane panel is a contiguous vector, so it runs
//! the `vector` fold itself.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Environment variable pinning the scalar tier process-wide.
pub const FORCE_SCALAR_ENV: &str = "HYBRIDCS_FORCE_SCALAR";

/// A dispatch tier, ordered by vector width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tier {
    /// The crate's baseline target, no `target_feature` frame.
    Scalar,
    /// AVX2 + FMA hosts: kernels compiled with AVX2 enabled, 256 bits wide.
    Avx2,
    /// AVX-512F hosts: kernels compiled with `avx512f` enabled, 512 bits
    /// wide.
    Avx512,
}

impl Tier {
    /// Every tier, narrowest first.
    pub const ALL: [Tier; 3] = [Tier::Scalar, Tier::Avx2, Tier::Avx512];

    /// Stable lower-case name (`"scalar"`, `"avx2"`, `"avx512"`) for
    /// reports and benchmark rows.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            Tier::Avx2 => "avx2",
            Tier::Avx512 => "avx512",
        }
    }

    /// Whether this host can run the tier.
    #[must_use]
    pub fn available(self) -> bool {
        self <= widest_tier()
    }
}

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

/// The widest tier this host supports (independent of env/override):
/// AVX-512 when it has `avx512f` besides AVX2 and FMA, AVX2 with those
/// two alone, scalar otherwise.
#[must_use]
pub fn widest_tier() -> Tier {
    #[cfg(target_arch = "x86_64")]
    {
        static WIDEST: OnceLock<Tier> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            if !simd_available() {
                Tier::Scalar
            } else if is_x86_feature_detected!("avx512f") {
                Tier::Avx512
            } else {
                Tier::Avx2
            }
        })
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Tier::Scalar
    }
}

/// The tiers this host can run, narrowest first.
pub fn available_tiers() -> impl Iterator<Item = Tier> {
    Tier::ALL.into_iter().filter(|t| t.available())
}

/// `0` follows env/hardware; `1 + i` pins `Tier::ALL[i]` (capped at the
/// host's widest tier).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The tier kernels dispatch to right now: [`widest_tier`], unless the
/// `HYBRIDCS_FORCE_SCALAR=1` environment pin or an in-process
/// [`set_override`] narrows it. Every tier is bit-identical; this only
/// selects which instructions produce those bits.
#[must_use]
pub fn active_tier() -> Tier {
    match OVERRIDE.load(Ordering::Relaxed) {
        0 => {
            static ENV_DEFAULT: OnceLock<Tier> = OnceLock::new();
            *ENV_DEFAULT.get_or_init(|| {
                let forced_scalar =
                    std::env::var(FORCE_SCALAR_ENV).is_ok_and(|v| v == "1" || v == "true");
                if forced_scalar {
                    Tier::Scalar
                } else {
                    widest_tier()
                }
            })
        }
        code => Tier::ALL[usize::from(code) - 1].min(widest_tier()),
    }
}

/// Whether kernels dispatch to a vector tier (AVX2 or AVX-512) right now:
/// [`active_tier`] is not [`Tier::Scalar`].
#[must_use]
pub fn simd_enabled() -> bool {
    active_tier() != Tier::Scalar
}

/// In-process tier pin: `Some(tier)` runs `tier`, or the widest tier the
/// host has if `tier` is wider; `None` restores the environment/hardware
/// default. Benchmarks sweep tiers with it, and tests pin tiers with it
/// under a lock (it is process-global state).
pub fn set_override(tier: Option<Tier>) {
    let code = tier.map_or(0, |t| 1 + t as u8);
    OVERRIDE.store(code, Ordering::Relaxed);
}

/// Runs `kernel` on `tier` (capped at the host's widest tier). Every tier
/// executes the same source: a vector tier inlines `kernel` into a frame
/// compiled with `#[target_feature(enable = "avx2")]` or `"avx512f"`, so
/// an element-wise loop in it vectorizes 256 or 512 bits wide and rounds
/// exactly like the scalar tier. Kernels pass [`active_tier`] as `tier`.
#[allow(unsafe_code)]
#[inline]
pub fn on_tier<R>(tier: Tier, kernel: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    match tier.min(widest_tier()) {
        // SAFETY: `widest_tier` detected each frame's features on this
        // host at runtime, the one precondition of calling the frame.
        Tier::Avx512 => return unsafe { avx512_frame(kernel) },
        Tier::Avx2 => return unsafe { avx2_frame(kernel) },
        Tier::Scalar => {}
    }
    let _ = tier;
    kernel()
}

/// The AVX2 frame of [`on_tier`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn avx2_frame<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// The AVX-512 frame of [`on_tier`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn avx512_frame<R>(kernel: impl FnOnce() -> R) -> R {
    kernel()
}

/// `y += alpha * x`, element-wise — bit-identical to
/// [`vector::axpy`](crate::vector::axpy) for any `alpha` on every tier.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    on_tier(active_tier(), || {
        for (yi, &xi) in y.iter_mut().zip(x) {
            *yi += alpha * xi;
        }
    });
}

// -- lane reductions ---------------------------------------------------------
//
// Each folds every lane of a column-major panel: row by row, lane `l`
// accumulates with the operations of its `crate::vector` fold, in row
// order, its sum held in a block-local array (see "Lane reductions"
// above).

/// Runs `$body` once per block of a `$k`-lane panel's lanes, with `$lane`
/// the block's first lane and `$w` a `const` holding its width: sixteen
/// lanes at a time, then four, then the one to three left. A body that
/// folds its block's lanes into a `[f64; $w]` keeps those sums in
/// registers across every row, where one loop over all `k` lanes of a
/// row would carry them through memory from row to row. Blocks partition
/// the lanes, so each lane is folded once, in row order.
#[macro_export]
macro_rules! for_lane_blocks {
    ($k:expr, |$lane:ident, $w:ident| $body:block) => {{
        let k: usize = $k;
        let mut first = 0;
        while first + 16 <= k {
            const $w: usize = 16;
            let $lane = first;
            $body
            first += 16;
        }
        while first + 4 <= k {
            const $w: usize = 4;
            let $lane = first;
            $body
            first += 4;
        }
        match k - first {
            0 => {}
            1 => {
                const $w: usize = 1;
                let $lane = first;
                $body
            }
            2 => {
                const $w: usize = 2;
                let $lane = first;
                $body
            }
            _ => {
                const $w: usize = 3;
                let $lane = first;
                $body
            }
        }
    }};
}

/// Lane count of a panel reduction writing `out`, checking the shape.
fn lanes_of(panel_len: usize, out: &[f64], what: &str) -> usize {
    let k = out.len();
    assert!(k > 0, "{what}: no lanes");
    assert_eq!(panel_len % k, 0, "{what}: panel not a multiple of k");
    k
}

/// [`vector::norm1`](crate::vector::norm1) of every lane: `out[l]` is the
/// ℓ₁ norm of lane `l` of the `out.len()`-wide panel `panel`, bit for bit
/// on every tier.
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
    on_tier(
        active_tier(),
        #[inline(always)]
        || {
            for_lane_blocks!(k, |lane, W| {
                // `-0.0` is the identity `Sum` folds from, as `vector::norm1` does.
                let mut sum = [-0.0f64; W];
                for row in panel.chunks_exact(k) {
                    for (s, &v) in sum.iter_mut().zip(&row[lane..lane + W]) {
                        *s += v.abs();
                    }
                }
                out[lane..lane + W].copy_from_slice(&sum);
            });
        },
    );
}

/// [`vector::norm2`](crate::vector::norm2) of every lane, with its
/// overflow-safe scaling: `out[l]` is lane `l`'s norm, and `max` (one
/// slot per lane) is scratch for the lanes' largest magnitudes. A lane
/// whose maximum is zero or not finite takes the reference's early
/// return; every other lane folds its scaled squares, so each lane's bits
/// are the reference's on every tier.
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
    on_tier(
        active_tier(),
        #[inline(always)]
        || {
            for_lane_blocks!(k, |lane, W| {
                let mut top = [0.0f64; W];
                for row in panel.chunks_exact(k) {
                    for (m, &v) in top.iter_mut().zip(&row[lane..lane + W]) {
                        *m = m.max(v.abs());
                    }
                }
                let mut sum = [-0.0f64; W];
                for row in panel.chunks_exact(k) {
                    for ((s, &m), &v) in sum.iter_mut().zip(&top).zip(&row[lane..lane + W]) {
                        *s += (v / m) * (v / m);
                    }
                }
                max[lane..lane + W].copy_from_slice(&top);
                out[lane..lane + W].copy_from_slice(&sum);
            });
        },
    );
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
/// panels: `out[l] = ‖a_l − b_l‖₂`, bit for bit on every tier.
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
    on_tier(
        active_tier(),
        #[inline(always)]
        || {
            for_lane_blocks!(k, |lane, W| {
                let mut sum = [0.0f64; W];
                for (ra, rb) in a.chunks_exact(k).zip(b.chunks_exact(k)) {
                    let terms = ra[lane..lane + W].iter().zip(&rb[lane..lane + W]);
                    for (s, (&va, &vb)) in sum.iter_mut().zip(terms) {
                        let d = va - vb;
                        *s += d * d;
                    }
                }
                out[lane..lane + W].copy_from_slice(&sum);
            });
        },
    );
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

// -- width-generic panel kernels ---------------------------------------------

/// A vector of `f64` lanes that a width-generic panel kernel computes
/// with: `[f64; 4]` on the scalar tier, `__m256d` on AVX2, `__m512d` on
/// AVX-512. Every operation is element-wise IEEE-754 arithmetic (or an
/// exact sign flip), so one kernel body gives the same bits at every
/// width.
///
/// The methods are `unsafe`: a SIMD type's instructions need its tier's
/// CPU features, and `load`/`store` take raw pointers. [`lane_blocks`]
/// calls a [`LaneBlock`] body with each type only inside an entry
/// compiled for that type's tier, after runtime detection.
#[allow(unsafe_code)]
pub trait F64Vector: Copy {
    /// Lanes per vector.
    const LANES: usize;

    /// All lanes `+0.0`.
    ///
    /// # Safety
    ///
    /// The host must support the type's tier.
    unsafe fn zero() -> Self;

    /// All lanes `v`.
    ///
    /// # Safety
    ///
    /// The host must support the type's tier.
    unsafe fn splat(v: f64) -> Self;

    /// Reads [`F64Vector::LANES`] values from `p` (no alignment needed).
    ///
    /// # Safety
    ///
    /// The host must support the type's tier, and `p` must be valid for
    /// reading `LANES` `f64`s.
    unsafe fn load(p: *const f64) -> Self;

    /// Writes the lanes to `p` (no alignment needed).
    ///
    /// # Safety
    ///
    /// The host must support the type's tier, and `p` must be valid for
    /// writing `LANES` `f64`s.
    unsafe fn store(self, p: *mut f64);

    /// Lane-wise `self + rhs`.
    ///
    /// # Safety
    ///
    /// The host must support the type's tier.
    unsafe fn add(self, rhs: Self) -> Self;

    /// Lane-wise `self * rhs`.
    ///
    /// # Safety
    ///
    /// The host must support the type's tier.
    unsafe fn mul(self, rhs: Self) -> Self;

    /// Lane-wise `-self`: the sign bit flipped, exactly like scalar
    /// negation.
    ///
    /// # Safety
    ///
    /// The host must support the type's tier.
    unsafe fn neg(self) -> Self;
}

/// The scalar tier's vector: four lanes, element by element.
#[allow(unsafe_code)]
impl F64Vector for [f64; 4] {
    const LANES: usize = 4;

    #[inline(always)]
    unsafe fn zero() -> Self {
        [0.0; 4]
    }

    #[inline(always)]
    unsafe fn splat(v: f64) -> Self {
        [v; 4]
    }

    #[inline(always)]
    unsafe fn load(p: *const f64) -> Self {
        // SAFETY: the caller guarantees `p` is valid for four reads.
        unsafe { p.cast::<[f64; 4]>().read_unaligned() }
    }

    #[inline(always)]
    unsafe fn store(self, p: *mut f64) {
        // SAFETY: the caller guarantees `p` is valid for four writes.
        unsafe { p.cast::<[f64; 4]>().write_unaligned(self) }
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        std::array::from_fn(|i| self[i] + rhs[i])
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        std::array::from_fn(|i| self[i] * rhs[i])
    }

    #[inline(always)]
    unsafe fn neg(self) -> Self {
        self.map(|v| -v)
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use super::F64Vector;
    use std::arch::x86_64::{
        __m256d, __m512d, _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd,
        _mm256_setzero_pd, _mm256_storeu_pd, _mm256_xor_pd, _mm512_add_pd, _mm512_castpd_si512,
        _mm512_castsi512_pd, _mm512_loadu_pd, _mm512_mul_pd, _mm512_set1_epi64, _mm512_set1_pd,
        _mm512_setzero_pd, _mm512_storeu_pd, _mm512_xor_si512,
    };

    // SAFETY (every method below): the caller guarantees the tier's CPU
    // features (AVX for `__m256d`, AVX-512F for `__m512d`) and, for
    // `load`/`store`, a pointer valid for `LANES` elements.

    impl F64Vector for __m256d {
        const LANES: usize = 4;

        #[inline(always)]
        unsafe fn zero() -> Self {
            unsafe { _mm256_setzero_pd() }
        }

        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            unsafe { _mm256_set1_pd(v) }
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            unsafe { _mm256_loadu_pd(p) }
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { _mm256_storeu_pd(p, self) }
        }

        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            unsafe { _mm256_add_pd(self, rhs) }
        }

        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            unsafe { _mm256_mul_pd(self, rhs) }
        }

        #[inline(always)]
        unsafe fn neg(self) -> Self {
            unsafe { _mm256_xor_pd(self, _mm256_set1_pd(-0.0)) }
        }
    }

    impl F64Vector for __m512d {
        const LANES: usize = 8;

        #[inline(always)]
        unsafe fn zero() -> Self {
            unsafe { _mm512_setzero_pd() }
        }

        #[inline(always)]
        unsafe fn splat(v: f64) -> Self {
            unsafe { _mm512_set1_pd(v) }
        }

        #[inline(always)]
        unsafe fn load(p: *const f64) -> Self {
            unsafe { _mm512_loadu_pd(p) }
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            unsafe { _mm512_storeu_pd(p, self) }
        }

        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            unsafe { _mm512_add_pd(self, rhs) }
        }

        #[inline(always)]
        unsafe fn mul(self, rhs: Self) -> Self {
            unsafe { _mm512_mul_pd(self, rhs) }
        }

        /// The sign-bit xor goes through the integer cast: `avx512f`
        /// alone has `_mm512_xor_si512`, while `_mm512_xor_pd` needs
        /// `avx512dq`.
        #[inline(always)]
        unsafe fn neg(self) -> Self {
            unsafe {
                let sign = _mm512_set1_epi64(i64::MIN);
                _mm512_castsi512_pd(_mm512_xor_si512(_mm512_castpd_si512(self), sign))
            }
        }
    }
}

/// A lane-panel kernel written once, generic over the vector type: a
/// block folds `R` outputs (panel rows) × `V` vectors of
/// [`F64Vector::LANES`] lanes, every output lane held in its own
/// accumulator from the first term of its fold to its one store. The
/// `R·V` vector chains of a block are independent, so the adds of one
/// overlap the latency of the others. [`lane_blocks`] picks the blocks
/// and the vector type.
#[allow(unsafe_code)]
pub trait LaneBlock {
    /// Folds outputs `first..first + R` over lanes
    /// `lane..lane + V·T::LANES`. Implementations are
    /// `#[inline(always)]`, so each tier's entry compiles the body with
    /// its own instructions, and check their block's bounds.
    ///
    /// # Safety
    ///
    /// The host must support `T`'s tier; [`lane_blocks`] calls it only
    /// from an entry compiled for that tier, after runtime detection.
    unsafe fn block<T: F64Vector, const R: usize, const V: usize>(
        &mut self,
        first: usize,
        lane: usize,
    );
}

/// Folds every output of one lane block with vector type `T`: `R` at a
/// time, then the rest one at a time. Inlined into each tier's entry, so
/// one entry call covers a lane block's whole column of outputs.
///
/// # Safety
///
/// The host must support `T`'s tier.
#[allow(unsafe_code)]
#[inline(always)]
unsafe fn fold_outputs<T: F64Vector, K: LaneBlock, const R: usize, const V: usize>(
    kernel: &mut K,
    outputs: usize,
    lane: usize,
) {
    let mut first = 0;
    // SAFETY (both loops): the caller guarantees `T`'s tier.
    while first + R <= outputs {
        unsafe { kernel.block::<T, R, V>(first, lane) };
        first += R;
    }
    while first < outputs {
        unsafe { kernel.block::<T, 1, V>(first, lane) };
        first += 1;
    }
}

/// The scalar tier's entry: four-lane arrays.
#[allow(unsafe_code)]
fn block_scalar<K: LaneBlock, const R: usize, const V: usize>(
    kernel: &mut K,
    outputs: usize,
    lane: usize,
) {
    // SAFETY: `[f64; 4]` runs on every host.
    unsafe { fold_outputs::<[f64; 4], K, R, V>(kernel, outputs, lane) }
}

/// The AVX2 tier's entry: `V` `__m256d` per output.
///
/// # Safety
///
/// The host must have AVX2.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx2")]
unsafe fn block_avx2<K: LaneBlock, const R: usize, const V: usize>(
    kernel: &mut K,
    outputs: usize,
    lane: usize,
) {
    // SAFETY: this entry's caller detected AVX2.
    unsafe { fold_outputs::<std::arch::x86_64::__m256d, K, R, V>(kernel, outputs, lane) }
}

/// The AVX-512 tier's entry: `V` `__m512d` per output.
///
/// # Safety
///
/// The host must have AVX-512F.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
#[target_feature(enable = "avx512f")]
unsafe fn block_avx512<K: LaneBlock, const R: usize, const V: usize>(
    kernel: &mut K,
    outputs: usize,
    lane: usize,
) {
    // SAFETY: this entry's caller detected AVX-512F.
    unsafe { fold_outputs::<std::arch::x86_64::__m512d, K, R, V>(kernel, outputs, lane) }
}

/// Covers `outputs` × the first `lanes` lanes (a multiple of four) with
/// `kernel`'s blocks on `tier` (capped at the host's widest tier): lanes
/// sixteen at a time, then one block of the 4, 8 or 12 lanes left over,
/// each lane block folding its outputs `R` at a time (any left over one
/// at a time) inside one call of its tier's entry. On the scalar and
/// AVX2 tiers a block is `4·V` lanes in `V` four-lane vectors. On
/// AVX-512 sixteen lanes are two `__m512d`, eight are one, and a
/// four-lane rest runs the AVX2 body. Blocks partition the panel, so each
/// output lane is folded exactly once. Callers choose `R` per tier: twice
/// the outputs per block on AVX-512, whose 32 registers hold twice the
/// chains of AVX2's 16.
///
/// # Panics
///
/// Panics if `R == 0` or `lanes` is not a multiple of four.
#[allow(unsafe_code)]
pub fn lane_blocks<const R: usize>(
    kernel: &mut impl LaneBlock,
    tier: Tier,
    outputs: usize,
    lanes: usize,
) {
    assert!(R > 0, "lane_blocks: zero outputs per pass");
    assert!(
        lanes.is_multiple_of(4),
        "lane_blocks: lanes not whole vectors"
    );
    let rest = lanes % 16;
    let whole = lanes - rest;
    #[cfg(target_arch = "x86_64")]
    match tier.min(widest_tier()) {
        // SAFETY (both arms): `widest_tier` detected the entries'
        // features at runtime, and AVX-512 hosts have AVX2 too.
        Tier::Avx512 => unsafe {
            for lane in (0..whole).step_by(16) {
                block_avx512::<_, R, 2>(kernel, outputs, lane);
            }
            if rest >= 8 {
                block_avx512::<_, R, 1>(kernel, outputs, whole);
            }
            if rest % 8 == 4 {
                block_avx2::<_, R, 1>(kernel, outputs, lanes - 4);
            }
            return;
        },
        Tier::Avx2 => unsafe {
            for lane in (0..whole).step_by(16) {
                block_avx2::<_, R, 4>(kernel, outputs, lane);
            }
            match rest / 4 {
                0 => {}
                1 => block_avx2::<_, R, 1>(kernel, outputs, whole),
                2 => block_avx2::<_, R, 2>(kernel, outputs, whole),
                _ => block_avx2::<_, R, 3>(kernel, outputs, whole),
            }
            return;
        },
        Tier::Scalar => {}
    }
    let _ = tier;
    for lane in (0..whole).step_by(16) {
        block_scalar::<_, R, 4>(kernel, outputs, lane);
    }
    match rest / 4 {
        0 => {}
        1 => block_scalar::<_, R, 1>(kernel, outputs, whole),
        2 => block_scalar::<_, R, 2>(kernel, outputs, whole),
        _ => block_scalar::<_, R, 3>(kernel, outputs, whole),
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

    /// Runs `f` under every tier the host has and asserts each result is
    /// bit-identical to the scalar tier's, naming the tier that diverged.
    /// Restores the default tier.
    fn pin_every_tier(mut f: impl FnMut() -> Vec<f64>) {
        let _guard = tier_lock();
        set_override(Some(Tier::Scalar));
        let scalar_bits: Vec<u64> = f().iter().map(|v| v.to_bits()).collect();
        for tier in available_tiers().skip(1) {
            set_override(Some(tier));
            let bits: Vec<u64> = f().iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                scalar_bits,
                bits,
                "{} tier diverged from scalar",
                tier.name()
            );
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
                pin_every_tier(|| {
                    let mut y = y0.clone();
                    axpy(alpha, &x, &mut y);
                    y
                });
            }
        }
    }

    /// Panel widths the lane pins sweep: every width up to two 4-wide
    /// vectors plus one, twelve, the gateway's width 16, and widths past
    /// 16 and 32 that end in blocks of one, three and four lanes.
    const PIN_WIDTHS: [usize; 15] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 19, 24, 33];

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

    /// Runs `body(tier)` with each tier the host has pinned in turn.
    /// Restores the default tier.
    fn on_each_tier(mut body: impl FnMut(&str)) {
        let _guard = tier_lock();
        for tier in available_tiers() {
            set_override(Some(tier));
            body(tier.name());
        }
        set_override(None);
    }

    #[test]
    fn lane_reductions_match_vector_reference_on_every_tier() {
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
        set_override(Some(Tier::Scalar));
        assert!(!simd_enabled());
        assert_eq!(active_tier(), Tier::Scalar);
        set_override(None);
    }

    /// A pin runs the pinned tier, capped at the host's widest: pinning
    /// AVX2 on an AVX-512 host dispatches AVX2, and a pin the host lacks
    /// runs the widest tier it has.
    #[test]
    fn a_pinned_tier_is_the_dispatched_tier() {
        let _guard = tier_lock();
        for tier in Tier::ALL {
            set_override(Some(tier));
            let want = tier.min(widest_tier());
            assert_eq!(active_tier(), want, "pinned {}", tier.name());
            assert_eq!(
                simd_enabled(),
                want != Tier::Scalar,
                "pinned {}",
                tier.name()
            );
        }
        set_override(None);
        assert_eq!(simd_available(), widest_tier() >= Tier::Avx2);
    }

    /// Records every block `lane_blocks` hands out, with its vector type.
    struct Recorder(Vec<(usize, usize, usize, usize, &'static str)>);

    impl LaneBlock for Recorder {
        #[allow(unsafe_code)]
        unsafe fn block<T: F64Vector, const R: usize, const V: usize>(
            &mut self,
            first: usize,
            lane: usize,
        ) {
            let ty = std::any::type_name::<T>().rsplit("::").next().unwrap_or("");
            self.0.push((first, R, lane, V * T::LANES, ty));
        }
    }

    /// `lane_blocks` covers every (output, lane) exactly once and runs
    /// each block with its tier's vector type: `[f64; 4]` on the scalar
    /// tier, `__m256d` on AVX2 (so pinning AVX2 on an AVX-512 host runs
    /// no 512-bit block), and `__m512d` on AVX-512 except a four-lane
    /// rest, which runs the AVX2 body.
    #[test]
    fn lane_blocks_partition_the_panel_with_each_tier_s_vectors() {
        let _guard = tier_lock();
        for tier in available_tiers() {
            for lanes in [4, 8, 12, 16, 20, 24, 28, 32, 44] {
                for outputs in [1, 3, 4, 9] {
                    let mut rec = Recorder(Vec::new());
                    match tier {
                        Tier::Avx512 => lane_blocks::<4>(&mut rec, tier, outputs, lanes),
                        _ => lane_blocks::<2>(&mut rec, tier, outputs, lanes),
                    }
                    let mut seen = vec![0u8; outputs * lanes];
                    for &(first, rows, lane, width, ty) in &rec.0 {
                        let at = format!("{} lanes{lanes} outputs{outputs}", tier.name());
                        let want = match tier {
                            Tier::Scalar => "[f64; 4]",
                            Tier::Avx512 if width >= 8 => "__m512d",
                            _ => "__m256d",
                        };
                        assert_eq!(ty, want, "{at} block at lane {lane}");
                        for o in first..first + rows {
                            for l in lane..lane + width {
                                seen[o * lanes + l] += 1;
                            }
                        }
                    }
                    assert!(
                        seen.iter().all(|&c| c == 1),
                        "{} lanes{lanes} outputs{outputs}",
                        tier.name()
                    );
                }
            }
        }
    }
}
