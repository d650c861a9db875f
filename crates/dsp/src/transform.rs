use crate::{DspError, Wavelet};
use hybridcs_linalg::simd::{serial_lanes, vector_lanes};

/// Describes how [`Dwt`] lays out coefficients in its output vector.
///
/// For a length-`n` signal and `L` levels the layout is
///
/// ```text
/// [ approx(L) | detail(L) | detail(L−1) | … | detail(1) ]
///    n/2^L       n/2^L       n/2^(L−1)         n/2
/// ```
///
/// i.e. coarsest first. [`CoeffLayout`] reports the band boundaries so that
/// downstream code (sparsity statistics, band-weighted thresholds) can
/// address individual scales without re-deriving the arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoeffLayout {
    /// Signal length `n`.
    pub signal_len: usize,
    /// Decomposition depth `L`.
    pub levels: usize,
    /// Half-open coefficient ranges, coarsest band first: the approximation
    /// band followed by detail bands from level `L` down to level 1.
    pub bands: Vec<std::ops::Range<usize>>,
}

impl CoeffLayout {
    /// Range of the approximation (scaling) band.
    #[must_use]
    pub fn approx_band(&self) -> std::ops::Range<usize> {
        self.bands[0].clone()
    }

    /// Range of the detail band at `level` (1 = finest, `levels` = coarsest).
    ///
    /// # Panics
    ///
    /// Panics if `level == 0` or `level > self.levels`.
    #[must_use]
    pub fn detail_band(&self, level: usize) -> std::ops::Range<usize> {
        assert!(
            level >= 1 && level <= self.levels,
            "detail level out of range"
        );
        self.bands[1 + (self.levels - level)].clone()
    }
}

/// Multi-level periodized discrete wavelet transform with an orthonormal
/// filter bank.
///
/// Because the bank is orthonormal, the transform matrix `W = Ψᵀ` satisfies
/// `WᵀW = WWᵀ = I`: [`Dwt::inverse`] is simultaneously the inverse *and* the
/// adjoint of [`Dwt::forward`]. The sparse-recovery solvers rely on this to
/// evaluate `prox_{τ‖Ψᵀ·‖₁}(v) = Ψ soft(Ψᵀ v, τ)` with two fast transforms.
///
/// # Example
///
/// ```
/// use hybridcs_dsp::{Dwt, Wavelet};
///
/// # fn main() -> Result<(), hybridcs_dsp::DspError> {
/// let dwt = Dwt::new(Wavelet::Haar, 2)?;
/// let coeffs = dwt.forward(&[1.0, 1.0, 1.0, 1.0])?;
/// // A constant signal is captured entirely by the approximation band.
/// assert!((coeffs[0] - 2.0).abs() < 1e-12);
/// assert!(coeffs[1..].iter().all(|c| c.abs() < 1e-12));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dwt {
    wavelet: Wavelet,
    levels: usize,
}

impl Dwt {
    /// Creates a transform with the given family and decomposition depth.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::ZeroLevels`] if `levels == 0`.
    pub fn new(wavelet: Wavelet, levels: usize) -> Result<Self, DspError> {
        if levels == 0 {
            return Err(DspError::ZeroLevels);
        }
        Ok(Dwt { wavelet, levels })
    }

    /// The wavelet family in use.
    #[must_use]
    pub fn wavelet(&self) -> Wavelet {
        self.wavelet
    }

    /// Decomposition depth.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Largest decomposition depth usable for a length-`len` signal with
    /// this wavelet: every approximation band must stay at least as long as
    /// the filter, and `len` must be divisible by `2^levels`.
    #[must_use]
    pub fn max_levels(wavelet: Wavelet, len: usize) -> usize {
        let mut levels = 0;
        let mut n = len;
        while n.is_multiple_of(2) && n / 2 >= wavelet.filter_len() {
            n /= 2;
            levels += 1;
        }
        levels
    }

    /// Validates a signal length without allocating.
    ///
    /// Equivalent to calling [`Dwt::layout`] and discarding the result, but
    /// usable on the decode hot path where per-window allocations are banned.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] for unsupported lengths.
    pub fn validate_len(&self, len: usize) -> Result<(), DspError> {
        self.check_len(len)
    }

    /// Scratch length required by [`Dwt::forward_into`] and
    /// [`Dwt::inverse_into`] for signals of length `len`.
    #[must_use]
    pub fn scratch_len(len: usize) -> usize {
        len
    }

    /// Validates a signal length, returning the minimal supported length on
    /// failure.
    fn check_len(&self, len: usize) -> Result<(), DspError> {
        let div = 1usize << self.levels;
        let min_len = self.wavelet.filter_len().next_power_of_two() * (1 << (self.levels - 1));
        let coarse = len >> self.levels;
        if len == 0 || !len.is_multiple_of(div) || coarse < self.wavelet.filter_len().div_ceil(2) {
            return Err(DspError::BadLength {
                len,
                levels: self.levels,
                min_len,
            });
        }
        Ok(())
    }

    /// Coefficient layout for signals of length `len`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] for unsupported lengths.
    pub fn layout(&self, len: usize) -> Result<CoeffLayout, DspError> {
        self.check_len(len)?;
        let mut bands = Vec::with_capacity(self.levels + 1);
        let coarse = len >> self.levels;
        bands.push(0..coarse);
        let mut start = coarse;
        for level in (1..=self.levels).rev() {
            let band_len = len >> level;
            bands.push(start..start + band_len);
            start += band_len;
        }
        debug_assert_eq!(start, len);
        Ok(CoeffLayout {
            signal_len: len,
            levels: self.levels,
            bands,
        })
    }

    /// Analysis transform `Ψᵀ x` (signal → coefficients).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] when `x.len()` is not divisible by
    /// `2^levels` or a band would be shorter than the filter.
    pub fn forward(&self, x: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = vec![0.0; x.len()];
        let mut scratch = vec![0.0; Self::scratch_len(x.len())];
        self.forward_into(x, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Allocation-free analysis transform: writes `Ψᵀ x` into `out` using
    /// caller-provided `scratch` (at least [`Dwt::scratch_len`]`(x.len())`
    /// elements) for the intermediate approximation bands.
    ///
    /// Produces outputs bit-identical to [`Dwt::forward`]: the per-level
    /// filter arithmetic (`analyze_level`) is shared, only the buffer
    /// management differs. Intermediate approximations ping-pong between the
    /// two halves of `scratch` (sizes halve every level, so reader and
    /// writer regions never overlap).
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] when `x.len()` is unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != x.len()` or `scratch` is shorter than
    /// [`Dwt::scratch_len`]`(x.len())`.
    pub fn forward_into(
        &self,
        x: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<(), DspError> {
        let _span = hybridcs_obs::span!("wavelet.forward");
        self.check_len(x.len())?;
        let n = x.len();
        assert_eq!(out.len(), n, "forward_into: output length mismatch");
        assert!(
            scratch.len() >= Self::scratch_len(n),
            "forward_into: scratch too short"
        );
        self.analyze_levels(x, out, scratch);
        Ok(())
    }

    /// The level loop of [`Dwt::forward_into`], for a checked length.
    fn analyze_levels(&self, x: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let n = x.len();
        let h = self.wavelet.lowpass();
        let g = self.wavelet.highpass();
        let (ping, pong) = scratch.split_at_mut(n / 2);
        let mut write_end = n;
        // Level 1 reads the input signal directly.
        let mut cur = n / 2;
        analyze_level(
            x,
            h,
            g,
            &mut ping[..cur],
            &mut out[write_end - cur..write_end],
        );
        write_end -= cur;
        let mut src_is_ping = true;
        for _ in 1..self.levels {
            let half = cur / 2;
            let detail_slot = &mut out[write_end - half..write_end];
            if src_is_ping {
                analyze_level(&ping[..cur], h, g, &mut pong[..half], detail_slot);
            } else {
                analyze_level(&pong[..cur], h, g, &mut ping[..half], detail_slot);
            }
            write_end -= half;
            cur = half;
            src_is_ping = !src_is_ping;
        }
        let final_approx = if src_is_ping {
            &ping[..cur]
        } else {
            &pong[..cur]
        };
        out[..cur].copy_from_slice(final_approx);
    }

    /// Synthesis transform `Ψ c` (coefficients → signal). Exact inverse (and
    /// adjoint) of [`Dwt::forward`].
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] for unsupported lengths.
    pub fn inverse(&self, coeffs: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = vec![0.0; coeffs.len()];
        let mut scratch = vec![0.0; Self::scratch_len(coeffs.len())];
        self.inverse_into(coeffs, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Allocation-free synthesis transform: writes `Ψ c` into `out` using
    /// caller-provided `scratch` (at least
    /// [`Dwt::scratch_len`]`(coeffs.len())` elements).
    ///
    /// Bit-identical to [`Dwt::inverse`] — see [`Dwt::forward_into`] for the
    /// ping-pong scratch scheme; here the upsampled intermediates grow, and
    /// the final (finest) level writes straight into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] when `coeffs.len()` is unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != coeffs.len()` or `scratch` is shorter than
    /// [`Dwt::scratch_len`]`(coeffs.len())`.
    pub fn inverse_into(
        &self,
        coeffs: &[f64],
        out: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<(), DspError> {
        let _span = hybridcs_obs::span!("wavelet.inverse");
        self.check_len(coeffs.len())?;
        let n = coeffs.len();
        assert_eq!(out.len(), n, "inverse_into: output length mismatch");
        assert!(
            scratch.len() >= Self::scratch_len(n),
            "inverse_into: scratch too short"
        );
        self.synthesize_levels(coeffs, out, scratch);
        Ok(())
    }

    /// The level loop of [`Dwt::inverse_into`], for a checked length.
    fn synthesize_levels(&self, coeffs: &[f64], out: &mut [f64], scratch: &mut [f64]) {
        let n = coeffs.len();
        let h = self.wavelet.lowpass();
        let g = self.wavelet.highpass();
        let coarse = n >> self.levels;
        if self.levels == 1 {
            synthesize_level(&coeffs[..coarse], &coeffs[coarse..], h, g, out);
            return;
        }
        let (ping, pong) = scratch.split_at_mut(n / 2);
        // Coarsest level reads the approximation band from `coeffs`.
        synthesize_level(
            &coeffs[..coarse],
            &coeffs[coarse..2 * coarse],
            h,
            g,
            &mut ping[..2 * coarse],
        );
        let mut read_start = 2 * coarse;
        let mut cur = 2 * coarse;
        let mut src_is_ping = true;
        for level in (2..self.levels).rev() {
            let band_len = n >> level;
            debug_assert_eq!(band_len, cur);
            let detail = &coeffs[read_start..read_start + band_len];
            if src_is_ping {
                synthesize_level(&ping[..cur], detail, h, g, &mut pong[..band_len * 2]);
            } else {
                synthesize_level(&pong[..cur], detail, h, g, &mut ping[..band_len * 2]);
            }
            read_start += band_len;
            cur = band_len * 2;
            src_is_ping = !src_is_ping;
        }
        // Finest level writes the full-length signal into `out`.
        let detail = &coeffs[read_start..read_start + n / 2];
        let src = if src_is_ping {
            &ping[..cur]
        } else {
            &pong[..cur]
        };
        synthesize_level(src, detail, h, g, out);
    }

    /// Scratch length required by [`Dwt::forward_panel_into`] and
    /// [`Dwt::inverse_panel_into`] for `k` lanes of length `len`: the
    /// `k`-lane ping-pong bands of the panel levels, reused afterwards by
    /// the lanes outside a 4-wide vector, which need one gathered lane,
    /// its output and [`Dwt::scratch_len`] (just the latter at `k = 1`,
    /// where the panel is the lane).
    #[must_use]
    pub fn panel_scratch_len(len: usize, k: usize) -> usize {
        if k == 1 {
            Self::scratch_len(len)
        } else {
            len * k.max(3)
        }
    }

    /// Batched analysis transform over a column-major panel: lane `l` of
    /// `x_panel` (elements `x_panel[i*k + l]`) is transformed exactly as
    /// [`Dwt::forward_into`] would transform it, writing lane `l` of
    /// `out_panel`. The first `4⌊k/4⌋` lanes run lane-parallel kernels in
    /// the identical per-lane tap order — the SIMD tier (when
    /// [`simd_enabled`](hybridcs_linalg::simd::simd_enabled)) vectorizes
    /// across lanes only — and every remaining lane (all of them when
    /// `k < 4`) runs the serial transform itself, in place at `k = 1`. So
    /// every lane is bit-identical to the serial transform.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] when the per-lane length is
    /// unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `x_panel.len()` is not a multiple of `k`,
    /// `out_panel.len() != x_panel.len()`, or `scratch` is shorter than
    /// [`Dwt::panel_scratch_len`].
    pub fn forward_panel_into(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<(), DspError> {
        self.forward_panel_into_tier(
            x_panel,
            k,
            out_panel,
            scratch,
            hybridcs_linalg::simd::simd_enabled(),
        )
    }

    fn forward_panel_into_tier(
        &self,
        x_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        simd: bool,
    ) -> Result<(), DspError> {
        let _span = hybridcs_obs::span!("wavelet.forward_panel");
        assert!(k > 0, "forward_panel_into: zero lanes");
        assert!(
            x_panel.len().is_multiple_of(k),
            "forward_panel_into: panel shape"
        );
        let n = x_panel.len() / k;
        self.check_len(n)?;
        assert_eq!(
            out_panel.len(),
            x_panel.len(),
            "forward_panel_into: output length mismatch"
        );
        assert!(
            scratch.len() >= Self::panel_scratch_len(n, k),
            "forward_panel_into: scratch too short"
        );
        let lanes = vector_lanes(k);
        if lanes > 0 {
            self.analyze_panel_levels(x_panel, k, lanes, out_panel, scratch, simd);
        }
        serial_lanes(x_panel, k, lanes, out_panel, scratch, |x, c, s| {
            self.analyze_levels(x, c, s);
        });
        Ok(())
    }

    /// The level loop of [`Dwt::forward_panel_into`] over the first
    /// `lanes` lanes of a stride-`k` panel.
    fn analyze_panel_levels(
        &self,
        x_panel: &[f64],
        k: usize,
        lanes: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        simd: bool,
    ) {
        let n = x_panel.len() / k;
        let h = self.wavelet.lowpass();
        let g = self.wavelet.highpass();
        let (ping, pong) = scratch.split_at_mut((n / 2) * k);
        let mut write_end = n;
        let mut cur = n / 2;
        panel_kernels::analyze(
            x_panel,
            k,
            lanes,
            h,
            g,
            &mut ping[..cur * k],
            &mut out_panel[(write_end - cur) * k..write_end * k],
            simd,
        );
        write_end -= cur;
        let mut src_is_ping = true;
        for _ in 1..self.levels {
            let half = cur / 2;
            let detail_slot = &mut out_panel[(write_end - half) * k..write_end * k];
            if src_is_ping {
                panel_kernels::analyze(
                    &ping[..cur * k],
                    k,
                    lanes,
                    h,
                    g,
                    &mut pong[..half * k],
                    detail_slot,
                    simd,
                );
            } else {
                panel_kernels::analyze(
                    &pong[..cur * k],
                    k,
                    lanes,
                    h,
                    g,
                    &mut ping[..half * k],
                    detail_slot,
                    simd,
                );
            }
            write_end -= half;
            cur = half;
            src_is_ping = !src_is_ping;
        }
        let final_approx = if src_is_ping {
            &ping[..cur * k]
        } else {
            &pong[..cur * k]
        };
        out_panel[..cur * k].copy_from_slice(final_approx);
    }

    /// Batched synthesis transform over a column-major panel — the lane-wise
    /// twin of [`Dwt::inverse_into`], bit-identical per lane, with the same
    /// split as [`Dwt::forward_panel_into`]: lane-parallel kernels for the
    /// first `4⌊k/4⌋` lanes, the serial transform for the rest.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::BadLength`] when the per-lane length is
    /// unsupported.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`, `coeffs_panel.len()` is not a multiple of `k`,
    /// `out_panel.len() != coeffs_panel.len()`, or `scratch` is shorter
    /// than [`Dwt::panel_scratch_len`].
    pub fn inverse_panel_into(
        &self,
        coeffs_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
    ) -> Result<(), DspError> {
        self.inverse_panel_into_tier(
            coeffs_panel,
            k,
            out_panel,
            scratch,
            hybridcs_linalg::simd::simd_enabled(),
        )
    }

    fn inverse_panel_into_tier(
        &self,
        coeffs_panel: &[f64],
        k: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        simd: bool,
    ) -> Result<(), DspError> {
        let _span = hybridcs_obs::span!("wavelet.inverse_panel");
        assert!(k > 0, "inverse_panel_into: zero lanes");
        assert!(
            coeffs_panel.len().is_multiple_of(k),
            "inverse_panel_into: panel shape"
        );
        let n = coeffs_panel.len() / k;
        self.check_len(n)?;
        assert_eq!(
            out_panel.len(),
            coeffs_panel.len(),
            "inverse_panel_into: output length mismatch"
        );
        assert!(
            scratch.len() >= Self::panel_scratch_len(n, k),
            "inverse_panel_into: scratch too short"
        );
        let lanes = vector_lanes(k);
        if lanes > 0 {
            self.synthesize_panel_levels(coeffs_panel, k, lanes, out_panel, scratch, simd);
        }
        serial_lanes(coeffs_panel, k, lanes, out_panel, scratch, |c, x, s| {
            self.synthesize_levels(c, x, s);
        });
        Ok(())
    }

    /// The level loop of [`Dwt::inverse_panel_into`] over the first
    /// `lanes` lanes of a stride-`k` panel.
    fn synthesize_panel_levels(
        &self,
        coeffs_panel: &[f64],
        k: usize,
        lanes: usize,
        out_panel: &mut [f64],
        scratch: &mut [f64],
        simd: bool,
    ) {
        let n = coeffs_panel.len() / k;
        let h = self.wavelet.lowpass();
        let g = self.wavelet.highpass();
        let coarse = n >> self.levels;
        if self.levels == 1 {
            panel_kernels::synthesize(
                &coeffs_panel[..coarse * k],
                &coeffs_panel[coarse * k..],
                k,
                lanes,
                h,
                g,
                out_panel,
                simd,
            );
            return;
        }
        let (ping, pong) = scratch.split_at_mut((n / 2) * k);
        panel_kernels::synthesize(
            &coeffs_panel[..coarse * k],
            &coeffs_panel[coarse * k..2 * coarse * k],
            k,
            lanes,
            h,
            g,
            &mut ping[..2 * coarse * k],
            simd,
        );
        let mut read_start = 2 * coarse;
        let mut cur = 2 * coarse;
        let mut src_is_ping = true;
        for level in (2..self.levels).rev() {
            let band_len = n >> level;
            debug_assert_eq!(band_len, cur);
            let detail = &coeffs_panel[read_start * k..(read_start + band_len) * k];
            if src_is_ping {
                panel_kernels::synthesize(
                    &ping[..cur * k],
                    detail,
                    k,
                    lanes,
                    h,
                    g,
                    &mut pong[..band_len * 2 * k],
                    simd,
                );
            } else {
                panel_kernels::synthesize(
                    &pong[..cur * k],
                    detail,
                    k,
                    lanes,
                    h,
                    g,
                    &mut ping[..band_len * 2 * k],
                    simd,
                );
            }
            read_start += band_len;
            cur = band_len * 2;
            src_is_ping = !src_is_ping;
        }
        let detail = &coeffs_panel[read_start * k..(read_start + n / 2) * k];
        let src = if src_is_ping {
            &ping[..cur * k]
        } else {
            &pong[..cur * k]
        };
        panel_kernels::synthesize(src, detail, k, lanes, h, g, out_panel, simd);
    }

    /// Counts coefficients whose magnitude is at least `threshold` times the
    /// largest magnitude — a quick effective-sparsity probe used by the
    /// wavelet ablation experiment.
    ///
    /// Returns 0 for an all-zero vector.
    #[must_use]
    pub fn effective_sparsity(coeffs: &[f64], threshold: f64) -> usize {
        let max = coeffs.iter().fold(0.0_f64, |m, c| m.max(c.abs()));
        if max == 0.0 {
            return 0;
        }
        coeffs.iter().filter(|c| c.abs() >= threshold * max).count()
    }
}

/// One analysis level with periodic (circular) extension:
/// `a[k] = Σⱼ h[j]·x[(2k+j) mod n]`, `d[k] = Σⱼ g[j]·x[(2k+j) mod n]`.
fn analyze_level(x: &[f64], h: &[f64], g: &[f64], approx: &mut [f64], detail: &mut [f64]) {
    let n = x.len();
    let half = n / 2;
    let taps = h.len();
    debug_assert_eq!(approx.len(), half);
    debug_assert_eq!(detail.len(), half);
    // Outputs whose filter window stays inside the signal (2k + taps ≤ n)
    // take straight slice indexing — the per-tap `% n` of the periodized
    // form is pure index arithmetic, so skipping it for the bulk leaves
    // each output's tap order (and bits) unchanged.
    let bulk = if n >= taps {
        ((n - taps) / 2 + 1).min(half)
    } else {
        0
    };
    for k in 0..bulk {
        let base = 2 * k;
        let mut a = 0.0;
        let mut d = 0.0;
        for ((&hj, &gj), &xv) in h.iter().zip(g).zip(&x[base..base + taps]) {
            a += hj * xv;
            d += gj * xv;
        }
        approx[k] = a;
        detail[k] = d;
    }
    for k in bulk..half {
        let mut a = 0.0;
        let mut d = 0.0;
        let base = 2 * k;
        for (j, (&hj, &gj)) in h.iter().zip(g).enumerate() {
            let idx = (base + j) % n;
            let xv = x[idx];
            a += hj * xv;
            d += gj * xv;
        }
        approx[k] = a;
        detail[k] = d;
    }
}

/// One synthesis level — the exact transpose of [`analyze_level`]:
/// `x[(2k+j) mod n] += h[j]·a[k] + g[j]·d[k]`.
fn synthesize_level(approx: &[f64], detail: &[f64], h: &[f64], g: &[f64], out: &mut [f64]) {
    let n = out.len();
    let half = n / 2;
    let taps = h.len();
    debug_assert_eq!(approx.len(), half);
    debug_assert_eq!(detail.len(), half);
    out.fill(0.0);
    // Same bulk/tail split as `analyze_level`: scatter order per output
    // sample is unchanged (inputs k ascending, taps j ascending), so the
    // accumulated bits match the fully periodized loop.
    let bulk = if n >= taps {
        ((n - taps) / 2 + 1).min(half)
    } else {
        0
    };
    for k in 0..bulk {
        let a = approx[k];
        let d = detail[k];
        let base = 2 * k;
        for (o, (&hj, &gj)) in out[base..base + taps].iter_mut().zip(h.iter().zip(g)) {
            *o += hj * a + gj * d;
        }
    }
    for k in bulk..half {
        let a = approx[k];
        let d = detail[k];
        let base = 2 * k;
        for (j, (&hj, &gj)) in h.iter().zip(g).enumerate() {
            let idx = (base + j) % n;
            out[idx] += hj * a + gj * d;
        }
    }
}

/// Lane-parallel twins of [`analyze_level`] / [`synthesize_level`] over
/// the first `lanes` lanes (a multiple of four) of column-major panels of
/// stride `k`.
///
/// Every output lane folds in a register from `0.0` and is stored once.
/// Analysis: `a[p]` and `d[p]` add their taps `j = 0, 1, …` in ascending
/// order, as [`analyze_level`] does. Synthesis gathers: output `2p + e`
/// (`e` ∈ {0, 1}) adds `h[2t+e]·a[i] + g[2t+e]·d[i]` over the rows
/// `i = (p − t) mod n/2` that touch it, in ascending `i`, which is the
/// order [`synthesize_level`]'s scatter delivers them, wrapped rows last.
/// So every lane is bit-identical to the serial kernels whatever the tier;
/// the `% n` wrap is pure index arithmetic and cannot change bits.
/// [`lane_blocks`] hands out one row (analysis) or one output pair
/// (synthesis) × sixteen lanes at a time: eight 4-lane chains, approx and
/// detail (even and odd) × four vectors, whose adds hide each other's
/// latency. Against one 4-lane chain per output (and, for synthesis, a
/// scatter that added into the output panel tap by tap), a K = 16 panel
/// of 512 samples, db4 at 4 levels (2-vCPU AVX2 host, medians of six
/// interleaved `kernels_batch` pairs) fell from 38.3 to 23.2 µs for
/// analysis and from 37.6 to 26.4 µs for synthesis on the AVX2 tier, and
/// from 155.1 to 47.0 and 79.4 to 43.2 µs on the scalar tier.
///
/// The AVX2 tier is hand-written. The scalar twin takes the same loop
/// order with its accumulators in local arrays, but compiled for AVX2 it
/// is not as fast: `hybridcs_linalg::simd::on_tier` does not inline a
/// block into its AVX2 frame, and in a `target_feature` function of its
/// own it ran 1.30× (analysis) and 1.15× (synthesis) slower than the
/// intrinsics (DESIGN §14).
#[allow(unsafe_code)]
mod panel_kernels {
    use hybridcs_linalg::simd::{lane_blocks, simd_available, LaneBlock};

    #[allow(clippy::too_many_arguments)]
    pub fn analyze(
        x: &[f64],
        k: usize,
        lanes: usize,
        h: &[f64],
        g: &[f64],
        approx: &mut [f64],
        detail: &mut [f64],
        simd: bool,
    ) {
        // With the block bounds checked in `block`, these keep every
        // access of either twin inside the panels.
        assert!(lanes > 0 && lanes.is_multiple_of(4) && lanes <= k);
        let n = x.len() / k;
        assert!(x.len() == n * k && n >= h.len() && h.len() == g.len());
        assert!(approx.len() == n / 2 * k && detail.len() == n / 2 * k);
        let mut fold = Analyze {
            x,
            k,
            lanes,
            h,
            g,
            approx,
            detail,
            simd: simd && simd_available(),
        };
        lane_blocks::<1>(&mut fold, n / 2, lanes);
    }

    #[allow(clippy::too_many_arguments)]
    pub fn synthesize(
        approx: &[f64],
        detail: &[f64],
        k: usize,
        lanes: usize,
        h: &[f64],
        g: &[f64],
        out: &mut [f64],
        simd: bool,
    ) {
        // With the block bounds checked in `block`, these keep every
        // access of either twin inside the panels.
        assert!(lanes > 0 && lanes.is_multiple_of(4) && lanes <= k);
        let half = approx.len() / k;
        assert!(approx.len() == half * k && detail.len() == half * k);
        assert!(out.len() == 2 * half * k && h.len() == g.len() && h.len().is_multiple_of(2));
        // Rows `(p − t) mod half` for `t < h.len() / 2` are distinct, so
        // each touches an output once; `Dwt::check_len` guarantees it.
        assert!(h.len() / 2 <= half);
        let mut fold = Synthesize {
            approx,
            detail,
            k,
            lanes,
            h,
            g,
            out,
            simd: simd && simd_available(),
        };
        lane_blocks::<1>(&mut fold, half, lanes);
    }

    /// One analysis level: block `(p, lane)` folds rows `p..p + R` of both
    /// bands.
    struct Analyze<'a> {
        x: &'a [f64],
        k: usize,
        lanes: usize,
        h: &'a [f64],
        g: &'a [f64],
        approx: &'a mut [f64],
        detail: &'a mut [f64],
        simd: bool,
    }

    impl LaneBlock for Analyze<'_> {
        fn block<const R: usize, const V: usize>(&mut self, p: usize, lane: usize) {
            assert!((p + R) * self.k <= self.approx.len() && lane + 4 * V <= self.lanes);
            #[cfg(target_arch = "x86_64")]
            if self.simd {
                // SAFETY: `simd` holds only after `simd_available`
                // detected AVX2; the assert above and `analyze`'s bound
                // every access.
                unsafe { analyze_avx::<R, V>(self, p, lane) };
                return;
            }
            analyze_scalar::<R, V>(self, p, lane);
        }
    }

    /// Row of the filter window's tap `j` for output row `p`, wrapped
    /// once (`n ≥ taps`).
    #[inline]
    fn tap_row(p: usize, j: usize, n: usize) -> usize {
        let idx = 2 * p + j;
        if idx >= n {
            idx - n
        } else {
            idx
        }
    }

    fn analyze_scalar<const R: usize, const V: usize>(f: &mut Analyze<'_>, p: usize, lane: usize) {
        let n = f.x.len() / f.k;
        let mut a = [[0.0f64; 16]; R];
        let mut d = [[0.0f64; 16]; R];
        for (j, (&hj, &gj)) in f.h.iter().zip(f.g).enumerate() {
            for (r, (a, d)) in a.iter_mut().zip(&mut d).enumerate() {
                let at = tap_row(p + r, j, n) * f.k + lane;
                for ((a, d), &xv) in a.iter_mut().zip(d).zip(&f.x[at..at + 4 * V]) {
                    *a += hj * xv;
                    *d += gj * xv;
                }
            }
        }
        for (r, (a, d)) in a.iter().zip(&d).enumerate() {
            let at = (p + r) * f.k + lane;
            f.approx[at..at + 4 * V].copy_from_slice(&a[..4 * V]);
            f.detail[at..at + 4 * V].copy_from_slice(&d[..4 * V]);
        }
    }

    /// One synthesis level: block `(p, lane)` folds output pairs
    /// `2p, 2p + 1` through `2(p + R) − 1`.
    struct Synthesize<'a> {
        approx: &'a [f64],
        detail: &'a [f64],
        k: usize,
        lanes: usize,
        h: &'a [f64],
        g: &'a [f64],
        out: &'a mut [f64],
        simd: bool,
    }

    impl LaneBlock for Synthesize<'_> {
        fn block<const R: usize, const V: usize>(&mut self, p: usize, lane: usize) {
            assert!((p + R) * self.k <= self.approx.len() && lane + 4 * V <= self.lanes);
            #[cfg(target_arch = "x86_64")]
            if self.simd {
                // SAFETY: `simd` holds only after `simd_available`
                // detected AVX2; the assert above and `synthesize`'s bound
                // every access.
                unsafe { synthesize_avx::<R, V>(self, p, lane) };
                return;
            }
            synthesize_scalar::<R, V>(self, p, lane);
        }
    }

    /// Term `s` of output pair `p`'s gather: the tap pair `t` and the row
    /// `(p − t) mod half` it reads, in ascending row order. Rows `p − t`
    /// come first (`t` from `min(p, T − 1)` down to 0), then the wrapped
    /// rows `p − t + half` (`t` from `T − 1` down to `p + 1`).
    #[inline]
    fn gather_term(p: usize, s: usize, pairs: usize, half: usize) -> (usize, usize) {
        let q = p.min(pairs - 1);
        let t = if s <= q { q - s } else { q + pairs - s };
        (t, if t <= p { p - t } else { p + half - t })
    }

    fn synthesize_scalar<const R: usize, const V: usize>(
        f: &mut Synthesize<'_>,
        p: usize,
        lane: usize,
    ) {
        let half = f.approx.len() / f.k;
        let pairs = f.h.len() / 2;
        let mut even = [[0.0f64; 16]; R];
        let mut odd = [[0.0f64; 16]; R];
        for s in 0..pairs {
            for (r, (even, odd)) in even.iter_mut().zip(&mut odd).enumerate() {
                let (t, row) = gather_term(p + r, s, pairs, half);
                let at = row * f.k + lane;
                let (he, ge) = (f.h[2 * t], f.g[2 * t]);
                let (ho, go) = (f.h[2 * t + 1], f.g[2 * t + 1]);
                let terms = f.approx[at..at + 4 * V]
                    .iter()
                    .zip(&f.detail[at..at + 4 * V]);
                for ((e, o), (&a, &d)) in even.iter_mut().zip(odd.iter_mut()).zip(terms) {
                    *e += he * a + ge * d;
                    *o += ho * a + go * d;
                }
            }
        }
        for (r, (even, odd)) in even.iter().zip(&odd).enumerate() {
            let at = 2 * (p + r) * f.k + lane;
            f.out[at..at + 4 * V].copy_from_slice(&even[..4 * V]);
            f.out[at + f.k..at + f.k + 4 * V].copy_from_slice(&odd[..4 * V]);
        }
    }

    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_set1_pd, _mm256_setzero_pd,
        _mm256_storeu_pd,
    };

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn analyze_avx<const R: usize, const V: usize>(
        f: &mut Analyze<'_>,
        p: usize,
        lane: usize,
    ) {
        let n = f.x.len() / f.k;
        let mut a = [[_mm256_setzero_pd(); V]; R];
        let mut d = [[_mm256_setzero_pd(); V]; R];
        for (j, (&hj, &gj)) in f.h.iter().zip(f.g).enumerate() {
            let (hv, gv) = (_mm256_set1_pd(hj), _mm256_set1_pd(gj));
            for r in 0..R {
                let x = f.x.as_ptr().add(tap_row(p + r, j, n) * f.k + lane);
                for v in 0..V {
                    let xv = _mm256_loadu_pd(x.add(4 * v));
                    a[r][v] = _mm256_add_pd(a[r][v], _mm256_mul_pd(hv, xv));
                    d[r][v] = _mm256_add_pd(d[r][v], _mm256_mul_pd(gv, xv));
                }
            }
        }
        for r in 0..R {
            let at = (p + r) * f.k + lane;
            for v in 0..V {
                _mm256_storeu_pd(f.approx.as_mut_ptr().add(at + 4 * v), a[r][v]);
                _mm256_storeu_pd(f.detail.as_mut_ptr().add(at + 4 * v), d[r][v]);
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn synthesize_avx<const R: usize, const V: usize>(
        f: &mut Synthesize<'_>,
        p: usize,
        lane: usize,
    ) {
        let half = f.approx.len() / f.k;
        let pairs = f.h.len() / 2;
        let mut even = [[_mm256_setzero_pd(); V]; R];
        let mut odd = [[_mm256_setzero_pd(); V]; R];
        for s in 0..pairs {
            for r in 0..R {
                let (t, row) = gather_term(p + r, s, pairs, half);
                let (he, ge) = (_mm256_set1_pd(f.h[2 * t]), _mm256_set1_pd(f.g[2 * t]));
                let (ho, go) = (
                    _mm256_set1_pd(f.h[2 * t + 1]),
                    _mm256_set1_pd(f.g[2 * t + 1]),
                );
                let a = f.approx.as_ptr().add(row * f.k + lane);
                let d = f.detail.as_ptr().add(row * f.k + lane);
                for v in 0..V {
                    let av = _mm256_loadu_pd(a.add(4 * v));
                    let dv = _mm256_loadu_pd(d.add(4 * v));
                    let e = _mm256_add_pd(_mm256_mul_pd(he, av), _mm256_mul_pd(ge, dv));
                    let o = _mm256_add_pd(_mm256_mul_pd(ho, av), _mm256_mul_pd(go, dv));
                    even[r][v] = _mm256_add_pd(even[r][v], e);
                    odd[r][v] = _mm256_add_pd(odd[r][v], o);
                }
            }
        }
        for r in 0..R {
            let at = 2 * (p + r) * f.k + lane;
            for v in 0..V {
                _mm256_storeu_pd(f.out.as_mut_ptr().add(at + 4 * v), even[r][v]);
                _mm256_storeu_pd(f.out.as_mut_ptr().add(at + f.k + 4 * v), odd[r][v]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                    + 0.3 * (2.0 * std::f64::consts::PI * 17.0 * t).cos()
                    + 0.05 * t
            })
            .collect()
    }

    #[test]
    fn perfect_reconstruction_all_families() {
        let x = test_signal(128);
        for w in Wavelet::ALL {
            let dwt = Dwt::new(w, 3).unwrap();
            let c = dwt.forward(&x).unwrap();
            let back = dwt.inverse(&c).unwrap();
            assert!(max_abs_diff(&x, &back) < 1e-10, "{w} failed PR");
        }
    }

    #[test]
    fn energy_preservation() {
        // Orthonormality: ‖Ψᵀx‖₂ == ‖x‖₂.
        let x = test_signal(256);
        let dwt = Dwt::new(Wavelet::Db4, 4).unwrap();
        let c = dwt.forward(&x).unwrap();
        let ex: f64 = x.iter().map(|v| v * v).sum();
        let ec: f64 = c.iter().map(|v| v * v).sum();
        assert!((ex - ec).abs() < 1e-8 * ex);
    }

    #[test]
    fn adjoint_identity() {
        // ⟨Ψᵀx, y⟩ == ⟨x, Ψy⟩ — the property the solvers depend on.
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
        let x = test_signal(64);
        let y: Vec<f64> = (0..64).map(|i| ((i * 7 + 3) % 13) as f64 - 6.0).collect();
        let lhs: f64 = dwt
            .forward(&x)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f64 = x
            .iter()
            .zip(dwt.inverse(&y).unwrap().iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn constant_signal_concentrates_in_approx_band() {
        let dwt = Dwt::new(Wavelet::Db4, 4).unwrap();
        let x = vec![5.0; 256];
        let c = dwt.forward(&x).unwrap();
        let layout = dwt.layout(256).unwrap();
        let approx = layout.approx_band();
        for (i, v) in c.iter().enumerate() {
            if approx.contains(&i) {
                continue;
            }
            assert!(v.abs() < 1e-9, "detail leak at {i}: {v}");
        }
    }

    #[test]
    fn layout_partitions_whole_vector() {
        let dwt = Dwt::new(Wavelet::Db2, 3).unwrap();
        let layout = dwt.layout(64).unwrap();
        assert_eq!(layout.bands.len(), 4);
        assert_eq!(layout.approx_band(), 0..8);
        assert_eq!(layout.detail_band(3), 8..16);
        assert_eq!(layout.detail_band(2), 16..32);
        assert_eq!(layout.detail_band(1), 32..64);
        let total: usize = layout.bands.iter().map(|b| b.len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn rejects_bad_lengths() {
        let dwt = Dwt::new(Wavelet::Db4, 3).unwrap();
        assert!(matches!(
            dwt.forward(&[0.0; 100]),
            Err(DspError::BadLength { .. })
        ));
        assert!(matches!(
            dwt.inverse(&[0.0; 100]),
            Err(DspError::BadLength { .. })
        ));
        assert!(matches!(dwt.forward(&[]), Err(DspError::BadLength { .. })));
    }

    #[test]
    fn rejects_zero_levels() {
        assert!(matches!(
            Dwt::new(Wavelet::Db4, 0),
            Err(DspError::ZeroLevels)
        ));
    }

    #[test]
    fn max_levels_respects_filter_length() {
        // db4 has 8 taps; every intermediate band must hold >= 8 samples,
        // so 512 supports 6 levels (coarsest band = 8), matching pywt.
        assert_eq!(Dwt::max_levels(Wavelet::Db4, 512), 6);
        // Haar: the conservative rule (band length >= filter length) stops
        // at a coarsest band of 2 samples -> 8 levels for 512.
        assert_eq!(Dwt::max_levels(Wavelet::Haar, 512), 8);
        assert_eq!(Dwt::max_levels(Wavelet::Db4, 6), 0);
    }

    #[test]
    fn max_levels_depth_actually_works() {
        for w in Wavelet::ALL {
            let levels = Dwt::max_levels(w, 256);
            assert!(levels >= 1);
            let dwt = Dwt::new(w, levels).unwrap();
            let x = test_signal(256);
            let c = dwt.forward(&x).unwrap();
            let back = dwt.inverse(&c).unwrap();
            assert!(max_abs_diff(&x, &back) < 1e-9, "{w} at depth {levels}");
        }
    }

    #[test]
    fn smooth_signal_is_compressible_in_db4() {
        // The whole premise of CS-ECG: a smooth signal's wavelet coefficients
        // decay fast. Check that 90% of the energy sits in 25% of coefficients.
        let x = test_signal(512);
        let dwt = Dwt::new(Wavelet::Db4, 5).unwrap();
        let mut c = dwt.forward(&x).unwrap();
        let total: f64 = c.iter().map(|v| v * v).sum();
        c.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());
        let top: f64 = c[..128].iter().map(|v| v * v).sum();
        assert!(top > 0.9 * total, "top quarter holds {}", top / total);
    }

    #[test]
    fn effective_sparsity_counts() {
        let c = [10.0, 0.0, -5.0, 0.1];
        assert_eq!(Dwt::effective_sparsity(&c, 0.2), 2);
        assert_eq!(Dwt::effective_sparsity(&[0.0; 4], 0.5), 0);
    }

    #[test]
    fn into_variants_bit_identical_to_vec_api() {
        // The workspace decode path relies on forward_into/inverse_into
        // producing the same bits as the Vec-returning wrappers. Scratch and
        // output start as NaN to prove every element is written before read.
        let x = test_signal(128);
        for w in Wavelet::ALL {
            for levels in 1..=3 {
                let dwt = Dwt::new(w, levels).unwrap();
                let c = dwt.forward(&x).unwrap();
                let mut c2 = vec![f64::NAN; 128];
                let mut scratch = vec![f64::NAN; Dwt::scratch_len(128)];
                dwt.forward_into(&x, &mut c2, &mut scratch).unwrap();
                for (a, b) in c.iter().zip(&c2) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{w} L{levels} forward");
                }
                let back = dwt.inverse(&c).unwrap();
                let mut back2 = vec![f64::NAN; 128];
                dwt.inverse_into(&c, &mut back2, &mut scratch).unwrap();
                for (a, b) in back.iter().zip(&back2) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{w} L{levels} inverse");
                }
            }
        }
    }

    #[test]
    fn into_variants_reject_bad_buffers() {
        let dwt = Dwt::new(Wavelet::Db4, 2).unwrap();
        let x = test_signal(64);
        let mut out = vec![0.0; 64];
        let mut scratch = vec![0.0; 64];
        assert!(matches!(
            dwt.forward_into(&[0.0; 30], &mut out, &mut scratch),
            Err(DspError::BadLength { .. })
        ));
        assert!(dwt.validate_len(64).is_ok());
        assert!(dwt.validate_len(30).is_err());
        dwt.forward_into(&x, &mut out, &mut scratch).unwrap();
        dwt.inverse_into(&x, &mut out, &mut scratch).unwrap();
    }

    #[test]
    fn panel_transforms_bit_identical_to_serial_per_lane() {
        // Every lane of the panel transforms must reproduce the serial
        // `_into` bits exactly, for both dispatch tiers, across lane
        // counts that exercise the 4-wide vector lanes and the lanes
        // outside them that run the serial kernel (a lone lane, a pair,
        // a triple, one lane past a vector).
        let tiers: &[bool] = if hybridcs_linalg::simd::simd_available() {
            &[false, true]
        } else {
            &[false]
        };
        for w in Wavelet::ALL {
            for levels in 1..=3 {
                let dwt = Dwt::new(w, levels).unwrap();
                let n = 64;
                for &k in &[1usize, 2, 3, 4, 5, 7, 8, 12, 15, 16, 17, 20, 33] {
                    // Column-major panel with distinct per-lane signals.
                    let mut panel = vec![0.0; n * k];
                    let mut lanes: Vec<Vec<f64>> = Vec::new();
                    for lane in 0..k {
                        let sig: Vec<f64> = (0..n)
                            .map(|i| {
                                let t = i as f64 / n as f64;
                                (2.0 * std::f64::consts::PI * (3.0 + lane as f64) * t).sin()
                                    + 0.1 * lane as f64
                            })
                            .collect();
                        for (i, &v) in sig.iter().enumerate() {
                            panel[i * k + lane] = v;
                        }
                        lanes.push(sig);
                    }
                    for &simd in tiers {
                        let mut out = vec![f64::NAN; n * k];
                        let mut scratch = vec![f64::NAN; Dwt::panel_scratch_len(n, k)];
                        dwt.forward_panel_into_tier(&panel, k, &mut out, &mut scratch, simd)
                            .unwrap();
                        for (lane, sig) in lanes.iter().enumerate() {
                            let serial = dwt.forward(sig).unwrap();
                            for (i, want) in serial.iter().enumerate() {
                                assert_eq!(
                                    out[i * k + lane].to_bits(),
                                    want.to_bits(),
                                    "{w} L{levels} k{k} lane{lane} fwd simd={simd}"
                                );
                            }
                        }
                        let mut back = vec![f64::NAN; n * k];
                        dwt.inverse_panel_into_tier(&out, k, &mut back, &mut scratch, simd)
                            .unwrap();
                        for (lane, sig) in lanes.iter().enumerate() {
                            let serial = dwt.inverse(&dwt.forward(sig).unwrap()).unwrap();
                            for (i, want) in serial.iter().enumerate() {
                                assert_eq!(
                                    back[i * k + lane].to_bits(),
                                    want.to_bits(),
                                    "{w} L{levels} k{k} lane{lane} inv simd={simd}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn delta_signal_roundtrip_deep_levels() {
        // An impulse stresses the periodic wrap-around paths.
        let mut x = vec![0.0; 64];
        x[0] = 1.0;
        x[63] = -2.0;
        for w in Wavelet::ALL {
            let levels = Dwt::max_levels(w, 64);
            let dwt = Dwt::new(w, levels).unwrap();
            let back = dwt.inverse(&dwt.forward(&x).unwrap()).unwrap();
            assert!(max_abs_diff(&x, &back) < 1e-10, "{w}");
        }
    }
}
