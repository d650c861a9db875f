use crate::codec::{DecodedWindow, EncodedWindow};
use crate::{CoreError, SensingOperator, SystemConfig};
use hybridcs_coding::{LowResCodec, Payload};
use hybridcs_dsp::Dwt;
use hybridcs_frontend::{LowResChannel, LowResFrame, MeasurementQuantizer, SensingMatrix};
use hybridcs_solver::{
    solve_pdhg_batch, BatchProblem, BpdnProblem, IterationObserver, LinearOperator, NoopObserver,
    SolverWorkspace,
};

/// One window's entropy-decoded box bounds (`lo`, `hi`).
type BoxBounds = (Vec<f64>, Vec<f64>);

/// One window's sections as a decode reads them: the CS measurements and,
/// for a box-constrained (hybrid) decode, the low-resolution payload.
pub(crate) type Sections<'a> = (&'a [f64], Option<&'a Payload>);

/// The receiver-side decoder: regenerates `Φ` from the shared seed,
/// entropy-decodes the low-resolution stream into box bounds, and solves
/// the paper's Eq. (1).
///
/// Decoding with `use_box = false` on the same payloads gives the "normal
/// CS" reconstruction of the paper's comparisons — identical measurements,
/// identical solver, no side information.
#[derive(Debug, Clone)]
pub struct HybridDecoder {
    config: SystemConfig,
    sensing: SensingMatrix,
    sensing_norm: f64,
    dwt: Dwt,
    lowres_channel: LowResChannel,
    lowres_codec: LowResCodec,
    sigma: f64,
}

impl HybridDecoder {
    /// Builds a decoder for the given configuration and trained codec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration or a codec whose
    /// bit depth disagrees with it.
    pub fn new(config: &SystemConfig, lowres_codec: LowResCodec) -> Result<Self, CoreError> {
        config.validate()?;
        if lowres_codec.bits() != config.lowres_bits {
            return Err(CoreError::BadConfig {
                name: "lowres_codec bits (must match config.lowres_bits)",
                value: f64::from(lowres_codec.bits()),
            });
        }
        let sensing = SensingMatrix::bernoulli(config.measurements, config.window, config.seed)?;
        // The sensing matrix is fixed for the decoder's lifetime, so the
        // power iteration behind `norm_est` runs exactly once here and every
        // per-window solve reuses the estimate (bit-identical to computing it
        // per decode — same operator, same iteration).
        let sensing_norm = SensingOperator::new(&sensing).norm_est();
        let digitizer =
            MeasurementQuantizer::new(config.measurement_bits, config.measurement_full_scale_mv)?;
        let sigma = digitizer.noise_sigma(config.measurements) * config.sigma_scale;
        Ok(HybridDecoder {
            config: config.clone(),
            sensing,
            sensing_norm,
            dwt: config.dwt()?,
            lowres_channel: LowResChannel::new(config.lowres_bits)?,
            lowres_codec,
            sigma,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The fidelity budget σ used in Eq. (1).
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Decodes one window using both channels (the hybrid reconstruction).
    ///
    /// # Errors
    ///
    /// Propagates entropy-decoding and solver failures, and rejects windows
    /// encoded under a different configuration.
    pub fn decode(&self, encoded: &EncodedWindow) -> Result<DecodedWindow, CoreError> {
        self.decode_workspace(
            encoded,
            true,
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
    }

    /// Decodes one window ignoring the low-resolution side information —
    /// the paper's "normal CS" baseline on identical measurements.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HybridDecoder::decode`].
    pub fn decode_normal(&self, encoded: &EncodedWindow) -> Result<DecodedWindow, CoreError> {
        self.decode_workspace(
            encoded,
            false,
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
    }

    /// [`HybridDecoder::decode`] (or, with `use_box = false`,
    /// [`HybridDecoder::decode_normal`]) with an [`IterationObserver`]
    /// receiving the solver's per-iteration events and final
    /// [`ConvergenceTrace`](hybridcs_solver::ConvergenceTrace), drawing all
    /// solver buffers from a caller-owned [`SolverWorkspace`]. Reusing one
    /// workspace across windows keeps the solver inner loop allocation-free
    /// after warm-up; results are bit-identical to the plain entry points.
    /// This is a one-window group of the decoder's one solve, the lockstep
    /// batch the gateway runs, so the window decodes here exactly as it
    /// would beside any other windows.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HybridDecoder::decode`]. The checks run in
    /// order: window length, measurement count, low-res decode, problem
    /// validation, solver options.
    pub fn decode_workspace(
        &self,
        encoded: &EncodedWindow,
        use_box: bool,
        observer: &mut dyn IterationObserver,
        ws: &mut SolverWorkspace,
    ) -> Result<DecodedWindow, CoreError> {
        if encoded.window_len != self.config.window {
            return Err(CoreError::WindowMismatch {
                expected: self.config.window,
                actual: encoded.window_len,
            });
        }
        let lowres = use_box.then_some(&encoded.lowres);
        self.decode_batch(&[(&encoded.measurements, lowres)], &mut [observer], ws)
            .pop()
            .expect("decode_batch returns one result per window")
    }

    /// The measurement-count check and, when the sections carry a low-res
    /// payload, its entropy-decoded box bounds: everything in a decode
    /// that is per window and precedes the solver.
    fn box_bounds(
        &self,
        (measurements, lowres): Sections<'_>,
    ) -> Result<Option<BoxBounds>, CoreError> {
        if measurements.len() != self.config.measurements {
            return Err(CoreError::WindowMismatch {
                expected: self.config.measurements,
                actual: measurements.len(),
            });
        }
        let Some(payload) = lowres else {
            return Ok(None);
        };
        let _span = hybridcs_obs::span!("decode.bounds");
        Ok(Some(self.lowres_frame(payload)?.bounds()))
    }

    /// Entropy-decodes one window's low-resolution payload into its
    /// quantization cells: the box of a hybrid decode, and the decode
    /// ladder's cell-midpoint rung.
    pub(crate) fn lowres_frame(&self, payload: &Payload) -> Result<LowResFrame, CoreError> {
        let codes = self.lowres_codec.decode(payload, self.config.window)?;
        Ok(LowResFrame::from_codes(codes, &self.lowres_channel)?)
    }

    /// Eq. (1) for one window: `Φ`, the wavelet and `σ` of this decoder,
    /// the box when the window has one.
    fn problem<'a>(
        &'a self,
        operator: &'a SensingOperator<'_>,
        measurements: &'a [f64],
        bounds: Option<&'a BoxBounds>,
    ) -> BpdnProblem<'a> {
        BpdnProblem {
            sensing: operator,
            dwt: &self.dwt,
            measurements,
            sigma: self.sigma,
            box_bounds: bounds.map(|(lo, hi)| (&lo[..], &hi[..])),
            coefficient_weights: None,
        }
    }

    /// Decodes a group of same-shape windows from their borrowed sections,
    /// one result per window in input order; `observers[w]` watches window
    /// `w`. This is the decoder's one solve: the one-window entry points
    /// run it on a group of one, and the decode ladder on each rung's
    /// group. Each window first runs its own checks (measurement count,
    /// low-res decode, problem validation), so one that fails gets its own
    /// error and leaves the rest of the group alone. The windows that pass
    /// run as one lockstep PDHG solve over K-wide panels, so the
    /// packed-sign and wavelet kernels amortize their table work across
    /// the group (and vectorize across it on a vector tier), and each
    /// window's result is bit-identical to its one-window decode.
    pub(crate) fn decode_batch(
        &self,
        windows: &[Sections<'_>],
        observers: &mut [&mut dyn IterationObserver],
        ws: &mut SolverWorkspace,
    ) -> Vec<Result<DecodedWindow, CoreError>> {
        let _span = hybridcs_obs::span!("decode.batch");
        let operator = SensingOperator::with_norm(&self.sensing, self.sensing_norm);
        let checked: Vec<Result<Option<BoxBounds>, CoreError>> = windows
            .iter()
            .map(|&sections| {
                let bounds = self.box_bounds(sections)?;
                self.problem(&operator, sections.0, bounds.as_ref())
                    .validate()?;
                Ok(bounds)
            })
            .collect();
        let problems: Vec<BpdnProblem<'_>> = windows
            .iter()
            .zip(&checked)
            .filter_map(|(&(measurements, _), bounds)| {
                let bounds = bounds.as_ref().ok()?;
                Some(self.problem(&operator, measurements, bounds.as_ref()))
            })
            .collect();
        let mut refs: Vec<&mut dyn IterationObserver> = observers
            .iter_mut()
            .zip(&checked)
            .filter(|(_, bounds)| bounds.is_ok())
            .map(|(observer, _)| &mut **observer as &mut dyn IterationObserver)
            .collect();
        let mut results = Vec::new();
        let solved = {
            let _span = hybridcs_obs::span!("decode.solve");
            BatchProblem::new(&problems).and_then(|batch| {
                solve_pdhg_batch(&batch, &self.config.pdhg, &mut refs, ws, &mut results)
            })
        };
        let mut results = results.into_iter();
        checked
            .into_iter()
            .map(|bounds| {
                let used_box = bounds?.is_some();
                solved.clone()?;
                let recovery = results
                    .next()
                    .flatten()
                    .expect("the batch solver fills every window");
                Ok(DecodedWindow {
                    signal: recovery.signal.clone(),
                    recovery,
                    used_box,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::default_training_windows;
    use crate::{train_lowres_codec, HybridFrontEnd};
    use hybridcs_ecg::{EcgGenerator, GeneratorConfig};

    fn pair(config: &SystemConfig) -> (HybridFrontEnd, HybridDecoder) {
        let codec =
            train_lowres_codec(config.lowres_bits, &default_training_windows(config.window))
                .unwrap();
        (
            HybridFrontEnd::new(config, codec.clone()).unwrap(),
            HybridDecoder::new(config, codec).unwrap(),
        )
    }

    fn ecg_window(config: &SystemConfig, seed: u64) -> Vec<f64> {
        let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
        generator.generate(2.0, seed)[..config.window].to_vec()
    }

    #[test]
    fn hybrid_roundtrip_reconstructs_ecg() {
        let config = SystemConfig::default(); // m = 96, CR 81.25%
        let (fe, dec) = pair(&config);
        let window = ecg_window(&config, 11);
        let encoded = fe.encode(&window).unwrap();
        let decoded = dec.decode(&encoded).unwrap();
        let snr = hybridcs_metrics::snr_db(&window, &decoded.signal);
        assert!(snr > 15.0, "hybrid SNR {snr} dB at CR 81%");
        assert!(decoded.used_box);
    }

    #[test]
    fn hybrid_beats_normal_at_high_compression() {
        let config = SystemConfig {
            measurements: 32, // CR ~93.75%
            ..SystemConfig::default()
        };
        let (fe, dec) = pair(&config);
        let window = ecg_window(&config, 13);
        let encoded = fe.encode(&window).unwrap();
        let hybrid = dec.decode(&encoded).unwrap();
        let normal = dec.decode_normal(&encoded).unwrap();
        let snr_h = hybridcs_metrics::snr_db(&window, &hybrid.signal);
        let snr_n = hybridcs_metrics::snr_db(&window, &normal.signal);
        assert!(
            snr_h > snr_n + 3.0,
            "hybrid {snr_h} dB must beat normal {snr_n} dB at CR 94%"
        );
    }

    #[test]
    fn decoded_signal_respects_lowres_bounds() {
        let config = SystemConfig::default();
        let (fe, dec) = pair(&config);
        let window = ecg_window(&config, 17);
        let encoded = fe.encode(&window).unwrap();
        let decoded = dec.decode(&encoded).unwrap();
        let channel = LowResChannel::new(config.lowres_bits).unwrap();
        let (lo, hi) = channel.acquire(&window).bounds();
        for ((v, l), h) in decoded.signal.iter().zip(&lo).zip(&hi) {
            assert!(*l - 1e-9 <= *v && *v <= *h + 1e-9);
        }
    }

    #[test]
    fn decoder_rejects_mismatched_payloads() {
        let config = SystemConfig::default();
        let (fe, _) = pair(&config);
        let other = SystemConfig {
            measurements: 64,
            ..SystemConfig::default()
        };
        let codec =
            train_lowres_codec(other.lowres_bits, &default_training_windows(other.window)).unwrap();
        let dec = HybridDecoder::new(&other, codec).unwrap();
        let window = ecg_window(&config, 19);
        let encoded = fe.encode(&window).unwrap();
        assert!(matches!(
            dec.decode(&encoded),
            Err(CoreError::WindowMismatch { .. })
        ));
    }

    /// A one-window decode reports the first check its window fails, in
    /// order: window length, measurement count, low-res decode, problem
    /// validation, then the solver options.
    #[test]
    fn one_window_decode_checks_run_in_order() {
        use hybridcs_solver::{PdhgOptions, SolverError};
        let config = SystemConfig {
            measurements: 64,
            pdhg: PdhgOptions {
                max_iterations: 0,
                ..PdhgOptions::default()
            },
            ..SystemConfig::default()
        };
        let (fe, dec) = pair(&config);
        let mut encoded = fe.encode(&ecg_window(&config, 29)).unwrap();
        assert!(matches!(
            dec.decode(&encoded),
            Err(CoreError::Solver(SolverError::BadParameter {
                name: "max_iterations",
                ..
            }))
        ));
        encoded.measurements[3] = f64::NAN;
        assert!(matches!(
            dec.decode(&encoded),
            Err(CoreError::Solver(SolverError::NonFinite { index: 3, .. }))
        ));
        encoded.lowres = Payload {
            bytes: Vec::new(),
            bit_len: 0,
        };
        assert!(matches!(dec.decode(&encoded), Err(CoreError::Coding(_))));
        // Without the box the payload is never read.
        assert!(matches!(
            dec.decode_normal(&encoded),
            Err(CoreError::Solver(SolverError::NonFinite { index: 3, .. }))
        ));
        encoded.measurements.pop();
        assert_eq!(
            dec.decode(&encoded),
            Err(CoreError::WindowMismatch {
                expected: 64,
                actual: 63
            })
        );
        encoded.window_len = 256;
        assert_eq!(
            dec.decode(&encoded),
            Err(CoreError::WindowMismatch {
                expected: 512,
                actual: 256
            })
        );
    }

    #[test]
    fn sigma_scales_with_measurement_count() {
        let config_small = SystemConfig {
            measurements: 16,
            ..SystemConfig::default()
        };
        let config_large = SystemConfig {
            measurements: 256,
            ..SystemConfig::default()
        };
        let codec = train_lowres_codec(7, &default_training_windows(512)).unwrap();
        let d_small = HybridDecoder::new(&config_small, codec.clone()).unwrap();
        let d_large = HybridDecoder::new(&config_large, codec).unwrap();
        assert!(d_large.sigma() > d_small.sigma());
    }
}
