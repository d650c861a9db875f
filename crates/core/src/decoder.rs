use crate::codec::{DecodedWindow, EncodedWindow};
use crate::{CoreError, DecoderAlgorithm, SensingOperator, SystemConfig};
use hybridcs_coding::LowResCodec;
use hybridcs_dsp::Dwt;
use hybridcs_frontend::{LowResChannel, LowResFrame, MeasurementQuantizer, SensingMatrix};
use hybridcs_solver::{
    solve_admm_workspace, solve_pdhg_batch_workspace, solve_pdhg_workspace,
    solve_reweighted_workspace, BatchProblem, BpdnProblem, IterationObserver, LinearOperator,
    NoopObserver, RecoveryResult, SolverError, SolverWorkspace,
};

/// One window's entropy-decoded box bounds (`lo`, `hi`).
type BoxBounds = (Vec<f64>, Vec<f64>);

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
        self.decode_with_box(encoded, true)
    }

    /// Decodes one window ignoring the low-resolution side information —
    /// the paper's "normal CS" baseline on identical measurements.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HybridDecoder::decode`].
    pub fn decode_normal(&self, encoded: &EncodedWindow) -> Result<DecodedWindow, CoreError> {
        self.decode_with_box(encoded, false)
    }

    fn decode_with_box(
        &self,
        encoded: &EncodedWindow,
        use_box: bool,
    ) -> Result<DecodedWindow, CoreError> {
        self.decode_workspace(
            encoded,
            use_box,
            &mut NoopObserver,
            &mut SolverWorkspace::new(),
        )
    }

    /// [`HybridDecoder::decode`] (or, with `use_box = false`,
    /// [`HybridDecoder::decode_normal`]) with an [`IterationObserver`]
    /// receiving the configured solver's per-iteration events and final
    /// [`ConvergenceTrace`](hybridcs_solver::ConvergenceTrace), drawing all
    /// solver buffers from a caller-owned [`SolverWorkspace`]. Reusing one
    /// workspace across windows keeps the solver inner loop allocation-free
    /// after warm-up; results are bit-identical to the plain entry points.
    ///
    /// # Errors
    ///
    /// Same conditions as [`HybridDecoder::decode`].
    pub fn decode_workspace(
        &self,
        encoded: &EncodedWindow,
        use_box: bool,
        observer: &mut dyn IterationObserver,
        ws: &mut SolverWorkspace,
    ) -> Result<DecodedWindow, CoreError> {
        let _span = hybridcs_obs::span!("decode");
        let bounds = self.prepare_window(encoded, use_box)?;
        let operator = SensingOperator::with_norm(&self.sensing, self.sensing_norm);
        let problem = BpdnProblem {
            sensing: &operator,
            dwt: &self.dwt,
            measurements: &encoded.measurements,
            sigma: self.sigma,
            box_bounds: bounds.as_ref().map(|(lo, hi)| (&lo[..], &hi[..])),
            coefficient_weights: None,
        };
        let recovery = {
            let _span = hybridcs_obs::span!("decode.solve");
            match &self.config.algorithm {
                DecoderAlgorithm::Pdhg(opts) => solve_pdhg_workspace(&problem, opts, observer, ws)?,
                DecoderAlgorithm::Admm(opts) => solve_admm_workspace(&problem, opts, observer, ws)?,
                DecoderAlgorithm::Reweighted(opts) => {
                    solve_reweighted_workspace(&problem, opts, observer, ws)?
                }
            }
        };
        Ok(DecodedWindow {
            signal: recovery.signal.clone(),
            recovery,
            used_box: use_box,
        })
    }

    /// Shape checks and (when `use_box`) entropy-decoding of the low-res
    /// bounds for one window — everything in a decode that is per-window
    /// and precedes the solver.
    fn prepare_window(
        &self,
        encoded: &EncodedWindow,
        use_box: bool,
    ) -> Result<Option<BoxBounds>, CoreError> {
        if encoded.window_len != self.config.window {
            return Err(CoreError::WindowMismatch {
                expected: self.config.window,
                actual: encoded.window_len,
            });
        }
        if encoded.measurements.len() != self.config.measurements {
            return Err(CoreError::WindowMismatch {
                expected: self.config.measurements,
                actual: encoded.measurements.len(),
            });
        }
        if use_box {
            let _span = hybridcs_obs::span!("decode.bounds");
            let codes = self
                .lowres_codec
                .decode(&encoded.lowres, encoded.window_len)?;
            let frame = LowResFrame::from_codes(codes, &self.lowres_channel)?;
            Ok(Some(frame.bounds()))
        } else {
            Ok(None)
        }
    }

    /// Decodes a batch of same-shape windows, bit-identical per window to
    /// calling [`decode_workspace`](HybridDecoder::decode_workspace) on
    /// each. Under PDHG the windows run as one lockstep solve over K-wide
    /// panels, so the packed-sign and wavelet kernels amortize their table
    /// work across the batch (and vectorize across it when SIMD is
    /// enabled). PDHG is the only algorithm with a lockstep solver: under
    /// ADMM or reweighted ℓ₁ each window goes through `decode_workspace` in
    /// turn.
    ///
    /// Each window gets its own result slot in `out` (in input order) and
    /// its own observer. Windows that fail their per-window pre-checks
    /// (shape mismatch, undecodable low-res section) get exactly the error
    /// the one-window path would produce, without disturbing their
    /// batch-mates; a batch-level solver rejection (e.g. a non-finite
    /// window) re-runs the group serially so per-window errors still land
    /// in the right slots.
    ///
    /// # Errors
    ///
    /// Errs only on a malformed *batch* (observer count ≠ window count);
    /// per-window failures are reported in `out`.
    pub fn decode_batch_workspace(
        &self,
        encoded: &[&EncodedWindow],
        use_box: bool,
        observers: &mut [&mut dyn IterationObserver],
        ws: &mut SolverWorkspace,
        out: &mut Vec<Result<DecodedWindow, CoreError>>,
    ) -> Result<(), CoreError> {
        let _span = hybridcs_obs::span!("decode.batch");
        if observers.len() != encoded.len() {
            return Err(CoreError::Solver(SolverError::DimensionMismatch {
                what: "observers vs batch windows",
                expected: encoded.len(),
                actual: observers.len(),
            }));
        }
        out.clear();
        let DecoderAlgorithm::Pdhg(options) = &self.config.algorithm else {
            for (enc, obs) in encoded.iter().zip(observers.iter_mut()) {
                out.push(self.decode_workspace(enc, use_box, &mut **obs, ws));
            }
            return Ok(());
        };

        let mut staged: Vec<Option<Result<DecodedWindow, CoreError>>> =
            (0..encoded.len()).map(|_| None).collect();
        let mut bounds: Vec<Option<BoxBounds>> = vec![None; encoded.len()];
        let mut pending: Vec<usize> = Vec::new();
        for (i, enc) in encoded.iter().enumerate() {
            match self.prepare_window(enc, use_box) {
                Ok(b) => {
                    bounds[i] = b;
                    pending.push(i);
                }
                Err(e) => staged[i] = Some(Err(e)),
            }
        }

        if !pending.is_empty() {
            let operator = SensingOperator::with_norm(&self.sensing, self.sensing_norm);
            let problems: Vec<BpdnProblem<'_>> = pending
                .iter()
                .map(|&i| BpdnProblem {
                    sensing: &operator,
                    dwt: &self.dwt,
                    measurements: &encoded[i].measurements,
                    sigma: self.sigma,
                    box_bounds: bounds[i].as_ref().map(|(lo, hi)| (&lo[..], &hi[..])),
                    coefficient_weights: None,
                })
                .collect();
            let mut results: Vec<Option<RecoveryResult>> = Vec::new();
            let solved = match BatchProblem::new(&problems) {
                Err(_) => false,
                Ok(batch) => {
                    // The `as` cast re-derives the trait-object lifetime from
                    // this short reborrow, so `observers` is usable again on
                    // the serial fallback below.
                    let mut refs: Vec<&mut dyn IterationObserver> = observers
                        .iter_mut()
                        .enumerate()
                        .filter(|(i, _)| pending.binary_search(i).is_ok())
                        .map(|(_, obs)| &mut **obs as &mut dyn IterationObserver)
                        .collect();
                    let _span = hybridcs_obs::span!("decode.solve");
                    solve_pdhg_batch_workspace(&batch, options, &mut refs, ws, &mut results).is_ok()
                }
            };
            if solved {
                for (&slot, recovery) in pending.iter().zip(results) {
                    let recovery = recovery.expect("batch solvers fill every window");
                    staged[slot] = Some(Ok(DecodedWindow {
                        signal: recovery.signal.clone(),
                        recovery,
                        used_box: use_box,
                    }));
                }
            } else {
                // Batch construction/validation rejected the group before a
                // single iteration ran (e.g. one window's measurements are
                // non-finite). Re-raise per window through the serial path so
                // each slot gets exactly the one-window error or result.
                for &i in &pending {
                    staged[i] =
                        Some(self.decode_workspace(encoded[i], use_box, &mut *observers[i], ws));
                }
            }
        }
        out.extend(
            staged
                .into_iter()
                .map(|slot| slot.expect("every window staged")),
        );
        Ok(())
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

    fn assert_window_bits(batch: &DecodedWindow, serial: &DecodedWindow) {
        assert_eq!(batch.used_box, serial.used_box);
        assert_eq!(batch.recovery.iterations, serial.recovery.iterations);
        assert_eq!(batch.recovery.converged, serial.recovery.converged);
        assert_eq!(
            batch.recovery.residual.to_bits(),
            serial.recovery.residual.to_bits()
        );
        assert_eq!(
            batch.recovery.objective.to_bits(),
            serial.recovery.objective.to_bits()
        );
        assert_eq!(batch.signal.len(), serial.signal.len());
        for (a, b) in batch.signal.iter().zip(&serial.signal) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn batch_decode_bit_identical_to_serial() {
        use hybridcs_solver::{AdmmOptions, PdhgOptions, ReweightedOptions};
        let pdhg = PdhgOptions {
            max_iterations: 300,
            ..PdhgOptions::default()
        };
        let algorithms = [
            DecoderAlgorithm::Pdhg(pdhg),
            DecoderAlgorithm::Reweighted(ReweightedOptions {
                outer_iterations: 2,
                inner: pdhg,
                ..ReweightedOptions::default()
            }),
            DecoderAlgorithm::Admm(AdmmOptions {
                max_iterations: 60,
                ..AdmmOptions::default()
            }),
        ];
        for algorithm in algorithms {
            let config = SystemConfig {
                measurements: 64,
                algorithm,
                ..SystemConfig::default()
            };
            let (fe, dec) = pair(&config);
            let encoded: Vec<EncodedWindow> = (0..3)
                .map(|w| fe.encode(&ecg_window(&config, 23 + w)).unwrap())
                .collect();
            for use_box in [true, false] {
                let mut ws = hybridcs_solver::SolverWorkspace::new();
                let serial: Vec<DecodedWindow> = encoded
                    .iter()
                    .map(|enc| {
                        dec.decode_workspace(enc, use_box, &mut NoopObserver, &mut ws)
                            .unwrap()
                    })
                    .collect();
                let refs: Vec<&EncodedWindow> = encoded.iter().collect();
                let mut noops = vec![NoopObserver; refs.len()];
                let mut obs: Vec<&mut dyn IterationObserver> = noops
                    .iter_mut()
                    .map(|o| o as &mut dyn IterationObserver)
                    .collect();
                let mut out = Vec::new();
                dec.decode_batch_workspace(&refs, use_box, &mut obs, &mut ws, &mut out)
                    .unwrap();
                assert_eq!(out.len(), serial.len());
                for (got, want) in out.iter().zip(&serial) {
                    assert_window_bits(got.as_ref().unwrap(), want);
                }
            }
        }
    }

    #[test]
    fn batch_decode_isolates_per_window_errors() {
        let config = SystemConfig {
            measurements: 64,
            ..SystemConfig::default()
        };
        let (fe, dec) = pair(&config);
        let good_a = fe.encode(&ecg_window(&config, 29)).unwrap();
        let good_b = fe.encode(&ecg_window(&config, 31)).unwrap();
        let mut bad = good_a.clone();
        bad.window_len += 1;
        let mut ws = hybridcs_solver::SolverWorkspace::new();
        let serial_a = dec
            .decode_workspace(&good_a, true, &mut NoopObserver, &mut ws)
            .unwrap();
        let serial_b = dec
            .decode_workspace(&good_b, true, &mut NoopObserver, &mut ws)
            .unwrap();
        let refs: Vec<&EncodedWindow> = vec![&good_a, &bad, &good_b];
        let mut noops = vec![NoopObserver; refs.len()];
        let mut obs: Vec<&mut dyn IterationObserver> = noops
            .iter_mut()
            .map(|o| o as &mut dyn IterationObserver)
            .collect();
        let mut out = Vec::new();
        dec.decode_batch_workspace(&refs, true, &mut obs, &mut ws, &mut out)
            .unwrap();
        assert_window_bits(out[0].as_ref().unwrap(), &serial_a);
        assert!(matches!(out[1], Err(CoreError::WindowMismatch { .. })));
        assert_window_bits(out[2].as_ref().unwrap(), &serial_b);

        // The batch itself is only malformed when observers don't pair up.
        let mut lone = NoopObserver;
        let mut short: Vec<&mut dyn IterationObserver> = vec![&mut lone];
        assert!(dec
            .decode_batch_workspace(&refs, true, &mut short, &mut ws, &mut out)
            .is_err());
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
