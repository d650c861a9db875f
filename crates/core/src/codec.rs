use crate::{CoreError, HybridDecoder, HybridFrontEnd, SystemConfig};
use hybridcs_coding::Payload;
use hybridcs_solver::RecoveryResult;

/// One transmitted window: digitized CS measurements plus the
/// entropy-coded low-resolution stream.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedWindow {
    /// Digitized RMPI measurements (length = configured `measurements`).
    pub measurements: Vec<f64>,
    /// Huffman-coded low-resolution payload.
    pub lowres: Payload,
    /// Window length in samples (for decode-side validation).
    pub window_len: usize,
    /// Bits per transmitted measurement.
    pub measurement_bits: u32,
}

impl EncodedWindow {
    /// CS-channel payload size in bits.
    #[must_use]
    pub fn cs_payload_bits(&self) -> usize {
        self.measurements.len() * self.measurement_bits as usize
    }

    /// Low-resolution-channel payload size in bits.
    #[must_use]
    pub fn lowres_payload_bits(&self) -> usize {
        self.lowres.bit_len
    }

    /// Total transmitted bits for this window.
    #[must_use]
    pub fn total_bits(&self) -> usize {
        self.cs_payload_bits() + self.lowres_payload_bits()
    }

    /// Net compression ratio against an `original_bits`-per-sample source
    /// (Eq. 3 applied to the full hybrid payload).
    #[must_use]
    pub fn net_compression_ratio(&self, original_bits: u32) -> f64 {
        hybridcs_metrics::compression_ratio_percent(
            self.window_len * original_bits as usize,
            self.total_bits(),
        )
    }
}

/// One reconstructed window.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedWindow {
    /// The reconstructed signal in millivolts.
    pub signal: Vec<f64>,
    /// Full solver report (iterations, residual, objective).
    pub recovery: RecoveryResult,
    /// Whether the low-resolution box constraint was used.
    pub used_box: bool,
}

/// Convenience bundle of a matched encoder/decoder pair — the full hybrid
/// system of Fig. 1.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct HybridCodec {
    frontend: HybridFrontEnd,
    decoder: HybridDecoder,
}

impl HybridCodec {
    /// Builds a codec pair, training the low-resolution codebook on the
    /// built-in offline training set (disjoint from evaluation seeds).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration.
    pub fn with_default_training(config: &SystemConfig) -> Result<Self, CoreError> {
        let windows = crate::training::default_training_windows(config.window);
        let codec = crate::train_lowres_codec(config.lowres_bits, &windows)?;
        Ok(HybridCodec {
            frontend: HybridFrontEnd::new(config, codec.clone())?,
            decoder: HybridDecoder::new(config, codec)?,
        })
    }

    /// Builds a codec pair from an externally trained low-resolution codec.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration or mismatched
    /// codec bit depth.
    pub fn new(
        config: &SystemConfig,
        lowres_codec: hybridcs_coding::LowResCodec,
    ) -> Result<Self, CoreError> {
        Ok(HybridCodec {
            frontend: HybridFrontEnd::new(config, lowres_codec.clone())?,
            decoder: HybridDecoder::new(config, lowres_codec)?,
        })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.frontend.config()
    }

    /// The sensor-side front end.
    #[must_use]
    pub fn frontend(&self) -> &HybridFrontEnd {
        &self.frontend
    }

    /// The receiver-side decoder.
    #[must_use]
    pub fn decoder(&self) -> &HybridDecoder {
        &self.decoder
    }

    /// Encodes one window.
    ///
    /// # Errors
    ///
    /// See [`HybridFrontEnd::encode`].
    pub fn encode(&self, window_mv: &[f64]) -> Result<EncodedWindow, CoreError> {
        self.frontend.encode(window_mv)
    }

    /// Decodes one window with the hybrid (box-constrained) reconstruction.
    ///
    /// # Errors
    ///
    /// See [`HybridDecoder::decode`].
    pub fn decode(&self, encoded: &EncodedWindow) -> Result<DecodedWindow, CoreError> {
        self.decoder.decode(encoded)
    }

    /// Decodes one window with the normal-CS baseline reconstruction: the
    /// paper's single-channel digital-CS system, the same measurements
    /// solved without the low-resolution box.
    ///
    /// # Errors
    ///
    /// See [`HybridDecoder::decode_normal`].
    pub fn decode_normal(&self, encoded: &EncodedWindow) -> Result<DecodedWindow, CoreError> {
        self.decoder.decode_normal(encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridcs_ecg::{EcgGenerator, GeneratorConfig};

    fn ecg_window(n: usize, seed: u64) -> Vec<f64> {
        let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
        generator.generate(2.0, seed)[..n].to_vec()
    }

    #[test]
    fn rate_accounting_adds_up() {
        let config = SystemConfig::default();
        let codec = HybridCodec::with_default_training(&config).unwrap();
        let window = ecg_window(512, 21);
        let encoded = codec.encode(&window).unwrap();
        assert_eq!(encoded.cs_payload_bits(), 96 * 12);
        assert!(encoded.lowres_payload_bits() > 0);
        assert_eq!(
            encoded.total_bits(),
            encoded.cs_payload_bits() + encoded.lowres_payload_bits()
        );
        // Net CR: 81.25% CS compression minus the low-res overhead.
        let net = encoded.net_compression_ratio(12);
        assert!(net > 60.0 && net < 81.25, "net CR {net}");
    }

    #[test]
    fn normal_codec_ignores_box() {
        let config = SystemConfig {
            measurements: 64,
            ..SystemConfig::default()
        };
        let codec = HybridCodec::with_default_training(&config).unwrap();
        let window = ecg_window(512, 23);
        let encoded = codec.encode(&window).unwrap();
        let decoded = codec.decode_normal(&encoded).unwrap();
        assert!(!decoded.used_box);
        assert_eq!(decoded.signal.len(), 512);
    }
}
