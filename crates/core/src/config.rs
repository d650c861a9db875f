use crate::CoreError;
use hybridcs_dsp::{Dwt, Wavelet};
use hybridcs_solver::PdhgOptions;

/// End-to-end system configuration shared by encoder and decoder.
///
/// Both sides construct the sensing matrix from `(measurements, window,
/// seed)`, so a config value is the *entire* shared state — nothing else
/// crosses the air interface besides the per-window payloads.
///
/// # Example
///
/// ```
/// use hybridcs_core::SystemConfig;
///
/// let config = SystemConfig::for_compression_ratio(81.25).unwrap();
/// assert_eq!(config.measurements, 96);
/// assert!((config.cs_compression_ratio() - 81.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Processing-window length `n` in samples (512 ≈ 1.42 s at 360 Hz).
    pub window: usize,
    /// Sparsifying wavelet family.
    pub wavelet: Wavelet,
    /// DWT decomposition depth.
    pub levels: usize,
    /// CS measurements per window `m` (= RMPI channels).
    pub measurements: usize,
    /// Low-resolution channel bit depth `B` (the paper settles on 7).
    pub lowres_bits: u32,
    /// CS-measurement digitizer resolution (the paper uses 12).
    pub measurement_bits: u32,
    /// Digitizer full scale in millivolts.
    pub measurement_full_scale_mv: f64,
    /// Chipping-sequence seed shared between encoder and decoder.
    pub seed: u64,
    /// Safety factor applied to the analytic quantization-noise radius
    /// when forming the solver's fidelity budget σ.
    pub sigma_scale: f64,
    /// Bit depth the compression-ratio accounting treats as "original"
    /// (the paper uses 12-bit originals).
    pub original_bits: u32,
    /// The decoder's PDHG solver options (Eq. (1) is its one program).
    pub pdhg: PdhgOptions,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            window: 512,
            wavelet: Wavelet::Db4,
            levels: 5,
            measurements: 96,
            lowres_bits: 7,
            measurement_bits: 12,
            measurement_full_scale_mv: 2.5,
            seed: 0xEC61,
            sigma_scale: 1.5,
            original_bits: 12,
            pdhg: PdhgOptions::default(),
        }
    }
}

impl SystemConfig {
    /// A config whose CS channel alone achieves (approximately) the given
    /// compression ratio: `m = round(n·(1 − cr/100))`, clamped to `[1, n]`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for ratios outside `(0, 100)`.
    pub fn for_compression_ratio(cr_percent: f64) -> Result<Self, CoreError> {
        if !(0.0..100.0).contains(&cr_percent) || cr_percent == 0.0 {
            return Err(CoreError::BadConfig {
                name: "compression_ratio",
                value: cr_percent,
            });
        }
        let base = SystemConfig::default();
        let m = ((base.window as f64) * (1.0 - cr_percent / 100.0)).round() as usize;
        Ok(SystemConfig {
            measurements: m.clamp(1, base.window),
            ..base
        })
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] (or [`CoreError::Transform`]) on
    /// the first inconsistent field.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.window == 0 {
            return Err(CoreError::BadConfig {
                name: "window",
                value: 0.0,
            });
        }
        if self.measurements == 0 || self.measurements > self.window {
            return Err(CoreError::BadConfig {
                name: "measurements",
                value: self.measurements as f64,
            });
        }
        if self.sigma_scale <= 0.0 || !self.sigma_scale.is_finite() {
            return Err(CoreError::BadConfig {
                name: "sigma_scale",
                value: self.sigma_scale,
            });
        }
        if self.original_bits == 0 {
            return Err(CoreError::BadConfig {
                name: "original_bits",
                value: 0.0,
            });
        }
        // DWT must support the window length.
        self.dwt()?.layout(self.window)?;
        Ok(())
    }

    /// The configured wavelet transform.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Transform`] when `levels` is zero.
    pub fn dwt(&self) -> Result<Dwt, CoreError> {
        Ok(Dwt::new(self.wavelet, self.levels)?)
    }

    /// Compression ratio of the CS channel alone (Eq. 3 with equal bit
    /// widths): `(1 − m/n)·100`.
    #[must_use]
    pub fn cs_compression_ratio(&self) -> f64 {
        (1.0 - self.measurements as f64 / self.window as f64) * 100.0
    }

    /// Undersampling fraction `δ = m/n` (the paper's Fig. 9 parameter).
    #[must_use]
    pub fn delta(&self) -> f64 {
        self.measurements as f64 / self.window as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        assert!(SystemConfig::default().validate().is_ok());
    }

    #[test]
    fn paper_operating_points() {
        let cfg = SystemConfig::default();
        // m = 96 over n = 512 is the paper's 20 dB hybrid point: CR 81.25%.
        assert!((cfg.cs_compression_ratio() - 81.25).abs() < 1e-9);
        assert!((cfg.delta() - 0.1875).abs() < 1e-9);
    }

    #[test]
    fn for_compression_ratio_inverts() {
        for cr in [50.0, 62.0, 81.25, 96.875] {
            let cfg = SystemConfig::for_compression_ratio(cr).unwrap();
            assert!(
                (cfg.cs_compression_ratio() - cr).abs() < 0.2,
                "cr {cr} -> m {}",
                cfg.measurements
            );
        }
    }

    #[test]
    fn for_compression_ratio_rejects_out_of_range() {
        assert!(SystemConfig::for_compression_ratio(0.0).is_err());
        assert!(SystemConfig::for_compression_ratio(100.0).is_err());
        assert!(SystemConfig::for_compression_ratio(-5.0).is_err());
    }

    #[test]
    fn extreme_cr_clamps_to_one_measurement() {
        let cfg = SystemConfig::for_compression_ratio(99.99).unwrap();
        assert_eq!(cfg.measurements, 1);
    }

    #[test]
    fn validate_rejects_bad_fields() {
        let bad = [
            SystemConfig {
                measurements: 0,
                ..SystemConfig::default()
            },
            SystemConfig {
                measurements: 1000,
                ..SystemConfig::default()
            },
            SystemConfig {
                sigma_scale: -1.0,
                ..SystemConfig::default()
            },
            SystemConfig {
                window: 500, // not divisible by 2^5
                ..SystemConfig::default()
            },
            SystemConfig {
                original_bits: 0,
                ..SystemConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err());
        }
    }
}
