//! Telemetry framing: the wire format both payloads travel in.
//!
//! The paper's Fig. 1 ends at "Transmit"; any real WBSN deployment needs a
//! wire format and a story for corrupted/lost frames. [`FrameCodec`]
//! provides the format, and its per-section CRCs let the two payloads
//! degrade **independently** — a structural advantage of the hybrid design
//! that the paper leaves implicit. Lose the CS section and the
//! low-resolution section still yields a coarse but diagnostically usable
//! trace; lose the low-resolution section and the CS section still decodes
//! as normal CS. The receiver that acts on those verdicts is the decode
//! ladder ([`DecodeLadder`](crate::DecodeLadder)).
//!
//! Wire format (little-endian):
//!
//! ```text
//! magic u16 | seq u32 | m u16 | n u16 | meas_bits u8 | lowres_bits u8
//! | lowres_bit_len u32 | header crc32
//! | CS section (m × meas_bits, bit-packed) | cs crc32
//! | low-res section bytes | lowres crc32
//! ```

use crate::codec::EncodedWindow;
use crate::{CoreError, SystemConfig};
use hybridcs_coding::{crc32, BitReader, BitWriter, CodingError, Payload};
use hybridcs_frontend::MeasurementQuantizer;

const MAGIC: u16 = 0xEC65;

/// Header sanity caps: generous multiples of anything the system ever
/// configures, rejected before allocating for a section.
const MAX_MEASUREMENTS: usize = 4096;
const MAX_WINDOW: usize = 16384;
const MAX_LOWRES_BITS: u32 = 24;
const MAX_LOWRES_BITS_PER_SAMPLE: usize = 64;

/// Serializer/deserializer between [`EncodedWindow`]s and wire bytes.
#[derive(Debug, Clone)]
pub struct FrameCodec {
    config: SystemConfig,
    digitizer: MeasurementQuantizer,
}

/// One parsed frame.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryFrame {
    /// Monotonic frame counter from the sensor.
    pub sequence: u32,
    /// The re-assembled window payload.
    pub encoded: EncodedWindow,
}

/// Per-section integrity verdict of a received frame.
#[derive(Debug, Clone, PartialEq)]
pub struct SectionedFrame {
    /// Frame counter (valid whenever the header passed its CRC).
    pub sequence: u32,
    /// CS measurements, present iff that section's CRC passed.
    pub measurements: Option<Vec<f64>>,
    /// Low-resolution payload, present iff that section's CRC passed.
    pub lowres: Option<Payload>,
}

impl FrameCodec {
    /// Builds a codec for the given system configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration, and
    /// [`CoreError::BadConfig`] for a shape whose frames
    /// [`deserialize_sections`](FrameCodec::deserialize_sections) would
    /// refuse: more than 16384 samples, more than 4096 measurements, or a
    /// low-resolution depth outside 1–24 bits.
    pub fn new(config: &SystemConfig) -> Result<Self, CoreError> {
        config.validate()?;
        if config.window > MAX_WINDOW {
            return Err(CoreError::BadConfig {
                name: "window (beyond the frame header cap)",
                value: config.window as f64,
            });
        }
        if config.measurements > MAX_MEASUREMENTS {
            return Err(CoreError::BadConfig {
                name: "measurements (beyond the frame header cap)",
                value: config.measurements as f64,
            });
        }
        if !(1..=MAX_LOWRES_BITS).contains(&config.lowres_bits) {
            return Err(CoreError::BadConfig {
                name: "lowres_bits (beyond the frame header cap)",
                value: f64::from(config.lowres_bits),
            });
        }
        let digitizer =
            MeasurementQuantizer::new(config.measurement_bits, config.measurement_full_scale_mv)?;
        Ok(FrameCodec {
            config: config.clone(),
            digitizer,
        })
    }

    /// Serializes an encoded window into wire bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::WindowMismatch`] when the window was encoded
    /// under a different configuration, naming the window lengths when
    /// those differ and the measurement counts otherwise.
    pub fn serialize(&self, sequence: u32, window: &EncodedWindow) -> Result<Vec<u8>, CoreError> {
        let _span = hybridcs_obs::span!("frame.serialize");
        if window.window_len != self.config.window {
            return Err(CoreError::WindowMismatch {
                expected: self.config.window,
                actual: window.window_len,
            });
        }
        if window.measurements.len() != self.config.measurements {
            return Err(CoreError::WindowMismatch {
                expected: self.config.measurements,
                actual: window.measurements.len(),
            });
        }
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&sequence.to_le_bytes());
        out.extend_from_slice(&(self.config.measurements as u16).to_le_bytes());
        out.extend_from_slice(&(self.config.window as u16).to_le_bytes());
        out.push(self.config.measurement_bits as u8);
        out.push(self.config.lowres_bits as u8);
        out.extend_from_slice(&(window.lowres.bit_len as u32).to_le_bytes());
        let header_crc = crc32(&out);
        out.extend_from_slice(&header_crc.to_le_bytes());

        // CS section: measurement codes, bit-packed.
        let mut writer = BitWriter::new();
        for code in self.digitizer.codes(&window.measurements) {
            writer.write_bits(u64::from(code), self.config.measurement_bits);
        }
        let (cs_bytes, _) = writer.finish();
        let cs_start = out.len();
        out.extend_from_slice(&cs_bytes);
        let cs_crc = crc32(&out[cs_start..]);
        out.extend_from_slice(&cs_crc.to_le_bytes());

        // Low-resolution section.
        let lr_start = out.len();
        out.extend_from_slice(&window.lowres.bytes);
        let lr_crc = crc32(&out[lr_start..]);
        out.extend_from_slice(&lr_crc.to_le_bytes());
        Ok(out)
    }

    /// Parses wire bytes, validating every CRC; fails on the first bad
    /// section. Use [`FrameCodec::deserialize_sections`] for the
    /// degradation-tolerant path.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Coding`] describing the corruption.
    pub fn deserialize(&self, bytes: &[u8]) -> Result<TelemetryFrame, CoreError> {
        let sectioned = self.deserialize_sections(bytes)?;
        let measurements =
            sectioned
                .measurements
                .ok_or(CoreError::Coding(CodingError::CorruptStream {
                    detail: "CS section failed CRC",
                }))?;
        let lowres = sectioned
            .lowres
            .ok_or(CoreError::Coding(CodingError::CorruptStream {
                detail: "low-res section failed CRC",
            }))?;
        Ok(TelemetryFrame {
            sequence: sectioned.sequence,
            encoded: EncodedWindow {
                measurements,
                lowres,
                window_len: self.config.window,
                measurement_bits: self.config.measurement_bits,
            },
        })
    }

    /// Parses wire bytes with per-section integrity: a bad CS or low-res
    /// CRC clears that section instead of failing the frame.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Coding`] only when the *header* is unusable
    /// (bad magic, truncation, bad header CRC, or config mismatch).
    pub fn deserialize_sections(&self, bytes: &[u8]) -> Result<SectionedFrame, CoreError> {
        let _span = hybridcs_obs::span!("frame.parse");
        const HEADER_LEN: usize = 2 + 4 + 2 + 2 + 1 + 1 + 4;
        let corrupt =
            |detail: &'static str| CoreError::Coding(CodingError::CorruptStream { detail });

        if bytes.len() < HEADER_LEN + 4 {
            return Err(corrupt("frame shorter than header"));
        }
        let (header, rest) = bytes.split_at(HEADER_LEN);
        let stored_header_crc = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        if crc32(header) != stored_header_crc {
            return Err(corrupt("header failed CRC"));
        }
        if u16::from_le_bytes(header[0..2].try_into().expect("2 bytes")) != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let sequence = u32::from_le_bytes(header[2..6].try_into().expect("4 bytes"));
        let m = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes")) as usize;
        let n = u16::from_le_bytes(header[8..10].try_into().expect("2 bytes")) as usize;
        let meas_bits = u32::from(header[10]);
        let lowres_bits = u32::from(header[11]);
        let lowres_bit_len =
            u32::from_le_bytes(header[12..16].try_into().expect("4 bytes")) as usize;
        // Absolute sanity caps, checked before the config comparison and
        // before any section allocation, so an adversarial header that
        // happens to carry a valid CRC still cannot request absurd work.
        if m == 0 || m > MAX_MEASUREMENTS || n == 0 || n > MAX_WINDOW {
            return Err(corrupt("implausible frame geometry"));
        }
        if !(1..=32).contains(&meas_bits) || !(1..=MAX_LOWRES_BITS).contains(&lowres_bits) {
            return Err(corrupt("implausible bit depth"));
        }
        if lowres_bit_len > MAX_LOWRES_BITS_PER_SAMPLE * n {
            return Err(corrupt("implausible low-res payload length"));
        }
        if m != self.config.measurements
            || n != self.config.window
            || meas_bits != self.config.measurement_bits
            || lowres_bits != self.config.lowres_bits
        {
            return Err(corrupt("frame built under a different configuration"));
        }

        let cs_len = (m * meas_bits as usize).div_ceil(8);
        let lr_len = lowres_bit_len.div_ceil(8);
        let body = &rest[4..];
        if body.len() != cs_len + 4 + lr_len + 4 {
            return Err(corrupt("frame body length mismatch"));
        }
        let (cs_section, tail) = body.split_at(cs_len);
        let stored_cs_crc = u32::from_le_bytes(tail[..4].try_into().expect("4 bytes"));
        let (lr_section, lr_tail) = tail[4..].split_at(lr_len);
        let stored_lr_crc = u32::from_le_bytes(lr_tail[..4].try_into().expect("4 bytes"));

        let measurements = if crc32(cs_section) == stored_cs_crc {
            let mut reader = BitReader::new(cs_section, m * meas_bits as usize);
            let mut values = Vec::with_capacity(m);
            for _ in 0..m {
                let code = reader.read_bits(meas_bits).map_err(CoreError::Coding)? as u32;
                values.push(code);
            }
            Some(self.decode_measurement_codes(&values))
        } else {
            None
        };
        let lowres = if crc32(lr_section) == stored_lr_crc {
            Some(Payload {
                bytes: lr_section.to_vec(),
                bit_len: lowres_bit_len,
            })
        } else {
            None
        };
        Ok(SectionedFrame {
            sequence,
            measurements,
            lowres,
        })
    }

    fn decode_measurement_codes(&self, codes: &[u32]) -> Vec<f64> {
        // Mid-tread reconstruction mirrors the digitizer used on encode.
        let step = self.digitizer.step();
        let lo = -self.config.measurement_full_scale_mv;
        codes
            .iter()
            .map(|&c| lo + (f64::from(c) + 0.5) * step)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::default_training_windows;
    use crate::{train_lowres_codec, DecodeLadder, HybridFrontEnd};
    use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
    use hybridcs_solver::WatchdogConfig;

    fn config() -> SystemConfig {
        SystemConfig {
            measurements: 64,
            ..SystemConfig::default()
        }
    }

    fn encoded_window(config: &SystemConfig) -> EncodedWindow {
        let codec =
            train_lowres_codec(config.lowres_bits, &default_training_windows(config.window))
                .unwrap();
        let frontend = HybridFrontEnd::new(config, codec).unwrap();
        let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
        let window = generator.generate(2.0, 0x7E1E)[..config.window].to_vec();
        frontend.encode(&window).unwrap()
    }

    #[test]
    fn clean_frame_roundtrips() {
        let config = config();
        let encoded = encoded_window(&config);
        let codec = FrameCodec::new(&config).unwrap();
        let bytes = codec.serialize(7, &encoded).unwrap();
        let frame = codec.deserialize(&bytes).unwrap();
        assert_eq!(frame.sequence, 7);
        assert_eq!(frame.encoded.lowres, encoded.lowres);
        for (a, b) in frame.encoded.measurements.iter().zip(&encoded.measurements) {
            assert!((a - b).abs() < 1e-9, "measurement drift {a} vs {b}");
        }
    }

    #[test]
    fn config_mismatch_is_rejected() {
        let config = config();
        let encoded = encoded_window(&config);
        let bytes = FrameCodec::new(&config)
            .unwrap()
            .serialize(4, &encoded)
            .unwrap();
        let other_config = SystemConfig {
            measurements: 96,
            ..SystemConfig::default()
        };
        let other = FrameCodec::new(&other_config).unwrap();
        assert!(other.deserialize_sections(&bytes).is_err());
    }

    /// Every shape `FrameCodec::new` accepts must parse back, so shapes past
    /// the header caps are refused up front (and with them the ladder);
    /// `serialize` names the counts that actually differ.
    #[test]
    fn shapes_beyond_the_header_caps_are_refused_and_mismatches_name_their_counts() {
        let shape = |n, m, bits| SystemConfig {
            window: n,
            measurements: m,
            lowres_bits: bits,
            ..SystemConfig::default()
        };
        let (window, measurements, lowres_bits) = (
            "window (beyond the frame header cap)",
            "measurements (beyond the frame header cap)",
            "lowres_bits (beyond the frame header cap)",
        );
        let lowres = train_lowres_codec(7, &default_training_windows(512)).unwrap();
        for (config, name, value) in [
            (shape(32768, 96, 7), window, 32768.0),
            (shape(32768, 5000, 7), window, 32768.0),
            (shape(65536, 96, 7), window, 65536.0),
            (shape(16384, 5000, 7), measurements, 5000.0),
            (shape(512, 96, 25), lowres_bits, 25.0),
        ] {
            config.validate().unwrap();
            let refused = Err(CoreError::BadConfig { name, value });
            assert_eq!(FrameCodec::new(&config).map(|_| ()), refused);
            let ladder = DecodeLadder::new(&config, lowres.clone(), WatchdogConfig::default());
            assert_eq!(ladder.map(|_| ()), refused);
        }
        assert!(FrameCodec::new(&shape(16384, 4096, 7)).is_ok());

        let config = config();
        let codec = FrameCodec::new(&config).unwrap();
        let mut encoded = encoded_window(&config);
        encoded.measurements.pop();
        assert_eq!(
            codec.serialize(0, &encoded),
            Err(CoreError::WindowMismatch {
                expected: 64,
                actual: 63,
            })
        );
        encoded.window_len = 256;
        assert_eq!(
            codec.serialize(0, &encoded),
            Err(CoreError::WindowMismatch {
                expected: 512,
                actual: 256,
            })
        );
    }
}
