//! Acquisition front-end substrate: ADC models, quantizers, the parallel
//! low-resolution channel, and the RMPI compressed-sensing channel.
//!
//! This crate is the behavioural model of the hardware in Fig. 1 and Fig. 3
//! of the paper:
//!
//! * [`Quantizer`] — uniform floor/mid-tread quantizers with exact cell
//!   bounds. The *floor* convention is what turns the paper's low-resolution
//!   samples into the hard constraint `ẋ ≤ x < ẋ + d` of Eq. (1).
//! * [`AdcModel`] — sampling + input noise + quantization, used both for the
//!   low-resolution Nyquist path and for digitizing CS measurements.
//! * [`LowResChannel`] — the parallel ultra-low-power path: a B-bit floor
//!   quantizer over the MIT-BIH ±5.12 mV span producing codes and
//!   reconstruction bounds.
//! * [`ChippingSequence`] — ±1 pseudo-random modulation sequences, one per
//!   RMPI channel.
//! * [`SensingMatrix`] — dense Bernoulli (`±1/√n`, the exact RMPI
//!   integrate-and-dump model) and sparse binary sensing operators with
//!   forward/adjoint application.
//! * [`Rmpi`] — the m-channel random-modulator pre-integrator: chipping,
//!   integration over the processing window, optional input-referred
//!   amplifier noise, and measurement quantization
//!   ([`MeasurementQuantizer`]).
//!
//! # Example
//!
//! ```
//! use hybridcs_frontend::{LowResChannel, Rmpi, RmpiConfig};
//!
//! # fn main() -> Result<(), hybridcs_frontend::FrontEndError> {
//! let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.05).sin()).collect();
//! // CS path: 64 channels over a 512-sample window.
//! let rmpi = Rmpi::new(RmpiConfig { channels: 64, window: 512, seed: 7, ..RmpiConfig::default() })?;
//! let y = rmpi.measure(&x);
//! assert_eq!(y.len(), 64);
//! // Low-resolution path: 7-bit parallel ADC.
//! let lowres = LowResChannel::new(7)?;
//! let frame = lowres.acquire(&x);
//! let (lo, hi) = frame.bounds();
//! assert!(x.iter().zip(&lo).zip(&hi).all(|((v, l), h)| l <= v && v < h));
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: `sensing::batch_kernels` scopes a single
// `allow(unsafe_code)` around its width-generic packed-sign panel
// bodies, which read and write the panels and tables through raw
// pointers; everything else still refuses unsafe at compile time.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod adc;
mod chipping;
mod error;
mod lowres;
mod quantizer;
mod rmpi;
mod sensing;

pub use adc::{AdcModel, MeasurementQuantizer};
pub use chipping::ChippingSequence;
pub use error::FrontEndError;
pub use lowres::{LowResChannel, LowResFrame};
pub use quantizer::{Quantizer, QuantizerKind};
pub use rmpi::{Rmpi, RmpiConfig, StuckChip};
pub use sensing::SensingMatrix;

/// MIT-BIH analog span in millivolts: an 11-bit converter at 200 adu/mV
/// covers ±5.12 mV.
pub const MIT_BIH_SPAN_MV: (f64, f64) = (-5.12, 5.12);
