//! The paper's contribution: a hybrid compressed-sensing ECG codec built
//! from the workspace substrates.
//!
//! The system of Fig. 1 acquires every processing window twice, in
//! parallel:
//!
//! 1. the **CS channel** — an RMPI taking `m ≪ n` random measurements
//!    (`hybridcs_frontend::Rmpi`), digitized at 12 bits;
//! 2. the **low-resolution channel** — a B-bit Nyquist ADC whose
//!    difference stream is Huffman-coded
//!    ([`hybridcs_coding::LowResCodec`]).
//!
//! At the receiver, [`HybridDecoder`] turns the low-resolution codes into
//! per-sample box bounds and solves the paper's Eq. (1) — box-constrained
//! basis-pursuit denoising — with one program, the lockstep PDHG solve
//! ([`solve_pdhg_batch`](hybridcs_solver::solve_pdhg_batch)) configured by
//! [`SystemConfig::pdhg`]. The same solve without the box,
//! [`HybridDecoder::decode_normal`], is the normal-CS baseline the paper
//! compares against.
//!
//! [`experiment`] hosts the corpus sweep runner used by the figure
//! regenerators (quality vs compression ratio, per-record box plots).
//! [`telemetry`] frames both payloads for a lossy wire, and
//! [`RecoverySupervisor`] walks a graceful-degradation decode ladder over
//! whatever arrives, never failing a window outright.
//!
//! # Example
//!
//! ```
//! use hybridcs_core::{HybridCodec, SystemConfig};
//! use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
//!
//! # fn main() -> Result<(), hybridcs_core::CoreError> {
//! // One 512-sample window at m = 128 measurements (CR = 75%).
//! let config = SystemConfig {
//!     measurements: 128,
//!     ..SystemConfig::default()
//! };
//! let codec = HybridCodec::with_default_training(&config)?;
//! let generator = EcgGenerator::new(GeneratorConfig::normal_sinus())
//!     .expect("default generator config is valid");
//! let strip = generator.generate(2.0, 42);
//! let window = &strip[..config.window];
//!
//! let encoded = codec.encode(window)?;
//! let decoded = codec.decode(&encoded)?;
//! let snr = hybridcs_metrics::snr_db(window, &decoded.signal);
//! assert!(snr > 10.0, "reconstruction SNR {snr} dB");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod codec;
mod config;
mod decoder;
mod encoder;
mod error;
pub mod experiment;
mod supervisor;
pub mod telemetry;
mod training;

pub use adapter::SensingOperator;
pub use codec::{DecodedWindow, EncodedWindow, HybridCodec};
pub use config::SystemConfig;
pub use decoder::HybridDecoder;
pub use encoder::HybridFrontEnd;
pub use error::CoreError;
pub use supervisor::{
    ChosenRung, DecodeLadder, LadderJob, LadderOutcome, LadderRung, LedgerState, ParsedSections,
    RecoverySupervisor, SessionLedger, SupervisedWindow, SupervisorConfig,
};
pub use training::{train_lowres_codec, train_rle_lowres_codec};
