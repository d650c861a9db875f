//! Entropy-coding substrate for the low-resolution channel: bit-level I/O,
//! delta coding, and canonical Huffman with offline-trained codebooks.
//!
//! Section III-B of the paper observes that the low-resolution channel's
//! quantized samples are highly repetitive, so it transmits the
//! **first-difference** stream compressed with a Huffman code whose codebook
//! is trained offline and stored on the node (68 bytes at the chosen 7-bit
//! operating point). This crate reproduces that chain:
//!
//! * [`BitWriter`] / [`BitReader`] — MSB-first bit-level I/O.
//! * [`delta_encode`] / [`delta_decode`] — difference coding of quantizer
//!   codes.
//! * [`HuffmanCodebook`] — offline training from difference histograms,
//!   canonical code assignment, serialization (whose byte count regenerates
//!   Fig. 5) and an escape mechanism for symbols unseen during training.
//! * [`LowResCodec`] — the end-to-end frame codec: first sample raw, then
//!   Huffman-coded differences (regenerates Fig. 6 / Table I).
//!
//! Beside them sit the integrity and record primitives the receive side
//! shares: [`crc32`], and [`ByteWriter`] / [`ByteReader`], the
//! little-endian record codec of the gateway journal and the ingest wire
//! protocol.
//!
//! # Example
//!
//! ```
//! use hybridcs_coding::{HuffmanCodebook, LowResCodec};
//!
//! # fn main() -> Result<(), hybridcs_coding::CodingError> {
//! // Train on a typical difference distribution, then round-trip a frame.
//! let training = vec![vec![64, 64, 65, 66, 66, 65, 64, 63, 63, 64]];
//! let codebook = HuffmanCodebook::train_from_code_sequences(training.iter().map(|v| &v[..]))?;
//! let codec = LowResCodec::new(codebook, 7)?;
//! let frame = vec![64, 65, 65, 64, 63, 64];
//! let bits = codec.encode(&frame)?;
//! assert_eq!(codec.decode(&bits, frame.len())?, frame);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitstream;
mod crc;
mod delta;
mod error;
mod frame_codec;
mod huffman;
mod record;
mod rle;

pub use bitstream::{BitReader, BitWriter};
pub use crc::crc32;
pub use delta::{delta_decode, delta_encode};
pub use error::CodingError;
pub use frame_codec::{LowResCodec, Payload};
pub use huffman::HuffmanCodebook;
pub use record::{ByteReader, ByteWriter, Malformed};
pub use rle::RleLowResCodec;
