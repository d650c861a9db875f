//! Hermetic socket ingest tier for the compressed-sensing gateway.
//!
//! The paper's topology is many ultra-low-power sensors streaming
//! compressed ECG frames to one powerful aggregator. Up to PR 7 that
//! aggregator — the [`hybridcs_gateway`] — consumed pre-interleaved
//! in-process frame vectors; this crate gives it an actual network edge,
//! built from nothing but `std`:
//!
//! * [`proto`] — the wire protocol: length-prefixed CRC-framed messages
//!   (the journal's framing discipline plus a resync magic) and an
//!   incremental [`StreamDecoder`] that survives arbitrary chunking,
//!   truncation, and corruption without panicking;
//! * [`server`] — [`IngestServer`]: a non-blocking TCP listener driven by
//!   a hand-rolled poll loop (no tokio, no mio), demultiplexing
//!   connections into the gateway with fingerprint-checked handshakes,
//!   epoch time-sync, cumulative-credit receive windows, and overload
//!   shedding coupled to the gateway's admission quotas;
//! * [`client`] — [`DeviceClient`]: the matching poll-style device,
//!   streaming pre-encoded frames through a
//!   [`FaultyTransport`](hybridcs_faults::FaultyTransport) radio with
//!   nack-driven retransmission and heartbeat liveness.
//!
//! The protocol state machine, the backpressure → admission-quota
//! coupling, and the determinism argument for the socket path (the
//! [`IngestOp`] log and its replay audits) are documented in `DESIGN.md`
//! §13; `examples/ingest_soak.rs` drives the whole tier over loopback at
//! thousands of concurrent sessions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, DeviceClient, DevicePhase, DeviceStats};
pub use proto::{Message, RejectCode, StreamDecoder, MAX_PAYLOAD_BYTES, PROTO_VERSION};
pub use server::{
    replay_ops, session_major, IngestConfig, IngestOp, IngestServer, PollReport, ShapeTable,
};

/// Errors surfaced by the ingest tier. Wire noise is *not* an error —
/// garbled frames are resynced and counted; these are configuration
/// mistakes, socket-setup failures, or gateway protocol violations
/// (which indicate a bug in the bridge, not in the peer).
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A socket operation needed for setup failed.
    Io {
        /// Which operation (`"bind"`, `"local_addr"`, ...).
        op: &'static str,
        /// The rendered `std::io::Error`.
        detail: String,
    },
    /// The embedded gateway rejected a bridge call.
    Gateway(hybridcs_gateway::GatewayError),
    /// The ingest configuration is invalid.
    Config(&'static str),
}

impl NetError {
    pub(crate) fn io(op: &'static str, e: &std::io::Error) -> Self {
        NetError::Io {
            op,
            detail: e.to_string(),
        }
    }
}

impl core::fmt::Display for NetError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NetError::Io { op, detail } => write!(f, "socket {op} failed: {detail}"),
            NetError::Gateway(e) => write!(f, "gateway rejected bridge call: {e}"),
            NetError::Config(what) => write!(f, "invalid ingest config: {what}"),
        }
    }
}

impl std::error::Error for NetError {}
