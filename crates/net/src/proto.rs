//! The ingest wire protocol: length-prefixed CRC-framed messages plus an
//! incremental, resyncing stream decoder.
//!
//! The framing discipline is the journal's ([`hybridcs_gateway`]'s
//! `journal.rs`): a fixed header carrying a little-endian payload length
//! and a CRC-32 over the payload, with a sanity cap on the length so a
//! corrupt header cannot make the receiver buffer gigabytes. Two
//! differences earn their keep on a socket (where, unlike a journal file,
//! bytes keep arriving after damage):
//!
//! * a two-byte magic prefix (`0xC5 0xEC`) so the decoder can *resync*
//!   after a torn or corrupted frame by scanning for the next plausible
//!   frame start instead of declaring the whole tail dead;
//! * decoding is incremental: [`StreamDecoder`] accepts arbitrary byte
//!   chunks (partial writes, coalesced writes) and yields whole messages
//!   as they complete.
//!
//! A frame that fails its CRC or carries an undecodable payload is
//! skipped — one resync — and scanning resumes one byte past the bad
//! frame start, so a mid-stream bit flip costs exactly the frames it
//! touched. The protocol state machine *above* this codec (who may send
//! what, when) lives in [`server`](crate::server) and
//! [`client`](crate::client); this module is pure bytes and never
//! panics on any input.

use hybridcs_coding::{crc32, ByteReader, ByteWriter};

/// A payload that does not decode as any message (the record codec's
/// error, shared with the gateway journal).
pub use hybridcs_coding::Malformed;

/// Protocol version carried in [`Message::Hello`]; bumped on any wire
/// change.
pub const PROTO_VERSION: u16 = 1;

/// Frame-start marker, chosen to be cheap to scan for during resync.
pub const MAGIC: [u8; 2] = [0xC5, 0xEC];

/// Bytes before the payload: magic (2) + payload length (4, LE) +
/// payload CRC-32 (4, LE).
pub const HEADER_BYTES: usize = 10;

/// Sanity cap on a frame payload. A corrupt length field larger than
/// this is treated as a torn frame, not a buffering obligation.
pub const MAX_PAYLOAD_BYTES: usize = 1 << 20;

/// Handshake rejection reasons (the `code` in [`Message::HelloReject`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCode {
    /// The device spoke a different [`PROTO_VERSION`].
    BadVersion,
    /// The device's operator-shape fingerprint matches no shape the
    /// server was configured to accept.
    UnknownShape,
    /// The device's gateway-config fingerprint disagrees with the
    /// server's (frames would decode under different admission rules).
    ConfigMismatch,
    /// A live session already owns this device id.
    Duplicate,
    /// The server is at its connection cap.
    ServerFull,
}

impl RejectCode {
    /// Stable wire code.
    #[must_use]
    pub fn as_u8(self) -> u8 {
        match self {
            RejectCode::BadVersion => 0,
            RejectCode::UnknownShape => 1,
            RejectCode::ConfigMismatch => 2,
            RejectCode::Duplicate => 3,
            RejectCode::ServerFull => 4,
        }
    }

    /// Inverse of [`as_u8`](RejectCode::as_u8).
    #[must_use]
    pub fn from_u8(code: u8) -> Option<Self> {
        match code {
            0 => Some(RejectCode::BadVersion),
            1 => Some(RejectCode::UnknownShape),
            2 => Some(RejectCode::ConfigMismatch),
            3 => Some(RejectCode::Duplicate),
            4 => Some(RejectCode::ServerFull),
            _ => None,
        }
    }

    /// Human/metric-label name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RejectCode::BadVersion => "bad_version",
            RejectCode::UnknownShape => "unknown_shape",
            RejectCode::ConfigMismatch => "config_mismatch",
            RejectCode::Duplicate => "duplicate",
            RejectCode::ServerFull => "server_full",
        }
    }
}

/// One wire message. The lifecycle is `Hello → HelloAck → TimeSync →
/// TimeSyncAck → (Frame | Credit | Nack | FrameLost | Heartbeat |
/// Overload)* → Close → CloseAck`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Device → server: discovery + handshake offer. `shape_fp` and
    /// `config_fp` are the journal-style fingerprints of the device's
    /// operator shape and expected gateway config.
    Hello {
        /// Must equal [`PROTO_VERSION`].
        version: u16,
        /// Device id; doubles as the gateway session id.
        device: u64,
        /// `shape_fingerprint` of the `(SystemConfig, LowResCodec)` pair.
        shape_fp: u64,
        /// `config_fingerprint` of the gateway config.
        config_fp: u64,
    },
    /// Server → device: handshake accepted.
    HelloAck {
        /// Gateway session id (the device id, echoed).
        session: u64,
        /// Cumulative send window: total `Frame` sends allowed so far.
        granted: u64,
    },
    /// Server → device: handshake refused; the connection closes.
    HelloReject {
        /// Why, as a stable wire code (see [`RejectCode`]).
        code: u8,
    },
    /// Device → server: epoch time-sync probe carrying the device's
    /// free-running tick counter.
    TimeSync {
        /// Device-local tick at send time.
        device_tick: u64,
    },
    /// Server → device: time-sync answer pairing the echoed device tick
    /// with the gateway's logical ingest clock, so both sides share an
    /// epoch mapping.
    TimeSyncAck {
        /// The `device_tick` from the probe, echoed.
        device_tick: u64,
        /// Gateway logical clock at receipt.
        server_logical: u64,
    },
    /// Device → server: one compressed ECG frame.
    Frame {
        /// Net-layer copy of the frame sequence number (the packet also
        /// carries it, but the ingest tier treats `packet` as opaque).
        sequence: u32,
        /// Device-local tick when the frame was captured.
        device_tick: u64,
        /// The opaque `FrameCodec` wire packet.
        packet: Vec<u8>,
    },
    /// Server → device: flow-control update; the device may have sent at
    /// most `granted` `Frame` messages in total (retransmissions driven
    /// by a `Nack` are window-exempt).
    Credit {
        /// New cumulative send allowance.
        granted: u64,
    },
    /// Server → device: these sequences are missing — retransmit them.
    Nack {
        /// Missing frame sequence numbers.
        sequences: Vec<u32>,
    },
    /// Device → server: a nacked frame cannot be retransmitted (the
    /// retransmission itself was lost at the radio); give up on it.
    FrameLost {
        /// The unrecoverable sequence number.
        sequence: u32,
    },
    /// Device → server: liveness probe sent when the device has stalled.
    /// `sent_through` is the count of distinct first-transmission
    /// sequences sent so far, so the server can nack any it never saw.
    Heartbeat {
        /// Sequences `0..sent_through` have been transmitted at least
        /// once.
        sent_through: u32,
    },
    /// Server → device: the gateway is shedding; expect withheld credits
    /// and low-resolution decodes until pressure clears.
    Overload {
        /// Severity (currently always 1).
        level: u8,
    },
    /// Device → server: end of stream; close the session.
    Close,
    /// Server → device: session closed; `committed` windows were
    /// delivered to the decode path.
    CloseAck {
        /// Total windows committed for the session.
        committed: u64,
    },
}

impl Message {
    fn tag(&self) -> u8 {
        match self {
            Message::Hello { .. } => 0,
            Message::HelloAck { .. } => 1,
            Message::HelloReject { .. } => 2,
            Message::TimeSync { .. } => 3,
            Message::TimeSyncAck { .. } => 4,
            Message::Frame { .. } => 5,
            Message::Credit { .. } => 6,
            Message::Nack { .. } => 7,
            Message::FrameLost { .. } => 8,
            Message::Heartbeat { .. } => 9,
            Message::Overload { .. } => 10,
            Message::Close => 11,
            Message::CloseAck { .. } => 12,
        }
    }

    /// Short name for metrics labels and logs.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Message::Hello { .. } => "hello",
            Message::HelloAck { .. } => "hello_ack",
            Message::HelloReject { .. } => "hello_reject",
            Message::TimeSync { .. } => "timesync",
            Message::TimeSyncAck { .. } => "timesync_ack",
            Message::Frame { .. } => "frame",
            Message::Credit { .. } => "credit",
            Message::Nack { .. } => "nack",
            Message::FrameLost { .. } => "frame_lost",
            Message::Heartbeat { .. } => "heartbeat",
            Message::Overload { .. } => "overload",
            Message::Close => "close",
            Message::CloseAck { .. } => "close_ack",
        }
    }
}

/// Serializes one message into its payload bytes (no frame header).
#[must_use]
pub fn encode_payload(message: &Message) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u8(message.tag());
    match message {
        Message::Hello {
            version,
            device,
            shape_fp,
            config_fp,
        } => {
            w.u16(*version);
            w.u64(*device);
            w.u64(*shape_fp);
            w.u64(*config_fp);
        }
        Message::HelloAck { session, granted } => {
            w.u64(*session);
            w.u64(*granted);
        }
        Message::HelloReject { code } => w.u8(*code),
        Message::TimeSync { device_tick } => w.u64(*device_tick),
        Message::TimeSyncAck {
            device_tick,
            server_logical,
        } => {
            w.u64(*device_tick);
            w.u64(*server_logical);
        }
        Message::Frame {
            sequence,
            device_tick,
            packet,
        } => {
            w.u32(*sequence);
            w.u64(*device_tick);
            w.bytes(packet);
        }
        Message::Credit { granted } => w.u64(*granted),
        Message::Nack { sequences } => w.seq(sequences.iter(), |w, seq| w.u32(*seq)),
        Message::FrameLost { sequence } => w.u32(*sequence),
        Message::Heartbeat { sent_through } => w.u32(*sent_through),
        Message::Overload { level } => w.u8(*level),
        Message::Close => {}
        Message::CloseAck { committed } => w.u64(*committed),
    }
    w.finish()
}

/// Parses one payload back into a message. Any deviation — unknown tag,
/// short field, trailing bytes, oversized inner length — is [`Malformed`].
pub fn decode_payload(payload: &[u8]) -> Result<Message, Malformed> {
    let mut r = ByteReader::new(payload);
    let tag = r.u8()?;
    let message = match tag {
        0 => Message::Hello {
            version: r.u16()?,
            device: r.u64()?,
            shape_fp: r.u64()?,
            config_fp: r.u64()?,
        },
        1 => Message::HelloAck {
            session: r.u64()?,
            granted: r.u64()?,
        },
        2 => {
            let code = r.u8()?;
            if RejectCode::from_u8(code).is_none() {
                return Err(Malformed);
            }
            Message::HelloReject { code }
        }
        3 => Message::TimeSync {
            device_tick: r.u64()?,
        },
        4 => Message::TimeSyncAck {
            device_tick: r.u64()?,
            server_logical: r.u64()?,
        },
        5 => Message::Frame {
            sequence: r.u32()?,
            device_tick: r.u64()?,
            packet: r.bytes()?.to_vec(),
        },
        6 => Message::Credit { granted: r.u64()? },
        // Each sequence costs 4 bytes; a count the payload cannot hold
        // is a lie, not an allocation request.
        7 => Message::Nack {
            sequences: r.seq(4, ByteReader::u32)?,
        },
        8 => Message::FrameLost { sequence: r.u32()? },
        9 => Message::Heartbeat {
            sent_through: r.u32()?,
        },
        10 => Message::Overload { level: r.u8()? },
        11 => Message::Close,
        12 => Message::CloseAck {
            committed: r.u64()?,
        },
        _ => return Err(Malformed),
    };
    r.done()?;
    Ok(message)
}

/// Frames one message for the wire: magic, payload length, payload
/// CRC-32, payload.
#[must_use]
pub fn encode(message: &Message) -> Vec<u8> {
    let payload = encode_payload(message);
    debug_assert!(payload.len() <= MAX_PAYLOAD_BYTES);
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Incremental frame decoder with resync. Feed it byte chunks as they
/// arrive ([`extend`](StreamDecoder::extend)) and drain whole messages
/// with [`next_message`](StreamDecoder::next_message). Never panics;
/// damage is absorbed as counted resyncs.
#[derive(Debug, Default)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    pos: usize,
    resyncs: u64,
    skipped: u64,
    eof: bool,
}

impl StreamDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        StreamDecoder::default()
    }

    /// Appends freshly received bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // connection's buffer stays proportional to its unread tail.
        if self.pos > 0 && (self.pos >= 4096 || self.pos == self.buf.len()) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Marks end-of-stream (peer hung up): an incomplete frame in the
    /// buffer is torn, not pending, so a corrupt length field stops
    /// shadowing any complete frames queued behind it. Call before the
    /// final [`next_message`](StreamDecoder::next_message) drain.
    pub fn finish(&mut self) {
        self.eof = true;
    }

    /// Frames skipped because of a bad length, CRC mismatch, or
    /// undecodable payload.
    #[must_use]
    pub fn resyncs(&self) -> u64 {
        self.resyncs
    }

    /// Bytes discarded while scanning for a frame start.
    #[must_use]
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped
    }

    /// Bytes buffered but not yet consumed.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Advances to the next plausible frame start (magic prefix or a
    /// trailing partial magic), discarding garbage bytes.
    fn align(&mut self) {
        while self.pos < self.buf.len() {
            let rest = &self.buf[self.pos..];
            if rest[0] == MAGIC[0] && (rest.len() < 2 || rest[1] == MAGIC[1]) {
                break;
            }
            self.pos += 1;
            self.skipped += 1;
        }
    }

    /// Abandons the frame candidate at the cursor: one resync, scanning
    /// resumes one byte later.
    fn desync(&mut self) {
        self.resyncs += 1;
        self.pos += 1;
        self.skipped += 1;
        self.align();
    }

    /// Yields the next complete, CRC-valid message, or `None` when the
    /// buffer holds no complete frame (feed more bytes and retry).
    pub fn next_message(&mut self) -> Option<Message> {
        loop {
            self.align();
            let rest = &self.buf[self.pos..];
            if rest.len() < HEADER_BYTES {
                return None;
            }
            let len = u32::from_le_bytes(rest[2..6].try_into().unwrap()) as usize;
            if len > MAX_PAYLOAD_BYTES {
                self.desync();
                continue;
            }
            if rest.len() < HEADER_BYTES + len {
                if self.eof {
                    // The claimed bytes will never arrive; treat the
                    // candidate as torn and rescan what we do have.
                    self.desync();
                    continue;
                }
                return None;
            }
            let want = u32::from_le_bytes(rest[6..10].try_into().unwrap());
            let payload = &rest[HEADER_BYTES..HEADER_BYTES + len];
            if crc32(payload) != want {
                self.desync();
                continue;
            }
            match decode_payload(payload) {
                Ok(message) => {
                    self.pos += HEADER_BYTES + len;
                    return Some(message);
                }
                Err(Malformed) => self.desync(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Message> {
        vec![
            Message::Hello {
                version: PROTO_VERSION,
                device: 7,
                shape_fp: 0xDEAD_BEEF,
                config_fp: 0xFACE_FEED,
            },
            Message::HelloAck {
                session: 7,
                granted: 8,
            },
            Message::HelloReject {
                code: RejectCode::UnknownShape.as_u8(),
            },
            Message::TimeSync { device_tick: 41 },
            Message::TimeSyncAck {
                device_tick: 41,
                server_logical: 1290,
            },
            Message::Frame {
                sequence: 3,
                device_tick: 44,
                packet: vec![1, 2, 3, 4, 5],
            },
            Message::Credit { granted: 12 },
            Message::Nack {
                sequences: vec![1, 4, 9],
            },
            Message::FrameLost { sequence: 4 },
            Message::Heartbeat { sent_through: 10 },
            Message::Overload { level: 1 },
            Message::Close,
            Message::CloseAck { committed: 10 },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for message in samples() {
            let framed = encode(&message);
            let mut dec = StreamDecoder::new();
            dec.extend(&framed);
            assert_eq!(dec.next_message(), Some(message));
            assert_eq!(dec.next_message(), None);
            assert_eq!(dec.resyncs(), 0);
        }
    }

    #[test]
    fn byte_at_a_time_delivery_decodes_everything() {
        let stream: Vec<u8> = samples().iter().flat_map(encode).collect();
        let mut dec = StreamDecoder::new();
        let mut seen = Vec::new();
        for b in stream {
            dec.extend(&[b]);
            while let Some(m) = dec.next_message() {
                seen.push(m);
            }
        }
        assert_eq!(seen, samples());
        assert_eq!(dec.resyncs(), 0);
    }

    #[test]
    fn garbage_between_frames_is_skipped() {
        let mut stream = Vec::new();
        for message in samples() {
            stream.extend_from_slice(&[0x00, 0xFF, 0xC5, 0x00]); // noise incl. fake magic byte
            stream.extend_from_slice(&encode(&message));
        }
        let mut dec = StreamDecoder::new();
        dec.extend(&stream);
        let mut seen = Vec::new();
        while let Some(m) = dec.next_message() {
            seen.push(m);
        }
        assert_eq!(seen, samples());
        assert!(dec.skipped_bytes() > 0);
    }

    #[test]
    fn corrupted_frame_costs_only_itself() {
        let msgs = samples();
        let mut stream = Vec::new();
        for (i, message) in msgs.iter().enumerate() {
            let mut framed = encode(message);
            if i == 5 {
                let mid = framed.len() / 2;
                framed[mid] ^= 0x40;
            }
            stream.extend_from_slice(&framed);
        }
        let mut dec = StreamDecoder::new();
        dec.extend(&stream);
        let mut seen = Vec::new();
        while let Some(m) = dec.next_message() {
            seen.push(m);
        }
        let mut expect = msgs;
        expect.remove(5);
        assert_eq!(seen, expect);
        assert!(dec.resyncs() >= 1);
    }

    #[test]
    fn oversized_length_field_is_a_resync_not_a_buffer() {
        let mut framed = encode(&Message::Close);
        framed[2..6].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = StreamDecoder::new();
        dec.extend(&framed);
        assert_eq!(dec.next_message(), None);
        assert_eq!(dec.resyncs(), 1);
        // A subsequent good frame still decodes.
        dec.extend(&encode(&Message::Close));
        assert_eq!(dec.next_message(), Some(Message::Close));
    }

    #[test]
    fn truncated_tail_is_need_more_not_error() {
        let framed = encode(&Message::Credit { granted: 3 });
        for cut in 0..framed.len() {
            let mut dec = StreamDecoder::new();
            dec.extend(&framed[..cut]);
            assert_eq!(dec.next_message(), None, "cut at {cut}");
            dec.extend(&framed[cut..]);
            assert_eq!(dec.next_message(), Some(Message::Credit { granted: 3 }));
        }
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_malformed() {
        assert_eq!(decode_payload(&[200]), Err(Malformed));
        let mut payload = encode_payload(&Message::Close);
        payload.push(0);
        assert_eq!(decode_payload(&payload), Err(Malformed));
        assert_eq!(decode_payload(&[]), Err(Malformed));
    }

    #[test]
    fn nack_count_larger_than_payload_is_rejected() {
        let mut w = Vec::new();
        w.push(7u8);
        w.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_payload(&w), Err(Malformed));
    }

    #[test]
    fn reject_codes_round_trip() {
        for code in [
            RejectCode::BadVersion,
            RejectCode::UnknownShape,
            RejectCode::ConfigMismatch,
            RejectCode::Duplicate,
            RejectCode::ServerFull,
        ] {
            assert_eq!(RejectCode::from_u8(code.as_u8()), Some(code));
            assert!(!code.name().is_empty());
        }
        assert_eq!(RejectCode::from_u8(5), None);
    }
}
