//! The gateway's crash-safety layer: a CRC-framed write-ahead journal of
//! ingest-order events, periodic snapshot checkpoints, and the recovery
//! scan that replays them. DESIGN §12 is the narrative version.
//!
//! # Journal = command log
//!
//! The gateway is deterministic: for a fixed config, the same sequence of
//! public API calls produces bit-identical session state and output bytes
//! regardless of worker count (DESIGN §9). The journal exploits that by
//! logging the *commands* — one [`Record`] per `handshake`/`push`/
//! `notify_lost`/`take_nacks`/`flush`/`take_outputs`/`close` call — rather
//! than the resulting state. Replay is just re-invoking the gateway's
//! internal (non-journaling) paths in order; any window that was journaled
//! but not yet committed is simply re-decoded, reproducing the exact
//! output bytes.
//!
//! # Wire format
//!
//! Every record is framed as `[len: u32 LE][crc32: u32 LE][payload: len
//! bytes]`, with the CRC over the payload only (the `crc32` from
//! `hybridcs-coding`, the same polynomial the telemetry frames use). The
//! first record is always [`Record::Genesis`], pinning a fingerprint of
//! the gateway configuration; [`Record::Checkpoint`] records carry a full
//! serialized snapshot of every session's state. All integers are
//! little-endian; every `f64` travels as its exact IEEE bit pattern, so a
//! restored ledger is bit-identical, not merely close.
//!
//! # Group commit
//!
//! Encoded records accumulate in an in-memory buffer and reach the store
//! in batches: when the buffer exceeds the configured group-commit
//! threshold, and always at the *delivery points* — `flush`,
//! `take_nacks`, `take_outputs`, `close`, and checkpoints — so nothing
//! the caller has observed can be lost to a crash. The invariant is the
//! classic WAL one: **observed ⇒ durable**; everything else is
//! re-derivable by replay.
//!
//! # Torn tails
//!
//! [`scan`] walks frames from the start and stops at the first torn or
//! CRC-bad record: everything before it is the valid prefix, everything
//! after is wreckage from the crash and is truncated before the journal
//! resumes appending. Because stores only tear the in-flight append (an
//! fsync contract), the valid prefix always covers every observed
//! output. An intact record that fails to decode is not wreckage — only
//! a writer bug or a journal from another build makes one — so `scan`
//! reports it apart ([`ScannedJournal::undecodable`]) and recovery
//! refuses the image rather than cut the live records behind it.

use std::collections::BTreeSet;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;

use hybridcs_coding::{crc32, LowResCodec, Payload};
use hybridcs_core::{DecodedWindow, LadderRung, LedgerState, ParsedSections};
use hybridcs_core::{SupervisedWindow, SystemConfig};
use hybridcs_faults::{ArqState, JournalStore, StoreError};
use hybridcs_obs::flight::{demotion_reason_code, DEMOTION_REASONS};
use hybridcs_solver::RecoveryResult;

use crate::{GatewayConfig, SessionPhase};

/// Upper bound on a single record's payload (sanity cap against garbage
/// length prefixes; 64 MiB dwarfs any real checkpoint).
pub const MAX_RECORD_BYTES: usize = 1 << 26;

/// Bytes of framing ahead of every payload (`len` + `crc`).
pub const FRAME_HEADER_BYTES: usize = 8;

/// Journal record payload decode error: the payload is not a record this
/// build writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Malformed;

// ---------------------------------------------------------------------------
// Byte-level encoding primitives
// ---------------------------------------------------------------------------

/// Little-endian append-only writer (thin, but keeps every encode site
/// symmetric with [`ByteReader`]).
pub(crate) struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    pub(crate) fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u32` length prefix.
    fn len(&mut self, len: usize) {
        self.u32(u32::try_from(len).expect("journal lengths fit u32"));
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.len(v.len());
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn f64s(&mut self, v: &[f64]) {
        self.seq(v.iter(), |w, x| w.f64(*x));
    }

    /// A length prefix, then every item as `put` writes it.
    pub(crate) fn seq<'a, T: 'a>(
        &mut self,
        items: impl ExactSizeIterator<Item = &'a T>,
        mut put: impl FnMut(&mut Self, &T),
    ) {
        self.len(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// `0` for `None`; `1`, then the value as `put` writes it.
    pub(crate) fn opt<T>(&mut self, v: Option<&T>, put: impl FnOnce(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                put(self, x);
            }
        }
    }

    pub(crate) fn opt_u32(&mut self, v: Option<u32>) {
        self.opt(v.as_ref(), |w, x| w.u32(*x));
    }

    pub(crate) fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Checked little-endian reader: every read verifies the bytes exist, and
/// every length prefix is validated against the remaining input before
/// allocating — adversarial journals cannot cause panics or huge
/// allocations.
pub(crate) struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(data: &'a [u8]) -> Self {
        ByteReader { data, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], Malformed> {
        let end = self.pos.checked_add(n).ok_or(Malformed)?;
        if end > self.data.len() {
            return Err(Malformed);
        }
        let out = &self.data[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, Malformed> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, Malformed> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, Malformed> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, Malformed> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>, Malformed> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    pub(crate) fn f64s(&mut self) -> Result<Vec<f64>, Malformed> {
        self.seq(8, Self::f64)
    }

    /// A length prefix, then that many items as `get` reads them. Every
    /// item takes at least `min_bytes`, so a length the remaining input
    /// cannot cover is refused before anything is allocated.
    pub(crate) fn seq<T>(
        &mut self,
        min_bytes: usize,
        mut get: impl FnMut(&mut Self) -> Result<T, Malformed>,
    ) -> Result<Vec<T>, Malformed> {
        let len = self.u32()? as usize;
        if len.checked_mul(min_bytes).ok_or(Malformed)? > self.data.len() - self.pos {
            return Err(Malformed);
        }
        (0..len).map(|_| get(self)).collect()
    }

    /// `None` for a `0` tag; for `1`, the value as `get` reads it.
    pub(crate) fn opt<T>(
        &mut self,
        get: impl FnOnce(&mut Self) -> Result<T, Malformed>,
    ) -> Result<Option<T>, Malformed> {
        match self.u8()? {
            0 => Ok(None),
            1 => get(self).map(Some),
            _ => Err(Malformed),
        }
    }

    pub(crate) fn opt_u32(&mut self) -> Result<Option<u32>, Malformed> {
        self.opt(Self::u32)
    }

    pub(crate) fn done(&self) -> Result<(), Malformed> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(Malformed)
        }
    }
}

// ---------------------------------------------------------------------------
// Fingerprints
// ---------------------------------------------------------------------------

/// FNV-1a over a byte stream (stable, dependency-free; fingerprints are
/// consistency checks, not security).
fn fnv64(chunks: &[&[u8]]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for chunk in chunks {
        for b in *chunk {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Fingerprint of one operator shape: the `SystemConfig` (via its stable
/// `Debug` rendering) plus the trained codebook bytes and quantizer depth.
/// Checkpoints and handshake records name ladders by this value; recovery
/// matches it against the caller-supplied shape table.
#[must_use]
pub fn shape_fingerprint(system: &SystemConfig, codec: &LowResCodec) -> u64 {
    let system_repr = format!("{system:?}");
    let codebook = codec.codebook().serialize();
    let bits = codec.bits().to_le_bytes();
    fnv64(&[system_repr.as_bytes(), &codebook, &bits])
}

/// Fingerprint of the gateway policy a journal was written under. The
/// worker count and decode-batch width are canonicalized out — both are
/// pure throughput knobs with no effect on outputs (DESIGN §9 and §14: each
/// window of a batched solve is bit-identical to solving it alone), so a journal
/// may be recovered into a gateway with a different pool size or batch
/// width. Everything else must match: shards, admission, ARQ, and
/// supervisor policy all shape the journaled decisions.
#[must_use]
pub fn config_fingerprint(config: &GatewayConfig) -> u64 {
    let canonical = GatewayConfig {
        workers: 1,
        max_decode_batch: 1,
        ..*config
    };
    fnv64(&[format!("{canonical:?}").as_bytes()])
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

const TAG_GENESIS: u8 = 0;
const TAG_HANDSHAKE: u8 = 1;
const TAG_PUSH: u8 = 2;
const TAG_NOTIFY_LOST: u8 = 3;
const TAG_TAKE_NACKS: u8 = 4;
const TAG_FLUSH: u8 = 5;
const TAG_TAKE_OUTPUTS: u8 = 6;
const TAG_CLOSE: u8 = 7;
const TAG_CHECKPOINT: u8 = 8;

/// One journal record: a gateway API command (the log proper), the
/// genesis header, or a snapshot checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// First record of every journal: the policy fingerprint the log was
    /// written under (see [`config_fingerprint`]).
    Genesis {
        /// The writing gateway's [`config_fingerprint`].
        config_fp: u64,
    },
    /// `Gateway::handshake(id, ...)`; the shape is named by fingerprint
    /// and resolved against the recovery shape table.
    Handshake {
        /// Session id.
        id: u64,
        /// [`shape_fingerprint`] of the session's `(config, codec)` pair.
        shape_fp: u64,
    },
    /// `Gateway::push(id, packet)` — the raw wire frame, replayed
    /// verbatim.
    Push {
        /// Session id.
        id: u64,
        /// The wire frame bytes exactly as pushed.
        packet: Vec<u8>,
    },
    /// `Gateway::notify_lost(id, sequence)`.
    NotifyLost {
        /// Session id.
        id: u64,
        /// The sequence whose retransmission was lost.
        sequence: u32,
    },
    /// `Gateway::take_nacks(id)` — journaled because draining consumes
    /// ARQ budget and attempts.
    TakeNacks {
        /// Session id.
        id: u64,
    },
    /// An explicit `Gateway::flush()` (capacity-triggered auto-flushes
    /// are *not* journaled — replaying the pushes reproduces them).
    Flush,
    /// `Gateway::take_outputs(id)` — journaled so replay re-drains
    /// windows that were already delivered before the crash.
    TakeOutputs {
        /// Session id.
        id: u64,
    },
    /// `Gateway::close(id)`.
    Close {
        /// Session id.
        id: u64,
    },
    /// A full state snapshot; recovery restores the last decodable one
    /// and replays only the records after it.
    Checkpoint(CheckpointState),
}

impl Record {
    /// Whether this record is a replayable gateway command (vs. journal
    /// bookkeeping).
    #[must_use]
    pub fn is_command(&self) -> bool {
        !matches!(self, Record::Genesis { .. } | Record::Checkpoint(_))
    }

    /// Encodes the record payload (unframed).
    #[must_use]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            Record::Genesis { config_fp } => {
                w.u8(TAG_GENESIS);
                w.u64(*config_fp);
            }
            Record::Handshake { id, shape_fp } => {
                w.u8(TAG_HANDSHAKE);
                w.u64(*id);
                w.u64(*shape_fp);
            }
            Record::Push { id, packet } => {
                w.u8(TAG_PUSH);
                w.u64(*id);
                w.bytes(packet);
            }
            Record::NotifyLost { id, sequence } => {
                w.u8(TAG_NOTIFY_LOST);
                w.u64(*id);
                w.u32(*sequence);
            }
            Record::TakeNacks { id } => {
                w.u8(TAG_TAKE_NACKS);
                w.u64(*id);
            }
            Record::Flush => w.u8(TAG_FLUSH),
            Record::TakeOutputs { id } => {
                w.u8(TAG_TAKE_OUTPUTS);
                w.u64(*id);
            }
            Record::Close { id } => {
                w.u8(TAG_CLOSE);
                w.u64(*id);
            }
            Record::Checkpoint(state) => {
                w.u8(TAG_CHECKPOINT);
                state.encode(&mut w);
            }
        }
        w.finish()
    }

    /// Decodes one record payload; any deviation is [`Malformed`].
    pub(crate) fn decode(payload: &[u8]) -> Result<Record, Malformed> {
        let mut r = ByteReader::new(payload);
        let record = match r.u8()? {
            TAG_GENESIS => Record::Genesis {
                config_fp: r.u64()?,
            },
            TAG_HANDSHAKE => Record::Handshake {
                id: r.u64()?,
                shape_fp: r.u64()?,
            },
            TAG_PUSH => Record::Push {
                id: r.u64()?,
                packet: r.bytes()?,
            },
            TAG_NOTIFY_LOST => Record::NotifyLost {
                id: r.u64()?,
                sequence: r.u32()?,
            },
            TAG_TAKE_NACKS => Record::TakeNacks { id: r.u64()? },
            TAG_FLUSH => Record::Flush,
            TAG_TAKE_OUTPUTS => Record::TakeOutputs { id: r.u64()? },
            TAG_CLOSE => Record::Close { id: r.u64()? },
            TAG_CHECKPOINT => Record::Checkpoint(CheckpointState::decode(&mut r)?),
            _ => return Err(Malformed),
        };
        r.done()?;
        Ok(record)
    }
}

// ---------------------------------------------------------------------------
// Checkpoint state
// ---------------------------------------------------------------------------

/// One session's full state, in the gateway's own state types. The shard
/// and decode ladder are re-derived from `id` and `shape_fp` on restore;
/// wall-clock stamps are telemetry-only and restart at "now".
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// Session id.
    pub id: u64,
    /// [`shape_fingerprint`] naming the session's decode ladder.
    pub shape_fp: u64,
    /// Lifecycle phase.
    pub phase: SessionPhase,
    /// Concealment source, staleness, and sequence tracking.
    pub ledger: LedgerState,
    /// ARQ retransmission queue, attempts, and remaining budget.
    pub arq: ArqState,
    /// Sequences in the nack/retransmit cycle.
    pub nacked: BTreeSet<u32>,
    /// Reorder buffer in sequence order, as `(sequence, logical ingest
    /// stamp, frame)`; a `None` frame was declared lost.
    pub reorder: Vec<(u32, u64, Option<ParsedSections>)>,
    /// Next sequence to release.
    pub next_release: u32,
    /// Highest sequence observed.
    pub highest_seen: Option<u32>,
    /// Released-window counter.
    pub window_index: u64,
    /// Admission epoch.
    pub epoch: u64,
    /// Solver-admitted windows in the current epoch.
    pub admitted_in_epoch: u32,
    /// Committed windows not yet delivered.
    pub outputs: Vec<SupervisedWindow>,
}

/// A full gateway snapshot: everything needed to resume as if the process
/// never died, given the same config and shape table.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// [`config_fingerprint`] (defensive duplicate of the genesis).
    pub config_fp: u64,
    /// The deterministic logical clock.
    pub clock: u64,
    /// Command records applied when the snapshot was taken — replay
    /// resumes from here.
    pub applied: u64,
    /// Every live or closed session.
    pub sessions: Vec<SessionState>,
}

impl CheckpointState {
    fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.config_fp);
        w.u64(self.clock);
        w.u64(self.applied);
        w.seq(self.sessions.iter(), |w, session| session.encode(w));
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, Malformed> {
        Ok(CheckpointState {
            config_fp: r.u64()?,
            clock: r.u64()?,
            applied: r.u64()?,
            sessions: r.seq(1, SessionState::decode)?,
        })
    }
}

// Every `decode` reads its fields in the order `encode` writes them
// (struct fields initialize in source order).
impl SessionState {
    fn encode(&self, w: &mut ByteWriter) {
        w.u64(self.id);
        w.u64(self.shape_fp);
        w.u8(self.phase.code());
        w.opt(self.ledger.last_good.as_ref(), |w, signal| w.f64s(signal));
        w.u64(self.ledger.consecutive_concealed as u64);
        w.opt_u32(self.ledger.expected_sequence);
        w.seq(self.arq.pending.iter(), |w, seq| w.u32(*seq));
        w.seq(self.arq.attempts.iter(), |w, (seq, attempts)| {
            w.u32(*seq);
            w.u32(*attempts);
        });
        w.u64(self.arq.budget_left);
        w.seq(self.nacked.iter(), |w, seq| w.u32(*seq));
        w.seq(self.reorder.iter(), |w, (seq, logical, frame)| {
            w.u32(*seq);
            w.u64(*logical);
            w.opt(frame.as_ref(), encode_sections);
        });
        w.u32(self.next_release);
        w.opt_u32(self.highest_seen);
        w.u64(self.window_index);
        w.u64(self.epoch);
        w.u32(self.admitted_in_epoch);
        w.seq(self.outputs.iter(), encode_window);
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, Malformed> {
        Ok(SessionState {
            id: r.u64()?,
            shape_fp: r.u64()?,
            phase: SessionPhase::from_code(r.u8()?).ok_or(Malformed)?,
            ledger: LedgerState {
                last_good: r.opt(ByteReader::f64s)?,
                consecutive_concealed: usize::try_from(r.u64()?).unwrap_or(usize::MAX),
                expected_sequence: r.opt_u32()?,
            },
            arq: ArqState {
                pending: r.seq(4, ByteReader::u32)?,
                attempts: r.seq(8, |r| Ok((r.u32()?, r.u32()?)))?,
                budget_left: r.u64()?,
            },
            nacked: r.seq(4, ByteReader::u32)?.into_iter().collect(),
            reorder: r.seq(13, |r| Ok((r.u32()?, r.u64()?, r.opt(decode_sections)?)))?,
            next_release: r.u32()?,
            highest_seen: r.opt_u32()?,
            window_index: r.u64()?,
            epoch: r.u64()?,
            admitted_in_epoch: r.u32()?,
            outputs: r.seq(1, decode_window)?,
        })
    }
}

fn encode_sections(w: &mut ByteWriter, frame: &ParsedSections) {
    w.opt_u32(frame.sequence);
    w.opt(frame.measurements.as_ref(), |w, m| w.f64s(m));
    w.opt(frame.lowres.as_ref(), |w, lowres| {
        w.bytes(&lowres.bytes);
        w.u64(lowres.bit_len as u64);
    });
}

fn decode_sections(r: &mut ByteReader<'_>) -> Result<ParsedSections, Malformed> {
    Ok(ParsedSections {
        sequence: r.opt_u32()?,
        measurements: r.opt(ByteReader::f64s)?,
        lowres: r.opt(|r| {
            Ok(Payload {
                bytes: r.bytes()?,
                bit_len: usize::try_from(r.u64()?).unwrap_or(usize::MAX),
            })
        })?,
    })
}

/// Rungs travel as [`LadderRung::code`], demotion reasons as their
/// [`DEMOTION_REASONS`] index.
fn encode_window(w: &mut ByteWriter, window: &SupervisedWindow) {
    w.opt_u32(window.sequence);
    w.u8(window.rung.code());
    w.f64s(&window.signal);
    w.seq(window.demotions.iter(), |w, (rung, reason)| {
        w.u8(rung.code());
        w.u8(demotion_reason_code(reason));
    });
    w.opt(window.decoded.as_ref(), |w, decoded| {
        w.f64s(&decoded.signal);
        w.f64s(&decoded.recovery.signal);
        w.u64(decoded.recovery.iterations as u64);
        w.u8(u8::from(decoded.recovery.converged));
        w.f64(decoded.recovery.residual);
        w.f64(decoded.recovery.objective);
        w.u8(u8::from(decoded.used_box));
    });
}

/// An unknown rung code is [`Malformed`]; a reason code past the table
/// reads as `"unknown"` (the table only ever grows).
fn decode_window(r: &mut ByteReader<'_>) -> Result<SupervisedWindow, Malformed> {
    fn rung(r: &mut ByteReader<'_>) -> Result<LadderRung, Malformed> {
        LadderRung::from_code(r.u8()?).ok_or(Malformed)
    }
    Ok(SupervisedWindow {
        sequence: r.opt_u32()?,
        rung: rung(r)?,
        signal: r.f64s()?,
        demotions: r.seq(2, |r| {
            let rung = rung(r)?;
            let reason = DEMOTION_REASONS.get(usize::from(r.u8()?));
            Ok((rung, reason.copied().unwrap_or("unknown")))
        })?,
        decoded: r.opt(|r| {
            Ok(DecodedWindow {
                signal: r.f64s()?,
                recovery: RecoveryResult {
                    signal: r.f64s()?,
                    iterations: r.u64()? as usize,
                    converged: r.u8()? != 0,
                    residual: r.f64()?,
                    objective: r.f64()?,
                },
                used_box: r.u8()? != 0,
            })
        })?,
    })
}

// ---------------------------------------------------------------------------
// Framing, scanning
// ---------------------------------------------------------------------------

/// Frames one encoded payload: `[len][crc32][payload]`.
#[must_use]
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(
        &u32::try_from(payload.len())
            .expect("payload fits u32")
            .to_le_bytes(),
    );
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The result of walking a journal image: the decodable record prefix,
/// how many bytes it spans, and what ended it.
#[derive(Debug)]
pub struct ScannedJournal {
    /// Records decoded from the valid prefix, in order.
    pub records: Vec<Record>,
    /// Bytes of the valid prefix (truncate the store to this before
    /// resuming appends).
    pub valid_bytes: u64,
    /// Whether bytes beyond the valid prefix existed (torn/corrupt tail).
    pub torn: bool,
    /// Whether the walk stopped at an intact record — length and CRC
    /// check out — that this build cannot decode. No crash makes one, so
    /// the bytes from it on are not a torn tail to truncate.
    pub undecodable: bool,
}

/// Walks `bytes` frame by frame, stopping at the first torn, oversized,
/// CRC-bad, or undecodable record. Never panics, never over-allocates:
/// every length claim is validated against the remaining input.
#[must_use]
pub fn scan(bytes: &[u8]) -> ScannedJournal {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let (torn, undecodable) = loop {
        let rest = &bytes[pos..];
        if rest.len() < FRAME_HEADER_BYTES {
            break (!rest.is_empty(), false);
        }
        let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_RECORD_BYTES || rest.len() - FRAME_HEADER_BYTES < len {
            break (true, false);
        }
        let payload = &rest[FRAME_HEADER_BYTES..FRAME_HEADER_BYTES + len];
        // No writer emits an empty payload (every record starts with its
        // tag), but a zero-filled tail frames as a run of them whose CRCs
        // match: that is wreckage, like a CRC mismatch.
        if payload.is_empty() || crc32(payload) != crc {
            break (true, false);
        }
        match Record::decode(payload) {
            Ok(record) => records.push(record),
            Err(Malformed) => break (false, true),
        }
        pos += FRAME_HEADER_BYTES + len;
    };
    ScannedJournal {
        records,
        valid_bytes: pos as u64,
        torn,
        undecodable,
    }
}

// ---------------------------------------------------------------------------
// The journal writer (group commit)
// ---------------------------------------------------------------------------

/// The write side of the journal: encodes records into an in-memory
/// buffer and group-commits them to the store. See the
/// [module docs](self) for the durability contract.
pub(crate) struct Journal {
    store: Box<dyn JournalStore + Send>,
    buffer: Vec<u8>,
    group_bytes: usize,
}

impl Journal {
    pub(crate) fn new(store: Box<dyn JournalStore + Send>, group_bytes: usize) -> Self {
        Journal {
            store,
            buffer: Vec::new(),
            group_bytes,
        }
    }

    /// Buffers one record; syncs if the group-commit threshold is hit.
    pub(crate) fn append(&mut self, record: &Record) -> Result<(), StoreError> {
        let payload = record.encode();
        self.buffer.extend_from_slice(&frame(&payload));
        hybridcs_obs::global()
            .counter("gateway_journal_records_total", &[])
            .inc();
        if self.buffer.len() >= self.group_bytes.max(1) {
            self.sync()?;
        }
        Ok(())
    }

    /// Forces every buffered record to the store (the group commit).
    pub(crate) fn sync(&mut self) -> Result<(), StoreError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let bytes = std::mem::take(&mut self.buffer);
        let result = self.store.append(&bytes);
        let registry = hybridcs_obs::global();
        registry
            .counter("gateway_journal_bytes_total", &[])
            .add(bytes.len() as u64);
        registry.counter("gateway_journal_syncs_total", &[]).inc();
        result
    }
}

// ---------------------------------------------------------------------------
// Real-file store backend
// ---------------------------------------------------------------------------

/// The production [`JournalStore`]: a real file, synced on every append
/// (the fsync contract the torn-tail model assumes).
#[derive(Debug)]
pub struct FileStore {
    file: std::fs::File,
    path: PathBuf,
}

impl FileStore {
    /// Opens (or creates) the journal file at `path`.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(io_err)?;
        Ok(FileStore { file, path })
    }

    /// The backing file's path.
    #[must_use]
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

fn io_err(e: std::io::Error) -> StoreError {
    StoreError::Io(e.to_string())
}

impl JournalStore for FileStore {
    fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        self.file.seek(SeekFrom::End(0)).map_err(io_err)?;
        self.file.write_all(bytes).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)
    }

    fn read_all(&mut self) -> Result<Vec<u8>, StoreError> {
        self.file.seek(SeekFrom::Start(0)).map_err(io_err)?;
        let mut out = Vec::new();
        self.file.read_to_end(&mut out).map_err(io_err)?;
        Ok(out)
    }

    fn truncate_to(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len).map_err(io_err)?;
        self.file.sync_data().map_err(io_err)
    }

    fn len(&self) -> u64 {
        self.file.metadata().map(|m| m.len()).unwrap_or(0)
    }
}

/// What a [`crate::Gateway::recover`] did.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryReport {
    /// Command records replayed after the restored checkpoint (the
    /// replay lag).
    pub replayed_events: u64,
    /// Whether a checkpoint was restored (vs. replaying from genesis).
    pub checkpoint_restored: bool,
    /// Whether a torn/corrupt tail was detected and cut.
    pub torn_tail: bool,
    /// Bytes discarded past the valid prefix.
    pub truncated_bytes: u64,
    /// Wall-clock recovery duration.
    pub seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command_records() -> Vec<Record> {
        vec![
            Record::Genesis { config_fp: 0xAB },
            Record::Handshake {
                id: 7,
                shape_fp: 0xCD,
            },
            Record::Push {
                id: 7,
                packet: vec![1, 2, 3, 4, 5],
            },
            Record::NotifyLost { id: 7, sequence: 9 },
            Record::TakeNacks { id: 7 },
            Record::Flush,
            Record::TakeOutputs { id: 7 },
            Record::Close { id: 7 },
        ]
    }

    #[test]
    fn records_round_trip() {
        for record in command_records() {
            let decoded = Record::decode(&record.encode()).unwrap();
            assert_eq!(decoded, record);
        }
    }

    /// One session carrying every optional field in both states.
    fn sample_checkpoint() -> CheckpointState {
        CheckpointState {
            config_fp: 42,
            clock: 99,
            applied: 17,
            sessions: vec![SessionState {
                id: 3,
                shape_fp: 0xFEED,
                phase: SessionPhase::Repairing,
                ledger: LedgerState {
                    last_good: Some(vec![1.5, -0.0, f64::MIN_POSITIVE, 2.5e-300]),
                    consecutive_concealed: 2,
                    expected_sequence: Some(11),
                },
                arq: ArqState {
                    pending: vec![4, 5],
                    attempts: vec![(4, 1), (5, 2)],
                    budget_left: 250,
                },
                nacked: BTreeSet::from([4]),
                reorder: vec![
                    (
                        6,
                        88,
                        Some(ParsedSections {
                            sequence: Some(6),
                            measurements: Some(vec![0.25; 3]),
                            lowres: Some(Payload {
                                bytes: vec![9, 8],
                                bit_len: 12,
                            }),
                        }),
                    ),
                    (7, 89, None),
                ],
                next_release: 5,
                highest_seen: Some(7),
                window_index: 5,
                epoch: 1,
                admitted_in_epoch: 1,
                outputs: vec![SupervisedWindow {
                    sequence: Some(4),
                    rung: LadderRung::Hybrid,
                    signal: vec![0.125, -3.75],
                    demotions: vec![(LadderRung::Hybrid, "watchdog")],
                    decoded: Some(DecodedWindow {
                        signal: vec![0.125, -3.75],
                        recovery: RecoveryResult {
                            signal: vec![0.125, -3.75],
                            iterations: 200,
                            converged: true,
                            residual: 1e-9,
                            objective: 4.25,
                        },
                        used_box: true,
                    }),
                }],
            }],
        }
    }

    #[test]
    fn checkpoint_state_round_trips_bit_exact() {
        let state = sample_checkpoint();
        let record = Record::Checkpoint(state.clone());
        match Record::decode(&record.encode()).unwrap() {
            Record::Checkpoint(decoded) => assert_eq!(decoded, state),
            other => panic!("wrong record: {other:?}"),
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The payload bytes of [`sample_checkpoint`], field by field.
    const CHECKPOINT_HEX: &[&str] = &[
        // tag, config_fp, clock, applied, session count
        "082a000000000000006300000000000000110000000000000001000000",
        // id, shape_fp, phase
        "0300000000000000edfe00000000000002",
        // ledger: last_good, consecutive_concealed, expected_sequence
        "0104000000000000000000f83f000000000000008000000000000010002f30b7",
        "b3a7c9ba010200000000000000010b000000",
        // arq: pending, attempts, budget_left
        "0200000004000000050000000200000004000000010000000500000002000000",
        "fa00000000000000",
        // nacked
        "0100000004000000",
        // reorder: slot 6, a frame with every section
        "0200000006000000580000000000000001010600000001030000000000000000",
        "00d03f000000000000d03f000000000000d03f010200000009080c0000000000",
        "0000",
        // reorder: slot 7, declared lost
        "07000000590000000000000000",
        // next_release, highest_seen, window_index, epoch, admitted_in_epoch
        "0500000001070000000500000000000000010000000000000001000000",
        // one output: sequence, rung, signal, demotions
        "0100000001040000000002000000000000000000c03f0000000000000ec00100",
        "00000001",
        // its solver report
        "0102000000000000000000c03f0000000000000ec002000000000000000000c0",
        "3f0000000000000ec0c8000000000000000195d626e80b2e113e000000000000",
        "114001",
    ];

    /// Round trips compare a record with its own decode, so a change of
    /// field order or width would pass them; this pins the bytes, so
    /// journals written by earlier builds keep recovering.
    #[test]
    fn record_bytes_are_pinned() {
        let pinned = [
            "00ab00000000000000",
            "010700000000000000cd00000000000000",
            "020700000000000000050000000102030405",
            "03070000000000000009000000",
            "040700000000000000",
            "05",
            "060700000000000000",
            "070700000000000000",
        ];
        for (record, want) in command_records().iter().zip(pinned) {
            assert_eq!(hex(&record.encode()), want, "{record:?}");
        }
        let checkpoint = Record::Checkpoint(sample_checkpoint()).encode();
        assert_eq!(hex(&checkpoint), CHECKPOINT_HEX.concat());
    }

    #[test]
    fn unknown_phase_and_rung_codes_do_not_decode() {
        let mut bytes = Record::Checkpoint(sample_checkpoint()).encode();
        bytes[45] = 9; // the phase, after the 29-byte header, id and shape
        assert_eq!(Record::decode(&bytes), Err(Malformed));
        let mut w = ByteWriter::new();
        encode_window(&mut w, &sample_checkpoint().sessions[0].outputs[0]);
        let mut bytes = w.finish();
        bytes[5] = 9; // the rung, after the sequence
        assert_eq!(decode_window(&mut ByteReader::new(&bytes)), Err(Malformed));
    }

    #[test]
    fn scan_reads_clean_journals_and_stops_at_wreckage() {
        let records = command_records();
        let mut image = Vec::new();
        for record in &records {
            image.extend_from_slice(&frame(&record.encode()));
        }
        let clean = scan(&image);
        assert_eq!(clean.records, records);
        assert_eq!(clean.valid_bytes, image.len() as u64);
        assert!(!clean.torn && !clean.undecodable);

        // Torn tail: half a record at the end.
        let mut torn = image.clone();
        torn.extend_from_slice(&frame(&Record::Flush.encode())[..5]);
        let scanned = scan(&torn);
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_bytes, image.len() as u64);
        assert!(scanned.torn);

        // Bit flip inside the last record's payload: CRC catches it.
        let mut flipped = image.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;
        let scanned = scan(&flipped);
        assert_eq!(scanned.records.len(), records.len() - 1);
        assert!(scanned.torn);

        // Garbage length prefix: the sanity cap stops the scan.
        let mut garbage = image.clone();
        garbage.extend_from_slice(&u32::MAX.to_le_bytes());
        garbage.extend_from_slice(&[0xAA; 12]);
        let scanned = scan(&garbage);
        assert_eq!(scanned.records, records);
        assert!(scanned.torn);

        // A zero-filled tail frames as empty payloads with matching CRCs:
        // wreckage all the same.
        let mut zeroed = image.clone();
        zeroed.extend_from_slice(&[0; 24]);
        let scanned = scan(&zeroed);
        assert_eq!(scanned.records, records);
        assert!(scanned.torn && !scanned.undecodable);

        // An intact record of an unknown kind is not wreckage: the scan
        // stops there and says so, leaving the records behind it alone.
        let mut unknown = image.clone();
        unknown.extend_from_slice(&frame(&[99]));
        unknown.extend_from_slice(&frame(&Record::Flush.encode()));
        let scanned = scan(&unknown);
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_bytes, image.len() as u64);
        assert!(scanned.undecodable && !scanned.torn);
    }

    #[test]
    fn scan_never_panics_on_arbitrary_bytes() {
        // Deterministic pseudo-random junk of many lengths.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut junk = Vec::new();
        for len in [0usize, 1, 7, 8, 9, 64, 1024] {
            junk.clear();
            for _ in 0..len {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                junk.push((state >> 56) as u8);
            }
            let scanned = scan(&junk);
            assert!(scanned.valid_bytes <= junk.len() as u64);
        }
    }

    #[test]
    fn group_commit_batches_until_threshold_or_sync() {
        let store = hybridcs_faults::MemStore::new();
        let image = store.clone();
        let mut journal = Journal::new(Box::new(store), 1024);
        journal.append(&Record::Flush).unwrap();
        assert_eq!(image.snapshot().len(), 0, "buffered, not yet synced");
        journal.sync().unwrap();
        let after_sync = image.snapshot().len();
        assert!(after_sync > 0);
        // A large record blows straight through the threshold.
        journal
            .append(&Record::Push {
                id: 1,
                packet: vec![0; 2048],
            })
            .unwrap();
        assert!(image.snapshot().len() > after_sync, "auto-synced");
    }

    #[test]
    fn fingerprints_distinguish_configs_but_not_throughput_knobs() {
        let base = GatewayConfig::default();
        let more_workers = GatewayConfig { workers: 4, ..base };
        let wider_batches = GatewayConfig {
            max_decode_batch: 64,
            ..base
        };
        let no_batching = GatewayConfig {
            max_decode_batch: 1,
            ..base
        };
        let more_shards = GatewayConfig { shards: 16, ..base };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&more_workers));
        assert_eq!(
            config_fingerprint(&base),
            config_fingerprint(&wider_batches)
        );
        assert_eq!(config_fingerprint(&base), config_fingerprint(&no_batching));
        assert_ne!(config_fingerprint(&base), config_fingerprint(&more_shards));
    }
}
