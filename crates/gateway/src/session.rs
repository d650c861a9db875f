//! Per-session demux state: phase machine, reorder buffer, ARQ bookkeeping.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

use hybridcs_core::{DecodeLadder, ParsedSections, SessionLedger, SupervisedWindow};
use hybridcs_faults::RetryQueue;

/// Where a session sits in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionPhase {
    /// Handshake accepted, no frame seen yet.
    Handshake,
    /// Frames flowing, no outstanding sequence holes.
    Streaming,
    /// At least one sequence hole is outstanding (nacked or awaiting
    /// declare-lost); new frames still flow.
    Repairing,
    /// Closed; further frames are a protocol error.
    Closed,
}

impl SessionPhase {
    /// Every phase, in [`code`](SessionPhase::code) order.
    pub const ALL: [SessionPhase; 4] = [
        SessionPhase::Handshake,
        SessionPhase::Streaming,
        SessionPhase::Repairing,
        SessionPhase::Closed,
    ];

    /// Stable lower-snake identifier (used as the metrics label).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            SessionPhase::Handshake => "handshake",
            SessionPhase::Streaming => "streaming",
            SessionPhase::Repairing => "repairing",
            SessionPhase::Closed => "closed",
        }
    }

    /// Stable numeric code matching the flight-recorder
    /// [`EventKind::StageTransition`](hybridcs_obs::EventKind) code names.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            SessionPhase::Handshake => 0,
            SessionPhase::Streaming => 1,
            SessionPhase::Repairing => 2,
            SessionPhase::Closed => 3,
        }
    }

    /// The phase for a stable code (inverse of [`code`](SessionPhase::code));
    /// `None` for unknown codes. Used when deserializing checkpoints.
    #[must_use]
    pub fn from_code(code: u8) -> Option<SessionPhase> {
        Some(match code {
            0 => SessionPhase::Handshake,
            1 => SessionPhase::Streaming,
            2 => SessionPhase::Repairing,
            3 => SessionPhase::Closed,
            _ => return None,
        })
    }
}

/// Sessions per lifecycle phase, indexed by [`SessionPhase::code`]: one
/// gateway's share of the `gateway_sessions{phase}` gauges. The gauges
/// are process-wide and every gateway in the process (a live one, the
/// replay gateways of an audit, a recovery oracle) holds a share, so each
/// publishes changes to its own counts as deltas: a phase move adds ±1, a
/// recount swaps its old counts for the new, and dropping the counts (with
/// their gateway) withdraws them. The gauges then read the sum over every
/// live gateway.
#[derive(Debug, Default)]
pub(crate) struct PhaseCounts([usize; 4]);

impl PhaseCounts {
    /// Moves one session from `from` (`None` for a session new to the
    /// gateway) to `to`.
    pub(crate) fn moved(&mut self, from: Option<SessionPhase>, to: SessionPhase) {
        if from == Some(to) {
            return;
        }
        if let Some(from) = from {
            self.0[usize::from(from.code())] -= 1;
            Self::add(from, -1.0);
        }
        self.0[usize::from(to.code())] += 1;
        Self::add(to, 1.0);
    }

    /// Replaces the counts with a count of `phases`.
    pub(crate) fn recount(&mut self, phases: impl Iterator<Item = SessionPhase>) {
        let mut counts = [0usize; 4];
        for phase in phases {
            counts[usize::from(phase.code())] += 1;
        }
        for phase in SessionPhase::ALL {
            let i = usize::from(phase.code());
            Self::add(phase, counts[i] as f64 - self.0[i] as f64);
        }
        self.0 = counts;
    }

    /// Adds `delta` to the `gateway_sessions{phase}` gauge.
    fn add(phase: SessionPhase, delta: f64) {
        if delta != 0.0 {
            hybridcs_obs::global()
                .gauge("gateway_sessions", &[("phase", phase.name())])
                .add(delta);
        }
    }
}

impl Drop for PhaseCounts {
    fn drop(&mut self) {
        self.recount(std::iter::empty());
    }
}

/// One position in the reorder buffer.
#[derive(Debug, Clone)]
pub(crate) enum Slot {
    /// The frame arrived (possibly with sections lost on the wire).
    Frame(ParsedSections),
    /// ARQ gave up on this sequence; it will conceal.
    Lost,
}

/// A [`Slot`] plus its telemetry stamps: the gateway's deterministic
/// logical ingest tick (carried through to every flight event for the
/// window) and the wall-clock ingest instant (the start of the window's
/// frame-to-commit latency; for a declared-lost slot, the instant the
/// loss was declared).
#[derive(Debug, Clone)]
pub(crate) struct Queued {
    pub(crate) slot: Slot,
    pub(crate) logical: u64,
    pub(crate) at: Instant,
}

/// All mutable state for one sensor session. Only ever touched from the
/// gateway's caller thread — workers see sessions solely through the
/// shared [`DecodeLadder`].
pub(crate) struct Session {
    pub(crate) shard: usize,
    pub(crate) ladder: Arc<DecodeLadder>,
    /// Fingerprint of the `(SystemConfig, LowResCodec)` shape behind
    /// `ladder` — how checkpoints name the ladder without serializing it.
    pub(crate) shape_fp: u64,
    pub(crate) ledger: SessionLedger,
    pub(crate) phase: SessionPhase,
    pub(crate) arq: RetryQueue,
    /// Sequences currently in the nack/retransmit cycle.
    pub(crate) nacked: BTreeSet<u32>,
    /// Out-of-order arrivals and declared-lost markers, keyed by sequence.
    pub(crate) reorder: BTreeMap<u32, Queued>,
    /// Next sequence to release into the decode batch.
    pub(crate) next_release: u32,
    /// Highest sequence observed so far.
    pub(crate) highest_seen: Option<u32>,
    /// Released-window counter (drives admission epochs).
    pub(crate) window_index: u64,
    /// Admission epoch currently being counted.
    pub(crate) epoch: u64,
    /// Solver-admitted windows within the current epoch.
    pub(crate) admitted_in_epoch: u32,
    /// Committed windows awaiting `take_outputs`/`close`.
    pub(crate) outputs: Vec<SupervisedWindow>,
}

impl Session {
    pub(crate) fn new(
        shard: usize,
        ladder: Arc<DecodeLadder>,
        shape_fp: u64,
        ledger: SessionLedger,
        arq: RetryQueue,
    ) -> Self {
        Session {
            shard,
            ladder,
            shape_fp,
            ledger,
            phase: SessionPhase::Handshake,
            arq,
            nacked: BTreeSet::new(),
            reorder: BTreeMap::new(),
            next_release: 0,
            highest_seen: None,
            window_index: 0,
            epoch: 0,
            admitted_in_epoch: 0,
            outputs: Vec::new(),
        }
    }

    /// The sequence a brand-new (never seen) frame would occupy.
    pub(crate) fn next_unseen(&self) -> u32 {
        self.highest_seen
            .map_or(self.next_release, |h| h.wrapping_add(1))
    }

    /// Sequence holes outstanding between the release cursor and the
    /// highest seen frame.
    pub(crate) fn holes_outstanding(&self) -> bool {
        match self.highest_seen {
            None => false,
            Some(h) => {
                if h < self.next_release {
                    return false;
                }
                let span = (h - self.next_release) as usize + 1;
                span > self.reorder.len()
            }
        }
    }

    /// Recomputes the streaming/repairing phase after buffer changes.
    pub(crate) fn refresh_phase(&mut self) {
        if matches!(
            self.phase,
            SessionPhase::Streaming | SessionPhase::Repairing
        ) {
            self.phase = if self.holes_outstanding() {
                SessionPhase::Repairing
            } else {
                SessionPhase::Streaming
            };
        }
    }
}
