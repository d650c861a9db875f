//! The flight recorder: fixed-size, lock-free per-shard ring buffers of
//! compact binary events, dumped as JSONL only on anomaly or on demand.
//!
//! Counters say *how often* a watchdog tripped; they cannot say what the
//! session was doing in the windows around the trip. The flight recorder
//! closes that gap at near-zero steady-state cost: every pipeline event
//! (ingest verdicts, stage transitions, shed decisions, ARQ verdicts,
//! ladder demotions, watchdog trips, commits) is packed into a 40-byte
//! slot of a per-shard ring. Rings are fixed-size — old events are
//! overwritten, never allocated past — and writes are plain atomics with
//! a per-slot seqlock version, so recording never takes a lock and a
//! concurrent dump skips (rather than tears) a slot mid-write.
//!
//! Recording is gated on [`crate::enabled`] exactly like spans: one
//! relaxed atomic load when telemetry is off.
//!
//! # The logical clock and deterministic dumps
//!
//! Every event carries a **logical stamp**: a deterministic tick assigned
//! by the ingest tier (the gateway ticks once per frame on its caller
//! thread) rather than a wall clock. Events about a window (watchdog
//! trips, demotions, commits) take that window's [`EventContext`] as an
//! argument of [`emit_with`], so however many workers raced over the
//! batch, sorting a dump by `(logical, kind, session, code, arg, shard)`
//! yields the same event order for any worker count.
//!
//! # Anomalies
//!
//! A shed decision, a ladder demotion, or a watchdog trip marks the
//! recorder [`anomalous`](FlightRecorder::anomalous); callers dump
//! ([`FlightRecorder::dump_jsonl`]) only then — or on demand — keeping
//! the happy path write-only.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Shards in the process-global recorder (concurrency lanes, not gateway
/// shards — events route by `shard % SHARDS`).
const GLOBAL_SHARDS: usize = 8;
/// Events retained per shard of the process-global recorder.
const GLOBAL_CAPACITY: usize = 4096;

/// The event's type tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// A wire frame arrived at the gateway (code: ingest verdict).
    Ingest,
    /// A session changed lifecycle phase (code: new phase).
    StageTransition,
    /// Admission control shed a window to the cheap rung (code: cause).
    Shed,
    /// An ARQ decision on a sequence hole (code: verdict, arg: sequence).
    ArqVerdict,
    /// A ladder rung attempt failed (code: rung, arg: reason).
    Demotion,
    /// A solver watchdog fired (code: trip reason, arg: iteration).
    WatchdogTrip,
    /// A window committed to its ledger (code: rung, arg: sequence or
    /// `u64::MAX` when the header was lost).
    Commit,
    /// A journal checkpoint was written or restored (code: which, arg:
    /// journal event sequence number).
    Checkpoint,
    /// A recovery milestone (code: stage, arg: events replayed so far, or
    /// the journal byte offset for `torn_tail`).
    Recover,
    /// A network-ingest connection lifecycle step (code: step, arg:
    /// step-specific — the device id for `accept`/`hello_*`, the epoch
    /// offset for `timesync`, pending windows for `stall`/`shed`).
    Conn,
}

impl EventKind {
    /// Stable lower-snake identifier (used in dumps).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Ingest => "ingest",
            EventKind::StageTransition => "stage_transition",
            EventKind::Shed => "shed",
            EventKind::ArqVerdict => "arq_verdict",
            EventKind::Demotion => "demotion",
            EventKind::WatchdogTrip => "watchdog_trip",
            EventKind::Commit => "commit",
            EventKind::Checkpoint => "checkpoint",
            EventKind::Recover => "recover",
            EventKind::Conn => "conn",
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            EventKind::Ingest => 0,
            EventKind::StageTransition => 1,
            EventKind::Shed => 2,
            EventKind::ArqVerdict => 3,
            EventKind::Demotion => 4,
            EventKind::WatchdogTrip => 5,
            EventKind::Commit => 6,
            EventKind::Checkpoint => 7,
            EventKind::Recover => 8,
            EventKind::Conn => 9,
        }
    }

    fn from_u8(v: u8) -> Option<EventKind> {
        Some(match v {
            0 => EventKind::Ingest,
            1 => EventKind::StageTransition,
            2 => EventKind::Shed,
            3 => EventKind::ArqVerdict,
            4 => EventKind::Demotion,
            5 => EventKind::WatchdogTrip,
            6 => EventKind::Commit,
            7 => EventKind::Checkpoint,
            8 => EventKind::Recover,
            9 => EventKind::Conn,
            _ => return None,
        })
    }

    /// Stable name for a `code` value of this kind, when one is defined.
    #[must_use]
    pub fn code_name(self, code: u8) -> Option<&'static str> {
        let table: &[&'static str] = match self {
            EventKind::Ingest => &["accepted", "garbled", "late"],
            EventKind::StageTransition => &["handshake", "streaming", "repairing", "closed"],
            EventKind::Shed => &["quota", "queue"],
            EventKind::ArqVerdict => &["nack_queued", "resolved", "declared_lost"],
            EventKind::Demotion | EventKind::Commit => RUNGS,
            EventKind::WatchdogTrip => {
                &["non_finite", "diverged", "time_budget", "iteration_budget"]
            }
            EventKind::Checkpoint => &["written", "restored"],
            EventKind::Recover => &["started", "replayed", "complete", "torn_tail"],
            EventKind::Conn => CONN_STEPS,
        };
        table.get(code as usize).copied()
    }
}

/// Ladder rung names indexed by their stable codes (shared by
/// [`EventKind::Demotion`] and [`EventKind::Commit`]).
pub const RUNGS: &[&str] = &["hybrid", "cs_only", "lowres_only", "concealed"];

/// Demotion reason names indexed by their stable codes (the
/// [`EventKind::Demotion`] `arg`).
pub const DEMOTION_REASONS: &[&str] = &["decode_error", "watchdog", "non_finite", "shed"];

/// Connection lifecycle step names indexed by their stable codes (the
/// [`EventKind::Conn`] `code`).
pub const CONN_STEPS: &[&str] = &[
    "accept",
    "hello_ok",
    "hello_reject",
    "timesync",
    "stall",
    "shed",
    "timeout",
    "close",
];

/// The stable code for a demotion reason string (unknown reasons map to
/// `u8::MAX`).
#[must_use]
pub fn demotion_reason_code(reason: &str) -> u8 {
    DEMOTION_REASONS
        .iter()
        .position(|r| *r == reason)
        .map_or(u8::MAX, |i| i as u8)
}

/// One recorded event (the unpacked view of a 40-byte slot).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Deterministic ingest-tier stamp (0 under the default context).
    pub logical: u64,
    /// Session id the event belongs to (0 when unknown).
    pub session: u64,
    /// Shard lane the event was recorded on.
    pub shard: u16,
    /// Type tag.
    pub kind: EventKind,
    /// Kind-specific code (see [`EventKind::code_name`]).
    pub code: u8,
    /// Kind-specific argument (sequence, iteration, reason code, …).
    pub arg: u64,
}

impl Event {
    /// The deterministic sort key dumps are ordered by.
    fn sort_key(&self) -> (u64, u8, u64, u8, u64, u16) {
        (
            self.logical,
            self.kind.as_u8(),
            self.session,
            self.code,
            self.arg,
            self.shard,
        )
    }
}

/// One seqlock-versioned slot: `version` is even when the fields are
/// stable; a writer bumps it odd, stores, bumps it even.
struct Slot {
    version: AtomicU64,
    meta: AtomicU64, // kind | code << 8 | shard << 16
    logical: AtomicU64,
    session: AtomicU64,
    arg: AtomicU64,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            meta: AtomicU64::new(0),
            logical: AtomicU64::new(0),
            session: AtomicU64::new(0),
            arg: AtomicU64::new(0),
        }
    }
}

/// One shard's fixed-capacity ring.
struct Ring {
    slots: Vec<Slot>,
    /// Total events ever written; the write index is `head % capacity`.
    head: AtomicU64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity.max(1)).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn record(&self, ev: &Event) {
        let n = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(n % self.slots.len() as u64) as usize];
        let meta =
            u64::from(ev.kind.as_u8()) | (u64::from(ev.code) << 8) | (u64::from(ev.shard) << 16);
        slot.version.fetch_add(1, Ordering::AcqRel); // odd: write in progress
        slot.meta.store(meta, Ordering::Relaxed);
        slot.logical.store(ev.logical, Ordering::Relaxed);
        slot.session.store(ev.session, Ordering::Relaxed);
        slot.arg.store(ev.arg, Ordering::Relaxed);
        slot.version.fetch_add(1, Ordering::Release); // even: stable
    }

    /// Reads every stable slot. Slots mid-write (odd or moving version)
    /// are skipped rather than returned torn.
    fn read_into(&self, out: &mut Vec<Event>) {
        let head = self.head.load(Ordering::Acquire);
        let filled = head.min(self.slots.len() as u64) as usize;
        for slot in &self.slots[..filled] {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 % 2 != 0 {
                continue;
            }
            let meta = slot.meta.load(Ordering::Relaxed);
            let logical = slot.logical.load(Ordering::Relaxed);
            let session = slot.session.load(Ordering::Relaxed);
            let arg = slot.arg.load(Ordering::Relaxed);
            if slot.version.load(Ordering::Acquire) != v1 {
                continue;
            }
            let Some(kind) = EventKind::from_u8((meta & 0xFF) as u8) else {
                continue;
            };
            out.push(Event {
                logical,
                session,
                shard: ((meta >> 16) & 0xFFFF) as u16,
                kind,
                code: ((meta >> 8) & 0xFF) as u8,
                arg,
            });
        }
    }
}

/// The recorder: one fixed-size ring per shard lane plus the anomaly
/// latch. See the [module docs](self) for the concurrency story.
pub struct FlightRecorder {
    rings: Vec<Ring>,
    anomaly: AtomicBool,
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("shards", &self.rings.len())
            .field("capacity_per_shard", &self.rings[0].slots.len())
            .field("anomaly", &self.anomaly.load(Ordering::Relaxed))
            .finish()
    }
}

impl FlightRecorder {
    /// A recorder with `shards` independent rings of `capacity` events
    /// each (both clamped to ≥ 1). Memory is fixed at construction:
    /// `shards × capacity × 40` bytes.
    #[must_use]
    pub fn new(shards: usize, capacity: usize) -> FlightRecorder {
        FlightRecorder {
            rings: (0..shards.max(1)).map(|_| Ring::new(capacity)).collect(),
            anomaly: AtomicBool::new(false),
        }
    }

    /// Records one event on its shard's ring (lock-free; overwrites the
    /// oldest event when the ring is full). A shed, demotion, or watchdog
    /// trip also latches the anomaly flag.
    pub fn record(&self, ev: &Event) {
        self.rings[ev.shard as usize % self.rings.len()].record(ev);
        if matches!(
            ev.kind,
            EventKind::Shed | EventKind::Demotion | EventKind::WatchdogTrip
        ) {
            self.anomaly.store(true, Ordering::Relaxed);
        }
    }

    /// Whether an anomaly (shed / demotion / watchdog trip) was recorded
    /// since the last [`clear`](FlightRecorder::clear).
    #[must_use]
    pub fn anomalous(&self) -> bool {
        self.anomaly.load(Ordering::Relaxed)
    }

    /// Events overwritten (lost to wrap-around) across all rings.
    #[must_use]
    pub fn wrapped(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| {
                r.head
                    .load(Ordering::Relaxed)
                    .saturating_sub(r.slots.len() as u64)
            })
            .sum()
    }

    /// Total events ever recorded across all rings.
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.rings
            .iter()
            .map(|r| r.head.load(Ordering::Relaxed))
            .sum()
    }

    /// Forgets everything: rewinds every ring and clears the anomaly
    /// latch (slot contents are left in place — a rewound ring simply
    /// stops exposing them).
    pub fn clear(&self) {
        for ring in &self.rings {
            ring.head.store(0, Ordering::Release);
        }
        self.anomaly.store(false, Ordering::Relaxed);
    }

    /// Every retained event, sorted by the deterministic dump key
    /// `(logical, kind, session, code, arg, shard)`.
    #[must_use]
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::new();
        for ring in &self.rings {
            ring.read_into(&mut out);
        }
        out.sort_by_key(Event::sort_key);
        out
    }

    /// Renders the retained events as JSONL in the observability export
    /// schema: a `meta` first line, then one `flight_event` line per
    /// event in deterministic order. Validates against the same checker
    /// as every other export.
    #[must_use]
    pub fn dump_jsonl(&self, tag: &str) -> String {
        use crate::jsonl::escape;
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"kind\":\"meta\",\"schema\":{},\"tag\":{},\"wrapped\":{},\"anomaly\":{}}}",
            crate::export::SCHEMA_VERSION,
            escape(tag),
            self.wrapped(),
            self.anomalous(),
        );
        for ev in self.events() {
            let code = match ev.kind.code_name(ev.code) {
                Some(name) => escape(name),
                None => format!("\"{}\"", ev.code),
            };
            let _ = write!(
                out,
                "{{\"kind\":\"flight_event\",\"event\":{},\"code\":{code},\
                 \"logical\":{},\"session\":{},\"shard\":{},\"arg\":{}",
                escape(ev.kind.name()),
                ev.logical,
                ev.session,
                ev.shard,
                ev.arg,
            );
            if ev.kind == EventKind::Demotion {
                let reason = DEMOTION_REASONS
                    .get(ev.arg as usize)
                    .copied()
                    .unwrap_or("unknown");
                let _ = write!(out, ",\"reason\":{}", escape(reason));
            }
            out.push_str("}\n");
        }
        out
    }
}

/// The process-global recorder every library emission lands in.
pub fn recorder() -> &'static FlightRecorder {
    static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
    GLOBAL.get_or_init(|| FlightRecorder::new(GLOBAL_SHARDS, GLOBAL_CAPACITY))
}

/// The attribution of one event: which window, session, and shard it
/// belongs to. The default (all zeros) attributes to no window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventContext {
    /// Deterministic ingest stamp of the window being worked.
    pub logical: u64,
    /// Session id.
    pub session: u64,
    /// Shard lane.
    pub shard: u16,
}

/// Emits one event into the [global recorder](recorder) under `ctx`.
/// One relaxed atomic load and nothing else when telemetry is disabled.
pub fn emit_with(ctx: EventContext, kind: EventKind, code: u8, arg: u64) {
    if !crate::enabled() {
        return;
    }
    recorder().record(&Event {
        logical: ctx.logical,
        session: ctx.session,
        shard: ctx.shard,
        kind,
        code,
        arg,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(logical: u64, shard: u16, kind: EventKind, code: u8, arg: u64) -> Event {
        Event {
            logical,
            session: 7,
            shard,
            kind,
            code,
            arg,
        }
    }

    #[test]
    fn ring_wraps_and_counts_overwrites() {
        let rec = FlightRecorder::new(1, 8);
        for i in 0..20 {
            rec.record(&ev(i, 0, EventKind::Ingest, 0, i));
        }
        assert_eq!(rec.recorded(), 20);
        assert_eq!(rec.wrapped(), 12);
        let events = rec.events();
        assert_eq!(events.len(), 8);
        // Only the newest 8 events survive the wrap.
        let logicals: Vec<u64> = events.iter().map(|e| e.logical).collect();
        assert_eq!(logicals, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn anomaly_latches_on_trip_demotion_shed_only() {
        let rec = FlightRecorder::new(2, 16);
        rec.record(&ev(1, 0, EventKind::Ingest, 0, 0));
        rec.record(&ev(1, 0, EventKind::Commit, 0, 0));
        assert!(!rec.anomalous());
        rec.record(&ev(2, 1, EventKind::WatchdogTrip, 2, 120));
        assert!(rec.anomalous());
        rec.clear();
        assert!(!rec.anomalous());
        assert!(rec.events().is_empty());
        rec.record(&ev(3, 0, EventKind::Shed, 0, 0));
        assert!(rec.anomalous());
    }

    #[test]
    fn events_sort_deterministically_regardless_of_write_order() {
        let forward = FlightRecorder::new(4, 64);
        let backward = FlightRecorder::new(4, 64);
        let mut all: Vec<Event> = (0..32)
            .map(|i| ev(i / 4, (i % 4) as u16, EventKind::Commit, (i % 3) as u8, i))
            .collect();
        for e in &all {
            forward.record(e);
        }
        all.reverse();
        for e in &all {
            backward.record(e);
        }
        assert_eq!(forward.events(), backward.events());
        assert_eq!(forward.dump_jsonl("t"), backward.dump_jsonl("t"));
    }

    #[test]
    fn concurrent_shard_writers_lose_nothing_within_capacity() {
        let rec = FlightRecorder::new(4, 4096);
        let threads = 8;
        let per_thread = 1000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let rec = &rec;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        rec.record(&Event {
                            logical: i,
                            session: t,
                            shard: (t % 4) as u16,
                            kind: EventKind::ArqVerdict,
                            code: (i % 3) as u8,
                            arg: i,
                        });
                    }
                });
            }
        });
        assert_eq!(rec.recorded(), threads * per_thread);
        assert_eq!(rec.wrapped(), 0);
        let events = rec.events();
        assert_eq!(events.len(), (threads * per_thread) as usize);
        // Every event reads back internally consistent.
        for e in &events {
            assert_eq!(e.kind, EventKind::ArqVerdict);
            assert_eq!(e.logical, e.arg);
            assert!(e.session < threads);
            assert_eq!(u64::from(e.shard), e.session % 4);
            assert_eq!(u64::from(e.code), e.arg % 3);
        }
    }

    #[test]
    fn dump_is_valid_jsonl_with_meta_first() {
        let rec = FlightRecorder::new(2, 16);
        rec.record(&ev(1, 0, EventKind::Ingest, 1, 5));
        rec.record(&ev(2, 1, EventKind::Demotion, 0, 1)); // hybrid, watchdog
        rec.record(&ev(2, 1, EventKind::WatchdogTrip, 3, 200));
        let dump = rec.dump_jsonl("unit");
        let mut lines = dump.lines();
        let meta = lines.next().unwrap();
        assert!(meta.contains("\"kind\":\"meta\""));
        assert!(meta.contains("\"anomaly\":true"));
        for line in dump.lines() {
            crate::jsonl::validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(dump.contains("\"event\":\"demotion\""));
        assert!(dump.contains("\"reason\":\"watchdog\""));
        assert!(dump.contains("\"code\":\"iteration_budget\""));
    }

    #[test]
    fn code_names_are_stable() {
        assert_eq!(EventKind::WatchdogTrip.code_name(2), Some("time_budget"));
        assert_eq!(EventKind::Shed.code_name(1), Some("queue"));
        assert_eq!(EventKind::Commit.code_name(3), Some("concealed"));
        assert_eq!(EventKind::Ingest.code_name(9), None);
        assert_eq!(EventKind::Checkpoint.code_name(0), Some("written"));
        assert_eq!(EventKind::Checkpoint.code_name(1), Some("restored"));
        assert_eq!(EventKind::Recover.code_name(0), Some("started"));
        assert_eq!(EventKind::Recover.code_name(2), Some("complete"));
        assert_eq!(EventKind::Recover.code_name(3), Some("torn_tail"));
        assert_eq!(EventKind::Conn.code_name(0), Some("accept"));
        assert_eq!(EventKind::Conn.code_name(2), Some("hello_reject"));
        assert_eq!(EventKind::Conn.code_name(4), Some("stall"));
        assert_eq!(EventKind::Conn.code_name(7), Some("close"));
        assert_eq!(EventKind::Conn.code_name(8), None);
        assert_eq!(demotion_reason_code("watchdog"), 1);
        assert_eq!(demotion_reason_code("nope"), u8::MAX);
    }

    #[test]
    fn conn_events_round_trip_without_latching_anomaly() {
        let rec = FlightRecorder::new(1, 16);
        rec.record(&ev(1, 0, EventKind::Conn, 0, 77)); // accept
        rec.record(&ev(2, 0, EventKind::Conn, 4, 12)); // backpressure stall
        let events = rec.events();
        assert_eq!(events[0].kind, EventKind::Conn);
        assert!(
            !rec.anomalous(),
            "connection lifecycle events are not anomalies"
        );
        let dump = rec.dump_jsonl("unit");
        for line in dump.lines() {
            crate::jsonl::validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(dump.contains("\"event\":\"conn\""));
        assert!(dump.contains("\"code\":\"stall\""));
    }

    #[test]
    fn checkpoint_and_recover_events_round_trip_the_ring() {
        let rec = FlightRecorder::new(1, 16);
        rec.record(&ev(1, 0, EventKind::Checkpoint, 0, 42));
        rec.record(&ev(2, 0, EventKind::Recover, 2, 7));
        let events = rec.events();
        assert_eq!(events[0].kind, EventKind::Checkpoint);
        assert_eq!(events[1].kind, EventKind::Recover);
        assert!(!rec.anomalous(), "durability events are not anomalies");
        let dump = rec.dump_jsonl("unit");
        for line in dump.lines() {
            crate::jsonl::validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
        assert!(dump.contains("\"event\":\"checkpoint\""));
        assert!(dump.contains("\"code\":\"written\""));
        assert!(dump.contains("\"event\":\"recover\""));
        assert!(dump.contains("\"code\":\"complete\""));
    }
}
