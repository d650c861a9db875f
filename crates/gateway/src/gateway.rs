//! The gateway orchestrator: demux, admission, batching, worker pool,
//! and the crash-safety layer (journal, checkpoint, recovery).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use hybridcs_coding::{LowResCodec, Payload};
use hybridcs_core::{
    DecodeLadder, LadderJob, LadderOutcome, SessionLedger, SupervisedWindow, SystemConfig,
};
use hybridcs_faults::{JournalStore, NackOutcome, RetryQueue};
use hybridcs_obs::flight::emit_with;
use hybridcs_obs::{EventContext, EventKind};
use hybridcs_solver::SolverWorkspace;

use crate::journal::{
    self, config_fingerprint, shape_fingerprint, CheckpointState, Journal, Record, RecoveryReport,
    ScannedJournal, SessionState,
};
use crate::session::{PhaseCounts, Queued, Session, SessionPhase, Slot};
use crate::{GatewayConfig, GatewayError};

/// One shape-keyed entry in the shared operator cache.
struct LadderEntry {
    system: SystemConfig,
    codec: LowResCodec,
    ladder: Arc<DecodeLadder>,
}

/// One queued decode job. Everything a worker needs is owned or `Arc`ed
/// here; workers never touch session state.
struct Job {
    session: u64,
    shard: usize,
    sequence: Option<u32>,
    measurements: Option<Vec<f64>>,
    lowres: Option<Payload>,
    skip_solvers: bool,
    ladder: Arc<DecodeLadder>,
    /// Deterministic logical ingest stamp (flight-event attribution).
    logical: u64,
    /// Wall-clock ingest instant — the frame-to-commit latency origin.
    ingest_at: Instant,
    /// Instant the window left the reorder buffer for the batch; the
    /// solve-queue latency origin.
    released_at: Instant,
}

impl Job {
    fn event_context(&self) -> EventContext {
        event_context(self.logical, self.session, self.shard)
    }
}

/// The flight-recorder attribution of an event of session `session`,
/// pinned to `shard`, at logical stamp `logical`.
fn event_context(logical: u64, session: u64, shard: usize) -> EventContext {
    EventContext {
        logical,
        session,
        shard: shard as u16,
    }
}

/// The batch being assembled between flushes.
struct Batch {
    /// Jobs in global ingest order — the commit order.
    jobs: Vec<Job>,
    /// Solver-admitted jobs per shard (the bounded queue depths).
    solver_depth: Vec<usize>,
    /// Jobs queued with `skip_solvers` this batch.
    shed: usize,
}

impl Batch {
    fn new(shards: usize) -> Self {
        Batch {
            jobs: Vec::new(),
            solver_depth: vec![0; shards],
            shed: 0,
        }
    }
}

/// What one [`Gateway::flush`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GatewayReport {
    /// Windows committed to session ledgers.
    pub committed: usize,
    /// Windows that ran the full solver ladder.
    pub full_solves: usize,
    /// Windows shed to the cheap rung (quota or queue pressure).
    pub shed: usize,
}

/// The multi-session ingest and batched-decode service; see the
/// [crate docs](crate) for the architecture and determinism contract.
pub struct Gateway {
    config: GatewayConfig,
    ladders: Vec<LadderEntry>,
    sessions: BTreeMap<u64, Session>,
    /// `sessions` counted by phase, kept in step with every phase change.
    phases: PhaseCounts,
    batch: Batch,
    /// One solver-buffer arena per worker, reused across flushes so
    /// steady-state decodes never allocate inside the solver loops. Each
    /// flush's worker `j` borrows arena `j` in place — no locking.
    workspaces: Vec<SolverWorkspace>,
    /// The deterministic logical clock: ticks once per ingest-tier call
    /// (`push`/`notify_lost`/`close`) on the caller thread, so frame
    /// stamps — and therefore flight-event dump order — are independent
    /// of worker count and scheduling.
    clock: u64,
    /// The write-ahead journal, when durability is enabled (see
    /// [`Gateway::with_journal`] / [`Gateway::recover`]).
    journal: Option<Journal>,
    /// Command records journaled (or, without a journal, API calls made) —
    /// the replay cursor checkpoints are positioned by.
    applied: u64,
    /// `applied` at the last checkpoint (drives `checkpoint_every`).
    last_checkpoint_applied: u64,
}

impl Gateway {
    /// A gateway with no sessions.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::Config`] for an invalid policy.
    pub fn new(config: GatewayConfig) -> Result<Self, GatewayError> {
        config.validate()?;
        Ok(Gateway {
            config,
            ladders: Vec::new(),
            sessions: BTreeMap::new(),
            phases: PhaseCounts::default(),
            batch: Batch::new(config.shards),
            workspaces: (0..config.workers)
                .map(|_| SolverWorkspace::new())
                .collect(),
            clock: 0,
            journal: None,
            applied: 0,
            last_checkpoint_applied: 0,
        })
    }

    /// A gateway journaling every API call to `store` (which must be
    /// empty — resume an existing journal with [`Gateway::recover`]).
    /// The genesis record is written and synced before this returns.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Config`] for an invalid policy,
    /// [`GatewayError::Recovery`] for a non-empty store, or
    /// [`GatewayError::Journal`] when the store fails.
    pub fn with_journal(
        config: GatewayConfig,
        store: Box<dyn JournalStore + Send>,
    ) -> Result<Self, GatewayError> {
        config.validate()?;
        if !store.is_empty() {
            return Err(GatewayError::Recovery(
                "journal store is not empty; use Gateway::recover",
            ));
        }
        let mut journal = Journal::new(store, config.journal_group_bytes);
        journal
            .append(&Record::Genesis {
                config_fp: config_fingerprint(&config),
            })
            .map_err(GatewayError::Journal)?;
        journal.sync().map_err(GatewayError::Journal)?;
        let mut gateway = Self::new(config)?;
        gateway.journal = Some(journal);
        Ok(gateway)
    }

    /// The active policy.
    #[must_use]
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// The current logical clock value (ticks per ingest-tier call).
    #[must_use]
    pub fn logical_clock(&self) -> u64 {
        self.clock
    }

    /// Registers a session: pins it to a shard (SplitMix64 of the id) and
    /// binds it to the shared decode ladder for its operator shape,
    /// building that ladder only if the `(config, codec)` pair was never
    /// seen before. A *closed* session's id may be reused: the handshake
    /// replaces it with entirely fresh state — no concealment memory, ARQ
    /// budget, or degradation counters are inherited.
    ///
    /// # Errors
    ///
    /// [`GatewayError::DuplicateHandshake`] when the id is live
    /// (handshaken and not closed), or [`GatewayError::Core`] when
    /// operator setup fails.
    pub fn handshake(
        &mut self,
        id: u64,
        system: &SystemConfig,
        codec: LowResCodec,
    ) -> Result<(), GatewayError> {
        if self.journal.is_some() {
            let shape_fp = shape_fingerprint(system, &codec);
            self.journal_append(Record::Handshake { id, shape_fp })?;
        }
        self.applied += 1;
        self.handshake_inner(id, system, codec)
    }

    fn handshake_inner(
        &mut self,
        id: u64,
        system: &SystemConfig,
        codec: LowResCodec,
    ) -> Result<(), GatewayError> {
        let registry = hybridcs_obs::global();
        match self.sessions.get(&id) {
            Some(session) if session.phase != SessionPhase::Closed => {
                registry
                    .counter(
                        "gateway_handshake_rejected_total",
                        &[("reason", "duplicate")],
                    )
                    .inc();
                return Err(GatewayError::DuplicateHandshake(id));
            }
            Some(_) => {
                registry.counter("gateway_sessions_reused_total", &[]).inc();
            }
            None => {}
        }
        let session = self.fresh_session(id, shape_fingerprint(system, &codec), system, codec)?;
        let replaced = self.sessions.insert(id, session).map(|s| s.phase);
        self.phases.moved(replaced, SessionPhase::Handshake);
        registry.counter("gateway_sessions_total", &[]).inc();
        Ok(())
    }

    /// A session in its initial state: pinned to a shard by a SplitMix64
    /// hash of its id and bound to the shared ladder for its shape.
    fn fresh_session(
        &mut self,
        id: u64,
        shape_fp: u64,
        system: &SystemConfig,
        codec: LowResCodec,
    ) -> Result<Session, GatewayError> {
        let ladder = self.ladder_for(system, codec)?;
        let shard = usize::try_from(hybridcs_rand::mix(id) % self.config.shards as u64)
            .expect("shard index fits usize");
        let ledger = SessionLedger::new(system.window, self.config.supervisor.max_conceal_reuse);
        let arq = RetryQueue::new(self.config.arq);
        Ok(Session::new(shard, ladder, shape_fp, ledger, arq))
    }

    /// Looks up (or builds) the shared ladder for one operator shape.
    fn ladder_for(
        &mut self,
        system: &SystemConfig,
        codec: LowResCodec,
    ) -> Result<Arc<DecodeLadder>, GatewayError> {
        if let Some(entry) = self
            .ladders
            .iter()
            .find(|e| e.system == *system && e.codec == codec)
        {
            return Ok(Arc::clone(&entry.ladder));
        }
        let ladder = Arc::new(DecodeLadder::new(
            system,
            codec.clone(),
            self.config.supervisor.watchdog,
        )?);
        hybridcs_obs::global()
            .counter("gateway_ladders_built_total", &[])
            .inc();
        self.ladders.push(LadderEntry {
            system: system.clone(),
            codec,
            ladder: Arc::clone(&ladder),
        });
        Ok(ladder)
    }

    /// Ingests one wire frame for `id`. Wire noise (garbled header,
    /// duplicate or late frame) is counted and absorbed, never an error.
    /// Detected sequence gaps are nacked through the session's ARQ; poll
    /// [`take_nacks`](Gateway::take_nacks) to collect retransmission
    /// requests. A header more than `batch_capacity` past the highest
    /// frame seen resyncs the session instead: every hole up to that
    /// frame is declared lost, and the skipped sequences get no window.
    /// May auto-flush when the batch reaches capacity.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] or [`GatewayError::SessionClosed`],
    /// plus [`GatewayError::Journal`] when journaling is on and the store
    /// fails.
    pub fn push(&mut self, id: u64, packet: &[u8]) -> Result<(), GatewayError> {
        if self.journal.is_some() {
            self.journal_append(Record::Push {
                id,
                packet: packet.to_vec(),
            })?;
        }
        self.applied += 1;
        let result = self.push_inner(id, packet);
        self.maybe_checkpoint()?;
        result
    }

    fn push_inner(&mut self, id: u64, packet: &[u8]) -> Result<(), GatewayError> {
        let _span = hybridcs_obs::span!("gateway.push");
        let started = Instant::now();
        self.clock += 1;
        let logical = self.clock;
        let registry = hybridcs_obs::global();
        let Some(session) = self.sessions.get_mut(&id) else {
            registry.counter("gateway_unknown_session_total", &[]).inc();
            return Err(GatewayError::UnknownSession(id));
        };
        if session.phase == SessionPhase::Closed {
            registry.counter("gateway_closed_session_total", &[]).inc();
            return Err(GatewayError::SessionClosed(id));
        }
        let ctx = event_context(logical, id, session.shard);
        let mut resync = None;
        let parsed = session.ladder.parse(Some(packet));
        match parsed.sequence {
            None => {
                // Unusable header: it still occupies a stream position
                // (the sensor sent *something*), so slot it at the next
                // unseen sequence and let the ladder work the surviving
                // sections.
                registry
                    .counter("gateway_frames_total", &[("result", "garbled")])
                    .inc();
                let slot_seq = session.next_unseen();
                emit_with(ctx, EventKind::Ingest, 1, u64::from(slot_seq));
                session.reorder.insert(
                    slot_seq,
                    Queued {
                        slot: Slot::Frame(parsed),
                        logical,
                        at: started,
                    },
                );
                session.highest_seen = Some(slot_seq);
            }
            Some(seq) => {
                if seq < session.next_release || session.reorder.contains_key(&seq) {
                    // Already released or already buffered (including
                    // declared-lost): a late duplicate. Count and drop.
                    registry
                        .counter("gateway_frames_total", &[("result", "late")])
                        .inc();
                    emit_with(ctx, EventKind::Ingest, 2, u64::from(seq));
                    return Ok(());
                }
                emit_with(ctx, EventKind::Ingest, 0, u64::from(seq));
                if session.nacked.remove(&seq) {
                    session.arq.resolve(seq);
                    emit_with(ctx, EventKind::ArqVerdict, 1, u64::from(seq));
                }
                let queued = Queued {
                    slot: Slot::Frame(parsed),
                    logical,
                    at: started,
                };
                // A jump past what one batch holds is not a gap the ARQ
                // can repair (a sensor restart, or a corrupt counter under
                // a valid CRC): repairing it would open one hole per
                // skipped sequence.
                if seq.saturating_sub(session.next_unseen()) as usize > self.config.batch_capacity {
                    registry
                        .counter("gateway_frames_total", &[("result", "resync")])
                        .inc();
                    Self::declare_holes_lost(session, id, logical);
                    resync = Some((seq, queued));
                } else {
                    registry
                        .counter("gateway_frames_total", &[("result", "accepted")])
                        .inc();
                    // Everything between the highest frame seen and this
                    // one is now a known hole: start the nack cycle for
                    // each.
                    for gap in session.next_unseen()..seq {
                        Self::open_gap(session, id, logical, gap);
                    }
                    session.highest_seen = Some(session.highest_seen.map_or(seq, |h| h.max(seq)));
                    session.reorder.insert(seq, queued);
                }
            }
        }
        if session.phase == SessionPhase::Handshake {
            session.phase = SessionPhase::Streaming;
            self.phases
                .moved(Some(SessionPhase::Handshake), SessionPhase::Streaming);
            emit_with(
                ctx,
                EventKind::StageTransition,
                SessionPhase::Streaming.code(),
                0,
            );
        }
        self.release_ready(id);
        if let Some((seq, queued)) = resync {
            // The released prefix ends the old stream; it resumes at `seq`.
            let session = self.sessions.get_mut(&id).expect("checked above");
            session.next_release = seq;
            session.highest_seen = Some(seq);
            session.reorder.insert(seq, queued);
            self.release_ready(id);
        }
        registry
            .histogram("gateway_stage_seconds", &[("stage", "ingest")])
            .record(started.elapsed().as_secs_f64());
        if self.batch.jobs.len() >= self.config.batch_capacity {
            // Capacity auto-flush is NOT journaled: replaying the pushes
            // reproduces it deterministically, so a Flush record here
            // would double-flush on replay.
            self.flush_inner()?;
        }
        Ok(())
    }

    /// Reports that a nacked retransmission for `sequence` was itself
    /// lost (the driver's stand-in for a retransmission timeout). Either
    /// re-nacks it or — once ARQ limits are spent — declares it lost so
    /// the window concedes to concealment.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] or [`GatewayError::SessionClosed`],
    /// plus [`GatewayError::Journal`] when journaling is on and the store
    /// fails.
    pub fn notify_lost(&mut self, id: u64, sequence: u32) -> Result<(), GatewayError> {
        if self.journal.is_some() {
            self.journal_append(Record::NotifyLost { id, sequence })?;
        }
        self.applied += 1;
        let result = self.notify_lost_inner(id, sequence);
        self.maybe_checkpoint()?;
        result
    }

    fn notify_lost_inner(&mut self, id: u64, sequence: u32) -> Result<(), GatewayError> {
        self.clock += 1;
        let logical = self.clock;
        let Some(session) = self.sessions.get_mut(&id) else {
            hybridcs_obs::global()
                .counter("gateway_unknown_session_total", &[])
                .inc();
            return Err(GatewayError::UnknownSession(id));
        };
        if session.phase == SessionPhase::Closed {
            return Err(GatewayError::SessionClosed(id));
        }
        if sequence < session.next_release || session.reorder.contains_key(&sequence) {
            return Ok(()); // stale notification
        }
        Self::open_gap(session, id, logical, sequence);
        self.release_ready(id);
        if self.batch.jobs.len() >= self.config.batch_capacity {
            self.flush_inner()?;
        }
        Ok(())
    }

    /// Drains the retransmission requests the session's ARQ has queued.
    /// Each drained sequence consumes one unit of retry budget and one
    /// per-frame attempt; the caller is expected to retransmit it (and
    /// call [`notify_lost`](Gateway::notify_lost) if that fails).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`], plus [`GatewayError::Journal`]
    /// when journaling is on and the store fails.
    pub fn take_nacks(&mut self, id: u64) -> Result<Vec<u32>, GatewayError> {
        if self.journal.is_some() {
            self.journal_append(Record::TakeNacks { id })?;
        }
        self.applied += 1;
        let result = self.take_nacks_inner(id);
        // Draining consumed ARQ budget the caller will now act on
        // (retransmissions): observed ⇒ durable.
        self.journal_sync()?;
        result
    }

    fn take_nacks_inner(&mut self, id: u64) -> Result<Vec<u32>, GatewayError> {
        let Some(session) = self.sessions.get_mut(&id) else {
            return Err(GatewayError::UnknownSession(id));
        };
        let mut out = Vec::new();
        while let Some(seq) = session.arq.next_attempt() {
            out.push(seq);
        }
        if !out.is_empty() {
            hybridcs_obs::global()
                .counter("gateway_nacks_sent_total", &[])
                .add(out.len() as u64);
        }
        Ok(out)
    }

    /// Gives up on every hole up to the highest frame seen: each missing
    /// slot is declared lost (it will conceal) and every outstanding nack
    /// is abandoned, releasing its ARQ reservation.
    fn declare_holes_lost(session: &mut Session, id: u64, logical: u64) {
        let ctx = event_context(logical, id, session.shard);
        if let Some(highest) = session.highest_seen {
            for seq in session.next_release..=highest {
                session.reorder.entry(seq).or_insert_with(|| {
                    hybridcs_obs::global()
                        .counter("gateway_declared_lost_total", &[])
                        .inc();
                    emit_with(ctx, EventKind::ArqVerdict, 2, u64::from(seq));
                    Queued {
                        slot: Slot::Lost,
                        logical,
                        at: Instant::now(),
                    }
                });
            }
        }
        for seq in std::mem::take(&mut session.nacked) {
            session.arq.abandon(seq);
        }
    }

    /// Nacks a fresh hole, or declares it lost when ARQ limits say no.
    fn open_gap(session: &mut Session, id: u64, logical: u64, sequence: u32) {
        let ctx = event_context(logical, id, session.shard);
        match session.arq.nack(sequence) {
            NackOutcome::Queued => {
                session.nacked.insert(sequence);
                emit_with(ctx, EventKind::ArqVerdict, 0, u64::from(sequence));
            }
            _ => {
                session.nacked.remove(&sequence);
                // Declared lost: release the frame's slice of the
                // retransmission budget and its attempt history — it will
                // conceal, never retransmit.
                session.arq.abandon(sequence);
                session.reorder.insert(
                    sequence,
                    Queued {
                        slot: Slot::Lost,
                        logical,
                        at: Instant::now(),
                    },
                );
                hybridcs_obs::global()
                    .counter("gateway_declared_lost_total", &[])
                    .inc();
                emit_with(ctx, EventKind::ArqVerdict, 2, u64::from(sequence));
            }
        }
    }

    /// Releases the contiguous prefix of the reorder buffer into the
    /// batch, applying admission control per released window.
    fn release_ready(&mut self, id: u64) {
        let session = self.sessions.get_mut(&id).expect("caller checked session");
        let registry = hybridcs_obs::global();
        let phase_before = session.phase;
        while let Some(queued) = session.reorder.remove(&session.next_release) {
            let Queued { slot, logical, at } = queued;
            let seq = session.next_release;
            session.next_release = seq.wrapping_add(1);
            let epoch = session.window_index / u64::from(self.config.admit_window);
            if epoch != session.epoch {
                session.epoch = epoch;
                session.admitted_in_epoch = 0;
            }
            session.window_index += 1;
            let (sequence, measurements, lowres) = match slot {
                Slot::Frame(parsed) => (parsed.sequence, parsed.measurements, parsed.lowres),
                Slot::Lost => (None, None, None),
            };
            if let Some(s) = sequence {
                session.ledger.track_sequence(s);
            }
            let ctx = event_context(logical, id, session.shard);
            let mut skip_solvers = false;
            if measurements.is_some() {
                if session.admitted_in_epoch >= self.config.admit_quota {
                    skip_solvers = true;
                    registry
                        .counter("gateway_shed_total", &[("kind", "quota")])
                        .inc();
                    emit_with(ctx, EventKind::Shed, 0, u64::from(seq));
                } else if self.batch.solver_depth[session.shard] >= self.config.max_shard_queue {
                    skip_solvers = true;
                    registry
                        .counter("gateway_shed_total", &[("kind", "queue")])
                        .inc();
                    emit_with(ctx, EventKind::Shed, 1, u64::from(seq));
                } else {
                    session.admitted_in_epoch += 1;
                    self.batch.solver_depth[session.shard] += 1;
                }
            }
            if skip_solvers {
                self.batch.shed += 1;
            }
            let released_at = Instant::now();
            // Repair latency: ingest (or loss declaration) → release out
            // of the reorder buffer. Near-zero for in-order streams.
            registry
                .histogram("gateway_stage_seconds", &[("stage", "repair")])
                .record(released_at.duration_since(at).as_secs_f64());
            self.batch.jobs.push(Job {
                session: id,
                shard: session.shard,
                sequence,
                measurements,
                lowres,
                skip_solvers,
                ladder: Arc::clone(&session.ladder),
                logical,
                ingest_at: at,
                released_at,
            });
        }
        session.refresh_phase();
        if session.phase != phase_before {
            self.phases.moved(Some(phase_before), session.phase);
            emit_with(
                event_context(self.clock, id, session.shard),
                EventKind::StageTransition,
                session.phase.code(),
                0,
            );
        }
    }

    /// Windows queued and not yet flushed.
    #[must_use]
    pub fn pending_windows(&self) -> usize {
        self.batch.jobs.len()
    }

    /// The session's lifecycle phase, if it exists.
    #[must_use]
    pub fn phase(&self, id: u64) -> Option<SessionPhase> {
        self.sessions.get(&id).map(|s| s.phase)
    }

    /// Runs the queued batch: solves fan out to the worker pool (worker
    /// `j` owns every shard whose index ≡ `j` mod `workers`; the solve
    /// half of the ladder is pure), then every window commits to its
    /// session ledger on this thread **in global ingest order** — the
    /// batch-synchronous flush that makes outputs independent of worker
    /// count and scheduling.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Journal`] when journaling is on and the store
    /// fails; otherwise currently infallible after construction.
    pub fn flush(&mut self) -> Result<GatewayReport, GatewayError> {
        if self.journal.is_some() {
            self.journal_append(Record::Flush)?;
        }
        self.applied += 1;
        let result = self.flush_inner();
        // Flush is a delivery point (outputs become drainable): sync the
        // group-commit buffer before the caller can observe them.
        self.journal_sync()?;
        self.maybe_checkpoint()?;
        result
    }

    fn flush_inner(&mut self) -> Result<GatewayReport, GatewayError> {
        let _span = hybridcs_obs::span!("gateway.flush");
        if self.batch.jobs.is_empty() {
            return Ok(GatewayReport::default());
        }
        let registry = hybridcs_obs::global();
        for depth in &self.batch.solver_depth {
            registry
                .histogram("gateway_shard_queue_depth", &[])
                .record(*depth as f64);
        }
        let workers = self.config.workers;
        let max_decode_batch = self.config.max_decode_batch;
        let jobs = &self.batch.jobs;
        // Fan out: each worker walks the job list in order, solving only
        // its shards. Results carry the job index for exact scatter, plus
        // the solve and queue-wait durations for the stage histograms.
        let mut solved: Vec<Option<(LadderOutcome, f64, f64)>> = vec![None; jobs.len()];
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .workspaces
                .iter_mut()
                .enumerate()
                .map(|(worker, ws)| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        // This worker's jobs, grouped per (shard, ladder):
                        // windows sharing operator state solve as one
                        // lockstep batch, so the packed-sign and wavelet
                        // kernels amortize across the group. A group never
                        // crosses shards, although the arena is the
                        // worker's: a window's panel-mates, and with them
                        // its solve time, stay independent of the worker
                        // count. Chunking at `max_decode_batch` bounds
                        // panel width.
                        let mut groups: Vec<(usize, &Arc<DecodeLadder>, Vec<usize>)> = Vec::new();
                        for (index, job) in jobs.iter().enumerate() {
                            if job.shard % workers != worker {
                                continue;
                            }
                            match groups.iter_mut().find(|(shard, ladder, _)| {
                                *shard == job.shard && Arc::ptr_eq(ladder, &job.ladder)
                            }) {
                                Some((_, _, members)) => members.push(index),
                                None => groups.push((job.shard, &job.ladder, vec![index])),
                            }
                        }
                        for (_, ladder, members) in groups {
                            for chunk in members.chunks(max_decode_batch) {
                                let started = Instant::now();
                                // Each job carries its window's flight
                                // context: the ladder records the window's
                                // watchdog trips under it.
                                let ladder_jobs: Vec<LadderJob<'_>> = chunk
                                    .iter()
                                    .map(|&index| {
                                        let job = &jobs[index];
                                        LadderJob {
                                            measurements: job.measurements.as_deref(),
                                            lowres: job.lowres.as_ref(),
                                            skip_solvers: job.skip_solvers,
                                            context: Some(job.event_context()),
                                        }
                                    })
                                    .collect();
                                let outcomes = ladder.solve_batch_with(&ladder_jobs, ws);
                                // Every window in the chunk waited for the
                                // whole lockstep solve.
                                let seconds = started.elapsed().as_secs_f64();
                                for (&index, outcome) in chunk.iter().zip(outcomes) {
                                    let queued = started
                                        .duration_since(jobs[index].released_at)
                                        .as_secs_f64();
                                    out.push((index, outcome, seconds, queued));
                                }
                            }
                        }
                        out
                    })
                })
                .collect();
            for handle in handles {
                let out = handle.join().expect("gateway worker panicked");
                for (index, outcome, seconds, queued) in out {
                    solved[index] = Some((outcome, seconds, queued));
                }
            }
        });
        // Commit on this thread in ingest order.
        let jobs = std::mem::take(&mut self.batch.jobs);
        let shed = std::mem::take(&mut self.batch.shed);
        self.batch.solver_depth = vec![0; self.config.shards];
        let mut report = GatewayReport {
            committed: 0,
            full_solves: 0,
            shed,
        };
        for (job, slot) in jobs.into_iter().zip(solved) {
            let (outcome, seconds, queued) = slot.expect("every job was solved");
            registry
                .histogram("gateway_stage_seconds", &[("stage", "queue")])
                .record(queued);
            registry
                .histogram("gateway_stage_seconds", &[("stage", "solve")])
                .record(seconds);
            let started = Instant::now();
            let session = self
                .sessions
                .get_mut(&job.session)
                .expect("sessions outlive queued jobs");
            let window = session
                .ledger
                .commit(job.sequence, outcome, job.event_context());
            session.outputs.push(window);
            registry
                .histogram("gateway_stage_seconds", &[("stage", "commit")])
                .record(started.elapsed().as_secs_f64());
            // The tentpole metric: wire ingest → ledger commit, end to end
            // through reorder, repair, queueing, and the solve.
            registry
                .histogram("gateway_frame_to_commit_seconds", &[])
                .record(job.ingest_at.elapsed().as_secs_f64());
            report.committed += 1;
            if !job.skip_solvers && job.measurements.is_some() {
                report.full_solves += 1;
            }
        }
        registry.counter("gateway_batches_total", &[]).inc();
        registry
            .counter("gateway_windows_committed_total", &[])
            .add(report.committed as u64);
        Ok(report)
    }

    /// Drains the session's committed windows (in stream order). Windows
    /// only appear here after a [`flush`](Gateway::flush).
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`], plus [`GatewayError::Journal`]
    /// when journaling is on and the store fails.
    pub fn take_outputs(&mut self, id: u64) -> Result<Vec<SupervisedWindow>, GatewayError> {
        if self.journal.is_some() {
            self.journal_append(Record::TakeOutputs { id })?;
        }
        self.applied += 1;
        let result = self.take_outputs_inner(id);
        // The windows leave the gateway now: observed ⇒ durable.
        self.journal_sync()?;
        result
    }

    fn take_outputs_inner(&mut self, id: u64) -> Result<Vec<SupervisedWindow>, GatewayError> {
        let Some(session) = self.sessions.get_mut(&id) else {
            return Err(GatewayError::UnknownSession(id));
        };
        Ok(std::mem::take(&mut session.outputs))
    }

    /// Closes a session: every outstanding hole below the highest frame
    /// seen is declared lost (it will conceal), in-flight work is flushed,
    /// and the remaining outputs are returned. Further frames for the id
    /// are [`GatewayError::SessionClosed`]; a later
    /// [`handshake`](Gateway::handshake) may reuse the id with entirely
    /// fresh state. On close, the session's ledger counters (concealment
    /// memory, staleness) are reset and any remaining ARQ reservations
    /// are released.
    ///
    /// # Errors
    ///
    /// [`GatewayError::UnknownSession`] or [`GatewayError::SessionClosed`],
    /// plus [`GatewayError::Journal`] when journaling is on and the store
    /// fails.
    pub fn close(&mut self, id: u64) -> Result<Vec<SupervisedWindow>, GatewayError> {
        if self.journal.is_some() {
            self.journal_append(Record::Close { id })?;
        }
        self.applied += 1;
        let result = self.close_inner(id);
        // The trailing windows leave the gateway now: observed ⇒ durable.
        self.journal_sync()?;
        self.maybe_checkpoint()?;
        result
    }

    fn close_inner(&mut self, id: u64) -> Result<Vec<SupervisedWindow>, GatewayError> {
        self.clock += 1;
        let logical = self.clock;
        {
            let Some(session) = self.sessions.get_mut(&id) else {
                return Err(GatewayError::UnknownSession(id));
            };
            if session.phase == SessionPhase::Closed {
                return Err(GatewayError::SessionClosed(id));
            }
            Self::declare_holes_lost(session, id, logical);
        }
        self.release_ready(id);
        self.flush_inner()?;
        let session = self.sessions.get_mut(&id).expect("session still present");
        self.phases.moved(Some(session.phase), SessionPhase::Closed);
        session.phase = SessionPhase::Closed;
        // With every ARQ reservation released above, reset the ledger's
        // degradation counters, so nothing stale survives into a reuse of
        // this session id.
        session.ledger.reset();
        session.reorder.clear();
        emit_with(
            event_context(logical, id, session.shard),
            EventKind::StageTransition,
            SessionPhase::Closed.code(),
            0,
        );
        let outputs = std::mem::take(&mut session.outputs);
        Ok(outputs)
    }

    // -- crash safety: journal, checkpoint, recovery ----------------------

    /// Appends one record to the journal (no-op without one).
    fn journal_append(&mut self, record: Record) -> Result<(), GatewayError> {
        if let Some(journal) = self.journal.as_mut() {
            journal.append(&record).map_err(GatewayError::Journal)?;
        }
        Ok(())
    }

    /// Forces the group-commit buffer to the store (no-op without a
    /// journal).
    fn journal_sync(&mut self) -> Result<(), GatewayError> {
        if let Some(journal) = self.journal.as_mut() {
            journal.sync().map_err(GatewayError::Journal)?;
        }
        Ok(())
    }

    /// Writes a checkpoint if one is due and the batch is quiescent.
    fn maybe_checkpoint(&mut self) -> Result<(), GatewayError> {
        if self.journal.is_none() || !self.batch.jobs.is_empty() {
            return Ok(());
        }
        if self.applied.saturating_sub(self.last_checkpoint_applied) < self.config.checkpoint_every
        {
            return Ok(());
        }
        self.checkpoint_now()
    }

    /// Appends a snapshot checkpoint to the journal, first flushing any
    /// queued batch (a journaled flush, so replay stays faithful).
    /// Checkpoints bound recovery's replay work; the policy knob
    /// `checkpoint_every` writes them automatically. No-op without a
    /// journal.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Journal`] when the store fails.
    pub fn checkpoint(&mut self) -> Result<(), GatewayError> {
        if self.journal.is_none() {
            return Ok(());
        }
        if !self.batch.jobs.is_empty() {
            self.flush()?;
            if self.last_checkpoint_applied == self.applied {
                return Ok(()); // the flush already checkpointed
            }
        }
        self.checkpoint_now()
    }

    fn checkpoint_now(&mut self) -> Result<(), GatewayError> {
        debug_assert!(self.batch.jobs.is_empty(), "checkpoints are quiescent");
        let state = self.snapshot();
        let at = self.applied;
        if let Some(journal) = self.journal.as_mut() {
            journal
                .append(&Record::Checkpoint(state))
                .map_err(GatewayError::Journal)?;
            journal.sync().map_err(GatewayError::Journal)?;
        }
        self.last_checkpoint_applied = at;
        hybridcs_obs::global()
            .counter("gateway_checkpoints_total", &[])
            .inc();
        emit_with(
            event_context(self.clock, 0, 0),
            EventKind::Checkpoint,
            0,
            at,
        );
        Ok(())
    }

    /// Captures the full mutable state (see `journal.rs` for the wire
    /// format). Wall-clock instants are telemetry-only and not captured.
    fn snapshot(&self) -> CheckpointState {
        CheckpointState {
            config_fp: config_fingerprint(&self.config),
            clock: self.clock,
            applied: self.applied,
            sessions: self
                .sessions
                .iter()
                .map(|(id, session)| SessionState {
                    id: *id,
                    shape_fp: session.shape_fp,
                    phase: session.phase,
                    ledger: session.ledger.state(),
                    arq: session.arq.state(),
                    nacked: session.nacked.clone(),
                    reorder: session
                        .reorder
                        .iter()
                        .map(|(seq, queued)| {
                            let frame = match &queued.slot {
                                Slot::Frame(parsed) => Some(parsed.clone()),
                                Slot::Lost => None,
                            };
                            (*seq, queued.logical, frame)
                        })
                        .collect(),
                    next_release: session.next_release,
                    highest_seen: session.highest_seen,
                    window_index: session.window_index,
                    epoch: session.epoch,
                    admitted_in_epoch: session.admitted_in_epoch,
                    outputs: session.outputs.clone(),
                })
                .collect(),
        }
    }

    /// Finds the shape for a journaled fingerprint in the recovery table.
    fn find_shape(
        shapes: &[(SystemConfig, LowResCodec)],
        shape_fp: u64,
    ) -> Result<&(SystemConfig, LowResCodec), GatewayError> {
        shapes
            .iter()
            .find(|(system, codec)| shape_fingerprint(system, codec) == shape_fp)
            .ok_or(GatewayError::Recovery(
                "journal names an operator shape missing from the recovery shape table",
            ))
    }

    /// Restores a decoded checkpoint into this (fresh) gateway.
    fn restore_checkpoint(
        &mut self,
        state: CheckpointState,
        shapes: &[(SystemConfig, LowResCodec)],
    ) -> Result<(), GatewayError> {
        self.clock = state.clock;
        self.applied = state.applied;
        self.last_checkpoint_applied = state.applied;
        self.sessions.clear();
        // Wall-clock stamps don't survive a crash; latency telemetry for
        // restored windows restarts here.
        let restored_at = Instant::now();
        for s in state.sessions {
            let (system, codec) = Self::find_shape(shapes, s.shape_fp)?;
            let mut session = self.fresh_session(s.id, s.shape_fp, system, codec.clone())?;
            session.phase = s.phase;
            session.ledger.restore(s.ledger);
            session.arq.restore(s.arq);
            session.nacked = s.nacked;
            session.reorder = s
                .reorder
                .into_iter()
                .map(|(seq, logical, frame)| {
                    let slot = frame.map_or(Slot::Lost, Slot::Frame);
                    let queued = Queued {
                        slot,
                        logical,
                        at: restored_at,
                    };
                    (seq, queued)
                })
                .collect();
            session.next_release = s.next_release;
            session.highest_seen = s.highest_seen;
            session.window_index = s.window_index;
            session.epoch = s.epoch;
            session.admitted_in_epoch = s.admitted_in_epoch;
            session.outputs = s.outputs;
            self.sessions.insert(s.id, session);
        }
        // `recover` publishes the counts once its replay is done.
        self.phases = PhaseCounts::of(self.sessions.values().map(|s| s.phase));
        Ok(())
    }

    /// Re-applies one journaled command through the non-journaling paths.
    /// Command-level errors (unknown session, closed session) replay
    /// deterministically and are swallowed, exactly as the original
    /// caller swallowed (or observed) them.
    fn replay(
        &mut self,
        record: &Record,
        shapes: &[(SystemConfig, LowResCodec)],
    ) -> Result<(), GatewayError> {
        match record {
            Record::Handshake { id, shape_fp } => {
                let duplicate = self
                    .sessions
                    .get(id)
                    .is_some_and(|s| s.phase != SessionPhase::Closed);
                if !duplicate {
                    let (system, codec) = Self::find_shape(shapes, *shape_fp)?;
                    let codec = codec.clone();
                    let system = system.clone();
                    let _ = self.handshake_inner(*id, &system, codec);
                }
            }
            Record::Push { id, packet } => {
                let _ = self.push_inner(*id, packet);
            }
            Record::NotifyLost { id, sequence } => {
                let _ = self.notify_lost_inner(*id, *sequence);
            }
            Record::TakeNacks { id } => {
                let _ = self.take_nacks_inner(*id);
            }
            Record::Flush => {
                self.flush_inner()?;
            }
            Record::TakeOutputs { id } => {
                let _ = self.take_outputs_inner(*id);
            }
            Record::Close { id } => {
                let _ = self.close_inner(*id);
            }
            Record::Genesis { .. } | Record::Checkpoint(_) => {}
        }
        Ok(())
    }

    /// Rebuilds a gateway from a surviving journal: scans the store,
    /// verifies the genesis fingerprint, restores the last decodable
    /// checkpoint, replays the command tail (re-decoding any journaled
    /// but uncommitted windows — bit-identical by the determinism
    /// contract), truncates torn wreckage, and resumes journaling.
    ///
    /// `shapes` must contain every `(SystemConfig, LowResCodec)` pair
    /// ever handshaken into the journal, matched by fingerprint.
    ///
    /// An empty store recovers to a fresh journaling gateway (equivalent
    /// to [`Gateway::with_journal`]).
    ///
    /// # Errors
    ///
    /// [`GatewayError::Config`] for an invalid policy,
    /// [`GatewayError::Recovery`] for a config-fingerprint mismatch, a
    /// missing shape, or an intact record this build cannot decode (the
    /// store is then left untouched), or [`GatewayError::Journal`] when
    /// the store fails.
    pub fn recover(
        config: GatewayConfig,
        mut store: Box<dyn JournalStore + Send>,
        shapes: &[(SystemConfig, LowResCodec)],
    ) -> Result<(Self, RecoveryReport), GatewayError> {
        config.validate()?;
        let started = Instant::now();
        let registry = hybridcs_obs::global();
        let ctx = EventContext::default();
        emit_with(ctx, EventKind::Recover, 0, 0);
        let bytes = store.read_all().map_err(GatewayError::Journal)?;
        let ScannedJournal {
            mut records,
            valid_bytes,
            torn,
            undecodable,
        } = journal::scan(&bytes);
        if undecodable {
            // Not crash wreckage: the records behind it are live, so the
            // store stays as it is.
            return Err(GatewayError::Recovery(
                "journal holds an intact record this build cannot decode",
            ));
        }
        let my_fp = config_fingerprint(&config);
        if let Some(first) = records.first() {
            match first {
                Record::Genesis { config_fp } if *config_fp == my_fp => {}
                Record::Genesis { .. } => {
                    return Err(GatewayError::Recovery(
                        "journal was written under a different gateway config",
                    ));
                }
                _ => {
                    return Err(GatewayError::Recovery(
                        "journal does not start with a genesis record",
                    ));
                }
            }
        }
        let fresh_store = records.is_empty();
        let mut gateway = Self::new(config)?;
        // Restore the last checkpoint, then replay only what follows it.
        let tail_from = records
            .iter()
            .rposition(|r| matches!(r, Record::Checkpoint(_)))
            .map_or(0, |index| index + 1);
        let tail = records.split_off(tail_from);
        let mut checkpoint_restored = false;
        if let Some(Record::Checkpoint(state)) = records.pop() {
            let applied = state.applied;
            gateway.restore_checkpoint(state, shapes)?;
            emit_with(ctx, EventKind::Checkpoint, 1, applied);
            checkpoint_restored = true;
        }
        let mut replayed = 0u64;
        for record in tail.iter().filter(|r| r.is_command()) {
            gateway.replay(record, shapes)?;
            gateway.applied += 1;
            replayed += 1;
        }
        let truncated_bytes = bytes.len() as u64 - valid_bytes;
        if torn {
            store
                .truncate_to(valid_bytes)
                .map_err(GatewayError::Journal)?;
            registry
                .counter("gateway_journal_torn_tails_total", &[])
                .inc();
            emit_with(ctx, EventKind::Recover, 3, valid_bytes);
        }
        let mut journal = Journal::new(store, gateway.config.journal_group_bytes);
        if fresh_store {
            journal
                .append(&Record::Genesis { config_fp: my_fp })
                .map_err(GatewayError::Journal)?;
            journal.sync().map_err(GatewayError::Journal)?;
        }
        gateway.journal = Some(journal);
        let seconds = started.elapsed().as_secs_f64();
        registry
            .counter("gateway_recovery_replayed_events", &[])
            .add(replayed);
        registry
            .histogram("gateway_recovery_seconds", &[])
            .record(seconds);
        registry
            .histogram("gateway_recovery_replay_lag_events", &[])
            .record(replayed as f64);
        emit_with(ctx, EventKind::Recover, 1, replayed);
        emit_with(ctx, EventKind::Recover, 2, replayed);
        gateway.phases.publish();
        Ok((
            gateway,
            RecoveryReport {
                replayed_events: replayed,
                checkpoint_restored,
                torn_tail: torn,
                truncated_bytes,
                seconds,
            },
        ))
    }

    /// The durable-prefix oracle: runs the command records through the
    /// public API on a fresh gateway with no journal and returns it, with
    /// every window that `take_outputs` and `close` delivered, per
    /// session in delivery order. Handshakes resolve their shape by
    /// fingerprint against `shapes`, as [`recover`](Gateway::recover)
    /// does; genesis and checkpoint records are skipped; command-level
    /// errors (unknown or closed session, duplicate handshake) are
    /// ignored, as the original caller ignored or observed them.
    ///
    /// Recovery restores a checkpoint and replays the tail through
    /// internal paths; this re-executes every command through the public
    /// one, so agreement between the two is the crash-safety contract
    /// (DESIGN §12). The socket tier's recorded calls replay through it
    /// too (DESIGN §13).
    ///
    /// # Errors
    ///
    /// [`GatewayError::Config`] for an invalid policy, or
    /// [`GatewayError::Recovery`] when a handshake names a shape missing
    /// from `shapes`.
    pub fn from_records(
        config: GatewayConfig,
        shapes: &[(SystemConfig, LowResCodec)],
        records: &[Record],
    ) -> Result<(Self, BTreeMap<u64, Vec<SupervisedWindow>>), GatewayError> {
        let mut gateway = Self::new(config)?;
        let mut delivered: BTreeMap<u64, Vec<SupervisedWindow>> = BTreeMap::new();
        for record in records {
            let outcome = match record {
                Record::Handshake { id, shape_fp } => {
                    let (system, codec) = Self::find_shape(shapes, *shape_fp)?;
                    gateway.handshake(*id, system, codec.clone()).map(|()| None)
                }
                Record::Push { id, packet } => gateway.push(*id, packet).map(|()| None),
                Record::NotifyLost { id, sequence } => {
                    gateway.notify_lost(*id, *sequence).map(|()| None)
                }
                Record::TakeNacks { id } => gateway.take_nacks(*id).map(|_| None),
                Record::Flush => gateway.flush().map(|_| None),
                Record::TakeOutputs { id } => gateway.take_outputs(*id).map(|w| Some((*id, w))),
                Record::Close { id } => gateway.close(*id).map(|w| Some((*id, w))),
                Record::Genesis { .. } | Record::Checkpoint(_) => Ok(None),
            };
            if let Ok(Some((id, windows))) = outcome {
                delivered.entry(id).or_default().extend(windows);
            }
        }
        Ok((gateway, delivered))
    }
}
