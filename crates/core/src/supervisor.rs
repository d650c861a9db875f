//! The receiver-side recovery supervisor: a decode ladder that degrades
//! gracefully instead of failing.
//!
//! [`FrameCodec`] checks each payload section of a frame against its own
//! CRC, so a damaged frame still delivers whatever section survived. The
//! ladder maps those per-section verdicts to a decode and never errors
//! upward: a solver blow-up, an unusable header or a dropped packet still
//! yields a window. [`RecoverySupervisor::receive`] **always** returns a
//! finite signal of the configured window length, chosen from a four-rung
//! ladder:
//!
//! 1. [`Hybrid`](LadderRung::Hybrid) — both sections intact, Eq. (1) with
//!    the box, watched by a [`SolverWatchdog`];
//! 2. [`CsOnly`](LadderRung::CsOnly) — box dropped (low-res section lost
//!    or the hybrid solve tripped the watchdog), plain CS on the same
//!    measurements;
//! 3. [`LowResOnly`](LadderRung::LowResOnly) — CS section lost: cell
//!    midpoints from the low-resolution stream;
//! 4. [`Concealed`](LadderRung::Concealed) — nothing usable: repeat the
//!    last good window (bounded by
//!    [`SupervisorConfig::max_conceal_reuse`], then flat-line zeros).
//!
//! The ladder is split into two halves so a multi-session service (the
//! `hybridcs-gateway` crate) can run them on different threads:
//!
//! * [`DecodeLadder`] — the **stateless** half: frame parsing and the
//!   solver-backed rung attempts. It is `Send + Sync`, holds the expensive
//!   per-shape operator state (sensing matrix, wavelet, entropy codec),
//!   and can be shared behind an `Arc` by any number of worker threads —
//!   one ladder per `(m, n, basis)` shape, reused across sessions.
//! * [`SessionLedger`] — the **stateful** half: sequence-gap tracking,
//!   last-good concealment, and the metrics bookkeeping. One per session,
//!   cheap, and only ever touched by its owning thread.
//!
//! [`RecoverySupervisor`] composes the two for the single-session case.
//! Both receivers walk the rungs through one function,
//! [`DecodeLadder::solve_batch_with`]: the gateway hands it a shard's
//! windows in chunks of up to `max_decode_batch`, and
//! [`RecoverySupervisor::receive`] hands it one window at a time through
//! [`DecodeLadder::solve_with`].
//!
//! Every ladder decision, demotion, lost section and sequence gap is
//! counted in the [global metrics registry](hybridcs_obs::global) under
//! `supervisor_*` names, and watchdog trips under `solver_watchdog_trips` —
//! so a resilience run can report exactly how it degraded.
//!
//! Unlike the plain decoder path, every supervised solve runs with an
//! *active* observer (the watchdog). Its checks read values the decoder's
//! solvers already compute (under PDHG, the new iterate's ℓ₁ objective
//! and the residual at the extrapolated point the dual step pushed
//! through `Φ`; ADMM reports the `Φx` it holds), so a watched solve
//! applies `Φ` as often as the plain [`HybridDecoder`] path and returns
//! the same bits; the watch itself costs two reductions and a few
//! comparisons per iteration.

use crate::codec::DecodedWindow;
use crate::decoder::Sections;
use crate::telemetry::FrameCodec;
use crate::{CoreError, HybridDecoder, SystemConfig};
use hybridcs_coding::{LowResCodec, Payload};
use hybridcs_obs::flight::{demotion_reason_code, emit_with};
use hybridcs_obs::{EventContext, EventKind, IterationObserver};
use hybridcs_solver::{SolverWatchdog, SolverWorkspace, WatchdogConfig};

/// Which rung of the decode ladder produced a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LadderRung {
    /// Full hybrid reconstruction (box-constrained Eq. (1)).
    Hybrid,
    /// Plain-CS reconstruction; the box was unavailable or harmful.
    CsOnly,
    /// Low-resolution cell midpoints only.
    LowResOnly,
    /// Concealment: last good window, or zeros when staleness exceeded
    /// [`SupervisorConfig::max_conceal_reuse`].
    Concealed,
}

impl LadderRung {
    /// Stable lower-snake identifier (used as the metrics label).
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            LadderRung::Hybrid => "hybrid",
            LadderRung::CsOnly => "cs_only",
            LadderRung::LowResOnly => "lowres_only",
            LadderRung::Concealed => "concealed",
        }
    }

    /// Stable numeric code matching the flight-recorder
    /// [`RUNGS`](hybridcs_obs::flight::RUNGS) table.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            LadderRung::Hybrid => 0,
            LadderRung::CsOnly => 1,
            LadderRung::LowResOnly => 2,
            LadderRung::Concealed => 3,
        }
    }

    /// The rung for a stable code (inverse of [`code`](LadderRung::code));
    /// `None` for unknown codes. Used when deserializing checkpointed
    /// windows.
    #[must_use]
    pub fn from_code(code: u8) -> Option<LadderRung> {
        Some(match code {
            0 => LadderRung::Hybrid,
            1 => LadderRung::CsOnly,
            2 => LadderRung::LowResOnly,
            3 => LadderRung::Concealed,
            _ => return None,
        })
    }
}

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SupervisorConfig {
    /// Watchdog thresholds applied to every supervised solve (hybrid and
    /// CS-only rungs). The default has no wall-clock budget, keeping
    /// supervised decodes deterministic; deployments add one.
    pub watchdog: WatchdogConfig,
    /// Consecutive concealed windows allowed to repeat the last good
    /// window before the supervisor flat-lines to zeros instead (stale
    /// ECG is worse than an honest gap once the gap is long).
    pub max_conceal_reuse: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            watchdog: WatchdogConfig::default(),
            max_conceal_reuse: 8,
        }
    }
}

/// One supervised window: the chosen rung, the (always finite) signal, and
/// the demotion trail explaining every rung that was tried and failed.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedWindow {
    /// Frame sequence number, when the header survived.
    pub sequence: Option<u32>,
    /// The rung that produced `signal`.
    pub rung: LadderRung,
    /// The reconstruction — always `window` samples, always finite.
    pub signal: Vec<f64>,
    /// Rungs attempted before `rung`, with the failure reason
    /// (`"decode_error"`, `"watchdog"`, `"non_finite"`, `"shed"`).
    pub demotions: Vec<(LadderRung, &'static str)>,
    /// The solver output backing `signal`, for the hybrid/CS-only rungs.
    pub decoded: Option<DecodedWindow>,
}

/// The per-section content of one parsed wire frame (or of a wholly lost
/// packet: everything `None`).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSections {
    /// Frame sequence number, when the header survived.
    pub sequence: Option<u32>,
    /// CS measurements, when that section's CRC passed.
    pub measurements: Option<Vec<f64>>,
    /// Low-resolution payload, when that section's CRC passed.
    pub lowres: Option<Payload>,
}

/// The accepted rung for one window: the rung itself, the signal it
/// committed, and the full solver report when a solver backed it (the
/// low-resolution rung carries `None`).
pub type ChosenRung = (LadderRung, Vec<f64>, Option<DecodedWindow>);

/// The outcome of the stateless rung attempts for one window: the first
/// rung that produced a finite signal (if any — concealment is the
/// ledger's job), plus the demotion trail.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderOutcome {
    /// The successful rung, its signal, and the solver report when one
    /// backed it. `None` means every non-concealment rung failed.
    pub chosen: Option<ChosenRung>,
    /// Rungs attempted and failed before `chosen` (or before giving up).
    pub demotions: Vec<(LadderRung, &'static str)>,
}

impl LadderOutcome {
    /// An outcome with nothing usable — the ledger will conceal.
    #[must_use]
    pub fn empty() -> Self {
        LadderOutcome {
            chosen: None,
            demotions: Vec::new(),
        }
    }
}

/// One window's surviving sections for a batched ladder solve
/// ([`DecodeLadder::solve_batch_with`]).
#[derive(Debug, Clone, Copy)]
pub struct LadderJob<'a> {
    /// CS measurements, when that section's CRC passed.
    pub measurements: Option<&'a [f64]>,
    /// Low-resolution payload, when that section's CRC passed.
    pub lowres: Option<&'a Payload>,
    /// Load shedding: demote the solver rungs with reason `"shed"`.
    pub skip_solvers: bool,
    /// Flight-recorder attribution of this window's watchdog trips;
    /// `None` records them under the default context.
    pub context: Option<EventContext>,
}

/// The stateless half of the decode ladder: parsing and solver-backed rung
/// attempts. `Send + Sync`; share one per operator shape behind an `Arc`.
#[derive(Debug, Clone)]
pub struct DecodeLadder {
    frame_codec: FrameCodec,
    decoder: HybridDecoder,
    watchdog: WatchdogConfig,
}

impl DecodeLadder {
    /// Builds the ladder for one system configuration and trained low-res
    /// codec (must match the sensor's).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration.
    pub fn new(
        system: &SystemConfig,
        lowres_codec: LowResCodec,
        watchdog: WatchdogConfig,
    ) -> Result<Self, CoreError> {
        Ok(DecodeLadder {
            frame_codec: FrameCodec::new(system)?,
            decoder: HybridDecoder::new(system, lowres_codec)?,
            watchdog,
        })
    }

    /// The framing codec (for the sensor side of a simulation).
    #[must_use]
    pub fn frame_codec(&self) -> &FrameCodec {
        &self.frame_codec
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.decoder.config()
    }

    /// Parses one wire frame (or `None` for a wholly lost packet) into its
    /// surviving sections. Unusable headers are counted under
    /// `supervisor_header_unusable_total` and yield an all-`None` parse —
    /// they never error. Behind a usable header, each section that failed
    /// its CRC is counted under
    /// `supervisor_section_lost_total{section="cs"|"lowres"}`.
    #[must_use]
    pub fn parse(&self, packet: Option<&[u8]>) -> ParsedSections {
        match packet {
            None => ParsedSections {
                sequence: None,
                measurements: None,
                lowres: None,
            },
            Some(bytes) => match self.frame_codec.deserialize_sections(bytes) {
                Ok(sections) => {
                    let lost = |section| {
                        hybridcs_obs::global()
                            .counter("supervisor_section_lost_total", &[("section", section)])
                            .inc();
                    };
                    if sections.measurements.is_none() {
                        lost("cs");
                    }
                    if sections.lowres.is_none() {
                        lost("lowres");
                    }
                    ParsedSections {
                        sequence: Some(sections.sequence),
                        measurements: sections.measurements,
                        lowres: sections.lowres,
                    }
                }
                Err(_) => {
                    hybridcs_obs::global()
                        .counter("supervisor_header_unusable_total", &[])
                        .inc();
                    ParsedSections {
                        sequence: None,
                        measurements: None,
                        lowres: None,
                    }
                }
            },
        }
    }

    /// Walks the non-concealment rungs for one window: a one-job
    /// [`solve_batch_with`](DecodeLadder::solve_batch_with), so the
    /// single-session receiver and the gateway share one rung policy. With
    /// `skip_solvers` (load shedding) the hybrid and CS-only rungs are
    /// demoted with reason `"shed"` without running a solver, landing on
    /// the cheap low-res rung when that section survived.
    ///
    /// This is the expensive, pure half of
    /// [`RecoverySupervisor::receive`]: no session state is read or
    /// written, so any thread may run it. Solver buffers come from the
    /// caller-owned [`SolverWorkspace`]; reusing one across windows keeps
    /// the solver loops allocation-free after warm-up.
    #[must_use]
    pub fn solve_with(
        &self,
        measurements: Option<&[f64]>,
        lowres: Option<&Payload>,
        skip_solvers: bool,
        ws: &mut SolverWorkspace,
    ) -> LadderOutcome {
        let job = LadderJob {
            measurements,
            lowres,
            skip_solvers,
            context: None,
        };
        match self.solve_batch_with(&[job], ws).pop() {
            Some(outcome) => outcome,
            None => LadderOutcome::empty(),
        }
    }

    /// Walks the rung ladder for a group of same-shape windows; this is
    /// the one place the rung policy lives. A window holding both sections
    /// tries the hybrid rung, one holding measurements that failed it (or
    /// had no low-res section) tries the CS-only rung, and one still
    /// without a signal falls to the low-res cell midpoints when that
    /// section survived. Each solver rung is one batched decode across
    /// every window still on it, so the operator kernels amortize their
    /// per-iteration table work across the group (and vectorize across it
    /// when SIMD is enabled). Each window keeps its own watchdog, its own
    /// demotion trail and its own stopping decisions, so outcomes come back
    /// in job order and bit-identical to solving each window alone.
    #[must_use]
    pub fn solve_batch_with(
        &self,
        jobs: &[LadderJob<'_>],
        ws: &mut SolverWorkspace,
    ) -> Vec<LadderOutcome> {
        let _span = hybridcs_obs::span!("ladder.solve_batch");
        let mut demotions: Vec<Vec<(LadderRung, &'static str)>> = vec![Vec::new(); jobs.len()];
        let mut chosen: Vec<Option<ChosenRung>> = (0..jobs.len()).map(|_| None).collect();
        for (i, job) in jobs.iter().enumerate() {
            if job.skip_solvers {
                if job.measurements.is_some() && job.lowres.is_some() {
                    demotions[i].push((LadderRung::Hybrid, "shed"));
                }
                if job.measurements.is_some() {
                    demotions[i].push((LadderRung::CsOnly, "shed"));
                }
            }
        }
        let hybrid: Vec<(usize, Sections<'_>)> = jobs
            .iter()
            .enumerate()
            .filter(|(_, job)| !job.skip_solvers)
            .filter_map(|(i, job)| Some((i, (job.measurements?, Some(job.lowres?)))))
            .collect();
        self.rung_batch(
            jobs,
            &hybrid,
            LadderRung::Hybrid,
            ws,
            &mut chosen,
            &mut demotions,
        );
        let cs_only: Vec<(usize, Sections<'_>)> = jobs
            .iter()
            .enumerate()
            .filter(|(i, job)| !job.skip_solvers && chosen[*i].is_none())
            .filter_map(|(i, job)| Some((i, (job.measurements?, None))))
            .collect();
        self.rung_batch(
            jobs,
            &cs_only,
            LadderRung::CsOnly,
            ws,
            &mut chosen,
            &mut demotions,
        );
        jobs.iter()
            .enumerate()
            .map(|(i, job)| {
                let mut outcome = LadderOutcome {
                    chosen: chosen[i].take(),
                    demotions: std::mem::take(&mut demotions[i]),
                };
                if outcome.chosen.is_none() {
                    if let Some(lr) = job.lowres {
                        match self.lowres_midpoints(lr) {
                            Ok(signal) => {
                                outcome.chosen = Some((LadderRung::LowResOnly, signal, None));
                            }
                            Err(reason) => outcome.demotions.push((LadderRung::LowResOnly, reason)),
                        }
                    }
                }
                outcome
            })
            .collect()
    }

    /// One solver rung of [`solve_batch_with`](DecodeLadder::solve_batch_with):
    /// a watched batched decode of each `(job index, sections)` window of
    /// `group`, scattering per-window success into `chosen` and failure
    /// reasons into `demotions`: a decode error, a watchdog trip or a
    /// non-finite output demotes instead of propagating. Each trip is
    /// recorded in the flight recorder under its job's context.
    fn rung_batch(
        &self,
        jobs: &[LadderJob<'_>],
        group: &[(usize, Sections<'_>)],
        rung: LadderRung,
        ws: &mut SolverWorkspace,
        chosen: &mut [Option<ChosenRung>],
        demotions: &mut [Vec<(LadderRung, &'static str)>],
    ) {
        if group.is_empty() {
            return;
        }
        let mut dogs: Vec<SolverWatchdog> = group
            .iter()
            .map(|_| SolverWatchdog::new(self.watchdog))
            .collect();
        let mut refs: Vec<&mut dyn IterationObserver> = dogs
            .iter_mut()
            .map(|dog| dog as &mut dyn IterationObserver)
            .collect();
        let windows: Vec<Sections<'_>> = group.iter().map(|&(_, sections)| sections).collect();
        let results = self.decoder.decode_batch(&windows, &mut refs, ws);
        drop(refs);
        for ((&(i, _), result), dog) in group.iter().zip(results).zip(dogs) {
            let trip = dog.trip();
            if let Some(trip) = trip {
                emit_with(
                    jobs[i].context.unwrap_or_default(),
                    EventKind::WatchdogTrip,
                    trip.code(),
                    trip.iteration() as u64,
                );
            }
            match result {
                Err(_) => demotions[i].push((rung, "decode_error")),
                Ok(decoded) => {
                    if trip.is_some() {
                        demotions[i].push((rung, "watchdog"));
                    } else if decoded.signal.iter().any(|v| !v.is_finite()) {
                        demotions[i].push((rung, "non_finite"));
                    } else {
                        chosen[i] = Some((rung, decoded.signal.clone(), Some(decoded)));
                    }
                }
            }
        }
    }

    /// Cell-midpoint reconstruction from the low-resolution stream.
    fn lowres_midpoints(&self, lowres: &Payload) -> Result<Vec<f64>, &'static str> {
        let frame = self
            .decoder
            .lowres_frame(lowres)
            .map_err(|_| "decode_error")?;
        let half = frame.step() / 2.0;
        let signal: Vec<f64> = frame.samples().iter().map(|v| v + half).collect();
        if signal.iter().any(|v| !v.is_finite()) {
            return Err("non_finite");
        }
        Ok(signal)
    }
}

/// The stateful half of the ladder: one session's sequence tracking,
/// concealment memory, and metrics bookkeeping. Cheap, single-owner.
#[derive(Debug, Clone)]
pub struct SessionLedger {
    window: usize,
    max_conceal_reuse: usize,
    last_good: Option<Vec<f64>>,
    consecutive_concealed: usize,
    expected_sequence: Option<u32>,
}

/// A [`SessionLedger`]'s mutable state, detached from its configuration
/// (`window`, `max_conceal_reuse` are rebuilt from config at restore).
/// This is what a durability layer checkpoints: restoring it into a fresh
/// ledger of the same configuration reproduces bit-identical behaviour,
/// because every `f64` is carried exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerState {
    /// The last successfully decoded window, if any (concealment source).
    pub last_good: Option<Vec<f64>>,
    /// Consecutive concealed windows so far (drives the flat-line cutoff).
    pub consecutive_concealed: usize,
    /// The next expected frame sequence, if tracking has started.
    pub expected_sequence: Option<u32>,
}

impl SessionLedger {
    /// A fresh ledger for windows of `window` samples.
    #[must_use]
    pub fn new(window: usize, max_conceal_reuse: usize) -> Self {
        SessionLedger {
            window,
            max_conceal_reuse,
            last_good: None,
            consecutive_concealed: 0,
            expected_sequence: None,
        }
    }

    /// The ledger's mutable state, for checkpointing.
    #[must_use]
    pub fn state(&self) -> LedgerState {
        LedgerState {
            last_good: self.last_good.clone(),
            consecutive_concealed: self.consecutive_concealed,
            expected_sequence: self.expected_sequence,
        }
    }

    /// Restores previously captured state into this ledger (which must be
    /// configured identically to the one that produced it).
    pub fn restore(&mut self, state: LedgerState) {
        self.last_good = state.last_good;
        self.consecutive_concealed = state.consecutive_concealed;
        self.expected_sequence = state.expected_sequence;
    }

    /// Clears all session state back to freshly-constructed: concealment
    /// memory, staleness counter, and sequence tracking. Called when a
    /// session closes so a reused session id cannot inherit stale
    /// degradation state.
    pub fn reset(&mut self) {
        self.last_good = None;
        self.consecutive_concealed = 0;
        self.expected_sequence = None;
    }

    /// Counts sequence gaps: `supervisor_sequence_gap_events_total` per
    /// discontinuity and `supervisor_missing_frames_total` for the frames
    /// skipped over.
    pub fn track_sequence(&mut self, sequence: u32) {
        if let Some(expected) = self.expected_sequence {
            if sequence > expected {
                let registry = hybridcs_obs::global();
                registry
                    .counter("supervisor_sequence_gap_events_total", &[])
                    .inc();
                registry
                    .counter("supervisor_missing_frames_total", &[])
                    .add(u64::from(sequence - expected));
            }
        }
        self.expected_sequence = Some(sequence.wrapping_add(1));
    }

    /// Books one window's outcome: counters, demotion trail, concealment
    /// or last-good update, with the flight events attributed to `ctx`.
    /// Always yields a finite window — the bottom (concealment) rung
    /// cannot fail.
    pub fn commit(
        &mut self,
        sequence: Option<u32>,
        outcome: LadderOutcome,
        ctx: EventContext,
    ) -> SupervisedWindow {
        let registry = hybridcs_obs::global();
        registry.counter("supervisor_windows_total", &[]).inc();
        let commit_arg = sequence.map_or(u64::MAX, u64::from);
        for (rung, reason) in &outcome.demotions {
            registry
                .counter(
                    "supervisor_rung_failed_total",
                    &[("rung", rung.name()), ("reason", reason)],
                )
                .inc();
            emit_with(
                ctx,
                EventKind::Demotion,
                rung.code(),
                u64::from(demotion_reason_code(reason)),
            );
        }
        match outcome.chosen {
            Some((rung, signal, decoded)) => {
                registry
                    .counter("supervisor_rung_total", &[("rung", rung.name())])
                    .inc();
                emit_with(ctx, EventKind::Commit, rung.code(), commit_arg);
                self.last_good = Some(signal.clone());
                self.consecutive_concealed = 0;
                SupervisedWindow {
                    sequence,
                    rung,
                    signal,
                    demotions: outcome.demotions,
                    decoded,
                }
            }
            None => {
                // Bottom rung: concealment, which cannot fail.
                let signal = if self.consecutive_concealed < self.max_conceal_reuse {
                    self.last_good.clone()
                } else {
                    None
                }
                .unwrap_or_else(|| vec![0.0; self.window]);
                self.consecutive_concealed += 1;
                registry
                    .counter(
                        "supervisor_rung_total",
                        &[("rung", LadderRung::Concealed.name())],
                    )
                    .inc();
                emit_with(
                    ctx,
                    EventKind::Commit,
                    LadderRung::Concealed.code(),
                    commit_arg,
                );
                SupervisedWindow {
                    sequence,
                    rung: LadderRung::Concealed,
                    signal,
                    demotions: outcome.demotions,
                    decoded: None,
                }
            }
        }
    }
}

/// The single-session supervisor: a [`DecodeLadder`] and a
/// [`SessionLedger`] composed behind one call per frame; [`LadderRung`]
/// lists the rungs it walks.
#[derive(Debug, Clone)]
pub struct RecoverySupervisor {
    ladder: DecodeLadder,
    ledger: SessionLedger,
}

impl RecoverySupervisor {
    /// Builds a supervisor from the system configuration, the trained
    /// low-res codec (must match the sensor's), and the supervisor policy.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] on an invalid configuration.
    pub fn new(
        system: &SystemConfig,
        lowres_codec: LowResCodec,
        config: SupervisorConfig,
    ) -> Result<Self, CoreError> {
        Ok(RecoverySupervisor {
            ladder: DecodeLadder::new(system, lowres_codec, config.watchdog)?,
            ledger: SessionLedger::new(system.window, config.max_conceal_reuse),
        })
    }

    /// The framing codec (for the sensor side of a simulation).
    #[must_use]
    pub fn frame_codec(&self) -> &FrameCodec {
        self.ladder.frame_codec()
    }

    /// The system configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        self.ladder.config()
    }

    /// The stateless ladder half (shared with multi-session services).
    #[must_use]
    pub fn ladder(&self) -> &DecodeLadder {
        &self.ladder
    }

    /// Resets the per-session half (concealment memory, staleness counter,
    /// sequence tracking) for session close/reuse; the expensive stateless
    /// ladder is untouched.
    pub fn reset_session(&mut self) {
        self.ledger.reset();
    }

    /// Receives one wire frame (or `None` for a wholly lost packet) and
    /// walks the decode ladder until a rung yields a finite window. Never
    /// errors, never panics on adversarial input, never skips a window:
    /// the bottom rung always succeeds.
    pub fn receive(&mut self, packet: Option<&[u8]>) -> SupervisedWindow {
        let _span = hybridcs_obs::span!("supervisor.receive");
        let parsed = self.ladder.parse(packet);
        if let Some(seq) = parsed.sequence {
            self.ledger.track_sequence(seq);
        }
        let outcome = self.ladder.solve_with(
            parsed.measurements.as_deref(),
            parsed.lowres.as_ref(),
            false,
            &mut SolverWorkspace::new(),
        );
        self.ledger
            .commit(parsed.sequence, outcome, EventContext::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::EncodedWindow;
    use crate::experiment::default_training_windows;
    use crate::{train_lowres_codec, DecoderAlgorithm, HybridFrontEnd};
    use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
    use hybridcs_solver::{AdmmOptions, PdhgOptions, ReweightedOptions};

    fn setup() -> (HybridFrontEnd, RecoverySupervisor, Vec<f64>) {
        setup_with(SystemConfig::default().algorithm)
    }

    fn setup_with(algorithm: DecoderAlgorithm) -> (HybridFrontEnd, RecoverySupervisor, Vec<f64>) {
        let config = SystemConfig {
            measurements: 64,
            algorithm,
            ..SystemConfig::default()
        };
        let codec =
            train_lowres_codec(config.lowres_bits, &default_training_windows(config.window))
                .unwrap();
        let frontend = HybridFrontEnd::new(&config, codec.clone()).unwrap();
        let supervisor =
            RecoverySupervisor::new(&config, codec, SupervisorConfig::default()).unwrap();
        let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
        let window = generator.generate(2.0, 0x5D_01)[..config.window].to_vec();
        (frontend, supervisor, window)
    }

    /// The ladder must be shareable across worker threads.
    #[test]
    fn decode_ladder_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecodeLadder>();
    }

    #[test]
    fn skip_solvers_demotes_to_lowres_with_shed_reason() {
        let (frontend, supervisor, window) = setup();
        let encoded = frontend.encode(&window).unwrap();
        let bytes = supervisor.frame_codec().serialize(0, &encoded).unwrap();
        let parsed = supervisor.ladder().parse(Some(&bytes));
        let outcome = supervisor.ladder().solve_with(
            parsed.measurements.as_deref(),
            parsed.lowres.as_ref(),
            true,
            &mut SolverWorkspace::new(),
        );
        let (rung, signal, decoded) = outcome.chosen.expect("low-res rung should succeed");
        assert_eq!(rung, LadderRung::LowResOnly);
        assert_eq!(signal.len(), window.len());
        assert!(decoded.is_none());
        assert_eq!(
            outcome.demotions,
            vec![(LadderRung::Hybrid, "shed"), (LadderRung::CsOnly, "shed"),]
        );
    }

    #[test]
    fn split_halves_match_receive() {
        let (frontend, mut supervisor, window) = setup();
        let encoded = frontend.encode(&window).unwrap();
        let bytes = supervisor.frame_codec().serialize(0, &encoded).unwrap();

        // Drive the split API by hand...
        let ladder = supervisor.ladder().clone();
        let mut ledger = SessionLedger::new(
            supervisor.config().window,
            SupervisorConfig::default().max_conceal_reuse,
        );
        let parsed = ladder.parse(Some(&bytes));
        let outcome = ladder.solve_with(
            parsed.measurements.as_deref(),
            parsed.lowres.as_ref(),
            false,
            &mut SolverWorkspace::new(),
        );
        let split = ledger.commit(parsed.sequence, outcome, EventContext::default());

        // ...and compare with the one-call path.
        let composed = supervisor.receive(Some(&bytes));
        assert_eq!(split, composed);
        assert_eq!(split.rung, LadderRung::Hybrid);
    }

    #[test]
    fn ledger_state_round_trips_and_reset_clears() {
        let mut ledger = SessionLedger::new(4, 2);
        ledger.track_sequence(0);
        ledger.commit(
            Some(0),
            LadderOutcome {
                chosen: Some((LadderRung::LowResOnly, vec![0.5; 4], None)),
                demotions: Vec::new(),
            },
            EventContext::default(),
        );
        ledger.commit(None, LadderOutcome::empty(), EventContext::default());
        let state = ledger.state();
        assert_eq!(state.last_good, Some(vec![0.5; 4]));
        assert_eq!(state.consecutive_concealed, 1);
        assert_eq!(state.expected_sequence, Some(1));

        // Restore into a fresh ledger: behaviour continues identically.
        let mut restored = SessionLedger::new(4, 2);
        restored.restore(state.clone());
        assert_eq!(restored.state(), state);
        let concealed = restored.commit(None, LadderOutcome::empty(), EventContext::default());
        assert_eq!(concealed.signal, vec![0.5; 4], "still within reuse budget");

        // Reset clears everything a reused session id could inherit.
        ledger.reset();
        assert_eq!(
            ledger.state(),
            LedgerState {
                last_good: None,
                consecutive_concealed: 0,
                expected_sequence: None,
            }
        );
        let fresh = ledger.commit(None, LadderOutcome::empty(), EventContext::default());
        assert_eq!(fresh.signal, vec![0.0; 4], "no stale concealment source");
    }

    #[test]
    fn supervisor_reset_session_drops_degradation_state() {
        let (frontend, mut supervisor, window) = setup();
        let encoded = frontend.encode(&window).unwrap();
        let bytes = supervisor.frame_codec().serialize(0, &encoded).unwrap();
        supervisor.receive(Some(&bytes));
        let concealed = supervisor.receive(None);
        assert_eq!(concealed.rung, LadderRung::Concealed);
        assert_ne!(concealed.signal, vec![0.0; window.len()]);
        supervisor.reset_session();
        // After reset, a lost packet conceals to zeros — no inherited
        // last-good window from the previous "session".
        let after = supervisor.receive(None);
        assert_eq!(after.rung, LadderRung::Concealed);
        assert_eq!(after.signal, vec![0.0; window.len()]);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Under every decoder algorithm (PDHG, which solves the group in
    /// lockstep, and reweighted ℓ₁ and ADMM, which solve it one window at
    /// a time), one group and four one-job walks give the same outcomes
    /// for every section-survival pattern, including shed and lost
    /// windows, and the solver rungs commit exactly the serial decoder's
    /// bits.
    #[test]
    fn batched_ladder_matches_serial_per_window() {
        let pdhg = PdhgOptions {
            max_iterations: 300,
            ..PdhgOptions::default()
        };
        let algorithms = [
            SystemConfig::default().algorithm,
            DecoderAlgorithm::Reweighted(ReweightedOptions {
                outer_iterations: 2,
                inner: pdhg,
                ..ReweightedOptions::default()
            }),
            DecoderAlgorithm::Admm(AdmmOptions {
                max_iterations: 60,
                ..AdmmOptions::default()
            }),
        ];
        for algorithm in algorithms {
            let (frontend, supervisor, window) = setup_with(algorithm);
            let ladder = supervisor.ladder();
            let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
            let windows: Vec<Vec<f64>> = (0..4)
                .map(|w| generator.generate(2.0, 0x6E_00 + w)[..window.len()].to_vec())
                .collect();
            let parsed: Vec<ParsedSections> = windows
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let encoded = frontend.encode(w).unwrap();
                    let bytes = ladder
                        .frame_codec()
                        .serialize(u32::try_from(i).unwrap(), &encoded)
                        .unwrap();
                    ladder.parse(Some(&bytes))
                })
                .collect();
            // Full frame / measurements-only / low-res-only / shed — one of each.
            let jobs: Vec<LadderJob<'_>> = parsed
                .iter()
                .enumerate()
                .map(|(i, p)| LadderJob {
                    measurements: if i == 2 {
                        None
                    } else {
                        p.measurements.as_deref()
                    },
                    lowres: if i == 1 { None } else { p.lowres.as_ref() },
                    skip_solvers: i == 3,
                    context: None,
                })
                .collect();
            let mut ws = SolverWorkspace::new();
            let alone: Vec<LadderOutcome> = jobs
                .iter()
                .map(|j| ladder.solve_with(j.measurements, j.lowres, j.skip_solvers, &mut ws))
                .collect();
            let grouped = ladder.solve_batch_with(&jobs, &mut ws);
            assert_eq!(grouped, alone);
            let rungs: Vec<Option<LadderRung>> = grouped
                .iter()
                .map(|o| o.chosen.as_ref().map(|(rung, _, _)| *rung))
                .collect();
            assert_eq!(
                rungs,
                [
                    LadderRung::Hybrid,
                    LadderRung::CsOnly,
                    LadderRung::LowResOnly,
                    LadderRung::LowResOnly
                ]
                .map(Some)
            );

            // The hybrid and CS-only windows against the serial decoder, each
            // under a fresh watchdog (without the box it reads no low-res).
            for (i, use_box) in [(0, true), (1, false)] {
                let encoded = EncodedWindow {
                    measurements: parsed[i].measurements.clone().unwrap(),
                    lowres: parsed[i].lowres.clone().unwrap(),
                    window_len: window.len(),
                    measurement_bits: ladder.config().measurement_bits,
                };
                let mut dog = SolverWatchdog::new(SupervisorConfig::default().watchdog);
                let serial = ladder
                    .decoder
                    .decode_workspace(&encoded, use_box, &mut dog, &mut ws)
                    .unwrap();
                assert!(dog.trip().is_none());
                let (_, signal, decoded) = grouped[i].chosen.as_ref().unwrap();
                let decoded = decoded.as_ref().unwrap();
                assert_eq!(bits(signal), bits(&serial.signal), "window {i}: signal");
                assert_eq!(bits(&decoded.signal), bits(&serial.signal));
                assert_eq!(decoded.used_box, use_box);
                assert_eq!(decoded.recovery.iterations, serial.recovery.iterations);
                assert_eq!(decoded.recovery.converged, serial.recovery.converged);
                assert_eq!(
                    decoded.recovery.residual.to_bits(),
                    serial.recovery.residual.to_bits()
                );
                assert_eq!(
                    decoded.recovery.objective.to_bits(),
                    serial.recovery.objective.to_bits()
                );
            }
        }
    }

    /// A window that fails its own decode checks (a non-finite
    /// measurement, or a short measurement section) demotes alone with
    /// `decode_error` on both solver rungs and falls to its low-res
    /// midpoints, while its group-mates commit their one-job walks bit
    /// for bit.
    #[test]
    fn failed_window_demotes_alone_in_its_group() {
        let (frontend, supervisor, window) = setup();
        let ladder = supervisor.ladder();
        let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
        let parsed: Vec<ParsedSections> = (0..3)
            .map(|i| {
                let w = generator.generate(2.0, 0x7F_00 + i)[..window.len()].to_vec();
                let encoded = frontend.encode(&w).unwrap();
                let bytes = ladder
                    .frame_codec()
                    .serialize(u32::try_from(i).unwrap(), &encoded)
                    .unwrap();
                ladder.parse(Some(&bytes))
            })
            .collect();
        let measurements = parsed[1].measurements.clone().unwrap();
        let mut non_finite = measurements.clone();
        non_finite[5] = f64::NAN;
        for bad in [&non_finite[..], &measurements[1..]] {
            let jobs: Vec<LadderJob<'_>> = parsed
                .iter()
                .enumerate()
                .map(|(i, p)| LadderJob {
                    measurements: if i == 1 {
                        Some(bad)
                    } else {
                        p.measurements.as_deref()
                    },
                    lowres: p.lowres.as_ref(),
                    skip_solvers: false,
                    context: None,
                })
                .collect();
            let mut ws = SolverWorkspace::new();
            let grouped = ladder.solve_batch_with(&jobs, &mut ws);
            let (rung, _, decoded) = grouped[1].chosen.as_ref().unwrap();
            assert_eq!(*rung, LadderRung::LowResOnly);
            assert!(decoded.is_none());
            assert_eq!(
                grouped[1].demotions,
                vec![
                    (LadderRung::Hybrid, "decode_error"),
                    (LadderRung::CsOnly, "decode_error")
                ]
            );
            for (job, outcome) in jobs.iter().zip(&grouped) {
                let alone = ladder.solve_with(job.measurements, job.lowres, false, &mut ws);
                assert_eq!(*outcome, alone);
                let (_, signal, _) = outcome.chosen.as_ref().unwrap();
                let (_, alone_signal, _) = alone.chosen.as_ref().unwrap();
                assert_eq!(bits(signal), bits(alone_signal));
            }
            for neighbour in [&grouped[0], &grouped[2]] {
                assert!(neighbour.demotions.is_empty());
                assert_eq!(neighbour.chosen.as_ref().unwrap().0, LadderRung::Hybrid);
            }
        }
    }

    #[test]
    fn ledger_conceals_with_last_good_then_zeros() {
        let mut ledger = SessionLedger::new(4, 2);
        let good = ledger.commit(
            Some(0),
            LadderOutcome {
                chosen: Some((LadderRung::LowResOnly, vec![1.0; 4], None)),
                demotions: Vec::new(),
            },
            EventContext::default(),
        );
        assert_eq!(good.rung, LadderRung::LowResOnly);
        // Two concealments reuse the last good window...
        for _ in 0..2 {
            let hidden = ledger.commit(None, LadderOutcome::empty(), EventContext::default());
            assert_eq!(hidden.rung, LadderRung::Concealed);
            assert_eq!(hidden.signal, vec![1.0; 4]);
        }
        // ...then the reuse budget is spent and the ledger flat-lines.
        let stale = ledger.commit(None, LadderOutcome::empty(), EventContext::default());
        assert_eq!(stale.signal, vec![0.0; 4]);
    }
}
