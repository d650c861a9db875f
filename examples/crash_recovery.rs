//! Crash-recovery soak: a fleet of lossy sensor sessions streams into a
//! *journaling* gateway, the journal store is killed at a sweep of
//! deterministic points (with torn, bit-flipped, and garbage tails), and
//! every crash is recovered and audited against an oracle that executes
//! the durable command prefix directly. Exits non-zero on any failure.
//!
//! ```sh
//! cargo run --release --example crash_recovery
//! ```
//!
//! What it checks:
//!
//! 1. **Bit-identity** — the lossy run with the write-ahead journal on
//!    decodes bit-identically to the same run with it off.
//! 2. **Journal overhead** — a loss-free, admit-everything run (heavy
//!    hybrid solves dominate, so wall time is stable and the measurement
//!    is the realistic worst case) is timed with and without the
//!    journal, interleaved min-of-N pairs; the journal may cost at most
//!    10% wall clock (`HYBRIDCS_CRASH_OVERHEAD_LIMIT` to override).
//! 3. **Kill-point sweep** — the store is crashed at evenly spaced
//!    record indices, cycling through every tail fault. Each surviving
//!    image must recover without panicking; corrupt tails must be
//!    CRC-detected; and the recovered gateway must be indistinguishable
//!    (phases, pending nacks, bit-exact outputs on close) from a fresh
//!    gateway that executed the durable record prefix directly
//!    (`Gateway::from_records`) — the determinism contract makes replay
//!    re-execution.
//! 4. **Checkpoint restore** — at least one recovery in the sweep must
//!    restore from a snapshot checkpoint rather than replaying from
//!    genesis.
//!
//! The bench report (`BENCH_recovery.json`, JSONL in the `hybridcs-obs`
//! export schema) carries the journal overhead percentage, journal size,
//! and per-kill-point recovery time against replayed-event count — the
//! recovery-time-vs-journal-length curve.
//!
//! Environment knobs: `HYBRIDCS_CRASH_SESSIONS` (default 64),
//! `HYBRIDCS_CRASH_WINDOWS` (default 4, per session),
//! `HYBRIDCS_CRASH_KILLPOINTS` (default 8), `HYBRIDCS_CRASH_REPS`
//! (default 3, timing repetitions), `HYBRIDCS_CRASH_OVERHEAD_LIMIT`
//! (default 10.0, percent), `HYBRIDCS_RECOVERY_BENCH_PATH` (default
//! `BENCH_recovery.json`).

use hybridcs::codec::telemetry::FrameCodec;
use hybridcs::codec::{
    experiment::default_training_windows, train_lowres_codec, HybridFrontEnd, SupervisedWindow,
    SystemConfig,
};
use hybridcs::coding::LowResCodec;
use hybridcs::ecg::{EcgGenerator, GeneratorConfig};
use hybridcs::faults::{
    CrashPlan, CrashingStore, GilbertElliott, GilbertElliottConfig, JournalStore, MemStore,
    TailFault,
};
use hybridcs::gateway::{scan, Gateway, GatewayConfig, GatewayError, SessionPhase};
use std::time::Instant;

/// Burst-loss rate the streams run over.
const LOSS: f64 = 0.08;
/// Mean burst length (frames).
const BURST_LEN: f64 = 2.5;
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// One operator shape shared by many sessions.
struct Shape {
    system: SystemConfig,
    codec: LowResCodec,
    frontend: HybridFrontEnd,
    wire: FrameCodec,
}

impl Shape {
    fn build(measurements: usize) -> Result<Self, Box<dyn std::error::Error>> {
        let system = SystemConfig {
            measurements,
            ..SystemConfig::default()
        };
        let codec =
            train_lowres_codec(system.lowres_bits, &default_training_windows(system.window))?;
        let frontend = HybridFrontEnd::new(&system, codec.clone())?;
        let wire = FrameCodec::new(&system)?;
        Ok(Shape {
            system,
            codec,
            frontend,
            wire,
        })
    }
}

/// One simulated sensor: an id, its operator shape, and its pre-encoded
/// wire frames (seeded, so every run sees the same physiology).
struct Stream {
    id: u64,
    shape: usize,
    frames: Vec<Vec<u8>>,
}

fn build_streams(
    shapes: &[Shape],
    sessions: usize,
    windows: usize,
) -> Result<Vec<Stream>, Box<dyn std::error::Error>> {
    let mut streams = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let id = 0x3000 + i as u64;
        let shape = i % shapes.len();
        let system = &shapes[shape].system;
        let physiology = GeneratorConfig::normal_sinus();
        let seconds = (windows * system.window) as f64 / physiology.fs_hz + 2.0;
        let generator = EcgGenerator::new(physiology)?;
        let strip = generator.generate(seconds, hybridcs_rand::mix(0x50AC ^ id));
        let mut frames = Vec::with_capacity(windows);
        for (seq, window) in strip.chunks_exact(system.window).take(windows).enumerate() {
            let encoded = shapes[shape].frontend.encode(window)?;
            frames.push(shapes[shape].wire.serialize(seq as u32, &encoded)?);
        }
        streams.push(Stream { id, shape, frames });
    }
    Ok(streams)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        workers: 4,
        admit_quota: 2,
        admit_window: 4,
        batch_capacity: 32,
        checkpoint_every: 32,
        ..GatewayConfig::default()
    }
}

/// How a run exercises the gateway.
#[derive(Clone, Copy, PartialEq)]
enum RunMode {
    /// Burst loss + nack/retransmit cycle under the sweep config.
    Lossy,
    /// Loss-free and admit-everything: heavy hybrid solves dominate, so
    /// wall time is stable — the overhead-gate workload.
    Throughput,
}

/// The outcome of one (possibly crashing) run.
struct RunOutcome {
    /// Per-session committed windows, when the run survived to close.
    outputs: Option<Vec<Vec<SupervisedWindow>>>,
    crashed: bool,
    seconds: f64,
}

/// Streams every frame round-robin through per-session Gilbert–Elliott
/// channels into a fresh gateway (journaling into `store` when given);
/// gaps go through the nack/retransmit cycle. A journal-store crash ends
/// the run early with `crashed = true`; any other error propagates.
fn run(
    shapes: &[Shape],
    streams: &[Stream],
    store: Option<Box<dyn JournalStore + Send>>,
    mode: RunMode,
) -> Result<RunOutcome, Box<dyn std::error::Error>> {
    let config = match mode {
        RunMode::Lossy => gateway_config(),
        // Admit everything, and checkpoint at the production default
        // cadence rather than the sweep's aggressive one: the gate
        // measures the WAL hot path, not snapshot serialization every
        // few commands (the sweep covers checkpoint restore).
        RunMode::Throughput => GatewayConfig {
            admit_quota: u32::MAX,
            checkpoint_every: GatewayConfig::default().checkpoint_every,
            ..gateway_config()
        },
    };
    let mut gateway = match store {
        Some(store) => Gateway::with_journal(config, store)?,
        None => Gateway::new(config)?,
    };
    let started = Instant::now();
    let mut channels: Vec<GilbertElliott> = streams
        .iter()
        .map(|s| {
            GilbertElliott::new(
                GilbertElliottConfig::burst_loss(LOSS, BURST_LEN),
                hybridcs_rand::mix(0xC11A ^ s.id),
            )
        })
        .collect();
    let crash = |e: GatewayError| match e {
        GatewayError::Journal(_) => Ok(()),
        other => Err(other),
    };
    let step = |gateway: &mut Gateway,
                channels: &mut [GilbertElliott]|
     -> Result<Option<Vec<Vec<SupervisedWindow>>>, GatewayError> {
        for stream in streams {
            let shape = &shapes[stream.shape];
            gateway.handshake(stream.id, &shape.system, shape.codec.clone())?;
        }
        let windows = streams[0].frames.len();
        for w in 0..windows {
            for (s, stream) in streams.iter().enumerate() {
                let frame = &stream.frames[w];
                let delivered = match mode {
                    RunMode::Throughput => Some(frame.clone()),
                    RunMode::Lossy => channels[s].transmit(frame),
                };
                if let Some(delivered) = delivered {
                    gateway.push(stream.id, &delivered)?;
                }
                loop {
                    let nacks = gateway.take_nacks(stream.id)?;
                    if nacks.is_empty() {
                        break;
                    }
                    for seq in nacks {
                        match channels[s].transmit(&stream.frames[seq as usize]) {
                            Some(bytes) => gateway.push(stream.id, &bytes)?,
                            None => gateway.notify_lost(stream.id, seq)?,
                        }
                    }
                }
            }
        }
        let mut outputs = Vec::with_capacity(streams.len());
        for stream in streams {
            outputs.push(gateway.close(stream.id)?);
        }
        Ok(Some(outputs))
    };
    match step(&mut gateway, &mut channels) {
        Ok(outputs) => Ok(RunOutcome {
            outputs,
            crashed: false,
            seconds: started.elapsed().as_secs_f64(),
        }),
        Err(e) => {
            crash(e)?;
            Ok(RunOutcome {
                outputs: None,
                crashed: true,
                seconds: started.elapsed().as_secs_f64(),
            })
        }
    }
}

/// Drains both gateways to exhaustion and verifies bit-identical state:
/// same phases, same pending nacks, same outputs on close.
fn verify_equivalent(
    recovered: &mut Gateway,
    oracle: &mut Gateway,
    streams: &[Stream],
    context: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    for stream in streams {
        let id = stream.id;
        if recovered.phase(id) != oracle.phase(id) {
            return Err(format!("session {id} phase diverged ({context})").into());
        }
        let live = matches!(recovered.phase(id), Some(p) if p != SessionPhase::Closed);
        if !live {
            continue;
        }
        if recovered.take_nacks(id)? != oracle.take_nacks(id)? {
            return Err(format!("session {id} pending nacks diverged ({context})").into());
        }
        if recovered.close(id)? != oracle.close(id)? {
            return Err(format!("session {id} outputs diverged on close ({context})").into());
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sessions = env_usize("HYBRIDCS_CRASH_SESSIONS", 64);
    let windows = env_usize("HYBRIDCS_CRASH_WINDOWS", 4);
    let killpoints = env_usize("HYBRIDCS_CRASH_KILLPOINTS", 8).max(1);
    let bench_path = std::env::var("HYBRIDCS_RECOVERY_BENCH_PATH")
        .unwrap_or_else(|_| "BENCH_recovery.json".into());
    let registry = hybridcs::obs::global();

    let shapes = vec![Shape::build(96)?, Shape::build(64)?];
    let streams = build_streams(&shapes, sessions, windows)?;
    let shape_table: Vec<(SystemConfig, LowResCodec)> = shapes
        .iter()
        .map(|s| (s.system.clone(), s.codec.clone()))
        .collect();
    println!(
        "crash recovery: {sessions} sessions x {windows} windows, 2 operator shapes, \
         {:.0}% burst loss",
        LOSS * 100.0
    );

    // --- bit-identity: journal on vs off, same lossy run -------------
    let reference = run(&shapes, &streams, None, RunMode::Lossy)?
        .outputs
        .expect("plain run completes");
    let lossy_store = MemStore::new();
    let journaled_outputs = run(
        &shapes,
        &streams,
        Some(Box::new(lossy_store.clone())),
        RunMode::Lossy,
    )?
    .outputs
    .expect("journaled run completes");
    if journaled_outputs != reference {
        eprintln!("error: journaling perturbed the decode outputs");
        std::process::exit(1);
    }
    let final_image = lossy_store.snapshot();
    let durable = scan(&final_image);
    let total_records = durable.records.len();
    println!(
        "crash recovery: journal on/off outputs bit-identical \
         ({total_records} records, {} KiB journaled)",
        final_image.len() / 1024
    );

    // --- journal overhead gate ---------------------------------------
    // Interleaved plain/journaled pairs of the solve-heavy loss-free
    // run, min-of-N each; fresh MemStore per journaled rep.
    let reps = env_usize("HYBRIDCS_CRASH_REPS", 3).max(1);
    let overhead_limit_pct = env_f64("HYBRIDCS_CRASH_OVERHEAD_LIMIT", 10.0);
    let mut plain_s = f64::INFINITY;
    let mut journaled_s = f64::INFINITY;
    for _ in 0..reps {
        plain_s = plain_s.min(run(&shapes, &streams, None, RunMode::Throughput)?.seconds);
        journaled_s = journaled_s.min(
            run(
                &shapes,
                &streams,
                Some(Box::new(MemStore::new())),
                RunMode::Throughput,
            )?
            .seconds,
        );
    }
    let overhead_pct = (journaled_s - plain_s) / plain_s * 100.0;
    println!(
        "crash recovery: journal overhead {overhead_pct:.2}% \
         (plain {plain_s:.3}s, journaled {journaled_s:.3}s, min-of-{reps})"
    );
    if overhead_pct > overhead_limit_pct {
        eprintln!(
            "error: journal overhead {overhead_pct:.2}% exceeds the \
             {overhead_limit_pct:.0}% ceiling"
        );
        std::process::exit(1);
    }
    registry
        .gauge("gateway_bench_journal_overhead_pct", &[])
        .set(overhead_pct.max(0.0));
    registry
        .gauge("gateway_bench_journal_bytes", &[])
        .set(final_image.len() as f64);
    registry
        .gauge("gateway_bench_journal_records", &[])
        .set(total_records as f64);

    // --- kill-point sweep --------------------------------------------
    // Evenly spaced record indices, cycling the tail faults; every
    // surviving image must recover to the durable-prefix oracle.
    let faults = [
        TailFault::Clean,
        TailFault::TornWrite(3),
        TailFault::FlipBit(41),
        TailFault::Garbage(9),
    ];
    let stride = (total_records / killpoints).max(1);
    let mut checkpoints_restored = 0usize;
    let mut sweeps = 0usize;
    for (i, kill_at) in (1..total_records as u64).step_by(stride).enumerate() {
        let fault = faults[i % faults.len()];
        let context = format!("kill@{kill_at} fault={}", fault.name());
        let store = CrashingStore::new(
            MemStore::new(),
            CrashPlan {
                kill_at_record: kill_at,
                tail: fault,
            },
        );
        let image = store.image();
        let outcome = run(&shapes, &streams, Some(Box::new(store)), RunMode::Lossy)?;
        if !outcome.crashed {
            eprintln!("error: the crash plan never fired ({context})");
            std::process::exit(1);
        }
        let surviving = image.snapshot();
        let prefix = scan(&surviving);
        let recovery_started = Instant::now();
        let (mut recovered, report) = Gateway::recover(
            gateway_config(),
            Box::new(MemStore::from_bytes(surviving)),
            &shape_table,
        )?;
        let recovery_s = recovery_started.elapsed().as_secs_f64();
        if matches!(fault, TailFault::Clean) == report.torn_tail {
            eprintln!(
                "error: torn-tail detection wrong ({context}: torn={})",
                report.torn_tail
            );
            std::process::exit(1);
        }
        if report.checkpoint_restored {
            checkpoints_restored += 1;
        }
        let (mut oracle, _) =
            Gateway::from_records(gateway_config(), &shape_table, &prefix.records)?;
        verify_equivalent(&mut recovered, &mut oracle, &streams, &context)?;
        sweeps += 1;
        let records_label = kill_at.to_string();
        registry
            .gauge(
                "gateway_bench_recovery_seconds",
                &[("records", &records_label)],
            )
            .set(recovery_s);
        registry
            .gauge(
                "gateway_bench_recovery_replayed",
                &[("records", &records_label)],
            )
            .set(report.replayed_events as f64);
        println!(
            "crash recovery: {context} -> checkpoint={} replayed {} events, \
             recovered in {:.1} ms, state equivalent",
            report.checkpoint_restored,
            report.replayed_events,
            recovery_s * 1e3
        );
    }
    if checkpoints_restored == 0 {
        eprintln!("error: no recovery in the sweep restored a checkpoint");
        std::process::exit(1);
    }

    // --- bench report -------------------------------------------------
    let snapshot = registry.snapshot();
    let path = std::path::PathBuf::from(bench_path);
    hybridcs::obs::export::write_jsonl(&path, "crash_recovery", &snapshot, &[])?;
    println!("crash recovery: report written to {}", path.display());
    println!(
        "crash recovery: OK ({sweeps} crash/recover cycles, \
         {checkpoints_restored} checkpoint restores, \
         journal overhead {overhead_pct:.2}%)"
    );
    Ok(())
}
