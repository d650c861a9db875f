//! Ingest soak: hundreds to thousands of concurrent device sessions
//! over real loopback sockets into the gateway, with radio faults, and
//! a bit-for-bit determinism audit against the in-process path.
//!
//! ```sh
//! cargo run --release --example ingest_soak
//! ```
//!
//! What it checks (exits non-zero on any failure):
//!
//! 1. **Scale** — `HYBRIDCS_INGEST_SESSIONS` (default 1000, 10k+ is
//!    fine locally) devices connect concurrently, handshake with
//!    fingerprint checks, time-sync, and stream
//!    `HYBRIDCS_INGEST_WINDOWS` (default 3) compressed frames each,
//!    every fourth device through a lossy/reordering/splitting radio.
//!    The gateway runs with `admit_quota: 0` so every window sheds to
//!    the low-resolution rung — the paper's aggregator under worst-case
//!    load keeps absorbing instead of queueing. All sessions must
//!    complete with every window accounted for.
//! 2. **Determinism** — the server logs every state-changing gateway call
//!    as the journal [`Record`](hybridcs::gateway::Record) the gateway
//!    would write for it. Replaying that log into a fresh in-process
//!    gateway with
//!    [`Gateway::from_records`](hybridcs::gateway::Gateway::from_records)
//!    — both in recorded order and in session-major order (the canonical
//!    in-process schedule) — must reproduce the live socket outputs
//!    bit-for-bit, for both phases.
//! 3. **Fidelity** — a smaller cohort (16 sessions × 4 windows) runs
//!    with real admission quotas (hybrid solves happening) and radio
//!    faults on *every* device; same completion and determinism bars.
//! 4. **Telemetry** — `net_*` connection-lifecycle counters must be
//!    present in the Prometheus exposition, and the flight recorder's
//!    `conn` events must produce a schema-valid JSONL dump.
//!
//! The bench report (`BENCH_ingest.json`, JSONL in the `hybridcs-obs`
//! export schema) carries sessions/sec, p50/p99 frame-to-commit
//! latency, and the full `net_*`/`gateway_*` counter snapshot; the same
//! snapshot is rendered to `METRICS_ingest.prom`.
//!
//! Environment knobs: `HYBRIDCS_INGEST_SESSIONS`,
//! `HYBRIDCS_INGEST_WINDOWS`, `HYBRIDCS_INGEST_BENCH_PATH` (default
//! `BENCH_ingest.json`), `HYBRIDCS_INGEST_FLIGHT_PATH` (default
//! `FLIGHT_ingest.jsonl`), `HYBRIDCS_INGEST_PROM_PATH` (default
//! `METRICS_ingest.prom`).

use std::collections::BTreeMap;
use std::time::Instant;

use hybridcs::codec::telemetry::FrameCodec;
use hybridcs::codec::{
    experiment::default_training_windows, train_lowres_codec, HybridFrontEnd, SupervisedWindow,
    SystemConfig,
};
use hybridcs::coding::LowResCodec;
use hybridcs::faults::{FaultyTransport, GilbertElliottConfig, TransportFaultConfig};
use hybridcs::gateway::{Gateway, GatewayConfig};
use hybridcs::net::{
    session_major, ClientConfig, DeviceClient, DevicePhase, IngestConfig, IngestServer, ShapeTable,
};
use hybridcs::obs::flight::recorder;
use hybridcs::obs::HistogramSnapshot;

/// Distinct pre-encoded physiologies shared across the scale cohort
/// (encoding thousands of full streams would swamp the soak's budget
/// without exercising anything new).
const STREAM_POOL: usize = 32;
/// Every Nth scale-phase device gets the faulty radio.
const FAULTY_EVERY: u64 = 4;
/// Listener backlog is 128 on Linux; connect in smaller batches with
/// accept rounds in between so no SYN is ever dropped.
const CONNECT_BATCH: usize = 100;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_path(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

struct Shape {
    system: SystemConfig,
    codec: LowResCodec,
    fingerprint: u64,
}

fn build_shape() -> Result<Shape, Box<dyn std::error::Error>> {
    let system = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let codec = train_lowres_codec(system.lowres_bits, &default_training_windows(system.window))?;
    let fingerprint = hybridcs::gateway::shape_fingerprint(&system, &codec);
    Ok(Shape {
        system,
        codec,
        fingerprint,
    })
}

/// Pre-encodes `pool` distinct streams of `windows` wire frames each.
fn build_frame_pool(
    shape: &Shape,
    pool: usize,
    windows: usize,
) -> Result<Vec<Vec<Vec<u8>>>, Box<dyn std::error::Error>> {
    let frontend = HybridFrontEnd::new(&shape.system, shape.codec.clone())?;
    let wire = FrameCodec::new(&shape.system)?;
    let physiology = hybridcs::ecg::GeneratorConfig::normal_sinus();
    let seconds = (windows * shape.system.window) as f64 / physiology.fs_hz + 2.0;
    let mut out = Vec::with_capacity(pool);
    for p in 0..pool {
        let generator = hybridcs::ecg::EcgGenerator::new(physiology.clone())?;
        let strip = generator.generate(seconds, hybridcs_rand::mix(0x16E57 ^ p as u64));
        let mut frames = Vec::with_capacity(windows);
        for (seq, window) in strip
            .chunks_exact(shape.system.window)
            .take(windows)
            .enumerate()
        {
            let encoded = frontend.encode(window)?;
            frames.push(wire.serialize(seq as u32, &encoded)?);
        }
        assert_eq!(frames.len(), windows, "strip long enough");
        out.push(frames);
    }
    Ok(out)
}

fn faulty_radio(seed: u64) -> FaultyTransport {
    FaultyTransport::new(
        TransportFaultConfig {
            channel: GilbertElliottConfig::burst_loss(0.08, 2.5),
            reorder: 0.05,
            split: 0.25,
        },
        seed,
    )
}

fn clean_radio(seed: u64) -> FaultyTransport {
    FaultyTransport::new(TransportFaultConfig::clean(), seed)
}

struct PhaseOutcome {
    live: BTreeMap<u64, Vec<SupervisedWindow>>,
    /// The live run's `gateway_frame_to_commit_seconds` samples.
    frame_to_commit: HistogramSnapshot,
    wall_seconds: f64,
    frames: u64,
    peak_sessions: usize,
}

/// Connects `sessions` devices (in backlog-safe batches), drives server
/// and clients to completion on one thread, audits determinism, and
/// returns the live outputs.
fn run_phase(
    name: &str,
    config: &IngestConfig,
    shape: &Shape,
    pool: &[Vec<Vec<u8>>],
    sessions: usize,
    windows: usize,
    radio_for: impl Fn(u64) -> FaultyTransport,
) -> Result<PhaseOutcome, Box<dyn std::error::Error>> {
    let shapes = vec![(shape.system.clone(), shape.codec.clone())];
    let mut server = IngestServer::bind(
        "127.0.0.1:0",
        config.clone(),
        ShapeTable::new(shapes.clone()),
    )?;
    let addr = server.local_addr().to_string();
    let client_config = ClientConfig {
        heartbeat_after: 24,
        quiet_heartbeats_to_close: 2,
        ..ClientConfig::default()
    };

    let mut clients: Vec<DeviceClient> = Vec::with_capacity(sessions);
    for device in 0..sessions as u64 {
        clients.push(DeviceClient::connect(
            &addr,
            device,
            shape.fingerprint,
            server.config_fingerprint(),
            pool[device as usize % pool.len()].clone(),
            radio_for(device),
            client_config,
        )?);
        if clients.len().is_multiple_of(CONNECT_BATCH) {
            // Drain the accept queue before the next batch.
            server.poll()?;
        }
    }
    server.poll()?;
    let peak_sessions = server.active_connections();
    if peak_sessions < sessions {
        return Err(format!(
            "{name}: only {peak_sessions}/{sessions} connections concurrently live"
        )
        .into());
    }

    let frame_to_commit = hybridcs::obs::global().histogram("gateway_frame_to_commit_seconds", &[]);
    let before = frame_to_commit.snapshot();
    let started = Instant::now();
    let mut converged = false;
    for _ in 0..10_000_000u64 {
        server.poll()?;
        let mut all_done = true;
        for client in &mut clients {
            if !client.tick() {
                all_done = false;
            }
        }
        if all_done && server.active_connections() == 0 {
            converged = true;
            break;
        }
    }
    if !converged {
        return Err(format!("{name}: soak did not converge").into());
    }
    let wall_seconds = started.elapsed().as_secs_f64();
    // Taken before the replays below, which commit through gateways of
    // their own and record into the same histogram.
    let frame_to_commit = frame_to_commit.snapshot().delta(&before);

    for client in &clients {
        if client.phase() != DevicePhase::Done {
            return Err(format!(
                "{name}: device {} ended in {:?}",
                client.device(),
                client.phase()
            )
            .into());
        }
        if client.stats().sync.is_none() {
            return Err(format!("{name}: device {} never time-synced", client.device()).into());
        }
    }

    let live = server.take_outputs();
    if live.len() != sessions {
        return Err(format!(
            "{name}: {}/{sessions} sessions produced outputs",
            live.len()
        )
        .into());
    }
    for (device, outputs) in &live {
        if outputs.len() != windows {
            return Err(format!(
                "{name}: device {device} committed {}/{windows} windows",
                outputs.len()
            )
            .into());
        }
    }

    // Determinism audit: the op log replayed into a fresh in-process
    // gateway — in recorded order (bridge purity) and session-major
    // order (interleaving independence) — must match bit-for-bit.
    let ops = server.take_ops();
    let (_, recorded) = Gateway::from_records(config.gateway, &shapes, &ops)?;
    if recorded != live {
        return Err(format!("{name}: recorded-order replay diverged from live outputs").into());
    }
    let (_, major) = Gateway::from_records(config.gateway, &shapes, &session_major(&ops))?;
    if major != live {
        return Err(format!("{name}: session-major replay diverged from live outputs").into());
    }

    Ok(PhaseOutcome {
        live,
        frame_to_commit,
        wall_seconds,
        frames: (sessions * windows) as u64,
        peak_sessions,
    })
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sessions = env_usize("HYBRIDCS_INGEST_SESSIONS", 1000);
    let windows = env_usize("HYBRIDCS_INGEST_WINDOWS", 3);
    let bench_path = env_path("HYBRIDCS_INGEST_BENCH_PATH", "BENCH_ingest.json");
    let flight_path = env_path("HYBRIDCS_INGEST_FLIGHT_PATH", "FLIGHT_ingest.jsonl");
    let prom_path = env_path("HYBRIDCS_INGEST_PROM_PATH", "METRICS_ingest.prom");
    let registry = hybridcs::obs::global();
    hybridcs::obs::set_enabled(true);
    recorder().clear();

    let shape = build_shape()?;
    let pool = build_frame_pool(&shape, STREAM_POOL.min(sessions.max(1)), windows)?;

    // --- phase 1: scale ----------------------------------------------
    // Quota 0: every window sheds to the cheap low-res rung, so decode
    // cost stays flat while the socket tier absorbs the full cohort.
    // Queue-depth shedding is off (usize::MAX) because its outcome
    // depends on global interleaving — the determinism audit needs the
    // per-session-only admission path (DESIGN §13).
    let scale_config = IngestConfig {
        gateway: GatewayConfig {
            admit_quota: 0,
            max_shard_queue: usize::MAX,
            ..GatewayConfig::default()
        },
        recv_window: 8,
        overload_pending: 512,
        flush_pending: 128,
        record_ops: true,
        ..IngestConfig::default()
    };
    let scale = run_phase(
        "scale",
        &scale_config,
        &shape,
        &pool,
        sessions,
        windows,
        |device| {
            if device % FAULTY_EVERY == 0 {
                faulty_radio(0xFA17 ^ device)
            } else {
                clean_radio(device)
            }
        },
    )?;
    let sessions_per_second = sessions as f64 / scale.wall_seconds;
    println!(
        "ingest scale: {} concurrent sessions ({} with radio faults), {} frames in {:.2}s \
         -> {:.0} sessions/s, outputs bit-identical to in-process replay \
         (recorded + session-major)",
        scale.peak_sessions,
        sessions.div_ceil(FAULTY_EVERY as usize),
        scale.frames,
        scale.wall_seconds,
        sessions_per_second
    );

    let Some(p) = scale.frame_to_commit.percentiles() else {
        eprintln!("error: no frame-to-commit samples in the scale phase");
        std::process::exit(1);
    };
    println!(
        "ingest latency: frame-to-commit p50 {:.2} ms, p99 {:.2} ms",
        p.p50 * 1e3,
        p.p99 * 1e3
    );

    // --- phase 2: fidelity -------------------------------------------
    // Real admission quotas (hybrid solves happen) and faults on every
    // radio; the determinism bar is identical.
    let fidelity_sessions = 16.min(sessions);
    let fidelity_windows = 4usize;
    let fidelity_pool = build_frame_pool(&shape, fidelity_sessions, fidelity_windows)?;
    let fidelity_config = IngestConfig {
        gateway: GatewayConfig {
            admit_quota: 2,
            admit_window: 4,
            max_shard_queue: usize::MAX,
            batch_capacity: 32,
            ..GatewayConfig::default()
        },
        recv_window: 4,
        overload_pending: 16,
        flush_pending: 8,
        record_ops: true,
        ..IngestConfig::default()
    };
    let fidelity = run_phase(
        "fidelity",
        &fidelity_config,
        &shape,
        &fidelity_pool,
        fidelity_sessions,
        fidelity_windows,
        |device| faulty_radio(0x0F1D ^ device),
    )?;
    let solved = fidelity
        .live
        .values()
        .flatten()
        .filter(|w| w.decoded.is_some())
        .count();
    if solved == 0 {
        eprintln!("error: fidelity phase admitted no hybrid solves");
        std::process::exit(1);
    }
    println!(
        "ingest fidelity: {} faulty-radio sessions, {} windows ({solved} hybrid-solved), \
         outputs bit-identical to in-process replay (recorded + session-major)",
        fidelity_sessions, fidelity.frames
    );

    // --- telemetry: flight dump + exposition -------------------------
    let dump = recorder().dump_jsonl("ingest_soak");
    for line in dump.lines() {
        if let Err(e) = hybridcs::obs::jsonl::validate_line(line) {
            eprintln!("error: invalid flight dump line: {e}\n{line}");
            std::process::exit(1);
        }
    }
    if !dump.contains("\"event\":\"conn\"") {
        eprintln!("error: flight dump has no connection lifecycle events");
        std::process::exit(1);
    }
    std::fs::write(&flight_path, &dump)?;
    println!(
        "ingest flight: {} events schema-valid, written to {flight_path}",
        dump.lines().count().saturating_sub(1)
    );

    let snapshot = {
        registry
            .gauge("ingest_bench_sessions", &[])
            .set(sessions as f64);
        registry
            .gauge("ingest_bench_sessions_per_second", &[])
            .set(sessions_per_second);
        registry
            .gauge("ingest_bench_wall_seconds", &[])
            .set(scale.wall_seconds);
        registry
            .gauge("ingest_bench_frames", &[])
            .set(scale.frames as f64);
        registry
            .gauge("ingest_frame_to_commit_p50_seconds", &[])
            .set(p.p50);
        registry
            .gauge("ingest_frame_to_commit_p99_seconds", &[])
            .set(p.p99);
        registry.snapshot()
    };
    for required in [
        "net_accepted_total",
        "net_handshake_total",
        "net_timesync_total",
        "net_frames_total",
        "net_closed_total",
    ] {
        if !snapshot.counters.iter().any(|(id, _)| id.name == required) {
            eprintln!("error: counter {required} missing from the snapshot");
            std::process::exit(1);
        }
    }
    let exposition = hybridcs::obs::render_prometheus(&snapshot);
    if !exposition.contains("# TYPE gateway_frame_to_commit_seconds histogram") {
        eprintln!("error: exposition is missing the frame-to-commit histogram");
        std::process::exit(1);
    }
    std::fs::write(&prom_path, &exposition)?;
    let path = std::path::PathBuf::from(bench_path);
    hybridcs::obs::export::write_jsonl(&path, "ingest_soak", &snapshot, &[])?;
    hybridcs::obs::set_enabled(false);
    println!(
        "ingest bench: report written to {}, prometheus exposition ({} lines) to {prom_path}",
        path.display(),
        exposition.lines().count()
    );
    Ok(())
}
