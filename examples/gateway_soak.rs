//! Gateway soak: N simulated sensor sessions interleaved over a lossy
//! burst channel into the sharded multi-patient gateway, proving the
//! determinism contract and measuring batched-decode throughput.
//!
//! ```sh
//! cargo run --release --example gateway_soak
//! ```
//!
//! What it checks (exits non-zero on any failure):
//!
//! 1. **Determinism** — per-session reconstructions are bit-identical
//!    for worker counts {1, 4, 8}, for decode-batch widths {1, 3, 16}
//!    (one-window panels vs. ragged and full lockstep batches), and for
//!    two different frame interleavings (round-robin across sessions vs.
//!    session-major), while ~half the solver work is being *shed* by
//!    admission control and gaps are repaired (or abandoned) through the
//!    bounded ARQ.
//! 2. **Telemetry** — the same soak scenario re-runs with full telemetry
//!    (flight recorder + spans) enabled for worker counts {1, 4, 8};
//!    outputs must stay bit-identical to the telemetry-off reference,
//!    and each run's frame-to-commit p50/p99 goes into the bench report
//!    as `gateway_frame_to_commit_p{50,99}_seconds{workers="N"}`.
//! 3. **SLOs** — the [`hybridcs::obs::SloEngine`] evaluates three
//!    objectives (p99 frame-to-commit latency, full-hybrid-rung
//!    fraction, non-concealed fraction) over the telemetry sweep's
//!    observation windows and prints one burn-rate summary line each.
//! 4. **Flight recorder** — a config with an always-tripping watchdog
//!    injects a deterministic anomaly; the resulting flight dump must be
//!    anomaly-latched, schema-valid line by line, and is written to
//!    `FLIGHT_gateway.jsonl`.
//! 5. **Throughput** — a loss-free, shard-balanced batch is decoded with
//!    1 worker and with `min(8, cores)` workers; the speedup is written
//!    to the bench report and asserted when the host has the cores for
//!    it (≥ 4× on hosts with more than 4 cores, ≥ 3× on exactly 4 —
//!    4× is the theoretical ceiling of a 4-core machine).
//!
//! The bench report (`BENCH_gateway.json` by default, JSONL in the
//! `hybridcs-obs` export schema) carries the full metrics snapshot:
//! shed counts, ladder rungs, per-stage latency histograms with
//! p50/p90/p99, queue depths, and the `gateway_bench_*` gauges. A
//! Prometheus text exposition of the same snapshot is written to
//! `METRICS_gateway.prom`.
//!
//! Environment knobs: `HYBRIDCS_SOAK_SESSIONS` (default 64),
//! `HYBRIDCS_SOAK_WINDOWS` (default 4, per session),
//! `HYBRIDCS_GATEWAY_BENCH_PATH` (default `BENCH_gateway.json`),
//! `HYBRIDCS_FLIGHT_PATH` (default `FLIGHT_gateway.jsonl`),
//! `HYBRIDCS_PROM_PATH` (default `METRICS_gateway.prom`).

use hybridcs::codec::telemetry::FrameCodec;
use hybridcs::codec::{
    experiment::default_training_windows, train_lowres_codec, HybridFrontEnd, SupervisedWindow,
    SupervisorConfig, SystemConfig,
};
use hybridcs::coding::LowResCodec;
use hybridcs::ecg::{EcgGenerator, GeneratorConfig};
use hybridcs::faults::{GilbertElliott, GilbertElliottConfig};
use hybridcs::gateway::{Gateway, GatewayConfig};
use hybridcs::obs::flight::recorder;
use hybridcs::obs::{BurnPolicy, MetricId, Objective, SloEngine, SloSpec};
use hybridcs::solver::WatchdogConfig;
use std::time::Instant;

/// Burst-loss rate the soak streams run over.
const LOSS: f64 = 0.08;
/// Mean burst length (frames).
const BURST_LEN: f64 = 2.5;
/// Worker counts the determinism sweep must agree across.
const WORKER_COUNTS: [usize; 3] = [1, 4, 8];

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
    id_base: u64,
) -> Result<Vec<Stream>, Box<dyn std::error::Error>> {
    let mut streams = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let id = id_base + i as u64;
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
        assert_eq!(frames.len(), windows, "strip long enough for all windows");
        streams.push(Stream { id, shape, frames });
    }
    Ok(streams)
}

/// Global frame orderings the determinism sweep compares.
#[derive(Clone, Copy)]
enum Interleave {
    /// Window 0 of every session, then window 1 of every session, …
    RoundRobin,
    /// All of session 0, then all of session 1, …
    SessionMajor,
}

impl Interleave {
    fn name(self) -> &'static str {
        match self {
            Interleave::RoundRobin => "round_robin",
            Interleave::SessionMajor => "session_major",
        }
    }

    fn order(self, sessions: usize, windows: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(sessions * windows);
        match self {
            Interleave::RoundRobin => {
                for w in 0..windows {
                    for s in 0..sessions {
                        out.push((s, w));
                    }
                }
            }
            Interleave::SessionMajor => {
                for s in 0..sessions {
                    for w in 0..windows {
                        out.push((s, w));
                    }
                }
            }
        }
        out
    }
}

/// Streams every frame (in the given global order) through a per-session
/// Gilbert–Elliott channel into a fresh gateway; gaps go through the
/// nack/retransmit cycle, and ARQ-abandoned frames conceal. Returns each
/// session's committed windows in stream order.
fn drive(
    shapes: &[Shape],
    streams: &[Stream],
    workers: usize,
    max_decode_batch: usize,
    interleave: Interleave,
) -> Result<Vec<Vec<SupervisedWindow>>, Box<dyn std::error::Error>> {
    let config = GatewayConfig {
        workers,
        max_decode_batch,
        // Admit at most 2 full solves per 4 consecutive windows of each
        // session: with 4 windows per session the soak sheds half its
        // solver load, exercising demotion while staying fast.
        admit_quota: 2,
        admit_window: 4,
        batch_capacity: 32,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(config)?;
    for stream in streams {
        let shape = &shapes[stream.shape];
        gateway.handshake(stream.id, &shape.system, shape.codec.clone())?;
    }
    // One channel per session, seeded by session id only: every drive —
    // whatever its interleaving — offers each session's transmissions in
    // the same session-local order, so loss patterns are identical.
    let mut channels: Vec<GilbertElliott> = streams
        .iter()
        .map(|s| {
            GilbertElliott::new(
                GilbertElliottConfig::burst_loss(LOSS, BURST_LEN),
                hybridcs_rand::mix(0xC11A ^ s.id),
            )
        })
        .collect();
    let windows = streams[0].frames.len();
    for (s, w) in interleave.order(streams.len(), windows) {
        let stream = &streams[s];
        if let Some(delivered) = channels[s].transmit(&stream.frames[w]) {
            gateway.push(stream.id, &delivered)?;
        }
        // Drain this session's repair cycle at a session-local point so
        // retransmissions consume the channel identically regardless of
        // how other sessions are interleaved around us.
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
    let mut outputs = Vec::with_capacity(streams.len());
    for stream in streams {
        outputs.push(gateway.close(stream.id)?);
    }
    Ok(outputs)
}

/// The soak fleet's objectives. Targets are calibrated to the scenario:
/// admission control deliberately sheds ~half the solver load, so the
/// full-hybrid target is modest, while concealment should stay rare and
/// commits fast.
fn slo_specs() -> Vec<SloSpec> {
    let rung = |r| MetricId::new("supervisor_rung_total", &[("rung", r)]);
    let decoded = || vec![rung("hybrid"), rung("cs_only"), rung("lowres_only")];
    let all = || {
        let mut v = decoded();
        v.push(rung("concealed"));
        v
    };
    vec![
        SloSpec {
            name: "frame_to_commit_p99".to_string(),
            objective: Objective::LatencyUnder {
                histogram: MetricId::new("gateway_frame_to_commit_seconds", &[]),
                threshold_seconds: 30.0,
            },
            target: 0.99,
        },
        SloSpec {
            name: "full_hybrid_rung".to_string(),
            objective: Objective::EventRatio {
                good: vec![rung("hybrid")],
                total: all(),
            },
            target: 0.25,
        },
        SloSpec {
            name: "non_concealed".to_string(),
            objective: Objective::EventRatio {
                good: decoded(),
                total: all(),
            },
            target: 0.90,
        },
    ]
}

/// Picks `count` session ids whose SplitMix64 shard assignments cover the
/// shards evenly, so the throughput bench is load-balanced by
/// construction (the determinism sweep deliberately is not).
fn balanced_ids(count: usize, shards: usize, id_base: u64) -> Vec<u64> {
    let mut per_shard = vec![0usize; shards];
    let target = count.div_ceil(shards);
    let mut ids = Vec::with_capacity(count);
    let mut candidate = id_base;
    while ids.len() < count {
        let shard = usize::try_from(hybridcs_rand::mix(candidate) % shards as u64)
            .expect("shard fits usize");
        if per_shard[shard] < target {
            per_shard[shard] += 1;
            ids.push(candidate);
        }
        candidate += 1;
    }
    ids
}

/// Times one loss-free, every-window-admitted decode of `streams` with
/// the given worker count. Returns (seconds, windows committed).
fn bench_drive(
    shapes: &[Shape],
    streams: &[Stream],
    workers: usize,
) -> Result<(f64, usize), Box<dyn std::error::Error>> {
    let config = GatewayConfig {
        workers,
        admit_quota: u32::MAX,
        batch_capacity: usize::MAX,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(config)?;
    for stream in streams {
        let shape = &shapes[stream.shape];
        gateway.handshake(stream.id, &shape.system, shape.codec.clone())?;
    }
    let started = Instant::now();
    for stream in streams {
        for bytes in &stream.frames {
            gateway.push(stream.id, bytes)?;
        }
    }
    let report = gateway.flush()?;
    let elapsed = started.elapsed().as_secs_f64();
    for stream in streams {
        gateway.close(stream.id)?;
    }
    Ok((elapsed, report.committed))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let sessions = env_usize("HYBRIDCS_SOAK_SESSIONS", 64);
    let windows = env_usize("HYBRIDCS_SOAK_WINDOWS", 4);
    let bench_path = std::env::var("HYBRIDCS_GATEWAY_BENCH_PATH")
        .unwrap_or_else(|_| "BENCH_gateway.json".into());
    let registry = hybridcs::obs::global();

    // Two operator shapes: the paper's default m = 96 and a leaner m = 64.
    let shapes = vec![Shape::build(96)?, Shape::build(64)?];
    let streams = build_streams(&shapes, sessions, windows, 0x1000)?;
    println!(
        "gateway soak: {sessions} sessions x {windows} windows, 2 operator shapes, \
         {:.0}% burst loss",
        LOSS * 100.0
    );

    // --- determinism sweep -------------------------------------------
    let default_batch = GatewayConfig::default().max_decode_batch;
    let reference = drive(&shapes, &streams, 1, default_batch, Interleave::RoundRobin)?;
    let mut runs = 1usize;
    for interleave in [Interleave::RoundRobin, Interleave::SessionMajor] {
        for workers in WORKER_COUNTS {
            if matches!(interleave, Interleave::RoundRobin) && workers == 1 {
                continue; // the reference run
            }
            let outputs = drive(&shapes, &streams, workers, default_batch, interleave)?;
            runs += 1;
            for (i, (got, want)) in outputs.iter().zip(&reference).enumerate() {
                if got != want {
                    eprintln!(
                        "error: session {} diverged with workers={workers}, \
                         interleave={} ({} vs {} windows)",
                        streams[i].id,
                        interleave.name(),
                        got.len(),
                        want.len()
                    );
                    std::process::exit(1);
                }
            }
        }
    }
    // Batched shard flushes must commit bit-identically to per-window
    // decodes: width 1 solves every window as its own one-lane panel
    // (the sensing and wavelet kernels on their serial route), width 3
    // forces ragged chunks, lanes outside a 4-wide vector and mid-solve
    // lane retirement in every group.
    for batch_width in [1usize, 3] {
        let outputs = drive(&shapes, &streams, 4, batch_width, Interleave::RoundRobin)?;
        runs += 1;
        for (i, (got, want)) in outputs.iter().zip(&reference).enumerate() {
            if got != want {
                eprintln!(
                    "error: session {} diverged with max_decode_batch={batch_width} \
                     ({} vs {} windows)",
                    streams[i].id,
                    got.len(),
                    want.len()
                );
                std::process::exit(1);
            }
        }
    }
    let shed = registry
        .snapshot()
        .counter_value("gateway_shed_total", &[("kind", "quota")])
        .unwrap_or(0);
    if shed == 0 {
        eprintln!("error: soak never exercised admission shedding");
        std::process::exit(1);
    }
    println!(
        "gateway soak: deterministic across worker counts {WORKER_COUNTS:?}, \
         decode-batch widths [1, 3, {default_batch}] and 2 interleavings \
         ({runs} runs, {} windows/run, {shed} quota sheds total)",
        sessions * windows
    );

    // --- telemetry sweep: latency SLIs with full telemetry on --------
    // Re-run the reference scenario with the flight recorder and spans
    // live: outputs must not move by a bit, and every run contributes a
    // frame-to-commit distribution plus one SLO observation window.
    let mut slo = SloEngine::new(
        slo_specs(),
        BurnPolicy {
            short_windows: 1,
            long_windows: WORKER_COUNTS.len(),
            ..BurnPolicy::default()
        },
    );
    hybridcs::obs::set_enabled(true);
    recorder().clear();
    slo.observe(registry.snapshot());
    for workers in WORKER_COUNTS {
        let before = registry.snapshot();
        let outputs = drive(
            &shapes,
            &streams,
            workers,
            default_batch,
            Interleave::RoundRobin,
        )?;
        if outputs != reference {
            eprintln!("error: telemetry-enabled run diverged with workers={workers}");
            std::process::exit(1);
        }
        let window = registry.snapshot().delta(&before);
        let Some(p) = window
            .histogram_snapshot("gateway_frame_to_commit_seconds", &[])
            .and_then(hybridcs::obs::HistogramSnapshot::percentiles)
        else {
            eprintln!("error: no frame-to-commit samples with workers={workers}");
            std::process::exit(1);
        };
        println!(
            "gateway telemetry: workers={workers} frame-to-commit \
             p50 {:.1} ms, p99 {:.1} ms",
            p.p50 * 1e3,
            p.p99 * 1e3
        );
        let label = workers.to_string();
        registry
            .gauge(
                "gateway_frame_to_commit_p50_seconds",
                &[("workers", &label)],
            )
            .set(p.p50);
        registry
            .gauge(
                "gateway_frame_to_commit_p99_seconds",
                &[("workers", &label)],
            )
            .set(p.p99);
        slo.observe(registry.snapshot());
    }
    hybridcs::obs::set_enabled(false);
    println!(
        "gateway telemetry: outputs bit-identical with telemetry enabled \
         ({} flight events recorded)",
        recorder().recorded()
    );

    // --- SLO evaluation ----------------------------------------------
    let statuses = slo.evaluate();
    assert!(
        statuses.len() >= 2,
        "the soak must evaluate at least two SLOs"
    );
    let mut measured = 0usize;
    for status in &statuses {
        println!("gateway {}", status.summary());
        if status.long_compliance.is_some() {
            measured += 1;
        }
        registry
            .gauge(
                "slo_burn_rate",
                &[("slo", &status.name), ("window", "short")],
            )
            .set(status.short_burn);
        registry
            .gauge(
                "slo_burn_rate",
                &[("slo", &status.name), ("window", "long")],
            )
            .set(status.long_burn);
    }
    if measured < 2 {
        eprintln!("error: fewer than two SLOs saw events ({measured})");
        std::process::exit(1);
    }

    // --- flight recorder: injected anomaly ---------------------------
    // A watchdog capped at two iterations trips on every admitted solve;
    // the dump must latch the anomaly and validate line by line against
    // the export schema.
    let flight_path =
        std::env::var("HYBRIDCS_FLIGHT_PATH").unwrap_or_else(|_| "FLIGHT_gateway.jsonl".into());
    hybridcs::obs::set_enabled(true);
    recorder().clear();
    {
        let mut gateway = Gateway::new(GatewayConfig {
            workers: 4,
            admit_quota: 2,
            admit_window: 4,
            supervisor: SupervisorConfig {
                watchdog: WatchdogConfig {
                    max_iterations: Some(2),
                    ..WatchdogConfig::default()
                },
                ..SupervisorConfig::default()
            },
            ..GatewayConfig::default()
        })?;
        for stream in streams.iter().take(4) {
            let shape = &shapes[stream.shape];
            gateway.handshake(stream.id, &shape.system, shape.codec.clone())?;
            for bytes in &stream.frames {
                gateway.push(stream.id, bytes)?;
            }
        }
        gateway.flush()?;
        for stream in streams.iter().take(4) {
            gateway.close(stream.id)?;
        }
    }
    let dump = recorder().dump_jsonl("gateway_soak");
    hybridcs::obs::set_enabled(false);
    if !recorder().anomalous() {
        eprintln!("error: injected watchdog trips did not latch the anomaly flag");
        std::process::exit(1);
    }
    for line in dump.lines() {
        if let Err(e) = hybridcs::obs::jsonl::validate_line(line) {
            eprintln!("error: invalid flight dump line: {e}\n{line}");
            std::process::exit(1);
        }
    }
    if !dump.contains("\"event\":\"watchdog_trip\"") {
        eprintln!("error: flight dump is missing the injected watchdog trips");
        std::process::exit(1);
    }
    std::fs::write(&flight_path, &dump)?;
    println!(
        "gateway flight: anomaly dump ({} events) schema-valid, written to {flight_path}",
        dump.lines().count().saturating_sub(1)
    );
    recorder().clear();

    // --- throughput bench --------------------------------------------
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let parallel_workers = cores.clamp(1, 8);
    let bench_ids = balanced_ids(
        8.min(sessions.max(1)),
        GatewayConfig::default().shards,
        0x2000,
    );
    let bench_streams =
        build_streams(&shapes, bench_ids.len(), windows.max(4), 0).map(|mut v| {
            for (stream, id) in v.iter_mut().zip(&bench_ids) {
                stream.id = *id;
            }
            v
        })?;
    let (serial_s, committed) = bench_drive(&shapes, &bench_streams, 1)?;
    let (parallel_s, committed_p) = bench_drive(&shapes, &bench_streams, parallel_workers)?;
    assert_eq!(committed, committed_p, "bench runs decode the same windows");
    let speedup = serial_s / parallel_s;
    let throughput = committed as f64 / parallel_s;
    println!(
        "gateway bench: {committed} windows; serial {serial_s:.3}s, \
         {parallel_workers} workers {parallel_s:.3}s -> {throughput:.1} windows/s \
         ({speedup:.2}x single-threaded)"
    );
    if let Some(p) = registry
        .snapshot()
        .histogram_snapshot("gateway_stage_seconds", &[("stage", "solve")])
        .and_then(hybridcs::obs::HistogramSnapshot::percentiles)
    {
        println!(
            "gateway bench: solve latency p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms",
            p.p50 * 1e3,
            p.p90 * 1e3,
            p.p99 * 1e3
        );
    }
    registry
        .gauge("gateway_bench_serial_seconds", &[])
        .set(serial_s);
    registry
        .gauge("gateway_bench_parallel_seconds", &[])
        .set(parallel_s);
    registry
        .gauge("gateway_bench_workers", &[])
        .set(parallel_workers as f64);
    registry.gauge("gateway_bench_speedup", &[]).set(speedup);
    registry
        .gauge("gateway_bench_throughput_windows_per_s", &[])
        .set(throughput);

    // The speedup floor only binds where the silicon can deliver it: 4x
    // needs more than 4 cores once the (tiny) serial ingest/commit share
    // is paid; on exactly 4 cores we accept 3x, below that just report.
    let floor = if cores > 4 {
        4.0
    } else if cores == 4 {
        3.0
    } else {
        0.0
    };
    if speedup < floor {
        eprintln!(
            "error: gateway speedup {speedup:.2}x below the {floor:.1}x floor \
             for a {cores}-core host"
        );
        std::process::exit(1);
    }

    // --- bench report and exposition ---------------------------------
    let snapshot = registry.snapshot();
    let path = std::path::PathBuf::from(bench_path);
    hybridcs::obs::export::write_jsonl(&path, "gateway_soak", &snapshot, &[])?;
    println!("gateway bench: report written to {}", path.display());
    let prom_path =
        std::env::var("HYBRIDCS_PROM_PATH").unwrap_or_else(|_| "METRICS_gateway.prom".into());
    let exposition = hybridcs::obs::render_prometheus(&snapshot);
    if !exposition.contains("# TYPE gateway_frame_to_commit_seconds histogram") {
        eprintln!("error: exposition is missing the frame-to-commit histogram family");
        std::process::exit(1);
    }
    std::fs::write(&prom_path, &exposition)?;
    println!(
        "gateway bench: prometheus exposition ({} lines) written to {prom_path}",
        exposition.lines().count()
    );
    Ok(())
}
