//! Telemetry-overhead gate: the gateway decode path with `HYBRIDCS_OBS`
//! telemetry **on** must stay bit-identical to the default path and cost
//! at most a bounded throughput overhead (default ≤ 5%).
//!
//! ```sh
//! cargo run --release --bin obs_overhead
//! ```
//!
//! The same frame stream is pushed through identical gateways as one
//! off/on pair per round — telemetry off, and on (spans, flight recorder,
//! event contexts all live) — for several rounds. The order within a pair
//! alternates from round to round (off first on even rounds, on first on
//! odd ones), so a host whose speed drifts across a pair favours neither
//! mode, and the gate reads the **median of the per-round `on / off`
//! time ratios**: each ratio compares two runs made back to back, and the
//! median discards rounds a scheduler hiccup spoiled. The process exits
//! non-zero when
//!
//! * any decoded window differs between the two modes (the telemetry
//!   layer must be purely observational),
//! * the enabled runs recorded no flight events, or
//! * `median(on / off) − 1` exceeds the overhead limit.
//!
//! The bench report (`BENCH_obs.json` by default, JSONL in the
//! `hybridcs-obs` export schema) carries both throughputs (from each
//! mode's median time), the measured overhead ratio, and the
//! flight-recorder event volume of the enabled runs.
//!
//! Environment knobs: `HYBRIDCS_OBS_WINDOWS` (default 16 frames per run),
//! `HYBRIDCS_OBS_ROUNDS` (default 7; odd, so the median is one round's
//! ratio), `HYBRIDCS_OBS_OVERHEAD_LIMIT` (default 0.05),
//! `HYBRIDCS_OBS_BENCH_PATH` (default `BENCH_obs.json`).

use hybridcs_coding::LowResCodec;
use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
use hybridcs_core::{train_lowres_codec, HybridFrontEnd, SystemConfig};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_gateway::{Gateway, GatewayConfig};
use hybridcs_obs::flight::recorder;
use std::time::Instant;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

struct Rig {
    system: SystemConfig,
    codec: LowResCodec,
    frames: Vec<Vec<u8>>,
}

fn rig(frames: usize) -> Rig {
    let system = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let codec = train_lowres_codec(system.lowres_bits, &default_training_windows(system.window))
        .expect("codec trains");
    let frontend = HybridFrontEnd::new(&system, codec.clone()).expect("frontend builds");
    let wire = FrameCodec::new(&system).expect("wire codec builds");
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).expect("generator builds");
    let strip = generator.generate(frames as f64, 0x0B5_0B5);
    let frames = strip
        .chunks_exact(system.window)
        .take(frames)
        .enumerate()
        .map(|(seq, window)| {
            let encoded = frontend.encode(window).expect("window encodes");
            wire.serialize(seq as u32, &encoded)
                .expect("frame serializes")
        })
        .collect();
    Rig {
        system,
        codec,
        frames,
    }
}

/// One pass of the stream through a fresh gateway.
struct Pass {
    seconds: f64,
    /// Every decoded signal (the bit-identity evidence).
    outputs: Vec<Vec<f64>>,
    /// Flight-recorder events the pass recorded (0 with telemetry off).
    flight_events: u64,
}

/// Pushes the whole stream through a fresh gateway.
fn run(rig: &Rig, telemetry: bool) -> Pass {
    hybridcs_obs::set_enabled(telemetry);
    recorder().clear();
    let mut gateway = Gateway::new(GatewayConfig {
        // Admit every window so the heavy hybrid solves dominate — the
        // realistic worst case for relative telemetry overhead is not the
        // interesting one; the realistic steady state is.
        admit_quota: u32::MAX,
        admit_window: u32::MAX,
        ..GatewayConfig::default()
    })
    .expect("gateway config valid");
    gateway
        .handshake(1, &rig.system, rig.codec.clone())
        .expect("handshake");
    let started = Instant::now();
    for frame in &rig.frames {
        gateway.push(1, frame).expect("push");
    }
    gateway.flush().expect("flush");
    let elapsed = started.elapsed().as_secs_f64();
    let outputs = gateway
        .take_outputs(1)
        .expect("outputs")
        .into_iter()
        .map(|w| w.signal)
        .collect();
    let flight_events = recorder().recorded();
    // Leave nothing armed for the next run.
    let _ = hybridcs_obs::drain_events();
    hybridcs_obs::set_enabled(false);
    Pass {
        seconds: elapsed,
        outputs,
        flight_events,
    }
}

/// Median of a non-empty sample (the mean of the middle two when even).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

fn main() {
    let frames = env_usize("HYBRIDCS_OBS_WINDOWS", 16);
    let rounds = env_usize("HYBRIDCS_OBS_ROUNDS", 7).max(1);
    let limit = env_f64("HYBRIDCS_OBS_OVERHEAD_LIMIT", 0.05);
    let bench_path =
        std::env::var("HYBRIDCS_OBS_BENCH_PATH").unwrap_or_else(|_| "BENCH_obs.json".to_string());
    let rig = rig(frames);

    // Warm both paths (operator caches, allocator pools, page faults).
    let baseline = run(&rig, false).outputs;
    let telemetry = run(&rig, true).outputs;
    assert_eq!(
        baseline, telemetry,
        "telemetry-enabled decode output diverged from default"
    );

    let mut ratios = Vec::with_capacity(rounds);
    let mut times_off = Vec::with_capacity(rounds);
    let mut times_on = Vec::with_capacity(rounds);
    let mut events_recorded = 0u64;
    for round in 0..rounds {
        let (off, on) = if round % 2 == 0 {
            let off = run(&rig, false);
            (off, run(&rig, true))
        } else {
            let on = run(&rig, true);
            (run(&rig, false), on)
        };
        assert_eq!(
            off.outputs, baseline,
            "default path output not reproducible"
        );
        assert_eq!(on.outputs, baseline, "telemetry path output diverged");
        ratios.push(on.seconds / off.seconds);
        times_off.push(off.seconds);
        times_on.push(on.seconds);
        events_recorded = events_recorded.max(on.flight_events);
    }
    let overhead = median(&mut ratios) - 1.0;
    let throughput_off = frames as f64 / median(&mut times_off);
    let throughput_on = frames as f64 / median(&mut times_on);
    println!(
        "decode throughput: telemetry off {throughput_off:.1} windows/s, \
         on {throughput_on:.1} windows/s (median of {rounds} alternating off/on pairs)"
    );
    println!(
        "telemetry overhead: {:+.2}% (median per-pair ratio; limit {:.2}%), {} flight events/run",
        overhead * 100.0,
        limit * 100.0,
        events_recorded
    );

    let registry = hybridcs_obs::MetricsRegistry::new();
    registry
        .gauge("obs_overhead_ratio", &[])
        .set(overhead.max(0.0));
    registry
        .gauge("obs_windows_per_second", &[("telemetry", "off")])
        .set(throughput_off);
    registry
        .gauge("obs_windows_per_second", &[("telemetry", "on")])
        .set(throughput_on);
    registry
        .gauge("obs_flight_events_per_run", &[])
        .set(events_recorded as f64);
    let path = std::path::PathBuf::from(&bench_path);
    hybridcs_obs::export::write_jsonl(&path, "obs_overhead", &registry.snapshot(), &[])
        .expect("bench report writes");
    println!("bench report: {}", path.display());

    assert!(
        events_recorded > 0,
        "telemetry-enabled run recorded no flight events — the gate is \
         not measuring what it claims to"
    );
    assert!(
        overhead <= limit,
        "telemetry overhead {:.2}% exceeds the {:.2}% limit",
        overhead * 100.0,
        limit * 100.0
    );
    println!("obs overhead: OK");
}
