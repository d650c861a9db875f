//! The gateway's `solve` stage histogram. It lives in its own test binary,
//! hence its own process, so no other test writes the global
//! `gateway_stage_seconds` histogram and its samples are exactly this
//! test's windows.

use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
use hybridcs_core::{train_lowres_codec, HybridFrontEnd, SystemConfig};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_gateway::{Gateway, GatewayConfig};
use std::time::Instant;

/// Every window of a lockstep chunk waited for the whole chunk's solve, so
/// each records the chunk's wall time as its `solve` stage — not the chunk
/// time divided among the windows.
#[test]
fn each_window_records_the_solve_it_waited_for() {
    const WINDOWS: u32 = 6;
    let system = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let codec =
        train_lowres_codec(system.lowres_bits, &default_training_windows(system.window)).unwrap();
    let frontend = HybridFrontEnd::new(&system, codec.clone()).unwrap();
    let wire = FrameCodec::new(&system).unwrap();
    let strip = EcgGenerator::new(GeneratorConfig::normal_sinus())
        .unwrap()
        .generate(10.0, 0x50_1E);

    // One shard and one worker: all windows form one chunk of one solve.
    let mut gateway = Gateway::new(GatewayConfig {
        shards: 1,
        workers: 1,
        ..GatewayConfig::default()
    })
    .unwrap();
    gateway.handshake(7, &system, codec).unwrap();
    for (seq, window) in (0..WINDOWS).zip(strip.chunks_exact(system.window)) {
        let frame = wire
            .serialize(seq, &frontend.encode(window).unwrap())
            .unwrap();
        gateway.push(7, &frame).unwrap();
    }
    let started = Instant::now();
    let report = gateway.flush().unwrap();
    let flush_s = started.elapsed().as_secs_f64();
    assert_eq!(report.committed, WINDOWS as usize);
    assert_eq!(report.full_solves, WINDOWS as usize, "nothing shed");

    let snapshot = hybridcs_obs::global().snapshot();
    let solve = snapshot
        .histogram_snapshot("gateway_stage_seconds", &[("stage", "solve")])
        .expect("solve stage recorded");
    assert_eq!(solve.count, u64::from(WINDOWS), "one sample per window");
    let p50 = solve.percentiles().expect("non-empty histogram").p50;
    assert!(
        p50 >= 0.5 * flush_s,
        "solve p50 {p50:.4} s is under half the {flush_s:.4} s flush"
    );
}
