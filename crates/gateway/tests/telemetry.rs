//! Telemetry integration: flight-recorder dump determinism across worker
//! counts, end-to-end latency histograms, and schema validity of dumps —
//! all driven through the real gateway with an injected watchdog trip.

use hybridcs_coding::LowResCodec;
use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
use hybridcs_core::{train_lowres_codec, HybridFrontEnd, SupervisorConfig, SystemConfig};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_faults::{ArqConfig, CrashPlan, CrashingStore, MemStore, TailFault};
use hybridcs_gateway::{Gateway, GatewayConfig, SessionPhase};
use hybridcs_obs::flight::recorder;
use hybridcs_solver::WatchdogConfig;
use std::sync::{Mutex, PoisonError};

struct Rig {
    system: SystemConfig,
    codec: LowResCodec,
    frontend: HybridFrontEnd,
    wire: FrameCodec,
    windows: Vec<Vec<f64>>,
}

fn rig() -> Rig {
    let system = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let codec =
        train_lowres_codec(system.lowres_bits, &default_training_windows(system.window)).unwrap();
    let frontend = HybridFrontEnd::new(&system, codec.clone()).unwrap();
    let wire = FrameCodec::new(&system).unwrap();
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
    let strip = generator.generate(8.0, 0x7E11);
    let windows = strip
        .chunks_exact(system.window)
        .take(6)
        .map(<[f64]>::to_vec)
        .collect();
    Rig {
        system,
        codec,
        frontend,
        wire,
        windows,
    }
}

impl Rig {
    fn frame(&self, seq: u32) -> Vec<u8> {
        let encoded = self
            .frontend
            .encode(&self.windows[seq as usize % self.windows.len()])
            .unwrap();
        self.wire.serialize(seq, &encoded).unwrap()
    }
}

/// A config whose watchdog trips every solve after two iterations — the
/// injected anomaly — with tight admission so shed events appear too.
fn tripping_config(workers: usize) -> GatewayConfig {
    GatewayConfig {
        workers,
        admit_quota: 2,
        admit_window: 4,
        arq: ArqConfig {
            max_retries_per_frame: 1,
            ..ArqConfig::default()
        },
        supervisor: SupervisorConfig {
            watchdog: WatchdogConfig {
                max_iterations: Some(2),
                ..WatchdogConfig::default()
            },
            ..SupervisorConfig::default()
        },
        ..GatewayConfig::default()
    }
}

/// One fixed multi-session scenario: in-order frames, one wire gap that
/// exhausts ARQ, a close with a trailing hole. Returns every session's
/// outputs plus the flight-recorder JSONL dump.
fn drive(workers: usize) -> (Vec<Vec<Vec<f64>>>, String) {
    recorder().clear();
    let rig = rig();
    let mut gateway = Gateway::new(tripping_config(workers)).unwrap();
    let ids = [11u64, 22, 33, 44];
    for id in ids {
        gateway
            .handshake(id, &rig.system, rig.codec.clone())
            .unwrap();
    }
    for id in ids {
        gateway.push(id, &rig.frame(0)).unwrap();
        // Frame 1 is lost on the wire; frame 2 exposes the gap.
        gateway.push(id, &rig.frame(2)).unwrap();
        for seq in gateway.take_nacks(id).unwrap() {
            gateway.notify_lost(id, seq).unwrap();
        }
        for seq in 3..5 {
            gateway.push(id, &rig.frame(seq)).unwrap();
        }
    }
    gateway.flush().unwrap();
    let mut outputs = Vec::new();
    for id in ids {
        let mut windows: Vec<Vec<f64>> = gateway
            .take_outputs(id)
            .unwrap()
            .into_iter()
            .map(|w| w.signal)
            .collect();
        // Close with a trailing hole: frame 5 was seen by nobody, but a
        // garbled frame occupies a position for session 11 only.
        if id == 11 {
            gateway.push(id, b"garbage-frame").unwrap();
        }
        windows.extend(gateway.close(id).unwrap().into_iter().map(|w| w.signal));
        outputs.push(windows);
    }
    let dump = recorder().dump_jsonl("telemetry_test");
    (outputs, dump)
}

/// Serializes the tests in this binary: they share the process-global
/// recorder and enabled flag.
fn with_telemetry(f: impl FnOnce()) {
    static GATE: Mutex<()> = Mutex::new(());
    let _gate = GATE.lock().unwrap_or_else(PoisonError::into_inner);
    hybridcs_obs::set_enabled(true);
    f();
    hybridcs_obs::set_enabled(false);
    recorder().clear();
}

#[test]
fn flight_dump_is_deterministic_across_worker_counts() {
    with_telemetry(|| {
        let (outputs_1, dump_1) = drive(1);
        let (outputs_4, dump_4) = drive(4);
        let (outputs_8, dump_8) = drive(8);
        // The decode outputs keep the gateway's bit-identity contract
        // even with telemetry enabled and a tripping watchdog...
        assert_eq!(outputs_1, outputs_4);
        assert_eq!(outputs_1, outputs_8);
        // ...and the dumped event order is identical too: logical stamps
        // come from the ingest tier, not from worker scheduling.
        assert_eq!(dump_1, dump_4, "workers=1 vs workers=4 dumps differ");
        assert_eq!(dump_1, dump_8, "workers=1 vs workers=8 dumps differ");
    });
}

#[test]
fn injected_watchdog_trip_is_dumped_and_schema_valid() {
    with_telemetry(|| {
        let (_, dump) = drive(4);
        let mut lines = dump.lines();
        let meta = lines.next().expect("dump has a meta line");
        assert!(meta.contains("\"kind\":\"meta\""));
        assert!(
            meta.contains("\"anomaly\":true"),
            "a tripping watchdog must latch the anomaly flag: {meta}"
        );
        for line in dump.lines() {
            hybridcs_obs::jsonl::validate_line(line)
                .unwrap_or_else(|e| panic!("invalid dump line: {e}\n{line}"));
        }
        // The anomaly is explained end to end: the trip itself, the
        // demotion it caused, and the surrounding pipeline context.
        assert!(dump.contains("\"event\":\"watchdog_trip\""));
        assert!(dump.contains("\"code\":\"iteration_budget\""));
        assert!(dump.contains("\"event\":\"demotion\""));
        assert!(dump.contains("\"reason\":\"watchdog\""));
        assert!(dump.contains("\"event\":\"ingest\""));
        assert!(dump.contains("\"code\":\"garbled\""));
        assert!(dump.contains("\"event\":\"shed\""));
        assert!(dump.contains("\"event\":\"arq_verdict\""));
        assert!(dump.contains("\"code\":\"declared_lost\""));
        assert!(dump.contains("\"event\":\"commit\""));
        assert!(dump.contains("\"event\":\"stage_transition\""));
        assert!(dump.contains("\"code\":\"closed\""));
        // Each trip, demotion and commit names the window it belongs to:
        // an event whose context fell back to zeros names no session.
        let field = |line: &str, key: &str| -> u64 {
            let (_, rest) = line
                .split_once(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("no {key} in {line}"));
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        for line in dump.lines().filter(|line| {
            ["watchdog_trip", "demotion", "commit"]
                .iter()
                .any(|event| line.contains(&format!("\"event\":\"{event}\"")))
        }) {
            assert!(
                [11, 22, 33, 44].contains(&field(line, "session")),
                "event attributed to no session: {line}"
            );
            assert!(field(line, "logical") >= 1, "event has no stamp: {line}");
        }
    });
}

#[test]
fn crash_safety_metrics_and_flight_events_are_exposed() {
    with_telemetry(|| {
        recorder().clear();
        let rig = rig();
        let config = GatewayConfig {
            journal_group_bytes: 0,
            checkpoint_every: 2,
            ..tripping_config(1)
        };
        let before = hybridcs_obs::global().snapshot();

        // Journal a short run, crash with a garbage tail, recover.
        let store = CrashingStore::new(
            MemStore::new(),
            CrashPlan {
                kill_at_record: 9,
                tail: TailFault::Garbage(11),
            },
        );
        let image = store.image();
        let mut gateway = Gateway::with_journal(config, Box::new(store)).unwrap();
        gateway
            .handshake(1, &rig.system, rig.codec.clone())
            .unwrap();
        let mut crashed = false;
        for seq in 0..8 {
            if gateway.push(1, &rig.frame(seq)).is_err() || gateway.flush().is_err() {
                crashed = true;
                break;
            }
        }
        assert!(crashed, "the crash plan must fire");
        let shapes = vec![(rig.system.clone(), rig.codec.clone())];
        let (mut recovered, report) = Gateway::recover(
            config,
            Box::new(MemStore::from_bytes(image.snapshot())),
            &shapes,
        )
        .unwrap();
        assert!(report.torn_tail);
        assert!(report.checkpoint_restored);
        assert!(report.replayed_events > 0);
        recovered.close(1).unwrap();

        // Every crash-safety counter moved and lands in the Prometheus
        // exposition under its stable name.
        let window = hybridcs_obs::global().snapshot().delta(&before);
        let counters = [
            "gateway_journal_records_total",
            "gateway_journal_bytes_total",
            "gateway_journal_syncs_total",
            "gateway_checkpoints_total",
            "gateway_journal_torn_tails_total",
            "gateway_recovery_replayed_events",
        ];
        for name in counters {
            assert!(
                window.counter_value(name, &[]).is_some_and(|v| v > 0),
                "counter {name} did not move"
            );
        }
        let recovery = window
            .histogram_snapshot("gateway_recovery_seconds", &[])
            .expect("recovery duration histogram exists");
        assert!(recovery.count >= 1);
        let rendered = hybridcs_obs::render_prometheus(&hybridcs_obs::global().snapshot());
        for name in counters.iter().chain(&["gateway_recovery_seconds"]) {
            assert!(rendered.contains(name), "{name} missing from exposition");
        }

        // The flight recorder explains the whole arc with stable codes.
        let dump = recorder().dump_jsonl("crash_safety_test");
        for line in dump.lines() {
            hybridcs_obs::jsonl::validate_line(line)
                .unwrap_or_else(|e| panic!("invalid dump line: {e}\n{line}"));
        }
        assert!(dump.contains("\"event\":\"checkpoint\""));
        assert!(dump.contains("\"code\":\"written\""));
        assert!(dump.contains("\"code\":\"restored\""));
        assert!(dump.contains("\"event\":\"recover\""));
        assert!(dump.contains("\"code\":\"started\""));
        assert!(dump.contains("\"code\":\"complete\""));
        assert!(dump.contains("\"code\":\"torn_tail\""));
        recorder().clear();
    });
}

#[test]
fn latency_histograms_cover_every_stage_and_end_to_end() {
    with_telemetry(|| {
        let before = hybridcs_obs::global().snapshot();
        let (outputs, _) = drive(1);
        let committed: usize = outputs.iter().map(Vec::len).sum();
        let window = hybridcs_obs::global().snapshot().delta(&before);
        for stage in ["ingest", "repair", "queue", "solve", "commit"] {
            let h = window
                .histogram_snapshot("gateway_stage_seconds", &[("stage", stage)])
                .unwrap_or_else(|| panic!("missing stage histogram: {stage}"));
            assert!(h.count > 0, "stage {stage} recorded nothing");
        }
        let e2e = window
            .histogram_snapshot("gateway_frame_to_commit_seconds", &[])
            .expect("frame-to-commit histogram exists");
        assert_eq!(
            e2e.count, committed as u64,
            "every committed window gets a frame-to-commit sample"
        );
        let p = e2e.percentiles().expect("non-empty histogram");
        assert!(p.p50 >= 0.0 && p.p99 >= p.p50);
    });
}

/// After every step of a session script, each `gateway_sessions{phase}`
/// gauge equals a recount of the gateway's sessions in that phase: the
/// first push (handshake → streaming), a gap and its repair (streaming ↔
/// repairing), a close, a recovery and a reused id.
#[test]
fn session_gauges_follow_every_phase_change() {
    with_telemetry(|| {
        let rig = rig();
        let config = GatewayConfig {
            checkpoint_every: 4,
            ..GatewayConfig::default()
        };
        let ids = [1u64, 2, 3];
        let check = |gateway: &Gateway, step: &str| {
            for phase in [
                SessionPhase::Handshake,
                SessionPhase::Streaming,
                SessionPhase::Repairing,
                SessionPhase::Closed,
            ] {
                let recount = ids
                    .iter()
                    .filter(|&&id| gateway.phase(id) == Some(phase))
                    .count();
                let gauge = hybridcs_obs::global()
                    .gauge("gateway_sessions", &[("phase", phase.name())])
                    .value();
                assert_eq!(gauge, recount as f64, "{step}: {} sessions", phase.name());
            }
        };

        let store = MemStore::new();
        let mut gateway = Gateway::with_journal(config, Box::new(store.clone())).unwrap();
        for id in ids {
            gateway
                .handshake(id, &rig.system, rig.codec.clone())
                .unwrap();
            check(&gateway, &format!("handshake {id}"));
        }
        for seq in 0..2 {
            gateway.push(1, &rig.frame(seq)).unwrap();
            check(&gateway, &format!("in-order push {seq}"));
        }
        gateway.push(2, &rig.frame(0)).unwrap();
        gateway.push(2, &rig.frame(2)).unwrap();
        assert_eq!(gateway.phase(2), Some(SessionPhase::Repairing));
        check(&gateway, "gap push");
        for seq in gateway.take_nacks(2).unwrap() {
            gateway.push(2, &rig.frame(seq)).unwrap();
        }
        assert_eq!(gateway.phase(2), Some(SessionPhase::Streaming));
        check(&gateway, "repaired gap");
        // A first push past a gap: handshake → streaming → repairing.
        gateway.push(3, &rig.frame(1)).unwrap();
        assert_eq!(gateway.phase(3), Some(SessionPhase::Repairing));
        check(&gateway, "first push past a gap");
        gateway.close(1).unwrap();
        check(&gateway, "close");
        drop(gateway);

        let shapes = vec![(rig.system.clone(), rig.codec.clone())];
        let (mut recovered, report) = Gateway::recover(
            config,
            Box::new(MemStore::from_bytes(store.snapshot())),
            &shapes,
        )
        .unwrap();
        assert!(report.checkpoint_restored);
        check(&recovered, "recover");
        recovered
            .handshake(1, &rig.system, rig.codec.clone())
            .unwrap();
        check(&recovered, "reused id");
        recovered.close(3).unwrap();
        check(&recovered, "close after recovery");
    });
}
