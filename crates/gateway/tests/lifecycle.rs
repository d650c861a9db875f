//! Session lifecycle edges: unknown sessions, duplicate handshakes,
//! ARQ exhaustion, shedding, and close with in-flight work.

use hybridcs_coding::LowResCodec;
use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
use hybridcs_core::{
    train_lowres_codec, HybridFrontEnd, LadderRung, SupervisedWindow, SystemConfig,
};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_faults::ArqConfig;
use hybridcs_gateway::{Gateway, GatewayConfig, GatewayError, SessionPhase};

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
    let strip = generator.generate(8.0, 0x11FE);
    let windows = strip
        .chunks_exact(system.window)
        .take(8)
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

/// Sheds every solver window (low-res rung only) — keeps tests fast and
/// exercises the demotion path.
fn shed_all_config() -> GatewayConfig {
    GatewayConfig {
        admit_quota: 0,
        ..GatewayConfig::default()
    }
}

#[test]
fn frame_for_unknown_session_is_rejected() {
    let rig = rig();
    let mut gateway = Gateway::new(shed_all_config()).unwrap();
    let bytes = rig.frame(0);
    assert_eq!(
        gateway.push(99, &bytes),
        Err(GatewayError::UnknownSession(99))
    );
    assert_eq!(
        gateway.take_nacks(99),
        Err(GatewayError::UnknownSession(99))
    );
    assert_eq!(gateway.close(99), Err(GatewayError::UnknownSession(99)));
    assert_eq!(gateway.phase(99), None);
}

#[test]
fn duplicate_handshake_is_rejected_while_live_but_closed_ids_are_reusable() {
    let rig = rig();
    let mut gateway = Gateway::new(shed_all_config()).unwrap();
    gateway
        .handshake(1, &rig.system, rig.codec.clone())
        .unwrap();
    assert_eq!(gateway.phase(1), Some(SessionPhase::Handshake));
    assert_eq!(
        gateway.handshake(1, &rig.system, rig.codec.clone()),
        Err(GatewayError::DuplicateHandshake(1))
    );
    gateway.close(1).unwrap();
    // A closed id may be re-handshaken: sensors reconnect under the same
    // patient id after a battery swap. The new incarnation is fresh.
    gateway
        .handshake(1, &rig.system, rig.codec.clone())
        .unwrap();
    assert_eq!(gateway.phase(1), Some(SessionPhase::Handshake));
}

#[test]
fn reused_session_id_does_not_inherit_degradation_state() {
    let rig = rig();
    let config = GatewayConfig {
        arq: ArqConfig {
            max_retries_per_frame: 1,
            ..ArqConfig::default()
        },
        ..shed_all_config()
    };
    let mut gateway = Gateway::new(config).unwrap();
    gateway
        .handshake(4, &rig.system, rig.codec.clone())
        .unwrap();
    // First incarnation limps: a hole, a spent retry, a concealment.
    gateway.push(4, &rig.frame(0)).unwrap();
    gateway.push(4, &rig.frame(2)).unwrap();
    assert_eq!(gateway.take_nacks(4).unwrap(), vec![1]);
    gateway.notify_lost(4, 1).unwrap();
    let outputs = gateway.close(4).unwrap();
    assert_eq!(outputs[1].rung, LadderRung::Concealed);

    // Second incarnation under the same id: the ledger starts clean, so
    // sequence 0 decodes normally (no inherited conceal streak, no
    // expectation of the old stream position) and the ARQ budget is full.
    gateway
        .handshake(4, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(4, &rig.frame(0)).unwrap();
    gateway.push(4, &rig.frame(2)).unwrap();
    assert_eq!(
        gateway.take_nacks(4).unwrap(),
        vec![1],
        "fresh incarnation nacks its own gap — budget was not inherited"
    );
    gateway.notify_lost(4, 1).unwrap();
    let outputs = gateway.close(4).unwrap();
    assert_eq!(outputs.len(), 3);
    assert_eq!(outputs[0].sequence, Some(0));
    assert_eq!(outputs[0].rung, LadderRung::LowResOnly);
    assert_eq!(outputs[1].rung, LadderRung::Concealed);
    // The concealment repeats the *new* incarnation's window 0, proving
    // the ledger's last-good buffer was reset at close.
    assert_eq!(outputs[1].signal, outputs[0].signal);
}

#[test]
fn duplicate_frames_are_absorbed_without_disturbing_the_stream() {
    let rig = rig();
    let mut gateway = Gateway::new(shed_all_config()).unwrap();
    gateway
        .handshake(6, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(6, &rig.frame(0)).unwrap();
    // The sensor's radio stutters: sequence 0 arrives three more times,
    // once before release and twice after.
    gateway.push(6, &rig.frame(0)).unwrap();
    gateway.flush().unwrap();
    gateway.push(6, &rig.frame(0)).unwrap();
    gateway.push(6, &rig.frame(0)).unwrap();
    gateway.push(6, &rig.frame(1)).unwrap();
    let outputs = gateway.close(6).unwrap();
    let sequences: Vec<_> = outputs.iter().map(|w| w.sequence).collect();
    assert_eq!(sequences, vec![Some(0), Some(1)]);
}

#[test]
fn late_frame_after_window_commit_is_dropped_not_replayed() {
    let rig = rig();
    let config = GatewayConfig {
        arq: ArqConfig {
            max_retries_per_frame: 1,
            ..ArqConfig::default()
        },
        ..shed_all_config()
    };
    let mut gateway = Gateway::new(config).unwrap();
    gateway
        .handshake(8, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(8, &rig.frame(0)).unwrap();
    gateway.push(8, &rig.frame(2)).unwrap();
    assert_eq!(gateway.take_nacks(8).unwrap(), vec![1]);
    gateway.notify_lost(8, 1).unwrap();
    gateway.flush().unwrap();
    // Window 1 has already committed (as a concealment). The straggler
    // retransmission finally lands: it must not resurrect the window.
    let committed = gateway.take_outputs(8).unwrap();
    assert_eq!(committed.len(), 3);
    gateway.push(8, &rig.frame(1)).unwrap();
    gateway.flush().unwrap();
    assert!(gateway.take_outputs(8).unwrap().is_empty());
    assert_eq!(gateway.phase(8), Some(SessionPhase::Streaming));
}

#[test]
fn handshake_for_other_sessions_during_repair_leaves_repair_undisturbed() {
    let rig = rig();
    let mut gateway = Gateway::new(shed_all_config()).unwrap();
    gateway
        .handshake(10, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(10, &rig.frame(0)).unwrap();
    gateway.push(10, &rig.frame(2)).unwrap();
    assert_eq!(gateway.phase(10), Some(SessionPhase::Repairing));
    // A new sensor joins mid-repair; the repairing session's pending nack
    // survives and the repair completes normally afterwards.
    gateway
        .handshake(11, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(11, &rig.frame(0)).unwrap();
    assert_eq!(gateway.phase(10), Some(SessionPhase::Repairing));
    assert_eq!(gateway.take_nacks(10).unwrap(), vec![1]);
    gateway.push(10, &rig.frame(1)).unwrap();
    assert_eq!(gateway.phase(10), Some(SessionPhase::Streaming));
    let outputs = gateway.close(10).unwrap();
    let sequences: Vec<_> = outputs.iter().map(|w| w.sequence).collect();
    assert_eq!(sequences, vec![Some(0), Some(1), Some(2)]);
    assert_eq!(gateway.close(11).unwrap().len(), 1);
}

#[test]
fn arq_exhaustion_declares_lost_and_late_arrival_is_dropped() {
    let rig = rig();
    let config = GatewayConfig {
        arq: ArqConfig {
            max_retries_per_frame: 1,
            ..ArqConfig::default()
        },
        ..shed_all_config()
    };
    let mut gateway = Gateway::new(config).unwrap();
    gateway
        .handshake(5, &rig.system, rig.codec.clone())
        .unwrap();

    gateway.push(5, &rig.frame(0)).unwrap();
    // Frame 1 is lost on the wire; frame 2 exposes the gap.
    gateway.push(5, &rig.frame(2)).unwrap();
    assert_eq!(gateway.phase(5), Some(SessionPhase::Repairing));
    assert_eq!(gateway.take_nacks(5).unwrap(), vec![1]);
    // The retransmission is lost too; the single retry is now spent, so
    // the gateway gives up on sequence 1 and releases the stream.
    gateway.notify_lost(5, 1).unwrap();
    assert_eq!(gateway.phase(5), Some(SessionPhase::Streaming));
    assert!(gateway.take_nacks(5).unwrap().is_empty());

    gateway.flush().unwrap();
    let outputs = gateway.take_outputs(5).unwrap();
    assert_eq!(outputs.len(), 3);
    assert_eq!(outputs[0].sequence, Some(0));
    assert_eq!(outputs[0].rung, LadderRung::LowResOnly);
    // The abandoned sequence concealed (repeating window 0).
    assert_eq!(outputs[1].sequence, None);
    assert_eq!(outputs[1].rung, LadderRung::Concealed);
    assert_eq!(outputs[1].signal, outputs[0].signal);
    assert_eq!(outputs[2].sequence, Some(2));

    // Sequence 1 finally limps in after the window was already released:
    // it must be absorbed (counted as late), not re-enter the stream.
    gateway.push(5, &rig.frame(1)).unwrap();
    gateway.flush().unwrap();
    assert!(gateway.take_outputs(5).unwrap().is_empty());
}

#[test]
fn quota_shedding_follows_the_sessions_own_stream() {
    let rig = rig();
    let config = GatewayConfig {
        admit_quota: 1,
        admit_window: 2,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(config).unwrap();
    gateway
        .handshake(2, &rig.system, rig.codec.clone())
        .unwrap();
    for seq in 0..4 {
        gateway.push(2, &rig.frame(seq)).unwrap();
    }
    let report = gateway.flush().unwrap();
    assert_eq!(report.committed, 4);
    assert_eq!(report.full_solves, 2);
    assert_eq!(report.shed, 2);
    let rungs: Vec<_> = gateway
        .take_outputs(2)
        .unwrap()
        .iter()
        .map(|w| w.rung)
        .collect();
    // One admitted solve per 2-window epoch; the second window of each
    // epoch is shed down to the low-res rung.
    assert_eq!(
        rungs,
        vec![
            LadderRung::Hybrid,
            LadderRung::LowResOnly,
            LadderRung::Hybrid,
            LadderRung::LowResOnly,
        ]
    );
}

#[test]
fn full_shard_queue_sheds_instead_of_queuing() {
    let rig = rig();
    let config = GatewayConfig {
        max_shard_queue: 1,
        admit_quota: u32::MAX,
        ..GatewayConfig::default()
    };
    let mut gateway = Gateway::new(config).unwrap();
    gateway
        .handshake(3, &rig.system, rig.codec.clone())
        .unwrap();
    for seq in 0..3 {
        gateway.push(3, &rig.frame(seq)).unwrap();
    }
    let report = gateway.flush().unwrap();
    // One solver slot in the session's shard: the other two windows shed.
    assert_eq!(report.committed, 3);
    assert_eq!(report.full_solves, 1);
    assert_eq!(report.shed, 2);
    // The shed windows demote through the ladder with reason "shed".
    let outputs = gateway.take_outputs(3).unwrap();
    assert_eq!(outputs[0].rung, LadderRung::Hybrid);
    for window in &outputs[1..] {
        assert_eq!(window.rung, LadderRung::LowResOnly);
        assert!(window.demotions.iter().all(|(_, reason)| *reason == "shed"));
    }
}

#[test]
fn close_flushes_in_flight_work_and_seals_the_session() {
    let rig = rig();
    let mut gateway = Gateway::new(shed_all_config()).unwrap();
    gateway
        .handshake(7, &rig.system, rig.codec.clone())
        .unwrap();
    for seq in 0..4 {
        gateway.push(7, &rig.frame(seq)).unwrap();
    }
    // Nothing flushed yet: all four windows are in-flight.
    assert_eq!(gateway.pending_windows(), 4);
    let outputs = gateway.close(7).unwrap();
    assert_eq!(outputs.len(), 4);
    assert_eq!(gateway.pending_windows(), 0);
    let sequences: Vec<_> = outputs.iter().map(|w| w.sequence).collect();
    assert_eq!(sequences, vec![Some(0), Some(1), Some(2), Some(3)]);
    assert_eq!(gateway.phase(7), Some(SessionPhase::Closed));
    assert_eq!(
        gateway.push(7, &rig.frame(4)),
        Err(GatewayError::SessionClosed(7))
    );
    assert_eq!(gateway.close(7), Err(GatewayError::SessionClosed(7)));
}

#[test]
fn close_declares_trailing_holes_lost() {
    let rig = rig();
    let mut gateway = Gateway::new(shed_all_config()).unwrap();
    gateway
        .handshake(9, &rig.system, rig.codec.clone())
        .unwrap();
    gateway.push(9, &rig.frame(0)).unwrap();
    // Frames 1 and 2 never arrive; frame 3 shows how far the sensor got.
    gateway.push(9, &rig.frame(3)).unwrap();
    let outputs = gateway.close(9).unwrap();
    assert_eq!(outputs.len(), 4);
    assert_eq!(outputs[1].rung, LadderRung::Concealed);
    assert_eq!(outputs[2].rung, LadderRung::Concealed);
    assert_eq!(outputs[3].sequence, Some(3));
}

#[test]
fn header_far_past_the_stream_resyncs_instead_of_opening_holes() {
    let rig = rig();
    let mut gateway = Gateway::new(GatewayConfig::default()).unwrap();
    for id in [4, 5] {
        gateway
            .handshake(id, &rig.system, rig.codec.clone())
            .unwrap();
        gateway.push(id, &rig.frame(0)).unwrap();
    }
    // A valid header 200 000 frames on is no gap one batch could repair:
    // the session resumes there, and the skipped sequences get no window.
    gateway.push(4, &rig.frame(200_000)).unwrap();
    assert!(gateway.take_nacks(4).unwrap().is_empty());
    assert_eq!(gateway.phase(4), Some(SessionPhase::Streaming));
    // Holes opened before the jump are declared lost and their nacks
    // abandoned.
    gateway.push(5, &rig.frame(3)).unwrap();
    gateway.push(5, &rig.frame(200_003)).unwrap();
    assert!(gateway.take_nacks(5).unwrap().is_empty());
    assert_eq!(gateway.phase(5), Some(SessionPhase::Streaming));

    gateway.flush().unwrap();
    let sequences = |outputs: Vec<SupervisedWindow>| -> Vec<Option<u32>> {
        outputs.iter().map(|w| w.sequence).collect()
    };
    assert_eq!(
        sequences(gateway.take_outputs(4).unwrap()),
        vec![Some(0), Some(200_000)]
    );
    let outputs = gateway.take_outputs(5).unwrap();
    assert_eq!(outputs[1].rung, LadderRung::Concealed);
    assert_eq!(outputs[2].rung, LadderRung::Concealed);
    assert_eq!(
        sequences(outputs),
        vec![Some(0), None, None, Some(3), Some(200_003)]
    );
}
