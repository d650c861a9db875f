//! Shared fixture for the crash-recovery and journal-fuzz suites: a
//! trained rig, a scripted two-session run with a full repair cycle,
//! and the bit-identity checks a recovered gateway must pass against
//! the durable-prefix oracle, `Gateway::from_records`.
// Each test binary uses a different subset of the fixture.
#![allow(dead_code)]
#![allow(unused_imports)]

pub use std::collections::BTreeMap;

pub use hybridcs_coding::LowResCodec;
use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
pub use hybridcs_core::{
    train_lowres_codec, HybridFrontEnd, LadderRung, SupervisedWindow, SystemConfig,
};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
pub use hybridcs_faults::{ArqConfig, CrashPlan, CrashingStore, MemStore, TailFault};
pub use hybridcs_gateway::{scan, FileStore, Gateway, GatewayConfig, GatewayError, SessionPhase};

pub struct Rig {
    pub system: SystemConfig,
    pub codec: LowResCodec,
    pub frontend: HybridFrontEnd,
    pub wire: FrameCodec,
    pub windows: Vec<Vec<f64>>,
}

pub fn rig() -> Rig {
    let system = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let codec =
        train_lowres_codec(system.lowres_bits, &default_training_windows(system.window)).unwrap();
    let frontend = HybridFrontEnd::new(&system, codec.clone()).unwrap();
    let wire = FrameCodec::new(&system).unwrap();
    let generator = EcgGenerator::new(GeneratorConfig::normal_sinus()).unwrap();
    let strip = generator.generate(8.0, 0xC4A5);
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
    pub fn frame(&self, seq: u32) -> Vec<u8> {
        let encoded = self
            .frontend
            .encode(&self.windows[seq as usize % self.windows.len()])
            .unwrap();
        self.wire.serialize(seq, &encoded).unwrap()
    }

    pub fn shapes(&self) -> Vec<(SystemConfig, LowResCodec)> {
        vec![(self.system.clone(), self.codec.clone())]
    }
}

/// Every record durable the moment it is appended (kill points then line
/// up with journal records one-to-one) and checkpoints every few events.
pub fn sweep_config() -> GatewayConfig {
    GatewayConfig {
        admit_quota: 0, // low-res rung only: keeps the sweep fast
        arq: ArqConfig {
            max_retries_per_frame: 1,
            ..ArqConfig::default()
        },
        journal_group_bytes: 0,
        checkpoint_every: 6,
        ..GatewayConfig::default()
    }
}

/// One scripted gateway API call. The script is the ground truth both
/// the crashing run and the oracle execute.
#[derive(Clone, Copy)]
pub enum Op {
    Handshake(u64),
    Push(u64, u32),
    NotifyLost(u64, u32),
    TakeNacks(u64),
    Flush,
    TakeOutputs(u64),
    Close(u64),
    Checkpoint,
}

pub const SESSION_IDS: [u64; 2] = [1, 2];

/// Two interleaved sessions; session 1 loses frame 1 on the wire and its
/// retransmission too, so the script walks the whole repair state
/// machine (nack → notify_lost → concealment) around flushes, output
/// drains, an explicit checkpoint, and a close.
pub fn script() -> Vec<Op> {
    vec![
        Op::Handshake(1),
        Op::Push(1, 0),
        Op::Handshake(2),
        Op::Push(2, 0),
        Op::Push(1, 2),
        Op::TakeNacks(1),
        Op::Push(2, 1),
        Op::Flush,
        Op::TakeOutputs(2),
        Op::NotifyLost(1, 1),
        Op::Flush,
        Op::TakeOutputs(1),
        Op::Push(1, 3),
        Op::Push(2, 2),
        Op::Checkpoint,
        Op::Push(1, 4),
        Op::Close(2),
        Op::Push(1, 5),
        Op::Flush,
        Op::Close(1),
    ]
}

/// Applies one op, folding any delivered windows into `sink`.
pub fn drive(
    gateway: &mut Gateway,
    rig: &Rig,
    op: Op,
    sink: &mut BTreeMap<u64, Vec<SupervisedWindow>>,
) -> Result<(), GatewayError> {
    match op {
        Op::Handshake(id) => gateway.handshake(id, &rig.system, rig.codec.clone()),
        Op::Push(id, seq) => gateway.push(id, &rig.frame(seq)),
        Op::NotifyLost(id, seq) => gateway.notify_lost(id, seq),
        Op::TakeNacks(id) => gateway.take_nacks(id).map(|_| ()),
        Op::Flush => gateway.flush().map(|_| ()),
        Op::TakeOutputs(id) => gateway
            .take_outputs(id)
            .map(|w| sink.entry(id).or_default().extend(w)),
        Op::Close(id) => gateway
            .close(id)
            .map(|w| sink.entry(id).or_default().extend(w)),
        Op::Checkpoint => gateway.checkpoint(),
    }
}

pub fn assert_windows_eq(a: &[SupervisedWindow], b: &[SupervisedWindow], context: &str) {
    assert_eq!(a.len(), b.len(), "output count diverged: {context}");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.sequence, y.sequence, "sequence of window {i}: {context}");
        assert_eq!(x.rung, y.rung, "rung of window {i}: {context}");
        assert_eq!(
            x.demotions, y.demotions,
            "demotions of window {i}: {context}"
        );
        let xb: Vec<u64> = x.signal.iter().map(|v| v.to_bits()).collect();
        let yb: Vec<u64> = y.signal.iter().map(|v| v.to_bits()).collect();
        assert_eq!(xb, yb, "signal bits of window {i}: {context}");
        // Debug renders every f64 in its exact shortest round-trip form.
        assert_eq!(
            format!("{:?}", x.decoded),
            format!("{:?}", y.decoded),
            "solver report of window {i}: {context}"
        );
    }
}

/// Drains both gateways to exhaustion and demands bit-identical results:
/// same phases, same pending nacks, same remaining outputs.
pub fn assert_equivalent(recovered: &mut Gateway, oracle: &mut Gateway, context: &str) {
    for id in SESSION_IDS {
        assert_eq!(
            recovered.phase(id),
            oracle.phase(id),
            "phase of session {id}: {context}"
        );
        let live = matches!(recovered.phase(id), Some(p) if p != SessionPhase::Closed);
        if !live {
            continue;
        }
        assert_eq!(
            recovered.take_nacks(id).unwrap(),
            oracle.take_nacks(id).unwrap(),
            "pending nacks of session {id}: {context}"
        );
        let a = recovered.close(id).unwrap();
        let b = oracle.close(id).unwrap();
        assert_windows_eq(&a, &b, &format!("close of session {id}: {context}"));
    }
}
