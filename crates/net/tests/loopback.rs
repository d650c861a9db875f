//! End-to-end loopback tests: real sockets, real poll loops, the full
//! `Hello → TimeSync → frames → Close` lifecycle, with and without
//! radio faults, plus the determinism audit (the server's journal-record
//! op log, replayed through `Gateway::from_records` in recorded and
//! session-major order, must both reproduce the live outputs
//! bit-for-bit).

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;

use hybridcs_coding::LowResCodec;
use hybridcs_core::experiment::default_training_windows;
use hybridcs_core::telemetry::FrameCodec;
use hybridcs_core::{train_lowres_codec, HybridFrontEnd, SupervisedWindow, SystemConfig};
use hybridcs_ecg::{EcgGenerator, GeneratorConfig};
use hybridcs_faults::{FaultyTransport, GilbertElliottConfig, TransportFaultConfig};
use hybridcs_gateway::{Gateway, GatewayConfig, Record};
use hybridcs_net::proto::encode;
use hybridcs_net::{
    session_major, ClientConfig, DeviceClient, DevicePhase, IngestConfig, IngestServer, Message,
    RejectCode, ShapeTable, PROTO_VERSION,
};

struct Rig {
    system: SystemConfig,
    codec: LowResCodec,
    shape_fp: u64,
}

fn rig() -> Rig {
    let system = SystemConfig {
        measurements: 64,
        ..SystemConfig::default()
    };
    let codec = train_lowres_codec(system.lowres_bits, &default_training_windows(system.window))
        .expect("codec trains");
    let shape_fp = hybridcs_gateway::shape_fingerprint(&system, &codec);
    Rig {
        system,
        codec,
        shape_fp,
    }
}

impl Rig {
    fn shapes(&self) -> Vec<(SystemConfig, LowResCodec)> {
        vec![(self.system.clone(), self.codec.clone())]
    }
}

fn frames_for(rig: &Rig, device: u64, windows: usize) -> Vec<Vec<u8>> {
    let frontend = HybridFrontEnd::new(&rig.system, rig.codec.clone()).expect("frontend");
    let wire = FrameCodec::new(&rig.system).expect("frame codec");
    let physiology = GeneratorConfig::normal_sinus();
    let seconds = (windows * rig.system.window) as f64 / physiology.fs_hz + 2.0;
    let generator = EcgGenerator::new(physiology).expect("generator");
    let strip = generator.generate(seconds, hybridcs_rand::mix(0x1337 ^ device));
    strip
        .chunks_exact(rig.system.window)
        .take(windows)
        .enumerate()
        .map(|(seq, window)| {
            let encoded = frontend.encode(window).expect("encode");
            wire.serialize(seq as u32, &encoded).expect("serialize")
        })
        .collect()
}

fn test_config() -> IngestConfig {
    IngestConfig {
        gateway: GatewayConfig {
            // Shed cheaply: every window lands on the low-res rung, so
            // the test exercises the full protocol without paying for
            // hybrid solves on a CI box.
            admit_quota: 0,
            // Queue-depth shedding depends on global interleaving; the
            // determinism audit requires it off (DESIGN §13).
            max_shard_queue: usize::MAX,
            ..GatewayConfig::default()
        },
        record_ops: true,
        ..IngestConfig::default()
    }
}

/// Runs server + clients to completion on the current thread (poll one
/// round, tick every client, repeat).
fn drive(server: &mut IngestServer, clients: &mut [DeviceClient]) {
    for _ in 0..2_000_000u64 {
        server.poll().expect("server poll");
        let mut all_done = true;
        for client in clients.iter_mut() {
            if !client.tick() {
                all_done = false;
            }
        }
        if all_done && server.active_connections() == 0 {
            return;
        }
    }
    panic!("drive did not converge");
}

fn connect(
    rig: &Rig,
    server: &IngestServer,
    device: u64,
    frames: Vec<Vec<u8>>,
    transport: FaultyTransport,
) -> DeviceClient {
    DeviceClient::connect(
        &server.local_addr().to_string(),
        device,
        rig.shape_fp,
        server.config_fingerprint(),
        frames,
        transport,
        ClientConfig {
            heartbeat_after: 16,
            ..ClientConfig::default()
        },
    )
    .expect("connect")
}

fn clean() -> FaultyTransport {
    FaultyTransport::new(TransportFaultConfig::clean(), 1)
}

fn assert_replays_match(
    server: &mut IngestServer,
    config: &GatewayConfig,
    rig: &Rig,
    live: &BTreeMap<u64, Vec<SupervisedWindow>>,
) {
    let ops = server.take_ops();
    assert!(!ops.is_empty(), "op log recorded");
    let (_, recorded_order) =
        Gateway::from_records(*config, &rig.shapes(), &ops).expect("replay recorded order");
    assert_eq!(
        &recorded_order, live,
        "recorded-order replay must be bit-identical to the live socket path"
    );
    let major = session_major(&ops);
    let (_, major_out) =
        Gateway::from_records(*config, &rig.shapes(), &major).expect("replay session-major");
    assert_eq!(
        &major_out, live,
        "session-major replay must be bit-identical to the live socket path"
    );
}

#[test]
fn clean_sessions_complete_and_replay_bit_identical() {
    let rig = rig();
    let config = test_config();
    let mut server =
        IngestServer::bind("127.0.0.1:0", config.clone(), ShapeTable::new(rig.shapes()))
            .expect("bind");

    let windows = 4usize;
    let mut clients: Vec<DeviceClient> = (0..3u64)
        .map(|d| connect(&rig, &server, d, frames_for(&rig, d, windows), clean()))
        .collect();
    drive(&mut server, &mut clients);

    for client in &clients {
        assert_eq!(client.phase(), DevicePhase::Done);
        assert_eq!(client.stats().committed, Some(windows as u64));
        assert!(client.stats().sync.is_some(), "time-sync completed");
    }
    let live = server.take_outputs();
    assert_eq!(live.len(), 3);
    for (device, outputs) in &live {
        assert_eq!(outputs.len(), windows, "device {device}");
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(out.sequence, Some(i as u32));
        }
    }
    assert_replays_match(&mut server, &config.gateway, &rig, &live);
}

#[test]
fn faulty_radio_sessions_still_complete_and_replay_bit_identical() {
    let rig = rig();
    let config = test_config();
    let mut server =
        IngestServer::bind("127.0.0.1:0", config.clone(), ShapeTable::new(rig.shapes()))
            .expect("bind");

    let windows = 6usize;
    let fault = TransportFaultConfig {
        channel: GilbertElliottConfig::burst_loss(0.15, 2.0),
        reorder: 0.10,
        split: 0.30,
    };
    let mut clients: Vec<DeviceClient> = (0..4u64)
        .map(|d| {
            connect(
                &rig,
                &server,
                d,
                frames_for(&rig, d, windows),
                FaultyTransport::new(fault, 0xFA17 + d),
            )
        })
        .collect();
    drive(&mut server, &mut clients);

    for client in &clients {
        assert_eq!(
            client.phase(),
            DevicePhase::Done,
            "device {}",
            client.device()
        );
    }
    let live = server.take_outputs();
    assert_eq!(live.len(), 4);
    // Every window position is accounted for: delivered, repaired, or
    // concealed — the gateway never returns fewer windows than the
    // stream described.
    for outputs in live.values() {
        assert_eq!(outputs.len(), windows);
    }
    assert_replays_match(&mut server, &config.gateway, &rig, &live);
}

#[test]
fn handshake_rejections_name_their_reason() {
    let rig = rig();
    let config = test_config();
    let mut server =
        IngestServer::bind("127.0.0.1:0", config, ShapeTable::new(rig.shapes())).expect("bind");
    let addr = server.local_addr().to_string();
    let frames = frames_for(&rig, 9, 1);

    // Wrong gateway-config fingerprint.
    let mut bad_config = DeviceClient::connect(
        &addr,
        9,
        rig.shape_fp,
        server.config_fingerprint() ^ 1,
        frames.clone(),
        clean(),
        ClientConfig::default(),
    )
    .expect("connect");
    // Unknown shape fingerprint.
    let mut bad_shape = DeviceClient::connect(
        &addr,
        10,
        rig.shape_fp ^ 1,
        server.config_fingerprint(),
        frames.clone(),
        clean(),
        ClientConfig::default(),
    )
    .expect("connect");

    let mut clients = vec![bad_config, bad_shape];
    for _ in 0..200_000u64 {
        server.poll().expect("poll");
        if clients.iter_mut().all(|c| c.tick()) {
            break;
        }
    }
    bad_config = clients.remove(0);
    bad_shape = clients.remove(0);
    assert_eq!(bad_config.phase(), DevicePhase::Failed);
    assert_eq!(
        bad_config.stats().rejected,
        Some(RejectCode::ConfigMismatch.as_u8())
    );
    assert_eq!(bad_shape.phase(), DevicePhase::Failed);
    assert_eq!(
        bad_shape.stats().rejected,
        Some(RejectCode::UnknownShape.as_u8())
    );
    assert_eq!(server.sessions_closed(), 0);
}

#[test]
fn duplicate_device_id_is_rejected_while_first_lives() {
    let rig = rig();
    let config = test_config();
    let mut server =
        IngestServer::bind("127.0.0.1:0", config, ShapeTable::new(rig.shapes())).expect("bind");

    let mut first = connect(&rig, &server, 42, frames_for(&rig, 42, 2), clean());
    // Let the first handshake land before the imposter shows up.
    for _ in 0..50 {
        server.poll().expect("poll");
        first.tick();
        if first.phase() == DevicePhase::Streaming {
            break;
        }
    }
    assert_eq!(first.phase(), DevicePhase::Streaming);

    // While the first session is live (not ticked, so it cannot close),
    // the same device id must be refused.
    let mut imposter = connect(&rig, &server, 42, frames_for(&rig, 42, 2), clean());
    for _ in 0..200_000u64 {
        server.poll().expect("poll");
        if imposter.tick() {
            break;
        }
    }
    assert_eq!(imposter.phase(), DevicePhase::Failed);
    assert_eq!(
        imposter.stats().rejected,
        Some(RejectCode::Duplicate.as_u8())
    );

    let mut clients = vec![first];
    drive(&mut server, &mut clients);
    assert_eq!(clients[0].phase(), DevicePhase::Done);
}

/// Overload withholds credit, and every watermark lets it clear again
/// once the flushes drain the pending windows, 1 included (it clears at
/// zero pending).
#[test]
fn overload_withholds_credit_and_recovers() {
    let rig = rig();
    for overload_pending in [1, 2] {
        let mut config = test_config();
        // Enter overload almost immediately and keep batches tiny so the
        // stall/recover cycle happens many times.
        config.overload_pending = overload_pending;
        config.flush_pending = 4;
        config.recv_window = 4;
        let mut server =
            IngestServer::bind("127.0.0.1:0", config.clone(), ShapeTable::new(rig.shapes()))
                .expect("bind");

        let windows = 8usize;
        let mut clients: Vec<DeviceClient> = (0..3u64)
            .map(|d| connect(&rig, &server, d, frames_for(&rig, d, windows), clean()))
            .collect();
        drive(&mut server, &mut clients);

        let live = server.take_outputs();
        assert_eq!(live.len(), 3);
        for outputs in live.values() {
            assert_eq!(outputs.len(), windows);
        }
        let overloads: u64 = clients.iter().map(|c| c.stats().overloads).sum();
        assert!(overloads > 0, "overload notices reached the devices");
        assert_replays_match(&mut server, &config.gateway, &rig, &live);
    }
}

/// A heartbeat claiming more first transmissions than the connection was
/// ever granted retires the connection as a protocol error, and opens no
/// hole for any sequence it names.
#[test]
fn heartbeat_beyond_grant_is_a_protocol_error() {
    let rig = rig();
    let config = test_config();
    let mut server =
        IngestServer::bind("127.0.0.1:0", config.clone(), ShapeTable::new(rig.shapes()))
            .expect("bind");
    let mut device = TcpStream::connect(server.local_addr()).expect("connect");
    // `HelloAck` grants `recv_window` first transmissions.
    let claim = u32::try_from(config.recv_window + 1).expect("small window");
    for message in [
        Message::Hello {
            version: PROTO_VERSION,
            device: 7,
            shape_fp: rig.shape_fp,
            config_fp: server.config_fingerprint(),
        },
        Message::Heartbeat {
            sent_through: claim,
        },
    ] {
        device.write_all(&encode(&message)).expect("write");
    }
    for _ in 0..100_000 {
        server.poll().expect("poll");
        if server.sessions_closed() == 1 && server.active_connections() == 0 {
            break;
        }
    }
    assert_eq!(server.active_connections(), 0, "connection retired");
    assert_eq!(server.sessions_closed(), 1);
    let errors = hybridcs_obs::global().snapshot().counter_value(
        "net_protocol_errors_total",
        &[("kind", "heartbeat_beyond_grant")],
    );
    assert_eq!(errors, Some(1));
    let ops = server.take_ops();
    assert!(ops.iter().any(|op| matches!(op, Record::Close { id: 7 })));
    assert!(
        !ops.iter().any(|op| matches!(op, Record::NotifyLost { .. })),
        "a claim beyond the grant opened holes: {ops:?}"
    );
}
