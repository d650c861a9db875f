//! `link`: closed loop by credit over loopback sockets.
//!
//! nproc `DeviceClient` connections per round each stream a run of m = 96
//! frames through a `FaultyTransport` radio (loss, reorder, split) into
//! an `IngestServer`, whose gateway admits one solve in four. Server
//! and clients are polled on this one thread, so a flush — solves and
//! all — stalls ingest. Rounds repeat with fresh devices until the run's
//! time is up. Like `ward`, the radio faults are seeded per device
//! index within the round, not by `--seed`, and device d's session is
//! always pinned to shard d: every round repairs the same fault trace and
//! splits its solves over the workers the same way, so a run's latency
//! tail does not hinge on how many rounds it reached.

use std::time::Instant;

use hybridcs_core::LadderRung;
use hybridcs_faults::{FaultyTransport, GilbertElliottConfig, TransportFaultConfig};
use hybridcs_gateway::GatewayConfig;
use hybridcs_net::{
    ClientConfig, DeviceClient, DevicePhase, IngestConfig, IngestServer, ShapeTable,
};

use crate::check::Audit;
use crate::gen::{BoxError, Generator, Stream};
use crate::report::{self, Measured, ProbeInput, Segment};
use crate::stats::{quantile, ratio};
use crate::trace::Tracer;
use crate::RunConfig;

/// Frames each device streams per round.
const FRAMES_PER_DEVICE: u32 = 12;
/// Poll rounds without progress before the loop gives up on a round.
const STALL_POLLS: u64 = 50_000_000;

fn radio(device: u64) -> FaultyTransport {
    FaultyTransport::new(
        TransportFaultConfig {
            channel: GilbertElliottConfig::burst_loss(0.08, 2.5),
            reorder: 0.05,
            split: 0.25,
        },
        hybridcs_rand::mix(0xFA17 ^ device),
    )
}

/// Net-layer tallies over the timed rounds.
#[derive(Default)]
struct NetLog {
    poll_us: Vec<f64>,
    polls: u64,
    poll_s: f64,
    ticks: u64,
    tick_s: f64,
    retransmits: u64,
    gave_up: u64,
    overloads: u64,
    resyncs: u64,
}

struct Round {
    streams: Vec<Stream>,
    frames: Vec<Vec<Vec<u8>>>,
}

/// Draws one round of devices and encodes their frames (generator work,
/// outside every timed figure).
fn prepare_round(gen: &Generator, ids: &[u64], draw: u64) -> Result<Round, BoxError> {
    let streams = gen.streams(ids, draw);
    let frames = streams
        .iter()
        .map(|s| (0..FRAMES_PER_DEVICE).map(|q| gen.frame(s, q)).collect())
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Round { streams, frames })
}

/// Connects one round of devices and polls until every one has finished
/// its handshake and time-sync (or failed).
fn connect_round(
    server: &mut IngestServer,
    fingerprint: u64,
    round: &Round,
    client_config: ClientConfig,
) -> Result<Vec<DeviceClient>, BoxError> {
    let addr = server.local_addr().to_string();
    let mut clients = Vec::with_capacity(round.streams.len());
    for (d, (s, frames)) in round.streams.iter().zip(&round.frames).enumerate() {
        clients.push(DeviceClient::connect(
            &addr,
            s.id,
            fingerprint,
            server.config_fingerprint(),
            frames.clone(),
            radio(d as u64),
            client_config,
        )?);
    }
    for _ in 0..STALL_POLLS {
        server.poll()?;
        let mut ready = true;
        for c in &mut clients {
            c.tick();
            ready &= !matches!(
                c.phase(),
                DevicePhase::AwaitHelloAck | DevicePhase::AwaitTimeSync
            );
        }
        if ready {
            return Ok(clients);
        }
    }
    Err("devices never completed their handshakes".into())
}

pub fn run(cfg: &RunConfig, gen: &Generator, tracer: &mut Tracer) -> Result<Measured, BoxError> {
    let shape = &gen.shapes[0];
    let window = shape.system.window;
    let ingest = IngestConfig {
        gateway: GatewayConfig {
            workers: cfg.nproc,
            admit_quota: 1,
            admit_window: 4,
            max_shard_queue: usize::MAX,
            ..GatewayConfig::default()
        },
        recv_window: 8,
        flush_pending: 8,
        ..IngestConfig::default()
    };
    let table = ShapeTable::new(vec![(shape.system.clone(), shape.codec.clone())]);
    let client_config = ClientConfig {
        heartbeat_after: 24,
        quiet_heartbeats_to_close: 2,
        ..ClientConfig::default()
    };
    let devices = cfg.nproc as u64;
    let shards = ingest.gateway.shards as u64;
    let per_shard = devices.div_ceil(shards);
    // Device d's session always lands on shard d mod shards (the gateway
    // pins a session by the SplitMix64 of its id), so every round spreads
    // its solves over the workers the same way.
    let ids_of = |round: u64| -> Vec<u64> {
        (0..devices)
            .map(|d| {
                (0u64..)
                    .filter(|&id| hybridcs_rand::mix(id) % shards == d % shards)
                    .nth((round * per_shard + d / shards) as usize)
                    .unwrap_or_default()
            })
            .collect()
    };

    // Set-up: bind the server and bring the first round's devices through
    // handshake and time-sync.
    let fingerprint = shape.fingerprint();
    let mut round = prepare_round(gen, &ids_of(0), 0)?;
    let mut setups = Vec::with_capacity(crate::SETUP_REPEATS);
    let mut built = None;
    for _ in 0..crate::SETUP_REPEATS {
        // Retire the previous set-up's server and devices first.
        drop(built.take());
        let t0 = Instant::now();
        let mut server = IngestServer::bind("127.0.0.1:0", ingest.clone(), table.clone())?;
        let clients = connect_round(&mut server, fingerprint, &round, client_config)?;
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((server, clients));
    }
    let (mut server, mut clients) = built.ok_or("no setup ran")?;

    let mut audit = Audit::new(window, FRAMES_PER_DEVICE, devices);
    let mut probe = ProbeInput::default();
    let mut net = NetLog::default();
    let mut latencies_ms = Vec::new();
    let mut busy_s = 0.0;
    let mut segments = Vec::new();
    let mut connect_s = 0.0;
    let started = Instant::now();
    let mut round_no = 0u64;
    loop {
        for (s, frames) in round.streams.iter().zip(&round.frames) {
            for (q, frame) in (0..FRAMES_PER_DEVICE).zip(frames) {
                audit.offered(s.id);
                probe.add(frame, gen.window(s, q));
            }
        }
        let round_start = Instant::now();
        let mut segment = Segment::default();
        let mut closed = server.sessions_closed();
        let mut finished = false;
        for _ in 0..STALL_POLLS {
            let p0 = Instant::now();
            let report = server.poll()?;
            let p1 = Instant::now();
            let poll_s = p1.duration_since(p0).as_secs_f64();
            net.polls += 1;
            net.poll_s += poll_s;
            if tracer.enabled() {
                net.poll_us.push(poll_s * 1e6);
                if report.messages > 0 || report.accepted > 0 || report.closed > 0 {
                    tracer.record("net::poll", 0, None, p0, p1);
                }
            }
            let mut all_done = true;
            for c in &mut clients {
                all_done &= c.tick();
            }
            net.ticks += clients.len() as u64;
            net.tick_s += p1.elapsed().as_secs_f64();
            if server.sessions_closed() != closed {
                closed = server.sessions_closed();
                let back = Instant::now();
                for (device, windows) in server.take_outputs() {
                    let Some(stream) = round.streams.iter().find(|s| s.id == device) else {
                        audit.fail(format!("outputs for unknown device {device}"));
                        continue;
                    };
                    for w in &windows {
                        latencies_ms.push(back.duration_since(round_start).as_secs_f64() * 1e3);
                        audit.commit(device, w, |q| gen.window(stream, q));
                        segment.committed += 1;
                        segment.hybrid += u64::from(w.rung == LadderRung::Hybrid);
                    }
                }
            }
            if all_done && server.active_connections() == 0 {
                finished = true;
                break;
            }
        }
        // A round's throughput includes connecting its devices.
        segment.seconds = round_start.elapsed().as_secs_f64() + connect_s;
        busy_s += segment.seconds;
        segments.push(segment);
        if !finished {
            audit.fail(format!("round {round_no} never finished"));
        }
        for c in &clients {
            let stats = c.stats();
            net.retransmits += stats.retransmits;
            net.gave_up += stats.gave_up;
            net.overloads += stats.overloads;
            net.resyncs += c.resyncs();
            if c.phase() != DevicePhase::Done {
                audit.fail(format!("device {} ended {:?}", c.device(), c.phase()));
            }
        }
        round_no += 1;
        if !finished || started.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
        round = prepare_round(gen, &ids_of(round_no), round_no)?;
        let t0 = Instant::now();
        clients = connect_round(&mut server, fingerprint, &round, client_config)?;
        connect_s = t0.elapsed().as_secs_f64();
    }
    audit.finish();

    let mut m = Measured::new(audit, probe);
    report::e2e(&mut m, &segments, &latencies_ms, &setups);
    let committed = m.audit.committed() as f64;
    let l = &mut m.layer;
    l.set("net.poll_us.p50", quantile(&net.poll_us, 0.5), "us");
    l.set("net.poll_ms.p99", quantile(&net.poll_us, 0.99) / 1e3, "ms");
    l.set("net.poll_busy_frac", ratio(net.poll_s, busy_s), "ratio");
    l.set(
        "net.polls_per_window",
        ratio(net.polls as f64, committed),
        "polls",
    );
    l.set("net.retransmits", net.retransmits as f64, "count");
    l.set("net.overloads", net.overloads as f64, "count");
    l.set("net.resyncs", net.resyncs as f64, "count");
    l.set(
        "gen.tick_us",
        ratio(net.tick_s, net.ticks as f64) * 1e6,
        "us",
    );
    l.set(
        "gateway.nacks",
        (net.retransmits + net.gave_up) as f64,
        "count",
    );
    m.info.push(format!(
        "link: {round_no} rounds of {devices} devices x {FRAMES_PER_DEVICE} frames over loopback, \
         quota 1 of 4, {} workers",
        ingest.gateway.workers
    ));
    m.cost_per_window = ratio(busy_s, m.audit.committed() as f64);
    Ok(m)
}
