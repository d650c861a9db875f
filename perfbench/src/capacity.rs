//! `capacity`: closed loop, in-process gateway, one m = 96 shape,
//! loss-free, every window admitted, no journal, `workers` = nproc.
//!
//! 128 sessions are balanced 16 per shard. Each round offers one window
//! from each session of `workers` consecutive shards (shards taken in
//! turn, round robin) and then flushes, so every worker solves one full
//! K = 16 panel per flush. The solver and its kernels do nearly all the
//! work; short rounds give each run enough of them for steady medians.
//!
//! Keeping every vCPU busy is also what keeps the figure steady on small
//! shared hosts: on a 2-vCPU VM, ten runs interleaved with other work
//! spread 27-30 % with one worker and 11 % with two.

use std::time::Instant;

use hybridcs_core::LadderRung;
use hybridcs_gateway::{Gateway, GatewayConfig};

use crate::check::Audit;
use crate::gen::{BoxError, Generator, Stream};
use crate::report::{self, FlushLog, Measured, ProbeInput, Segment};
use crate::stats::ratio;
use crate::timeline::Timeline;
use crate::trace::Tracer;
use crate::RunConfig;

pub fn run(cfg: &RunConfig, gen: &Generator, tracer: &mut Tracer) -> Result<Measured, BoxError> {
    let defaults = GatewayConfig::default();
    let config = GatewayConfig {
        workers: cfg.nproc.min(defaults.shards),
        admit_quota: u32::MAX,
        max_shard_queue: usize::MAX,
        batch_capacity: usize::MAX,
        ..defaults
    };
    let sessions = config.shards * config.max_decode_batch;
    let ids = Generator::balanced_ids(sessions, config.shards, 0x1_0000);
    let streams = gen.streams(&ids, 0);
    let mut by_shard: Vec<Vec<Stream>> = vec![Vec::new(); config.shards];
    for s in &streams {
        by_shard[(hybridcs_rand::mix(s.id) % config.shards as u64) as usize].push(*s);
    }
    let shape = &gen.shapes[0];
    let window = shape.system.window;

    let mut setups = Vec::with_capacity(crate::SETUP_REPEATS);
    let mut built = None;
    for _ in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let mut gateway = Gateway::new(config)?;
        for s in &streams {
            gateway.handshake(s.id, &shape.system, shape.codec.clone())?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        built = Some(gateway);
    }
    let mut gateway = built.ok_or("no setup ran")?;

    let mut audit = Audit::new(window, 1, u64::MAX);
    let mut timeline = Timeline::default();
    let mut log = FlushLog::default();
    let mut probe = ProbeInput::default();
    let mut busy_s = 0.0;
    let mut segments = Vec::new();
    let started = Instant::now();
    // Rounds each shard has been offered in: the sequence number of its
    // sessions' next window.
    let mut offered = vec![0u32; config.shards];
    let mut next_shard = 0;
    let mut round = 0u32;
    while started.elapsed().as_secs_f64() < cfg.seconds {
        let mut group = Vec::new();
        for _ in 0..config.workers {
            group.extend(by_shard[next_shard].iter().map(|s| (*s, offered[next_shard])));
            offered[next_shard] += 1;
            next_shard = (next_shard + 1) % config.shards;
        }
        // Encoding is the sensors' work: done before the round's clock.
        let frames = group
            .iter()
            .map(|(s, seq)| gen.frame(s, *seq))
            .collect::<Result<Vec<_>, _>>()?;
        for ((s, seq), frame) in group.iter().zip(&frames) {
            probe.add(frame, gen.window(s, *seq));
        }
        let round_start = Instant::now();
        for (&(s, seq), frame) in group.iter().zip(&frames) {
            audit.offered(s.id);
            let t0 = Instant::now();
            let window_id = timeline.schedule(s.id, seq, t0);
            let result = gateway.push(s.id, frame);
            let t1 = Instant::now();
            timeline.sent(s.id, seq, t0, t1);
            log.push(tracer, window_id, t0, t1);
            if let Err(e) = result {
                audit.fail(format!("push {}: {e}", s.id));
            }
        }
        let pending = gateway.pending_windows();
        let f0 = Instant::now();
        let flushed = gateway.flush();
        let f1 = Instant::now();
        match flushed {
            Ok(r) => log.flush(tracer, started, pending, r.committed, f0, f1),
            Err(e) => audit.fail(format!("flush: {e}")),
        }
        let mut round_end = f1;
        let mut segment = Segment::default();
        for (s, _) in &group {
            let outputs = gateway.take_outputs(s.id);
            let back = Instant::now();
            tracer.record("gateway::take_outputs", 0, None, round_end, back);
            round_end = back;
            match outputs {
                Ok(windows) => {
                    for w in &windows {
                        timeline.committed(s.id, audit.next_seq(s.id), (f0, f1), back);
                        audit.commit(s.id, w, |q| gen.window(s, q));
                        segment.committed += 1;
                        segment.hybrid += u64::from(w.rung == LadderRung::Hybrid);
                    }
                }
                Err(e) => audit.fail(format!("take_outputs {}: {e}", s.id)),
            }
        }
        segment.seconds = round_end.duration_since(round_start).as_secs_f64();
        busy_s += segment.seconds;
        segments.push(segment);
        round += 1;
    }
    audit.finish();
    if tracer.enabled() {
        timeline.record_spans(tracer);
    }

    let parts = timeline.parts(tracer);
    let mut m = Measured::new(audit, probe);
    report::e2e(&mut m, &segments, &parts.total, &setups);
    report::gateway_layer(&mut m, &parts, &log, busy_s);
    m.info.push(format!(
        "capacity: {sessions} sessions, {round} rounds, {} workers, K = {} panels, \
         flush ms per round {:?}",
        config.workers,
        config.max_decode_batch,
        log.flush_ms.iter().map(|v| v.round()).collect::<Vec<_>>()
    ));
    m.cost_per_window = ratio(busy_s, m.audit.committed() as f64);
    Ok(m)
}
