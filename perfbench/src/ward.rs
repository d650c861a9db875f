//! `ward`: open loop at a fixed offered rate into an in-process gateway
//! that journals to a `MemStore`.
//!
//! Every session sends one frame per 512/360 s window period (real-time
//! pacing). Session start times are staggered evenly across one
//! admission epoch (`admit_window` periods), so each period carries the
//! same share of admitted solves; sessions alternate between the m = 96
//! and m = 64 shapes. Frames cross a Gilbert–Elliott radio with 8 %
//! burst loss, and gaps are repaired through the gateway's nack cycle.
//! An admission quota sends three of every four windows to the
//! low-resolution rung. The benchmark flushes on a fixed period, so most
//! (shard, ladder) groups hold one to three windows: the narrow solve
//! path. The run ends in a crash: the journal image recovers a second
//! gateway, and the windows both gateways then commit must be
//! bit-identical.
//!
//! The radio's loss pattern is seeded per session index, not by
//! `--seed`: it is part of the workload, so the repair tail behind the
//! latency percentiles is the same trace on every run and only the
//! patients (records and starting windows) change with the seed.

use std::time::{Duration, Instant};

use hybridcs_core::SupervisedWindow;
use hybridcs_faults::{GilbertElliott, GilbertElliottConfig, JournalStore, MemStore};
use hybridcs_gateway::{Gateway, GatewayConfig};

use crate::check::Audit;
use crate::gen::{BoxError, Generator, Stream};
use crate::report::{self, FlushLog, Measured, ProbeInput, Segment, FS_HZ};
use crate::stats::ratio;
use crate::timeline::Timeline;
use crate::trace::Tracer;
use crate::RunConfig;

/// Burst-loss rate of the radio and its mean burst length (frames).
const LOSS: f64 = 0.08;
const BURST_LEN: f64 = 2.5;
/// The benchmark's flush period.
const FLUSH_PERIOD_S: f64 = 1.0;

struct Due {
    at_s: f64,
    session: usize,
    seq: u32,
}

/// Sleeps until `at`; returns the time slept.
fn wait_until(at: Instant) -> Duration {
    let mut slept = Duration::ZERO;
    loop {
        let now = Instant::now();
        if now >= at {
            return slept;
        }
        std::thread::sleep(at - now);
        slept += Instant::now() - now;
    }
}

struct Driver<'a> {
    gateway: Gateway,
    gen: &'a Generator,
    streams: Vec<Stream>,
    frames: Vec<Vec<Vec<u8>>>,
    channels: Vec<GilbertElliott>,
    /// Highest sequence each session has got through to the gateway.
    delivered: Vec<Option<u32>>,
    audit: Audit,
    timeline: Timeline,
    log: FlushLog,
    origin: Instant,
}

impl Driver<'_> {
    fn push(
        &mut self,
        tracer: &mut Tracer,
        window: u64,
        s: usize,
        seq: u32,
        bytes: &[u8],
    ) -> Instant {
        let id = self.streams[s].id;
        self.delivered[s] = self.delivered[s].max(Some(seq));
        let t0 = Instant::now();
        let result = self.gateway.push(id, bytes);
        let t1 = Instant::now();
        self.log.push(tracer, window, t0, t1);
        if let Err(e) = result {
            self.audit.fail(format!("push {id}: {e}"));
        }
        t1
    }

    /// First send of one due frame, then the session's repair cycle.
    fn send(&mut self, tracer: &mut Tracer, due: &Due, scheduled: Instant) {
        let s = due.session;
        let id = self.streams[s].id;
        self.audit.offered(id);
        let window = self.timeline.schedule(id, due.seq, scheduled);
        let sent = Instant::now();
        let pushed = match self.channels[s].transmit(&self.frames[s][due.seq as usize]) {
            Some(bytes) => self.push(tracer, window, s, due.seq, &bytes),
            None => sent,
        };
        self.timeline.sent(id, due.seq, sent, pushed);
        self.repair(tracer, s);
    }

    /// The end of the stream: each sensor reports how far it sent (as a
    /// heartbeat would), so frames lost after the last delivered one are
    /// nacked and repaired like any other gap.
    fn heartbeat(&mut self, tracer: &mut Tracer, s: usize, sent_through: u32) {
        let id = self.streams[s].id;
        let first = self.delivered[s].map_or(0, |d| d + 1);
        for seq in first..=sent_through {
            let t0 = Instant::now();
            let result = self.gateway.notify_lost(id, seq);
            tracer.record("gateway::notify_lost", 0, None, t0, Instant::now());
            if let Err(e) = result {
                self.audit.fail(format!("notify_lost {id}: {e}"));
            }
        }
        self.repair(tracer, s);
    }

    /// The session's repair cycle: every nack is retransmitted through
    /// the radio, and a retransmission the radio eats is reported lost.
    fn repair(&mut self, tracer: &mut Tracer, s: usize) {
        let id = self.streams[s].id;
        loop {
            let t0 = Instant::now();
            let nacks = self.gateway.take_nacks(id);
            tracer.record("gateway::take_nacks", 0, None, t0, Instant::now());
            let nacks = match nacks {
                Ok(n) if !n.is_empty() => n,
                Ok(_) => break,
                Err(e) => {
                    self.audit.fail(format!("take_nacks {id}: {e}"));
                    break;
                }
            };
            self.log.nacks += nacks.len() as u64;
            for seq in nacks {
                match self.channels[s].transmit(&self.frames[s][seq as usize]) {
                    Some(bytes) => {
                        self.push(tracer, 0, s, seq, &bytes);
                    }
                    None => {
                        let t0 = Instant::now();
                        let result = self.gateway.notify_lost(id, seq);
                        tracer.record("gateway::notify_lost", 0, None, t0, Instant::now());
                        if let Err(e) = result {
                            self.audit.fail(format!("notify_lost {id}: {e}"));
                        }
                    }
                }
            }
        }
    }

    /// One scheduled flush, then every session's outputs are taken;
    /// returns them per session.
    fn flush(&mut self, tracer: &mut Tracer) -> Vec<Vec<SupervisedWindow>> {
        let pending = self.gateway.pending_windows();
        let f0 = Instant::now();
        let flushed = self.gateway.flush();
        let f1 = Instant::now();
        match flushed {
            Ok(r) => self
                .log
                .flush(tracer, self.origin, pending, r.committed, f0, f1),
            Err(e) => self.audit.fail(format!("flush: {e}")),
        }
        let mut last = f1;
        let mut taken = Vec::with_capacity(self.streams.len());
        for s in 0..self.streams.len() {
            let id = self.streams[s].id;
            let outputs = self.gateway.take_outputs(id);
            let back = Instant::now();
            tracer.record("gateway::take_outputs", 0, None, last, back);
            last = back;
            match outputs {
                Ok(windows) => {
                    self.commit(s, &windows, (f0, f1), back);
                    taken.push(windows);
                }
                Err(e) => {
                    self.audit.fail(format!("take_outputs {id}: {e}"));
                    taken.push(Vec::new());
                }
            }
        }
        taken
    }

    fn commit(
        &mut self,
        s: usize,
        windows: &[SupervisedWindow],
        flush: (Instant, Instant),
        back: Instant,
    ) {
        let stream = self.streams[s];
        for w in windows {
            let seq = self.audit.next_seq(stream.id);
            self.timeline.committed(stream.id, seq, flush, back);
            let gen = self.gen;
            self.audit.commit(stream.id, w, |q| gen.window(&stream, q));
        }
    }
}

pub fn run(cfg: &RunConfig, gen: &Generator, tracer: &mut Tracer) -> Result<Measured, BoxError> {
    let sessions = cfg.ward_sessions;
    let config = GatewayConfig {
        workers: cfg.nproc,
        admit_quota: 1,
        admit_window: 4,
        max_shard_queue: usize::MAX,
        batch_capacity: usize::MAX,
        checkpoint_every: 64,
        ..GatewayConfig::default()
    };
    let ids: Vec<u64> = (0..sessions as u64).map(|i| 0x2_0000 + i).collect();
    let streams = gen.streams(&ids, 0);
    let window = gen.shapes[0].system.window;
    let period = window as f64 / FS_HZ;

    // The open-loop schedule and every frame it sends, encoded up front.
    let mut dues = Vec::new();
    let mut frames = Vec::with_capacity(sessions);
    let mut probe = ProbeInput::default();
    let epoch = period * f64::from(config.admit_window);
    for (i, s) in streams.iter().enumerate() {
        let phase = epoch * i as f64 / sessions as f64;
        let count = ((cfg.seconds - phase) / period).ceil().max(1.0) as u32;
        let mut own = Vec::with_capacity(count as usize);
        for seq in 0..count {
            dues.push(Due {
                at_s: phase + f64::from(seq) * period,
                session: i,
                seq,
            });
            let frame = gen.frame(s, seq)?;
            if s.shape == 0 {
                probe.add(&frame, gen.window(s, seq));
            }
            own.push(frame);
        }
        frames.push(own);
    }
    dues.sort_by(|a, b| a.at_s.total_cmp(&b.at_s));
    let channels = (0..sessions as u64)
        .map(|i| {
            GilbertElliott::new(
                GilbertElliottConfig::burst_loss(LOSS, BURST_LEN),
                hybridcs_rand::mix(0xC11A ^ i),
            )
        })
        .collect();
    let shapes: Vec<_> = gen
        .shapes
        .iter()
        .map(|sh| (sh.system.clone(), sh.codec.clone()))
        .collect();

    let mut setups = Vec::with_capacity(crate::SETUP_REPEATS);
    let mut built = None;
    for _ in 0..crate::SETUP_REPEATS {
        let t0 = Instant::now();
        let store = MemStore::new();
        let mut gateway = Gateway::with_journal(config, Box::new(store.clone()))?;
        for s in &streams {
            let shape = &gen.shapes[s.shape];
            gateway.handshake(s.id, &shape.system, shape.codec.clone())?;
        }
        setups.push(t0.elapsed().as_secs_f64());
        built = Some((gateway, store));
    }
    let (gateway, store) = built.ok_or("no setup ran")?;

    let start = Instant::now() + Duration::from_millis(20);
    let mut d = Driver {
        gateway,
        gen,
        streams,
        frames,
        channels,
        delivered: vec![None; sessions],
        audit: Audit::new(window, u32::MAX, u64::MAX),
        timeline: Timeline::default(),
        log: FlushLog {
            backlog_from_s: epoch,
            ..FlushLog::default()
        },
        origin: start,
    };
    let at = |s: f64| start + Duration::from_secs_f64(s);
    let mut slept = Duration::ZERO;
    let mut next_flush = FLUSH_PERIOD_S;
    for due in &dues {
        while next_flush <= due.at_s {
            slept += wait_until(at(next_flush));
            d.flush(tracer);
            next_flush += FLUSH_PERIOD_S;
        }
        let scheduled = at(due.at_s);
        slept += wait_until(scheduled);
        d.send(tracer, due, scheduled);
    }
    while next_flush < cfg.seconds {
        slept += wait_until(at(next_flush));
        d.flush(tracer);
        next_flush += FLUSH_PERIOD_S;
    }
    slept += wait_until(at(cfg.seconds));
    for s in 0..sessions {
        let sent_through = d.frames[s].len() as u32 - 1;
        d.heartbeat(tracer, s, sent_through);
    }

    // Crash point: what the journal holds now is all a restart gets.
    let journal_bytes = store.len();
    let image = store.snapshot();

    // Drain: one last flush, then close every session (tail holes are
    // declared lost).
    let mut original_tail = d.flush(tracer);
    for (s, tail) in original_tail.iter_mut().enumerate() {
        let id = d.streams[s].id;
        let c0 = Instant::now();
        let closed = d.gateway.close(id);
        let c1 = Instant::now();
        tracer.record("gateway::close", 0, None, c0, c1);
        match closed {
            Ok(windows) => {
                d.commit(s, &windows, (c0, c1), c1);
                tail.extend(windows);
            }
            Err(e) => d.audit.fail(format!("close {id}: {e}")),
        }
    }
    let wall_s = Instant::now().duration_since(start).as_secs_f64();

    // Restart from the crash image; the recovered twin replays the same
    // drain, and every window it hands back must match the original bit
    // for bit.
    let t0 = Instant::now();
    let recovered = Gateway::recover(config, Box::new(MemStore::from_bytes(image)), &shapes);
    let recover_s = t0.elapsed().as_secs_f64();
    match recovered {
        Ok((mut twin, _)) => {
            for what in replay_tail(&mut twin, &d.streams, &original_tail)? {
                d.audit.fail(what);
            }
        }
        Err(e) => d.audit.fail(format!("recover: {e}")),
    }
    d.audit.finish();
    if tracer.enabled() {
        d.timeline.record_spans(tracer);
    }

    let parts = d.timeline.parts(tracer);
    let busy_s = (wall_s - slept.as_secs_f64()).max(0.0);
    let offered = d.audit.attempted();
    let mut m = Measured::new(d.audit, probe);
    let whole = Segment {
        seconds: wall_s,
        committed: m.audit.committed(),
        hybrid: m.audit.rungs[0],
    };
    report::e2e(&mut m, &[whole], &parts.total, &setups);
    m.e2e.set("recover_s", recover_s, "s");
    report::gateway_layer(&mut m, &parts, &d.log, wall_s);
    m.layer.set(
        "journal.bytes_per_window",
        ratio(journal_bytes as f64, offered as f64),
        "bytes",
    );
    m.info.push(format!(
        "ward: {sessions} sessions ({:.2} windows/s offered), flush every {FLUSH_PERIOD_S} s, \
         {:.0}% burst loss, quota 1 of 4, {} workers, journal {journal_bytes} bytes",
        sessions as f64 / period,
        LOSS * 100.0,
        cfg.nproc
    ));
    m.cost_per_window = ratio(busy_s, m.audit.committed() as f64);
    Ok(m)
}

/// Runs the drain the original gateway ran (flush, take every session's
/// outputs, close every session) on the recovered twin and lists every
/// window that differs from `original` in any bit.
fn replay_tail(
    twin: &mut Gateway,
    streams: &[Stream],
    original: &[Vec<SupervisedWindow>],
) -> Result<Vec<String>, BoxError> {
    let mut out = Vec::new();
    twin.flush()?;
    for (s, want) in streams.iter().zip(original) {
        let mut got = twin.take_outputs(s.id)?;
        got.extend(twin.close(s.id)?);
        if got.len() != want.len() {
            out.push(format!(
                "recovered session {} committed {} windows after the crash, original {}",
                s.id,
                got.len(),
                want.len()
            ));
            continue;
        }
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            if !same_bits(g, w) {
                out.push(format!(
                    "recovered session {} window {i} differs from the original",
                    s.id
                ));
            }
        }
    }
    Ok(out)
}

fn same_bits(a: &SupervisedWindow, b: &SupervisedWindow) -> bool {
    a.sequence == b.sequence
        && a.rung == b.rung
        && a.demotions == b.demotions
        && a.signal.len() == b.signal.len()
        && a.signal
            .iter()
            .zip(&b.signal)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}
