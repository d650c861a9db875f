//! Turning one workload's raw measurements into named metrics.

use std::time::Instant;

use crate::check::Audit;
use crate::stats::{mean, median, quantile, ratio, slope, Metrics};
use crate::timeline::Parts;
use crate::trace::Tracer;

/// Sample rate of the corpus (Hz): a 512-sample window is 512/360 s of
/// a patient's ECG.
pub const FS_HZ: f64 = 360.0;

/// Latency (ms) standing in for a window that never committed: it
/// exceeds any limit.
const NEVER_MS: f64 = 1e9;

/// m = 96 frames of the run, with the clean windows they encode, for the
/// layer probe.
#[derive(Default)]
pub struct ProbeInput {
    pub frames: Vec<Vec<u8>>,
    pub clean: Vec<Vec<f64>>,
}

impl ProbeInput {
    pub fn add(&mut self, frame: &[u8], clean: &[f64]) {
        if self.frames.len() < crate::probe::PANEL {
            self.frames.push(frame.to_vec());
            self.clean.push(clean.to_vec());
        }
    }
}

/// Everything one pass of a workload measured.
pub struct Measured {
    pub e2e: Metrics,
    pub layer: Metrics,
    pub audit: Audit,
    pub probe: ProbeInput,
    /// Seconds of wall time the program was busy per committed window —
    /// the base the tracing overhead is computed against.
    pub cost_per_window: f64,
    /// Human-readable facts about the pass.
    pub info: Vec<String>,
}

impl Measured {
    pub fn new(audit: Audit, probe: ProbeInput) -> Self {
        Measured {
            e2e: Metrics::default(),
            layer: Metrics::default(),
            audit,
            probe,
            cost_per_window: 0.0,
            info: Vec::new(),
        }
    }
}

/// Calls into the gateway and the flush schedule, as the benchmark saw them.
#[derive(Default)]
pub struct FlushLog {
    pub push_us: Vec<f64>,
    pub flush_ms: Vec<f64>,
    pub flush_windows: Vec<f64>,
    /// (seconds since the start of the timed phase, pending windows)
    /// sampled just before each flush.
    pub backlog: Vec<(f64, f64)>,
    /// Backlog samples before this time (a ramp-up) are left out of the
    /// slope.
    pub backlog_from_s: f64,
    pub nacks: u64,
}

impl FlushLog {
    pub fn push(&mut self, tracer: &mut Tracer, window: u64, t0: Instant, t1: Instant) {
        self.push_us.push(t1.duration_since(t0).as_secs_f64() * 1e6);
        tracer.record("gateway::push", window, None, t0, t1);
    }

    pub fn flush(
        &mut self,
        tracer: &mut Tracer,
        origin: Instant,
        pending: usize,
        committed: usize,
        t0: Instant,
        t1: Instant,
    ) {
        self.flush_ms
            .push(t1.duration_since(t0).as_secs_f64() * 1e3);
        self.flush_windows.push(committed as f64);
        self.backlog
            .push((t0.duration_since(origin).as_secs_f64(), pending as f64));
        tracer.record("gateway::flush", 0, None, t0, t1);
    }
}

/// One stretch of the timed phase a throughput is measured over: a round
/// of a closed loop, or the whole of an open one.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    pub seconds: f64,
    pub committed: u64,
    pub hybrid: u64,
}

/// The end-to-end metrics every workload reports: throughput (the median
/// over `segments`), commit latency, quality and failures, and the
/// median set-up time.
pub fn e2e(m: &mut Measured, segments: &[Segment], latencies_ms: &[f64], setups: &[f64]) {
    let a = &m.audit;
    let attempted = a.attempted() as f64;
    let window_s = 512.0 / FS_HZ;
    let mut latencies = latencies_ms.to_vec();
    let missing = a.attempted().saturating_sub(latencies.len() as u64);
    latencies.extend(std::iter::repeat_n(NEVER_MS, missing as usize));
    let rate = |count: fn(&Segment) -> u64| -> f64 {
        let rates: Vec<f64> = segments
            .iter()
            .map(|s| ratio(count(s) as f64, s.seconds))
            .collect();
        median(&rates)
    };
    let e = &mut m.e2e;
    e.set(
        "realtime_sessions",
        rate(|s| s.hybrid) * window_s,
        "sessions",
    );
    e.set("windows_per_s", rate(|s| s.committed), "windows/s");
    e.set("commit_p50_ms", quantile(&latencies, 0.5), "ms");
    e.set("commit_p90_ms", quantile(&latencies, 0.9), "ms");
    e.set("commit_p99_ms", quantile(&latencies, 0.99), "ms");
    e.set("hybrid_frac", ratio(a.rungs[0] as f64, attempted), "ratio");
    e.set("snr_median_db", median(&a.snr_db), "dB");
    e.set("failed_frac", ratio(a.failed as f64, attempted), "ratio");
    e.set("setup_s", median(setups), "s");
    e.set("commit_samples", latencies.len() as f64, "count");
}

/// Gateway-layer metrics for the workloads that drive `Gateway`
/// directly; `busy_s` is the wall time the flush share is taken of. A
/// window whose parts do not sum exactly to its latency is a failure.
pub fn gateway_layer(m: &mut Measured, parts: &Parts, log: &FlushLog, busy_s: f64) {
    if parts.mismatched > 0 {
        m.audit.fail(format!(
            "{} windows' parts do not sum to their commit latency",
            parts.mismatched
        ));
    }
    let l = &mut m.layer;
    l.set("gateway.push_us.p50", quantile(&log.push_us, 0.5), "us");
    l.set("gateway.push_us.p99", quantile(&log.push_us, 0.99), "us");
    l.set(
        "gateway.await_flush_ms.p50",
        quantile(&parts.await_flush, 0.5),
        "ms",
    );
    l.set(
        "gateway.await_flush_ms.p99",
        quantile(&parts.await_flush, 0.99),
        "ms",
    );
    l.set("gateway.flush_ms.p50", quantile(&log.flush_ms, 0.5), "ms");
    l.set("gateway.flush_ms.p99", quantile(&log.flush_ms, 0.99), "ms");
    l.set(
        "gateway.flush_windows.mean",
        mean(&log.flush_windows),
        "windows",
    );
    l.set(
        "gateway.busy_frac",
        ratio(log.flush_ms.iter().sum::<f64>() / 1e3, busy_s),
        "ratio",
    );
    let steady: Vec<(f64, f64)> = log
        .backlog
        .iter()
        .copied()
        .filter(|(t, _)| *t >= log.backlog_from_s)
        .collect();
    l.set("gateway.backlog_slope", slope(&steady), "windows/s");
    l.set("gateway.nacks", log.nacks as f64, "count");
    l.set("gen.late_ms.p99", quantile(&parts.late, 0.99), "ms");
}

/// Ladder and solver outcomes read from the committed windows.
pub fn ladder_layer(m: &mut Measured) {
    let a = &m.audit;
    let committed = a.committed() as f64;
    let [hybrid, cs_only, lowres, concealed] = a.rung_fracs();
    let l = &mut m.layer;
    l.set(
        "solver.iterations.p50",
        quantile(&a.iterations, 0.5),
        "iterations",
    );
    l.set(
        "solver.iterations.p99",
        quantile(&a.iterations, 0.99),
        "iterations",
    );
    l.set(
        "solver.converged_frac",
        ratio(a.converged as f64, a.iterations.len() as f64),
        "ratio",
    );
    l.set("gateway.declared_lost", a.rungs[3] as f64, "count");
    l.set(
        "gateway.shed_frac",
        ratio(a.shed as f64, committed),
        "ratio",
    );
    l.set("ladder.rung_frac.hybrid", hybrid, "ratio");
    l.set("ladder.rung_frac.cs_only", cs_only, "ratio");
    l.set("ladder.rung_frac.lowres_only", lowres, "ratio");
    l.set("ladder.rung_frac.concealed", concealed, "ratio");
}
