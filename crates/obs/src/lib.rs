//! Hermetic observability layer for the hybridcs workspace.
//!
//! The paper's headline comparisons (96 vs 240 channels at SNR = 20 dB)
//! rest on solver convergence behaviour and per-stage cost, so this crate
//! makes both visible without breaking the workspace's offline-build
//! policy: it has **zero external dependencies** (no `tracing`, no
//! `metrics`, no `serde`) and consists of three layers:
//!
//! 1. a **metrics registry** ([`MetricsRegistry`]) — counters, gauges and
//!    log₂-bucketed histograms, keyed by name + label set. Handles are
//!    `Arc`-shared atomics, so recording never takes the registry lock
//!    ("lock-free-enough"): the lock guards only registration lookups.
//! 2. a **span/tracing API** ([`span!`]) — RAII guards feeding a
//!    thread-local event buffer with monotonic-clock timings, mirrored
//!    into `span_seconds{span=...}` histograms of the [`global()`]
//!    registry. Span collection is **off by default** (a single relaxed
//!    atomic load on the hot path) and opt-in via `HYBRIDCS_OBS=1` or
//!    [`set_enabled`].
//! 3. pluggable **sinks** — an in-memory [`Snapshot`] for tests, a
//!    human-readable text report ([`Snapshot::text_report`]), a JSONL
//!    exporter ([`export`]) writing under `results/obs/` so runs can be
//!    diffed across PRs, and a Prometheus-style text exposition
//!    ([`render_prometheus`]).
//!
//! On top of the registry sit the fleet-telemetry layers added for the
//! gateway: a lock-free [flight recorder](flight) of compact pipeline
//! events dumped only on anomaly, and a sliding-window [SLO engine](slo)
//! with multi-window error-budget burn-rate alerting over
//! [`Snapshot::delta`]s.
//!
//! Solver instrumentation lives in [`convergence`]: every solver in
//! `hybridcs-solver` accepts an [`IterationObserver`] and emits
//! per-iteration residual/objective/step-size events plus a final
//! [`ConvergenceTrace`] (iterations, stop reason, wall time).
//!
//! # Example
//!
//! ```
//! use hybridcs_obs::MetricsRegistry;
//!
//! let registry = MetricsRegistry::new();
//! let frames = registry.counter("frames_total", &[]);
//! frames.add(3);
//! let latency = registry.histogram("decode_seconds", &[("solver", "pdhg")]);
//! latency.record(0.125);
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter_value("frames_total", &[]), Some(3));
//! println!("{}", snapshot.text_report());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod export;
pub mod expose;
pub mod flight;
pub mod jsonl;
mod registry;
pub mod slo;
pub mod span;

pub use convergence::{
    ConvergenceTrace, IterationEvent, IterationObserver, NoopObserver, RecordingObserver,
    StopReason,
};
pub use expose::render_prometheus;
pub use flight::{Event, EventContext, EventKind, FlightRecorder};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricId, MetricsRegistry, Percentiles, Snapshot,
};
pub use slo::{AlertLevel, BurnPolicy, Objective, SloEngine, SloSpec, SloStatus};
pub use span::{drain_events, span_depth, SpanEvent, SpanGuard};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// 0 = undecided (consult the environment), 1 = off, 2 = on.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether span collection is enabled. The first call consults the
/// `HYBRIDCS_OBS` environment variable (any non-empty value other than
/// `"0"` enables); afterwards the decision is cached and costs one relaxed
/// atomic load. Metric instruments ([`Counter`], [`Gauge`], [`Histogram`])
/// are *always* live — only span timing collection is gated.
#[must_use]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => {
            let on = std::env::var("HYBRIDCS_OBS")
                .map(|v| !v.is_empty() && v != "0")
                .unwrap_or(false);
            ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
            on
        }
    }
}

/// Programmatically enables or disables span collection, overriding the
/// environment.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// The process-wide default registry. Library code (telemetry loss
/// counters, span histograms, bench samples) records here so examples and
/// binaries can snapshot one place without threading a registry handle
/// through every constructor.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

/// Serializes the unit tests that flip or read the process-wide enabled
/// flag. The harness runs tests on parallel threads, so a test turning
/// collection off in the middle of another's span would drop its events.
#[cfg(test)]
pub(crate) fn lock_enabled_flag() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, PoisonError};
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_enabled_round_trips() {
        let _flag = lock_enabled_flag();
        set_enabled(true);
        assert!(enabled());
        set_enabled(false);
        assert!(!enabled());
    }

    #[test]
    fn global_registry_is_shared() {
        let c1 = global().counter("lib_test_shared", &[]);
        let c2 = global().counter("lib_test_shared", &[]);
        c1.add(2);
        c2.add(3);
        assert_eq!(c1.value(), 5);
    }
}
