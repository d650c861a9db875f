//! Lightweight span tracing: RAII guards timing a scope on the monotonic
//! clock into `span_seconds{span=...}` histograms of the
//! [global registry](crate::global).
//!
//! Collection is gated on [`crate::enabled`]: when off (the default) a
//! span costs one relaxed atomic load and no clock read, so hot paths —
//! including the per-iteration wavelet transforms inside the solvers —
//! can stay instrumented unconditionally.

use crate::Histogram;
use std::sync::OnceLock;
use std::time::Instant;

/// RAII guard created by [`span!`](crate::span!). Records on drop — which
/// also runs during unwinding, so a panic inside a span still closes it.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    histogram: &'static OnceLock<Histogram>,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span recording into `histogram`, the call site's handle of
    /// `span_seconds{span=name}`, resolved through the registry on the
    /// first recorded span. Inert (no clock read, nothing recorded) when
    /// span collection is disabled.
    #[must_use]
    pub fn enter(name: &'static str, histogram: &'static OnceLock<Histogram>) -> SpanGuard {
        let start = crate::enabled().then(Instant::now);
        SpanGuard {
            name,
            histogram,
            start,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.histogram
                .get_or_init(|| crate::global().histogram("span_seconds", &[("span", self.name)]))
                .record(start.elapsed().as_secs_f64());
        }
    }
}

/// Opens a named span for the current scope. The name is a string
/// literal, and each call site keeps its own histogram handle in a
/// `static`, so a recorded span never looks its histogram up in the
/// registry after the first, on any thread:
///
/// ```
/// hybridcs_obs::set_enabled(true);
/// {
///     let _guard = hybridcs_obs::span!("encode.sensing");
///     // ... stage work ...
/// }
/// let snapshot = hybridcs_obs::global().snapshot();
/// let timed = snapshot.histogram_snapshot("span_seconds", &[("span", "encode.sensing")]);
/// assert_eq!(timed.map(|h| h.count), Some(1));
/// ```
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        static HISTOGRAM: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        $crate::SpanGuard::enter($name, &HISTOGRAM)
    }};
}

#[cfg(test)]
mod tests {
    /// Spans recorded so far under `name` on the global registry.
    fn span_count(name: &str) -> u64 {
        crate::global()
            .snapshot()
            .histogram_snapshot("span_seconds", &[("span", name)])
            .map_or(0, |h| h.count)
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _flag = crate::lock_enabled_flag();
        crate::set_enabled(false);
        {
            let _g = span!("invisible");
        }
        assert_eq!(span_count("invisible"), 0);
    }

    #[test]
    fn panic_inside_span_unwinds_cleanly() {
        let _flag = crate::lock_enabled_flag();
        crate::set_enabled(true);
        let result = std::panic::catch_unwind(|| {
            let _g = span!("doomed");
            panic!("boom");
        });
        crate::set_enabled(false);
        assert!(result.is_err());
        // The guard's Drop ran during unwind and recorded, and the global
        // registry is still usable (its lock recovers from poisoning).
        assert!(span_count("doomed") >= 1);
    }
}
