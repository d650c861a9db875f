//! Lightweight span tracing: RAII guards feeding a thread-local event
//! buffer, with durations mirrored into `span_seconds{span=...}`
//! histograms of the [global registry](crate::global).
//!
//! Collection is gated on [`crate::enabled`]: when off (the default) a
//! span costs one relaxed atomic load and no clock read, so hot paths —
//! including the per-iteration wavelet transforms inside the solvers —
//! can stay instrumented unconditionally.
//!
//! The buffer is bounded ([`EVENT_CAP`]); events beyond the cap are
//! dropped (counted in [`dropped_events`]) rather than growing without
//! bound during long instrumented runs. Histograms keep aggregating past
//! the cap.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Maximum buffered events per thread between [`drain_events`] calls.
pub const EVENT_CAP: usize = 16_384;

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (the `span!` argument).
    pub name: &'static str,
    /// Nesting depth at which the span ran (0 = top level).
    pub depth: usize,
    /// Wall-clock duration from the monotonic clock.
    pub duration: Duration,
}

#[derive(Default)]
struct SpanBuffer {
    events: Vec<SpanEvent>,
    depth: usize,
    dropped: u64,
}

thread_local! {
    static BUFFER: RefCell<SpanBuffer> = RefCell::new(SpanBuffer::default());
}

/// RAII guard created by [`span!`](crate::span!). Records on drop — which
/// also runs during unwinding, so a panic inside a span still closes it
/// and restores the nesting depth.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Opens a span. Inert (no clock read, nothing recorded) when span
    /// collection is disabled.
    #[must_use]
    pub fn enter(name: &'static str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard { name, start: None };
        }
        BUFFER.with(|b| {
            // try_borrow_mut: if the thread is unwinding through a
            // re-entrant borrow, skip bookkeeping instead of aborting.
            if let Ok(mut buf) = b.try_borrow_mut() {
                buf.depth += 1;
            }
        });
        SpanGuard {
            name,
            start: Some(Instant::now()),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let duration = start.elapsed();
        let name = self.name;
        BUFFER.with(|b| {
            if let Ok(mut buf) = b.try_borrow_mut() {
                buf.depth = buf.depth.saturating_sub(1);
                let depth = buf.depth;
                if buf.events.len() < EVENT_CAP {
                    buf.events.push(SpanEvent {
                        name,
                        depth,
                        duration,
                    });
                } else {
                    buf.dropped += 1;
                }
            }
        });
        span_histogram(name).record(duration.as_secs_f64());
    }
}

thread_local! {
    /// Per-thread cache of `span_seconds{span=...}` histogram handles.
    /// Span names are `&'static str`s from `span!` call sites, so there
    /// are only ever a handful per thread — a linear scan over a small
    /// vec beats taking the registry mutex (and allocating the label
    /// strings for the lookup key) on every guard drop, which matters for
    /// spans that fire once per solver iteration.
    static SPAN_HISTOGRAMS: RefCell<Vec<(&'static str, crate::Histogram)>> =
        const { RefCell::new(Vec::new()) };
}

fn span_histogram(name: &'static str) -> crate::Histogram {
    SPAN_HISTOGRAMS.with(|cache| {
        if let Ok(mut cache) = cache.try_borrow_mut() {
            if let Some((_, h)) = cache
                .iter()
                .find(|(n, _)| std::ptr::eq(*n, name) || *n == name)
            {
                return h.clone();
            }
            let h = crate::global().histogram("span_seconds", &[("span", name)]);
            cache.push((name, h.clone()));
            h
        } else {
            // Re-entrant drop during unwinding: fall back to the registry.
            crate::global().histogram("span_seconds", &[("span", name)])
        }
    })
}

/// Opens a named span for the current scope:
///
/// ```
/// hybridcs_obs::set_enabled(true);
/// {
///     let _guard = hybridcs_obs::span!("encode.sensing");
///     // ... stage work ...
/// }
/// let events = hybridcs_obs::drain_events();
/// assert_eq!(events[0].name, "encode.sensing");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::SpanGuard::enter($name)
    };
}

/// Takes (and clears) this thread's buffered span events, in completion
/// order.
#[must_use]
pub fn drain_events() -> Vec<SpanEvent> {
    BUFFER.with(|b| match b.try_borrow_mut() {
        Ok(mut buf) => std::mem::take(&mut buf.events),
        Err(_) => Vec::new(),
    })
}

/// Current nesting depth on this thread (0 outside any span).
#[must_use]
pub fn span_depth() -> usize {
    BUFFER.with(|b| b.try_borrow().map(|buf| buf.depth).unwrap_or(0))
}

/// Events dropped on this thread since the last call (resets the count).
#[must_use]
pub fn dropped_events() -> u64 {
    BUFFER.with(|b| match b.try_borrow_mut() {
        Ok(mut buf) => std::mem::take(&mut buf.dropped),
        Err(_) => 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `f` with span collection on, holding the crate's enabled-flag
    /// test lock so no other test flips the flag underneath it.
    fn with_spans_enabled(f: impl FnOnce()) {
        let _flag = crate::lock_enabled_flag();
        crate::set_enabled(true);
        let _ = drain_events();
        let _ = dropped_events();
        f();
        crate::set_enabled(false);
    }

    #[test]
    fn spans_nest_and_record_depths() {
        with_spans_enabled(|| {
            {
                let _outer = span!("outer");
                assert_eq!(span_depth(), 1);
                {
                    let _inner = span!("inner");
                    assert_eq!(span_depth(), 2);
                }
            }
            assert_eq!(span_depth(), 0);
            let events = drain_events();
            // Inner closes first.
            assert_eq!(events.len(), 2);
            assert_eq!((events[0].name, events[0].depth), ("inner", 1));
            assert_eq!((events[1].name, events[1].depth), ("outer", 0));
        });
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _flag = crate::lock_enabled_flag();
        crate::set_enabled(false);
        let _ = drain_events();
        {
            let _g = span!("invisible");
        }
        assert!(drain_events().is_empty());
    }

    #[test]
    fn panic_inside_span_unwinds_cleanly() {
        with_spans_enabled(|| {
            let result = std::panic::catch_unwind(|| {
                let _g = span!("doomed");
                panic!("boom");
            });
            assert!(result.is_err());
            // The guard's Drop ran during unwind: depth restored, event
            // recorded, and the global registry is still usable (its lock
            // recovers from poisoning).
            assert_eq!(span_depth(), 0);
            let events = drain_events();
            assert_eq!(events.len(), 1);
            assert_eq!(events[0].name, "doomed");
            let snap = crate::global().snapshot();
            assert!(snap
                .histogram_snapshot("span_seconds", &[("span", "doomed")])
                .is_some_and(|h| h.count >= 1));
        });
    }

    #[test]
    fn buffer_caps_and_counts_drops() {
        with_spans_enabled(|| {
            for _ in 0..(EVENT_CAP + 10) {
                let _g = span!("flood");
            }
            let events = drain_events();
            assert_eq!(events.len(), EVENT_CAP);
            assert_eq!(dropped_events(), 10);
        });
    }
}
