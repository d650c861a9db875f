//! Per-window instants for the gateway-driven workloads, and the exact
//! decomposition of each window's commit latency into its parts:
//! generator lateness, push, await flush, flush, drain.

use std::collections::HashMap;
use std::time::Instant;

use crate::trace::Tracer;

struct Entry {
    scheduled: Instant,
    /// First send attempt, and the end of its push (the same instant when
    /// the radio dropped the frame).
    sent: Option<(Instant, Instant)>,
    /// The flush that committed the window, and when `take_outputs` (or
    /// `close`) handed it back.
    committed: Option<(Instant, Instant, Instant)>,
}

/// The parts of every committed window, in ms.
#[derive(Default)]
pub struct Parts {
    pub late: Vec<f64>,
    pub push: Vec<f64>,
    pub await_flush: Vec<f64>,
    pub flush: Vec<f64>,
    pub drain: Vec<f64>,
    pub total: Vec<f64>,
    /// Windows whose parts did not sum exactly to their latency.
    pub mismatched: u64,
}

#[derive(Default)]
pub struct Timeline {
    entries: Vec<Entry>,
    by_key: HashMap<(u64, u32), usize>,
}

impl Timeline {
    /// Registers window `seq` of session `id`, due at `at`; returns the
    /// window's trace id.
    pub fn schedule(&mut self, id: u64, seq: u32, at: Instant) -> u64 {
        self.by_key.insert((id, seq), self.entries.len());
        self.entries.push(Entry {
            scheduled: at,
            sent: None,
            committed: None,
        });
        self.entries.len() as u64
    }

    /// The first send of `(id, seq)` started at `sent`; its push returned
    /// at `pushed`.
    pub fn sent(&mut self, id: u64, seq: u32, sent: Instant, pushed: Instant) {
        if let Some(&i) = self.by_key.get(&(id, seq)) {
            self.entries[i].sent.get_or_insert((sent, pushed));
        }
    }

    /// `(id, seq)` was committed by the flush spanning `flush` and handed
    /// back at `returned`.
    pub fn committed(&mut self, id: u64, seq: u32, flush: (Instant, Instant), returned: Instant) {
        if let Some(&i) = self.by_key.get(&(id, seq)) {
            self.entries[i]
                .committed
                .get_or_insert((flush.0, flush.1, returned));
        }
    }

    /// Splits every committed window's latency into its parts on the
    /// tracer's integer-ns clock, where the parts telescope: their sum is
    /// exactly the latency. Windows that never committed are left out
    /// (the audit counts them as failed).
    pub fn parts(&self, tracer: &Tracer) -> Parts {
        let mut out = Parts::default();
        for e in &self.entries {
            let (Some((sent, pushed)), Some((f0, f1, back))) = (e.sent, e.committed) else {
                continue;
            };
            let t = [e.scheduled, sent, pushed, f0, f1, back].map(|at| tracer.ns(at));
            let d: Vec<u64> = t.windows(2).map(|w| w[1].saturating_sub(w[0])).collect();
            let total = t[5].saturating_sub(t[0]);
            if d.iter().sum::<u64>() != total {
                out.mismatched += 1;
            }
            let ms = |ns: u64| ns as f64 / 1e6;
            out.late.push(ms(d[0]));
            out.push.push(ms(d[1]));
            out.await_flush.push(ms(d[2]));
            out.flush.push(ms(d[3]));
            out.drain.push(ms(d[4]));
            out.total.push(ms(total));
        }
        out
    }

    /// Records one root span per committed window with its five parts as
    /// children; all share the window's id (its index + 1).
    pub fn record_spans(&self, tracer: &mut Tracer) {
        for (i, e) in self.entries.iter().enumerate() {
            let (Some((sent, pushed)), Some((f0, f1, back))) = (e.sent, e.committed) else {
                continue;
            };
            let window = i as u64 + 1;
            let root = tracer.record("window", window, None, e.scheduled, back);
            let bounds = [e.scheduled, sent, pushed, f0, f1, back];
            let names = [
                "part.late",
                "part.push",
                "part.await_flush",
                "part.flush",
                "part.drain",
            ];
            for (name, w) in names.iter().zip(bounds.windows(2)) {
                tracer.record(name, window, root, w[0], w[1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn parts_sum_exactly_to_the_latency() {
        let origin = Instant::now();
        let tracer = Tracer::new(false, origin);
        let at = |ns: u64| origin + Duration::from_nanos(ns);
        let mut timeline = Timeline::default();
        assert_eq!(timeline.schedule(7, 0, at(1_000)), 1);
        timeline.sent(7, 0, at(1_500), at(1_811));
        timeline.committed(7, 0, (at(90_000), at(400_123)), at(410_007));
        timeline.schedule(7, 1, at(2_000));
        let parts = timeline.parts(&tracer);
        assert_eq!(parts.mismatched, 0);
        assert_eq!(parts.total.len(), 1, "the uncommitted window is left out");
        let sum =
            parts.late[0] + parts.push[0] + parts.await_flush[0] + parts.flush[0] + parts.drain[0];
        assert!((sum - parts.total[0]).abs() < 1e-12);
        assert!((parts.total[0] - 0.409_007).abs() < 1e-12);
    }
}
