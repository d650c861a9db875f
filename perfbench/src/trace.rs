//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around the public calls it makes
//! into each layer; nothing inside the program is instrumented. A span
//! has a name, a start and end (ns since the recorder's origin), an
//! optional parent, and the id of the window it belongs to (0 for spans
//! that serve no single window). Spans are kept in memory and written
//! out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub window: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the origin to `at` (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span; `None` when tracing is off.
    pub fn record(
        &mut self,
        name: &'static str,
        window: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            window,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total ns, self ns). Self time is a span's
    /// duration minus the part of it its children cover (children of one
    /// parent never overlap here, so their durations are summed).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"window\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.window, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}
