//! The metrics registry: named, labelled counters, gauges, and
//! log₂-bucketed histograms.
//!
//! Registration (name → instrument lookup) takes a mutex; recording is
//! pure atomics on `Arc`-shared cells, so hot paths never contend on the
//! registry itself. The mutex is poison-recovering: a panic while holding
//! it (e.g. inside a span) cannot brick observability for the rest of the
//! process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Identity of one instrument: a name plus a sorted label set.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name, e.g. `"supervisor_section_lost_total"`.
    pub name: String,
    /// Label pairs, sorted by key for a canonical identity.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id from a name and unsorted label pairs.
    #[must_use]
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }

    /// Renders `name{k="v",...}` for reports.
    #[must_use]
    pub fn render(&self) -> String {
        if self.labels.is_empty() {
            return self.name.clone();
        }
        let labels: Vec<String> = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        format!("{}{{{}}}", self.name, labels.join(","))
    }
}

/// A monotonically increasing counter.
///
/// Increments **wrap** on `u64` overflow (the semantics of
/// `AtomicU64::fetch_add`); consumers diffing snapshots across runs should
/// treat a decrease as a wrap, never as a reset.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (wrapping).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding one `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds to the gauge (CAS loop).
    pub fn add(&self, delta: f64) {
        atomic_f64_update(&self.0, |cur| cur + delta);
    }

    /// Current value.
    #[must_use]
    pub fn value(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Smallest bucketed exponent: values below `2^MIN_EXP` (≈ 5.8e-11, well
/// under a nanosecond in seconds) land in the underflow bucket.
const MIN_EXP: i32 = -34;
/// Major (power-of-two) bucket count: covers `[2^-34, 2^30)` ≈
/// `[5.8e-11, 1.07e9)`.
const BUCKETS: usize = 64;
/// Linear sub-buckets per major bucket (HDR-style log-linear layout). 16
/// sub-buckets bound the worst-case relative quantile error at
/// `1/(2·16)` ≈ 3.1%.
const SUB: usize = 16;
/// Total slot count: `BUCKETS × SUB` fixed `u64` cells — 8 KiB per
/// histogram, regardless of how many samples are recorded.
const SLOTS: usize = BUCKETS * SUB;

#[derive(Debug)]
pub(crate) struct HistogramCore {
    buckets: Vec<AtomicU64>, // SLOTS cells, fixed at construction
    underflow: AtomicU64,
    overflow: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64, // f64 bits
    min: AtomicU64, // f64 bits, +inf when empty
    max: AtomicU64, // f64 bits, -inf when empty
}

/// An HDR-style log-linear histogram of non-negative `f64` samples with
/// **bounded memory** (a fixed 64 × 16 slot grid).
///
/// Major bucket `j` covers `[2^(j-34), 2^(j-33))` and is split into 16
/// linear sub-buckets, so sub-bucket boundaries are
/// `2^(j-34) · (1 + s/16)`. Both the major index (IEEE-754 exponent) and
/// the sub index (top four mantissa bits) come straight from the sample's
/// bit pattern — no floating `log2` — so boundaries are exact and exact
/// powers of two land on their bucket's lower bound. Zero, subnormal, and
/// negative samples count in the underflow bucket; samples ≥ `2^30`, NaN,
/// and +∞ in the overflow bucket. True min/max are tracked alongside the
/// buckets so quantile estimates stay within the observed range.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new_core() -> Arc<HistogramCore> {
        Arc::new(HistogramCore {
            buckets: (0..SLOTS).map(|_| AtomicU64::new(0)).collect(),
            underflow: AtomicU64::new(0),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0.0_f64.to_bits()),
            min: AtomicU64::new(f64::INFINITY.to_bits()),
            max: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        })
    }

    /// Index of the log-linear slot for a normal positive value, or `None`
    /// for under/overflow.
    fn bucket_index(v: f64) -> Option<usize> {
        if !(v.is_finite() && v >= f64::MIN_POSITIVE) {
            return None; // caller routes to underflow/overflow
        }
        // For normal positive v, the IEEE exponent is floor(log2(v)) and
        // the top 4 mantissa bits select the linear sub-bucket.
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32 - 1023;
        let major = exp - MIN_EXP;
        if !(0..BUCKETS as i32).contains(&major) {
            return None;
        }
        let sub = ((bits >> 48) & 0xF) as usize;
        Some(major as usize * SUB + sub)
    }

    /// `[lo, hi)` bounds of slot `i` (exact: both are sums of two powers
    /// of two well inside f64 range).
    fn slot_bounds(i: usize) -> (f64, f64) {
        let major = MIN_EXP + (i / SUB) as i32;
        let base = f64::from(major).exp2();
        let step = base / SUB as f64;
        let lo = base + step * (i % SUB) as f64;
        (lo, lo + step)
    }

    /// Records one sample.
    pub fn record(&self, v: f64) {
        let core = &self.0;
        match Self::bucket_index(v) {
            Some(i) => core.buckets[i].fetch_add(1, Ordering::Relaxed),
            None if v.is_nan() || v >= f64::MIN_POSITIVE => {
                core.overflow.fetch_add(1, Ordering::Relaxed)
            }
            None => core.underflow.fetch_add(1, Ordering::Relaxed),
        };
        core.count.fetch_add(1, Ordering::Relaxed);
        if v.is_finite() {
            atomic_f64_update(&core.sum, |cur| cur + v);
            atomic_f64_update(&core.min, |cur| cur.min(v));
            atomic_f64_update(&core.max, |cur| cur.max(v));
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough point-in-time copy.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let core = &self.0;
        let mut buckets = Vec::new();
        for (i, b) in core.buckets.iter().enumerate() {
            let count = b.load(Ordering::Relaxed);
            if count > 0 {
                let (lo, hi) = Self::slot_bounds(i);
                buckets.push(BucketCount { lo, hi, count });
            }
        }
        HistogramSnapshot {
            count: core.count.load(Ordering::Relaxed),
            underflow: core.underflow.load(Ordering::Relaxed),
            overflow: core.overflow.load(Ordering::Relaxed),
            sum: f64::from_bits(core.sum.load(Ordering::Relaxed)),
            min: f64::from_bits(core.min.load(Ordering::Relaxed)),
            max: f64::from_bits(core.max.load(Ordering::Relaxed)),
            buckets,
        }
    }
}

/// CAS-loop update of an `f64` stored as bits.
fn atomic_f64_update(cell: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = f(f64::from_bits(cur)).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// One non-empty bucket in a [`HistogramSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketCount {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound.
    pub hi: f64,
    /// Samples in `[lo, hi)`.
    pub count: u64,
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total samples.
    pub count: u64,
    /// Samples below the bucketed range (includes zero and negatives).
    pub underflow: u64,
    /// Samples above the bucketed range (includes NaN/∞).
    pub overflow: u64,
    /// Sum of all finite samples.
    pub sum: f64,
    /// Smallest finite sample (+∞ when none).
    pub min: f64,
    /// Largest finite sample (−∞ when none).
    pub max: f64,
    /// Non-empty buckets in ascending order.
    pub buckets: Vec<BucketCount>,
}

/// The standard latency percentiles of one histogram, estimated at bucket
/// resolution (see [`HistogramSnapshot::quantile`] for the estimator and
/// its clamping guarantees).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median (50th percentile).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Mean of the finite samples (0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// p50/p90/p99 in one call — the triple every latency report line
    /// wants. Returns `None` when the histogram is empty.
    #[must_use]
    pub fn percentiles(&self) -> Option<Percentiles> {
        Some(Percentiles {
            p50: self.quantile(0.5)?,
            p90: self.quantile(0.9)?,
            p99: self.quantile(0.99)?,
        })
    }

    /// Bucket-resolution quantile estimate for `q ∈ [0, 1]`: the midpoint
    /// of the log-linear sub-bucket holding the rank-`⌈q·count⌉` sample
    /// (sub-buckets are linear, so the arithmetic midpoint bounds the
    /// relative error at `1/(2·16)` ≈ 3.1%), clamped into the observed
    /// `[min, max]`. Returns `None` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q == 0.0 && self.min.is_finite() {
            return Some(self.min);
        }
        if q == 1.0 && self.max.is_finite() {
            return Some(self.max);
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        // min > max happens when no finite sample was recorded (or in a
        // delta window with only under/overflow) — skip clamping then.
        let clamp = |v: f64| {
            if self.min <= self.max {
                v.clamp(self.min, self.max)
            } else {
                v
            }
        };
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(clamp(0.0));
        }
        for b in &self.buckets {
            seen += b.count;
            if rank <= seen {
                return Some(clamp(0.5 * (b.lo + b.hi)));
            }
        }
        Some(clamp(self.max))
    }

    /// Fraction of samples at or below `limit` (underflow counts as below;
    /// overflow as above; the bucket straddling `limit` contributes
    /// linearly). Returns `None` when the histogram is empty. This is the
    /// estimator behind latency objectives ("99% of windows commit within
    /// 250 ms").
    #[must_use]
    pub fn fraction_at_most(&self, limit: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let mut good = if limit >= 0.0 {
            self.underflow as f64
        } else {
            0.0
        };
        for b in &self.buckets {
            if b.hi <= limit {
                good += b.count as f64;
            } else if b.lo < limit {
                good += b.count as f64 * (limit - b.lo) / (b.hi - b.lo);
            }
        }
        Some(good / self.count as f64)
    }

    /// The bucket-wise difference `self − earlier` of two cumulative
    /// snapshots of the **same** histogram — the windowed view the SLO
    /// engine evaluates objectives over. Counter-like fields subtract
    /// (wrapping); `min`/`max` cannot be recovered for a window from
    /// cumulative data, so the delta widens them to its own bucket range
    /// (quantiles stay correctly clamped, `quantile(0.0)`/`quantile(1.0)`
    /// are bucket-resolution rather than exact).
    #[must_use]
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets: Vec<BucketCount> = Vec::with_capacity(self.buckets.len());
        let mut prev = earlier.buckets.iter().peekable();
        for b in &self.buckets {
            let mut count = b.count;
            // Both bucket lists are ascending by `lo`; consume matches.
            while let Some(p) = prev.peek() {
                if p.lo < b.lo {
                    prev.next();
                } else {
                    if p.lo == b.lo {
                        count = count.wrapping_sub(p.count);
                        prev.next();
                    }
                    break;
                }
            }
            if count > 0 {
                buckets.push(BucketCount { count, ..*b });
            }
        }
        let lo = buckets.first().map_or(f64::INFINITY, |b| b.lo);
        let hi = buckets.last().map_or(f64::NEG_INFINITY, |b| b.hi);
        HistogramSnapshot {
            count: self.count.wrapping_sub(earlier.count),
            underflow: self.underflow.wrapping_sub(earlier.underflow),
            overflow: self.overflow.wrapping_sub(earlier.overflow),
            sum: self.sum - earlier.sum,
            min: lo,
            max: hi,
            buckets,
        }
    }
}

#[derive(Debug, Clone)]
enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The registry. See the [crate docs](crate) for the locking story.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    instruments: Mutex<HashMap<MetricId, Instrument>>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<MetricId, Instrument>> {
        // A panic while the lock is held (e.g. inside an instrumented
        // region) must not poison observability for everyone else.
        self.instruments
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered as a different instrument
    /// kind — that is a programming error, not a runtime condition.
    #[must_use]
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let id = MetricId::new(name, labels);
        let mut map = self.lock();
        match map
            .entry(id)
            .or_insert_with(|| Instrument::Counter(Counter(Arc::new(AtomicU64::new(0)))))
        {
            Instrument::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Same kind-mismatch condition as [`MetricsRegistry::counter`].
    #[must_use]
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let id = MetricId::new(name, labels);
        let mut map = self.lock();
        match map.entry(id).or_insert_with(|| {
            Instrument::Gauge(Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits()))))
        }) {
            Instrument::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns (registering on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    ///
    /// Same kind-mismatch condition as [`MetricsRegistry::counter`].
    #[must_use]
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let id = MetricId::new(name, labels);
        let mut map = self.lock();
        match map
            .entry(id)
            .or_insert_with(|| Instrument::Histogram(Histogram(Histogram::new_core())))
        {
            Instrument::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Captures every instrument into a deterministic, sorted snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (id, inst) in map.iter() {
            match inst {
                Instrument::Counter(c) => counters.push((id.clone(), c.value())),
                Instrument::Gauge(g) => gauges.push((id.clone(), g.value())),
                Instrument::Histogram(h) => histograms.push((id.clone(), h.snapshot())),
            }
        }
        drop(map);
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A deterministic point-in-time view of a whole registry — the in-memory
/// sink used by tests and the source for the text/JSONL exporters.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counters, sorted by id.
    pub counters: Vec<(MetricId, u64)>,
    /// Gauges, sorted by id.
    pub gauges: Vec<(MetricId, f64)>,
    /// Histograms, sorted by id.
    pub histograms: Vec<(MetricId, HistogramSnapshot)>,
}

impl Snapshot {
    /// Looks up one counter value.
    #[must_use]
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let id = MetricId::new(name, labels);
        self.counters
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, v)| *v)
    }

    /// Looks up one histogram snapshot.
    #[must_use]
    pub fn histogram_snapshot(
        &self,
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&HistogramSnapshot> {
        let id = MetricId::new(name, labels);
        self.histograms
            .iter()
            .find(|(i, _)| *i == id)
            .map(|(_, h)| h)
    }

    /// The difference `self − earlier` of two cumulative snapshots of the
    /// same registry: counters and histogram buckets subtract (wrapping);
    /// gauges keep their latest value (they are not cumulative).
    /// Instruments absent from `earlier` pass through unchanged — the
    /// "periodic delta snapshot" primitive behind the SLO engine and the
    /// soak's per-run latency reporting.
    #[must_use]
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(id, v)| {
                let prev = earlier
                    .counters
                    .iter()
                    .find(|(i, _)| i == id)
                    .map_or(0, |(_, p)| *p);
                (id.clone(), v.wrapping_sub(prev))
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(id, h)| {
                let delta = match earlier.histograms.iter().find(|(i, _)| i == id) {
                    Some((_, prev)) => h.delta(prev),
                    None => h.clone(),
                };
                (id.clone(), delta)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Human-readable report of everything in the snapshot.
    #[must_use]
    pub fn text_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (id, v) in &self.counters {
                let _ = writeln!(out, "  {:<48} {v}", id.render());
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (id, v) in &self.gauges {
                let _ = writeln!(out, "  {:<48} {v}", id.render());
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (id, h) in &self.histograms {
                let p = h.percentiles().unwrap_or(Percentiles {
                    p50: 0.0,
                    p90: 0.0,
                    p99: 0.0,
                });
                let _ = writeln!(
                    out,
                    "  {:<48} n={} mean={:.3e} p50={:.3e} p90={:.3e} p99={:.3e} max={:.3e}",
                    id.render(),
                    h.count,
                    h.mean(),
                    p.p50,
                    p.p90,
                    p.p99,
                    if h.max.is_finite() { h.max } else { 0.0 },
                );
            }
        }
        if out.is_empty() {
            out.push_str("(empty snapshot)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_wraps_on_overflow() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("wraps", &[]);
        c.add(u64::MAX);
        assert_eq!(c.value(), u64::MAX);
        // Documented wrapping semantics: MAX + 3 ≡ 2.
        c.add(3);
        assert_eq!(c.value(), 2);
    }

    #[test]
    fn gauge_set_and_add() {
        let registry = MetricsRegistry::new();
        let g = registry.gauge("g", &[("k", "v")]);
        g.set(1.5);
        g.add(-0.5);
        assert!((g.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_bucket_boundaries_are_exact() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("bounds", &[]);
        // An exact power of two must land on the sub-bucket it
        // lower-bounds; a value just below it in the last sub-bucket of
        // the previous major bucket; values inside a major bucket in
        // their linear sub-bucket.
        h.record(1.0);
        h.record(0.999_999_999);
        h.record(2.0);
        h.record(1.999_999_999);
        h.record(1.5); // sub-bucket [1.5, 1.5625)
        let snap = h.snapshot();
        let find = |lo: f64| {
            snap.buckets
                .iter()
                .find(|b| (b.lo - lo).abs() < 1e-12)
                .map(|b| b.count)
        };
        assert_eq!(find(0.5 * (1.0 + 15.0 / 16.0)), Some(1)); // 0.999…
        assert_eq!(find(1.0), Some(1)); // 1.0 ∈ [1, 1.0625)
        assert_eq!(find(1.5), Some(1)); // 1.5 ∈ [1.5, 1.5625)
        assert_eq!(find(1.0 + 15.0 / 16.0), Some(1)); // 1.999…
        assert_eq!(find(2.0), Some(1)); // 2.0 ∈ [2, 2.125)
        assert_eq!(snap.count, 5);
        assert_eq!(snap.underflow + snap.overflow, 0);
        // Sub-buckets within one major bucket are linear and contiguous.
        for b in &snap.buckets {
            assert!(b.hi > b.lo);
        }
    }

    #[test]
    fn loglinear_quantiles_are_within_relative_error_bound() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("res", &[]);
        // A tight cluster: log₂ buckets alone would answer anywhere in
        // [1024, 2048); log-linear sub-buckets must land within 1/32.
        for i in 0..1000 {
            h.record(1500.0 + f64::from(i % 7));
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        assert!(
            (p50 - 1503.0).abs() / 1503.0 < 1.0 / 32.0 + 1e-9,
            "p50 {p50} outside the log-linear error bound"
        );
    }

    #[test]
    fn fraction_at_most_interpolates() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("frac", &[]);
        for i in 1..=100 {
            h.record(f64::from(i));
        }
        let snap = h.snapshot();
        assert_eq!(snap.fraction_at_most(1000.0), Some(1.0));
        assert_eq!(snap.fraction_at_most(0.5), Some(0.0));
        let half = snap.fraction_at_most(50.0).unwrap();
        assert!((half - 0.5).abs() < 0.05, "fraction at 50: {half}");
        assert!(registry
            .histogram("empty", &[])
            .snapshot()
            .fraction_at_most(1.0)
            .is_none());
    }

    #[test]
    fn histogram_delta_subtracts_buckets() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("delta", &[]);
        h.record(1.0);
        h.record(4.0);
        let earlier = h.snapshot();
        h.record(4.0);
        h.record(16.0);
        let delta = h.snapshot().delta(&earlier);
        assert_eq!(delta.count, 2);
        assert_eq!(delta.buckets.len(), 2);
        assert_eq!(delta.buckets[0].lo, 4.0);
        assert_eq!(delta.buckets[0].count, 1);
        assert_eq!(delta.buckets[1].lo, 16.0);
        assert!((delta.sum - 20.0).abs() < 1e-12);
        // The window's quantiles reflect only the new samples.
        assert!(delta.quantile(0.99).unwrap() >= 16.0);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_keeps_gauges() {
        let registry = MetricsRegistry::new();
        let c = registry.counter("d_total", &[]);
        let g = registry.gauge("d_gauge", &[]);
        c.add(5);
        g.set(1.0);
        let earlier = registry.snapshot();
        c.add(3);
        g.set(9.0);
        registry.counter("d_new", &[]).add(2);
        let delta = registry.snapshot().delta(&earlier);
        assert_eq!(delta.counter_value("d_total", &[]), Some(3));
        assert_eq!(delta.counter_value("d_new", &[]), Some(2));
        let gauge = delta
            .gauges
            .iter()
            .find(|(id, _)| id.name == "d_gauge")
            .map(|(_, v)| *v);
        assert_eq!(gauge, Some(9.0));
    }

    #[test]
    fn histogram_routes_extremes() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("extremes", &[]);
        h.record(0.0);
        h.record(-1.0);
        h.record(1e300);
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        let snap = h.snapshot();
        assert_eq!(snap.underflow, 2);
        assert_eq!(snap.overflow, 3);
        assert_eq!(snap.count, 5);
        // NaN/∞ must not poison the finite aggregates.
        assert!(snap.sum.is_finite());
        assert_eq!(snap.max, 1e300);
        assert_eq!(snap.min, -1.0);
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("q", &[]);
        for i in 1..=100 {
            h.record(f64::from(i));
        }
        let snap = h.snapshot();
        let p50 = snap.quantile(0.5).unwrap();
        let p99 = snap.quantile(0.99).unwrap();
        // Log buckets are coarse: require the right bucket, not the exact
        // order statistic.
        assert!((32.0..=64.0).contains(&p50), "p50 {p50}");
        assert!(p99 >= 64.0, "p99 {p99}");
        assert_eq!(snap.quantile(0.0).unwrap(), 1.0);
        assert_eq!(snap.quantile(1.0).unwrap(), 100.0);
        assert!((snap.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample_quantile_is_exact() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram("single", &[]);
        h.record(0.125);
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(0.125));
    }

    #[test]
    fn labels_distinguish_instruments() {
        let registry = MetricsRegistry::new();
        registry.counter("c", &[("section", "cs")]).add(1);
        registry.counter("c", &[("section", "lowres")]).add(2);
        let snap = registry.snapshot();
        assert_eq!(snap.counter_value("c", &[("section", "cs")]), Some(1));
        assert_eq!(snap.counter_value("c", &[("section", "lowres")]), Some(2));
        // Label order must not matter.
        let a = registry.counter("multi", &[("a", "1"), ("b", "2")]);
        let b = registry.counter("multi", &[("b", "2"), ("a", "1")]);
        a.inc();
        assert_eq!(b.value(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let registry = MetricsRegistry::new();
        let _ = registry.counter("same_name", &[]);
        let _ = registry.gauge("same_name", &[]);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let registry = MetricsRegistry::new();
        registry.counter("z", &[]).inc();
        registry.counter("a", &[]).inc();
        registry.gauge("m", &[]).set(1.0);
        let s1 = registry.snapshot();
        let s2 = registry.snapshot();
        assert_eq!(s1.counters, s2.counters);
        assert!(s1.counters[0].0.name < s1.counters[1].0.name);
        let report = s1.text_report();
        assert!(report.contains("counters:"));
        assert!(report.contains("gauges:"));
    }
}
