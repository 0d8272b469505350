//! The recorder: lock-cheap metric primitives behind a shared registry.
//!
//! Registration (first use of a name) takes a mutex on the registry map;
//! every subsequent touch of a returned handle is pure atomics. Hot call
//! sites that fire many times per solve fetch the handle once and reuse
//! it; casual sites go through the `count!` macro, which re-looks the
//! handle up per call (a short mutex hold — fine at per-solve /
//! per-chunk / per-frame granularity).

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::{GaugeSummary, HistogramSummary, MetricsSnapshot};
use crate::trace::json_escape;

/// Severity of a structured [`event!`](crate::event!).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Developer-facing detail (convergence chatter, dispatch decisions).
    Debug = 0,
    /// Normal operational milestones.
    Info = 1,
    /// Degraded but recoverable conditions (rejected worker, open breaker).
    Warn = 2,
    /// Fatal or data-losing conditions.
    Error = 3,
}

impl Level {
    /// Lower-case name used in trace lines (`"warn"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    /// Parses the lower-case form emitted by [`Level::as_str`].
    pub fn parse(s: &str) -> Option<Level> {
        Some(match s {
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" => Level::Warn,
            "error" => Level::Error,
            _ => return None,
        })
    }
}

/// Upper bounds of the shared fixed histogram buckets (one overflow
/// bucket follows the last bound). Spans record µs, so the range covers
/// sub-µs kernels up to ~17-minute sweeps.
pub const BUCKET_BOUNDS: [f64; 20] = [
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1e3, 2.5e3, 5e3, 1e4, 2.5e4, 5e4, 1e5,
    1e6, 1e7, 1e8, 1e9,
];

/// A monotonically increasing counter handle. Cloning shares the cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct GaugeCell {
    value: AtomicI64,
    max: AtomicI64,
}

/// A set/add gauge handle that also tracks its peak value.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<GaugeCell>);

impl Gauge {
    /// Sets the value (peak updates automatically).
    pub fn set(&self, v: i64) {
        self.0.value.store(v, Ordering::Relaxed);
        self.0.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adjusts the value by `delta` and returns the new value.
    pub fn add(&self, delta: i64) -> i64 {
        let now = self.0.value.fetch_add(delta, Ordering::Relaxed) + delta;
        self.0.max.fetch_max(now, Ordering::Relaxed);
        now
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.value.load(Ordering::Relaxed)
    }

    /// Peak value observed so far.
    pub fn max(&self) -> i64 {
        self.0.max.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistCell {
    // One slot per BUCKET_BOUNDS entry plus the overflow bucket.
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    // f64 sum accumulated through its bit pattern (CAS loop): samples per
    // histogram are few enough that contention is negligible.
    sum_bits: AtomicU64,
}

impl Default for HistCell {
    fn default() -> Self {
        HistCell {
            buckets: (0..=BUCKET_BOUNDS.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

/// A fixed-bucket histogram handle ([`BUCKET_BOUNDS`] plus overflow).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistCell>);

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: f64) {
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.0.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.0.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.0.count.load(Ordering::Relaxed),
            sum: f64::from_bits(self.0.sum_bits.load(Ordering::Relaxed)),
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

struct RecorderInner {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    trace: Option<Mutex<Box<dyn Write + Send>>>,
    seq: AtomicU64,
    start: Instant,
}

/// The shared metric registry plus optional JSONL trace sink. `Clone` is
/// cheap (an `Arc`); all clones observe the same registry.
#[derive(Clone)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("traced", &self.inner.trace.is_some())
            .finish()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with metrics only (no trace stream).
    pub fn new() -> Self {
        Recorder::build(None)
    }

    /// A recorder that additionally appends one JSON object per line to
    /// `sink` — see [`crate::validate`] for the schema.
    pub fn with_trace(sink: Box<dyn Write + Send>) -> Self {
        Recorder::build(Some(Mutex::new(sink)))
    }

    fn build(trace: Option<Mutex<Box<dyn Write + Send>>>) -> Self {
        Recorder {
            inner: Arc::new(RecorderInner {
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                trace,
                seq: AtomicU64::new(0),
                start: Instant::now(),
            }),
        }
    }

    /// The counter registered under `name` (registering it on first use).
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock(&self.inner.counters);
        match map.get(name) {
            Some(c) => c.clone(),
            None => {
                let c = Counter(Arc::new(AtomicU64::new(0)));
                map.insert(name.to_string(), c.clone());
                c
            }
        }
    }

    /// The gauge registered under `name` (registering it on first use).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock(&self.inner.gauges);
        match map.get(name) {
            Some(g) => g.clone(),
            None => {
                let g = Gauge(Arc::new(GaugeCell::default()));
                map.insert(name.to_string(), g.clone());
                g
            }
        }
    }

    /// The histogram registered under `name` (registering it on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.lock(&self.inner.histograms);
        match map.get(name) {
            Some(h) => h.clone(),
            None => {
                let h = Histogram(Arc::new(HistCell::default()));
                map.insert(name.to_string(), h.clone());
                h
            }
        }
    }

    fn lock<'a, T>(&self, m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
        m.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Opens a timed span: duration lands in the `name` histogram (µs)
    /// when the guard drops, and a `span` trace line records name,
    /// duration, and nesting depth.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let depth = SPAN_DEPTH.with(|d| {
            let cur = d.get();
            d.set(cur + 1);
            cur
        });
        SpanGuard {
            recorder: self.clone(),
            name,
            depth,
            start: Instant::now(),
        }
    }

    /// Records one leveled structured event: a counter named after the
    /// event increments, the trace stream (if any) gets an `event` line,
    /// and `Warn`/`Error` mirror to stderr so operational warnings survive
    /// with tracing disabled.
    pub fn event(&self, level: Level, name: &str, message: &str) {
        self.counter(name).add(1);
        if level >= Level::Warn {
            eprintln!("{name}: {message}");
        }
        self.emit(|seq, ts_us| {
            format!(
                "{{\"kind\":\"event\",\"seq\":{seq},\"ts_us\":{ts_us},\"level\":\"{}\",\"name\":\"{}\",\"message\":\"{}\"}}",
                level.as_str(),
                json_escape(name),
                json_escape(message)
            )
        });
    }

    /// Whether a trace sink is attached.
    pub fn traced(&self) -> bool {
        self.inner.trace.is_some()
    }

    fn emit<F: FnOnce(u64, u128) -> String>(&self, line: F) {
        let Some(sink) = &self.inner.trace else {
            return;
        };
        let seq = self.inner.seq.fetch_add(1, Ordering::Relaxed);
        let ts_us = self.inner.start.elapsed().as_micros();
        let line = line(seq, ts_us);
        let mut sink = sink.lock().unwrap_or_else(|p| p.into_inner());
        let _ = writeln!(sink, "{line}");
    }

    /// Dumps the current value of every counter, gauge, and histogram to
    /// the trace stream (one line each) and flushes the sink. A no-op
    /// without a sink.
    pub fn trace_snapshot(&self) {
        if self.inner.trace.is_none() {
            return;
        }
        let snap = self.snapshot();
        for (name, value) in &snap.counters {
            self.emit(|seq, ts_us| {
                format!(
                    "{{\"kind\":\"counter\",\"seq\":{seq},\"ts_us\":{ts_us},\"name\":\"{}\",\"value\":{value}}}",
                    json_escape(name)
                )
            });
        }
        for (name, g) in &snap.gauges {
            self.emit(|seq, ts_us| {
                format!(
                    "{{\"kind\":\"gauge\",\"seq\":{seq},\"ts_us\":{ts_us},\"name\":\"{}\",\"value\":{},\"max\":{}}}",
                    json_escape(name),
                    g.value,
                    g.max
                )
            });
        }
        for (name, h) in &snap.histograms {
            self.emit(|seq, ts_us| {
                format!(
                    "{{\"kind\":\"hist\",\"seq\":{seq},\"ts_us\":{ts_us},\"name\":\"{}\",\"count\":{},\"sum\":{}}}",
                    json_escape(name),
                    h.count,
                    // Emit a JSON-safe number (NaN/inf cannot occur: sums
                    // of finite samples).
                    h.sum
                )
            });
        }
        self.flush();
    }

    /// Flushes the trace sink (a no-op without one).
    pub fn flush(&self) {
        if let Some(sink) = &self.inner.trace {
            let _ = sink.lock().unwrap_or_else(|p| p.into_inner()).flush();
        }
    }

    /// Point-in-time copy of every registered metric, deterministically
    /// ordered by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .lock(&self.inner.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .lock(&self.inner.gauges)
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSummary {
                            value: v.get(),
                            max: v.max(),
                        },
                    )
                })
                .collect(),
            histograms: self
                .lock(&self.inner.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
        }
    }
}

thread_local! {
    static SPAN_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

/// Guard returned by [`Recorder::span`] / [`span!`](crate::span!):
/// records the elapsed time on drop.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records ~0"]
pub struct SpanGuard {
    recorder: Recorder,
    name: &'static str,
    depth: u32,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        SPAN_DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_us = self.start.elapsed().as_micros();
        self.recorder.histogram(self.name).record(dur_us as f64);
        let (name, depth) = (self.name, self.depth);
        self.recorder.emit(|seq, ts_us| {
            format!(
                "{{\"kind\":\"span\",\"seq\":{seq},\"ts_us\":{ts_us},\"name\":\"{}\",\"dur_us\":{dur_us},\"depth\":{depth}}}",
                json_escape(name)
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_register_once() {
        let r = Recorder::new();
        r.counter("c").add(2);
        r.counter("c").add(3);
        assert_eq!(r.counter("c").get(), 5);

        let g = r.gauge("g");
        g.set(7);
        g.add(-3);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.max(), 7, "peak survives later lower values");

        r.histogram("h").record(3.0);
        r.histogram("h").record(900.0);
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].count, 2);
        assert_eq!(snap.histograms["h"].sum, 903.0);
        // 3.0 lands in the `<= 5` bucket (index 2), 900 in `<= 1e3` (9).
        assert_eq!(snap.histograms["h"].buckets[2], 1);
        assert_eq!(snap.histograms["h"].buckets[9], 1);
    }

    #[test]
    fn overflow_bucket_catches_huge_samples() {
        let r = Recorder::new();
        r.histogram("h").record(1e12);
        let snap = r.snapshot();
        assert_eq!(*snap.histograms["h"].buckets.last().unwrap(), 1);
    }

    #[test]
    fn trace_lines_are_emitted_per_span_and_event() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let r = Recorder::with_trace(Box::new(buf.clone()));
        {
            let _s = r.span("scope");
            r.event(Level::Debug, "ev", "m \"quoted\"");
        }
        r.trace_snapshot();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"kind\":\"event\""), "{text}");
        assert!(text.contains("\"kind\":\"span\""), "{text}");
        assert!(text.contains("\"kind\":\"counter\""), "{text}");
        assert!(text.contains("m \\\"quoted\\\""), "escaped: {text}");
        crate::validate::validate_trace(&text).expect("own output must validate");
    }
}
