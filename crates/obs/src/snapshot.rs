//! Point-in-time metric snapshots: the embeddable, diffable, mergeable
//! value form of a [`Recorder`](crate::Recorder)'s registry.

use std::collections::BTreeMap;
use std::fmt;

use crate::recorder::BUCKET_BOUNDS;

/// A gauge's value at snapshot time plus its lifetime peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GaugeSummary {
    /// Last value set.
    pub value: i64,
    /// Highest value observed.
    pub max: i64,
}

/// A histogram's totals and per-bucket counts (bucket `i` counts samples
/// `<=` [`BUCKET_BOUNDS`]`[i]`; the final slot is the overflow bucket).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Per-bucket counts, `BUCKET_BOUNDS.len() + 1` long.
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// Mean sample, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`f64::INFINITY` when it sits in the overflow bucket) — a coarse
    /// but deterministic quantile for pretty-printing.
    pub fn approx_quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return BUCKET_BOUNDS.get(i).copied().unwrap_or(f64::INFINITY);
            }
        }
        f64::INFINITY
    }
}

/// Deterministically ordered copy of every metric a recorder held —
/// embedded in `SweepReport`, `DistOutcome`, and `ServeReport` as the
/// *delta* of the run ([`MetricsSnapshot::diff`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values/peaks by name.
    pub gauges: BTreeMap<String, GaugeSummary>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl MetricsSnapshot {
    /// True when nothing was recorded (e.g. instrumentation disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The activity between two snapshots of the *same* recorder:
    /// counters and histograms subtract (empty results dropped); gauges
    /// keep `after`'s state. This is what lets one long-lived recorder
    /// serve many runs, each report embedding only its own delta.
    pub fn diff(before: &MetricsSnapshot, after: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = after
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let delta = v - before.counters.get(k).copied().unwrap_or(0);
                (delta > 0).then(|| (k.clone(), delta))
            })
            .collect();
        let histograms = after
            .histograms
            .iter()
            .filter_map(|(k, h)| {
                let empty = HistogramSummary::default();
                let b = before.histograms.get(k).unwrap_or(&empty);
                let count = h.count - b.count;
                if count == 0 {
                    return None;
                }
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| c - b.buckets.get(i).copied().unwrap_or(0))
                    .collect();
                Some((
                    k.clone(),
                    HistogramSummary {
                        count,
                        sum: h.sum - b.sum,
                        buckets,
                    },
                ))
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: after.gauges.clone(),
            histograms,
        }
    }

    /// Folds another snapshot in (shard aggregation): counters and
    /// histograms add; gauges keep the maximum of value and peak.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, g) in &other.gauges {
            let slot = self.gauges.entry(k.clone()).or_default();
            slot.value = slot.value.max(g.value);
            slot.max = slot.max.max(g.max);
        }
        for (k, h) in &other.histograms {
            let slot = self
                .histograms
                .entry(k.clone())
                .or_insert_with(|| HistogramSummary {
                    count: 0,
                    sum: 0.0,
                    buckets: vec![0; h.buckets.len()],
                });
            slot.count += h.count;
            slot.sum += h.sum;
            if slot.buckets.len() < h.buckets.len() {
                slot.buckets.resize(h.buckets.len(), 0);
            }
            for (i, &c) in h.buckets.iter().enumerate() {
                slot.buckets[i] += c;
            }
        }
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "(no metrics recorded)");
        }
        if !self.counters.is_empty() {
            writeln!(f, "counters")?;
            for (name, value) in &self.counters {
                writeln!(f, "  {name:<42} {value:>12}")?;
            }
        }
        if !self.gauges.is_empty() {
            writeln!(f, "gauges{:>49}{:>13}", "value", "peak")?;
            for (name, g) in &self.gauges {
                writeln!(f, "  {name:<42} {:>12} {:>12}", g.value, g.max)?;
            }
        }
        if !self.histograms.is_empty() {
            writeln!(f, "histograms{:>45}{:>13}{:>13}", "count", "mean", "~p90")?;
            for (name, h) in &self.histograms {
                let p90 = h.approx_quantile(0.9);
                let p90 = if p90.is_finite() {
                    format!("{p90:.0}")
                } else {
                    "inf".to_string()
                };
                writeln!(
                    f,
                    "  {name:<42} {:>12} {:>12.1} {p90:>12}",
                    h.count,
                    h.mean()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;

    #[test]
    fn diff_isolates_one_runs_activity() {
        let r = Recorder::new();
        r.counter("a").add(5);
        r.histogram("h").record(10.0);
        let before = r.snapshot();
        r.counter("a").add(2);
        r.counter("b").add(1);
        r.histogram("h").record(30.0);
        let after = r.snapshot();
        let delta = MetricsSnapshot::diff(&before, &after);
        assert_eq!(delta.counters["a"], 2);
        assert_eq!(delta.counters["b"], 1);
        assert_eq!(delta.histograms["h"].count, 1);
        assert_eq!(delta.histograms["h"].sum, 30.0);
    }

    #[test]
    fn diff_drops_untouched_metrics() {
        let r = Recorder::new();
        r.counter("quiet").add(9);
        let before = r.snapshot();
        let delta = MetricsSnapshot::diff(&before, &r.snapshot());
        assert!(delta.counters.is_empty());
        assert!(delta.is_empty() || delta.gauges.len() <= 1);
    }

    #[test]
    fn merge_adds_counts_and_keeps_gauge_peaks() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("c".into(), 2);
        a.gauges
            .insert("g".into(), GaugeSummary { value: 1, max: 4 });
        let mut b = MetricsSnapshot::default();
        b.counters.insert("c".into(), 3);
        b.gauges
            .insert("g".into(), GaugeSummary { value: 2, max: 3 });
        b.histograms.insert(
            "h".into(),
            HistogramSummary {
                count: 1,
                sum: 7.0,
                buckets: vec![1, 0],
            },
        );
        a.merge(&b);
        assert_eq!(a.counters["c"], 5);
        assert_eq!(a.gauges["g"], GaugeSummary { value: 2, max: 4 });
        assert_eq!(a.histograms["h"].count, 1);
    }

    #[test]
    fn display_renders_every_section() {
        let r = Recorder::new();
        r.counter("layer.things").add(3);
        r.gauge("layer.depth").set(5);
        r.histogram("layer.lat_us").record(40.0);
        let text = format!("{}", r.snapshot());
        assert!(text.contains("counters"), "{text}");
        assert!(text.contains("gauges"), "{text}");
        assert!(text.contains("histograms"), "{text}");
        assert!(text.contains("layer.things"), "{text}");
        assert_eq!(
            format!("{}", MetricsSnapshot::default()).trim(),
            "(no metrics recorded)"
        );
    }

    #[test]
    fn approx_quantile_walks_the_buckets() {
        let r = Recorder::new();
        for _ in 0..9 {
            r.histogram("h").record(2.0); // bucket <= 2.5
        }
        r.histogram("h").record(800.0); // bucket <= 1e3
        let h = &r.snapshot().histograms["h"];
        assert_eq!(h.approx_quantile(0.5), 2.5);
        assert_eq!(h.approx_quantile(1.0), 1e3);
    }
}
